"""The library's record types behave as the frozen dataclasses they were.

Each of the 14 classes on ``complex_core.Record`` is compared with its
``@dataclass(frozen=True)`` twin in ``records_oracle`` over hypothesis-drawn
field values: construction (positional, keyword, defaults, validation
errors), ``repr``, ``==`` and ``!=``, ``hash``, ``len`` and ``bool``,
assignment and deletion, ``vars``, and pickle and copy round trips.
"""

import copy
import dataclasses
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import records_oracle
from tightmorse import algorithms, constructions, geometry, morse
from tightmorse.complex_core import Record, from_facets
from tightmorse.errors import FormatError, InvalidEmbeddingError, PathSelfIntersectsError

MODULES = {
    algorithms: ["CollapseSequence", "NonEvasivenessCertificate", "NonEvasiveResult", "CollapsibleResult"],
    geometry: [
        "GeometricRealization", "SweepOrder", "TightnessFailure", "TightnessReport", "SampledTightnessReport",
    ],
    morse: ["MorseMatching"],
    constructions: ["LatticePath", "FurchBall", "ConeSphere", "WedgeThickening"],
}
OURS = {name: getattr(module, name) for module, names in MODULES.items() for name in names}
NAMES = sorted(OURS)

# field values that are often equal to one another, or equal across types
# (1 == True == 1.0, 0.0 == -0.0), so that == is often true; NaN is left out,
# since the dataclass's own __eq__ has treated it differently across Python
# versions (test_equality_compares_field_tuples pins the library's rule)
POOL = [
    None, 0, 1, True, 1.0, 0.0, -0.0, Fraction(1, 2), "yes", "no", (), (1, 2), ((0,), (0, 1)),
    frozenset(), frozenset({((0,), (0, 1))}), from_facets([(0, 1)]), from_facets([(0, 1), (1, 2)]),
]


class CertSpec(tuple):
    """A certificate tree to build in either family: (vertex, link, deletion)."""


cert_specs = st.recursive(
    st.builds(lambda v: CertSpec((v, None, None)), st.integers(0, 3)),
    lambda kids: st.builds(
        lambda v, a, b: CertSpec((v, a, b)), st.integers(0, 3), st.none() | kids, st.none() | kids,
    ),
    max_leaves=4,
)
values = st.sampled_from(POOL) | cert_specs
children = st.none() | cert_specs

small_complexes = st.lists(
    st.lists(st.integers(0, 3), min_size=1, max_size=3, unique=True), min_size=1, max_size=3,
).map(from_facets)


@st.composite
def realization_fields(draw):
    c = draw(small_complexes)
    k = draw(st.integers(1, 3))
    labels = draw(st.sets(st.integers(0, 4)))
    coords = {v: tuple(draw(st.lists(st.integers(-2, 2), min_size=k - 1, max_size=k + 1))) for v in labels}
    return [c, coords, k]


cubes = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2))


@st.composite
def walks(draw):
    """Cube paths of unit steps, which may repeat a cube."""
    path = [draw(cubes)]
    for axis, step in draw(st.lists(st.tuples(st.integers(0, 2), st.sampled_from([-1, 1])), max_size=4)):
        cube = list(path[-1])
        cube[axis] += step
        path.append(tuple(cube))
    return path


FIELDS = {
    "NonEvasivenessCertificate": lambda: st.tuples(values, children, children).map(list),
    "GeometricRealization": realization_fields,
    "LatticePath": lambda: (walks() | st.lists(cubes, max_size=4)).map(lambda path: [tuple(path)]),
}


def field_values(name: str):
    if name in FIELDS:
        return FIELDS[name]()
    return st.lists(values, min_size=len(OURS[name].__match_args__), max_size=len(OURS[name].__match_args__))


def build(spec, family):
    if isinstance(spec, CertSpec):
        return family["NonEvasivenessCertificate"](*(build(part, family) for part in spec))
    return spec


TWINS = {name: getattr(records_oracle, name) for name in NAMES}


def make(family, name, specs, keyword=False):
    args = [build(spec, family) for spec in specs]
    cls = family[name]
    if keyword:
        return cls(**dict(zip(cls.__match_args__, args)))
    return cls(*args)


def outcome(f):
    """What f() gives: the repr of its value, or the type and message it raises."""
    try:
        return ("value", repr(f()))
    except Exception as exc:
        return ("raises", type(exc), str(exc))


def same_outcome(f, g):
    """f() and g() give values of one repr, or raise the same message, one
    exception type a subclass of the other (a dataclass's FrozenInstanceError
    is an AttributeError)."""
    a, b = outcome(f), outcome(g)
    if a[0] == "value" or b[0] == "value":
        return a == b
    return a[2] == b[2] and (a[1] is b[1] or issubclass(a[1], b[1]) or issubclass(b[1], a[1]))


# subclasses of each class and twin, for equality across classes
SUBCLASSES = {name: (type(name, (OURS[name],), {}), type(name, (TWINS[name],), {})) for name in NAMES}


def test_every_record_has_a_twin():
    assert all(issubclass(cls, Record) for cls in OURS.values())
    for name in NAMES:
        fields = tuple(f.name for f in dataclasses.fields(TWINS[name]))
        assert OURS[name].__match_args__ == fields, name
    assert len(NAMES) == 14


@pytest.mark.parametrize("name", NAMES)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_record_behaves_as_its_frozen_dataclass(name, data):
    specs, other_specs = data.draw(field_values(name)), data.draw(field_values(name))
    assert same_outcome(lambda: make(OURS, name, specs), lambda: make(TWINS, name, specs))
    if outcome(lambda: make(OURS, name, specs))[0] == "raises":  # a validation error, the twin's
        assert same_outcome(lambda: make(OURS, name, specs, True), lambda: make(TWINS, name, specs, True))
        return
    a, b = make(OURS, name, specs), make(TWINS, name, specs)
    assert repr(a) == repr(b)

    by_keyword = make(OURS, name, specs, keyword=True)
    assert repr(by_keyword) == repr(a) and by_keyword == a

    twin_fields = dataclasses.fields(TWINS[name])
    required = sum(f.default is dataclasses.MISSING for f in twin_fields)
    if required < len(twin_fields):
        assert repr(make(OURS, name, specs[:required])) == repr(make(TWINS, name, specs[:required]))

    # a certificate's hand-written hash is that of its tree's pre-order, not
    # the dataclass's, so a record that holds one hashes to another value
    holds_certificate = name == "NonEvasivenessCertificate" or any(isinstance(s, CertSpec) for s in specs)
    if not holds_certificate:
        assert same_outcome(lambda: hash(a), lambda: hash(b))
    if outcome(lambda: make(OURS, name, other_specs))[0] == "value":
        a2, b2 = make(OURS, name, other_specs), make(TWINS, name, other_specs)
        assert (a == a2) == (b == b2) and (a != a2) == (b != b2)
        if a == a2 and outcome(lambda: hash(a))[0] == "value":
            assert hash(a) == hash(a2)
    assert (a == a) == (b == b) and (a != a) == (b != b)
    plain = tuple(build(spec, OURS) for spec in specs)
    assert a.__eq__(plain) is NotImplemented and b.__eq__(plain) is NotImplemented
    assert a != plain and not a == plain
    assert a.__eq__(b) is NotImplemented and a != b
    if name != "NonEvasivenessCertificate":  # whose __eq__ takes any certificate
        sub_ours, sub_twin = SUBCLASSES[name]
        assert (a == sub_ours(*a._values())) == (b == sub_twin(*(getattr(b, f.name) for f in twin_fields)))

    assert same_outcome(lambda: len(a), lambda: len(b))
    assert same_outcome(lambda: bool(a), lambda: bool(b))

    for attr in (*a.__match_args__, "other"):
        before = repr(a)
        for act in (lambda r: setattr(r, attr, 0), lambda r: delattr(r, attr)):
            with pytest.raises(AttributeError) as ours_exc:
                act(a)
            with pytest.raises(AttributeError) as twin_exc:
                act(b)
            assert type(ours_exc.value) is AttributeError
            assert str(ours_exc.value) == str(twin_exc.value)
        assert repr(a) == before

    assert list(vars(a)) == list(vars(b)) == list(a.__match_args__)
    for clone in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
        assert type(clone) is type(a) and repr(clone) == repr(a) and clone == a
        assert list(vars(clone)) == list(vars(a))
        with pytest.raises(AttributeError):
            clone.other = 0


def test_equality_compares_field_tuples():
    nan = float("nan")
    f = geometry.TightnessFailure(nan, 1, 0, 0)
    # the same NaN object: tuple equality takes identity first
    assert f == f and f == geometry.TightnessFailure(nan, 1, 0, 0)
    assert f != geometry.TightnessFailure(float("nan"), 1, 0, 0)
    assert hash(f) == hash((nan, 1, 0, 0))
    assert math.isnan(f.threshold)


def test_realization_is_unhashable_and_validates():
    c = from_facets([(0, 1), (1, 2)])
    g = geometry.GeometricRealization(c, {0: (0,), 1: (1,), 2: (2,)}, 1)
    with pytest.raises(TypeError, match="unhashable type: 'dict'"):
        hash(g)
    with pytest.raises(InvalidEmbeddingError, match="^vertex 1 has no coordinates$"):
        geometry.GeometricRealization(c, {0: (0,), 2: (2,)}, 1)
    with pytest.raises(InvalidEmbeddingError, match=r"^vertex 0 has 2 coordinates, expected 1$"):
        geometry.GeometricRealization(c, {0: (0, 0), 1: (1,), 2: (2,)}, 1)


def test_lattice_path_validates():
    with pytest.raises(PathSelfIntersectsError, match=r"^cube \(0, 0, 0\) repeated$"):
        constructions.LatticePath(((0, 0, 0), (0, 0, 1), (0, 0, 0)))
    with pytest.raises(FormatError, match=r"^cubes \(0, 0, 0\) and \(0, 1, 1\) are not face-adjacent$"):
        constructions.LatticePath(((0, 0, 0), (0, 1, 1)))
    assert len(constructions.LatticePath(((0, 0, 0), (0, 0, 1)))) == 2


def test_records_match_by_field_names():
    match algorithms.NonEvasiveResult("yes", reason="r"):
        case algorithms.NonEvasiveResult(status, certificate, reason):
            assert (status, certificate, reason) == ("yes", None, "r")
