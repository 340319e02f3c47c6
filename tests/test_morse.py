import pytest
from hypothesis import assume, given, settings, strategies as st

from tightmorse import betti, constructions, from_facets
from tightmorse.algorithms import sweep_perfect_morse
from tightmorse.complex_core import canonical_face, cone, from_faces
from tightmorse.constructions import convex_fixture
from tightmorse.errors import (
    DanglingFaceError,
    EmptyLinkError,
    MatchingCycleError,
    NotAMatchingError,
    NotCofaceError,
    NotFreeAtStepError,
    TightMorseError,
)
from tightmorse.morse import (
    MorseMatching,
    critical_faces,
    from_collapse_sequence,
    is_perfect,
    lift_matching_over_cone,
    morse_differential,
    morse_vector,
    random_discrete_morse,
    validate,
)

from conftest import alternating_sum, annulus_complex, fan_disc, random_complexes, torus_3x3
import morse_oracle
from homology_oracle import betti as oracle_betti, gf2_rank


def matching(c, pairs):
    return MorseMatching(c, frozenset((canonical_face(s), canonical_face(t)) for s, t in pairs))


def has_v_cycle_brute_force(m: MorseMatching) -> bool:
    """Oracle: enumerate all alternating V-paths on a small complex."""
    partner = {s: t for s, t in m.pairs}

    def successors(s):
        t = partner[s]
        for k in range(len(t)):
            s2 = t[:k] + t[k + 1:]
            if s2 != s and s2 in partner:
                yield s2

    for start in partner:
        stack = [(start, {start})]
        while stack:
            node, seen = stack.pop()
            for nxt in successors(node):
                if nxt == start:
                    return True
                if nxt not in seen:
                    stack.append((nxt, seen | {nxt}))
    return False


def test_empty_matching_valid(checkerboard):
    m = matching(checkerboard, [])
    validate(m)
    assert morse_vector(m) == (6, 12, 4)


def test_single_pair_on_edge():
    c = from_facets([(1, 2)])
    m = matching(c, [(((1,)), (1, 2))])
    validate(m)
    assert critical_faces(m) == [(2,)]


def test_cyclic_matching_on_circle_rejected(boundary_delta2):
    m = matching(boundary_delta2, [((1,), (1, 2)), ((2,), (2, 3)), ((3,), (1, 3))])
    assert has_v_cycle_brute_force(m)  # oracle agrees this is cyclic
    with pytest.raises(MatchingCycleError) as exc:
        validate(m)
    witness = exc.value.witness
    assert witness[0] == witness[-1]
    assert len(witness) >= 5  # three up/down pairs and back


def test_acyclic_matching_on_circle_accepted(boundary_delta2):
    m = matching(boundary_delta2, [((1,), (1, 2)), ((3,), (2, 3))])
    validate(m)
    assert not has_v_cycle_brute_force(m)
    assert morse_vector(m) == (1, 1)


def test_validate_report_does_not_depend_on_build_order(checkerboard):
    # the sweep matching of the 3-simplex, validated against the checkerboard:
    # the first pair reported used to follow the frozenset's build history
    pairs = sorted(sweep_perfect_morse(convex_fixture("simplex3"), (1, 2, 4)).pairs)
    reports = set()
    for built in (pairs, pairs[::-1], set(pairs)):
        with pytest.raises(DanglingFaceError) as exc:
            validate(matching(checkerboard, built))
        reports.add(str(exc.value))
    assert reports == {"face (0, 1, 3) not in complex"}


def test_validator_agrees_with_brute_force_on_random_matchings(checkerboard):
    import random

    rng = random.Random(0)
    faces = checkerboard.faces()
    for _ in range(60):
        pairs = []
        used = set()
        for s in faces:
            if s in used or len(s) == 3 or rng.random() < 0.5:
                continue
            cofs = [t for t in faces if len(t) == len(s) + 1 and set(s) < set(t) and t not in used]
            if cofs:
                t = rng.choice(cofs)
                pairs.append((s, t))
                used |= {s, t}
        m = MorseMatching(checkerboard, frozenset(pairs))
        if has_v_cycle_brute_force(m):
            with pytest.raises(MatchingCycleError):
                validate(m)
        else:
            validate(m)


def test_structural_errors(triangle):
    with pytest.raises(DanglingFaceError):
        validate(matching(triangle, [((1, 4), (1, 2, 4))]))
    with pytest.raises(NotCofaceError):
        validate(matching(triangle, [((1,), (1, 2, 3))]))
    with pytest.raises(NotCofaceError):
        validate(matching(triangle, [((1,), (2, 3))]))
    with pytest.raises(NotAMatchingError):
        validate(matching(triangle, [((1,), (1, 2)), ((1,), (1, 3))]))


def test_validate_rejects_a_face_out_of_canonical_order():
    # (2, 1) names the edge (1, 2) out of order, so the pair matches no face
    # of the complex: morse_vector counted (1, 2) critical, (1, 1), while
    # is_perfect passed the matching as perfect
    m = MorseMatching(from_facets([(1, 2)]), frozenset({((2,), (2, 1))}))
    for check in (validate, is_perfect, morse_oracle.validate):
        with pytest.raises(DanglingFaceError, match=r"face \(2, 1\) not in complex"):
            check(m)


def test_is_perfect_on_collapse(simplex3):
    m = random_discrete_morse(simplex3, seed=0)
    assert morse_vector(m) == (1, 0, 0, 0)
    assert is_perfect(m)


def test_empty_matching_on_sphere_not_perfect(boundary_delta3):
    m = matching(boundary_delta3, [])
    assert not is_perfect(m)
    assert morse_vector(m) == (4, 6, 4)


def test_perfect_matching_on_sphere_constructed(boundary_delta3):
    # greedy construction: collapse after removing one facet, then add it back
    m = random_discrete_morse(boundary_delta3, seed=1)
    validate(m)
    assert morse_vector(m) == (1, 0, 1)
    assert is_perfect(m)


def test_from_collapse_sequence_full_triangle(triangle):
    seq = [((2, 3), (1, 2, 3)), ((2,), (1, 2)), ((3,), (1, 3))]
    m = from_collapse_sequence(triangle, seq)
    validate(m)
    assert morse_vector(m) == (1, 0, 0)


def test_from_collapse_sequence_empty(triangle):
    m = from_collapse_sequence(triangle, [])
    assert morse_vector(m) == (3, 3, 1)


def test_from_collapse_sequence_rejects_non_free(triangle):
    with pytest.raises(NotFreeAtStepError) as exc:
        from_collapse_sequence(triangle, [((1,), (1, 2))])
    assert exc.value.step == 0


def test_collapse_of_simplex3(simplex3):
    m = random_discrete_morse(simplex3, seed=3)
    assert morse_vector(m) == (1, 0, 0, 0)


# -- the cone lift ---------------------------------------------------------------

def test_lift_over_point_link():
    lk = from_facets([(5,)])
    m = matching(lk, [])
    lifted = lift_matching_over_cone(9, lk, m)
    validate(lifted)
    assert lifted.pairs == frozenset({((9,), (5, 9))})
    assert critical_faces(lifted) == [(5,)]


def test_lift_over_edge_link_quoted_rule():
    lk = from_facets([(1, 2)])
    m = matching(lk, [((1,), (1, 2))])  # critical vertex: 2
    lifted = lift_matching_over_cone(9, lk, m)
    validate(lifted)
    assert lifted.pairs == frozenset({((1, 9), (1, 2, 9)), ((9,), (2, 9))})


def test_lift_over_two_point_link_count_law():
    lk = from_facets([(1,), (2,)])
    m = matching(lk, [])
    lifted = lift_matching_over_cone(9, lk, m)
    validate(lifted)
    # c_{i+1} among apex faces = c_i(link) - delta_{i0}: one critical edge
    assert lifted.pairs == frozenset({((9,), (1, 9))})
    crit = critical_faces(lifted)
    assert (2, 9) in crit and len([f for f in crit if 9 in f]) == 1


def test_lift_count_law_on_link_complexes(checkerboard, annulus):
    for lk in (checkerboard, annulus, fan_disc(4)):
        from tightmorse.algorithms import planar_perfect_morse

        m = planar_perfect_morse(lk)
        apex = max(lk.vertices) + 1
        lifted = lift_matching_over_cone(apex, lk, m)
        validate(lifted)
        link_vector = morse_vector(m)
        lifted_crit = [f for f in critical_faces(lifted) if apex in f]
        counts = [0] * (lk.dimension + 2)
        for f in lifted_crit:
            counts[len(f) - 1] += 1
        expected = [0] + [link_vector[i] - (1 if i == 0 else 0) for i in range(lk.dimension + 1)]
        assert counts == expected


def test_lift_empty_link_rejected():
    with pytest.raises(EmptyLinkError):
        lift_matching_over_cone(9, from_faces([]), MorseMatching(from_faces([]), frozenset()))


@st.composite
def link_matchings(draw):
    """A complex of dimension at most 2 on vertices 0..7 and a set of pairs:
    part of an acyclic matching, then pairs of a face with a coface, in
    random order while they keep it a matching, which may close a V-cycle,
    and at most one pair (s, s + u), which may repeat a face, leave the
    complex through vertex 8 or fail to be a coface."""
    c = draw(random_complexes.filter(lambda c: c.dimension <= 2))
    valid = sorted(random_discrete_morse(c, seed=draw(st.integers(0, 10))).pairs)
    pairs = set(draw(st.lists(st.sampled_from(valid), unique=True)) if valid else ())
    used = {f for pair in pairs for f in pair}
    for t in draw(st.permutations([t for t in c.faces() if len(t) > 1])):
        k = draw(st.integers(0, len(t) - 1))
        s = t[:k] + t[k + 1:]
        if s not in used and t not in used:
            pairs.add((s, t))
            used |= {s, t}
    vertices = st.sampled_from((*c.vertices, 8))
    for s, u in draw(st.lists(st.tuples(st.sampled_from(c.faces()), vertices), max_size=1)):
        pairs.add((s, tuple(sorted({*s, u}))))
    return c, MorseMatching(c, frozenset(pairs))


def raises(call) -> bool:
    try:
        call()
    except TightMorseError:
        return True
    return False


def cone_pairs(apex, lk, m):
    """The lift rule, unchecked: every pair joined with the apex, and the
    apex with the edge to the smallest vertex m leaves unmatched (if any)."""
    matched = {f for pair in m.pairs for f in pair}
    pairs = {(tuple(sorted({*s, apex})), tuple(sorted({*t, apex}))) for s, t in m.pairs}
    critical = [u for (u,) in lk.faces(0) if (u,) not in matched]
    if critical:
        pairs.add(((apex,), tuple(sorted((apex, critical[0])))))
    return frozenset(pairs)


@settings(max_examples=200, deadline=None)
@given(link_matchings())
def test_lift_is_valid_iff_the_link_matching_is(case):
    # the sweep checks its lifts only through the union of their pairs
    lk, m = case
    apex = 9
    invalid = raises(lambda: validate(m))
    lifted = MorseMatching(cone(lk, apex), cone_pairs(apex, lk, m))
    assert raises(lambda: validate(lifted)) == invalid
    assert raises(lambda: lift_matching_over_cone(apex, lk, m)) == invalid
    if not invalid:
        assert lift_matching_over_cone(apex, lk, m).pairs == lifted.pairs


def outcome(check, m):
    """None, or the type, message and witness of the error check(m) raises."""
    try:
        check(m)
    except TightMorseError as exc:
        return type(exc), str(exc), getattr(exc, "witness", None)
    return None


@st.composite
def defective_matchings(draw):
    """``link_matchings`` plus two to four pairs meant as defects: a face
    with a face outside the complex, with a face that need not be a coface
    one dimension up, or a second face for the partner of a pair."""
    c, m = draw(link_matchings())
    faces = c.faces()
    pairs = set(m.pairs)
    for _ in range(draw(st.integers(2, 4))):
        s = draw(st.sampled_from(faces))
        kind = draw(st.sampled_from(["dangling", "not a coface", "twice"]))
        if kind == "dangling":
            pairs.add((s, tuple(sorted({*s, 9}))))
        elif kind == "not a coface":
            pairs.add((s, draw(st.sampled_from(faces))))
        elif pairs:
            _, t = draw(st.sampled_from(sorted(pairs)))
            k = draw(st.integers(0, len(t) - 1))
            pairs.add((t[:k] + t[k + 1:], t))
    return MorseMatching(c, frozenset(pairs))


def defects(m) -> int:
    """Pairs that leave the complex or are no face-coface pair, plus repeats."""
    c = m.complex
    faces = [f for pair in m.pairs for f in pair]
    bad = sum(s not in c or t not in c or len(t) != len(s) + 1 or not set(s) < set(t) for s, t in m.pairs)
    return bad + len(faces) - len(set(faces))


@settings(max_examples=200, deadline=None)
@given(defective_matchings())
def test_validate_reports_the_first_defect_in_sorted_order(m):
    # the unsorted structural pass hands any defect to the sorted pass
    assume(defects(m) >= 2)
    assert outcome(validate, m) == outcome(morse_oracle.validate, m)


@settings(max_examples=200, deadline=None)
@given(link_matchings())
def test_validate_matches_the_sorted_oracle(case):
    _, m = case
    assert outcome(validate, m) == outcome(morse_oracle.validate, m)


@settings(max_examples=200, deadline=None)
@given(link_matchings())
def test_morse_differential_raises_the_cycle_validate_finds(case):
    _, m = case
    expected = outcome(validate, m)
    if expected is None or expected[0] is MatchingCycleError:
        assert outcome(morse_differential, m) == expected


DEFECTS = {
    "dangling": DanglingFaceError,
    "not a coface": NotCofaceError,
    "twice": NotAMatchingError,
    "cycle": MatchingCycleError,
}


@st.composite
def one_defect_matchings(draw):
    """Part of an acyclic matching plus pairs with exactly one defect: a face
    with a face outside the complex, with a face of the complex that is no
    coface one dimension up, a face matched with two of its faces, or the
    vertices of a ring of edges matched around it, a V-cycle.  The pairs of
    the acyclic matching that meet the defect's faces are left out."""
    kind = draw(st.sampled_from(sorted(DEFECTS)))
    c = draw(random_complexes)
    if kind == "cycle":
        ring = draw(st.lists(st.integers(0, 7), min_size=3, max_size=5, unique=True))
        edges = [tuple(sorted(e)) for e in zip(ring, ring[1:] + ring[:1])]
        c = from_facets([*c.facets, *edges])
        bad = {((v,), e) for v, e in zip(ring, edges)}
    faces = c.faces()
    if kind == "dangling":
        s = draw(st.sampled_from(faces))
        bad = {(s, (*s, 9))}
    elif kind == "not a coface":
        others = [(s, t) for s in faces for t in faces if s != t and not (len(t) == len(s) + 1 and set(s) < set(t))]
        assume(others)
        bad = {draw(st.sampled_from(others))}
    elif kind == "twice":
        tops = [t for t in faces if len(t) > 1]
        assume(tops)
        t = draw(st.sampled_from(tops))
        i, j = draw(st.lists(st.integers(0, len(t) - 1), min_size=2, max_size=2, unique=True))
        bad = {(t[:i] + t[i + 1:], t), (t[:j] + t[j + 1:], t)}
    used = {f for pair in bad for f in pair}
    valid = sorted(pair for pair in random_discrete_morse(c, seed=draw(st.integers(0, 10))).pairs
                   if used.isdisjoint(pair))
    kept = draw(st.lists(st.sampled_from(valid), unique=True)) if valid else []
    return kind, MorseMatching(c, frozenset([*kept, *bad]))


@settings(max_examples=200, deadline=None)
@given(one_defect_matchings())
def test_morse_differential_raises_what_validate_raises(case):
    # the differential and is_perfect check the matching themselves
    kind, m = case
    expected = outcome(morse_oracle.validate, m)
    assert expected[0] is DEFECTS[kind]
    for check in (validate, morse_differential, is_perfect):
        assert outcome(check, m) == expected


# -- random discrete morse ----------------------------------------------------------

def test_rdm_on_e_all_seeds(checkerboard):
    for seed in range(40):
        m = random_discrete_morse(checkerboard, seed=seed)
        validate(m)
        assert morse_vector(m) == (1, 3, 0)


def test_rdm_deterministic(checkerboard):
    a = random_discrete_morse(checkerboard, seed=7)
    b = random_discrete_morse(checkerboard, seed=7)
    assert a.pairs == b.pairs


def test_rdm_point():
    m = random_discrete_morse(from_facets([(3,)]), seed=0)
    assert morse_vector(m) == (1,)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.lists(st.integers(0, 6), min_size=1, max_size=4, unique=True),
             min_size=1, max_size=5),
    st.integers(0, 10),
)
def test_rdm_morse_inequalities(facets, seed):
    c = from_facets(facets)
    m = random_discrete_morse(c, seed=seed)
    validate(m)
    mv = morse_vector(m)
    b = betti(c)
    assert all(mv[i] >= b[i] for i in range(c.dimension + 1))
    assert alternating_sum(mv) == c.euler_characteristic


# complexes with homology in dimensions 0 to 2, and random ones up to dimension 3
differential_complexes = st.one_of(
    random_complexes,
    st.sampled_from(
        [constructions.checkerboard(), constructions.dunce_hat(), annulus_complex(3), torus_3x3()]
    ),
)


@settings(max_examples=150, deadline=None)
@given(differential_complexes, st.integers(0, 10), st.data())
def test_morse_differential_ranks_give_the_betti_numbers(c, seed, data):
    # the Morse complex has the homology of c, so over Z2
    # #critical i-faces - b_i = rank d_i + rank d_{i+1}; part of an acyclic
    # matching is acyclic, so dropping pairs gives nonzero differentials
    pairs = sorted(random_discrete_morse(c, seed=seed).pairs)
    kept = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    m = MorseMatching(c, frozenset(kept))
    differential = morse_differential(m)
    critical = critical_faces(m)
    assert set(differential) == {f for f in critical if len(f) > 1}
    index = {f: k for k, f in enumerate(critical)}
    rank = [0] * (c.dimension + 2)
    for i in range(1, c.dimension + 1):
        rows = []
        for f in critical:
            if len(f) == i + 1:
                assert all(len(s) == i and s in index for s in differential[f])
                rows.append(sum(1 << index[s] for s in differential[f]))
        rank[i] = gf2_rank(rows)
    b = betti(c)
    for i in range(c.dimension + 1):
        count = sum(len(f) == i + 1 for f in critical)
        assert count - b[i] == rank[i] + rank[i + 1], i


@settings(max_examples=150, deadline=None)
@given(differential_complexes, st.integers(0, 10), st.data())
def test_is_perfect_iff_the_morse_vector_is_the_betti_vector(c, seed, data):
    # random collapses of the checkerboard and the torus are perfect, those
    # of the dunce hat are not, and most of their sub-matchings are not
    pairs = sorted(random_discrete_morse(c, seed=seed).pairs)
    subsets = st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([])
    kept = data.draw(st.one_of(st.just(pairs), subsets))
    m = MorseMatching(c, frozenset(kept))
    assert is_perfect(m) == (morse_vector(m) == oracle_betti(c))


def test_morse_differential_of_the_circle():
    # one critical vertex and edge, with the two gradient paths cancelling
    c = from_facets([(1, 2), (2, 3), (1, 3)])
    assert morse_differential(matching(c, [((2,), (1, 2)), ((3,), (2, 3))])) == {(1, 3): set()}
    # an edge with both ends critical has them as its boundary
    assert morse_differential(matching(c, [((3,), (2, 3))])) == {
        (1, 2): {(1,), (2,)},
        (1, 3): {(1,), (2,)},
    }


def test_is_perfect_reads_the_matched_faces_once(monkeypatch):
    # the structural pass builds the matched set for its doubly-matched
    # check, and the critical faces come from the layers, not a second build
    m = sweep_perfect_morse(constructions.grid_ball(3, 3, 3), (1, 17, 289))
    reads = []
    matched = MorseMatching.matched_faces
    monkeypatch.setattr(MorseMatching, "matched_faces", property(lambda self: reads.append(1) or matched.fget(self)))
    assert is_perfect(m)
    assert len(reads) == 1


def test_morse_differential_rejects_a_cyclic_matching():
    # the V-cycle (1) (1,2) (2) (2,3) (3) (1,3) (1); the differential used to
    # come out as {(3, 4): {(4,)}} instead of an error
    c = from_facets([(1, 2), (2, 3), (1, 3), (3, 4)])
    m = matching(c, [((1,), (1, 2)), ((2,), (2, 3)), ((3,), (1, 3))])
    expected = outcome(validate, m)
    assert expected[0] is MatchingCycleError
    assert expected[2] == [(1,), (1, 2), (2,), (2, 3), (3,), (1, 3), (1,)]
    assert outcome(morse_differential, m) == expected
    assert outcome(is_perfect, m) == expected


def test_betti_invariant_under_elementary_collapse(checkerboard, annulus):
    from tightmorse.complex_core import free_faces

    for c in (checkerboard, annulus):
        before = betti(c)
        s, t = free_faces(c)[0]
        after = from_faces([f for f in c.faces() if f not in (s, t)])
        assert betti(after) == before
