import random
import sys
import weakref

import pytest
from hypothesis import given, settings, strategies as st

import collapse_oracle
import search_oracle as oracle

from tightmorse import algorithms, betti, complex_core, free_faces, from_facets
from tightmorse.algorithms import (
    NonEvasivenessCertificate,
    _IsoMemo,
    _acyclic_betti,
    collapsible,
    canonical_form,
    nonevasive,
    planar_acyclic_nonevasive,
    planar_perfect_morse,
    relative_collapse,
    sweep_perfect_morse,
    verify_certificate,
)
from tightmorse.complex_core import barycentric_subdivision, from_faces, link, restrict, star
from tightmorse.constructions import (
    checkerboard,
    convex_fixture,
    dunce_hat,
    furch_ball,
    grid_ball,
    stacked_ball,
    straight_path,
    suspension_realization,
)
from tightmorse.errors import (
    NotAcyclicError,
    NotASubcomplexError,
    NotTightError,
    StuckBeforeTargetError,
    StuckNoDeletableVertexError,
    StuckNoFreeEdgeError,
)
from tightmorse.geometry import GeometricRealization
from tightmorse.morse import from_collapse_sequence, is_perfect, morse_vector, validate

from conftest import annulus_complex, fan_disc, random_complexes


def random_tree(n, seed):
    rng = random.Random(seed)
    return from_facets([(i, rng.randrange(i)) for i in range(1, n)])


# -- planar perfect morse -------------------------------------------------------

def test_planar_triangle(triangle):
    m = planar_perfect_morse(triangle)
    validate(m)
    assert morse_vector(m) == (1, 0, 0)


def test_planar_e(checkerboard):
    m = planar_perfect_morse(checkerboard)
    validate(m)
    assert morse_vector(m) == (1, 3, 0)
    assert is_perfect(m)


def test_planar_trees():
    for seed in range(5):
        t = random_tree(8, seed)
        m = planar_perfect_morse(t)
        validate(m)
        assert morse_vector(m) == (1, 0)


def test_planar_rejects_sphere(boundary_delta3):
    with pytest.raises(StuckNoFreeEdgeError):
        planar_perfect_morse(boundary_delta3)


def test_planar_corpus_vector_equals_betti(checkerboard, annulus):
    corpus = [checkerboard, annulus, fan_disc(4), fan_disc(7), annulus_complex(5),
              random_tree(6, 1)]
    for c in corpus:
        m = planar_perfect_morse(c)
        validate(m)
        assert morse_vector(m) == betti(c)


# -- non-evasive decomposition of acyclic planar complexes ------------------------

def test_acyclic_cert_triangle(triangle):
    cert = planar_acyclic_nonevasive(triangle)
    assert verify_certificate(triangle, cert)


def test_acyclic_cert_fan():
    disc = fan_disc(4)
    cert = planar_acyclic_nonevasive(disc)
    assert verify_certificate(disc, cert)
    assert link(disc, cert.vertex).dimension <= 1  # started at a path link


def test_acyclic_cert_rejects_e(checkerboard):
    with pytest.raises(NotAcyclicError):
        planar_acyclic_nonevasive(checkerboard)


def test_acyclic_cert_bowtie():
    bowtie = from_facets([(1, 2, 3), (3, 4, 5)])
    cert = planar_acyclic_nonevasive(bowtie)
    assert verify_certificate(bowtie, cert)


def test_acyclic_cert_stuck_on_dunce_hat():
    # acyclic but not planar: no vertex link is a tree, and each blocking
    # link is reported by its f-vector
    with pytest.raises(StuckNoDeletableVertexError) as exc:
        planar_acyclic_nonevasive(dunce_hat())
    assert exc.value.links == {
        1: (7, 8), 2: (7, 8), 3: (6, 7), 4: (6, 6), 5: (5, 5), 6: (6, 6), 7: (6, 6), 8: (5, 5)
    }


# -- relative collapse -------------------------------------------------------------

def test_relative_collapse_identity(annulus):
    seq = relative_collapse(annulus, annulus)
    assert len(seq) == 0


def test_relative_collapse_fan_onto_star():
    disc = fan_disc(5)
    target = star(disc, 1)
    seq = relative_collapse(disc, target)
    assert seq.target == target
    # replay through the matching machinery confirms every step was free
    m = from_collapse_sequence(disc, seq)
    validate(m)
    kept = set(disc.faces()) - {f for pair in seq.steps for f in pair}
    assert kept == set(target.faces())


def test_relative_collapse_annulus_onto_circle(annulus):
    circle = from_facets([(0, 1), (1, 2), (0, 2)])
    seq = relative_collapse(annulus, circle)
    assert seq.target == circle
    assert all(s not in circle and t not in circle for s, t in seq.steps)
    # replaying step by step never changes the Betti vector
    faces = set(annulus.faces())
    for s, t in seq.steps:
        faces -= {s, t}
        b = betti(from_faces(sorted(faces)))
        assert b + (0,) * (3 - len(b)) == (1, 1, 0)


def test_relative_collapse_rejects_non_retract(annulus):
    point = from_facets([(0,)])
    with pytest.raises(NotASubcomplexError):
        relative_collapse(annulus, point)  # not a homology isomorphism


def close_raises(*args, **kwargs):
    raise AssertionError("a face family closed by construction is closed again")


def test_relative_collapse_stuck_before_target_reports_the_residual(monkeypatch):
    # the dunce hat has no free face, so the residual is all of it
    dh, point = dunce_hat(), from_faces([(1,)])
    monkeypatch.setattr(complex_core, "_close", close_raises)
    with pytest.raises(StuckBeforeTargetError) as exc:
        relative_collapse(dh, point)
    assert exc.value.residual == dh


# -- the sweep ---------------------------------------------------------------------

def test_sweep_simplex_directions():
    # (2, 2, 4) and (4, 2, 4) tie two heights, which the sweep order breaks
    g = convex_fixture("simplex3")
    for a in range(1, 6):
        m = sweep_perfect_morse(g, (a, 2, 4))
        assert morse_vector(m) == (1, 0, 0, 0)


def test_sweep_octahedron(octahedron):
    for d in ((1, 2, 4), (1, 1, 1), (0, 0, 1), (1, -1, 0), (3, 2, 1)):
        m = sweep_perfect_morse(octahedron, d)
        assert morse_vector(m) == (1, 0, 1)
        assert is_perfect(m)


def test_sweep_single_point():
    g = GeometricRealization(from_facets([(5,)]), {5: (0, 0, 0)}, 3)
    m = sweep_perfect_morse(g, (1, 2, 4))
    assert morse_vector(m) == (1,)


def test_sweep_closed_3_manifold():
    g = convex_fixture("delta4_boundary")
    m = sweep_perfect_morse(g, (1, 2, 4, 8))
    assert morse_vector(m) == (1, 0, 0, 1)


def test_sweep_rejects_untight_input():
    roof = from_facets([(1, 2), (2, 3)])
    g = GeometricRealization(roof, {1: (0, 0, 0), 2: (1, 2, 0), 3: (2, 0.125, 0)}, 3)
    with pytest.raises(NotTightError):
        sweep_perfect_morse(g, (0, 1, 0))


def test_sweep_per_vertex_count_recursion():
    # critical counts accumulated along the sweep match the Betti recursion
    g = stacked_ball(5)
    d = (2, 3, 5)
    from tightmorse.geometry import sweep_order

    order = sweep_order(g, d)
    m = sweep_perfect_morse(g, d)
    crit = set(f for f in g.complex.faces()) - m.matched_faces
    position = {v: i for i, v in enumerate(order.vertices)}
    for j in range(1, len(order.vertices) + 1):
        prefix = restrict(g.complex, order.vertices[:j])
        counts = [0] * (prefix.dimension + 1)
        for f in crit:
            if max(position[u] for u in f) < j:
                counts[len(f) - 1] += 1
        assert counts == list(betti(prefix))


# -- non-evasiveness ------------------------------------------------------------------

def test_nonevasive_full_simplices():
    for d in range(4):
        c = from_facets([tuple(range(d + 2))])
        res = nonevasive(c)
        assert res.status == "yes"
        assert verify_certificate(c, res.certificate)


def test_nonevasive_e_betti_reject(checkerboard):
    res = nonevasive(checkerboard)
    assert res.status == "no" and res.reason == "betti"


def test_nonevasive_cone():
    from tightmorse.complex_core import cone

    c = cone(annulus_complex(3), 99)
    res = nonevasive(c)
    assert res.status == "yes"
    assert verify_certificate(c, res.certificate)


def test_nonevasive_budget():
    g = stacked_ball(3)
    res = nonevasive(g.complex, budget=2)
    assert res.status == "budget"


# The searches go one level deeper per deleted vertex or collapsed pair.
# They run on an explicit stack, so a path of 1,000 edges, beyond the
# interpreter's default recursion limit, is decided.  The certificate walks
# loop along the deletions and call themselves only on links, which are of
# lower dimension.  ``==``, ``hash`` and ``repr`` of a certificate walk it
# on a stack.

def path(edges):
    return from_facets([(i, i + 1) for i in range(edges)])


def test_nonevasive_long_path():
    c = path(1000)
    res = nonevasive(c)
    assert res.status == "yes" and res.certificate.size == 2001
    assert verify_certificate(c, res.certificate)


def test_backtracking_long_path():
    c = path(1000)
    res = collapsible(c, strategy="backtracking")
    assert res.status == "yes" and len(res.sequence) == 1000
    # the steps are appended on the way up and reversed once; the oracle
    # prepends them at every level and recurses once per collapsed pair
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + 2000)
    try:
        ref = oracle.backtracking(c)
    finally:
        sys.setrecursionlimit(limit)
    assert res.sequence.steps == ref.sequence.steps


def test_planar_acyclic_nonevasive_long_path():
    c = path(1000)
    cert = planar_acyclic_nonevasive(c)
    assert cert.size == 2001 and verify_certificate(c, cert)


def path_certificate(edges):
    """Delete 0, 1, ... in turn: each link is the next vertex."""
    cert = NonEvasivenessCertificate(edges)
    for v in reversed(range(edges)):
        cert = NonEvasivenessCertificate(v, NonEvasivenessCertificate(v + 1), cert)
    return cert


def stack_depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_deep_certificate_replays_and_relabels():
    cert = path_certificate(1200)
    c = path(1200)
    assert cert.size == 2401
    # the replay nests one call per link, and a link is of lower dimension
    expected = [oracle.verify_certificate(path(n), cert) for n in (1200, 1201)]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(stack_depth() + 50)
    try:
        verdicts = [verify_certificate(path(n), cert) for n in (1200, 1201)]
    finally:
        sys.setrecursionlimit(limit)
    assert verdicts == expected == [True, False]
    shifted = cert.relabeled({v: v + 5000 for v in c.vertices})
    assert verify_certificate(from_facets([(i + 5000, i + 5001) for i in range(1200)]), shifted)
    back = shifted.relabeled({v + 5000: v for v in c.vertices})
    shape = [(n.vertex, n.is_leaf) for n in cert._preorder()]
    assert [(n.vertex, n.is_leaf) for n in back._preorder()] == shape
    # == and hash walked one level per call frame and raised RecursionError
    assert back == cert and hash(back) == hash(cert)
    assert shifted != cert and back != back.relabeled({0: 1, 1: 0} | {v: v for v in range(2, 1201)})
    assert {cert, back, shifted} == {cert, shifted}


def deletions_alive(monkeypatch):
    """Wrap algorithms.deletion; returns the list to which each call appends
    the number of complexes that earlier calls returned and are still alive."""
    made, alive = [], []
    original = algorithms.deletion

    def spy(c, v):
        alive.append(sum(ref() is not None for ref in made))
        out = original(c, v)
        made.append(weakref.ref(out))
        return out

    monkeypatch.setattr(algorithms, "deletion", spy)
    return alive


@pytest.mark.parametrize(
    "walk",
    [lambda: verify_certificate(path(300), path_certificate(300)), lambda: planar_acyclic_nonevasive(path(300))],
    ids=["replay", "planar_acyclic_nonevasive"],
)
def test_certificate_walks_hold_one_deletion_at_a_time(monkeypatch, walk):
    # on the explicit stack every complex of the chain stayed alive until
    # the walk returned: 299 at the last deletion of a 300-edge path
    alive = deletions_alive(monkeypatch)
    assert walk()
    assert len(alive) == 300 and max(alive) <= 1


MUTATIONS = ["relabel", "drop_link", "drop_deletion", "swap", "grow", "prune", "graft"]


def mutated(cert, index, kind, label):
    """cert with its index-th node in pre-order relabelled, a child dropped,
    its children swapped, a missing child grown as the leaf ``label``, its
    subtree cut back to the leaf of its vertex (prune), or the node made
    the deletion child of a new node ``label`` whose link is the leaf
    ``label`` (graft).  Prune and graft change the size unless the node is
    a leaf."""
    done = []  # mutated subtrees, last on top
    nodes = cert._preorder()
    for i in reversed(range(len(nodes))):
        node = nodes[i]
        vertex = node.vertex
        link_cert = done.pop() if node.link_cert else None
        deletion_cert = done.pop() if node.deletion_cert else None
        if i == index:
            if kind == "relabel":
                vertex = label
            elif kind == "drop_link":
                link_cert = None
            elif kind == "drop_deletion":
                deletion_cert = None
            elif kind == "swap":
                link_cert, deletion_cert = deletion_cert, link_cert
            elif kind == "prune":
                link_cert = deletion_cert = None
            elif kind == "graft":
                node = NonEvasivenessCertificate(vertex, link_cert, deletion_cert)
                vertex, link_cert, deletion_cert = label, NonEvasivenessCertificate(label), node
            else:
                link_cert = link_cert or NonEvasivenessCertificate(label)
                deletion_cert = deletion_cert or NonEvasivenessCertificate(label)
        done.append(NonEvasivenessCertificate(vertex, link_cert, deletion_cert))
    return done[0]


def test_certificate_of_another_size_is_rejected_before_any_replay(monkeypatch):
    # a proof has one node per face: 2,001 on a 1,000-edge path
    c, cert = path(1000), path_certificate(1000)
    assert verify_certificate(c, cert)

    def replayed(*args):
        raise AssertionError("a link or deletion was built")

    monkeypatch.setattr(algorithms, "link", replayed)
    monkeypatch.setattr(algorithms, "deletion", replayed)
    for index, kind in [(0, "graft"), (2, "prune"), (1998, "drop_link")]:
        bad = mutated(cert, index, kind, 0)
        assert bad.size != c.num_faces
        assert not verify_certificate(c, bad)


def acyclic_cert_outcome(make, c):
    """The certificate, or the blocking links of StuckNoDeletableVertexError."""
    try:
        return make(c)
    except StuckNoDeletableVertexError as exc:
        return exc.links


@settings(max_examples=150, deadline=None)
@given(random_complexes, st.data())
def test_certificate_walks_match_oracle(c, data):
    # the loops give the verdicts and certificates of the walks on the stack
    certs = []
    res = nonevasive(c)
    if res.status == "yes":
        certs.append(res.certificate)
    if c.dimension <= 2 and _acyclic_betti(c):
        planar = acyclic_cert_outcome(planar_acyclic_nonevasive, c)
        assert planar == acyclic_cert_outcome(oracle.acyclic_cert, c)
        if isinstance(planar, NonEvasivenessCertificate):
            certs.append(planar)
    labels = st.sampled_from([*c.vertices, max(c.vertices) + 1])
    for cert in certs:
        assert verify_certificate(c, cert) and oracle.verify_certificate(c, cert)
        for _ in range(3):
            index = data.draw(st.integers(0, cert.size - 1))
            bad = mutated(cert, index, data.draw(st.sampled_from(MUTATIONS)), data.draw(labels))
            assert verify_certificate(c, bad) == oracle.verify_certificate(c, bad)


def leaf_text(v):
    return f"NonEvasivenessCertificate(vertex={v}, link_cert=None, deletion_cert=None)"


def test_certificate_repr_is_the_dataclass_text():
    assert repr(NonEvasivenessCertificate(1)) == leaf_text(1)
    N = NonEvasivenessCertificate
    cert = N(1, N(2), N(3, None, N(4)))
    assert repr(cert) == (
        f"NonEvasivenessCertificate(vertex=1, link_cert={leaf_text(2)}, deletion_cert="
        f"NonEvasivenessCertificate(vertex=3, link_cert=None, deletion_cert={leaf_text(4)}))"
    )


def test_deep_certificate_repr():
    # the dataclass's repr recursed once per level and raised RecursionError
    cert, text = NonEvasivenessCertificate(1200), leaf_text(1200)
    for v in reversed(range(1200)):
        cert = NonEvasivenessCertificate(v, NonEvasivenessCertificate(v + 1), cert)
        text = f"NonEvasivenessCertificate(vertex={v}, link_cert={leaf_text(v + 1)}, deletion_cert={text})"
    assert repr(cert) == text


def test_nonevasive_implies_collapsible(simplex3):
    corpus = [simplex3, fan_disc(3), from_facets([(1, 2), (2, 3)])]
    for c in corpus:
        if nonevasive(c).status == "yes":
            assert collapsible(c, strategy="backtracking").status == "yes"


def test_nonevasive_dunce_hat_exact_no():
    # contractible but evasive: the search must exhaust honestly
    res = nonevasive(dunce_hat(), budget=10**6)
    assert res.status == "no" and res.reason == "exhausted"


def search_nodes(search, c):
    """The smallest budget with which search decides c: its node count."""
    lo, hi = 0, 1
    while search(c, hi).status == "budget":
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if search(c, mid).status == "budget" else (lo, mid)
    return hi


@settings(max_examples=120, deadline=None)
@given(random_complexes)
def test_nonevasive_matches_oracle(c):
    res, ref = nonevasive(c), oracle.nonevasive(c)
    assert (res.status, res.reason, res.certificate) == (ref.status, ref.reason, ref.certificate)
    if res.status == "yes":
        assert verify_certificate(c, res.certificate)
    # one budget tick per search node, as in the oracle
    for budget in range(1, 7):
        assert nonevasive(c, budget).status == oracle.nonevasive(c, budget).status
    assert search_nodes(nonevasive, c) == search_nodes(oracle.nonevasive, c)


# the dunce hat with two pendant edges runs the branches of the search that
# the other inputs miss: a memo hit on a stored failure, a link with Euler
# characteristic 1 that is not acyclic, and a deletion that fails after its
# link was certified
PENDANT_DUNCE_HAT = from_facets([*dunce_hat().facets, (8, 98), (8, 99)])


@pytest.mark.parametrize(
    "c",
    [
        dunce_hat(), barycentric_subdivision(dunce_hat()), grid_ball(2, 1, 1).complex, stacked_ball(4).complex,
        PENDANT_DUNCE_HAT,
    ],
    ids=["dunce_hat", "dunce_hat_sd", "grid(2,1,1)", "stacked(4)", "dunce_hat+2pendants"],
)
def test_nonevasive_nodes_match_oracle(c):
    # the dunce hats search many links that are not acyclic
    res, ref = nonevasive(c), oracle.nonevasive(c)
    assert (res.status, res.reason, res.certificate) == (ref.status, ref.reason, ref.certificate)
    assert search_nodes(nonevasive, c) == search_nodes(oracle.nonevasive, c)


def test_nonevasive_search_branches_on_the_pendant_dunce_hat(monkeypatch):
    # the three branches of the search that the other inputs miss
    c = PENDANT_DUNCE_HAT
    stored_failures, cyclic_links, deleted, failed = [], [], [], []
    lookup, store, acyclic, delete = _IsoMemo.lookup, _IsoMemo.store, algorithms._acyclic_betti, algorithms.deletion

    def lookup_spy(memo, k):
        out = lookup(memo, k)
        if out[0] is not None and out[0][0] is None:
            stored_failures.append(k)
            failed.append(k)
        return out

    def store_spy(memo, k, value, form):
        if value is None:
            failed.append(k)
        store(memo, k, value, form)

    def acyclic_spy(k):
        out = acyclic(k)
        if not out and k.euler_characteristic == 1:
            cyclic_links.append(k)
        return out

    def deletion_spy(k, v):
        deleted.append(delete(k, v))
        return deleted[-1]

    monkeypatch.setattr(_IsoMemo, "lookup", lookup_spy)
    monkeypatch.setattr(_IsoMemo, "store", store_spy)
    monkeypatch.setattr(algorithms, "_acyclic_betti", acyclic_spy)
    monkeypatch.setattr(algorithms, "deletion", deletion_spy)
    res = nonevasive(c)
    assert (res.status, res.reason) == ("no", "exhausted")
    assert stored_failures, "no memo hit on a stored failure"
    assert cyclic_links, "no link with Euler characteristic 1 that is not acyclic"
    assert {id(k) for k in deleted} & {id(k) for k in failed}, "no deletion failed"


def counting(monkeypatch, module):
    """Wrap module.canonical_form; returns the list its calls append to."""
    calls = []
    original = module.canonical_form

    def wrapper(c):
        calls.append(c)
        return original(c)

    monkeypatch.setattr(module, "canonical_form", wrapper)
    return calls


@pytest.mark.parametrize(
    "make",
    [lambda: furch_ball(3, 3, 2, straight_path(3, 3, 2)).realization.complex, lambda: grid_ball(2, 1, 1).complex],
    ids=["drilled3x3x2", "grid(2,1,1)"],
)
def test_nonevasive_keys_fewer_complexes_than_oracle(monkeypatch, make):
    # the oracle keys every node that passes its Betti check; the library
    # keys a node only when an earlier one has the same f-vector
    c = make()
    lib_calls, oracle_calls = counting(monkeypatch, algorithms), counting(monkeypatch, oracle)
    res, ref = nonevasive(c), oracle.nonevasive(c)
    assert res.status == "yes" and res.certificate == ref.certificate
    assert 0 < len(lib_calls) < len(oracle_calls)


@pytest.mark.parametrize(
    "make",
    [lambda: grid_ball(2, 1, 1).complex, lambda: furch_ball(3, 3, 2, straight_path(3, 3, 2)).realization.complex],
    ids=["grid(2,1,1)", "drilled3x3x2"],
)
def test_nonevasive_reduces_no_complex_that_hits_the_memo(monkeypatch, make):
    # the memo stores only acyclic complexes and equal keys imply isomorphism,
    # so a link is looked up first and reduced only on a miss; the Betti
    # check ran first, and most of its reductions were on links that then hit
    c = make()
    ref = oracle.nonevasive(c)
    assert search_nodes(nonevasive, c) == search_nodes(oracle.nonevasive, c)
    reduced, hits = [], []
    betti, lookup = algorithms.betti, _IsoMemo.lookup

    def betti_spy(k):
        reduced.append(k)
        return betti(k)

    def lookup_spy(memo, k):
        out = lookup(memo, k)
        if out[0] is not None:
            hits.append(k)
        return out

    monkeypatch.setattr(algorithms, "betti", betti_spy)
    monkeypatch.setattr(_IsoMemo, "lookup", lookup_spy)
    res = nonevasive(c)
    assert (res.status, res.certificate) == (ref.status, ref.certificate)
    assert hits and reduced
    assert not {id(k) for k in hits} & {id(k) for k in reduced}


def test_iso_memo_keys_lazily_and_separates_equal_f_vectors(monkeypatch):
    path = from_facets([(0, 1), (1, 2), (2, 3)])
    star = from_facets([(0, 1), (0, 2), (0, 3)])
    assert path.f_vector == star.f_vector == (4, 3)
    calls = counting(monkeypatch, algorithms)
    memo = _IsoMemo()
    assert memo.lookup(path) == (None, None)
    memo.store(path, "path", None)
    assert calls == []  # nothing shares its f-vector yet
    hit, form = memo.lookup(star)
    assert hit is None and calls == [path, star]
    memo.store(star, "star", form)
    for c, value in ((path, "path"), (star, "star")):
        shift = {v: 3 * v + 10 for v in c.vertices}
        moved = from_facets([[shift[u] for u in f] for f in c.facets])
        hit, form = memo.lookup(moved)
        assert hit is not None and hit[0] == value
        # stored labels -> canonical labels -> labels of the moved copy
        back = {i: v for v, i in form[1].items()}
        assert {u: back[i] for u, i in hit[1].items()} == shift
    assert len(calls) == 4  # the stored complexes kept their keys


# -- collapsibility ---------------------------------------------------------------------

def test_collapsible_simplex_greedy(simplex3):
    res = collapsible(simplex3, strategy="greedy", seed=0)
    assert res.status == "yes"
    m = from_collapse_sequence(simplex3, res.sequence)
    assert morse_vector(m) == (1, 0, 0, 0)


def test_collapsible_e_betti_precheck(checkerboard):
    assert collapsible(checkerboard).status == "no"
    assert collapsible(checkerboard).reason == "betti"


@pytest.mark.parametrize(
    "make",
    [checkerboard, lambda: from_facets([(1,)]), lambda: from_facets([(1, 2, 3)])],
    ids=["not_acyclic", "single_vertex", "triangle"],
)
def test_collapsible_rejects_unknown_strategy_before_prechecks(make):
    # the strategy was checked only after both prechecks had passed, so a
    # typo answered "no"/"betti" or "yes" on these inputs
    with pytest.raises(ValueError, match="unknown strategy 'bogus'"):
        collapsible(make(), "bogus")


@pytest.mark.parametrize("restarts", [0, -3])
def test_greedy_collapsible_rejects_fewer_than_one_restart(restarts):
    # with no attempt it answered "budget", "0 greedy restarts failed"
    with pytest.raises(ValueError, match="need at least one greedy restart"):
        collapsible(from_facets([(1, 2, 3)]), restarts=restarts)


# RP^2 on 6 vertices: Euler characteristic 1 but Betti vector (1, 1, 1), so
# only the reduction can reject it; with a pendant edge it has a free face
RP2 = [
    (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 6, 2),
    (2, 3, 5), (3, 4, 6), (2, 4, 5), (3, 5, 6), (2, 4, 6),
]


@pytest.mark.parametrize("facets", [RP2, RP2 + [(6, 7)]], ids=["rp2", "rp2+edge"])
def test_prechecks_reject_rp2_by_its_betti_vector(facets):
    c = from_facets(facets)
    assert c.euler_characteristic == 1 and betti(c) == (1, 1, 1)
    assert bool(free_faces(c)) == (len(facets) > len(RP2))
    for res in (collapsible(c), collapsible(c, "backtracking"), nonevasive(c)):
        assert (res.status, res.reason) == ("no", "betti")
    assert collapse_oracle.collapsible_greedy(c).reason == oracle.nonevasive(c).reason == "betti"


@pytest.mark.parametrize(
    "search",
    [
        nonevasive,
        lambda c, budget: collapsible(c, "backtracking", budget),
        lambda c, budget: collapsible(c, budget=budget),
    ],
    ids=["nonevasive", "backtracking", "greedy"],
)
def test_searches_reject_a_negative_budget(search, checkerboard):
    # it answered as if the budget were 0
    for c in (from_facets([(1, 2, 3)]), checkerboard):
        with pytest.raises(ValueError, match="budget must not be negative"):
            search(c, budget=-3)
    # a budget of 0 still lets the prechecks answer
    res = search(checkerboard, budget=0)
    assert (res.status, res.reason) == ("no", "betti")
    assert search(from_facets([(1,)]), budget=0).status == "yes"


def test_dunce_hat_no_free_face():
    # acyclic, so the reason survives the Betti check of either strategy
    dh = dunce_hat()
    assert free_faces(dh) == [] and betti(dh) == (1, 0, 0)
    for strategy in ("greedy", "backtracking"):
        res = collapsible(dh, strategy=strategy)
        assert res.status == "no" and res.reason == "no free face"


def test_suspension_of_dunce_hat_not_collapsible():
    sus, _, _ = suspension_realization(dunce_hat())
    res = collapsible(sus.complex)
    assert res.status == "no" and res.reason == "no free face"


def test_backtracking_exact_small():
    assert collapsible(from_facets([(1,)]), strategy="backtracking").status == "yes"
    assert collapsible(from_facets([(1, 2), (2, 3), (1, 3)]), strategy="backtracking").status == "no"


def test_greedy_and_backtracking_agree_small_corpus(checkerboard, annulus, triangle, simplex3):
    corpus = [
        from_facets([(1,)]),
        from_facets([(1, 2)]),
        from_facets([(1, 2), (2, 3)]),
        triangle,
        from_facets([(1, 2), (2, 3), (3, 4), (1, 4)]),
        from_facets([(1, 2, 3), (2, 3, 4)]),
        from_facets([(1, 2, 3), (3, 4, 5)]),
        simplex3,
        from_facets([(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 1, 4)]),
        checkerboard,
        annulus,
        random_tree(5, 2),
    ]
    for c in corpus:
        assert c.num_faces <= 25
        exact = collapsible(c, strategy="backtracking", budget=10**6)
        greedy = collapsible(c, strategy="greedy", seed=0, restarts=50)
        assert exact.status in ("yes", "no")
        assert greedy.status == exact.status


def backtracking(c, budget=10**6):
    return collapsible(c, "backtracking", budget)


@settings(max_examples=120, deadline=None)
@given(random_complexes)
def test_backtracking_matches_oracle(c):
    res, ref = backtracking(c), oracle.backtracking(c)
    assert (res.status, res.reason) == (ref.status, ref.reason)
    assert (res.sequence is None) == (ref.sequence is None)
    if res.sequence is not None:
        assert res.sequence.steps == ref.sequence.steps
    # one budget tick per search node, as in the oracle
    for budget in range(1, 7):
        assert backtracking(c, budget).status == oracle.backtracking(c, budget).status
    assert search_nodes(backtracking, c) == search_nodes(oracle.backtracking, c)


def flapped_dunce_hat(tails):
    """The dunce hat with tails glued on: acyclic, with free faces, not collapsible."""
    return from_facets([*dunce_hat().facets, *tails])


@pytest.mark.parametrize(
    "c",
    [
        flapped_dunce_hat([(1, 2, 20), (5, 30), (30, 31)]),
        flapped_dunce_hat([(1, 2, 20), (1, 3, 21)]),
        grid_ball(1, 1, 1).complex,
        PENDANT_DUNCE_HAT,
    ],
    ids=["dunce_hat+flap+path", "dunce_hat+2flaps", "grid(1,1,1)", "dunce_hat+2pendants"],
)
def test_backtracking_nodes_match_oracle(c):
    # random complexes this small are collapsible or fail a precheck; the
    # dunce hats with tails exhaust the search and hit its dead set
    res, ref = backtracking(c), oracle.backtracking(c)
    assert (res.status, res.reason) == (ref.status, ref.reason)
    assert (res.sequence and res.sequence.steps) == (ref.sequence and ref.sequence.steps)
    assert search_nodes(backtracking, c) == search_nodes(oracle.backtracking, c)


def collapsible_outcome(res):
    seq = res.sequence
    return res.status, res.reason, seq and (seq.steps, seq.target)


@pytest.mark.parametrize(
    "c, strategy, reference",
    [
        (grid_ball(1, 1, 1).complex, "backtracking", oracle.backtracking),
        (checkerboard(), "backtracking", oracle.backtracking),
        (dunce_hat(), "backtracking", oracle.backtracking),
        (grid_ball(2, 2, 2).complex, "greedy", collapse_oracle.collapsible_greedy),
    ],
    ids=["backtracking-grid(1,1,1)", "backtracking-checkerboard", "backtracking-dunce_hat",
         "greedy-grid(2,2,2)"],
)
def test_collapsible_closes_no_face_family_again(monkeypatch, c, strategy, reference):
    # search nodes and targets are what is left after removing free pairs
    expected = collapsible_outcome(reference(c))
    monkeypatch.setattr(complex_core, "_close", close_raises)
    assert collapsible_outcome(collapsible(c, strategy)) == expected


@pytest.mark.parametrize("c", [path(50), grid_ball(1, 1, 1).complex], ids=["path(50)", "grid(1,1,1)"])
def test_backtracking_groups_no_face_set_by_dimension(monkeypatch, c):
    # a child node is its parent's levels less the collapsed pair, and the
    # target is the one vertex that no step removes
    expected = collapsible_outcome(oracle.backtracking(c))
    monkeypatch.setattr(algorithms, "_by_dimension", close_raises)
    assert collapsible_outcome(backtracking(c)) == expected


def test_collapse_sequences_replay(simplex3, annulus):
    for c, expected in ((simplex3, "yes"), (annulus, "no")):
        res = collapsible(c, strategy="backtracking")
        assert res.status == expected
        if res.sequence is not None:
            from_collapse_sequence(c, res.sequence)


def test_canonical_form_detects_relabelings(checkerboard):
    relabeled = from_facets([(10, 20, 30), (30, 40, 50), (10, 50, 60), (20, 40, 60)])
    assert canonical_form(checkerboard)[0] == canonical_form(relabeled)[0]


@settings(max_examples=120, deadline=None)
@given(random_complexes, st.randoms(use_true_random=False))
def test_canonical_form_contract(c, rnd):
    key, relabel = canonical_form(c)
    assert sorted(relabel) == list(c.vertices)
    assert sorted(relabel.values()) == list(range(c.vertex_count))
    assert key == frozenset(tuple(sorted(relabel[u] for u in f)) for f in c.facets)
    # colours ignore labels and ties go by label, so an order-preserving
    # relabelling gives the same key and the same vertex order
    shift = dict(zip(c.vertices, sorted(rnd.sample(range(100), c.vertex_count))))
    moved_key, moved_relabel = canonical_form(from_facets([[shift[u] for u in f] for f in c.facets]))
    assert moved_key == key
    assert moved_relabel == {shift[v]: i for v, i in relabel.items()}


# canonical_form counts faces per level, skips refinement rounds that cannot
# reorder and keys the maximal faces without sorting them: the same key and
# relabel as the form before it, kept as the oracle
wide_complexes = st.lists(
    st.lists(st.integers(0, 8), min_size=1, max_size=5, unique=True), min_size=1, max_size=7
).map(from_facets)


@settings(max_examples=200, deadline=None)
@given(st.one_of(random_complexes, wide_complexes))
def test_canonical_form_matches_refined_oracle(c):
    assert canonical_form(c) == oracle.refined_canonical_form(c)


@pytest.mark.parametrize(
    "facets",
    [
        [(5,)],
        [(3,), (1,), (4,)],
        [(0, 1, 2), (2, 3), (4,)],
        [(0, 1, 2, 3), (3, 4, 5), (5, 6), (7,)],
        [(0, 1), (1, 2), (2, 3), (3, 0)],
    ],
    ids=["single_vertex", "edge_free", "non_pure", "non_pure_3d", "square"],
)
def test_canonical_form_matches_refined_oracle_on_corner_cases(facets):
    c = from_facets(facets)
    assert canonical_form(c) == oracle.refined_canonical_form(c)
