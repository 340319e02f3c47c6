import random

import pytest
from hypothesis import given, settings, strategies as st

import search_oracle as oracle

from tightmorse import betti, free_faces, from_facets
from tightmorse.algorithms import (
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
    grid_ball,
    stacked_ball,
    suspension_realization,
)
from tightmorse.errors import (
    NotAcyclicError,
    NotASubcomplexError,
    NotTightError,
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
    assert tuple(morse_vector(m)) == (1, 0, 0)


def test_planar_e(checkerboard):
    m = planar_perfect_morse(checkerboard)
    validate(m)
    assert tuple(morse_vector(m)) == (1, 3, 0)
    assert is_perfect(m)


def test_planar_trees():
    for seed in range(5):
        t = random_tree(8, seed)
        m = planar_perfect_morse(t)
        validate(m)
        assert tuple(morse_vector(m)) == (1, 0)


def test_planar_rejects_sphere(boundary_delta3):
    with pytest.raises(StuckNoFreeEdgeError):
        planar_perfect_morse(boundary_delta3)


def test_planar_corpus_vector_equals_betti(checkerboard, annulus):
    corpus = [checkerboard, annulus, fan_disc(4), fan_disc(7), annulus_complex(5),
              random_tree(6, 1)]
    for c in corpus:
        m = planar_perfect_morse(c)
        validate(m)
        assert tuple(morse_vector(m)) == tuple(betti(c))


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
        assert (b[0], b[1], b[2]) == (1, 1, 0)


def test_relative_collapse_rejects_non_retract(annulus):
    point = from_facets([(0,)])
    with pytest.raises(NotASubcomplexError):
        relative_collapse(annulus, point)  # not a homology isomorphism


# -- the sweep ---------------------------------------------------------------------

def test_sweep_simplex_directions():
    # (2, 2, 4) and (4, 2, 4) tie two heights, which the sweep order breaks
    g = convex_fixture("simplex3")
    for a in range(1, 6):
        m = sweep_perfect_morse(g, (a, 2, 4))
        assert tuple(morse_vector(m)) == (1, 0, 0, 0)


def test_sweep_octahedron(octahedron):
    for d in ((1, 2, 4), (1, 1, 1), (0, 0, 1), (1, -1, 0), (3, 2, 1)):
        m = sweep_perfect_morse(octahedron, d)
        assert tuple(morse_vector(m)) == (1, 0, 1)
        assert is_perfect(m)


def test_sweep_single_point():
    g = GeometricRealization(from_facets([(5,)]), {5: (0, 0, 0)}, 3)
    m = sweep_perfect_morse(g, (1, 2, 4))
    assert tuple(morse_vector(m)) == (1,)


def test_sweep_closed_3_manifold():
    g = convex_fixture("delta4_boundary")
    m = sweep_perfect_morse(g, (1, 2, 4, 8))
    assert tuple(morse_vector(m)) == (1, 0, 0, 1)


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


@pytest.mark.parametrize(
    "c",
    [dunce_hat(), barycentric_subdivision(dunce_hat()), grid_ball(2, 1, 1).complex, stacked_ball(4).complex],
    ids=["dunce_hat", "dunce_hat_sd", "grid(2,1,1)", "stacked(4)"],
)
def test_nonevasive_nodes_match_oracle(c):
    # the dunce hats search many links that are not acyclic
    res, ref = nonevasive(c), oracle.nonevasive(c)
    assert (res.status, res.reason, res.certificate) == (ref.status, ref.reason, ref.certificate)
    assert search_nodes(nonevasive, c) == search_nodes(oracle.nonevasive, c)


# -- collapsibility ---------------------------------------------------------------------

def test_collapsible_simplex_greedy(simplex3):
    res = collapsible(simplex3, strategy="greedy", seed=0)
    assert res.status == "yes"
    m = from_collapse_sequence(simplex3, res.sequence)
    assert tuple(morse_vector(m)) == (1, 0, 0, 0)


def test_collapsible_e_betti_precheck(checkerboard):
    assert collapsible(checkerboard).status == "no"
    assert collapsible(checkerboard).reason == "betti"


def test_dunce_hat_no_free_face():
    dh = dunce_hat()
    assert free_faces(dh) == []
    res = collapsible(dh, strategy="greedy")
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
