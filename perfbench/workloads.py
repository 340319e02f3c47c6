"""The four workloads: set-up (build, certify, write inputs) and job lists.

Every job loads its input through ``formats`` as the CLI does, runs one
library operation and returns its output; the job's check compares that
output with facts computed by ``checks`` from the written files, never with
an earlier output of the library.  Job lists are composed in tiers of
like-sized jobs, so that the 50th and 90th percentiles of job time fall
inside a tier and not on a step between tiers (README.md lists each tier).
"""

from __future__ import annotations

import itertools
import json
import random
import subprocess
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import checks
from checks import CheckError

BALL = (1, 0, 0, 0)
SPHERE3 = (1, 0, 0, 1)
DISK = (1, 0, 0)


def signed_perms(base) -> list:
    out = []
    for perm in itertools.permutations(base):
        for signs in itertools.product((1, -1), repeat=len(base)):
            out.append(tuple(s * x for s, x in zip(signs, perm)))
    return out


D3 = signed_perms((1, 17, 289))
D4 = signed_perms((1, 17, 289, 4913))


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    check: Callable[[object], None]
    # the operation fails every time because of a known fault in the library
    known_fault: bool = False
    # command line of a cli job, run in-process by the traced run
    argv: list | None = None


@dataclass
class Inputs:
    """Files written by a set-up, with the facts known about each."""

    workdir: Path
    paths: dict = field(default_factory=dict)
    expected_betti: dict = field(default_factory=dict)
    _read: dict = field(default_factory=dict)
    _betti: dict = field(default_factory=dict)

    def path(self, name: str) -> str:
        return self.paths[name]

    def _load(self, name: str):
        if name not in self._read:
            coords, facets = checks.read_facets_text(Path(self.paths[name]).read_text())
            self._read[name] = (checks.closure(facets), coords)
        return self._read[name]

    def faces(self, name: str) -> frozenset:
        return self._load(name)[0]

    def coords(self, name: str) -> dict:
        return self._load(name)[1]

    def betti(self, name: str) -> tuple:
        if name not in self._betti:
            self._betti[name] = checks.betti(self.faces(name))
        return self._betti[name]

    def confirm(self) -> None:
        """Each input has the homology its construction promises."""
        for name, expected in self.expected_betti.items():
            if self.betti(name) != expected:
                raise CheckError(f"input {name} has Betti vector {self.betti(name)}, expected {expected}")


class Context:
    """What a workload needs: the library, the seed's generator, a directory."""

    def __init__(self, lib, seed: int, workdir: Path, python: str, env: dict):
        self.lib = lib
        self.seed = seed
        self.workdir = workdir
        self.python = python
        self.env = env

    def rng(self, workload: str) -> random.Random:
        return random.Random(f"{workload}:{self.seed}")

    # -- set-up helpers (timed as set-up) ---------------------------------

    def write(self, inp: Inputs, name: str, obj, expected: tuple) -> None:
        """Certify the Betti vector of a realization or complex, then write
        it as a geom or facets file."""
        lib = self.lib
        c = getattr(obj, "complex", obj)
        if tuple(lib.homology_z2.betti(c)) != expected:
            raise RuntimeError(f"set-up: {name} is not {expected}")
        geom = c is not obj
        path = str(self.workdir / (name + (".geom" if geom else ".facets")))
        lib.formats.write_text(path, lib.formats.dump_geom(obj) if geom else lib.formats.dump_facets(c))
        inp.paths[name] = path
        inp.expected_betti[name] = expected


def _distinct_heights(coords: dict, direction) -> bool:
    hs = [sum(Fraction(p) * d for p, d in zip(xs, direction)) for xs in coords.values()]
    return len(set(hs)) == len(hs)


def _direction(rng: random.Random, inp: Inputs, name: str, pool: list):
    """A direction from the pool, drawn by the seed, with strictly ordered heights."""
    coords = inp.coords(name)
    for d in rng.sample(pool, len(pool)):
        if _distinct_heights(coords, d):
            return d
    raise RuntimeError(f"no direction in general position for {name}")


def _oriented(rng: random.Random, dims, d):
    """The job (grid box dims, direction d) turned by a symmetry of the
    triangulated box: an axis permutation applied to both, and possibly the
    central reflection, which negates the direction.  Every grid cube is cut
    along its main diagonal, so each such copy is the same computation up to
    vertex labels, and its cost does not depend on the draw."""
    q = rng.sample(range(3), 3)
    sign = rng.choice((1, -1))
    return tuple(dims[i] for i in q), tuple(sign * d[i] for i in q)


def _swap_xy(rng: random.Random, d):
    """A straight-drilled ball is symmetric under exchanging x and y."""
    return (d[1], d[0], d[2]) if rng.random() < 0.5 else tuple(d)


# -- checks shared by the jobs --------------------------------------------------

def _expect_perfect(inp: Inputs, name: str, m) -> None:
    critical = checks.check_matching(inp.faces(name), m.pairs)
    if critical != inp.betti(name):
        raise CheckError(f"{name}: critical counts {critical} != Betti vector {inp.betti(name)}")


def _failure_set(failures) -> set:
    return {(Fraction(f.threshold), f.dim) for f in failures}


class _Truth:
    """Upper-set failures of acyclic inputs, computed once per direction."""

    def __init__(self, inp: Inputs):
        self.inp = inp
        self.cache: dict = {}

    def failures(self, name: str, direction) -> set:
        key = (name, tuple(direction))
        if key not in self.cache:
            self.cache[key] = checks.upper_failures(self.inp.faces(name), self.inp.coords(name), direction)
        return self.cache[key]


# -- sweep --------------------------------------------------------------------------

SWEEP_GRIDS = [(1, 1, 1), (2, 1, 1), (1, 2, 1), (1, 1, 2), (2, 2, 1), (2, 1, 2), (1, 2, 2),
               (2, 2, 2), (3, 2, 2), (2, 3, 2), (2, 2, 3), (3, 3, 3)]


def _grid_name(dims) -> str:
    return "grid" + "x".join(map(str, dims))


def setup_sweep(ctx: Context) -> Inputs:
    C = ctx.lib.constructions
    rng = ctx.rng("sweep")
    inp = Inputs(ctx.workdir)
    for dims in SWEEP_GRIDS:
        ctx.write(inp, _grid_name(dims), C.grid_ball(*dims), BALL)
    # stacked_ball's placement work depends on its seed, so only the small
    # ball is seeded and the set-up's cost does not depend on --seed
    for k, name in ((6, f"stacked(6,{rng.randrange(10**6)})"), (8, "stacked(8)")):
        g = C.convex_fixture(name)
        if not C.verify_convex_position(g):
            raise RuntimeError(f"set-up: {name} is not in convex position")
        ctx.write(inp, f"stacked{k}", g, BALL)
    ctx.write(inp, "cross4", C.convex_fixture("schlegel_cross4"), BALL)
    ctx.write(inp, "delta4", C.convex_fixture("delta4_boundary"), SPHERE3)
    for base in ("octahedron_boundary", "icosahedron_boundary"):
        g, _, _ = C.suspension_realization(C.convex_fixture(base).complex)
        ctx.write(inp, f"susp_{base.split('_')[0]}", g, SPHERE3)
    ball = C.furch_ball(3, 3, 2, C.straight_path(3, 3, 2))
    ctx.write(inp, "drilled3x3x2", ball.realization, BALL)
    return inp


def jobs_sweep(ctx: Context, inp: Inputs) -> list:
    lib = ctx.lib
    rng = ctx.rng("sweep-jobs")
    truth = _Truth(inp)
    jobs: list[Job] = []

    def sweep(name: str, d, tight: bool):
        def run():
            g = lib.formats.read_geom(inp.path(name))
            try:
                return lib.algorithms.sweep_perfect_morse(g, d)
            except lib.errors.NotTightError as exc:
                return exc

        def check(out):
            if tight:
                if isinstance(out, Exception):
                    raise CheckError(f"sweep {name} {d}: tight input reported not tight")
                _expect_perfect(inp, name, out)
                return
            if not isinstance(out, lib.errors.NotTightError):
                raise CheckError(f"sweep {name} {d}: expected a prefix failure")
            # the prefixes are the upper sets of the negated direction
            want = truth.failures(name, tuple(-x for x in d))
            if not want or _failure_set(out.report.failures) != want:
                raise CheckError(f"sweep {name} {d}: failures differ from the sublevel homology")

        jobs.append(Job(f"sweep {name} {d}", run, check))

    def pi(name: str, d, tight: bool):
        def run():
            return lib.geometry.is_pi_tight(lib.formats.read_geom(inp.path(name)), d)

        def check(rep):
            if rep.tight != tight:
                raise CheckError(f"is_pi_tight {name} {d}: tight={rep.tight}, expected {tight}")
            if name.startswith("drilled") and _failure_set(rep.failures) != truth.failures(name, d):
                raise CheckError(f"is_pi_tight {name} {d}: failures differ from the upper-set homology")

        jobs.append(Job(f"is_pi_tight {name} {d}", run, check))

    def embed(name: str, known_fault: bool):
        def run():
            lib.geometry.verify_embedding(lib.formats.read_geom(inp.path(name)))
            return True

        jobs.append(Job(f"verify_embedding {name}", run, lambda out: None, known_fault))

    def convex(name, pool, n_pi, n_sweep):
        for _ in range(n_pi):
            pi(name, _direction(rng, inp, name, pool), True)
        for _ in range(n_sweep):
            sweep(name, _direction(rng, inp, name, pool), True)

    def box(kind, dims, d, n):
        """n copies of one job on a box, each turned by a symmetry drawn by
        the seed (the same computation up to vertex labels)."""
        for _ in range(n):
            turned, td = _oriented(rng, dims, d)
            kind(_grid_name(turned), td, True)

    susp_dirs = [(0, 0, 0, 1), (0, 0, 0, -1)]
    # tier 0 (78 jobs, up to ~12 ms): small convex balls and 3-spheres
    convex("grid1x1x1", D3, 6, 6)
    for kind in (pi, sweep):
        box(kind, (2, 1, 1), (1, 17, 289), 6)
    box(pi, (2, 2, 1), (1, 17, 289), 12)
    for name in ("stacked6", "stacked8", "cross4"):
        convex(name, D3, 4, 4)
    convex("delta4", D4, 4, 4)
    convex("susp_octahedron", susp_dirs, 4, 4)
    convex("susp_icosahedron", susp_dirs, 2, 0)
    # tier 1 (60 jobs, holds the median): sweeps of 2x2x1 boxes
    box(sweep, (2, 2, 1), (1, 17, 289), 60)
    # tier 2 (18 jobs): the 2x2x2 cube and the suspended icosahedron
    box(pi, (2, 2, 2), (1, 17, 289), 8)
    box(sweep, (2, 2, 2), (1, 17, 289), 8)
    convex("susp_icosahedron", susp_dirs, 0, 2)
    # tier 3 (20 jobs, holds the 90th percentile): is_pi_tight on 3x2x2 boxes
    box(pi, (3, 2, 2), (1, 17, 289), 20)
    # tier 4 (7 jobs): drilled balls both ways, the 3x3x3 cube, embeddings.
    # On a straight-drilled ball the sweep's prefixes stay injective when the
    # sweep rises in z and fail when it falls (the open end of the tube comes
    # first); the upper sets of is_pi_tight are the other way round.
    for d, tight in (((1, 17, 289), True), ((1, 17, -289), False)):
        sweep("drilled3x3x2", _swap_xy(rng, d), tight)
        pi("drilled3x3x2", _swap_xy(rng, d), not tight)
    box(pi, (3, 3, 3), (1, 17, 289), 1)
    embed("grid1x1x1", False)
    # grid_ball(2, 1, 1) is embedded, but verify_embedding rejects it: its
    # contact LP tries a single basis when the system is rank-deficient
    embed("grid2x1x1", True)
    return jobs


# -- collapse -------------------------------------------------------------------------

def setup_collapse(ctx: Context) -> Inputs:
    C, K = ctx.lib.constructions, ctx.lib.complex_core
    rng = ctx.rng("collapse")
    inp = Inputs(ctx.workdir)
    for dims in ((1, 1, 1), (2, 2, 2), (3, 3, 3), (4, 4, 4)):
        ctx.write(inp, _grid_name(dims), C.grid_ball(*dims), BALL)
    for n in (3, 5):
        ball = C.furch_ball(n, n, n, C.straight_path(n, n, n))
        ctx.write(inp, f"drilled{n}", ball.realization, BALL)
        ctx.write(inp, f"cone{n}", C.cone_sphere(ball.realization.complex).complex, SPHERE3)
    for dims in ((1, 1, 1), (2, 1, 1), (2, 2, 1), (2, 2, 2), (4, 4, 4)):
        rim = K.boundary_complex(C.grid_ball(*dims).complex)
        tri = sorted(rim.face_set(2))[rng.randrange(len(rim.face_set(2)))]
        ctx.write(inp, "disk" + _grid_name(dims)[4:], C.remove_facet(rim, tri), DISK)
    return inp


def jobs_collapse(ctx: Context, inp: Inputs) -> list:
    lib = ctx.lib
    rng = ctx.rng("collapse-jobs")
    jobs: list[Job] = []

    def rdm(name: str):
        seed = rng.randrange(10**6)

        def run():
            return lib.morse.random_discrete_morse(lib.formats.read_complex(inp.path(name)), seed)

        def check(m):
            critical = checks.check_matching(inp.faces(name), m.pairs)
            checks.check_morse_inequalities(inp.faces(name), critical)

        jobs.append(Job(f"random_discrete_morse {name} seed={seed}", run, check))

    def greedy(name: str):
        seed = rng.randrange(10**6)

        def run():
            return lib.algorithms.collapsible(lib.formats.read_complex(inp.path(name)), "greedy", seed=seed)

        def check(res):
            if inp.betti(name) != BALL:
                if res.status != "no":
                    raise CheckError(f"greedy {name}: {res.status} on a complex with homology")
                return
            if res.status != "yes":
                raise CheckError(f"greedy {name} seed={seed}: {res.status}")
            left = checks.replay_collapse(inp.faces(name), res.sequence.steps)
            if len(left) != 1 or left != set(res.sequence.target.faces()):
                raise CheckError(f"greedy {name}: replay ends in {len(left)} faces, not the target vertex")

        jobs.append(Job(f"collapsible greedy {name} seed={seed}", run, check))

    def relative(name: str):
        vertex = rng.choice(sorted(v for (v,) in (f for f in inp.faces(name) if len(f) == 1)))

        def run():
            c = lib.formats.read_complex(inp.path(name))
            return lib.algorithms.relative_collapse(c, lib.complex_core.from_faces([(vertex,)]))

        def check(seq):
            if checks.replay_collapse(inp.faces(name), seq.steps) != {(vertex,)}:
                raise CheckError(f"relative_collapse {name}: replay does not end at vertex {vertex}")

        jobs.append(Job(f"relative_collapse {name} onto {vertex}", run, check))

    # tier 0 (60 jobs, under ~3 ms): the unit cube and small disks
    for _ in range(20):
        rdm("grid1x1x1")
        greedy("grid1x1x1")
    for name in ("disk1x1x1", "disk2x1x1", "disk2x2x1", "disk2x2x2"):
        for _ in range(5):
            relative(name)
    # tier 1 (60 jobs, holds the median): random collapses of the 2x2x2 cube
    for _ in range(30):
        rdm("grid2x2x2")
        greedy("grid2x2x2")
    # tier 2 (30 jobs): a punctured 4x4x4 boundary, and a cone sphere that
    # greedy collapsing rejects by its homology
    for _ in range(20):
        relative("disk4x4x4")
    for _ in range(10):
        greedy("cone5")
    # tier 3 (24 jobs, holds the 90th percentile): 3x3x3 balls and a cone sphere
    for _ in range(6):
        rdm("grid3x3x3")
        greedy("grid3x3x3")
        rdm("drilled3")
        rdm("cone3")
    # tier 4 (4 jobs): the large balls
    rdm("grid4x4x4")
    greedy("grid4x4x4")
    rdm("drilled5")
    greedy("drilled5")
    return jobs


# -- search ---------------------------------------------------------------------------

def setup_search(ctx: Context) -> Inputs:
    C, K = ctx.lib.constructions, ctx.lib.complex_core
    rng = ctx.rng("search")
    inp = Inputs(ctx.workdir)
    for dims in ((1, 1, 1), (2, 1, 1), (1, 2, 1), (1, 1, 2), (2, 2, 1), (2, 1, 2), (1, 2, 2), (2, 2, 2)):
        ctx.write(inp, _grid_name(dims), C.grid_ball(*dims), BALL)
    ctx.write(inp, "simplex3", C.convex_fixture("simplex3"), BALL)
    ctx.write(inp, "cross4", C.convex_fixture("schlegel_cross4"), BALL)
    ctx.write(inp, "stacked4", C.convex_fixture(f"stacked(4,{rng.randrange(10**6)})"), BALL)
    ctx.write(inp, "stacked12", C.convex_fixture("stacked(12)"), BALL)
    for dims in ((3, 3, 2), (3, 3, 3), (4, 4, 3)):
        ball = C.furch_ball(*dims, C.straight_path(*dims))
        ctx.write(inp, "drilled" + "x".join(map(str, dims)), ball.realization, BALL)
    dunce = C.dunce_hat()
    ctx.write(inp, "dunce", dunce, DISK)
    ctx.write(inp, "dunce_sd", K.barycentric_subdivision(dunce), DISK)
    ctx.write(inp, "checkerboard", C.checkerboard(), (1, 3, 0))
    ctx.write(inp, "cone1", C.cone_sphere(C.grid_ball(1, 1, 1).complex).complex, SPHERE3)
    return inp


def jobs_search(ctx: Context, inp: Inputs) -> list:
    lib = ctx.lib
    jobs: list[Job] = []

    def nonevasive(name: str, yes: bool):
        def run():
            return lib.algorithms.nonevasive(lib.formats.read_complex(inp.path(name)))

        def check(res):
            if res.status != ("yes" if yes else "no"):
                raise CheckError(f"nonevasive {name}: {res.status}")
            if yes:
                checks.replay_certificate(inp.faces(name), _cert_tuple(res.certificate))
            else:
                _confirm_no(inp, name)

        jobs.append(Job(f"nonevasive {name}", run, check))

    def backtracking(name: str, yes: bool):
        def run():
            c = lib.formats.read_complex(inp.path(name))
            return lib.algorithms.collapsible(c, "backtracking", budget=10**5)

        def check(res):
            if res.status != ("yes" if yes else "no"):
                raise CheckError(f"collapsible backtracking {name}: {res.status}")
            if yes:
                if len(checks.replay_collapse(inp.faces(name), res.sequence.steps)) != 1:
                    raise CheckError(f"collapsible backtracking {name}: replay does not end at a vertex")
            else:
                _confirm_no(inp, name)

        jobs.append(Job(f"collapsible backtracking {name}", run, check))

    # tier 0 (60 jobs, under ~7 ms): the "no" answers and the smallest balls
    for _ in range(6):
        for name in ("checkerboard", "dunce", "cone1"):
            nonevasive(name, False)
            backtracking(name, False)
        for name in ("simplex3", "grid1x1x1", "stacked4", "cross4"):
            nonevasive(name, True)
    # tier 1 (60 jobs, holds the median): 2x1x1 boxes in their three
    # orientations, and the subdivided dunce hat
    for _ in range(16):
        for name in ("grid2x1x1", "grid1x2x1", "grid1x1x2"):
            nonevasive(name, True)
    for _ in range(12):
        nonevasive("dunce_sd", False)
    # tier 2 (30 jobs): the unit cube by backtracking, a 12-fold stacked ball
    for _ in range(15):
        backtracking("grid1x1x1", True)
        nonevasive("stacked12", True)
    # tier 3 (24 jobs, holds the 90th percentile): 2x2x1 boxes
    for _ in range(8):
        for name in ("grid2x2x1", "grid2x1x2", "grid1x2x2"):
            nonevasive(name, True)
    # tier 4 (4 jobs): the 2x2x2 cube and straight-drilled balls
    for name in ("grid2x2x2", "drilled3x3x2", "drilled3x3x3", "drilled4x4x3"):
        nonevasive(name, True)
    return jobs


def _confirm_no(inp: Inputs, name: str) -> None:
    """Non-evasive implies collapsible, which needs trivial homology and a free face."""
    b = inp.betti(name)
    if b[0] == 1 and not any(b[1:]) and checks.free_pairs(inp.faces(name)):
        raise CheckError(f"{name}: 'no' is not confirmed by homology or a missing free face")


def _cert_tuple(cert):
    if cert is None:
        return None
    return (cert.vertex, _cert_tuple(cert.link_cert), _cert_tuple(cert.deletion_cert))


# -- cli ------------------------------------------------------------------------------

CYCLIC_MATCHING = "pair 1 ; 1 2\npair 2 ; 2 3\npair 3 ; 1 3\n"


def setup_cli(ctx: Context) -> Inputs:
    lib = ctx.lib
    C, F = lib.constructions, lib.formats
    rng = ctx.rng("cli")
    inp = Inputs(ctx.workdir)
    for dims in ((1, 1, 1), (2, 1, 1), (2, 2, 1), (2, 2, 2)):
        ctx.write(inp, _grid_name(dims), C.grid_ball(*dims), BALL)
    ctx.write(inp, "stacked", C.convex_fixture("stacked(6)"), BALL)
    ctx.write(inp, "cross4", C.convex_fixture("schlegel_cross4"), BALL)
    for dims in ((3, 3, 2), (3, 3, 3)):
        ball = C.furch_ball(*dims, C.straight_path(*dims))
        ctx.write(inp, "drilled" + "x".join(map(str, dims)), ball.realization, BALL)
    ctx.write(inp, "checkerboard", C.checkerboard(), (1, 3, 0))
    ctx.write(inp, "dunce", C.dunce_hat(), DISK)
    for n in (3, 4):
        path = str(ctx.workdir / f"straight{n}.path")
        F.write_text(path, F.dump_path(C.straight_path(n, n, n)))
        inp.paths[f"straight{n}"] = path
    for name in ("grid2x1x1", "grid2x2x1"):
        c = F.read_complex(inp.path(name))
        m = lib.morse.random_discrete_morse(c, rng.randrange(10**6))
        path = str(ctx.workdir / f"{name}.morse")
        F.write_text(path, F.dump_morse(m))
        inp.paths[f"{name}.morse"] = path
    ctx.write(inp, "triangle_rim", lib.complex_core.from_facets([(1, 2), (2, 3), (1, 3)]), (1, 1))
    path = str(ctx.workdir / "cyclic.morse")
    Path(path).write_text(CYCLIC_MATCHING)
    inp.paths["cyclic.morse"] = path
    return inp


def jobs_cli(ctx: Context, inp: Inputs) -> list:
    rng = ctx.rng("cli-jobs")
    jobs: list[Job] = []
    workdir = ctx.workdir

    def add(argv: list, check: Callable[[dict], None]):
        def run():
            proc = subprocess.run([ctx.python, "-m", "tightmorse.cli", *argv], env=ctx.env,
                                  capture_output=True, text=True, timeout=170)
            return proc.returncode, proc.stdout

        def check_out(out):
            code, stdout = out
            if code != 0:
                raise CheckError(f"tightmorse {' '.join(argv)}: exit {code}")
            check(json.loads(stdout.strip().splitlines()[-1]))

        jobs.append(Job("tightmorse " + " ".join(argv), run, check_out, argv=argv))

    def betti(name: str):
        def check(rep):
            if tuple(rep["betti"]) != inp.betti(name):
                raise CheckError(f"betti {name}: {rep['betti']}")
        add(["betti", inp.path(name)], check)

    def sweep(name: str):
        d = _direction(rng, inp, name, D3)
        out = str(workdir / f"{name}-{len(jobs)}.morse")

        def check(rep):
            if tuple(rep["morse_vector"]) != inp.betti(name) or not rep["perfect"]:
                raise CheckError(f"morse sweep {name}: {rep}")
            pairs = checks.read_morse_text(Path(out).read_text())
            if checks.check_matching(inp.faces(name), pairs) != inp.betti(name):
                raise CheckError(f"morse sweep {name}: written matching is not perfect")
        add(["morse", "sweep", inp.path(name), "--pi=" + ",".join(map(str, d)), "--assume-tight", "--out", out], check)

    def tight(name: str, d=None):
        d = d or _direction(rng, inp, name, D3)

        def check(rep):
            if rep["tight"] is not True:
                raise CheckError(f"tight check {name} {d}: {rep}")
        add(["tight", "check", inp.path(name), "--pi=" + ",".join(map(str, d))], check)

    def nonevasive(name: str, yes: bool):
        out = str(workdir / f"{name}-{len(jobs)}.cert.json")

        def check(rep):
            if rep["result"] != ("yes" if yes else "no"):
                raise CheckError(f"check nonevasive {name}: {rep}")
            if yes:
                cert = checks.cert_from_json(json.loads(Path(out).read_text()))
                if checks.replay_certificate(inp.faces(name), cert) != rep["certificate_size"]:
                    raise CheckError(f"check nonevasive {name}: certificate size differs")
            else:
                _confirm_no(inp, name)
        add(["check", "nonevasive", inp.path(name), "--out", out], check)

    def validate(name: str, morse_name: str, valid: bool):
        def check(rep):
            if rep["valid"] is not valid:
                raise CheckError(f"morse validate {morse_name}: {rep}")
            pairs = checks.read_morse_text(Path(inp.path(morse_name)).read_text())
            try:
                checks.check_matching(inp.faces(name), pairs)
                own = True
            except CheckError:
                own = False
            if own is not valid:
                raise CheckError(f"morse validate {morse_name}: the independent check disagrees")
        add(["morse", "validate", inp.path(name), inp.path(morse_name)], check)

    def build_furch(n: int):
        out = str(workdir / f"furch{n}-{len(jobs)}.geom")

        def check(rep):
            _, facets = checks.read_facets_text(Path(out).read_text())
            faces = checks.closure(facets)
            if checks.betti(faces) != BALL or list(checks.f_vector(faces)) != rep["f_vector"]:
                raise CheckError(f"build furch {n}: the written ball is wrong")
            if tuple(rep["spanning_edge"]) not in faces:
                raise CheckError(f"build furch {n}: spanning edge {rep['spanning_edge']} is not an edge")
        add(["build", "furch", "--n", f"{n},{n},{n}", "--path", inp.path(f"straight{n}"), "--out", out], check)

    # tiers 0 and 1 (88 jobs, holds the median): commands whose own work is
    # small next to interpreter start and import
    for _ in range(4):
        for name in ("grid1x1x1", "grid2x1x1", "grid2x2x1", "stacked", "cross4", "checkerboard", "dunce"):
            betti(name)
    for _ in range(4):
        validate("grid2x1x1", "grid2x1x1.morse", True)
        validate("grid2x2x1", "grid2x2x1.morse", True)
        validate("triangle_rim", "cyclic.morse", False)
    for _ in range(4):
        for name in ("grid1x1x1", "grid2x1x1", "stacked", "cross4"):
            sweep(name)
            tight(name)
    for _ in range(2):
        for name in ("checkerboard", "dunce"):
            nonevasive(name, False)
        for name in ("grid1x1x1", "stacked", "cross4"):
            nonevasive(name, True)
    for _ in range(3):
        build_furch(3)
        build_furch(4)
    # tier 3 (20 jobs, holds the 90th percentile): non-evasiveness of the 2x2x2 cube
    for _ in range(20):
        nonevasive("grid2x2x2", True)
    # tier 4 (3 jobs): straight-drilled balls
    nonevasive("drilled3x3x2", True)
    nonevasive("drilled3x3x3", True)
    tight("drilled3x3x2", _swap_xy(rng, (1, 17, -289)))
    return jobs


WORKLOADS = {
    "sweep": (setup_sweep, jobs_sweep),
    "collapse": (setup_collapse, jobs_collapse),
    "search": (setup_search, jobs_search),
    "cli": (setup_cli, jobs_cli),
}
