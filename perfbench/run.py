"""Benchmark of tightmorse, end to end and module by module.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Builds the workload's inputs from the seed (set-up, repeated and timed),
then runs the whole job list in rounds while another round fits in
--seconds, and checks every output against the independent checks in
``checks``.  The last line of standard output is one JSON object: correct,
attempted, failed and the metrics (end-to-end with --trace 0, per layer
with --trace 1).  The line before it records the run's environment and raw
timings.  Both are also written under perfbench/out/, with the spans of a
traced run.

Times are in reference seconds: see ``Pace``.  The library is imported
from src/ of the checkout that holds this file; without it the benchmark
exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import selftest  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, Context  # noqa: E402

# set-up repeats until both are reached; setup_s is the median repetition
SETUP_REPS = 7
SETUP_SECONDS = 3.0
MODULES = ("complex_core", "homology_z2", "geometry", "morse", "algorithms",
           "constructions", "formats", "cli", "errors")
PER_LAYER = {
    "complex_core.local_s": "s", "complex_core.local_calls": "count",
    "complex_core.closure_s": "s", "complex_core.faces_built": "count",
    "homology_z2.betti_s": "s", "homology_z2.betti_calls": "count", "homology_z2.betti_faces": "count",
    "geometry.tight_s": "s", "geometry.tight_calls": "count", "geometry.tight_checks": "count",
    "geometry.embed_s": "s", "geometry.embed_calls": "count", "geometry.embed_failed": "count",
    "morse.collapse_s": "s", "morse.collapse_pairs": "count", "morse.excess_critical": "count",
    "morse.validate_s": "s", "morse.validate_calls": "count",
    "morse.lift_s": "s", "morse.lift_calls": "count",
    "algorithms.sweep_s": "s", "algorithms.planar_s": "s", "algorithms.planar_calls": "count",
    "algorithms.greedy_s": "s", "algorithms.relative_s": "s", "algorithms.greedy_yield": "ratio",
    "algorithms.search_s": "s", "algorithms.canon_s": "s", "algorithms.search_nodes": "count",
    "algorithms.search_yield": "ratio",
    "constructions.build_s": "s", "constructions.build_faces": "count",
    "formats.parse_s": "s", "formats.parse_bytes": "bytes",
    "formats.dump_s": "s", "formats.dump_bytes": "bytes",
    "cli.start_s": "s", "cli.main_s": "s",
    "trace.overhead": "ratio",
}


class Pace:
    """Machine speed, sampled by timing a fixed computation of the benchmark.

    The reference computation is the benchmark's own code, pure Python on
    tuples, sets, dicts, int bit masks, fractions and strings like the
    library: ``checks.betti`` of the 2x2x2 grid cube cut into 48 tetrahedra,
    sorting and hashing 3000 tuples, summing 200 fractions and formatting
    1000 numbers.  On a shared machine the speed
    of all such code drifts together by tens of percent within minutes, so
    each measured time t is reported as t * REF / r in reference seconds,
    where r is the median of the reference times sampled just before and
    just after it (two on each side) and REF is the reference time that
    defines the unit.  A change to the library cannot change r.
    """

    REF = 2.5e-3

    def __init__(self):
        cube = list(itertools.product(range(2), repeat=3))
        label = {p: i for i, p in enumerate(itertools.product(range(3), repeat=3))}
        self.facets = []
        for x, y, z in cube:
            for order in itertools.permutations(range(3)):
                corner = [x, y, z]
                path = [label[tuple(corner)]]
                for axis in order:
                    corner[axis] += 1
                    path.append(label[tuple(corner)])
                self.facets.append(tuple(sorted(path)))

    def sample(self) -> float:
        t0 = time.perf_counter()
        checks.betti(checks.closure(self.facets))
        rows = sorted((i * 7919 % 1000, i % 7, i) for i in range(3000))
        len(set(rows))
        sum(Fraction(i, 7 + i % 5) for i in range(200))
        " ".join(str(i * 31) for i in range(1000)).split()
        return time.perf_counter() - t0

    def scale(self, times: list, samples: list) -> list:
        """Times in reference seconds; samples[i] was taken just before times[i]
        and samples[i + 1] just after it."""
        return [t * self.REF / statistics.median(samples[max(0, i - 1): i + 3])
                for i, t in enumerate(times)]


def load_library():
    """Import tightmorse from this checkout's src/, or exit 2."""
    if not (SRC / "tightmorse" / "__init__.py").is_file():
        print(f"error: no library at {SRC / 'tightmorse'}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    try:
        pkg = importlib.import_module("tightmorse")
        mods = {m: importlib.import_module(f"tightmorse.{m}") for m in MODULES}
    except ImportError as exc:
        print(f"error: cannot import the library: {exc}", file=sys.stderr)
        sys.exit(2)
    if not Path(pkg.__file__).resolve().is_relative_to(SRC):
        print(f"error: tightmorse came from {pkg.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return pkg, argparse.Namespace(**mods)


def environment(workload: str, seed: int, trace: int) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "tightmorse").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload, "seed": seed, "trace": trace,
        "git_sha": sha, "source_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(), "cpu_count": os.cpu_count(),
        "pinned_cpu": sorted(os.sched_getaffinity(0)),
    }


def run_round(jobs, pace: Pace, problems: list, tracer=None, lib=None, env=None):
    """Run every job once, sampling the pace before each and after the last.

    Each output is checked as soon as its job ends, outside the timing, and
    then dropped, so that memory held between jobs does not depend on their
    order.  Returns (per-job seconds, pace samples, failed operations,
    whether every check passed).
    """
    gc.collect()
    times, samples = [], []
    failed, correct = 0, True
    for idx, job in enumerate(jobs):
        samples.append(pace.sample())
        if tracer is not None:
            tracer.job_id = idx
        t0 = time.perf_counter()
        try:
            if tracer is not None and job.argv is not None:
                out = _traced_cli(job, tracer, lib, env)
            else:
                out = job.run()
        except Exception as exc:  # a failed operation is counted, not fatal
            times.append(time.perf_counter() - t0)
            failed += 1
            if not job.known_fault:
                problems.append(f"failed: {job.name}: {type(exc).__name__}: {exc}")
            continue
        times.append(time.perf_counter() - t0)
        try:
            job.check(out)
        except checks.CheckError as exc:
            correct = False
            problems.append(f"wrong: {job.name}: {exc}")
        del out
    samples.append(pace.sample())
    return times, samples, failed, correct


def _traced_cli(job, tracer, lib, env):
    """cli.start: a fresh interpreter importing tightmorse.cli; cli.main: the
    same argv run in-process, with its calls into the modules traced."""
    with tracer.span("cli.start"):
        subprocess.run([sys.executable, "-c", "import tightmorse.cli"], env=env, check=True, timeout=170)
    buf = io.StringIO()
    with tracer.span("cli.main"), contextlib.redirect_stdout(buf):
        code = lib.cli.main(job.argv)
    return code, buf.getvalue()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pkg, lib = load_library()
    selftest.run()
    # the run, its pace samples and its child processes share one CPU, so the
    # samples see the speed of the CPU the jobs run on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    env_info = environment(args.workload, args.seed, args.trace)
    # one process, no worker threads: the sampled-tightness pool stays off
    os.environ.pop("TIGHTMORSE_THREADS", None)
    child_env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    pace = Pace()

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"inputs-{tag}-{os.getpid()}"
    workdir.mkdir()
    problems: list[str] = []
    attempted = failed = 0
    correct = True
    try:
        setup, make_jobs = WORKLOADS[args.workload]
        ctx = Context(lib, args.seed, workdir, sys.executable, child_env)
        setup_raw, setup_ref = [], []
        while len(setup_raw) < SETUP_REPS or sum(setup_raw) < SETUP_SECONDS:
            around = [pace.sample() for _ in range(4)]
            t0 = time.perf_counter()
            inputs = setup(ctx)
            setup_raw.append(time.perf_counter() - t0)
            around += [pace.sample() for _ in range(4)]
            setup_ref.append(setup_raw[-1] * Pace.REF / statistics.median(around))
        inputs.confirm()
        jobs = make_jobs(ctx, inputs)
        # a seeded order spreads each tier over the round, so that a slow
        # spell of the machine does not fall on one tier only
        ctx.rng("order").shuffle(jobs)

        walls, walls_raw, job_times, raw_rounds = [], [], [], []
        started = time.perf_counter()
        while True:
            times, samples, f, ok = run_round(jobs, pace, problems)
            scaled = pace.scale(times, samples)
            walls.append(sum(scaled))
            walls_raw.append(sum(times))
            raw_rounds.append({"job_s": times, "pace_s": samples})
            job_times.extend(scaled)
            attempted += len(jobs)
            failed += f
            correct = correct and ok
            # whole rounds only, while another round still fits
            elapsed = time.perf_counter() - started
            if args.trace or elapsed + elapsed / len(walls) > args.seconds:
                break

        if args.trace:
            metrics, f, ok = traced_metrics(pkg, lib, ctx, setup, jobs, pace, walls[0], tag, problems)
            attempted += len(jobs)
            failed += f
            correct = correct and ok
        else:
            usage = resource.getrusage(
                resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF)
            deciles = statistics.quantiles(job_times, n=10)
            metrics = {
                "setup_s": (statistics.median(setup_ref), "s"),
                "wall_s": (statistics.median(walls), "s"),
                "job_p50_ms": (deciles[4] * 1000, "ms"),
                "job_p90_ms": (deciles[8] * 1000, "ms"),
                "peak_rss_mb": (usage.ru_maxrss / 1024, "MB"),
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in problems[:20]:
        print(line, file=sys.stderr)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    info = dict(env_info, rounds=len(walls), jobs=len(jobs), setup_reps=len(setup_raw),
                setup_raw_s=setup_raw, wall_raw_s=walls_raw, problems=problems[:20])
    (OUT / f"result-{tag}.json").write_text(json.dumps({"run": info, "result": result, "rounds": raw_rounds}))
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


def traced_metrics(pkg, lib, ctx, setup, jobs, pace, untraced_wall, tag, problems):
    """One traced set-up and one traced round.

    Returns the per-layer metrics (span times in seconds as measured), and
    the round's failed operations and check result.
    """
    tracer = Tracer()
    tracer.install(pkg)
    try:
        tracer.job_id = -1
        setup(ctx)
        times, samples, failed, correct = run_round(jobs, pace, problems, tracer, lib, ctx.env)
    finally:
        tracer.uninstall()
    tracer.dump(OUT / f"spans-{tag}.json")
    totals = tracer.layer_totals()
    totals["trace.overhead"] = sum(pace.scale(times, samples)) / untraced_wall
    metrics = {name: (float(totals.get(name, 0.0)), unit) for name, unit in PER_LAYER.items()}
    return metrics, failed, correct


if __name__ == "__main__":
    try:
        sys.exit(main())
    except SystemExit:
        raise
    except BaseException:
        traceback.print_exc()
        sys.exit(1)
