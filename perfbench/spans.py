"""Spans around calls into the library's modules, recorded from outside.

``Tracer.install`` replaces each traced function, at every module attribute
through which callers reach it, by a wrapper that records a span (layer
name, start, end, parent span, job id).  ``FaceSetCollapser`` methods are
wrapped on the class.  Spans stay in flat arrays until the run ends; a
layer's self time is its span time minus the time of its child spans.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from array import array
from collections import defaultdict

import checks

# layer span name -> functions, as (module, attribute)
LAYERS = {
    "complex_core.local": [("complex_core", n) for n in ("link", "deletion", "restrict", "star")],
    "complex_core.closure": [
        ("complex_core", n)
        for n in ("from_facets", "from_faces", "cone", "join", "suspension",
                  "boundary_complex", "barycentric_subdivision")
    ],
    "homology_z2.betti": [("homology_z2", "betti")],
    "geometry.tight": [("geometry", "is_pi_tight"), ("geometry", "is_prefix_tight")],
    "geometry.embed": [("geometry", "verify_embedding")],
    "morse.collapse": [("morse", "random_discrete_morse")],
    "morse.validate": [("morse", "validate")],
    "morse.lift": [("morse", "lift_matching_over_cone")],
    "algorithms.sweep": [("algorithms", "sweep_perfect_morse")],
    "algorithms.planar": [("algorithms", "planar_perfect_morse")],
    "algorithms.relative": [("algorithms", "relative_collapse")],
    "algorithms.search": [("algorithms", "nonevasive")],
    "algorithms.canon": [("algorithms", "canonical_form")],
    "constructions.build": [
        ("constructions", n)
        for n in ("grid_ball", "furch_ball", "straight_path", "cone_sphere", "remove_facet",
                  "wedge_thicken", "convex_fixture", "stacked_ball", "verify_convex_position",
                  "checkerboard", "dunce_hat", "suspension_realization", "trefoil_path")
    ],
    "formats.parse": [
        ("formats", n) for n in ("parse_facets", "parse_geom", "parse_morse", "parse_path")
    ],
    "formats.read": [("formats", n) for n in ("read_complex", "read_geom", "read_path_file")],
    "formats.dump": [
        ("formats", n) for n in ("dump_facets", "dump_geom", "dump_morse", "dump_path", "write_text")
    ],
}
COLLAPSER_METHODS = ("__init__", "free_pairs", "remove_pair", "remove_facet", "facets_of_max_dim")


def _built_faces(out) -> int:
    """Face count of whatever complex a construction returned."""
    if isinstance(out, tuple) and out:
        out = out[0]
    for attr in ("realization", "complex"):
        out = getattr(out, attr, out)
    return getattr(out, "num_faces", 0)


class Tracer:
    """Span recorder; one instance per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("l")
        self.parent = array("l")
        self.job = array("l")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, float] = defaultdict(float)
        self.job_id = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._greedy_inits: dict[int, int] = defaultdict(int)
        self._betti_total: dict = {}  # complex -> sum of its Betti numbers

    # -- spans -----------------------------------------------------------

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.job.append(self.job_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def name_of(self, idx: int) -> str:
        return self.names[self.name[idx]] if idx >= 0 else ""

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    # -- wrappers --------------------------------------------------------

    def _wrap(self, name, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            outer = tracer._stack[-1] if tracer._stack else -1
            idx = tracer.open(span_name)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                tracer.close(idx)
                if span_name == "geometry.embed":
                    tracer.counts["geometry.embed_failed"] += 1
                raise
            tracer.close(idx)
            if after is not None:
                after(args, kwargs, out, outer)
            return out

        return wrapper

    def _after(self, layer: str, attr: str):
        """Counter update run after a traced call returns, or None."""
        counts = self.counts

        def nested(outer):
            return self.name_of(outer) == layer

        def faces_built(a, k, out, outer):
            counts["complex_core.faces_built"] += _built_faces(out)

        def betti_faces(a, k, out, outer):
            counts["homology_z2.betti_faces"] += a[0].num_faces

        def tight_checks(a, k, out, outer):
            counts["geometry.tight_checks"] += out.checks

        def excess(a, k, out, outer):
            c = out.complex
            if c not in self._betti_total:
                self._betti_total[c] = sum(checks.betti(frozenset(c.faces())))
            critical = c.num_faces - 2 * len(out.pairs)
            counts["morse.excess_critical"] += critical - self._betti_total[c]

        def certificate(a, k, out, outer):
            if out.status == "yes":
                counts["algorithms.certificate_faces"] += out.certificate.size

        def built(a, k, out, outer):
            if not nested(outer):
                counts["constructions.build_faces"] += _built_faces(out)

        def parsed(a, k, out, outer):
            if not nested(outer):
                counts["formats.parse_bytes"] += len(a[0])

        def dumped(a, k, out, outer):
            if not nested(outer):
                counts["formats.dump_bytes"] += len(out)

        return {
            "complex_core.local": faces_built,
            "complex_core.closure": faces_built,
            "homology_z2.betti": betti_faces,
            "geometry.tight": tight_checks,
            "morse.collapse": excess,
            "algorithms.search": certificate,
            "constructions.build": built,
            "formats.parse": parsed,
            "formats.dump": dumped if attr.startswith("dump_") else None,
        }.get(layer)

    def install(self, package) -> None:
        """Wrap every traced function at each attribute that refers to it."""
        modules = [m for n, m in sys.modules.items()
                   if n == package.__name__ or n.startswith(package.__name__ + ".")]
        targets = [(layer, mod_name, attr, self._after(layer, attr))
                   for layer, functions in LAYERS.items() for mod_name, attr in functions]
        # one function, two layers: the span is named after the strategy
        targets.append((_collapsible_span, "algorithms", "collapsible", self._after_collapsible))
        for name, mod_name, attr, after in targets:
            orig = getattr(sys.modules[f"{package.__name__}.{mod_name}"], attr)
            wrapped = self._wrap(name, orig, after)
            for mod in modules:
                if mod.__dict__.get(attr) is orig:
                    self._patched.append((mod, attr, orig))
                    setattr(mod, attr, wrapped)
        collapser = sys.modules[f"{package.__name__}.morse"].FaceSetCollapser
        for meth in COLLAPSER_METHODS:
            orig = collapser.__dict__[meth]
            after = {"remove_pair": self._after_remove_pair, "__init__": self._after_init}.get(meth)
            self._patched.append((collapser, meth, orig))
            setattr(collapser, meth, self._wrap("morse.collapse", orig, after))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    def _after_remove_pair(self, a, k, out, outer):
        self.counts["morse.collapse_pairs"] += 1

    def _after_init(self, a, k, out, outer):
        if self.name_of(outer) == "algorithms.greedy":
            self._greedy_inits[outer] += 1

    def _after_collapsible(self, a, k, out, outer):
        if out.status == "yes" and _strategy(a, k) == "greedy":
            self.counts["algorithms.greedy_successes"] += 1
        if out.status == "yes" and _strategy(a, k) == "backtracking":
            self.counts["algorithms.certificate_faces"] += len(out.sequence)

    # -- reduction ---------------------------------------------------------

    def layer_totals(self) -> dict[str, float]:
        """Self time and call count per span name, the counters, and the
        per-layer metrics derived from them."""
        n = len(self.name)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        nodes = 0
        for i in range(n):
            name = self.names[self.name[i]]
            self_s[name] += self.end[i] - self.start[i] - child[i]
            calls[name] += 1
            pname = self.name_of(self.parent[i])
            # one budget tick per node: a Betti check in nonevasive (plus its
            # root pre-check), a canonical form in backtracking collapsibility
            if name == "homology_z2.betti" and pname == "algorithms.search":
                nodes += 1
            if name == "algorithms.canon" and pname == "algorithms.backtrack":
                nodes += 1
        # the first collapser of each greedy call is the free-face probe
        attempts = sum(c - 1 for c in self._greedy_inits.values())
        out = {f"{k}_s": v for k, v in self_s.items()}
        out.update({f"{k}_calls": v for k, v in calls.items()})
        out.update(self.counts)
        out["algorithms.search_s"] = self_s.get("algorithms.search", 0.0) + self_s.get("algorithms.backtrack", 0.0)
        out["formats.parse_s"] = self_s.get("formats.parse", 0.0) + self_s.get("formats.read", 0.0)
        out["algorithms.search_nodes"] = nodes
        # ratios read 0 where the workload makes no attempt
        out["algorithms.greedy_yield"] = self.counts["algorithms.greedy_successes"] / attempts if attempts else 0.0
        out["algorithms.search_yield"] = self.counts["algorithms.certificate_faces"] / nodes if nodes else 0.0
        return out

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({
                "names": self.names,
                "columns": ["name", "parent", "job", "start", "end"],
                "spans": [
                    [self.name[i], self.parent[i], self.job[i], round(self.start[i], 7), round(self.end[i], 7)]
                    for i in range(len(self.name))
                ],
            }, fh)


def _strategy(args, kwargs) -> str:
    return kwargs.get("strategy", args[1] if len(args) > 1 else "greedy")


def _collapsible_span(args, kwargs) -> str:
    return "algorithms.greedy" if _strategy(args, kwargs) == "greedy" else "algorithms.backtrack"
