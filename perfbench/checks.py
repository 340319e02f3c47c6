"""Correctness checks written apart from the library.

Nothing here imports tightmorse.  Complexes are plain sets of sorted vertex
tuples, homology is GF(2) elimination on int bit masks, and collapses,
links and deletions are recomputed from the face sets.  Every check either
returns what it computed or raises CheckError with the reason.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction


class CheckError(AssertionError):
    """An output of the library contradicts an independent computation."""


def closure(facets) -> frozenset:
    """All nonempty faces of the given facets, as sorted tuples."""
    faces = set()
    for facet in facets:
        f = tuple(sorted(facet))
        for k in range(1, len(f) + 1):
            faces.update(itertools.combinations(f, k))
    return frozenset(faces)


def f_vector(faces) -> tuple:
    count = Counter(len(f) - 1 for f in faces)
    return tuple(count[d] for d in range(max(count) + 1)) if count else ()


def euler(faces) -> int:
    return sum((-1) ** d * n for d, n in enumerate(f_vector(faces)))


def _rank(rows) -> int:
    pivots: dict[int, int] = {}
    for row in rows:
        while row:
            lead = row.bit_length() - 1
            if lead not in pivots:
                pivots[lead] = row
                break
            row ^= pivots[lead]
    return len(pivots)


def betti(faces) -> tuple:
    """Non-reduced GF(2) Betti vector, up to the top dimension."""
    if not faces:
        return ()
    levels: dict[int, list] = {}
    for f in faces:
        levels.setdefault(len(f) - 1, []).append(f)
    top = max(levels)
    index = {d: {f: i for i, f in enumerate(sorted(levels.get(d, ())))} for d in range(top + 1)}
    ranks = [0] * (top + 2)
    for d in range(1, top + 1):
        rows = []
        for f in levels.get(d, ()):
            mask = 0
            for k in range(len(f)):
                mask |= 1 << index[d - 1][f[:k] + f[k + 1:]]
            rows.append(mask)
        ranks[d] = _rank(rows)
    return tuple(len(index[d]) - ranks[d] - ranks[d + 1] for d in range(top + 1))


def induced(faces, vertices) -> frozenset:
    keep = set(vertices)
    return frozenset(f for f in faces if keep.issuperset(f))


def link(faces, v: int) -> frozenset:
    return frozenset(
        tuple(u for u in f if u != v) for f in faces if v in f and len(f) > 1
    )


def deletion(faces, v: int) -> frozenset:
    return frozenset(f for f in faces if v not in f)


def free_pairs(faces) -> list:
    """(free face, its unique proper coface), counting cofaces of every dimension."""
    count: Counter = Counter()
    last = {}
    for t in faces:
        for k in range(1, len(t)):
            for s in itertools.combinations(t, k):
                count[s] += 1
                last[s] = t
    return sorted((s, last[s]) for s, n in count.items() if n == 1)


# -- matchings -------------------------------------------------------------

def check_matching(faces, pairs) -> tuple:
    """Validate a discrete Morse matching; returns its critical counts.

    Each pair must be a face and a coface one dimension up, no face may be
    matched twice, and the modified Hasse diagram must have no directed
    cycle (edges go down along unmatched covers and up along matched ones).
    """
    matched = {}
    for s, t in pairs:
        s, t = tuple(s), tuple(t)
        if s not in faces or t not in faces:
            raise CheckError(f"pair {s} ; {t} leaves the complex")
        if len(t) != len(s) + 1 or not set(s) < set(t):
            raise CheckError(f"{t} is not a codimension-one coface of {s}")
        for f in (s, t):
            if f in matched:
                raise CheckError(f"face {f} matched twice")
        matched[s] = t
        matched[t] = s
    up = {s: t for s, t in ((tuple(a), tuple(b)) for a, b in pairs)}
    # An alternating path s0 -> t0 -> s1 -> t1 ... stays in one (d, d+1)
    # layer, so a cycle shows as a cycle of the map s -> {facets of up[s]}.
    succ = {}
    for s, t in up.items():
        succ[s] = [
            t[:k] + t[k + 1:] for k in range(len(t))
            if t[:k] + t[k + 1:] != s and t[:k] + t[k + 1:] in up
        ]
    state: dict = {}
    for root in up:
        if root in state:
            continue
        stack = [(root, iter(succ[root]))]
        state[root] = 1
        while stack:
            node, it = stack[-1]
            nxt = next(it, None)
            if nxt is None:
                state[node] = 2
                stack.pop()
            elif state.get(nxt) == 1:
                raise CheckError(f"matching has a V-cycle through {nxt}")
            elif nxt not in state:
                state[nxt] = 1
                stack.append((nxt, iter(succ[nxt])))
    critical = Counter(len(f) - 1 for f in faces if f not in matched)
    top = max(len(f) for f in faces) - 1
    return tuple(critical[d] for d in range(top + 1))


def check_morse_inequalities(faces, critical: tuple) -> None:
    """Weak Morse inequalities and the Euler characteristic."""
    b = betti(faces)
    if sum((-1) ** d * m for d, m in enumerate(critical)) != euler(faces):
        raise CheckError(f"critical counts {critical} miss the Euler characteristic {euler(faces)}")
    for d, bd in enumerate(b):
        if (critical[d] if d < len(critical) else 0) < bd:
            raise CheckError(f"m_{d} = {critical[d]} < b_{d} = {bd}")


# -- collapses and certificates ----------------------------------------------

def replay_collapse(faces, steps) -> frozenset:
    """Apply elementary collapses; returns what is left.

    Each step (s, t) must remove a face s whose only proper coface in the
    current complex is t, one dimension up.  Coface counts are kept up to
    date, so a replay costs O(steps) face operations.
    """
    cur = set(faces)
    cof: Counter = Counter()
    for f in cur:
        for k in range(1, len(f)):
            for s in itertools.combinations(f, k):
                cof[s] += 1
    for k, (s, t) in enumerate(steps):
        s, t = tuple(s), tuple(t)
        if s not in cur or t not in cur or len(t) != len(s) + 1 or not set(s) < set(t):
            raise CheckError(f"step {k} ({s}, {t}) is not a face and a facet of it")
        if cof[s] != 1 or cof[t] != 0:
            raise CheckError(f"step {k}: {s} is not free")
        for f in (t, s):
            cur.discard(f)
            for j in range(1, len(f)):
                for sub in itertools.combinations(f, j):
                    cof[sub] -= 1
    return frozenset(cur)


def replay_certificate(faces, cert) -> int:
    """Replay a non-evasiveness certificate given as nested
    (vertex, link_cert, deletion_cert) tuples; returns its node count.

    A leaf (vertex, None, None) must be exactly the single vertex.
    """
    v, lk, dl = cert
    if lk is None and dl is None:
        if set(faces) != {(v,)}:
            raise CheckError(f"leaf {v} on a complex with {len(faces)} faces")
        return 1
    if (v,) not in faces or lk is None or dl is None:
        raise CheckError(f"vertex {v} is not deletable here")
    link_faces = link(faces, v)
    if not link_faces:
        raise CheckError(f"vertex {v} has an empty link")
    return 1 + replay_certificate(link_faces, lk) + replay_certificate(deletion(faces, v), dl)


# -- geometry ------------------------------------------------------------------

def upper_failures(faces, coords, direction) -> set:
    """(threshold, dim) pairs where an upper set of an acyclic complex
    carries reduced homology.

    The upper sets are the induced complexes on the vertices above each
    midpoint between consecutive heights along ``direction``.  In an
    acyclic complex, reduced homology of an upper set in dimension i is
    exactly a failure of injectivity of H_i(upper set) -> H_i(complex).
    """
    h = sorted((sum(Fraction(p) * Fraction(d) for p, d in zip(xs, direction)), v)
               for v, xs in coords.items())
    out = set()
    for j in range(1, len(h)):
        upper = induced(faces, [v for _, v in h[j:]])
        b = betti(upper)
        for i, bi in enumerate(b):
            if bi - (1 if i == 0 else 0):
                out.add(((h[j - 1][0] + h[j][0]) / 2, i))
    return out


# -- text formats, read without the library's parser ---------------------------

def read_facets_text(text: str):
    """(coords or None, facets) from a facets or geom file."""
    coords = {}
    facets = []
    header_seen = False
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] in ("geom", "facets"):
            header_seen = parts[0] == "facets" or header_seen
            continue
        if parts[0] == "v":
            coords[int(parts[1])] = tuple(Fraction(x) for x in parts[2:])
        else:
            facets.append(tuple(int(x) for x in parts))
    if not header_seen:
        raise CheckError("no facets header")
    return (coords or None), facets


def cert_from_json(obj):
    if obj is None:
        return None
    return (obj["vertex"], cert_from_json(obj["link"]), cert_from_json(obj["deletion"]))


def read_morse_text(text: str) -> list:
    """Pairs of a morse v1 file."""
    pairs = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line.startswith("pair"):
            left, right = line[len("pair"):].split(";")
            pairs.append((tuple(sorted(int(x) for x in left.split())),
                          tuple(sorted(int(x) for x in right.split()))))
    return pairs
