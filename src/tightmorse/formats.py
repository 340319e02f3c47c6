"""Text formats: facets v1, geom v1, morse v1, and drilling paths.

All formats are line-oriented with ``#`` comments.  Numbers written as
fractions or decimal strings are parsed exactly into Fraction; plain
integers stay integers.
"""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING

from .complex_core import Face, SimplicialComplex, from_facets
from .errors import FormatError

# geometry, morse and constructions are imported where they are used, so
# that reading a facets file loads none of them
if TYPE_CHECKING:
    from .constructions import LatticePath
    from .geometry import GeometricRealization
    from .morse import MorseMatching

Number = int | float | Fraction


def parse_int(token: str) -> int:
    """One integer token, such as a vertex label or a cube index."""
    try:
        return int(token)
    except ValueError as exc:
        raise FormatError(f"expected an integer, got {token!r}") from exc


# Python's default limit on the digits of an int read from a string; Fraction
# expands a decimal exponent in full, so a larger one could take any time
MAX_EXPONENT = 4300


def parse_number(token: str) -> Number:
    try:
        return int(token)
    except ValueError:
        pass
    _, e, exponent = token.lower().partition("e")
    try:
        too_large = bool(e) and abs(int(exponent)) > MAX_EXPONENT
    except ValueError:
        too_large = False  # not an exponent; Fraction rejects the token
    if too_large:
        raise FormatError(f"exponent of {token!r} exceeds {MAX_EXPONENT} in absolute value")
    try:
        return Fraction(token)  # handles "3/4" and "0.25" exactly
    except (ValueError, ZeroDivisionError) as exc:
        raise FormatError(f"cannot parse number {token!r}") from exc


def format_number(x: Number) -> str:
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return str(x.numerator)
        return f"{x.numerator}/{x.denominator}"
    return repr(x) if isinstance(x, float) else str(x)


def _content_lines(text: str) -> list[str]:
    lines = text.splitlines()
    if "#" in text:
        lines = [raw.split("#", 1)[0] for raw in lines]
    return list(filter(None, map(str.strip, lines)))


# -- facets v1 ---------------------------------------------------------------

def parse_facets(text: str) -> SimplicialComplex:
    return _parse_facet_lines(_content_lines(text))


def _parse_facet_lines(lines: list[str]) -> SimplicialComplex:
    """The complex of a facets section given as its content lines."""
    if not lines or not lines[0].startswith("facets"):
        raise FormatError("expected 'facets <n>' header")
    try:
        count = int(lines[0].split()[1])
    except (IndexError, ValueError) as exc:
        raise FormatError("malformed facets header") from exc
    body = lines[1:]
    if len(body) != count:
        raise FormatError(f"header says {count} facets, found {len(body)}")
    try:
        # canonical_face reads each label with int, row by row
        return from_facets(map(str.split, body))
    except ValueError:
        # again with parse_int, which names the first token int rejected
        return from_facets([parse_int(tok) for tok in line.split()] for line in body)


def dump_facets(c: SimplicialComplex) -> str:
    facets = c.facets
    lines = [f"facets {len(facets)}"]
    lines.extend(" ".join(str(v) for v in f) for f in facets)
    return "\n".join(lines) + "\n"


# -- geom v1 -----------------------------------------------------------------

def parse_geom(text: str) -> GeometricRealization:
    from .geometry import GeometricRealization

    lines = _content_lines(text)
    if not lines or not lines[0].startswith("geom"):
        raise FormatError("expected 'geom <k>' header")
    try:
        k = int(lines[0].split()[1])
    except (IndexError, ValueError) as exc:
        raise FormatError("malformed geom header") from exc
    coords: dict[int, tuple[Number, ...]] = {}
    idx = 1
    while idx < len(lines) and lines[idx].startswith("v "):
        parts = lines[idx].split()
        if len(parts) != 2 + k:
            raise FormatError(f"vertex line has wrong arity: {lines[idx]!r}")
        label = parse_int(parts[1])
        if label in coords:
            raise FormatError(f"vertex {label} has two coordinate lines")
        try:
            coords[label] = tuple(map(int, parts[2:]))
        except ValueError:  # parse_number reads ints the same way, and names a bad token
            coords[label] = tuple(parse_number(tok) for tok in parts[2:])
        idx += 1
    complex_ = _parse_facet_lines(lines[idx:])
    return GeometricRealization(complex_, coords, k)


def dump_geom(g: GeometricRealization) -> str:
    lines = [f"geom {g.ambient_dim}"]
    for v in sorted(g.coords):
        lines.append("v " + str(v) + " " + " ".join(format_number(x) for x in g.coords[v]))
    return "\n".join(lines) + "\n" + dump_facets(g.complex)


# -- morse v1 ----------------------------------------------------------------

def parse_morse(text: str, c: SimplicialComplex) -> MorseMatching:
    from .morse import MorseMatching, critical_faces

    pairs = []
    seen: set[tuple[Face, Face]] = set()
    criticals = []
    for line in _content_lines(text):
        if line.startswith("pair"):
            body = line[len("pair"):]
            if ";" not in body:
                raise FormatError(f"pair line without ';': {line!r}")
            left, right = body.split(";", 1)
            pair = (
                tuple(sorted(parse_int(t) for t in left.split())),
                tuple(sorted(parse_int(t) for t in right.split())),
            )
            # the matching is a set of pairs, so a repeat would vanish in it
            if pair in seen:
                raise FormatError(f"{_pair_line(*pair)} is listed twice")
            seen.add(pair)
            pairs.append(pair)
        elif line.startswith("critical"):
            criticals.append(tuple(sorted(parse_int(t) for t in line.split()[1:])))
        else:
            raise FormatError(f"unrecognized morse line {line!r}")
    matching = MorseMatching(c, frozenset(pairs))
    # pairs with a face outside c were written for another complex; the
    # caller's validate reports that, whatever the critical lines say
    fits = all(f in c for pair in pairs for f in pair)
    if criticals and fits and sorted(criticals) != sorted(critical_faces(matching)):
        raise FormatError("critical lines disagree with the pairs")
    return matching


def _pair_line(s: Face, t: Face) -> str:
    return "pair " + " ".join(map(str, s)) + " ; " + " ".join(map(str, t))


def dump_morse(m: MorseMatching) -> str:
    from .morse import critical_faces

    lines = [_pair_line(s, t) for s, t in sorted(m.pairs)]
    for f in critical_faces(m):
        lines.append("critical " + " ".join(map(str, f)))
    return "\n".join(lines) + "\n"


# -- drilling paths ------------------------------------------------------------

def parse_path(text: str) -> LatticePath:
    from .constructions import LatticePath

    cubes = []
    for line in _content_lines(text):
        parts = line.split()
        if len(parts) != 3:
            raise FormatError(f"path line needs three integers: {line!r}")
        cubes.append(tuple(parse_int(t) for t in parts))
    if not cubes:
        raise FormatError("empty path")
    return LatticePath(tuple(cubes))


def dump_path(path: LatticePath) -> str:
    return "\n".join(" ".join(map(str, cube)) for cube in path.cubes) + "\n"


# -- file helpers ----------------------------------------------------------------

def read_complex(path: str | Path) -> SimplicialComplex:
    """Read a facets file, or the facets section of a geom file."""
    text = Path(path).read_text()
    if text.lstrip().startswith("geom"):
        return parse_geom(text).complex
    return parse_facets(text)


def read_geom(path: str | Path) -> GeometricRealization:
    return parse_geom(Path(path).read_text())


def read_path_file(path: str | Path) -> LatticePath:
    return parse_path(Path(path).read_text())


def write_text(path: str | Path, text: str) -> None:
    Path(path).write_text(text)
