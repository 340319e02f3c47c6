"""The CLI's lazy parser against the eager one in ``tests/cli_oracle.py``:
the same help and usage on every parser, and the same namespaces, exit
codes and output on a table of command lines.  Both run on this Python's
argparse, so no expected text depends on its version's wording."""

import argparse
import io
from contextlib import redirect_stderr, redirect_stdout

import pytest

import cli_oracle
from tightmorse import cli


def subcommands(parser: argparse.ArgumentParser) -> dict:
    """The parsers of parser's subcommands by name; empty for a leaf."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices
    return {}


def parser_pairs():
    """(path, lazy parser, eager parser) for every parser, root first."""
    pairs, stack = [], [((), cli._build_parser(), cli_oracle.build_parser())]
    while stack:
        path, lazy, eager = stack.pop()
        pairs.append((path, lazy, eager))
        lazy.format_usage()  # builds a lazy parser's arguments and subcommands
        lazy_sub, eager_sub = subcommands(lazy), subcommands(eager)
        assert list(lazy_sub) == list(eager_sub), path
        stack += [(path + (name,), lazy_sub[name], eager_sub[name]) for name in reversed(eager_sub)]
    return pairs


def test_every_parser_has_the_eager_help_and_usage():
    pairs = parser_pairs()
    paths = [path for path, _, _ in pairs]
    # the root, 5 commands and 11 subcommands
    assert [len([p for p in paths if len(p) == depth]) for depth in range(3)] == [1, 5, 11]
    for path, lazy, eager in pairs:
        assert lazy.prog == eager.prog, path
        assert lazy.format_usage() == eager.format_usage(), path
        assert lazy.format_help() == eager.format_help(), path


def test_a_command_builds_only_its_own_parser():
    parser = cli._build_parser()
    commands = subcommands(parser)
    assert [name for name, p in commands.items() if p._build is None] == ["betti"]
    parser.parse_args(["check", "nonevasive", "x.facets"])
    assert [name for name, p in commands.items() if p._build is None] == ["betti", "check"]
    # the root's help lists the commands without building them
    parser.format_help()
    assert [name for name, p in commands.items() if p._build is None] == ["betti", "check"]


def outcome(parser: argparse.ArgumentParser, argv: list[str]):
    """The namespace, or the exit code, and the text parse_args printed."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            result = parser.parse_args(argv)
        except SystemExit as exc:
            result = ("exit", exc.code)
    return result, out.getvalue(), err.getvalue()


ARGV = [
    # every leaf, with its options
    ["betti", "c.facets"],
    ["--format", "text", "betti", "c.facets"],
    ["--timings", "--format=json", "betti", "c.geom"],
    ["morse", "validate", "c.facets", "c.morse"],
    ["morse", "vector", "c.facets", "c.morse"],
    ["morse", "sweep", "g.geom", "--pi", "-1,17,-289", "--assume-tight", "--out", "m.morse"],
    ["morse", "sweep", "g.geom", "--pi=1,2,4"],
    ["tight", "check", "g.geom"],
    ["tight", "check", "g.geom", "--pi", "-1,17,-289", "--samples", "3", "--seed", "-4", "--verify-embedding"],
    ["check", "collapsible", "c.facets"],
    ["check", "collapsible", "c.facets", "--strategy", "backtracking", "--budget", "0", "--seed", "2",
     "--restarts", "7"],
    ["check", "nonevasive", "c.facets", "--budget", "5", "--out", "cert.json"],
    ["build", "grid", "--n", "1,1,1", "--out", "g.geom"],
    ["build", "furch", "--n", "3,3,3", "--path", "p.path", "--out", "f.geom"],
    ["build", "cone-sphere", "b.facets", "--out", "s.facets"],
    ["build", "wedge", "a.facets", "b.facets", "--t1", "1,2,3", "--t2", "4,5,6", "--out", "w.facets"],
    ["build", "fixture", "dunce_hat", "--out", "d.facets"],
    # help at each level
    ["--help"],
    ["morse", "--help"],
    ["tight", "check", "--help"],
    ["build", "wedge", "-h"],
    # usage errors
    [],
    ["morse"],
    ["tight"],
    ["check"],
    ["build"],
    ["bogus"],
    ["morse", "bogus"],
    ["betti"],
    ["betti", "c.facets", "extra"],
    ["--format", "xml", "betti", "c.facets"],
    ["betti", "c.facets", "--format", "text"],
    ["morse", "sweep", "x"],
    ["morse", "validate", "c.facets"],
    ["check", "nonevasive", "c.facets", "--budget", "-3"],
    ["check", "collapsible", "c.facets", "--budget", "x"],
    ["check", "collapsible", "c.facets", "--strategy", "random"],
    ["check", "collapsible", "c.facets", "--restarts", "0"],
    ["tight", "check", "g.geom", "--samples", "0"],
    ["tight", "check", "g.geom", "--seed", "1.5"],
    ["build", "grid", "--n", "1,1,1"],
    ["build", "fixture", "--out", "x"],
]


@pytest.mark.parametrize("argv", ARGV, ids=lambda argv: " ".join(argv) or "no-arguments")
def test_command_lines_parse_as_with_the_eager_parser(argv):
    expected = outcome(cli_oracle.build_parser(), argv)
    assert outcome(cli._build_parser(), argv) == expected
