"""The CLI's argument parser as it was built before its command parsers
became lazy: all 17 parsers, every argument added up front.

``tightmorse.cli._build_parser`` builds the root and the five command
parsers, and a command parser adds its arguments and subcommands the first
time it parses or formats usage or help.  ``tests/test_cli_parser.py``
compares the two on every parser's help and usage, and on the namespaces,
exit codes and error text of a table of command lines.
"""

from __future__ import annotations

from tightmorse.cli import _nonnegative_int, _Parser, _positive_int


def build_parser() -> _Parser:
    parser = _Parser(prog="tightmorse")
    parser.add_argument("--format", choices=("json", "text"), default="json")
    parser.add_argument("--timings", action="store_true",
                        help="append wall time (breaks byte-identical reports)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("betti", help="Betti vector of a complex")
    p.add_argument("file")

    pm = sub.add_parser("morse", help="matching validation, vectors, sweep")
    msub = pm.add_subparsers(dest="morse_command", required=True)
    v = msub.add_parser("validate")
    v.add_argument("complex_file")
    v.add_argument("matching_file")
    v2 = msub.add_parser("vector")
    v2.add_argument("complex_file")
    v2.add_argument("matching_file")
    sw = msub.add_parser("sweep")
    sw.add_argument("geom_file")
    sw.add_argument("--pi", required=True)
    sw.add_argument("--assume-tight", action="store_true")
    sw.add_argument("--out", help="write the matching file here")

    pt = sub.add_parser("tight", help="tightness checks")
    tsub = pt.add_subparsers(dest="tight_command", required=True)
    tc = tsub.add_parser("check")
    tc.add_argument("geom_file")
    tc.add_argument("--pi")
    tc.add_argument("--samples", type=_positive_int, default=20)
    tc.add_argument("--seed", type=int, default=0)
    tc.add_argument("--verify-embedding", action="store_true",
                    help="exact facet-pair intersection check first")

    pc = sub.add_parser("check", help="collapsibility and non-evasiveness")
    csub = pc.add_subparsers(dest="check_command", required=True)
    cc = csub.add_parser("collapsible")
    cc.add_argument("file")
    cc.add_argument("--strategy", choices=("greedy", "backtracking"), default="greedy")
    cc.add_argument("--budget", type=_nonnegative_int, default=10**6)
    cc.add_argument("--seed", type=int, default=0)
    cc.add_argument("--restarts", type=_positive_int, default=50)
    cn = csub.add_parser("nonevasive")
    cn.add_argument("file")
    cn.add_argument("--budget", type=_nonnegative_int, default=10**6)
    cn.add_argument("--out", help="write the certificate as JSON here")

    pb = sub.add_parser("build", help="generators for the example complexes")
    bsub = pb.add_subparsers(dest="build_command", required=True)
    bg = bsub.add_parser("grid")
    bg.add_argument("--n", required=True, help="nx,ny,nz cube counts")
    bg.add_argument("--out", required=True)
    bf = bsub.add_parser("furch")
    bf.add_argument("--n", required=True)
    bf.add_argument("--path", required=True)
    bf.add_argument("--out", required=True)
    bc = bsub.add_parser("cone-sphere")
    bc.add_argument("file")
    bc.add_argument("--out", required=True)
    bw = bsub.add_parser("wedge")
    bw.add_argument("file1")
    bw.add_argument("file2")
    bw.add_argument("--t1", required=True, help="a,b,x boundary triangle of the first ball")
    bw.add_argument("--t2", required=True)
    bw.add_argument("--out", required=True)
    bx = bsub.add_parser("fixture")
    bx.add_argument("name")
    bx.add_argument("--out", required=True)
    return parser
