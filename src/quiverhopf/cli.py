"""Command-line front end.

Every subcommand reads a quiver (JSON file, or the built-in one-edge quiver
1 -> 2), parses elements from explicit text forms, and prints canonical
sorted output, so identical invocations are byte-identical. Verification
subcommands exit 0 only if every law they sweep holds; the first failing
report carries the canonically smallest witness.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys

from .bridge import compare_coproducts, instance, instance_table, reconstruct_coproduct
from .cobrackets import delta_or, delta_p_rt, delta_rt
from .cuts import Cut, PathDiagram, cut_order, enumerate_cuts, epsilon, faces, nesting_children
from .dual import dual_rooted_tree
from .hopf import eta_or, eta_rt, nc_coproduct, path_antipode, path_coproduct
from .linear import format_scalar
from .quiver import ONE_EDGE_QUIVER, Necklace, ParseError, Quiver
from .trees import json_text
from .verify import LAWS, run_laws

_CUT_PAIR = r"\(\s*(\d+)\s*,\s*(\d+)\s*\)"


def _parse_cut(text: str) -> Cut:
    s = text.strip()
    if s in ("", "()"):
        return Cut(())
    if not re.fullmatch(r"%s(\s*,?\s*%s)*" % (_CUT_PAIR, _CUT_PAIR), s):
        raise ParseError("bad cut %r (expected like (1,4),(2,3))" % text, 0)
    return Cut([(int(i), int(j)) for i, j in re.findall(_CUT_PAIR, s)])


def _size(text: str) -> int:
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError("must be >= 0, got %d" % n)
    return n


def _quiver(args) -> Quiver:
    if args.quiver:
        return Quiver.load(args.quiver)
    return ONE_EDGE_QUIVER


def _print_reports(reports, out) -> int:
    ok = True
    for rep in reports:
        print(rep.line(), file=out)
        ok = ok and rep.ok
    return 0 if ok else 1


def cmd_cobracket(args, out) -> int:
    q = _quiver(args)
    structured = args.format == "structured"
    if args.kind == "or":
        x = q.parse_necklace(args.input)
        result = delta_or(x)
    else:
        x = q.parse_path(args.input)
        result = delta_p_rt(x) if args.kind == "p-rt" else delta_rt(x)
    print(result.text(structured), file=out)
    return 0


def cmd_coproduct(args, out) -> int:
    q = _quiver(args)
    x = q.parse_path(args.input)
    result = nc_coproduct(x) if args.ordered else path_coproduct(x)
    print(result.text(args.format == "structured"), file=out)
    return 0


def cmd_antipode(args, out) -> int:
    q = _quiver(args)
    x = q.parse_path(args.input)
    print(path_antipode(x).text(args.format == "structured"), file=out)
    return 0


def cmd_chords(args, out) -> int:
    q = _quiver(args)
    p = q.parse_path(args.path)
    for h in enumerate_cuts(p, simple_only=args.simple):
        pieces = faces(p, nesting_children(h))
        fields = [h.text()]
        if args.with_signs:
            eps = epsilon(PathDiagram(p, h))
            fields.append("eps=%s" % format_scalar(eps, args.format == "structured"))
        fields.append("ord=%d" % cut_order(h))
        fields.append("outer=%s" % pieces[None].text())
        for c in h.pairs:
            fields.append("(%d,%d)->%s" % (c[0], c[1], pieces[c].text()))
        print("  ".join(fields), file=out)
    return 0


def cmd_dualtree(args, out) -> int:
    q = _quiver(args)
    d = PathDiagram(q.parse_path(args.path), _parse_cut(args.cut))
    tree_text = json_text(dual_rooted_tree(d))
    print("eps=%s" % format_scalar(epsilon(d), args.format == "structured"), file=out)
    print(tree_text, file=out)
    return 0


def cmd_eta(args, out) -> int:
    q = _quiver(args)
    structured = args.format == "structured"
    x = q.parse_element(args.input)
    if isinstance(x, Necklace):
        lc = eta_or(x, signed=args.sign_convention == "signed")
    else:
        lc = eta_rt(x)
    if not lc:
        print("0", file=out)
        return 0
    for t, c in lc.terms():
        print("%s * %s" % (format_scalar(c, structured), json_text(t)), file=out)
    return 0


def cmd_bridge(args, out) -> int:
    q = _quiver(args)
    basis, degree, pre_lie, direct = instance(q, args.instance, args.max_degree)
    layers = reconstruct_coproduct(basis, degree, pre_lie)
    for n, count in layers.term_counts().items():
        print("layer %d: %d terms" % (n, count), file=out)
    print("integral coefficients: %s" % ("yes" if layers.all_integral() else "NO"), file=out)
    if args.compare:
        rep = compare_coproducts(layers, direct, basis)
        print(rep.line(), file=out)
        return 0 if rep.ok else 1
    return 0


def cmd_verify(args, out) -> int:
    groups = {args.law, args.theorem}
    laws = [law for law in LAWS if not groups.isdisjoint(law.groups)]
    if not laws:
        raise ValueError("nothing to verify: pass --law or --theorem")
    q = _quiver(args)
    reports = []
    stats = (lambda line: print(line, file=sys.stderr)) if args.stats else None
    for law, rep in run_laws(laws, q, args.max_len, args.sign_convention, stats):
        if law.is_note(args.sign_convention):
            print("note: %s" % rep.line(), file=out)
        else:
            reports.append(rep)
    return _print_reports(reports, out)


@functools.cache  # parse_args leaves it unchanged; each build leaves argparse cycles
def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--quiver", help="quiver JSON file (default: built-in e: 1 -> 2)")
    # Only the subcommands that print scalars take --format.
    printing = argparse.ArgumentParser(add_help=False, parents=[common])
    printing.add_argument(
        "--format", choices=("pretty", "structured"), default="pretty", help="output style"
    )
    parser = argparse.ArgumentParser(
        prog="quiverhopf",
        description="Necklace coalgebras, chord diagrams, and tree Hopf algebras on quiver paths.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cobracket", parents=[printing], help="evaluate a cobracket")
    p.add_argument("--kind", choices=("or", "p-rt", "rt"), required=True)
    p.add_argument("--input", required=True, help='path "1 e e*" or necklace "[e e*]"')
    p.set_defaults(func=cmd_cobracket)

    p = sub.add_parser("coproduct", parents=[printing], help="coproduct of a path")
    p.add_argument("--input", required=True)
    p.add_argument("--ordered", action="store_true", help="ordered (word) variant")
    p.set_defaults(func=cmd_coproduct)

    p = sub.add_parser("antipode", parents=[printing], help="antipode of a path")
    p.add_argument("--input", required=True)
    p.set_defaults(func=cmd_antipode)

    p = sub.add_parser("chords", parents=[printing], help="list cuts of a path")
    p.add_argument("--path", required=True)
    p.add_argument("--simple", action="store_true")
    p.add_argument("--with-signs", action="store_true")
    p.set_defaults(func=cmd_chords)

    p = sub.add_parser("dualtree", parents=[printing], help="dual tree of a chord diagram")
    p.add_argument("--path", required=True)
    p.add_argument("--cut", required=True, help='like "(1,4),(2,3)" or "()"')
    p.set_defaults(func=cmd_dualtree)

    p = sub.add_parser("eta", parents=[printing], help="tree expansion of a path or necklace")
    p.add_argument("--input", required=True)
    p.add_argument("--sign-convention", choices=("signed", "unsigned"), default="unsigned")
    p.set_defaults(func=cmd_eta)

    p = sub.add_parser("bridge", parents=[common], help="reconstruct coproduct layers")
    p.add_argument("--instance", choices=tuple(instance_table()), required=True)
    p.add_argument("--max-degree", type=_size, default=8)
    p.add_argument("--compare", action="store_true")
    p.set_defaults(func=cmd_bridge)

    p = sub.add_parser("verify", parents=[common], help="run exhaustive law checks")
    p.add_argument("--law", choices=("prelie", "lie"))
    p.add_argument(
        "--theorem", choices=("1", "2", "coassoc", "antipode", "antipode-formula", "injective")
    )
    p.add_argument("--max-len", type=_size, default=4)
    p.add_argument("--sign-convention", choices=("signed", "unsigned"), default="unsigned")
    p.add_argument(
        "--stats", action="store_true",
        help="print per-law and per-map counters to stderr",
    )
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None, out=None) -> int:
    out = out or sys.stdout
    args = build_parser().parse_args(argv)
    try:
        return args.func(args, out)
    except ParseError as exc:
        print("parse error: %s" % exc, file=sys.stderr)
        return 2
    except (ValueError, OSError, RecursionError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
