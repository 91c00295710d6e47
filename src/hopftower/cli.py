"""Command-line interface.

Every subcommand reads expressions in the grammar of :mod:`hopftower.expr`
and writes either plain text or the canonical JSON of
:mod:`hopftower.jsonio`.  Element commands print text by default and JSON
under ``--json``; series and coproduct commands print JSON by default and
text under ``--text``.  Series text output always ends with the truncation
marker `` (cap N)`` so a truncated value is never mistaken for an exact one.

Exit codes: 0 success, 1 bad input (syntax, domain, algebra mix, usage),
2 a configured capability bound was exceeded, 3 a verification suite
failed, 4 a file could not be read.
"""

import argparse
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from functools import lru_cache

from . import diffeo
from . import nsym as nsym_mod
from . import qsym as qsym_mod
from . import structures
from . import sym as sym_mod
from . import topology
from .algebroid import ALGEBROIDS, cohomology_rank
from .diffeo import FdBElement
from .errors import (AlgebraMismatchError, CapabilityError, DomainError,
                     ExpressionError)
from .expr import compose_series, parse_element, parse_series
from .jsonio import document_for, dumps
from .series import TruncatedSeries
from .sym import SymElement
from .topology import ProjectiveProductSpace

# the names of verify.SUITES, kept here so that building the parser loads no
# part of verify
SUITE_NAMES = ("hopf-axioms", "antipode", "duality", "bfk", "comodule-algebroid",
               "topology", "counts", "cli-roundtrip")

# the maps down the tower that ``convert --to`` follows, by (source, target) tag
_TOWER_MAPS = {("sym", "qsym"): qsym_mod.include_symmetric,
               ("nsym", "sym"): nsym_mod.abelianize,
               ("nsym", "fdb"): diffeo.bfk_abelianize}

# the dual pairings ``pair`` offers, by (left, right) tag
_PAIRINGS = {("sym", "sym"): sym_mod.hall_pair, ("nsym", "qsym"): qsym_mod.pair}


class _ParserExit(Exception):
    def __init__(self, status, message=None):
        super().__init__(message or "")
        self.status = status
        self.message = message


class _ArgumentParser(argparse.ArgumentParser):
    # argparse normally prints and exits; surface both as exceptions so
    # run_command can translate them into exit codes
    def error(self, message):
        raise _ParserExit(1, "%s: error: %s" % (self.prog, message))

    def exit(self, status=0, message=None):
        raise _ParserExit(status, message.rstrip() if message else None)


def _promote(value, family):
    """A bare number as an element of ``family``; anything else unchanged."""
    if isinstance(value, (int, Fraction)) and family != "scalar":
        return structures.ALGEBRAS[family].cls.one().scale(value)
    return value


def _print(value, args, out, structure=None):
    """Print ``value`` as the command's own flag asks: a command with
    ``--json`` prints text unless it is given, and one with ``--text`` prints
    JSON unless it is given.  Series text ends with its cap."""
    if getattr(args, "json", not getattr(args, "text", False)):
        print(dumps(document_for(value, structure)), file=out)
    elif isinstance(value, TruncatedSeries):
        print("%s (cap %d)" % (value, value.cap), file=out)
    else:
        print(str(value), file=out)


def _parse_parts(text, what):
    if text.strip() == "":
        return ()
    parts = []
    for piece in text.split(","):
        piece = piece.strip()
        if not (piece.isascii() and piece.isdigit()) or int(piece) < 1:
            raise DomainError("%s must be a comma-separated list of positive "
                              "integers, got %r" % (what, text))
        parts.append(int(piece))
    return tuple(parts)


def _ascii_int(text):
    """ASCII digits after an optional ``-``: ``int`` alone reads ``٣`` as 3."""
    if not (text.isascii() and text.removeprefix("-").isdigit()):
        raise argparse.ArgumentTypeError("invalid int value: %r" % text)
    return int(text)


def _load_json_arg(text):
    if text.startswith("@"):
        with open(text[1:], "r", encoding="utf-8") as fh:
            text = fh.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DomainError("invalid JSON: %s" % exc)


# -- subcommand handlers ----------------------------------------------------

def _cmd_eval(args, out):
    value, _ = parse_element(args.expr)
    _print(value, args, out)
    return 0


def _cmd_coproduct(args, out):
    value, family = parse_element(args.expr, args.algebra)
    if family == "scalar":
        raise DomainError("a bare number needs --algebra to pick a coproduct")
    st = structures.find(family, args.structure, "coproduct")
    _print(st.coproduct(_promote(value, family)), args, out, st.flag)
    return 0


def _cmd_antipode(args, out):
    value, family = parse_element(args.expr)
    flag = None
    if family != "scalar":
        st = structures.find(family, args.structure, "antipode")
        value, flag = st.antipode(value), st.flag
    _print(value, args, out, flag)
    return 0


def _cmd_convert(args, out):
    value, family = parse_element(args.expr)
    for which in args.involution or []:
        value = sym_mod.involution(value, which)
    if args.to is not None and family != "scalar":
        target = structures.tag_of_letter(args.to)
        if target != family:
            step = _TOWER_MAPS.get((family, target))
            if step is None:
                raise DomainError("cannot convert a %s expression to %r"
                                  % (family, args.to))
            value = step(value)
        if isinstance(value, SymElement):
            value = sym_mod.convert(value, args.to, integral=args.integral)
    _print(value, args, out)
    return 0


def _cmd_pair(args, out):
    a, fa = parse_element(args.left)
    b, fb = parse_element(args.right)
    if fa == fb == "scalar":
        result = a * b
    else:
        sides = next((k for k in _PAIRINGS
                      if fa in (k[0], "scalar") and fb in (k[1], "scalar")), None)
        if sides is None:
            raise AlgebraMismatchError(
                "no pairing between %s and %s expressions" % (fa, fb))
        result = _PAIRINGS[sides](_promote(a, sides[0]), _promote(b, sides[1]))
    print(str(result), file=out)
    return 0


def _cmd_compose(args, out):
    outer = parse_series(args.outer, args.cap)
    inner = parse_series(args.inner, args.cap)
    _print(compose_series(outer, inner), args, out)
    return 0


def _cmd_revert(args, out):
    _print(parse_series(args.series, args.cap).revert(), args, out)
    return 0


def _cmd_log(args, out):
    if args.series is None:
        result = topology.miscenko_log(args.cap)
    else:
        result = parse_series(args.series, args.cap).log()
    _print(result, args, out)
    return 0


def _cmd_fgl(args, out):
    if args.structure == "bfk":
        result = topology.cp_infinity_coproduct(args.cap)
    else:
        result = topology.fgl(args.cap)
        if args.structure == "fdb":
            result = result.map_coefficients(
                lambda el: FdBElement(dict(el.terms)), algebra=FdBElement)
    _print(result, args, out, args.structure)
    return 0


def _cmd_beta(args, out):
    _print(topology.beta_series(args.cap), args, out)
    return 0


def _cmd_cumulant(args, out):
    _print(topology.cumulant_series(args.cap), args, out, structure="bfk")
    return 0


def _cmd_charnum(args, out):
    if args.kind == "cp":
        if args.dim is None:
            raise DomainError("charnum cp needs --dim")
        if args.partition is None:
            value = topology.cp_hurewicz(args.dim)
        else:
            value = topology.cp_char_number(args.dim, _parse_parts(args.partition, "--partition"))
    else:
        if args.space is None or args.composition is None:
            raise DomainError("charnum quasitoric needs --space and --composition")
        space = ProjectiveProductSpace.from_document(_load_json_arg(args.space))
        I = _parse_parts(args.composition, "--composition")
        value = topology.quasitoric_char_number(space, I, convention=args.convention)
    _print(value, args, out)
    return 0


def _cmd_crn(args, out):
    if args.weight < 1:
        raise DomainError("--weight must be at least 1")
    _print(topology.crn_invariant(args.weight), args, out)
    return 0


def _cmd_cobar_rank(args, out):
    rank = cohomology_rank(args.algebroid, args.weight, args.degree)
    doc = {"algebroid": args.algebroid, "weight": args.weight,
           "degree": args.degree, "rank": rank}
    print(dumps(doc), file=out)
    return 0


def run_suites(names, weight=None, cap=None):
    """``verify.run_suites``, loading the suites on first use."""
    from .verify import run_suites
    return run_suites(names, weight=weight, cap=cap)


def _cmd_verify(args, out):
    from .verify import render_report
    for option, value, least in (("--weight", args.weight, 0), ("--cap", args.cap, 2)):
        if value is not None and value < least:
            raise DomainError("%s must be at least %d" % (option, least))
    names = args.suite or ["all"]
    records, ok = run_suites(names, weight=args.weight, cap=args.cap)
    print(render_report(records), file=out)
    return 0 if ok else 3


# -- parser wiring ----------------------------------------------------------

def build_parser():
    parser = _ArgumentParser(
        prog="hopftower",
        description="Exact calculator for a tower of combinatorial Hopf "
                    "algebras and its bordism applications.")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    sub.required = True

    def series_flags(p):
        p.add_argument("--cap", type=_ascii_int, default=6,
                       help="truncation degree (default 6)")
        p.add_argument("--text", action="store_true",
                       help="print readable text instead of JSON")

    p = sub.add_parser("eval", help="evaluate an element expression")
    p.add_argument("expr")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_eval)

    def offered(part, column):
        # the registry's values of `column` among the structures defining
        # `part`, in row order
        return list(dict.fromkeys(
            getattr(st, column) for st in structures.STRUCTURES.values()
            if getattr(st, part) and getattr(st, column)))

    p = sub.add_parser("coproduct", help="coproduct (or coaction) of an "
                                         "element")
    p.add_argument("expr")
    p.add_argument("--structure", choices=offered("coproduct", "flag"))
    p.add_argument("--algebra", choices=offered("coproduct", "algebra"),
                   help="algebra for expressions with no generator letters")
    p.add_argument("--text", action="store_true")
    p.set_defaults(handler=_cmd_coproduct)

    p = sub.add_parser("antipode", help="antipode of an element")
    p.add_argument("expr")
    p.add_argument("--structure", choices=offered("antipode", "flag"))
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_antipode)

    p = sub.add_parser("convert", help="change basis, apply involutions, or "
                                       "move down the tower")
    p.add_argument("expr")
    p.add_argument("--to", choices=["e", "h", "p", "m", "M", "t"])
    p.add_argument("--involution", action="append",
                   choices=["dual", "whitney", "omega"])
    p.add_argument("--integral", action="store_true",
                   help="fail instead of introducing denominators")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_convert)

    p = sub.add_parser("pair", help="dual pairing of two elements")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(handler=_cmd_pair)

    p = sub.add_parser("compose", help="substitute one series into another")
    p.add_argument("outer")
    p.add_argument("inner")
    series_flags(p)
    p.set_defaults(handler=_cmd_compose)

    p = sub.add_parser("revert", help="compositional inverse of a series")
    p.add_argument("series")
    series_flags(p)
    p.set_defaults(handler=_cmd_revert)

    p = sub.add_parser("log", help="series logarithm; with no argument, the "
                                   "logarithm of the bordism series")
    p.add_argument("series", nargs="?")
    series_flags(p)
    p.set_defaults(handler=_cmd_log)

    p = sub.add_parser("fgl", help="two-variable addition law of the bordism "
                                   "series")
    p.add_argument("--structure", choices=["binomial", "bfk", "fdb"])
    series_flags(p)
    p.set_defaults(handler=_cmd_fgl)

    p = sub.add_parser("beta", help="the beta deformation series")
    series_flags(p)
    p.set_defaults(handler=_cmd_beta)

    p = sub.add_parser("cumulant", help="the cumulant series")
    series_flags(p)
    p.set_defaults(handler=_cmd_cumulant)

    p = sub.add_parser("charnum", help="characteristic numbers")
    p.add_argument("kind", choices=["cp", "quasitoric"])
    p.add_argument("--dim", type=_ascii_int)
    p.add_argument("--partition")
    p.add_argument("--space", help="inline JSON or @file")
    p.add_argument("--composition")
    p.add_argument("--convention", choices=["tangent", "normal"],
                   default="tangent")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_charnum)

    p = sub.add_parser("crn", help="composition-sum invariant of a weight")
    p.add_argument("--weight", type=_ascii_int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_crn)

    p = sub.add_parser("cobar-rank", help="cohomology rank of the reduced "
                                          "cobar complex")
    p.add_argument("--algebroid", choices=list(ALGEBROIDS), required=True)
    p.add_argument("--weight", type=_ascii_int, required=True)
    p.add_argument("--degree", type=_ascii_int, required=True)
    p.set_defaults(handler=_cmd_cobar_rank)

    p = sub.add_parser("verify", help="run property-check suites")
    p.add_argument("--suite", action="append",
                   choices=sorted(SUITE_NAMES) + ["all"])
    p.add_argument("--weight", type=_ascii_int)
    p.add_argument("--cap", type=_ascii_int)
    p.set_defaults(handler=_cmd_verify)

    return parser


@lru_cache(maxsize=None)
def _parser():
    """The one parser of this process, built on the first command.

    Parsing leaves no state in it: ``--suite`` and ``--involution`` append
    to a fresh list on every call.
    """
    return build_parser()


def run_command(argv, stdout=None, stderr=None):
    """Run one invocation, writing to the given streams.  Returns the exit
    code instead of raising SystemExit, so it can be driven in-process."""
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    parser = _parser()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            try:
                args = parser.parse_args(argv)
            except _ParserExit as exc:
                if exc.message:
                    print(exc.message, file=err)
                return exc.status
            return args.handler(args, out)
    except (ExpressionError, DomainError, AlgebraMismatchError) as exc:
        print("error: %s" % exc, file=err)
        return 1
    except CapabilityError as exc:
        print("error: %s" % exc, file=err)
        return 2
    except OSError as exc:
        print("error: %s" % exc, file=err)
        return 4


def main():
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
