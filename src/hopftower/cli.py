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
from . import sym as sym_mod
from . import topology
from .algebroid import cohomology_rank
from .diffeo import FdBElement
from .errors import (AlgebraMismatchError, CapabilityError, DomainError,
                     ExpressionError)
from .expr import compose_series, parse_element, parse_series
from .jsonio import document_for, dumps
from .nsym import NSymElement
from .qsym import QSymElement
from .series import TruncatedSeries
from .sym import SymElement
from .topology import BElement, ProjectiveProductSpace
from .verify import SUITES, render_report, run_suites

_FAMILY_CLS = {"sym": SymElement, "nsym": NSymElement, "qsym": QSymElement,
               "fdb": FdBElement, "bpoly": BElement}


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


def _parse_pinned(text, algebra=None):
    """Parse an element, promoting a bare number into the pinned algebra."""
    value, family = parse_element(text, algebra)
    if isinstance(value, Fraction) and family in _FAMILY_CLS:
        value = _FAMILY_CLS[family].one().scale(value)
    return value, family


def _print_element(x, args, out):
    if getattr(args, "json", False):
        print(dumps(document_for(x)), file=out)
    else:
        print(str(x), file=out)


def _print_series(s, args, out, structure=None):
    if getattr(args, "text", False):
        print("%s (cap %d)" % (s, s.cap), file=out)
    else:
        print(dumps(document_for(s, structure)), file=out)


def _parse_parts(text, what):
    if text.strip() == "":
        return ()
    parts = []
    for piece in text.split(","):
        piece = piece.strip()
        if not piece.isdigit() or int(piece) < 1:
            raise DomainError("%s must be a comma-separated list of positive "
                              "integers, got %r" % (what, text))
        parts.append(int(piece))
    return tuple(parts)


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
    _print_element(value, args, out)
    return 0


def _cmd_coproduct(args, out):
    value, family = _parse_pinned(args.expr, args.algebra)
    structure = args.structure
    if family == "scalar":
        raise DomainError("a bare number needs --algebra to pick a coproduct")
    if family == "sym":
        if structure == "fdb":
            result = diffeo.coaction_sym(value)
            structure = None
        elif structure in (None, "binomial"):
            result = sym_mod.coproduct(value)
            structure = None
        else:
            raise DomainError("structure %r is not defined on symmetric "
                              "functions" % structure)
    elif family == "nsym":
        if structure == "bfk":
            result = diffeo.bfk_coproduct(value)
        elif structure in (None, "binomial"):
            result = nsym_mod.coproduct(value)
            structure = "binomial"
        else:
            raise DomainError("structure %r is not defined on the "
                              "noncommutative algebra" % structure)
    elif family == "qsym":
        if structure is not None:
            raise DomainError("the quasisymmetric coproduct takes no "
                              "--structure")
        result = qsym_mod.coproduct(value)
    elif family == "fdb":
        if structure is not None:
            raise DomainError("the diffeomorphism coproduct takes no "
                              "--structure")
        result = diffeo.fdb_coproduct(value)
    else:
        raise CapabilityError("no coproduct is implemented on the bordism "
                              "coefficient algebra")
    if getattr(args, "text", False):
        print(str(result), file=out)
    else:
        print(dumps(document_for(result, structure)), file=out)
    return 0


def _cmd_antipode(args, out):
    value, family = _parse_pinned(args.expr, None)
    structure = args.structure
    if structure == "bfk" and family not in ("nsym", "scalar"):
        raise DomainError("structure 'bfk' applies to Z expressions only")
    if family == "scalar":
        result = value
    elif family == "sym":
        result = sym_mod.antipode(value)
    elif family == "nsym":
        result = (diffeo.bfk_antipode(value) if structure == "bfk"
                  else nsym_mod.antipode(value))
    elif family == "qsym":
        result = qsym_mod.antipode(value)
    elif family == "fdb":
        result = diffeo.fdb_antipode(value)
    else:
        chi = diffeo.fdb_antipode(FdBElement(dict(value.terms)))
        result = BElement(dict(chi.terms))
    _print_element(result, args, out)
    return 0


def _cmd_convert(args, out):
    value, family = parse_element(args.expr)
    involutions = args.involution or []
    if involutions and family != "sym":
        raise DomainError("involutions are defined on symmetric functions")
    for which in involutions:
        value = sym_mod.involution(value, which)
    to = args.to
    if to is not None and family != "scalar":
        if family == "sym":
            if to == "M":
                value = qsym_mod.include_symmetric(value)
            elif to in ("e", "h", "p", "m"):
                value = sym_mod.convert(value, to, integral=args.integral)
            else:
                raise DomainError("cannot convert symmetric functions to %r"
                                  % to)
        elif family == "nsym":
            if to == "t":
                value = diffeo.bfk_abelianize(value)
            elif to in ("e", "h", "p", "m"):
                value = sym_mod.convert(nsym_mod.abelianize(value), to,
                                        integral=args.integral)
            else:
                raise DomainError("cannot convert Z expressions to %r" % to)
        elif family == "qsym" and to == "M":
            pass
        else:
            raise DomainError("cannot convert a %s expression to %r"
                              % (family, to))
    _print_element(value, args, out)
    return 0


def _cmd_pair(args, out):
    a, fa = parse_element(args.left)
    b, fb = parse_element(args.right)
    fams = {fa, fb} - {"scalar"}
    if not fams:
        result = a * b
    elif fams == {"sym"}:
        if fa == "scalar":
            a = SymElement.one().scale(a)
        if fb == "scalar":
            b = SymElement.one().scale(b)
        result = sym_mod.hall_pair(a, b)
    elif fams <= {"nsym", "qsym"}:
        if fa not in ("nsym", "scalar") or fb not in ("qsym", "scalar"):
            raise AlgebraMismatchError(
                "pair takes a Z expression on the left and an M expression "
                "on the right")
        if fa == "scalar":
            a = NSymElement.one().scale(a)
        if fb == "scalar":
            b = QSymElement.one().scale(b)
        result = qsym_mod.pair(a, b)
    else:
        raise AlgebraMismatchError(
            "no pairing between %s and %s expressions" % (fa, fb))
    print(str(result), file=out)
    return 0


def _cmd_compose(args, out):
    outer = parse_series(args.outer, args.cap)
    inner = parse_series(args.inner, args.cap)
    _print_series(compose_series(outer, inner), args, out)
    return 0


def _cmd_revert(args, out):
    _print_series(parse_series(args.series, args.cap).revert(), args, out)
    return 0


def _cmd_log(args, out):
    if args.series is None:
        result = topology.miscenko_log(args.cap)
    else:
        result = parse_series(args.series, args.cap).log()
    _print_series(result, args, out)
    return 0


def _cmd_fgl(args, out):
    structure = args.structure or "binomial"
    if structure == "bfk":
        result = topology.cp_infinity_coproduct(args.cap)
        _print_series(result, args, out, structure="bfk")
        return 0
    result = topology.fgl(args.cap)
    if structure == "fdb":
        result = result.map_coefficients(
            lambda el: FdBElement(dict(el.terms)), algebra=FdBElement)
    _print_series(result, args, out)
    return 0


def _cmd_beta(args, out):
    _print_series(topology.beta_series(args.cap), args, out)
    return 0


def _cmd_cumulant(args, out):
    _print_series(topology.cumulant_series(args.cap), args, out,
                  structure="bfk")
    return 0


def _cmd_charnum(args, out):
    if args.kind == "cp":
        if args.dim is None:
            raise DomainError("charnum cp needs --dim")
        if args.partition is None:
            _print_element(topology.cp_hurewicz(args.dim), args, out)
        else:
            lam = _parse_parts(args.partition, "--partition")
            print(str(topology.cp_char_number(args.dim, lam)), file=out)
        return 0
    if args.space is None or args.composition is None:
        raise DomainError("charnum quasitoric needs --space and --composition")
    space = ProjectiveProductSpace.from_document(_load_json_arg(args.space))
    I = _parse_parts(args.composition, "--composition")
    value = topology.quasitoric_char_number(space, I,
                                            convention=args.convention)
    print(str(value), file=out)
    return 0


def _cmd_crn(args, out):
    if args.weight < 1:
        raise DomainError("--weight must be at least 1")
    _print_element(topology.crn_invariant(args.weight), args, out)
    return 0


def _cmd_cobar_rank(args, out):
    rank = cohomology_rank(args.algebroid, args.weight, args.degree)
    doc = {"algebroid": args.algebroid, "weight": args.weight,
           "degree": args.degree, "rank": rank}
    print(dumps(doc), file=out)
    return 0


def _cmd_verify(args, out):
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
        p.add_argument("--cap", type=int, default=6,
                       help="truncation degree (default 6)")
        p.add_argument("--text", action="store_true",
                       help="print readable text instead of JSON")

    p = sub.add_parser("eval", help="evaluate an element expression")
    p.add_argument("expr")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("coproduct", help="coproduct (or coaction) of an "
                                         "element")
    p.add_argument("expr")
    p.add_argument("--structure", choices=["binomial", "bfk", "fdb"])
    p.add_argument("--algebra", choices=["sym", "nsym", "qsym", "fdb"],
                   help="algebra for expressions with no generator letters")
    p.add_argument("--text", action="store_true")
    p.set_defaults(handler=_cmd_coproduct)

    p = sub.add_parser("antipode", help="antipode of an element")
    p.add_argument("expr")
    p.add_argument("--structure", choices=["binomial", "bfk"])
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
    p.add_argument("--dim", type=int)
    p.add_argument("--partition")
    p.add_argument("--space", help="inline JSON or @file")
    p.add_argument("--composition")
    p.add_argument("--convention", choices=["tangent", "normal"],
                   default="tangent")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_charnum)

    p = sub.add_parser("crn", help="composition-sum invariant of a weight")
    p.add_argument("--weight", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_crn)

    p = sub.add_parser("cobar-rank", help="cohomology rank of the reduced "
                                          "cobar complex")
    p.add_argument("--algebroid", choices=["S.B", "N.N"], required=True)
    p.add_argument("--weight", type=int, required=True)
    p.add_argument("--degree", type=int, required=True)
    p.set_defaults(handler=_cmd_cobar_rank)

    p = sub.add_parser("verify", help="run property-check suites")
    p.add_argument("--suite", action="append",
                   choices=sorted(SUITES) + ["all"])
    p.add_argument("--weight", type=int)
    p.add_argument("--cap", type=int)
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
    except ExpressionError as exc:
        print("error: %s" % exc, file=err)
        return 1
    except (DomainError, AlgebraMismatchError) as exc:
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
