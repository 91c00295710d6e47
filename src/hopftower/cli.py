"""Command-line interface.

Every subcommand reads expressions in the grammar of :mod:`hopftower.expr`.
Its handler is a function of the parsed arguments alone that returns the
command's value, and ``run_command`` prints that value through ``_print``,
the one writer.  The output rule: a value prints as the canonical JSON of
:mod:`hopftower.jsonio` when the command's ``--json`` is given or its
``--text`` is not, and otherwise as text; series text ends with the
truncation marker `` (cap N)`` so a truncated value is never mistaken for an
exact one.  Element commands take ``--json``, series and coproduct commands
``--text``, and a command with neither flag prints text.

``run_command`` sends an invocation whose first word is a command straight
to that command's subparser, so its arguments are parsed once; the top-level
parser answers only argv that do not start with a command, with help or a
usage error, and reports the arguments a subparser leaves over.

To add a subcommand, declare it in ``build_parser`` with one ``command``
call (its name, summary, handler, output flag, and whether it takes ``--cap``)
and add its own arguments to the subparser that call returns.  A handler
that exits with a status other than 0, or whose JSON names a structure, sets
``args.status`` or ``args.structure``.

The maps ``convert --to`` follows and the pairings ``pair`` offers are rows
of :mod:`hopftower.structures`.

Exit codes: 0 success, 1 bad input (syntax, domain, algebra mix, usage),
2 a configured capability bound was exceeded, 3 a verification suite
failed, 4 a file could not be read.
"""

import argparse
import sys
from contextlib import redirect_stderr, redirect_stdout
from functools import lru_cache

from . import structures
from . import sym as sym_mod
from . import topology
from .algebroid import ALGEBROIDS, cohomology_rank
from .diffeo import FdBElement
from .errors import (AlgebraMismatchError, CapabilityError, DomainError,
                     ExpressionError)
from .expr import compose_series, parse_element, parse_series
from .indices import natural
from .jsonio import document_for, dumps, parse_json
from .scalars import qmul
from .series import TruncatedSeries
from .sym import SymElement
from .topology import ProjectiveProductSpace

# the names of the verify suites, in report order; ``suites.SUITES`` is built
# from them, and building the parser loads no part of verify
SUITE_NAMES = ("hopf-axioms", "antipode", "duality", "bfk", "comodule-algebroid",
               "topology", "counts", "cli-roundtrip")


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


def _print(value, args, out):
    """Write a command's value by the output rule of the module docstring."""
    if args.json:
        print(dumps(document_for(value, args.structure)), file=out)
    elif isinstance(value, TruncatedSeries):
        print("%s (cap %d)" % (value, value.cap), file=out)
    else:
        print(value, file=out)


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
        try:
            with open(text[1:], "r", encoding="utf-8") as fh:
                text = fh.read()
        except UnicodeDecodeError as exc:
            raise DomainError("invalid JSON: %s" % exc)
    return parse_json(text)


# -- subcommand handlers ----------------------------------------------------

def _cmd_coproduct(args):
    value, family = parse_element(args.expr, args.algebra)
    if family == "scalar":
        raise DomainError("a bare number needs --algebra to pick a coproduct")
    st = structures.find(family, args.structure, "coproduct")
    args.structure = st.flag
    return st.coproduct(structures.ALGEBRAS[family].cls.lift(value))  # a number on the unit


def _cmd_antipode(args):
    value, family = parse_element(args.expr)
    if family == "scalar":
        return value
    st = structures.find(family, args.structure, "antipode")
    args.structure = st.flag
    return st.antipode(value)


def _cmd_convert(args):
    value, family = parse_element(args.expr)
    if family == "scalar":  # weight 0: every involution and basis fixes it
        return value
    for which in args.involution or []:
        value = sym_mod.involution(value, which)
    if args.to is not None:
        target = structures.tag_of_letter(args.to)
        if target != family:
            rows = structures.STRUCTURES
            step = next((f for (a, b), f in structures.ARROWS.items()
                         if (rows[a].algebra, rows[b].algebra) == (family, target)), None)
            if step is None:
                raise DomainError("cannot convert a %s expression to %r"
                                  % (family, args.to))
            value = step(value)
        if isinstance(value, SymElement):
            value = sym_mod.convert(value, args.to, integral=args.integral)
    return value


def _cmd_pair(args):
    a, fa = parse_element(args.left)
    b, fb = parse_element(args.right)
    if fa == fb == "scalar":
        return qmul(a, b)
    sides = next((k for k in structures.PAIRINGS
                  if fa in (k[0], "scalar") and fb in (k[1], "scalar")), None)
    if sides is None:
        raise AlgebraMismatchError(
            "no pairing between %s and %s expressions" % (fa, fb))
    left, right = (structures.ALGEBRAS[tag].cls for tag in sides)
    return structures.PAIRINGS[sides](left.lift(a), right.lift(b))


def _cmd_log(args):
    if args.series is None:
        return topology.miscenko_log(args.cap)
    return parse_series(args.series, args.cap).log()


def _cmd_fgl(args):
    if args.structure == "bfk":
        return topology.cp_infinity_coproduct(args.cap)
    result = topology.fgl(args.cap)
    if args.structure == "fdb":
        result = result.map_coefficients(
            lambda el: FdBElement(el.terms), algebra=FdBElement)
    return result


def _cmd_charnum(args):
    if args.kind == "cp":
        if args.dim is None:
            raise DomainError("charnum cp needs --dim")
        if args.partition is None:
            return topology.cp_hurewicz(args.dim)
        return topology.cp_char_number(args.dim, _parse_parts(args.partition, "--partition"))
    if args.space is None or args.composition is None:
        raise DomainError("charnum quasitoric needs --space and --composition")
    space = ProjectiveProductSpace.from_document(_load_json_arg(args.space))
    I = _parse_parts(args.composition, "--composition")
    return topology.quasitoric_char_number(space, I, convention=args.convention)


def _cmd_crn(args):
    return topology.crn_invariant(natural(args.weight, "--weight", 1))


def _cmd_cobar_rank(args):
    rank = cohomology_rank(args.algebroid, args.weight, args.degree)
    return dumps({"algebroid": args.algebroid, "weight": args.weight,
                  "degree": args.degree, "rank": rank})


def _cmd_verify(args):
    from .verify import render_report, run_suites
    for option, value, least in (("--weight", args.weight, 0), ("--cap", args.cap, 2)):
        if value is not None:
            natural(value, option, least)
    records, ok = run_suites(args.suite, weight=args.weight, cap=args.cap)
    if not ok:
        args.status = 3
    return render_report(records)


# -- parser wiring ----------------------------------------------------------

def build_parser():
    parser = _ArgumentParser(
        prog="hopftower",
        description="Exact calculator for a tower of combinatorial Hopf "
                    "algebras and its bordism applications.")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    sub.required = True

    def command(name, summary, handler, output=None, cap=False, structure=None):
        """Add the subcommand ``name`` run by ``handler``, with ``output`` its
        output flag (``--json``, ``--text`` or None), a ``--cap`` if ``cap``,
        and ``structure`` the default tag its JSON is written with."""
        p = sub.add_parser(name, help=summary)
        p.set_defaults(handler=handler, json=output == "--text",
                       structure=structure, status=0)
        if cap:
            p.add_argument("--cap", type=_ascii_int, default=6,
                           help="truncation degree (default 6)")
        if output == "--json":
            p.add_argument("--json", action="store_true",
                           help="print JSON instead of readable text")
        elif output == "--text":
            p.add_argument("--text", dest="json", action="store_false",
                           help="print readable text instead of JSON")
        return p

    def offered(part, column):
        # the registry's values of `column` among the structures defining
        # `part`, in row order
        return list(dict.fromkeys(
            getattr(st, column) for st in structures.STRUCTURES.values()
            if getattr(st, part) and getattr(st, column)))

    p = command("eval", "evaluate an element expression",
                lambda args: parse_element(args.expr)[0], "--json")
    p.add_argument("expr")

    p = command("coproduct", "coproduct (or coaction) of an element",
                _cmd_coproduct, "--text")
    p.add_argument("expr")
    p.add_argument("--structure", choices=offered("coproduct", "flag"))
    p.add_argument("--algebra", choices=offered("coproduct", "algebra"),
                   help="algebra for expressions with no generator letters")

    p = command("antipode", "antipode of an element", _cmd_antipode, "--json")
    p.add_argument("expr")
    p.add_argument("--structure", choices=offered("antipode", "flag"))

    p = command("convert", "change basis, apply involutions, or move down the "
                           "tower", _cmd_convert, "--json")
    p.add_argument("expr")
    p.add_argument("--to", choices=list(dict.fromkeys(
        x for _, b in structures.ARROWS
        for x in structures.algebra(structures.STRUCTURES[b].algebra).letters)))
    p.add_argument("--involution", action="append",
                   choices=["dual", "whitney", "omega"])
    p.add_argument("--integral", action="store_true",
                   help="fail instead of introducing denominators")

    p = command("pair", "dual pairing of two elements", _cmd_pair)
    p.add_argument("left")
    p.add_argument("right")

    p = command("compose", "substitute one series into another",
                lambda args: compose_series(parse_series(args.outer, args.cap),
                                            parse_series(args.inner, args.cap)),
                "--text", cap=True)
    p.add_argument("outer")
    p.add_argument("inner")

    p = command("revert", "compositional inverse of a series",
                lambda args: parse_series(args.series, args.cap).revert(),
                "--text", cap=True)
    p.add_argument("series")

    p = command("log", "series logarithm; with no argument, the logarithm of "
                       "the bordism series", _cmd_log, "--text", cap=True)
    p.add_argument("series", nargs="?")

    p = command("fgl", "two-variable addition law of the bordism series",
                _cmd_fgl, "--text", cap=True)
    p.add_argument("--structure", choices=["binomial", "bfk", "fdb"])

    command("beta", "the beta deformation series",
            lambda args: topology.beta_series(args.cap), "--text", cap=True)
    command("cumulant", "the cumulant series",
            lambda args: topology.cumulant_series(args.cap), "--text", cap=True,
            structure="bfk")

    p = command("charnum", "characteristic numbers", _cmd_charnum, "--json")
    p.add_argument("kind", choices=["cp", "quasitoric"])
    p.add_argument("--dim", type=_ascii_int)
    p.add_argument("--partition")
    p.add_argument("--space", help="inline JSON or @file")
    p.add_argument("--composition")
    p.add_argument("--convention", choices=["tangent", "normal"],
                   default="tangent")

    p = command("crn", "composition-sum invariant of a weight", _cmd_crn, "--json")
    p.add_argument("--weight", type=_ascii_int, required=True)

    p = command("cobar-rank", "cohomology rank of the reduced cobar complex",
                _cmd_cobar_rank)
    p.add_argument("--algebroid", choices=list(ALGEBROIDS), required=True)
    p.add_argument("--weight", type=_ascii_int, required=True)
    p.add_argument("--degree", type=_ascii_int, required=True)

    p = command("verify", "run property-check suites", _cmd_verify)
    p.add_argument("--suite", action="append",
                   choices=sorted(SUITE_NAMES) + ["all"])
    p.add_argument("--weight", type=_ascii_int)
    p.add_argument("--cap", type=_ascii_int)

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
    commands = next(a for a in parser._actions if a.dest == "command").choices
    sub = commands.get(argv[0]) if argv else None
    try:
        with redirect_stdout(out), redirect_stderr(err):
            try:
                if sub is None:
                    args = parser.parse_args(argv)
                else:
                    args, extra = sub.parse_known_args(argv[1:])
                    if extra:
                        parser.error("unrecognized arguments: %s" % " ".join(extra))
            except _ParserExit as exc:
                if exc.message:
                    print(exc.message, file=err)
                return exc.status
            _print(args.handler(args), args, out)
            return args.status
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
