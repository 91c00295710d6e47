"""Command-line behavior: outputs, exit codes, stream handling."""

import argparse
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from hopftower import cli, topology
from hopftower.cli import run_command
from hopftower.diffeo import FdBElement, bfk_abelianize
from hopftower.jsonio import loads
from hopftower.verify import DOCUMENTED_INVOCATIONS

ROOT = Path(__file__).resolve().parent.parent
# the child interpreters import the package from this checkout
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run_command(list(argv), out, err)
    return code, out.getvalue().rstrip("\n"), err.getvalue()


def test_eval_text_and_json():
    assert run("eval", "e[1]^2 - e[2]") == (0, "e[1,1] - e[2]", "")
    code, out, _ = run("eval", "--json", "e[1]^2 - e[2]")
    assert code == 0
    assert json.loads(out)["basis"] == "e"


def test_antipode_structures():
    assert run("antipode", "Z[2]")[1] == "Z[1,1] - Z[2]"
    assert run("antipode", "--structure", "bfk", "Z[2]")[1] == "2*Z[1,1] - Z[2]"
    code, _, err = run("antipode", "--structure", "bfk", "e[2]")
    assert code == 1 and "bfk" in err


def test_a_bare_number_is_its_own_antipode_under_every_structure():
    """A scalar lies in every algebra and S(c*1) = c*1, so every offered
    ``--structure`` gives a bare number back unchanged."""
    commands = next(a for a in cli.build_parser()._actions if a.dest == "command")
    flags = next(a for a in commands.choices["antipode"]._actions
                 if a.dest == "structure").choices
    assert flags
    for expr in ("2", "3/4", "0"):
        assert run("antipode", expr) == (0, expr, "")
        for flag in flags:
            assert run("antipode", "--structure", flag, expr) == (0, expr, "")


def test_antipode_of_a_long_power():
    long = "Z[%s]" % ",".join(["1"] * 1000)
    for structure in ("binomial", "bfk"):
        assert run("antipode", "--structure", structure, "Z[1]^1000") == (0, long, "")


def test_convert_paths():
    assert run("convert", "h[2]", "--to", "e")[1] == "e[1,1] - e[2]"
    assert run("convert", "Z[1,2]", "--to", "t")[1] == "t[2,1]"
    assert run("convert", "m[2,1]", "--to", "M")[1] == "M[1,2] + M[2,1]"
    # --integral refuses only a denominator the conversion introduces
    for expr in ("e[2]", "1/2*e[2]"):
        assert run("convert", expr, "--to", "p", "--integral") == (
            1, "", "error: conversion to p-basis is not integral here\n")
    for argv, want in ((("--to", "e"), "1/2*e[1]"), (("--to", "h"), "1/2*h[1]"),
                       ((), "1/2*e[1]")):
        assert run("convert", "1/2*e[1]", *argv, "--integral") == (0, want, "")


def test_a_bare_number_passes_every_involution_unchanged():
    """omega, dual and Whitney fix weight 0, as the antipode and every basis
    do, so a bare number comes back as itself; a non-symmetric element is
    still refused, with exit code 1."""
    for expr in ("3", "3/4", "0"):
        for which in ("dual", "whitney", "omega"):
            assert run("convert", expr, "--involution", which) == (0, expr, "")
        assert run("convert", expr, "--involution", "omega", "--to", "h") == (0, expr, "")
    code, out, err = run("convert", "Z[1]", "--involution", "omega")
    assert (code, out) == (1, "") and "involution" in err and "NSymElement" in err


def test_coproduct_json_default_and_text():
    code, out, _ = run("coproduct", "Z[2]")
    assert code == 0
    doc = json.loads(out)
    assert doc["structure"] == "binomial"
    code, out, _ = run("coproduct", "--text", "e[2]")
    assert code == 0 and "(x)" in out
    code, _, err = run("coproduct", "1")
    assert code == 1 and "--algebra" in err
    assert run("coproduct", "1", "--algebra", "qsym")[0] == 0


def test_coaction_through_coproduct_flag():
    code, out, _ = run("coproduct", "--structure", "fdb", "e[3]")
    assert code == 0
    doc = json.loads(out)
    assert doc["factors"] == ["sym", "fdb"]
    assert {"left": [2], "right": [1], "coeff": "2"} in doc["terms"]


def test_series_commands_text_suffix():
    code, out, _ = run("compose", "T+T^2", "T+T^2", "--cap", "4", "--text")
    assert (code, out) == (0, "T + 2*T^2 + 2*T^3 + T^4 (cap 4)")
    code, out, _ = run("revert", "t(T)", "--cap", "3", "--text")
    assert out.endswith("(cap 3)")
    code, out, _ = run("log", "--cap", "3", "--text")
    assert out == "T - b[1]*T^2 + (2*b[1,1] - b[2])*T^3 (cap 3)"


def test_a_named_series_call_promotes_its_coefficients_both_ways():
    """b(beta*T) lifts b's BElement coefficients to beta polynomials, as the
    compose command does, so composing either way round prints the same."""
    for flags in ((), ("--text",), ("--cap", "4")):
        applied = run("compose", "T", "b(beta*T)", *flags)
        composed = run("compose", "b(T)", "beta*T", *flags)
        assert applied == composed and applied[0] == 0
    assert run("compose", "T", "b(beta*T)", "--cap", "3", "--text")[1] == (
        "beta*T + b[1]*beta^2*T^2 + b[2]*beta^3*T^3 (cap 3)")


def test_series_commands_json_default():
    code, out, _ = run("fgl", "--cap", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["vars"] == 2 and doc["cap"] == 2
    back_code, back_out, _ = run("fgl", "--cap", "2")
    assert back_out == out  # byte stable across runs


@pytest.mark.parametrize("cap", range(1, 8))
def test_the_fdb_group_law_is_the_abelianized_bfk_law(cap):
    """``fgl --structure fdb`` prints the group law over the commutative
    diffeomorphism algebra: coefficient by coefficient, the abelianization of
    the noncommutative law ``cp_infinity_coproduct``."""
    code, out, err = run("fgl", "--structure", "fdb", "--cap", str(cap))
    assert (code, err) == (0, "")
    got = loads(out)
    want = topology.cp_infinity_coproduct(cap)
    assert (got.algebra, got.cap, got.nvars) == (FdBElement, cap, 2)
    assert set(got.terms) <= set(want.terms)
    for k, c in want.terms.items():
        assert got.coefficient(k) == bfk_abelianize(c), k


def test_charnum_and_crn():
    assert run("charnum", "cp", "--dim", "2")[1] == "6*b[1,1] - 3*b[2]"
    assert run("charnum", "cp", "--dim", "2", "--partition", "2")[1] == "-3"
    assert run("crn", "--weight", "2")[1] == "Z[1,1] + Z[2]"
    space = '{"factors":[1],"roots":[[1],[1]]}'
    assert run("charnum", "quasitoric", "--space", space,
               "--composition", "1")[1] == "2"
    assert run("charnum", "quasitoric", "--space", space, "--composition", "1",
               "--convention", "normal")[1] == "-2"


def test_space_file_argument(tmp_path):
    path = tmp_path / "space.json"
    path.write_text('{"factors":[1,1],"roots":[[1,0],[1,0],[0,1],[0,1]]}')
    code, out, _ = run("charnum", "quasitoric", "--space", "@" + str(path),
                       "--composition", "1,1")
    assert (code, out) == (0, "4")


def test_missing_space_file_is_io_error():
    code, _, err = run("charnum", "quasitoric",
                       "--space", "@/no/such/file.json", "--composition", "1")
    assert code == 4 and "error" in err


def test_undecodable_space_file_is_bad_input(tmp_path):
    """A file that is not UTF-8 used to end in a UnicodeDecodeError traceback."""
    path = tmp_path / "space.json"
    path.write_bytes(b"\xff")
    assert run("charnum", "quasitoric", "--space", "@" + str(path), "--composition", "1") == (
        1, "", "error: invalid JSON: 'utf-8' codec can't decode byte 0xff in position 0: "
               "invalid start byte\n")


def test_deep_json_in_a_space_file_is_bad_input(tmp_path):
    """5,000 nested lists used to end in a RecursionError traceback."""
    path = tmp_path / "space.json"
    path.write_text("[" * 5000 + "]" * 5000)
    code, out, err = run("charnum", "quasitoric", "--space", "@" + str(path), "--composition", "1")
    assert (code, out) == (1, "") and err.startswith("error: invalid JSON: maximum recursion")


def test_deep_nesting_is_refused_with_its_bound():
    """300 parentheses or 250 named-series calls used to end in a RecursionError."""
    for argv in (("eval", "(" * 300 + "1" + ")" * 300),
                 ("compose", "e(" * 250 + "T" + ")" * 250, "T")):
        code, out, err = run(*argv)
        assert (code, out) == (2, "") and "Traceback" not in err, argv
        assert err.startswith("error: expression nesting bounded at 100 "), err
    assert run("eval", "(" * 100 + "1" + ")" * 100) == (0, "1", "")


def test_capability_errors_exit_2():
    for degree in ("2", "5"):
        assert run("cobar-rank", "--algebroid", "N.N", "--weight", "3", "--degree", degree) == (
            0, '{"algebroid":"N.N","weight":3,"degree":%s,"rank":0}' % degree, "")
    assert run("cobar-rank", "--algebroid", "S.B", "--weight", "3", "--degree", "6") == (
        0, '{"algebroid":"S.B","weight":3,"degree":6,"rank":0}', "")
    assert run("cobar-rank", "--algebroid", "S.B", "--weight", "21", "--degree", "0") == (
        2, "", "error: cohomology weight bounded at 20 (got 21)\n")
    code, _, err = run("coproduct", "b[1]")
    assert code == 2
    code, _, err = run("crn", "--weight", "30")
    assert code == 2 and "2^29" in err and "131072" in err


def test_syntax_error_reports_column():
    code, _, err = run("eval", "M[1,2")
    assert code == 1
    assert "column 5" in err


def test_usage_errors_exit_1():
    assert run("no-such-command")[0] == 1
    assert run("eval")[0] == 1
    assert run("convert", "e[2]", "--to", "q")[0] == 1
    assert run()[0] == 1


def test_negative_powers_and_unknown_residues_exit_1():
    for argv in (("shift(T,-2)", "2*T"), ("shift(Z(T),-3)", "T")):
        code, out, err = run("compose", *argv, "--cap", "4", "--text")
        assert (code, out) == (1, "") and "negative powers" in err
    code, out, err = run("compose", "residue(shift(Z(T),-6))", "T", "--cap", "4", "--text")
    assert (code, out) == (1, "") and "known only to T^-2" in err
    assert run("compose", "residue(shift(Z(T),-3))", "T", "--cap", "3", "--text") == (
        0, "Z[1] (cap 3)", "")
    # a power of a view knows what the repeated product knows
    for square in ("shift(1+T+T^2+T^3,-2)^2", "shift(1+T+T^2+T^3,-2)*shift(1+T+T^2+T^3,-2)"):
        assert run("compose", "residue(%s)" % square, "T", "--cap", "3", "--text") == (
            0, "4 (cap 3)", "")


def test_help_exits_zero():
    code, out, _ = run("--help")
    assert code == 0 and "COMMAND" in out


def test_verify_counts_suite():
    code, out, _ = run("verify", "--suite", "counts")
    assert code == 0
    assert "checks passed" in out
    assert "FAIL" not in out


def test_verify_failure_exits_3(monkeypatch):
    from hopftower import verify

    def fake(names, weight=None, cap=None):
        return [("forced failure", False, "injected by the test")], False

    monkeypatch.setattr(verify, "run_suites", fake)
    code, out, _ = run("verify", "--suite", "counts")
    assert code == 3
    assert "FAIL" in out


def test_verify_runs_each_named_suite_once_and_all_anywhere_runs_every_suite(monkeypatch):
    """``--suite counts --suite all`` used to run counts and then fail with a
    ``KeyError: 'all'`` traceback, and so did ``--suite all --suite all``."""
    from hopftower import suites
    ran = []

    def fake(name):
        def suite(weight=None, cap=None):
            ran.append(name)
            return [(name, True, "")]
        return suite

    monkeypatch.setattr(suites, "SUITES", {name: fake(name) for name in cli.SUITE_NAMES})
    every = list(cli.SUITE_NAMES)
    for names, want in [(("counts", "all"), every), (("all", "all"), every),
                        (("all", "bfk"), every), ((), every),
                        (("bfk", "counts", "bfk"), ["bfk", "counts"])]:
        ran.clear()
        code, out, err = run("verify", *[word for name in names for word in ("--suite", name)])
        assert (code, err, ran) == (0, "", want)
        assert out == "\n".join(["ok    %s" % name for name in want]
                                 + ["%d/%d checks passed" % (len(want), len(want))])


def test_cli_import_leaves_verify_unloaded():
    script = ("import sys, hopftower.cli\n"
              "assert 'hopftower.verify' not in sys.modules\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=ENV)
    assert proc.returncode == 0, proc.stderr


def test_suite_names_are_the_verify_suites():
    from hopftower import suites
    assert list(cli.SUITE_NAMES) == list(suites.SUITES)


def test_cobar_rank_json():
    code, out, _ = run("cobar-rank", "--algebroid", "S.B",
                       "--weight", "2", "--degree", "0")
    assert (code, out) == (
        0, '{"algebroid":"S.B","weight":2,"degree":0,"rank":1}')


def test_cobar_rank_reaches_weight_20_and_degree_5_for_sb():
    """S.B takes the Chevalley-Eilenberg route; N.N answers every degree too."""
    assert run("cobar-rank", "--algebroid", "S.B", "--weight", "20", "--degree", "2") == (
        0, '{"algebroid":"S.B","weight":20,"degree":2,"rank":5}', "")
    assert run("cobar-rank", "--algebroid", "S.B", "--weight", "12", "--degree", "5") == (
        0, '{"algebroid":"S.B","weight":12,"degree":5,"rank":0}', "")
    assert run("cobar-rank", "--algebroid", "N.N", "--weight", "2", "--degree", "2") == (
        0, '{"algebroid":"N.N","weight":2,"degree":2,"rank":0}', "")


def test_console_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "hopftower", "pair", "h[2,1]", "m[2,1]"],
        capture_output=True, text=True, env=ENV)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "1"
    proc = subprocess.run(
        [sys.executable, "-m", "hopftower", "eval", "M[1,2"],
        capture_output=True, text=True, env=ENV)
    assert proc.returncode == 1
    assert "column 5" in proc.stderr


def test_every_result_goes_through_the_one_writer(monkeypatch):
    """Each invocation that exits 0 calls ``_print`` once, and nothing else
    writes to its stdout; a failing one writes nothing there."""
    from hopftower.verify import DOCUMENTED_INVOCATIONS
    written = []
    real = cli._print

    def recording(value, args, out):
        text = io.StringIO()
        real(value, args, text)
        written.append((out, text.getvalue()))
        out.write(text.getvalue())

    monkeypatch.setattr(cli, "_print", recording)
    calls = [argv for argv, _, _ in DOCUMENTED_INVOCATIONS] + [
        ("pair", "e[1,1]", "m[2]"),
        ("cobar-rank", "--algebroid", "N.N", "--weight", "2", "--degree", "1"),
        ("verify", "--suite", "counts")]
    for argv in calls:
        written.clear()
        out = io.StringIO()
        code = run_command(list(argv), out, io.StringIO())
        mine = [text for stream, text in written if stream is out]
        assert len(mine) == (code == 0), argv
        assert out.getvalue() == "".join(mine), argv


def test_the_readme_table_names_every_option_and_choice():
    """Each subcommand's README row (or rows) names every option and every
    choice its subparser declares."""
    rows = {}
    for line in (ROOT / "README.md").read_text(encoding="utf-8").splitlines():
        row = re.match(r"\| `([a-z-]+)", line)
        if row:
            rows.setdefault(row.group(1), set()).update(re.findall(r"[\w.-]+", line))
    commands = next(a for a in cli.build_parser()._actions if a.dest == "command")
    assert set(rows) == set(commands.choices)
    for name, parser in commands.choices.items():
        for action in parser._actions:
            if action.dest == "help":
                continue
            for word in action.option_strings + [str(c) for c in action.choices or ()]:
                assert word in rows[name], (name, word)


def test_one_parser_serves_every_call(monkeypatch):
    """Reusing the parser changes nothing: errors, repeats and appended
    ``--suite`` lists come out as from a fresh parser."""
    calls = [("eval",), ("crn", "--weight", "x"), ("no-such-command",),
             ("crn", "--weight", "30"), ("eval", "e[1]^2"), ("eval", "e[1]^2"),
             ("verify", "--suite", "counts"), ("verify", "--suite", "topology")]
    fresh = []
    for argv in calls:
        cli._parser.cache_clear()
        fresh.append(run(*argv))
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._parser.cache_clear()
    assert [run(*argv) for argv in calls] == fresh
    assert len(built) == 1
    assert [code for code, _, _ in fresh[:4]] == [1, 1, 1, 2]
    assert all(err for _, _, err in fresh[:4])
    assert fresh[-2][1].endswith("3/3 checks passed")
    assert fresh[-1][1].endswith("8/8 checks passed")


def test_quasitoric_space_entries_must_be_ints():
    for space in ('{"factors":[1.9],"roots":[[1],[1]]}',
                  '{"factors":[1],"roots":[[1.7],[1]]}',
                  '{"factors":["1"],"roots":[[1],[1]]}',
                  '{"factors":[true],"roots":[[1],[1]]}',
                  '{"factors":[1],"roots":[[false],[1]]}'):
        code, out, err = run("charnum", "quasitoric", "--space", space,
                             "--composition", "1")
        assert (code, out) == (1, "") and err.startswith("error:"), space


def test_digits_outside_ascii_are_refused_without_a_traceback():
    """str.isdigit accepts a superscript two, which int() cannot read."""
    code, out, err = run("charnum", "cp", "--dim", "2", "--partition", "²")
    assert (code, out) == (1, "") and err.startswith("error: --partition")
    assert run("eval", "e[²]") == (1, "", "error: unexpected character '²' at column 3\n")
    assert run("eval", "e[1]^²") == (1, "", "error: unexpected character '²' at column 6\n")
    # an Arabic-Indic three, which int() reads as 3, is refused alike
    assert run("eval", "e[٣]")[0] == 1


@pytest.mark.parametrize("argv", [
    ("charnum", "cp", "--dim", "٣"),
    ("log", "--cap", "٣"),
    ("revert", "T+T^2", "--cap", "３"),
    ("crn", "--weight", "٣"),
    ("cobar-rank", "--algebroid", "S.B", "--degree", "0", "--weight", "٣"),
    ("cobar-rank", "--algebroid", "S.B", "--weight", "2", "--degree", "٠"),
    ("verify", "--weight", "٣"),
    ("verify", "--cap", "-٣"),
    ("log", "--cap", "1_0"),
])
def test_integer_options_take_ascii_digits_only(argv):
    """int() reads any Unicode decimal digit, so ``--dim ٣`` used to run as 3."""
    code, out, err = run(*argv)
    assert (code, out) == (1, "")
    assert err.endswith("error: argument %s: invalid int value: %r\n" % (argv[-2], argv[-1]))


@pytest.mark.parametrize("argv, message", [
    (("log", "--cap", "-1"), "error: cap must be at least 1\n"),
    (("charnum", "cp", "--dim", "-1"),
     "error: projective space dimension must be at least 0\n"),
    (("crn", "--weight", "-2"), "error: --weight must be at least 1\n"),
    (("cobar-rank", "--algebroid", "S.B", "--weight", "-1", "--degree", "0"),
     "error: weight must be at least 0\n"),
    (("cobar-rank", "--algebroid", "S.B", "--weight", "2", "--degree", "-1"),
     "error: degree must be at least 0\n"),
    (("cobar-rank", "--algebroid", "S.B", "--weight", "-1", "--degree", "5"),
     "error: weight must be at least 0\n"),
])
def test_negative_integer_options_reach_the_domain_messages(argv, message):
    assert run(*argv) == (1, "", message)


@pytest.mark.parametrize("argv, message", [
    (("verify", "--weight", "-1"), "error: --weight must be at least 0\n"),
    (("verify", "--suite", "hopf-axioms", "--weight", "-1"),
     "error: --weight must be at least 0\n"),
    (("verify", "--cap", "1"), "error: --cap must be at least 2\n"),
    (("verify", "--cap", "0"), "error: --cap must be at least 2\n"),
    (("verify", "--suite", "counts", "--weight", "3", "--cap", "-4"),
     "error: --cap must be at least 2\n"),
])
def test_verify_refuses_sizes_its_suites_cannot_check(monkeypatch, argv, message):
    """A negative weight used to pass hopf-axioms on no elements, and cap 1
    to fail the checks that read T^2 and X*Y; both stop before any suite."""
    from hopftower import verify

    def no_suite(names, weight=None, cap=None):
        raise AssertionError("a suite ran")

    monkeypatch.setattr(verify, "run_suites", no_suite)
    assert run(*argv) == (1, "", message)


@pytest.mark.parametrize("argv", [
    ("verify", "--suite", "hopf-axioms", "--weight", "0"),
    ("verify", "--suite", "topology", "--cap", "2"),
])
def test_verify_runs_at_its_least_sizes(argv):
    code, out, err = run(*argv)
    assert (code, err) == (0, "") and "FAIL" not in out


_COMMANDS = ("'eval', 'coproduct', 'antipode', 'convert', 'pair', 'compose', 'revert', "
             "'log', 'fgl', 'beta', 'cumulant', 'charnum', 'crn', 'cobar-rank', 'verify'")

# help, usage errors and option spellings, as the top-level parser answered
# them when it parsed every invocation first: exit code, stdout, stderr (only
# the first line of stdout for -h and eval -h), at 80 columns
USAGE_BYTES = [
    (("-h",), 0, "usage: hopftower [-h] COMMAND ...", ""),
    (("--help",), 0, """\
usage: hopftower [-h] COMMAND ...

Exact calculator for a tower of combinatorial Hopf algebras and its bordism
applications.

positional arguments:
  COMMAND
    eval      evaluate an element expression
    coproduct
              coproduct (or coaction) of an element
    antipode  antipode of an element
    convert   change basis, apply involutions, or move down the tower
    pair      dual pairing of two elements
    compose   substitute one series into another
    revert    compositional inverse of a series
    log       series logarithm; with no argument, the logarithm of the bordism
              series
    fgl       two-variable addition law of the bordism series
    beta      the beta deformation series
    cumulant  the cumulant series
    charnum   characteristic numbers
    crn       composition-sum invariant of a weight
    cobar-rank
              cohomology rank of the reduced cobar complex
    verify    run property-check suites

options:
  -h, --help  show this help message and exit
""", ""),
    (("eval", "-h"), 0, "usage: hopftower eval [-h] [--json] expr", ""),
    (("convert", "--help"), 0, """\
usage: hopftower convert [-h] [--json] [--to {e,h,p,m,M,t}]
                         [--involution {dual,whitney,omega}] [--integral]
                         expr

positional arguments:
  expr

options:
  -h, --help            show this help message and exit
  --json                print JSON instead of readable text
  --to {e,h,p,m,M,t}
  --involution {dual,whitney,omega}
  --integral            fail instead of introducing denominators
""", ""),
    (("verify", "--help"), 0, """\
usage: hopftower verify [-h]
                        [--suite {antipode,bfk,cli-roundtrip,comodule-algebroid,counts,duality,hopf-axioms,topology,all}]
                        [--weight WEIGHT] [--cap CAP]

options:
  -h, --help            show this help message and exit
  --suite {antipode,bfk,cli-roundtrip,comodule-algebroid,counts,duality,hopf-axioms,topology,all}
  --weight WEIGHT
  --cap CAP
""", ""),
    (("charnum", "-h"), 0, """\
usage: hopftower charnum [-h] [--json] [--dim DIM] [--partition PARTITION]
                         [--space SPACE] [--composition COMPOSITION]
                         [--convention {tangent,normal}]
                         {cp,quasitoric}

positional arguments:
  {cp,quasitoric}

options:
  -h, --help            show this help message and exit
  --json                print JSON instead of readable text
  --dim DIM
  --partition PARTITION
  --space SPACE         inline JSON or @file
  --composition COMPOSITION
  --convention {tangent,normal}
""", ""),
    (("eval", "--", "-h"), 1, "",
     "error: expected '[' after generator letter at column 2\n"),
    (("crn", "--weight"), 1, "",
     "hopftower crn: error: argument --weight: expected one argument\n"),
    (("crn", "--weight=3"), 0, "Z[1,1,1] + Z[1,2] + Z[2,1] + Z[3]\n", ""),
    (("cobar-rank", "--algebroid=S.B", "--weight", "2", "--degree", "1"), 0,
     '{"algebroid":"S.B","weight":2,"degree":1,"rank":1}\n', ""),
    (("eval", "--js", "e[1]"), 0,
     '{"algebra":"sym","basis":"e","terms":[{"index":[1],"coeff":"1"}]}\n', ""),
    (("log", "--ca", "3"), 0,
     '{"algebra":"bpoly","cap":3,"vars":1,"series":[{"power":1,"terms":'
     '[{"index":[],"coeff":"1"}]},{"power":2,"terms":[{"index":[1],"coeff":"-1"}]},'
     '{"power":3,"terms":[{"index":[1,1],"coeff":"2"},{"index":[2],"coeff":"-1"}]}]}\n',
     ""),
    ((), 1, "", "hopftower: error: the following arguments are required: COMMAND\n"),
    (("nosuch",), 1, "", "hopftower: error: argument COMMAND: invalid choice: "
                         "'nosuch' (choose from %s)\n" % _COMMANDS),
    (("ev", "e[1]"), 1, "", "hopftower: error: argument COMMAND: invalid choice: "
                            "'ev' (choose from %s)\n" % _COMMANDS),
    (("eval",), 1, "", "hopftower eval: error: the following arguments are required: expr\n"),
    (("eval", "e[1]", "extra"), 1, "", "hopftower: error: unrecognized arguments: extra\n"),
    (("eval", "--bogus", "e[1]"), 1, "",
     "hopftower: error: unrecognized arguments: --bogus\n"),
    (("--json", "eval", "e[1]"), 1, "", "hopftower: error: unrecognized arguments: --json\n"),
    (("eval", "e[1]", "--json", "extra"), 1, "",
     "hopftower: error: unrecognized arguments: extra\n"),
    (("convert", "--to", "e", "e[1]", "--to", "h"), 0, "h[1]\n", ""),
]


@pytest.mark.parametrize("argv, code, stdout, stderr", USAGE_BYTES)
def test_help_and_usage_errors_keep_their_bytes(monkeypatch, argv, code, stdout, stderr):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal
    out, err = io.StringIO(), io.StringIO()
    got = run_command(list(argv), out, err)
    printed = out.getvalue()
    if argv in (("-h",), ("eval", "-h")):
        printed = printed.splitlines()[0]
    assert (got, printed, err.getvalue()) == (code, stdout, stderr)


def test_an_invocation_that_starts_with_a_command_is_parsed_once(monkeypatch):
    """Every pinned row but ``verify`` goes straight to its command's
    subparser: one ``parse_known_args`` call, and no top-level pass."""
    calls = []
    parse = argparse.ArgumentParser.parse_known_args
    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args",
                        lambda self, *a, **k: calls.append(self.prog) or parse(self, *a, **k))
    rows = [row for row in DOCUMENTED_INVOCATIONS if row[0][0] != "verify"]
    assert len(rows) > 100
    for argv, stdout, code in rows:
        calls.clear()
        got, out, _ = run(*argv)
        assert got == code and stdout in (None, out), argv
        assert calls == ["hopftower " + argv[0]], argv
