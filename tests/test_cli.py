"""Command-line behavior: outputs, exit codes, stream handling."""

import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from hopftower import cli
from hopftower.cli import run_command

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


def test_capability_errors_exit_2():
    for degree in ("2", "5"):
        assert run("cobar-rank", "--algebroid", "S.B", "--weight", "3", "--degree", degree) == (
            2, "", "error: cohomology degree %s not supported (only 0 and 1)\n" % degree)
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
    assert fresh[-1][1].endswith("7/7 checks passed")


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
    (("charnum", "cp", "--dim", "-1"), "error: projective space dimension must be >= 0\n"),
    (("crn", "--weight", "-2"), "error: --weight must be at least 1\n"),
    (("cobar-rank", "--algebroid", "S.B", "--weight", "-1", "--degree", "0"),
     "error: negative weight\n"),
    (("cobar-rank", "--algebroid", "S.B", "--weight", "2", "--degree", "-1"),
     "error: negative degree\n"),
    (("cobar-rank", "--algebroid", "S.B", "--weight", "-1", "--degree", "5"),
     "error: negative weight\n"),
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
