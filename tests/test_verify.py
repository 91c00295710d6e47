"""The verify suites load on first use, make every record through one check
runner, and report the first failing case, not the last."""

import os
import subprocess
import sys
from pathlib import Path

from hopftower import suites
from hopftower.verify import run_suites

# the child interpreter imports the package from this checkout
ENV = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))


def test_import_leaves_verify_unloaded():
    script = ("import sys, hopftower\n"
              "assert 'hopftower.verify' not in sys.modules\n"
              "assert callable(hopftower.run_suites)\n"
              "from hopftower import *\n"
              "assert run_suites is sys.modules['hopftower.verify'].run_suites\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=ENV)
    assert proc.returncode == 0, proc.stderr


def test_duality_reports_the_first_failing_pair(monkeypatch):
    real_pair = suites.pair
    broken = {((1,), (1,)), ((2,), (2,))}

    def pair(x, y):
        got = real_pair(x, y)
        if (*x.terms, *y.terms) in broken:
            return got + 1
        return got

    monkeypatch.setattr(suites, "pair", pair)
    records = suites.suite_duality(weight=2)
    label, ok, detail = records[0]
    assert label.startswith("basis pairing is delta")
    assert not ok
    assert detail == "fails on %r" % (((1,), (1,)),)


def test_topology_reports_the_first_failing_projective_number(monkeypatch):
    real = suites.topology.cp_char_number
    broken = {(1, (1,)), (3, (3,))}

    def cp_char_number(n, lam):
        got = real(n, lam)
        return got + 1 if (n, tuple(lam)) in broken else got

    monkeypatch.setattr(suites.topology, "cp_char_number", cp_char_number)
    records = suites.suite_topology(weight=2, cap=2)
    label, ok, detail = records[1]
    assert label.startswith("projective-space numbers")
    assert not ok
    assert detail == "fails on %r" % ((1, (1,)),)


def test_cli_roundtrip_reports_the_first_broken_invocation(monkeypatch):
    rows = [(("eval", "e[1]*e[1]"), "e[1,1]", 0),
            (("eval", "Z[2]*Z[1]"), "Z[1,2]", 0),
            (("eval", "e[2,1]^2"), "e[2,1]", 0)]
    monkeypatch.setattr(suites, "DOCUMENTED_INVOCATIONS", rows)
    label, ok, detail = suites.suite_cli_roundtrip()[1]
    assert label == ("documented invocations: 3 commands, "
                     "pinned output and exit codes")
    assert not ok
    assert detail == "%s -> got %r" % (rows[1][0], "Z[2,1]")


def test_the_pinned_verify_rows_are_not_replayed(monkeypatch):
    """The cli-roundtrip suite runs each pinned row once and replays it for
    byte stability, except the ``verify`` rows, whose reports come from this
    process's own suites: beside its own run, hopf-axioms runs once more."""
    runs = []
    real = suites.SUITES["hopf-axioms"]

    def hopf_axioms(**kwargs):
        runs.append(kwargs)
        return real(**kwargs)

    monkeypatch.setitem(suites.SUITES, "hopf-axioms", hopf_axioms)
    records, ok = run_suites(["hopf-axioms", "cli-roundtrip"])
    assert ok, [r for r in records if not r[1]]
    assert runs == [{"weight": None, "cap": None}, {"weight": 6, "cap": None}]


def test_every_record_comes_from_the_check_runner(monkeypatch):
    made = []
    real = suites._check

    def check(*args, **kwargs):
        made.append(real(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(suites, "_check", check)
    for name, suite in suites.SUITES.items():
        if name == "cli-roundtrip":
            continue
        records = suite(weight=2, cap=2)
        assert records
        for record in records:
            assert any(record is m for m in made), (name, record)


def test_check_fills_the_count_literally():
    record = suites._check("toy{1} 100% (weight <= 2, {count} elements)",
                           ((n, n < 3) for n in range(5)))
    assert record == ("toy{1} 100% (weight <= 2, 4 elements)", False, "fails on 3")
