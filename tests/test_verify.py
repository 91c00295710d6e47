"""The verify suites load on first use and report the first failing case,
not the last."""

import subprocess
import sys

from hopftower import verify


def test_import_leaves_verify_unloaded():
    script = ("import sys, hopftower\n"
              "assert 'hopftower.verify' not in sys.modules\n"
              "assert callable(hopftower.run_suites)\n"
              "from hopftower import *\n"
              "assert run_suites is sys.modules['hopftower.verify'].run_suites\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_duality_reports_the_first_failing_pair(monkeypatch):
    real_pair = verify.pair
    broken = {((1,), (1,)), ((2,), (2,))}

    def pair(x, y):
        got = real_pair(x, y)
        if (*x.terms, *y.terms) in broken:
            return got + 1
        return got

    monkeypatch.setattr(verify, "pair", pair)
    records = verify.suite_duality(weight=2)
    label, ok, detail = records[0]
    assert label.startswith("basis pairing is delta")
    assert not ok
    assert detail == "fails on %r" % (((1,), (1,)),)


def test_topology_reports_the_first_failing_projective_number(monkeypatch):
    real = verify.topology.cp_char_number
    broken = {(1, (1,)), (3, (3,))}

    def cp_char_number(n, lam):
        got = real(n, lam)
        return got + 1 if (n, tuple(lam)) in broken else got

    monkeypatch.setattr(verify.topology, "cp_char_number", cp_char_number)
    records = verify.suite_topology(weight=2, cap=2)
    label, ok, detail = records[1]
    assert label.startswith("projective-space numbers")
    assert not ok
    assert detail == "fails on %r" % ((1, (1,)),)
