"""The verify suites report the first failing case, not the last."""

from hopftower import verify


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
