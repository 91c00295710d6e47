"""The front end's single walks: one evaluator for elements and series, one
printer for every command, one series writer that refuses ``shift`` views."""

import io
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopftower import structures
from hopftower.cli import run_command
from hopftower.errors import DomainError
from hopftower.expr import parse_series
from hopftower.jsonio import document_for, dumps, loads
from hopftower.linear import SparseSum
from hopftower.nsym import z_series
from hopftower.series import TruncatedSeries


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run_command(list(argv), out, err)
    return code, out.getvalue().rstrip("\n"), err.getvalue()


# -- the evaluator's two modes ----------------------------------------------

@st.composite
def _elements(draw):
    """A nonzero element of a registry algebra, drawn as
    ``suites._random_element`` draws one: 1-4 terms of weight 1-6 with
    coefficients n/d, 0 < |n| <= 9 and 1 <= d <= 9, a sym letter naming the
    basis."""
    alg = structures.ALGEBRAS[draw(st.sampled_from(sorted(structures.ALGEBRAS)))]
    letter = draw(st.sampled_from(alg.letters)) if len(alg.letters) > 1 else None
    terms = {}
    for _ in range(draw(st.integers(1, 4))):
        idx = draw(st.sampled_from(alg.indices(draw(st.integers(1, 6)))))
        num = draw(st.integers(-9, 9).filter(bool))
        terms[idx] = terms.get(idx, 0) + Fraction(num, draw(st.integers(1, 9)))
    terms = {k: v for k, v in terms.items() if v} or {(1,): Fraction(1)}
    return alg.element(terms, letter)


_scalars = st.fractions(min_value=-20, max_value=20, max_denominator=12)


@settings(max_examples=150, deadline=None)
@given(st.one_of(_elements(), _scalars), st.integers(0, 4))
def test_a_printed_value_parses_as_its_constant_series(x, cap):
    algebra = Fraction if isinstance(x, Fraction) else type(x)
    assert parse_series(str(x), cap) == TruncatedSeries(algebra, {0: x}, cap)


def test_a_family_error_fires_before_any_power(monkeypatch):
    calls = []
    power = SparseSum.__pow__

    def counted(self, n):
        calls.append(n)
        return power(self, n)

    monkeypatch.setattr(SparseSum, "__pow__", counted)
    code, out, err = run("eval", "e[1]^100000 + Z[1]")
    assert (code, out) == (1, "")
    assert "belongs to nsym but the expression is over sym at column 15" in err
    assert calls == []
    # the counter sees the powers that are formed
    assert run("eval", "e[1]^3")[:2] == (0, "e[1,1,1]")
    assert calls == [3]


# -- one printer --------------------------------------------------------------

def test_antipode_json_names_the_chosen_structure():
    code, out, _ = run("antipode", "--structure", "bfk", "--json", "Z[2]")
    assert code == 0
    assert json.loads(out)["structure"] == "bfk"
    # the default structure keeps its bytes
    assert run("antipode", "--json", "Z[2]")[1] == (
        '{"algebra":"nsym","structure":"binomial","terms":'
        '[{"index":[1,1],"coeff":"1"},{"index":[2],"coeff":"-1"}]}')
    assert run("antipode", "--structure", "binomial", "--json", "Z[2]")[1] == \
        run("antipode", "--json", "Z[2]")[1]


def test_each_command_prints_as_its_own_flag_asks():
    assert run("eval", "e[1]*e[1]") == (0, "e[1,1]", "")
    assert run("eval", "--json", "2") == (
        0, '{"algebra":"scalar","terms":[{"index":[],"coeff":"2"}]}', "")
    assert run("compose", "T+T^2", "T", "--cap", "2", "--text") == (
        0, "T + T^2 (cap 2)", "")
    assert run("compose", "T", "T", "--cap", "1")[1] == (
        '{"algebra":"scalar","cap":1,"vars":1,"series":[{"power":1,"coeff":"1"}]}')
    assert run("coproduct", "--text", "e[1]") == (0, "1 (x) e[1] + e[1] (x) 1", "")


# -- the series writer refuses views -------------------------------------------

@pytest.mark.parametrize("view", [
    z_series(4).shift(-3),                              # negative powers
    TruncatedSeries(Fraction, {1: 1}, 4).shift(-8),     # cap -4, no terms
    TruncatedSeries(Fraction, {1: 1, 3: 2}, 4).shift(-3),
], ids=["negative-powers", "negative-cap", "scalar-negative-power"])
def test_a_shift_view_is_refused_when_written(view):
    with pytest.raises(DomainError, match="shift view .* has no document"):
        document_for(view)


@pytest.mark.parametrize("k", [-1, 2])
def test_a_shift_to_a_power_series_round_trips(k):
    s = z_series(4).shift(k)
    back = loads(dumps(document_for(s)))
    assert back == s and back.cap == s.cap
