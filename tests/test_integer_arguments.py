"""Every integer argument is refused through ``indices.natural``.

A size a caller passes must be an ``int``: a ``bool`` used to run as 0 or 1
(``compositions_of(True)`` gave ``((1,),)``), a float to reach ``range`` and
raise a raw ``TypeError``, or to be read as its ``int`` (``coface(S.B, x,
0.5)`` ran as coface 1).  Each row names the argument's message, its least
legal value and a call that takes the argument alone.
"""

import re
from argparse import Namespace
from fractions import Fraction

import pytest

from hopftower import algebroid, cli, indices, qsym, sym, topology, verify
from hopftower.errors import DomainError
from hopftower.linear import Polynomial
from hopftower.series import TruncatedSeries, generator_series
from hopftower.sym import e
from hopftower.topology import BElement, BetaPolynomial, ProjectiveProductSpace


def _verify(monkeypatch, weight=None, cap=None):
    """``hopftower verify`` with these sizes, its suites replaced by none."""
    monkeypatch.setattr(verify, "run_suites", lambda names, weight, cap: ([], True))
    return cli._cmd_verify(Namespace(suite=["counts"], weight=weight, cap=cap))


def _not_an_int(what, bad):
    return "^%s$" % re.escape("%s must be an int, not %r" % (what, bad))


def _series():
    return TruncatedSeries(Fraction, {0: 1, 1: 1, 2: 1}, 4)


# (label, message name, least legal value, call on the argument); a least of
# None marks an argument that takes every int
ROWS = [
    ("compositions_of", "weight", 0, indices.compositions_of),
    ("partitions_of", "weight", 0, indices.partitions_of),
    ("SparseSum.__pow__", "exponent", 0, lambda n: e(1) ** n),
    ("TruncatedSeries cap", "cap", 0, lambda n: TruncatedSeries(Fraction, {0: 1}, n)),
    ("TruncatedSeries.shift", "shift", None, lambda n: _series().shift(n)),
    ("TruncatedSeries.truncate", "cap", None, lambda n: _series().truncate(n)),
    ("generator_series", "cap", 0, lambda n: generator_series(BElement, n)),
    ("sym.e_series", "cap", 0, sym.e_series),
    ("sym.expand", "nvars", 1, lambda n: sym.expand(e(1), n)),
    ("qsym.expand_ordered", "nvars", 0, lambda n: qsym.expand_ordered(qsym.M(1), n)),
    ("miscenko_log", "cap", 1, topology.miscenko_log),
    ("fgl", "cap", 1, topology.fgl),
    ("beta_series", "cap", 1, topology.beta_series),
    ("cumulant_series", "cap", 1, topology.cumulant_series),
    ("cp_infinity_coproduct", "cap", 1, topology.cp_infinity_coproduct),
    ("chi_b", "weight", 0, topology.chi_b),
    ("cp_hurewicz", "projective space dimension", 0, topology.cp_hurewicz),
    ("cp_char_number", "projective space dimension", 0,
     lambda n: topology.cp_char_number(n, ())),
    ("cp_char_number_oracle", "projective space dimension", 0,
     lambda n: topology.cp_char_number_oracle(n, ())),
    ("crn_invariant", "weight", 1, topology.crn_invariant),
    ("BetaPolynomial power", "a power of beta", 0, lambda n: BetaPolynomial({n: 1})),
    ("ProjectiveProductSpace factor", "a factor dimension", 1,
     lambda n: ProjectiveProductSpace([n], [[1]])),
    ("cohomology_rank weight", "weight", 0,
     lambda n: algebroid.cohomology_rank("S.B", n, 0)),
    ("cohomology_rank degree", "degree", 0,
     lambda n: algebroid.cohomology_rank("S.B", 2, n)),
    ("cohomology_rank weight_bound", "weight_bound", 0,
     lambda n: algebroid.cohomology_rank("S.B", 0, 0, weight_bound=n)),
    ("differential_rows weight", "weight", 0,
     lambda n: algebroid.differential_rows(algebroid.SB, n, 0)),
    ("differential_rows degree", "degree", 0,
     lambda n: algebroid.differential_rows(algebroid.SB, 2, n)),
    ("differential_matrix weight", "weight", 0,
     lambda n: algebroid.differential_matrix(algebroid.SB, n, 0)),
    ("differential_matrix degree", "degree", 0,
     lambda n: algebroid.differential_matrix(algebroid.SB, 2, n)),
    ("coface", "coface index", 0, lambda n: algebroid.coface(algebroid.SB, e(1), n)),
    ("Polynomial nvars", "nvars", 0, lambda n: Polynomial(n, {})),
    ("crn --weight", "--weight", 1, lambda n: cli._cmd_crn(Namespace(weight=n))),
]
CLI_ROWS = [("verify --weight", "--weight", 0, "weight"), ("verify --cap", "--cap", 2, "cap")]


@pytest.mark.parametrize("bad", [1.5, True, "3"], ids=["float", "bool", "str"])
@pytest.mark.parametrize("label, what, least, call", ROWS, ids=[r[0] for r in ROWS])
def test_an_integer_argument_that_is_not_an_int_is_refused(label, what, least, call, bad):
    with pytest.raises(DomainError, match=_not_an_int(what, bad)):
        call(bad)


BOUNDED = [r for r in ROWS if r[2] is not None]


@pytest.mark.parametrize("label, what, least, call", BOUNDED, ids=[r[0] for r in BOUNDED])
def test_an_integer_argument_below_its_least_is_refused(label, what, least, call):
    with pytest.raises(DomainError, match="^%s must be at least %d$" % (what, least)):
        call(least - 1)


@pytest.mark.parametrize("label, what, least, call", ROWS, ids=[r[0] for r in ROWS])
def test_the_least_legal_value_runs(label, what, least, call):
    call(-3 if least is None else least)


@pytest.mark.parametrize("bad", [1.5, True, "3"], ids=["float", "bool", "str"])
@pytest.mark.parametrize("label, what, least, size", CLI_ROWS, ids=[r[0] for r in CLI_ROWS])
def test_a_verify_size_that_is_not_an_int_is_refused(monkeypatch, label, what, least,
                                                     size, bad):
    with pytest.raises(DomainError, match=_not_an_int(what, bad)):
        _verify(monkeypatch, **{size: bad})
    with pytest.raises(DomainError, match="^%s must be at least %d$" % (what, least)):
        _verify(monkeypatch, **{size: least - 1})
    assert _verify(monkeypatch, **{size: least}) == "0/0 checks passed"


def test_a_weight_bound_of_none_is_refused():
    with pytest.raises(DomainError, match=_not_an_int("weight_bound", None)):
        algebroid.cohomology_rank("S.B", 1, 0, weight_bound=None)


def test_a_bool_weight_is_refused_after_the_int_is_cached():
    """``lru_cache`` keys ``True`` apart from 1, so the check still runs."""
    assert indices.compositions_of(1) == ((1,),)
    with pytest.raises(DomainError, match="weight must be an int, not True"):
        indices.compositions_of(True)
