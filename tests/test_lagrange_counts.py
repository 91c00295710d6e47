"""The one count over partitions, and the closed-form readers of the
reverted generic series.

``indices.power_count(a, lam)`` is the coefficient of g_lam in
(1 + g_1 T + g_2 T^2 + ...)^a over a commutative algebra, and
``series.reverted_power`` turns it, by Lagrange inversion, into the
coefficients of the powers of the compositional inverse of T + g_1 T^2 + ...
Both are checked here against series arithmetic, and each reader of them
against the route it replaced: ``sym._antipode_e_gen`` against the
alternating sum over compositions, the Faa di Bruno antipode against
reversion, the beta series against ``exp`` of the lifted logarithm.  A
projective-space number is one count, so it enumerates no partitions.
"""

import io
from collections import Counter
from fractions import Fraction
from math import comb, factorial, prod

import pytest

from hopftower import diffeo, sym, topology
from hopftower.cli import run_command
from hopftower.diffeo import FdBElement, t_series
from hopftower.errors import DomainError
from hopftower.indices import compositions_of, partitions_of, power_count
from hopftower.series import TruncatedSeries, generator_series, reverted_power
from hopftower.sym import SymElement
from hopftower.topology import BElement, BetaPolynomial, b_series

CAP = 10


def test_the_count_is_the_coefficient_of_a_power_of_the_series():
    """[T^r] (1 + G)^a for -12 <= a <= 12 and r <= 10, G = b_1 T + b_2 T^2 +
    ..., from series products, with ``invert`` for the negative powers; the
    count is an ``int`` for every power."""
    one_plus_g = b_series(CAP + 1).shift(-1)
    assert one_plus_g.cap == CAP and one_plus_g.coefficient(0) == BElement.one()
    for step in (one_plus_g, one_plus_g.invert()):
        sign = 1 if step is one_plus_g else -1
        power = TruncatedSeries(BElement, {0: 1}, CAP)
        for size in range(13):
            a = sign * size
            for r in range(CAP + 1):
                counts = {lam: power_count(a, lam) for lam in partitions_of(r)}
                assert all(type(c) is int for c in counts.values())
                assert power.coefficient(r) == BElement(counts), (a, r)
            power = power * step


def test_the_count_equals_the_multiplicity_formula():
    """(a)_l / prod_i m_i!, the multiplicities taken by ``Counter``, on every
    partition of weight <= 20 at powers from -21 to 21."""
    for w in range(21):
        for lam in partitions_of(w):
            denominator = prod(map(factorial, Counter(lam).values()))
            for a in (-21, -w - 1, -7, -1, 0, 1, 2, 5, w, 21):
                assert power_count(a, lam) == prod(range(a, a - len(lam), -1)) // denominator


@pytest.mark.parametrize("cls", [BElement, FdBElement])
def test_lagrange_counts_the_powers_of_the_reverted_series(cls):
    """[T^n] r^k of the reverted generic series, 1 <= k <= n <= 12, equals
    [T^n] of the k-th power of ``revert``."""
    reverted = generator_series(cls, 12).revert()
    power = reverted
    for k in range(1, 13):
        for n in range(k, 13):
            closed = reverted_power(cls, n, k)
            assert type(closed) is cls
            assert all(type(c) is int for c in closed.terms.values())
            assert closed == power.coefficient(n), (k, n)
        power = power * reverted


def test_the_beta_series_equals_exp_of_beta_times_the_logarithm():
    for cap in range(1, 9):
        lifted = topology.miscenko_log(cap).map_coefficients(
            lambda el: BetaPolynomial({1: el}), algebra=BetaPolynomial)
        assert topology.beta_series(cap) == lifted.exp(), cap


def test_the_logarithm_is_the_reverted_orientation_series():
    for cap in range(1, 13):
        assert topology.miscenko_log(cap) == b_series(cap).revert(), cap


def test_the_readers_of_the_reverted_series_do_no_series_arithmetic(monkeypatch):
    """The logarithm, chi(b_n), the beta series and the antipode of t_n
    (their memos bypassed) reach no reversion, composition, exponential,
    series product or coefficient map."""
    def refuse(*args, **kwargs):
        raise AssertionError("series arithmetic")

    for name in ("revert", "compose", "exp", "__mul__", "map_coefficients"):
        monkeypatch.setattr(TruncatedSeries, name, refuse)
    assert topology.miscenko_log.__wrapped__(9).coefficient(9) == topology.chi_b(8)
    assert topology.beta_series(9).coefficient(9).terms[9] == BElement({(): Fraction(1, 362880)})
    assert diffeo._fdb_antipode_gen.__wrapped__(8).terms[(1,) * 8] == 1430


def test_generator_images_equal_the_routes_they_replaced():
    """Up to weight 10: the antipode of e_n is the alternating sum of e_I over
    the compositions I of n, and the antipode of t_n is the T^(n+1)
    coefficient of the reverted generic diffeomorphism."""
    for n in range(11):
        alternating = Counter()
        for composition in compositions_of(n):
            alternating[tuple(sorted(composition, reverse=True))] += (-1) ** len(composition)
        assert sym._antipode_e_gen(n) == SymElement(dict(alternating), "e"), n
        assert diffeo._fdb_antipode_gen(n) == t_series(n + 1).revert().coefficient(n + 1), n


def test_a_projective_number_enumerates_no_partitions(monkeypatch):
    real = topology.partitions_of

    def small_only(n):
        if n > 30:
            raise AssertionError("enumerated the partitions of %d" % n)
        return real(n)

    monkeypatch.setattr(topology, "partitions_of", small_only)
    assert topology.cp_char_number(200, (200,)) == -201
    assert topology.cp_char_number(200, (1,) * 200) == comb(400, 200)
    with pytest.raises(DomainError, match="^partition weight 199 does not match "
                                          "dimension 200$"):
        topology.cp_char_number(200, (100, 99))


def test_the_cli_prints_a_projective_number_at_dimension_200():
    out, err = io.StringIO(), io.StringIO()
    assert run_command(["charnum", "cp", "--dim", "200", "--partition", "200"], out, err) == 0
    assert (out.getvalue(), err.getvalue()) == ("-201\n", "")
