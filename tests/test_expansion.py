"""Literal expansion of symmetric functions in any number of variables.

``sym.expand`` reads each basis through QSym (``qsym.expand_ordered``).  In
n variables the expansion is the one in n + 1 variables with x_{n+1} = 0,
and it warns exactly when n is below the weight, where distinct functions
can expand alike.
"""

import warnings

import pytest

from hopftower import sym
from hopftower.errors import DomainError
from hopftower.indices import partitions_of
from hopftower.qsym import M, expand_ordered
from hopftower.sym import SymElement, e


def _expand(f, nvars):
    """The expansion and whether it warned that it loses information."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        poly = sym.expand(f, nvars)
    return poly, any("loses information" in str(w.message) for w in caught)


@pytest.mark.parametrize("basis", sym.BASES)
def test_fewer_variables_set_the_last_to_zero(basis):
    for w in range(7):
        for lam in partitions_of(w):
            f = SymElement({lam: 1}, basis)
            for n in range(1, w + 2):
                poly, warned = _expand(f, n)
                wider, _ = _expand(f, n + 1)
                assert poly == {key[:-1]: c for key, c in wider.items() if key[-1] == 0}, (lam, n)
                assert warned == (n < w), (lam, n)


@pytest.mark.parametrize("nvars", [2.5, True, False, "2", None, 0, -1])
def test_expand_refuses_a_count_that_is_not_a_positive_int(nvars):
    with pytest.raises(DomainError):
        sym.expand(e(1), nvars)


@pytest.mark.parametrize("nvars", [2.5, True, "2", None, -1])
def test_expand_ordered_refuses_a_count_that_is_not_a_nonnegative_int(nvars):
    with pytest.raises(DomainError):
        expand_ordered(M(1), nvars)


def test_expand_ordered_in_no_variables_keeps_the_constant():
    assert expand_ordered(M() + M(1).scale(2), 0) == {(): 1}
