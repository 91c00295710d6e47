"""Refusals that no other test reaches in process, each with its message.

A CLI refusal exits 1 through ``run_command`` with ``error: <message>`` on
stderr and nothing on stdout; a series refusal raises ``DomainError``.
"""

import io
from fractions import Fraction

import pytest

from hopftower import cli
from hopftower.errors import DomainError
from hopftower.nsym import z_series
from hopftower.series import TruncatedSeries


def _bivariate():
    return TruncatedSeries(Fraction, {(0, 1): 1, (1, 0): 1}, 3, 2)


CASES = [
    ("charnum cp needs --dim", ("charnum", "cp")),
    ("charnum quasitoric needs --space and --composition", ("charnum", "quasitoric")),
    ("reversion requires commutative coefficients", lambda: z_series(3).revert()),
    ("reversion needs a univariate series", lambda: _bivariate().revert()),
    ("residue is univariate only", lambda: _bivariate().residue()),
    ("shift is univariate only", lambda: _bivariate().shift(1)),
    ("alternate is univariate only", lambda: _bivariate().alternate()),
]


@pytest.mark.parametrize("message, call", CASES, ids=[m for m, _ in CASES])
def test_each_refusal_says_what_it_refuses(message, call):
    if isinstance(call, tuple):
        out, err = io.StringIO(), io.StringIO()
        assert cli.run_command(list(call), out, err) == 1
        assert (out.getvalue(), err.getvalue()) == ("", "error: %s\n" % message)
    else:
        with pytest.raises(DomainError) as exc:
            call()
        assert str(exc.value) == message
