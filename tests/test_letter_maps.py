"""The letter maps that ``linear.on_words`` extends are the registry's maps.

The bordism antipode reads its closed form: b_n goes to ``topology.chi_b(n)``,
the T^(n+1) coefficient of the logarithm, and a monomial to the product of its
letters' images, with no call to the diffeomorphism antipode.  The fast cobar
and Chevalley-Eilenberg routes of ``algebroid`` read ``base_gen`` and
``hopf_gen`` of each algebroid, so each letter map, extended over words, must
be the coaction and the coproduct of the registry rows the algebroid names.
"""

import io

import pytest

from hopftower import cli, diffeo
from hopftower.algebroid import ALGEBROIDS
from hopftower.linear import on_words

WEIGHT = 6


def test_the_bpoly_antipode_answers_without_the_diffeomorphism_antipode(monkeypatch):
    def refuse(f):
        raise AssertionError("the relabelled diffeomorphism antipode was called")

    monkeypatch.setattr(diffeo, "fdb_antipode", refuse)
    monkeypatch.setattr(diffeo, "_fdb_antipode_gen", refuse)
    out, err = io.StringIO(), io.StringIO()
    assert cli.run_command(["antipode", "--", "b[2,1]"], out, err) == 0
    assert (out.getvalue(), err.getvalue()) == ("-2*b[1,1,1] + b[2,1]\n", "")


@pytest.mark.parametrize("name", sorted(ALGEBROIDS))
def test_each_letter_map_is_its_registry_row(name):
    alg = ALGEBROIDS[name]
    for w in range(WEIGHT + 1):
        for idx in alg.base_indices(w):
            x = alg.base_element(idx)
            assert on_words(x, alg.base_gen) == alg.coaction(x), (name, idx)
        for idx in alg.h_indices(w):
            x = alg.hopf_element(idx)
            assert on_words(x, alg.hopf_gen) == alg.h_coproduct(x), (name, idx)
