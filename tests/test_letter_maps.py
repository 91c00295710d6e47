"""The letter maps that ``linear.on_words`` extends are the registry's maps.

The bordism antipode reads its closed form: b_n goes to ``topology.chi_b(n)``,
the T^(n+1) coefficient of the logarithm, and a monomial to the product of its
letters' images, with no call to the diffeomorphism antipode.  A registry row
whose ``gen`` column is set carries the letter map its coproduct extends; the
fast cobar and Chevalley-Eilenberg routes of ``algebroid`` read it as
``base_gen`` and ``hopf_gen``, so each letter map, extended over words, must
be its row's coproduct.
"""

import io

import pytest

from hopftower import cli, diffeo, structures
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


GENERATED = [label for label, row in structures.STRUCTURES.items() if row.gen is not None]


def test_the_algebroid_rows_carry_letter_maps():
    assert GENERATED == ["fdb", "bfk", "sym-fdb-coaction"]


@pytest.mark.parametrize("label", GENERATED)
def test_each_letter_map_is_its_registry_row(label):
    row = structures.STRUCTURES[label]
    algebra = structures.ALGEBRAS[row.algebra]
    for w in range(WEIGHT + 1):
        for idx in algebra.indices(w):
            x = algebra.element({idx: 1})
            assert on_words(x, row.gen) == row.coproduct(x), (label, idx)
