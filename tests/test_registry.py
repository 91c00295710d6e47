"""The registry of algebras and Hopf structures that every module reads."""

import io
import json
from functools import partial

from hopftower import cli, linear, structures, suites
from hopftower.algebroid import ALGEBROIDS
from hopftower.expr import parse_element
from hopftower.indices import partitions_of
from hopftower.jsonio import document_for, dumps, from_document


def test_registry_rows_are_the_tower():
    algebras = structures.ALGEBRAS
    assert list(algebras) == ["sym", "nsym", "qsym", "fdb", "bpoly"]
    assert {x for row in algebras.values() for x in row.letters} == set("ehpmZMtb")
    assert {x for row in algebras.values() for x in row.series} == set("ehtZb")
    checked = [(label, st.bound) for label, st in structures.STRUCTURES.items()
               if st.bound is not None]
    assert checked == [("sym-binomial", 7), ("nsym-binomial", 7), ("qsym", 6),
                       ("fdb", 6), ("bfk", 6)]
    assert set(ALGEBROIDS) == {"S.B", "N.N"}


class YElement(linear.CommutativeElement):
    """A toy polynomial algebra on y_1, y_2, ... with a grouplike generator series."""

    LETTER = "y"
    __slots__ = ()


# letter maps are module-level, so the word-image memo of on_words hits
_y_coproduct_gen = partial(linear.binomial_gen, YElement)


def _y_antipode_gen(n):
    return linear.recursive_antipode(linear.binomial_gen(YElement, n),
                                     lambda i: y_antipode(YElement({i: 1})))


def y_coproduct(f):
    return linear.on_words(f, _y_coproduct_gen)


def y_antipode(f):
    return linear.on_words(f, _y_antipode_gen)


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli.run_command(list(argv), out, err)
    return code, out.getvalue().rstrip("\n"), err.getvalue()


def test_one_row_adds_a_structure(monkeypatch):
    monkeypatch.setitem(structures.ALGEBRAS, "toy",
                        structures.Algebra(YElement, ("y",), partitions_of))
    monkeypatch.setitem(structures.STRUCTURES, "toy",
                        structures.Structure("toy", None, y_coproduct, y_antipode, 3))
    cli._parser.cache_clear()
    try:
        value, family = parse_element("y[2]*y[1]")
        assert (value, family) == (YElement({(2, 1): 1}), "toy")
        assert from_document(json.loads(dumps(document_for(value)))) == value

        code, out, _ = run("coproduct", "y[2]*y[1]")
        assert code == 0
        doc = json.loads(out)
        assert doc["factors"] == ["toy", "toy"]
        assert from_document(doc) == y_coproduct(value)
        assert run("coproduct", "2", "--algebra", "toy")[0] == 0
        assert run("antipode", "y[2]") == (0, "y[1,1] - y[2]", "")

        records = suites.suite_hopf_axioms(weight=2)
        toy = [(label, ok) for label, ok, _ in records if label.startswith("toy ")]
        assert [label.split(" (")[0] for label, _ in toy] == [
            "toy coassociativity", "toy counit", "toy antipode convolution"]
        assert all(ok for _, ok in toy)
    finally:
        cli._parser.cache_clear()


def test_repeated_structure_calls_add_no_word_images():
    """Every registered coproduct and antipode passes ``on_words`` a stable
    letter map, so a second call on the same element adds no memo entry."""
    parts = 0
    for label, st in structures.STRUCTURES.items():
        row = structures.algebra(st.algebra)
        x = row.element({idx: k + 1 for k, idx in enumerate(row.indices(3))})
        assert len(x.terms) > 1
        for part in (st.coproduct, st.antipode):
            if part is None:
                continue
            parts += 1
            part(x)
            size = linear.word_image.cache_info().currsize
            part(x)
            assert linear.word_image.cache_info().currsize == size, label
    assert parts == 12


def test_every_algebra_multiplies_by_a_key_product_or_its_own_basis_product():
    """An element class either names the one key of a product of two keys
    (``key_mul``), from which its ``basis_mul`` follows, or defines
    ``basis_mul`` itself; the two agree on sample keys."""
    for tag, row in structures.ALGEBRAS.items():
        cls = row.cls
        assert cls.key_mul is not None or "basis_mul" in vars(cls), tag
        if cls.key_mul is None:
            continue
        keys = [idx for w in range(4) for idx in row.indices(w)]
        for i in keys:
            for j in keys:
                assert cls.basis_mul(i, j) == ((cls.key_mul(i, j), 1),), (tag, i, j)
