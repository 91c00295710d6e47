"""The registry of algebras and Hopf structures that every module reads."""

import io
import json
from functools import partial
from itertools import permutations

import pytest

from hopftower import cli, diffeo, linear, structures, suites, sym
from hopftower.algebroid import (ALGEBROIDS, SplitAlgebroid, ce_rank, cobar_rank,
                                 cohomology_rank, invariants_rank_oracle)
from hopftower.errors import DomainError
from hopftower.expr import parse_element
from hopftower.indices import partitions_of
from hopftower.jsonio import document_for, dumps, from_document
from hopftower.nsym import NSymElement
from hopftower.qsym import QSymElement


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
    assert list(structures.ARROWS) == [("nsym-binomial", "sym-binomial"),
                                       ("sym-binomial", "qsym"), ("bfk", "fdb")]
    assert list(structures.PAIRINGS) == [("sym", "sym"), ("nsym", "qsym")]


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


def _add_toy(monkeypatch):
    """Register the toy algebra and its structure, as the test above does."""
    monkeypatch.setitem(structures.ALGEBRAS, "toy",
                        structures.Algebra(YElement, ("y",), partitions_of))
    monkeypatch.setitem(structures.STRUCTURES, "toy",
                        structures.Structure("toy", None, y_coproduct, y_antipode, 3))


def test_one_row_adds_an_algebroid(monkeypatch):
    """An algebroid that names the ``toy`` row twice is the regular coaction
    of the toy Hopf algebra on itself, which is cofree: H^0 is the scalars
    and H^1 vanishes."""
    _add_toy(monkeypatch)
    toy = SplitAlgebroid("toy", "toy", "toy", _y_coproduct_gen, _y_coproduct_gen)
    assert (toy.base, toy.hopf, toy.coaction, toy.h_coproduct) == (
        "toy", "toy", y_coproduct, y_coproduct)
    monkeypatch.setitem(ALGEBROIDS, "toy", toy)
    for w in range(5):
        assert cohomology_rank("toy", w, 0) == invariants_rank_oracle(toy, w) == (1 if w == 0 else 0)
        assert cohomology_rank("toy", w, 1) == 0
        # the toy Hopf class is commutative, so the ranks take the CE route
        for s in range(3):
            assert ce_rank(toy, w, s) == cobar_rank(toy, w, s) == (w == s == 0)
    cli._parser.cache_clear()
    try:
        assert run("cobar-rank", "--algebroid", "toy", "--weight", "3", "--degree", "0") == (
            0, '{"algebroid":"toy","weight":3,"degree":0,"rank":0}', "")
    finally:
        cli._parser.cache_clear()


@pytest.mark.parametrize("rows", [("nope", "fdb"), ("sym-fdb-coaction", "nope"),
                                  (["fdb"], "fdb")])
def test_an_algebroid_on_an_unknown_row_is_refused(rows):
    """It used to raise a raw KeyError (or TypeError for a list) from the lookup."""
    with pytest.raises(DomainError, match=r"^unknown structure .* \(known: \['sym-binomial', "):
        SplitAlgebroid("x", *rows, None, None)


def test_an_algebroid_reads_its_rows_at_each_call(monkeypatch):
    """A test double that rebinds a row reaches the algebroid's coaction."""
    calls = []

    def counted(f):
        calls.append(f)
        return diffeo.coaction_sym(f)

    monkeypatch.setattr(structures.STRUCTURES["sym-fdb-coaction"], "coproduct", counted)
    assert invariants_rank_oracle(ALGEBROIDS["S.B"], 2) == 1
    assert len(calls) == 2


def _sym_to_y(f):
    """Sym onto the toy algebra, e_lam to y_lam: a Hopf isomorphism."""
    return YElement(sym.convert(sym.SymElement.require(f, "_sym_to_y"), "e").terms)


def test_one_row_adds_an_arrow(monkeypatch):
    _add_toy(monkeypatch)
    monkeypatch.setitem(structures.ARROWS, ("sym-binomial", "toy"), _sym_to_y)
    cli._parser.cache_clear()
    try:
        assert run("convert", "--to", "y", "--", "h[2]") == (0, "y[1,1] - y[2]", "")
    finally:
        cli._parser.cache_clear()
    label, ok, _ = suites.suite_hopf_axioms(weight=2)[-1]
    # 16 cases on each of the three rows of the tower and on the toy row
    assert (label, ok) == ("arrows commute with coproduct and antipode and respect "
                           "products (weight <= 2, 64 cases)", True)


def _include_dropping_one(f):
    """``include_symmetric`` without the lexicographically largest of the
    rearrangements of each partition that has more than one."""
    out = {}
    for lam, c in sym.convert(f, "m").terms.items():
        rearrangements = set(permutations(lam))
        if len(rearrangements) > 1:
            rearrangements.discard(max(rearrangements))
        out.update(dict.fromkeys(rearrangements, c))
    return QSymElement(out)


def _bfk_abelianize_doubling(f):
    """``bfk_abelianize`` of the word with its length-2 coefficients doubled."""
    return diffeo.bfk_abelianize(
        NSymElement({w: 2 * c if len(w) == 2 else c for w, c in f.terms.items()}))


@pytest.mark.parametrize("row, mutant", [
    (("sym-binomial", "qsym"), _include_dropping_one),
    (("bfk", "fdb"), _bfk_abelianize_doubling),
])
def test_an_arrow_that_is_not_a_hopf_map_fails_the_check(monkeypatch, row, mutant):
    label, ok, _ = suites.suite_hopf_axioms(weight=5)[-1]
    assert label.startswith("arrows commute") and ok
    monkeypatch.setitem(structures.ARROWS, row, mutant)
    label, ok, detail = suites.suite_hopf_axioms(weight=5)[-1]
    assert label.startswith("arrows commute") and not ok
    assert detail.startswith("fails on (%r, %r, " % row)


@pytest.mark.parametrize("expr, to", [("M[1]", "e"), ("t[1]", "M"), ("e[1]", "t"),
                                      ("Z[1]", "M"), ("M[1]", "t")])
def test_convert_refuses_where_no_arrow_applies(expr, to):
    assert run("convert", "--to", to, "--", expr) == (
        1, "", "error: cannot convert a %s expression to %r\n"
        % (structures.tag_of_letter(expr[0]), to))
