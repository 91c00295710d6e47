"""The shared Hopf engine: word extension and the connected-graded recursion.

Every coproduct, coaction and antipode of the package is a generator map
extended over words by ``linear.on_words``; the properties below check the
extension on random linear combinations (not just basis elements) of all
five structures, and check ``linear.recursive_antipode`` against the closed
forms the library keeps: the composition sum for NSym, the e-basis sum for
symmetric functions, Lagrange reversion for the diffeomorphism algebra and
Ehrenborg's coarsening formula for QSym.
Arithmetic builds its results through the trusted ``_new`` path, so the last
properties check that every result is canonical, equal to its rebuild through
the validating constructor, and shares no dict with its operands.
"""

import sys
from fractions import Fraction
from functools import partial
from operator import add, sub

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopftower import diffeo, nsym, qsym, sym
from hopftower.diffeo import FdBElement
from hopftower.errors import AlgebraMismatchError, DomainError
from hopftower.indices import compositions_of, partitions_of
from hopftower.linear import (Tensor, binomial_gen, image_items, on_words, recursive_antipode,
                              word_image)
from hopftower.nsym import NSymElement, z
from hopftower.qsym import M, QSymElement
from hopftower.series import TruncatedSeries
from hopftower.sym import SymElement, e
from hopftower.suites import _recursive_qsym_antipode

WEIGHT = 4


def _indices(enum):
    return [idx for w in range(WEIGHT + 1) for idx in enum(w)]


# name -> (element builder, indices, coproduct, antipode)
STRUCTURES = {
    "sym": (lambda terms, basis: SymElement(terms, basis), _indices(partitions_of),
            sym.coproduct, sym.antipode),
    "nsym": (lambda terms, basis: NSymElement(terms), _indices(compositions_of),
             nsym.coproduct, nsym.antipode),
    "qsym": (lambda terms, basis: QSymElement(terms), _indices(compositions_of),
             qsym.coproduct, qsym.antipode),
    "fdb": (lambda terms, basis: FdBElement(terms), _indices(partitions_of),
            diffeo.fdb_coproduct, diffeo.fdb_antipode),
    "bfk": (lambda terms, basis: NSymElement(terms), _indices(compositions_of),
            diffeo.bfk_coproduct, diffeo.bfk_antipode),
}

coeffs = st.one_of(st.integers(-3, 3).filter(bool).map(Fraction),
                   st.fractions(min_value=-4, max_value=4, max_denominator=5).filter(bool))


@st.composite
def element_pairs(draw, names=tuple(STRUCTURES)):
    """A structure and two random linear combinations of at least two basis
    elements of weight <= 4; symmetric functions come in any basis."""
    name = draw(st.sampled_from(names))
    make, indices, _, _ = STRUCTURES[name]

    def element():
        idxs = draw(st.lists(st.sampled_from(indices), min_size=2, max_size=4,
                             unique=True))
        basis = draw(st.sampled_from(sym.BASES))
        return make({idx: draw(coeffs) for idx in idxs}, basis)

    return name, element(), element()


@settings(max_examples=60, deadline=None)
@given(element_pairs())
def test_coproduct_is_multiplicative(case):
    name, x, y = case
    delta = STRUCTURES[name][2]
    assert delta(x * y) == delta(x) * delta(y)


@settings(max_examples=60, deadline=None)
@given(element_pairs())
def test_antipode_is_an_antimorphism(case):
    name, x, y = case
    antipode = STRUCTURES[name][3]
    assert antipode(x * y) == antipode(y) * antipode(x)


@settings(max_examples=60, deadline=None)
@given(element_pairs(names=("sym", "nsym", "fdb")))
def test_recursion_equals_the_closed_forms(case):
    name, x, _ = case
    make, _, delta, antipode = STRUCTURES[name]
    by_recursion = recursive_antipode(delta(x), lambda i: antipode(make({i: 1}, "e")))
    assert by_recursion == antipode(x)


def test_recursion_on_generators_matches_each_closed_form():
    for n in range(WEIGHT + 3):
        gen = (n,) if n else ()
        assert recursive_antipode(nsym.coproduct(NSymElement({gen: 1})),
                                  lambda i: nsym.antipode(NSymElement({i: 1}))) \
            == nsym._antipode_gen(n)
        assert recursive_antipode(sym.coproduct(SymElement({gen: 1})),
                                  lambda i: sym.antipode(SymElement({i: 1}))) \
            == sym._antipode_e_gen(n)
        assert recursive_antipode(diffeo._fdb_coproduct_gen(n),
                                  lambda i: diffeo.fdb_antipode(FdBElement({i: 1}))) \
            == diffeo._fdb_antipode_gen(n)


def test_qsym_antipode_matches_the_recursion():
    """Ehrenborg's coarsening formula equals the connected-graded recursion
    on every composition of weight <= 8, and on a sum with a repeated image."""
    assert qsym.antipode(M(2, 1)) == M(1, 2) + M(3)
    for w in range(9):
        for I in compositions_of(w):
            assert qsym.antipode(M(*I)) == _recursive_qsym_antipode(I), I
    f = M(1, 2).scale(3) - M(3) + M(2, 1).scale(Fraction(1, 2))
    assert qsym.antipode(f) == recursive_antipode(qsym.coproduct(f), _recursive_qsym_antipode)


def test_unit_and_zero():
    for make, _, delta, antipode in STRUCTURES.values():
        one = make({(): 1}, "e")
        assert antipode(one) == one
        assert delta(one).terms == {((), ()): 1}
        assert not antipode(make({}, "e")) and not delta(make({}, "e"))


def test_long_words_are_extended_letter_by_letter():
    """Words of a thousand letters, as ``Z[1]^1000`` gives, come back without
    deep recursion: S(Z_1) = -Z_1 in both NSym structures, and the coaction
    sends e_1 to e_1 (x) 1."""
    word = (1,) * 1000
    z_word = NSymElement({word: 1})
    assert nsym.antipode(z_word) == z_word
    assert diffeo.bfk_antipode(z_word) == z_word
    assert diffeo.coaction_sym(e(*word)) == Tensor.of(e(*word), FdBElement.one())


# -- arithmetic results are canonical and own their dicts -----------------------

def _rebuilt(r):
    """``r`` rebuilt through the validating public constructor."""
    if isinstance(r, TruncatedSeries):
        return TruncatedSeries(r.algebra, r.terms, r.cap, r.nvars)
    if isinstance(r, Tensor):
        return Tensor(r.factors, r.terms)
    if isinstance(r, SymElement):
        return SymElement(r.terms, r.basis)
    return type(r)(r.terms)


def _is_canonical_scalar(c):
    """A nonzero int, or a Fraction whose denominator is greater than 1."""
    return (type(c) is int and c != 0) or (type(c) is Fraction and c.denominator > 1)


def _assert_canonical(r):
    if isinstance(r, TruncatedSeries):
        # a series holds canonical elements on exponents up to its cap
        assert all((k if r.nvars == 1 else sum(k)) <= r.cap for k in r.terms)
        for c in r.terms.values():
            assert type(c) is r.algebra and c
            _assert_canonical(c)
        assert _rebuilt(r).terms == r.terms
        return
    assert all(_is_canonical_scalar(c) for c in r.terms.values())
    if isinstance(r, Tensor):
        # the tensor constructor canonicalises slot keys; check each slot anyway,
        # since arithmetic builds its keys without it
        for key in r.terms:
            assert len(key) == r.arity
            for f, idx in zip(r.factors, key):
                assert list(f({idx: 1}).terms) == [idx]
    assert _rebuilt(r).terms == r.terms


def _series_of(x, y):
    """Two series over the algebra of x and y with both as coefficients."""
    return (TruncatedSeries(type(x), {0: x, 1: y, 3: x}, 3),
            TruncatedSeries(type(x), {1: x - y, 2: y}, 2))


def _delta_of_index(name):
    """The coproduct of one basis index of a tensor slot (e-based for sym)."""
    make, _, delta, _ = STRUCTURES[name]
    return lambda idx: delta(make({idx: 1}, "e"))


def _results(name, x, y, q):
    """Every arithmetic route of the engine, applied to x and y."""
    _, _, delta, antipode = STRUCTURES[name]
    dx, dy = delta(x), delta(y)
    s, u = _series_of(x, y)
    yield from (x * y, y * x, x + y, x - y, -x, x + 1, x * 1, x.scale(q), x.scale(0),
                x ** 2, delta(x * y), antipode(x), antipode(x * y), dx, dx * dy,
                dx + dy, dx - dy, dx.scale(q), Tensor.of(x, y) * Tensor.of(y, x),
                s + u, s - u, -s, s.scale(q), s - 1, s.truncate(1), s.alternate(),
                x - x, x + (-x), x.scale(1), dx.apply(0, _delta_of_index(name), dx.factors),
                # a multi-term input whose images cancel: S(Z_1^2) = Z_1^2 = S(Z_2) + Z_2
                nsym.antipode(NSymElement({(1, 1): q, (2,): -q, (3,): q})))
    for w in sorted({sum(i) for i in x.terms}):  # the homogeneous parts of x
        yield x._new({i: c for i, c in x.terms.items() if sum(i) == w})


def test_canonical_scalars_exclude_zero_floats_and_integral_fractions():
    assert all(_is_canonical_scalar(c) for c in (1, -7, Fraction(1, 2)))
    assert not any(_is_canonical_scalar(c) for c in (0, 0.5, 2.0, Fraction(2), True))


@settings(max_examples=60, deadline=None)
@given(element_pairs(), coeffs)
def test_arithmetic_results_are_canonical(case, q):
    name, x, y = case
    for r in _results(name, x, y, q):
        _assert_canonical(r)


@settings(max_examples=30, deadline=None)
@given(element_pairs())
def test_results_share_no_dict_with_their_operands(case):
    name, x, y = case
    delta = STRUCTURES[name][2]
    t = delta(x)
    gen = partial(binomial_gen, NSymElement)
    word = NSymElement({(2, 1): 1, (1,): 3})
    s, u = _series_of(x, y)
    words = Tensor.of(word, NSymElement({(1,): 1}))
    operands = (x, y, t, word, gen(1), gen(2), s, u, words,
                word_image(nsym._coproduct_gen, (2, 1)), word_image(nsym._coproduct_gen, (1,)))
    before = [dict(v.terms) for v in operands]
    for r in (x + y, x * 1, -x, x.scale(2), on_words(word, gen), t * t,
              s + u, s - u, -s, s.scale(2), s - 1, s.truncate(1), s.truncate(5),
              s.alternate(), x.scale(1), t.apply(0, _delta_of_index(name), t.factors),
              # the map hands out the memoised images themselves
              words.apply(0, partial(word_image, nsym._coproduct_gen),
                          (NSymElement, NSymElement))):
        r.terms.clear()
        r.terms[(7,)] = Fraction(5)
    assert [v.terms for v in operands] == before


def test_public_constructors_still_validate():
    with pytest.raises(DomainError):
        NSymElement({(0,): 1})
    with pytest.raises(DomainError):
        SymElement({(1.5,): 1})
    with pytest.raises(DomainError):
        FdBElement({("2",): 1})
    with pytest.raises(DomainError):
        QSymElement({(Fraction(1, 2),): 1})


# -- the word-image memo --------------------------------------------------------

MEMO_WEIGHT = 6

# public map -> (element class, basis words of a weight, letter map, reversed)
WORD_MAPS = {
    "nsym.coproduct": (nsym.coproduct, NSymElement, compositions_of,
                       nsym._coproduct_gen, False),
    "nsym.antipode": (nsym.antipode, NSymElement, compositions_of,
                      nsym._antipode_gen, True),
    "sym.coproduct": (sym.coproduct, SymElement, partitions_of,
                      sym._coproduct_e_gen, False),
    "sym.antipode": (sym.antipode, SymElement, partitions_of,
                     sym._antipode_e_gen, False),
    "diffeo.fdb_coproduct": (diffeo.fdb_coproduct, FdBElement, partitions_of,
                             diffeo._fdb_coproduct_gen, False),
    "diffeo.fdb_antipode": (diffeo.fdb_antipode, FdBElement, partitions_of,
                            diffeo._fdb_antipode_gen, False),
    "diffeo.coaction_sym": (diffeo.coaction_sym, SymElement, partitions_of,
                            diffeo._coaction_gen, False),
    "diffeo.bfk_coproduct": (diffeo.bfk_coproduct, NSymElement, compositions_of,
                             diffeo._bfk_coproduct_gen, False),
    "diffeo.bfk_antipode": (diffeo.bfk_antipode, NSymElement, compositions_of,
                            diffeo._bfk_antipode_gen, True),
}


def _letter_by_letter(gen, word):
    """gen(0) * gen(l_1) * ... * gen(l_r), with no memo."""
    image = gen(0)
    for k in word:
        image = image * gen(k)
    return image


@pytest.mark.parametrize("name", list(WORD_MAPS))
def test_memoised_word_images_equal_the_letter_by_letter_product(name):
    apply, cls, words, gen, reverse = WORD_MAPS[name]
    word_image.cache_clear()
    for w in range(MEMO_WEIGHT + 1):
        for word in words(w):
            want = _letter_by_letter(gen, word[::-1] if reverse else word)
            for _ in range(2):  # computed cold, then read from the memo
                assert apply(cls({word: 1})) == want, word
    assert word_image.cache_info().hits > 0


def test_a_returned_image_can_be_mutated_without_touching_the_memo():
    for apply, x in ((nsym.coproduct, z(2, 1)), (sym.coproduct, e(2, 1)),
                     (nsym.antipode, z(2, 1)), (diffeo.bfk_antipode, z(3, 1))):
        first = apply(x)
        want = dict(first.terms)
        first.terms.update({key: 5 for key in want})
        first.terms[next(iter(want))[::-1]] = 7
        assert apply(x).terms == want


def test_a_one_word_image_is_a_fresh_canonical_dict():
    """A one-term input takes the one-word path: a copy of the memoised image
    for coefficient 1, ``scale`` otherwise; either way the result is canonical
    (1/2 * 2 stored as the int 1) and shares no dict with the memo."""
    gen = diffeo._bfk_coproduct_gen
    image = word_image(gen, (2,))
    memo = dict(image.terms)
    assert 2 in memo.values()
    for c in (1, Fraction(1, 2), -3):
        r = on_words(NSymElement({(2,): c}), gen)
        assert r.terms is not image.terms
        assert r.terms == {k: v * c for k, v in memo.items()}
        _assert_canonical(r)
        r.terms.clear()
        assert image.terms == memo
    half = on_words(NSymElement({(2,): Fraction(1, 2)}), gen)
    assert {type(c) for c in half.terms.values()} == {int, Fraction}
    assert all(type(c) is int for c in half.terms.values() if c == 1)


def test_image_items_is_a_read_only_view_of_the_memo():
    gen = diffeo._fdb_coproduct_gen
    items = image_items(gen, (2, 1))
    assert dict(items) == word_image(gen, (2, 1)).terms
    assert not hasattr(items, "__setitem__") and not hasattr(items, "clear")


def test_repeated_binomial_coproducts_hit_the_memo():
    for coproduct, x in ((nsym.coproduct, z(3, 1)), (sym.coproduct, e(3, 1))):
        coproduct(x)
        hits = word_image.cache_info().hits
        coproduct(x)
        assert word_image.cache_info().hits > hits


@pytest.mark.parametrize("name", list(WORD_MAPS))
def test_each_new_word_image_costs_one_product(name, monkeypatch):
    """A cold build of every word to weight 7 multiplies once per memo miss of
    a word of two letters or more.  Each one-letter word and the empty word
    is itself a word of weight <= 7, so those make the other 8 misses."""
    _, _, words, gen, reverse = WORD_MAPS[name]
    for k in range(8):
        gen(k)  # the letter images come from the letter map's own memo
    kind, products = type(gen(1)), []
    mul = kind.__mul__

    def counted(x, y):
        products.append(y)
        return mul(x, y)

    word_image.cache_clear()
    monkeypatch.setattr(kind, "__mul__", counted)
    for w in range(8):
        for word in words(w):
            word_image(gen, word[::-1] if reverse else word)
    info = word_image.cache_info()
    assert info.misses == info.currsize
    assert len(products) == info.misses - 8 > 0


def _depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_a_long_word_recurses_about_log2_n_deep():
    """``Z[1]^4096`` is built from its halves: its antipode runs within 100
    frames of the caller, and adds one memo entry per power-of-two length."""
    n = 4096
    word = z(1) ** n
    word_image.cache_clear()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_depth() + 100)
    try:
        image = nsym.antipode(word)
    finally:
        sys.setrecursionlimit(limit)
    assert image == word
    assert word_image.cache_info().currsize <= 2 * (n.bit_length() - 1)


# -- the tensor constructor canonicalises slot keys ----------------------------

def test_tensor_constructor_gives_each_slot_its_canonical_index():
    assert Tensor((SymElement, SymElement), {((1, 2), ()): 1}) \
        == Tensor.of(e(2, 1), SymElement.one())
    merged = Tensor((FdBElement, NSymElement), {((1, 2), (1, 2)): 1, ((2, 1), (1, 2)): 1})
    assert merged.terms == {((2, 1), (1, 2)): 2}
    # compositions keep their order, QSym being commutative notwithstanding
    assert Tensor((QSymElement,), {((1, 2),): 1}).terms == {((1, 2),): 1}


def test_tensor_constructor_rejects_what_no_factor_indexes():
    with pytest.raises(DomainError):
        Tensor((NSymElement,), {((0,),): 1})
    with pytest.raises(DomainError):
        Tensor((SymElement, SymElement), {((2, -1), ()): 1})
    with pytest.raises(DomainError):
        Tensor((NSymElement, NSymElement), {((1,),): 1})


def test_adding_elements_of_two_algebras_is_refused():
    for x, y in ((e(1), z(1)), (z(1), e(1)), (e(1), Tensor.of(e(1))), (M(1), FdBElement.one())):
        for op in (add, sub):
            with pytest.raises(AlgebraMismatchError):
                op(x, y)


def test_tensor_apply_calls_its_map_once_per_distinct_index():
    x = nsym.coproduct(z(2, 1) + z(1, 2) + z(3))
    for pos in (0, 1):
        seen = []

        def fn(idx):
            seen.append(idx)
            return nsym.coproduct(NSymElement({idx: 1}))

        got = x.apply(pos, fn, (NSymElement, NSymElement))
        assert sorted(seen) == sorted({key[pos] for key in x.terms}) and len(seen) < len(x.terms)
        want = {}
        for key, c in x.terms.items():
            for sub_key, cc in nsym.coproduct(NSymElement({key[pos]: 1})).terms.items():
                k = key[:pos] + sub_key + key[pos + 1:]
                want[k] = want.get(k, 0) + c * cc
        assert got == Tensor((NSymElement,) * 3, want)
