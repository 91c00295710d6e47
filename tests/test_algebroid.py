"""Split algebroids and their reduced cobar complexes."""

import sys

import pytest

from hopftower import algebroid, diffeo, exactlinalg, structures
from hopftower.algebroid import (ALGEBROIDS, coface, cohomology_rank,
                                 differential, differential_matrix,
                                 differential_rows, invariants_rank_oracle,
                                 right_unit_functional)
from hopftower.diffeo import bfk_coproduct
from hopftower.errors import AlgebraMismatchError, CapabilityError, DomainError
from hopftower.exactlinalg import _integer_row, matrix_rank
from hopftower.indices import weak_compositions
from hopftower.linear import Tensor, word_image
from hopftower.nsym import NSymElement, z
from hopftower.scalars import ZERO
from hopftower.sym import convert, e, h, m, p


def test_both_algebroids_are_registered():
    assert set(ALGEBROIDS) == {"S.B", "N.N"}


def test_cosimplicial_identities_low_weight():
    for alg in ALGEBROIDS.values():
        for w in range(5):
            for lam in alg.base_indices(w):
                x = alg.as_level(alg.base_element(lam))
                for j in range(1, 3):
                    for i in range(j):
                        lhs = coface(alg, coface(alg, x, i), j)
                        rhs = coface(alg, coface(alg, x, j - 1), i)
                        assert lhs == rhs


def test_differential_squares_to_zero():
    for alg in ALGEBROIDS.values():
        for w in range(5):
            for lam in alg.base_indices(w):
                x = alg.as_level(alg.base_element(lam))
                assert not differential(alg, differential(alg, x))


def test_differential_matrices_compose_to_zero():
    for name in ALGEBROIDS:
        for w in range(4):
            dom0, cod0, rows0 = differential_matrix(ALGEBROIDS[name], w, 0)
            dom1, cod1, rows1 = differential_matrix(ALGEBROIDS[name], w, 1)
            assert cod0 == dom1
            for i in range(len(dom0)):
                acc = [ZERO] * len(cod1)
                for j, c in enumerate(rows0[i]):
                    if c:
                        for k, d in enumerate(rows1[j]):
                            acc[k] += c * d
                assert not any(acc)


def test_unit_weight_zero_cohomology():
    for name in ALGEBROIDS:
        assert cohomology_rank(name, 0, 0) == 1
        assert cohomology_rank(name, 0, 1) == 0


def test_invariants_pin_for_the_symmetric_algebroid():
    for w in range(4):
        assert cohomology_rank("S.B", w, 0) == 1
        assert invariants_rank_oracle("S.B", w) == 1


def test_invariant_ranks_match_oracle_everywhere():
    for name in ALGEBROIDS:
        for w in range(5):
            assert cohomology_rank(name, w, 0) == invariants_rank_oracle(name, w)


def test_the_invariants_oracle_shares_no_eliminator_with_the_ranks(monkeypatch):
    """The oracle counts dense Gauss-Jordan pivots; it used to call
    ``matrix_rank``, which hands its rows to ``sparse_rank``, the eliminator
    that ``cohomology_rank`` uses."""
    cases = [(name, w) for name in ALGEBROIDS for w in range(5)]
    want = [cohomology_rank(name, w, 0) for name, w in cases]

    def refuse(rows):
        raise AssertionError("sparse_rank was called")

    monkeypatch.setattr(exactlinalg, "sparse_rank", refuse)
    monkeypatch.setattr(algebroid, "sparse_rank", refuse)
    assert [invariants_rank_oracle(name, w) for name, w in cases] == want


def test_rank_arithmetic_is_consistent():
    # the degree 1 rank formula can never go negative if d^2 = 0 held
    for name in ALGEBROIDS:
        for w in range(4):
            dom1, _, rows1 = differential_matrix(ALGEBROIDS[name], w, 1)
            _, _, rows0 = differential_matrix(ALGEBROIDS[name], w, 0)
            h1 = cohomology_rank(name, w, 1)
            assert h1 == len(dom1) - matrix_rank(rows1) - matrix_rank(rows0)
            assert h1 >= 0


def test_level_bound_is_enforced():
    alg = ALGEBROIDS["S.B"]
    x = alg.as_level(alg.base_element((1,)))
    for _ in range(3):
        x = differential(alg, x)
    with pytest.raises(CapabilityError):
        differential(alg, x)
    with pytest.raises(CapabilityError):
        cohomology_rank("S.B", 99, 0)
    for name in ALGEBROIDS:
        with pytest.raises(CapabilityError,
                           match=r"^cohomology degree 2 not supported \(only 0 and 1\)$"):
            cohomology_rank(name, 3, 2)


def test_a_negative_degree_is_a_domain_error():
    """It used to be refused as a capability bound (exit 2), not as bad input."""
    for name in ALGEBROIDS:
        for w in (-1, 0, 2):
            with pytest.raises(DomainError, match="^negative degree$"):
                cohomology_rank(name, w, -1)


def zcobar_coface(hopf_coproduct, hopf_cls, hopf_make, x, i):
    """Coface of the ground-ring cobar complex of H alone (levels H^(x n)).

    d_0 prepends a unit slot, d_i applies the coproduct inside, d_{n+1}
    appends a unit slot.  Used to compare against the algebroid complex:
    the two agree in every coface except the 0-th, where the coaction twist
    lives.
    """
    n = x.arity
    if i == 0:
        return x.insert_slot(0, hopf_cls)
    if i <= n:
        return x.apply(i - 1, lambda idx: hopf_coproduct(hopf_make(idx)),
                       (hopf_cls, hopf_cls))
    return x.insert_slot(n, hopf_cls)


def test_ground_cobar_cofaces_match_up_to_the_twist():
    # over N.N the coaction is the coproduct itself, so every algebroid
    # coface agrees with the ground-ring coface one index up; the leftover
    # 0-th ground coface (prepend a unit) is where a genuine twist would sit
    alg = ALGEBROIDS["N.N"]
    make = lambda idx: NSymElement({idx: 1})
    x = Tensor((NSymElement, NSymElement), {((2,), (1,)): 1})
    for i in range(3):
        assert coface(alg, x, i) == zcobar_coface(
            bfk_coproduct, NSymElement, make, x, i + 1)
    prep = zcobar_coface(bfk_coproduct, NSymElement, make, x, 0)
    assert prep.arity == 3
    assert prep != coface(alg, x, 0)


def test_right_unit_functional_pins():
    assert right_unit_functional(2, (1,)) == z(1).scale(2)
    assert right_unit_functional(3, (2,)) == z(1).scale(2)
    assert right_unit_functional(3, (1,)) == z(2).scale(3)
    assert right_unit_functional(2, (2,)) == NSymElement.one()


def test_unknown_algebroid_names_are_domain_errors():
    for call in (lambda: cohomology_rank("X.Y", 1, 0),
                 lambda: invariants_rank_oracle("X.Y", 1)):
        with pytest.raises(DomainError, match=r"'S\.B', 'N\.N'"):
            call()


def test_sparse_rows_are_the_primitive_dense_rows():
    for alg in ALGEBROIDS.values():
        for w in range(7):
            for s in (0, 1):
                dom, cod, rows = differential_rows(alg, w, s)
                dense = differential_matrix(alg, w, s)
                assert (dom, cod) == dense[:2]
                assert rows == [_integer_row(r) for r in dense[2]]


def _level_keys(alg, w, n):
    """Every basis key of weight w at level n, unit H slots included."""
    for split in weak_compositions(w, n + 1):
        choices = [()]
        for slot, part in enumerate(split):
            indices = (alg.base_indices if slot == 0 else alg.h_indices)(part)
            choices = [prev + (idx,) for prev in choices for idx in indices]
        yield from choices


def test_the_level_basis_is_the_normalized_keys_in_the_documented_order():
    """Base weight falling, then the H-weight split in increasing lex order,
    then the enumeration order of the indices; ``sparse_rank`` breaks ties by
    column, so the order is pinned, not only the set."""
    def order(key):
        return -sum(key[0]), tuple(map(sum, key[1:]))

    for alg in ALGEBROIDS.values():
        for s in range(4):
            for w in range(8):
                want = sorted((k for k in _level_keys(alg, w, s) if () not in k[1:]), key=order)
                assert algebroid._level_basis(alg, w, s) == want, (alg, w, s)


def test_differential_is_the_alternating_sum_of_cofaces():
    for alg in ALGEBROIDS.values():
        for n in range(3):
            level = Tensor((alg.base_cls,) + (alg.hopf_cls,) * n)
            for w in range(5):
                for key in _level_keys(alg, w, n):
                    x = level._new({key: 3})
                    want = coface(alg, x, 0)
                    for i in range(1, n + 2):
                        want = want + coface(alg, x, i).scale((-1) ** i)
                    assert differential(alg, x) == want


def test_cohomology_rank_builds_no_tensors_and_no_dense_matrix(monkeypatch):
    for name in ALGEBROIDS:
        cohomology_rank(name, 4, 1)  # fill the structure-constant memos first
    calls = []

    def counted(name, real):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(algebroid, "differential_matrix",
                        counted("differential_matrix", differential_matrix))
    monkeypatch.setattr(Tensor, "apply", counted("apply", Tensor.apply))
    monkeypatch.setattr(Tensor, "__add__", counted("__add__", Tensor.__add__))
    for name in ALGEBROIDS:
        for s in (0, 1):
            cohomology_rank(name, 4, s)
    assert calls == []


def test_warm_ranks_and_differentials_only_read_the_word_image_memo():
    """With the memos warm, ranks and differentials to weight 6 build no
    element and call no public coaction or coproduct (watched by code object,
    so no alias escapes), and every memoised image they read is unchanged."""
    watched = {f.__code__: name for name, f in (
        ("Algebra.element", structures.Algebra.element),
        ("coaction_sym", diffeo.coaction_sym),
        ("fdb_coproduct", diffeo.fdb_coproduct),
        ("bfk_coproduct", diffeo.bfk_coproduct))}
    inputs = [(alg, Tensor((alg.base_cls,) + (alg.hopf_cls,) * n)._new({key: 3}))
              for alg in ALGEBROIDS.values() for n in (0, 1)
              for w in range(7) for key in _level_keys(alg, w, n)]

    def run():
        for alg in ALGEBROIDS.values():
            for w in range(7):
                for s in (0, 1):
                    cohomology_rank(alg, w, s, weight_bound=6)
        return [differential(alg, x) for alg, x in inputs]

    want = run()  # warms the memos
    memo = {}
    for alg in ALGEBROIDS.values():
        for gen, indices in ((alg.base_gen, alg.base_indices), (alg.hopf_gen, alg.h_indices)):
            for w in range(7):
                for idx in indices(w):
                    image = word_image(gen, idx)
                    memo[gen, idx] = image, dict(image.terms)
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in watched:
            calls.append(watched[frame.f_code])

    sys.setprofile(profile)
    try:
        got = run()
    finally:
        sys.setprofile(None)
    assert calls == []
    assert got == want
    for (gen, idx), (image, terms) in memo.items():
        assert word_image(gen, idx) is image and image.terms == terms


def test_base_elements_in_any_basis_are_read_as_slots_hold_them():
    SB = ALGEBROIDS["S.B"]
    for x in (h(2), m(2, 1) - p(1), h(1, 1).scale(3) + e(2)):
        want = convert(x, "e")
        assert SB.as_level(x) == Tensor.of(want)
        assert differential(SB, x) == differential(SB, want)
        for i in (0, 1):
            assert coface(SB, x, i) == coface(SB, want, i)


def test_foreign_cochains_are_refused():
    SB, NN = ALGEBROIDS["S.B"], ALGEBROIDS["N.N"]
    for alg, x in ((SB, z(1)), (NN, e(1)), (SB, Tensor.of(z(1))), (NN, Tensor.of(e(1))),
                   (SB, Tensor.of(e(1), e(1))), (SB, NN.as_level(z(1))), (SB, 1)):
        for apply in (lambda: differential(alg, x), lambda: coface(alg, x, 0)):
            with pytest.raises(AlgebraMismatchError):
                apply()
