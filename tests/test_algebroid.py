"""Split algebroids and their reduced cobar complexes."""

import signal
import sys
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopftower import algebroid, diffeo, exactlinalg, structures
from hopftower.algebroid import (ALGEBROIDS, coface, cohomology_rank,
                                 differential, differential_matrix,
                                 differential_rows, invariants_rank_oracle,
                                 right_unit_functional)
from hopftower.diffeo import bfk_coproduct
from hopftower.errors import AlgebraMismatchError, CapabilityError, DomainError
from hopftower.exactlinalg import matrix_rank
from hopftower.linear import Tensor, word_image
from hopftower.nsym import NSymElement, z
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
                acc = [0] * len(cod1)
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
    """The oracle counts dense Gauss-Jordan pivots through ``matrix_rank``,
    which must not reach ``sparse_rank`` or ``sparse_leads``, the eliminator
    that ``cohomology_rank`` uses."""
    cases = [(name, w) for name in ALGEBROIDS for w in range(5)]
    want = [cohomology_rank(name, w, 0) for name, w in cases]

    def refuse(rows):
        raise AssertionError("the sparse eliminator was called")

    for name in ("sparse_rank", "sparse_leads"):
        monkeypatch.setattr(exactlinalg, name, refuse)
    monkeypatch.setattr(algebroid, "sparse_leads", refuse)
    assert [invariants_rank_oracle(name, w) for name, w in cases] == want


def test_rank_arithmetic_is_consistent():
    # the degree 1 rank formula can never go negative if d^2 = 0 held; the
    # cleared rank must equal it with every row of d^1 eliminated
    for name in ALGEBROIDS:
        for w in range(7):
            dom1, _, rows1 = differential_matrix(ALGEBROIDS[name], w, 1)
            _, _, rows0 = differential_matrix(ALGEBROIDS[name], w, 0)
            h1 = cohomology_rank(name, w, 1, weight_bound=6)
            assert h1 == len(dom1) - matrix_rank(rows1) - matrix_rank(rows0)
            assert h1 >= 0


def test_weight_bound_is_enforced():
    with pytest.raises(CapabilityError):
        cohomology_rank("S.B", 99, 0)


def test_a_negative_degree_is_a_domain_error():
    """It used to be refused as a capability bound (exit 2), not as bad input."""
    for name in ALGEBROIDS:
        for w in (-1, 0, 2):
            with pytest.raises(DomainError, match="^degree must be at least 0$"):
                cohomology_rank(name, w, -1)


def test_a_weight_or_degree_that_is_not_an_int_is_a_domain_error():
    """A float or bool used to reach ``range`` and raise a raw TypeError."""
    for name in ALGEBROIDS:
        for (w, s), which in (((2.0, 0), "weight"), ((2, 1.0), "degree"),
                              ((True, 0), "weight")):
            with pytest.raises(DomainError, match=which):
                cohomology_rank(name, w, s)


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
    assert right_unit_functional(z(2), (1,)) == z(1).scale(2)
    assert right_unit_functional(z(3), (2,)) == z(1).scale(2)
    assert right_unit_functional(z(3), (1,)) == z(2).scale(3)
    assert right_unit_functional(z(2), (2,)) == NSymElement.one()


def test_right_unit_functional_refuses_a_bare_int():
    """A bare 2 used to be read as the generator Z_2, where every other map
    out of NSym refuses a number."""
    with pytest.raises(AlgebraMismatchError, match="right_unit_functional"):
        right_unit_functional(2, (1,))


def test_unknown_algebroid_names_are_domain_errors():
    for call in (lambda: cohomology_rank("X.Y", 1, 0),
                 lambda: invariants_rank_oracle("X.Y", 1)):
        with pytest.raises(DomainError, match=r"'S\.B', 'N\.N'"):
            call()


def _nonzeros(row):
    """The nonzero entries of a dense row as ``{column: int}``, unscaled;
    every entry of a cobar differential is an integer."""
    assert all(type(c) is int for c in row)
    return {j: c for j, c in enumerate(row) if c}


def test_sparse_rows_are_the_dense_integer_rows():
    for alg in ALGEBROIDS.values():
        for w in range(7):
            for s in (0, 1):
                dom, cod, rows = differential_rows(alg, w, s)
                dense = differential_matrix(alg, w, s)
                assert (dom, cod) == dense[:2]
                assert rows == [_nonzeros(r) for r in dense[2]]


def _weak_compositions(total, parts):
    """Every tuple of ``parts`` nonnegative integers summing to ``total``."""
    return [c for c in product(range(total + 1), repeat=parts) if sum(c) == total]


def _level_keys(alg, w, n):
    """Every basis key of weight w at level n, unit H slots included."""
    for split in _weak_compositions(w, n + 1):
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


def test_sparse_rows_are_the_differential_without_unit_slots():
    """Both callers of the accumulator agree: each row of ``differential_rows``
    is exactly the terms of ``differential`` on its basis key that have no
    unit H slot, at levels 0-3."""
    for alg in ALGEBROIDS.values():
        for s in range(4):
            level = Tensor((alg.base_cls,) + (alg.hopf_cls,) * s)
            for w in range(6):
                dom, cod, rows = differential_rows(alg, w, s)
                col = {key: j for j, key in enumerate(cod)}
                for key, row in zip(dom, rows):
                    dense = [0] * len(cod)
                    for k, c in differential(alg, level._new({key: 1})).terms.items():
                        if () not in k[1:]:
                            dense[col[k]] = c
                    assert row == _nonzeros(dense), (alg, w, s, key)


def test_a_key_outside_the_codomain_is_refused_not_dropped():
    """The rows keep the keys of the codomain basis; a key they miss that has
    no unit H slot is a term the projection has no column for, so it is
    refused rather than lost."""
    for alg in ALGEBROIDS.values():
        dom, cod, rows = differential_rows(alg, 3, 1)
        hit = next(j for row in rows for j in row)
        with pytest.raises(DomainError, match="outside the normalized level-2 basis"):
            algebroid._sparse_rows(alg, dom, cod[:hit] + cod[hit + 1:], 1)


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


def test_clearing_builds_no_row_of_d1_on_a_lead_of_im_d0():
    """N.N at weight 6: C^0 has 32 keys, C^1 112 and rank d^0 is 32, so the
    cleared H^1 builds 32 + 112 - 32 rows where building every row of both
    differentials took 144."""
    watched = algebroid._cofaces_into.__code__
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is watched:
            calls.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        h1 = cohomology_rank("N.N", 6, 1, weight_bound=6)
    finally:
        sys.setprofile(None)
    assert h1 == 0
    assert len(calls) == 112
    dom0, dom1, rows0 = differential_rows(ALGEBROIDS["N.N"], 6, 0)
    assert (len(dom0), len(dom1), exactlinalg.sparse_rank(rows0)) == (32, 112, 32)


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


# -- the Chevalley-Eilenberg route --------------------------------------------

# S.B cohomology ranks H^0..H^5 for w = 0..20; H^0 is 1 and H^4, H^5 vanish
SB_H1 = (0, 1, 1, 1, 1, 2, 1, 2, 2, 2, 2, 3, 2, 3, 3, 3, 3, 4, 3, 4, 4)
SB_H2 = (0, 0, 0, 0, 0, 1, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 4, 3, 4, 5)
SB_H3 = (0,) * 12 + (1, 0, 0, 1, 1, 1, 1, 1, 2)


def test_sb_ranks_to_weight_20_and_degree_5_are_pinned():
    for w in range(21):
        want = [1, SB_H1[w], SB_H2[w], SB_H3[w], 0, 0]
        assert [cohomology_rank("S.B", w, s) for s in range(6)] == want, w


def test_sb_takes_the_chevalley_eilenberg_route_and_nn_the_cobar_route():
    """No coface is spliced for an S.B rank, and N.N is refused the CE route."""
    watched = algebroid._cofaces_into.__code__
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is watched:
            calls.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        assert cohomology_rank("S.B", 12, 3) == 1
    finally:
        sys.setprofile(None)
    assert calls == []
    with pytest.raises(DomainError, match="needs a commutative Hopf algebra; N.N has NSymElement"):
        algebroid.ce_rank("N.N", 2, 0)


def test_ce_differential_squares_to_zero():
    """d^(t+1) d^t = 0 on the CE cochains of S.B."""
    alg = ALGEBROIDS["S.B"]
    for w in range(11):
        for t in range(3):
            b0, b1, b2 = (algebroid._ce_basis(alg.base_indices, w, u) for u in (t, t + 1, t + 2))
            rows0 = algebroid._ce_rows(alg, b0, b1, t)
            rows1 = algebroid._ce_rows(alg, b1, b2, t + 1)
            for key, row in zip(b0, rows0):
                acc = {}
                for j, c in row.items():
                    for k, d in rows1[j].items():
                        acc[k] = acc.get(k, 0) + c * d
                assert not any(acc.values()), (w, t, key)


def test_the_bracket_of_fdb_is_l1_and_its_action_on_sym_lowers_e():
    """[xi_a, xi_b] = (a - b) xi_(a+b), and xi_n e_k = (k - n) e_(k-n) for k > n."""
    alg = ALGEBROIDS["S.B"]
    for k in range(2, 12):
        assert algebroid._bracket(alg.hopf_gen, k) == tuple(
            (a, k - a, 2 * a - k) for a in range(1, (k + 1) // 2))
        for n in range(1, 12):
            want = (((k - n,), k - n),) if k > n else ()
            assert algebroid._generator_action(alg.base_gen, n, k) == want


def _sym_shifted(base_gen, n, k):
    """The mutant action e_k -> (k - n + 1) e_(k-n), e_0 = 1."""
    return (((k - n,) if k > n else (), k - n + 1),) if k >= n else ()


def _negated(real):
    return lambda *args: tuple(item[:-1] + (-item[-1],) for item in real(*args))


@pytest.fixture
def fresh_action():
    algebroid._action.cache_clear()
    yield
    algebroid._action.cache_clear()


@pytest.mark.parametrize("name, mutant, first", [
    ("_generator_action", lambda real: _sym_shifted, None),
    ("_bracket", _negated, 8),
    ("_generator_action", _negated, 8),
], ids=["shifted action", "bracket sign", "negated action"])
def test_a_mutated_action_or_bracket_fails_the_ce_record(monkeypatch, fresh_action,
                                                         name, mutant, first):
    """The record that compares CE ranks with the cleared cobar ranks fails;
    the negated action and the flipped bracket agree with it below weight 8."""
    from hopftower import suites

    monkeypatch.setattr(algebroid, name, mutant(getattr(algebroid, name)))
    records = {label: (ok, detail) for label, ok, detail in suites.suite_comodule_algebroid()}
    ok, detail = records["S.B Chevalley-Eilenberg ranks equal the cleared cobar ranks "
                         "(weight <= 8, degrees 0-3)"]
    assert not ok
    if first is not None:
        assert detail.startswith("fails on (%d, " % first)


@settings(max_examples=20, deadline=None)
@given(w=st.integers(0, 7), s=st.integers(0, 2))
def test_ce_ranks_equal_the_cleared_cobar_ranks(w, s):
    sb = ALGEBROIDS["S.B"]
    assert algebroid.ce_rank(sb, w, s) == algebroid.cobar_rank(sb, w, s)


def test_every_degree_equals_the_dense_count():
    """H^s = dim C^s - rank d^s - rank d^(s-1) by dense Gauss-Jordan, in
    degrees past the weight too, where the complex is empty."""
    for name, alg in ALGEBROIDS.items():
        for w in range(6):
            below = 0
            for s in range(8):
                dom, _, rows = differential_matrix(alg, w, s)
                rank = matrix_rank(rows)
                assert cohomology_rank(name, w, s) == len(dom) - rank - below, (name, w, s)
                below = rank


def test_nn_cohomology_is_the_unit_alone():
    """The regular coaction is cofree, so H^s is Q at (w, s) = (0, 0) and 0 elsewhere."""
    ranks = {(w, s): cohomology_rank("N.N", w, s) for w in range(6) for s in range(8)}
    assert {key: rank for key, rank in ranks.items() if rank} == {(0, 0): 1}


def test_sb_degrees_past_five_are_zero_at_weight_20():
    """A CE cochain of degree s has weight at least s(s+1)/2 = 21 at s = 6."""
    assert [cohomology_rank("S.B", 20, s) for s in range(6, 9)] == [0, 0, 0]


def test_a_degree_above_the_weight_is_answered_without_a_walk():
    signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(5)
    try:
        assert cohomology_rank("N.N", 5, 10 ** 6) == 0
    finally:
        signal.alarm(0)


def _timeout(signum, frame):
    raise TimeoutError("cohomology_rank walked past the weight")


def test_d_squared_is_zero_at_levels_three_and_four():
    for alg in ALGEBROIDS.values():
        for n in (3, 4):
            level = Tensor((alg.base_cls,) + (alg.hopf_cls,) * n)
            for w in range(5):
                for key in _level_keys(alg, w, n):
                    x = level._new({key: 1})
                    assert not differential(alg, differential(alg, x)), (alg, n, key)
