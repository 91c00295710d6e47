"""Sparse fraction-free rank and the exact inverse against dense Gauss-Jordan
and sympy."""

import copy
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from hopftower.errors import DomainError
from hopftower.exactlinalg import invert_matrix, matrix_rank, sparse_rank
from hopftower.suites import _dense_rank_oracle

entries = st.one_of(
    st.just(Fraction(0)),
    st.integers(-6, 6).map(Fraction),
    st.fractions(min_value=-20, max_value=20, max_denominator=15),
)


@st.composite
def matrices(draw):
    """Random rational matrices, tall, wide or square, with some rows that
    repeat or combine earlier ones, shuffled."""
    ncols = draw(st.integers(1, 8))
    rows = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols),
                         min_size=1, max_size=8))
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, len(rows) - 1))
        j = draw(st.integers(0, len(rows) - 1))
        if draw(st.booleans()):
            rows.append(list(rows[i]))
        else:
            a, b = draw(entries), draw(entries)
            rows.append([a * x + b * y for x, y in zip(rows[i], rows[j])])
    return draw(st.permutations(rows))


def _sympy_rank(rows):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in r]
                         for r in rows]).rank()


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_rank_matches_dense_oracle_and_sympy(rows):
    rank = matrix_rank(rows)
    assert rank == _dense_rank_oracle(rows) == _sympy_rank(rows)


def test_empty_and_zero_matrices():
    assert matrix_rank([]) == 0
    assert matrix_rank([[]]) == 0
    assert matrix_rank([[0, 0, 0]] * 4) == 0
    assert matrix_rank([[Fraction(0)] * 3, [0, 0, Fraction(0)]]) == 0


def test_single_row():
    assert matrix_rank([[0, Fraction(-3, 4), 0, 7]]) == 1
    assert matrix_rank([[Fraction(5)]]) == 1


def test_entries_near_ten_to_the_thirty():
    big = 10 ** 30
    rows = [[Fraction(big + (i + 1) ** j, 1 + (i * j) % 5) for j in range(6)]
            for i in range(5)]
    rows.append([(big - 7) * x - (big + 3) * y for x, y in zip(rows[0], rows[3])])
    rows.append([x / big for x in rows[2]])
    want = _sympy_rank(rows)
    assert want == 5
    assert matrix_rank(rows) == _dense_rank_oracle(rows) == want


def test_input_is_not_mutated_and_rank_is_an_int():
    rows = [[Fraction(1, 2), 0, 3], [1, Fraction(0), 6], [0, Fraction(2, 3), 0]]
    before = copy.deepcopy(rows)
    rank = matrix_rank(rows)
    assert rows == before
    assert all(type(x) is type(y) for r, s in zip(rows, before) for x, y in zip(r, s))
    assert type(rank) is int and rank == 2


@st.composite
def sparse_matrices(draw):
    """Sparse integer matrices as {column: int} rows (some empty, some
    repeated or combined), with a row order and a column relabelling."""
    ncols = draw(st.integers(1, 12))
    row = st.dictionaries(st.integers(0, ncols - 1),
                          st.integers(-9, 9).filter(bool), max_size=4)
    rows = draw(st.lists(row, min_size=1, max_size=12))
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
        a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        mix = {k: a * rows[i].get(k, 0) + b * rows[j].get(k, 0)
               for k in set(rows[i]) | set(rows[j])}
        rows.append({k: v for k, v in mix.items() if v})
    return ncols, rows, draw(st.permutations(rows)), draw(st.permutations(range(ncols)))


@settings(max_examples=200, deadline=None)
@given(sparse_matrices())
def test_sparse_rank_ignores_row_and_column_order(case):
    ncols, rows, shuffled, relabel = case
    before = copy.deepcopy(rows)
    rank = sparse_rank(rows)
    assert rows == before
    assert rank == sparse_rank([{relabel[j]: c for j, c in r.items()} for r in shuffled])
    dense = [[r.get(j, 0) for j in range(ncols)] for r in rows]
    assert rank == sympy.Matrix(dense).rank() == matrix_rank(dense)


@st.composite
def invertible_matrices(draw):
    """Random square rational matrices that sympy finds invertible."""
    n = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                         min_size=n, max_size=n))
    if _sympy_rank(rows) < n:
        # keep the strict upper triangle over a unit diagonal: invertible
        rows = [[Fraction(int(i == j)) + (x if j > i else 0) for j, x in enumerate(r)]
                for i, r in enumerate(rows)]
    return draw(st.permutations(rows))


@settings(max_examples=200, deadline=None)
@given(invertible_matrices())
def test_invert_matrix_matches_sympy(rows):
    before = copy.deepcopy(rows)
    inverse = invert_matrix(rows)
    assert rows == before
    want = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in r]
                         for r in rows]).inv()
    assert [[sympy.Rational(x.numerator, x.denominator) for x in r]
            for r in inverse] == want.tolist()
    # entries are canonical: an int, or a Fraction with denominator > 1
    assert all(type(x) is int or x.denominator > 1 for r in inverse for x in r)


def test_invert_matrix_refuses_singular_and_non_square():
    for rows in ([[1, 2], [2, 4]], [[0, 0], [0, 1]], [[0]],
                 [[1, 0, 1], [0, 1, 1], [1, 1, 2]]):
        with pytest.raises(DomainError, match="singular"):
            invert_matrix(rows)
    for rows in ([[1, 2]], [[1], [2]], [[1, 0], [0]]):
        with pytest.raises(DomainError, match="not square"):
            invert_matrix(rows)
    assert invert_matrix([]) == []
