"""Sparse fraction-free rank, the dense Gauss-Jordan rank and the exact
inverse against each other and sympy."""

import copy
from fractions import Fraction
from math import lcm

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from hopftower.errors import DomainError
from hopftower.exactlinalg import (invert_matrix, matrix_rank, row_reduce, sparse_leads,
                                   sparse_rank)
from hopftower.scalars import rational

entries = st.one_of(
    st.just(Fraction(0)),
    st.integers(-6, 6).map(Fraction),
    st.fractions(min_value=-20, max_value=20, max_denominator=15),
)


# zeros, ints and Fractions side by side, integral Fractions among them
mixed_entries = st.one_of(st.just(0), st.integers(-6, 6), entries)


@st.composite
def matrices(draw, entries=entries):
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


def _sparse_cleared_rank(rows):
    """``sparse_rank`` of rational rows, each cleared of its denominators
    into a ``{column: int}`` dict of its nonzeros."""
    cleared = []
    for r in rows:
        scale = lcm(*(Fraction(x).denominator for x in r))
        cleared.append({j: int(x * scale) for j, x in enumerate(r) if x})
    return sparse_rank(cleared)


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_rank_matches_dense_oracle_and_sympy(rows):
    rank = matrix_rank(rows)
    assert rank == _sparse_cleared_rank(rows) == _sympy_rank(rows)


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
    assert matrix_rank(rows) == _sparse_cleared_rank(rows) == want


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


@settings(max_examples=200, deadline=None)
@given(sparse_matrices(), st.data())
def test_sparse_leads_ignore_the_scale_of_each_row(case, data):
    """Each row is divided by its content as it is taken, so scaling a row by
    a nonzero integer of either sign changes no lead."""
    _, rows, _, _ = case
    scales = data.draw(st.lists(st.integers(-50, 50).filter(bool),
                                min_size=len(rows), max_size=len(rows)))
    scaled = [{j: k * c for j, c in r.items()} for k, r in zip(scales, rows)]
    assert sparse_leads(scaled) == sparse_leads(rows)


@settings(max_examples=200, deadline=None)
@given(sparse_matrices())
def test_sparse_leads_are_columns_that_keep_the_rank(case):
    """The leads are original column labels, one per unit of rank, and the
    rows cut to them keep the full rank, so the unit vectors of the other
    columns complete the row space: the property clearing rests on."""
    ncols, rows, _, _ = case
    rows = [{1000 + 3 * j: c for j, c in r.items()} for r in rows]  # labels unlike positions
    before = copy.deepcopy(rows)
    leads = sparse_leads(rows)
    assert rows == before
    assert leads <= {j for r in rows for j in r}
    labels = [1000 + 3 * j for j in range(ncols)]
    assert len(leads) == sympy.Matrix([[r.get(j, 0) for j in labels] for r in rows]).rank()
    cut = sympy.Matrix(len(rows), len(leads), [r.get(j, 0) for r in rows for j in sorted(leads)])
    assert cut.rank() == len(leads)


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


def _dense_gauss_jordan(rows):
    """Gauss-Jordan written out densely: at each pivot every entry of the
    pivot row is scaled and every entry of every other row updated."""
    m = [[rational(x) for x in r] for r in rows]
    pivots = []
    for col in range(len(m[0]) if m else 0):
        top = len(pivots)
        below = [r for r in range(top, len(m)) if m[r][col] != 0]
        if not below:
            continue
        m[top], m[below[0]] = m[below[0]], m[top]
        inv = 1 / Fraction(m[top][col])
        m[top] = [rational(x * inv) for x in m[top]]
        for r in range(len(m)):
            if r != top and m[r][col] != 0:
                f = m[r][col]
                m[r] = [rational(a - f * b) for a, b in zip(m[r], m[top])]
        pivots.append(col)
    return m, pivots


def _types(rows):
    return [[type(x) for x in r] for r in rows]


@settings(max_examples=300, deadline=None)
@given(matrices(mixed_entries))
def test_row_reduce_is_the_dense_gauss_jordan(rows):
    """The same reduced rows with the same canonical types, the same pivots,
    and the input left as it was, row objects included."""
    before, held = copy.deepcopy(rows), list(rows)
    reduced, pivots = row_reduce(rows)
    want, want_pivots = _dense_gauss_jordan(rows)
    assert (reduced, pivots) == (want, want_pivots)
    assert _types(reduced) == _types(want)
    assert rows == before and _types(rows) == _types(before)
    assert all(a is b for a, b in zip(rows, held))
    assert matrix_rank(rows) == len(want_pivots)


@st.composite
def square_matrices(draw):
    """Square rational matrices of mixed entries; in about half, the last row
    combines two others, so they are singular."""
    n = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(mixed_entries, min_size=n, max_size=n),
                         min_size=n, max_size=n))
    if n > 1 and draw(st.booleans()):
        i, j = draw(st.integers(0, n - 2)), draw(st.integers(0, n - 2))
        a, b = draw(mixed_entries), draw(mixed_entries)
        rows[-1] = [a * x + b * y for x, y in zip(rows[i], rows[j])]
    return draw(st.permutations(rows))


@settings(max_examples=200, deadline=None)
@given(square_matrices())
def test_invert_matrix_is_the_dense_gauss_jordan_of_a_with_i(rows):
    n = len(rows)
    want, pivots = _dense_gauss_jordan([list(r) + [int(i == j) for j in range(n)]
                                        for i, r in enumerate(rows)])
    if pivots != list(range(n)):
        with pytest.raises(DomainError, match="singular"):
            invert_matrix(rows)
    else:
        inverse = invert_matrix(rows)
        assert inverse == [r[n:] for r in want]
        assert _types(inverse) == _types([r[n:] for r in want])
