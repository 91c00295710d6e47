"""Exact linear algebra over the rationals.

Just what the rest of the package needs: the leads and rank of a sparse
integer matrix (for cohomology dimensions of the cobar complexes) and, as
oracles only, Gauss-Jordan reduction, its rank and the inverse of a square
matrix.

The cobar differentials are sparse with integer entries, so ``sparse_leads``
eliminates fraction-free on rows given as ``{column: int}`` dicts of their
nonzeros.  It relabels the columns sparsest first and eliminates the rows
shortest first; rank changes under neither permutation, and a lead column
that few rows share leaves little fill-in behind (the static form of
Markowitz's ordering, Management Sci. 3, 1957).  A row shorter than the
pivot of its lead column becomes that pivot and the old pivot is reduced in
its place, so the rows that are subtracted again and again stay short.
It divides each row by its content as it takes it, so a caller hands over
the exact integer rows.  Forward elimination cross-multiplies by
gcd-reduced pivots (fraction-free in the spirit of Bareiss, Math. Comp. 22,
1968) and divides every new row by its content too, which keeps the
integers small; neither back-substitution nor normalised pivots are needed,
and all arithmetic is exact ``int``.

``sparse_leads`` returns the original labels of the columns that lead the
pivot rows, and ``sparse_rank`` is their count.  The pivot rows are in
echelon form and span the row space, so the unit vectors of the other
columns complete it to the whole space.  That is what clearing needs:
``algebroid._cleared_rank`` builds no row of d^s on a lead of
im d^(s-1), since d^s vanishes there.

``row_reduce`` is plain Gauss-Jordan on rational rows, and ``matrix_rank``,
the dense oracle, counts its pivots: ``verify`` and
``algebroid.invariants_rank_oracle`` call it as the independent route for
ranks, which shares no step with ``sparse_leads``.  ``invert_matrix``
row-reduces [A | I]; only ``verify`` calls it, to check the inverse tables
of ``sym``, one substitution solve per unit vector, and its h conversions.
"""

from math import gcd

from .errors import DomainError
from .scalars import quotient, rational


def _primitive(row):
    """Divide a nonempty integer row by the gcd of its entries."""
    content = gcd(*row.values())
    if content != 1:
        row = {j: c // content for j, c in row.items()}
    return row


def sparse_leads(rows):
    """The column labels that lead the pivot rows of a fraction-free
    elimination of ``{column: int}`` rows over Q.

    Each row is divided by its content as it is taken.  The columns are
    relabelled sparsest first and the rows taken shortest first; a row
    shorter than the pivot of its lead column takes its place.
    The pivot rows end in echelon form in the relabelled order and span the
    row space, so there is one lead per unit of rank, and the unit vectors
    of the columns that are not leads complete the row space to the whole
    space.  The input dicts are not modified.
    """
    counts = {}
    for row in rows:
        for j in row:
            counts[j] = counts.get(j, 0) + 1
    labels = sorted(counts, key=lambda j: (counts[j], j))
    order = {j: k for k, j in enumerate(labels)}
    pivots = {}  # leading column -> row whose first nonzero is there
    for row in sorted((_primitive({order[j]: c for j, c in row.items()})
                       for row in rows if row), key=len):
        while row:
            lead = min(row)
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = row
                break
            if len(row) < len(pivot):
                pivots[lead], row, pivot = row, pivot, row
            g = gcd(row[lead], pivot[lead])
            a, b = pivot[lead] // g, row[lead] // g
            if a < 0:
                a, b = -a, -b
            # a*row - b*pivot cancels the lead column; a = 1 needs no scaling.
            if a != 1:
                row = {j: a * c for j, c in row.items()}
            for j, c in pivot.items():
                v = row.get(j, 0) - b * c
                if v:
                    row[j] = v
                else:
                    del row[j]
            if row:
                row = _primitive(row)
    return {labels[k] for k in pivots}


def sparse_rank(rows):
    """Rank over Q of a matrix given as ``{column: int}`` dicts of nonzeros."""
    return len(sparse_leads(rows))


def row_reduce(rows):
    """Gauss-Jordan on a list of equal-length rational rows: the reduced row
    echelon form, entries in the canonical form of ``scalars.rational``, and
    its pivot columns in order.  The input rows are not modified."""
    m = [list(map(rational, r)) for r in rows]
    pivots = []
    for col in range(len(m[0]) if m else 0):
        top = len(pivots)
        pivot = next((r for r in range(top, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        m[top], m[pivot] = m[pivot], m[top]
        inv = quotient(1, m[top][col])
        m[top] = [rational(x * inv) for x in m[top]]
        for r in range(len(m)):
            if r != top and m[r][col]:
                f = m[r][col]
                m[r] = [rational(a - f * b) for a, b in zip(m[r], m[top])]
        pivots.append(col)
    return m, pivots


def matrix_rank(rows):
    """Rank over Q of a list of equal-length rational rows: the pivot count
    of ``row_reduce``, the dense oracle for ``sparse_rank``."""
    return len(row_reduce(rows)[1])


def invert_matrix(rows):
    """Inverse of a square rational matrix via Gauss-Jordan on [A | I]."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise DomainError("matrix is not square")
    reduced, pivots = row_reduce([list(r) + [int(i == j) for j in range(n)]
                                  for i, r in enumerate(rows)])
    if pivots != list(range(n)):
        raise DomainError("matrix is singular")
    return [row[n:] for row in reduced]
