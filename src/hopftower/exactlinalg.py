"""Exact linear algebra over the rationals.

Just what the rest of the package needs: the rank of a matrix, sparse or
dense (for cohomology dimensions of the cobar complexes), and, as an oracle
only, the inverse of a square matrix.

The cobar differentials are sparse with integer entries, so rank is computed
fraction-free on sparse rows.  ``sparse_rank`` takes each row as a
``{column: int}`` dict of its nonzeros.  It first counts the nonzeros of
every column and relabels the columns sparsest first, then eliminates the
rows shortest first; rank changes under neither permutation, and a lead
column that few rows share leaves little fill-in behind (the static form of
Markowitz's ordering, Management Sci. 3, 1957).  During elimination a row
that is shorter than the pivot of its lead column becomes that pivot, and
the old pivot is reduced in its place, so the rows that are subtracted
again and again stay short.  Forward elimination
cross-multiplies by gcd-reduced pivots (fraction-free in the spirit of
Bareiss, Math. Comp. 22, 1968) and divides every new row by its content,
which keeps the integers small.  Rank needs neither back-substitution nor
normalised pivots.  ``matrix_rank`` is the dense front door: it scales each
rational row to a primitive integer row and hands them to ``sparse_rank``.
All arithmetic is exact ``int``.
``row_reduce`` is plain Gauss-Jordan on rational rows, entries in the
canonical form of ``scalars.rational``; ``verify`` and
``algebroid.invariants_rank_oracle`` count its pivots as the independent
route for ranks.  ``invert_matrix`` row-reduces [A | I].  No
conversion calls it: ``sym`` solves its triangular transition tables by
substitution, and ``verify`` checks those solves against this inverse.
"""

from math import gcd, lcm

from .errors import DomainError
from .scalars import quotient, rational


def _primitive(row):
    """Divide a nonempty integer row by the gcd of its entries."""
    content = gcd(*row.values())
    if content != 1:
        row = {j: c // content for j, c in row.items()}
    return row


def _integer_row(values):
    """A rational row as a primitive ``{column: int}`` dict of its nonzeros."""
    entries = [(j, x) for j, x in enumerate(values) if x]
    if not entries:
        return {}
    scale = lcm(*(x.denominator for _, x in entries))
    return _primitive({j: x.numerator * (scale // x.denominator)
                       for j, x in entries})


def sparse_rank(rows):
    """Rank over Q of a matrix given as ``{column: int}`` dicts of nonzeros.

    The columns are relabelled sparsest first and the rows taken shortest
    first; a row shorter than the pivot of its lead column takes its place.
    The input dicts are not modified.
    """
    counts = {}
    for row in rows:
        for j in row:
            counts[j] = counts.get(j, 0) + 1
    order = {j: k for k, j in enumerate(sorted(counts, key=lambda j: (counts[j], j)))}
    pivots = {}  # leading column -> row whose first nonzero is there
    for row in sorted(({order[j]: c for j, c in row.items()} for row in rows if row),
                      key=len):
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
    return len(pivots)


def matrix_rank(rows):
    """Rank over Q of a matrix given as a list of equal-length rational rows."""
    return sparse_rank([_integer_row(r) for r in rows])


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
