"""Exact linear algebra over the rationals.

Just what the rest of the package needs: the rank of a matrix, sparse or
dense (for cohomology dimensions of the cobar complexes), and the inverse of
a square change-of-basis matrix.

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
All arithmetic is exact ``int``; ``verify`` keeps dense Fraction Gauss-Jordan
as the independent route.
``invert_matrix`` is plain Gauss-Jordan on lists of rational rows, each entry
kept in the canonical form of ``scalars.rational`` so that integer matrices
with unit pivots are inverted in ``int`` arithmetic throughout.
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


def invert_matrix(rows):
    """Inverse of a square rational matrix via Gauss-Jordan on [A | I]."""
    n = len(rows)
    aug = []
    for i, r in enumerate(rows):
        if len(r) != n:
            raise DomainError("matrix is not square")
        aug.append(list(map(rational, r)) + [int(i == j) for j in range(n)])
    for col in range(n):
        pivot = None
        for r in range(col, n):
            if aug[r][col]:
                pivot = r
                break
        if pivot is None:
            raise DomainError("matrix is singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = quotient(1, aug[col][col])
        aug[col] = [rational(x * inv) for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [rational(a - f * b) for a, b in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]
