"""Exact linear algebra over the rationals.

Just the two routines the rest of the package needs: the rank of a matrix
(for cohomology dimensions of the cobar complexes) and the inverse of a
square change-of-basis matrix.

The cobar differentials are sparse with integer entries, so ``matrix_rank``
works fraction-free: each row is scaled to a primitive integer vector stored
as a ``{column: int}`` dict, and forward elimination cross-multiplies by
gcd-reduced pivots (fraction-free in the spirit of Bareiss, Math. Comp. 22,
1968) and divides every new row by its content, which keeps the integers
small.  Rank needs neither back-substitution nor normalised pivots.  All
arithmetic is exact ``int``; ``verify`` keeps dense Fraction Gauss-Jordan as
the independent route.
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


def matrix_rank(rows):
    """Rank over Q of a matrix given as a list of equal-length rational rows."""
    pivots = {}  # leading column -> primitive row whose first nonzero is there
    for values in rows:
        row = _integer_row(values)
        while row:
            lead = min(row)
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = row
                break
            g = gcd(row[lead], pivot[lead])
            a, b = pivot[lead] // g, row[lead] // g
            # a*row - b*pivot cancels the lead column.
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
