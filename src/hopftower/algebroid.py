"""Split Hopf algebroids and their Amitsur (cobar) cosimplicial complexes.

Two algebroids are wired up: symmetric functions coacted on by the
commutative diffeomorphism algebra, and the Z-algebra coacted on by its own
renormalization coproduct.  Level n of the cosimplicial object is
A (x) H^(x n); the cofaces apply the coaction to the base slot, the
coproduct of H to an inner slot, or append a unit slot at the end, and the
differential is their alternating sum.

Cohomology ranks are computed over the rationals on the normalized
subcomplex (all H slots of positive weight), one weight at a time, by exact
Gaussian elimination.  Degrees 0 and 1 and modest weights are supported;
everything else raises a capability error rather than grinding.
"""

from . import structures
from .diffeo import bfk_coproduct, coaction_sym, fdb_coproduct
from .errors import CapabilityError, DomainError
from .exactlinalg import matrix_rank
from .linear import Tensor, add_term
from .nsym import NSymElement
from .scalars import ONE, ZERO

LEVEL_BOUND = 2
WEIGHT_BOUND = 5


class SplitAlgebroid:
    """Bundle of the data the cobar machinery needs for one algebroid: the
    tags of the base algebra and the Hopf algebra, the coaction and the
    coproduct of the Hopf algebra."""

    __slots__ = ("name", "base", "hopf", "coaction", "h_coproduct")

    def __init__(self, name, base, hopf, coaction, h_coproduct):
        self.name = name
        self.base = base
        self.hopf = hopf
        self.coaction = coaction
        self.h_coproduct = h_coproduct

    base_cls = property(lambda self: structures.ALGEBRAS[self.base].cls)
    hopf_cls = property(lambda self: structures.ALGEBRAS[self.hopf].cls)
    base_indices = property(lambda self: structures.ALGEBRAS[self.base].indices)
    h_indices = property(lambda self: structures.ALGEBRAS[self.hopf].indices)

    def base_element(self, idx, coeff=1):
        return structures.ALGEBRAS[self.base].element({idx: coeff})

    def hopf_element(self, idx, coeff=1):
        return structures.ALGEBRAS[self.hopf].element({idx: coeff})

    def as_level(self, x):
        """Wrap a plain base element as a level-0 (arity-1) tensor."""
        if isinstance(x, Tensor):
            return x
        return Tensor((self.base_cls,), {(idx,): c for idx, c in x.terms.items()})

    def __repr__(self):
        return "SplitAlgebroid(%s)" % self.name


SB = SplitAlgebroid("S.B", "sym", "fdb", coaction_sym, fdb_coproduct)
NN = SplitAlgebroid("N.N", "nsym", "nsym", bfk_coproduct, bfk_coproduct)

ALGEBROIDS = {"S.B": SB, "N.N": NN}


def coface(alg, x, i):
    """The i-th coface on a level-n element (0 <= i <= n+1)."""
    x = alg.as_level(x)
    n = x.arity - 1
    if not 0 <= i <= n + 1:
        raise DomainError("coface index %d out of range for level %d" % (i, n))
    if i == 0:
        return x.apply(0, lambda idx: alg.coaction(alg.base_element(idx)),
                       (alg.base_cls, alg.hopf_cls))
    if i <= n:
        return x.apply(i, lambda idx: alg.h_coproduct(alg.hopf_element(idx)),
                       (alg.hopf_cls, alg.hopf_cls))
    return x.insert_slot(n + 1, alg.hopf_cls)


def differential(alg, x, max_level=LEVEL_BOUND):
    """Alternating sum of cofaces, level n -> n+1; bounded to keep sizes sane."""
    x = alg.as_level(x)
    n = x.arity - 1
    if n > max_level:
        raise CapabilityError("cobar differential bounded at level %d (got %d)"
                              % (max_level, n))
    total = None
    for i in range(n + 2):
        piece = coface(alg, x, i)
        if i % 2:
            piece = -piece
        total = piece if total is None else total + piece
    return total


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


# -- normalized complex and ranks -----------------------------------------

def _level_basis(alg, w, s):
    """Basis keys of the weight-w normalized level-s piece, in a fixed order."""
    if s == 0:
        return [(lam,) for lam in alg.base_indices(w)]
    keys = []
    for base_w in range(w - s, -1, -1):
        rest = w - base_w
        for split in _positive_splits(rest, s):
            for lam in alg.base_indices(base_w):
                parts_choices = [[lam]]
                for piece in split:
                    parts_choices = [prev + [mu]
                                     for prev in parts_choices
                                     for mu in alg.h_indices(piece)]
                keys.extend(tuple(choice) for choice in parts_choices)
    return keys


def _positive_splits(total, parts):
    """Ordered lists of `parts` positive integers summing to `total`."""
    if parts == 0:
        return [()] if total == 0 else []
    if total < parts:
        return []
    out = []
    for first in range(1, total - parts + 2):
        for rest in _positive_splits(total - first, parts - 1):
            out.append((first,) + rest)
    return out


def _normalized_image(alg, x):
    """Drop terms with a unit in any H slot (projection to normalized cochains)."""
    out = {}
    for key, c in x.terms.items():
        if all(idx != () for idx in key[1:]):
            out[key] = c
    return x._new(out)


def differential_matrix(alg, w, s):
    """Matrix of the normalized differential level s -> s+1 in weight w.

    Rows are indexed by the level-s basis, columns by the level-(s+1) basis.
    """
    dom = _level_basis(alg, w, s)
    cod = _level_basis(alg, w, s + 1)
    col = {key: j for j, key in enumerate(cod)}
    level = Tensor((alg.base_cls,) + (alg.hopf_cls,) * s)
    rows = []
    for key in dom:
        img = _normalized_image(alg, differential(alg, level._new({key: ONE})))
        row = [ZERO] * len(cod)
        for k, c in img.terms.items():
            row[col[k]] = c
        rows.append(row)
    return dom, cod, rows


def cohomology_rank(alg, w, s, weight_bound=WEIGHT_BOUND):
    """Rank over Q of the degree-s cohomology of the weight-w normalized complex."""
    if isinstance(alg, str):
        alg = ALGEBROIDS[alg]
    if s not in (0, 1):
        raise CapabilityError("cohomology degree %d not supported (only 0 and 1)" % s)
    if w < 0:
        raise DomainError("negative weight")
    if w > weight_bound:
        raise CapabilityError("cohomology weight bounded at %d (got %d)"
                              % (weight_bound, w))
    dom0, _, d0 = differential_matrix(alg, w, 0)
    rank_d0 = matrix_rank(d0)
    if s == 0:
        return len(dom0) - rank_d0
    dom1, _, d1 = differential_matrix(alg, w, 1)
    rank_d1 = matrix_rank(d1)
    return len(dom1) - rank_d1 - rank_d0


def invariants_rank_oracle(alg, w):
    """Independent H^0 computation: solve coaction(x) = x (x) 1 directly."""
    if isinstance(alg, str):
        alg = ALGEBROIDS[alg]
    basis = alg.base_indices(w)
    residuals = []
    for lam in basis:
        x = alg.base_element(lam)
        diff = alg.coaction(x) - Tensor.of(x, alg.hopf_element(()))
        residuals.append(diff)
    keys = sorted({k for r in residuals for k in r.terms})
    col = {k: j for j, k in enumerate(keys)}
    rows = []
    for r in residuals:
        row = [ZERO] * len(keys)
        for k, c in r.terms.items():
            row[col[k]] = c
        rows.append(row)
    return len(basis) - matrix_rank(rows)


def right_unit_functional(f, I):
    """Curried renormalization coproduct: pair the right leg against M_I.

    For f in the Z-algebra, returns the sum over Delta f of
    <Z-part on the right, M_I> times the left part.
    """
    if isinstance(f, int):
        f = NSymElement({(f,): ONE})
    I = tuple(I)
    out = {}
    for (left, right), c in bfk_coproduct(f).terms.items():
        if right == I:
            add_term(out, left, c)
    return NSymElement(out)
