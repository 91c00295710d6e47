"""Split Hopf algebroids and their Amitsur (cobar) cosimplicial complexes.

Two algebroids are wired up: symmetric functions coacted on by the
commutative diffeomorphism algebra, and the Z-algebra coacted on by its own
renormalization coproduct.  Level n of the cosimplicial object is
A (x) H^(x n); the cofaces apply the coaction to the base slot, the
coproduct of H to an inner slot, or append a unit slot at the end, and the
differential is their alternating sum.

``coface`` builds one coface as a tensor.  The differential does not: one
signed accumulator, ``_cofaces_into``, adds sum_i (-1)^i d_i of a term dict
straight into one raw dict, splicing the coaction of the base index, the
coproduct of each inner slot and the trailing unit slot key by key, and the
result is settled once.

Cohomology ranks are computed over the rationals on the normalized
subcomplex (all H slots of positive weight), one weight at a time; it has
the cohomology of the whole complex (Ravenel, Complex Cobordism, App. A1.2).
Its differential is built directly: the accumulator, in normalized mode,
skips every term with a unit H slot and the last coface, which only appends
one.  ``differential_rows`` maps each image to codomain columns as a
primitive ``{column: int}`` row, and ``exactlinalg.sparse_rank`` eliminates
the rows sparsest column first.  ``differential_matrix`` keeps the slow
route: dense rows from the ``coface`` tensors, summed and then projected.
Degrees 0 and 1 and modest weights are supported; everything else raises a
capability error rather than grinding.
"""

from . import structures
from .diffeo import bfk_coproduct, coaction_sym, fdb_coproduct
from .errors import AlgebraMismatchError, CapabilityError, DomainError
from .exactlinalg import _primitive, matrix_rank, sparse_rank
from .linear import Tensor, add_term, settle
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
        """``x`` as a cochain: a base element becomes a level-0 (arity-1)
        tensor in the slot basis, and a tensor must be over (base, hopf, ...,
        hopf); anything else raises ``AlgebraMismatchError``."""
        if type(x) is self.base_cls:
            return Tensor.of(x)
        if (type(x) is not Tensor or x.factors[:1] != (self.base_cls,)
                or any(f is not self.hopf_cls for f in x.factors[1:])):
            raise AlgebraMismatchError("a %s is not a cochain of %s"
                                       % (type(x).__name__, self.name))
        return x

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


def _cofaces_into(out, alg, terms, n, normalized):
    """Add sum_i (-1)^i d_i(terms), i = 0..n+1, of level-n ``terms`` into the
    raw dict ``out`` (zeros kept until ``settle``).

    With ``normalized`` every term with a unit H slot is skipped, and so is
    the last coface, all of whose terms end in a unit slot.
    """
    get = out.get
    for key, c in terms.items():
        if normalized and () in key[1:]:
            continue
        tail = key[1:]
        for (a, g), cc in alg.coaction(alg.base_element(key[0])).terms.items():
            if g or not normalized:
                k = (a, g) + tail
                out[k] = get(k, 0) + c * cc
        for i in range(1, n + 1):
            signed = -c if i % 2 else c
            head, rest = key[:i], key[i + 1:]
            for (l, r), cc in alg.h_coproduct(alg.hopf_element(key[i])).terms.items():
                if l and r or not normalized:
                    k = head + (l, r) + rest
                    out[k] = get(k, 0) + signed * cc
        if not normalized:
            k = key + ((),)
            out[k] = get(k, 0) + (c if n % 2 else -c)
    return out


def differential(alg, x, max_level=LEVEL_BOUND):
    """Alternating sum of cofaces, level n -> n+1; bounded to keep sizes sane."""
    x = alg.as_level(x)
    n = x.arity - 1
    if n > max_level:
        raise CapabilityError("cobar differential bounded at level %d (got %d)"
                              % (max_level, n))
    return x._new(settle(_cofaces_into({}, alg, x.terms, n, False)),
                  (alg.base_cls,) + (alg.hopf_cls,) * (n + 1))


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
    Each dense rational row is the alternating sum of the ``coface`` tensors,
    projected to normalized cochains: the slow route ``verify`` checks
    ``differential_rows`` against.
    """
    dom = _level_basis(alg, w, s)
    cod = _level_basis(alg, w, s + 1)
    col = {key: j for j, key in enumerate(cod)}
    level = Tensor((alg.base_cls,) + (alg.hopf_cls,) * s)
    rows = []
    for key in dom:
        x = level._new({key: ONE})
        img = coface(alg, x, 0)
        for i in range(1, s + 2):
            img = img - coface(alg, x, i) if i % 2 else img + coface(alg, x, i)
        row = [ZERO] * len(cod)
        for k, c in _normalized_image(alg, img).terms.items():
            row[col[k]] = c
        rows.append(row)
    return dom, cod, rows


def differential_rows(alg, w, s):
    """The normalized differential level s -> s+1 in weight w as sparse rows.

    Returns ``(dom, cod, rows)`` like ``differential_matrix``, but each row is
    the primitive ``{column: int}`` dict of its nonzeros (the structure
    constants of both algebroids are integers), built by the accumulator.
    """
    dom = _level_basis(alg, w, s)
    cod = _level_basis(alg, w, s + 1)
    col = {key: j for j, key in enumerate(cod)}
    rows = []
    for key in dom:
        row = {col[k]: c for k, c in _cofaces_into({}, alg, {key: 1}, s, True).items() if c}
        rows.append(_primitive(row) if row else row)
    return dom, cod, rows


def _algebroid(alg):
    """The algebroid ``alg`` names, or ``alg`` itself."""
    if not isinstance(alg, str):
        return alg
    if alg not in ALGEBROIDS:
        raise DomainError("unknown algebroid %r (known: %s)" % (alg, list(ALGEBROIDS)))
    return ALGEBROIDS[alg]


def cohomology_rank(alg, w, s, weight_bound=WEIGHT_BOUND):
    """Rank over Q of the degree-s cohomology of the weight-w normalized complex."""
    alg = _algebroid(alg)
    if s not in (0, 1):
        raise CapabilityError("cohomology degree %d not supported (only 0 and 1)" % s)
    if w < 0:
        raise DomainError("negative weight")
    if w > weight_bound:
        raise CapabilityError("cohomology weight bounded at %d (got %d)"
                              % (weight_bound, w))
    dom0, _, d0 = differential_rows(alg, w, 0)
    rank_d0 = sparse_rank(d0)
    if s == 0:
        return len(dom0) - rank_d0
    dom1, _, d1 = differential_rows(alg, w, 1)
    return len(dom1) - sparse_rank(d1) - rank_d0


def invariants_rank_oracle(alg, w):
    """Independent H^0 computation: solve coaction(x) = x (x) 1 directly."""
    alg = _algebroid(alg)
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
