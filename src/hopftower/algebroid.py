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
result is settled once.  The accumulator builds no element: it reads each
slot index's image from the word-image memo of ``linear`` (``image_items``
of the algebroid's letter maps ``base_gen`` and ``hopf_gen``).  ``coface``,
``differential_matrix``, ``invariants_rank_oracle`` and the ``verify``
suites keep calling the public ``coaction`` and ``h_coproduct`` on built
elements, so the slow route that checks the fast one shares none of its
reads.

Cohomology ranks are computed over the rationals on the normalized
subcomplex (all H slots of positive weight), one weight at a time; it has
the cohomology of the whole complex (Ravenel, Complex Cobordism, App. A1.2).
Its level-s basis splits the H weight over the s slots by
``indices.compositions_of``.  Its differential is built directly: the
accumulator, in normalized mode, skips every term with a unit H slot and the
last coface, which only appends one.  ``differential_rows`` maps each image
to codomain columns as a primitive ``{column: int}`` row, and
``exactlinalg.sparse_rank`` eliminates the rows sparsest column first.
``differential_matrix`` keeps the slow route: dense rows from the ``coface``
tensors, summed and then projected.  One formula, dim C^s - rank d^s -
rank d^(s-1), gives the rank in every degree; degrees 0 and 1 and modest
weights are supported.  A negative degree or weight is a domain error, and a
larger one raises a capability error rather than grinding.
"""

from itertools import product

from . import structures
from .diffeo import (_bfk_coproduct_gen, _coaction_gen, _fdb_coproduct_gen,
                     bfk_coproduct, coaction_sym, fdb_coproduct)
from .errors import AlgebraMismatchError, CapabilityError, DomainError
from .exactlinalg import _primitive, row_reduce, sparse_rank
from .indices import compositions_of
from .linear import Tensor, image_items, settle
from .nsym import NSymElement
from .scalars import ONE, ZERO

LEVEL_BOUND = 2
WEIGHT_BOUND = 5


class SplitAlgebroid:
    """Bundle of the data the cobar machinery needs for one algebroid: the
    tags of the base algebra and the Hopf algebra, the coaction and the
    coproduct of the Hopf algebra, and the letter maps ``linear.on_words``
    extends to them (``base_gen`` on e-basis or word indices of the base,
    ``hopf_gen`` on indices of H)."""

    __slots__ = ("name", "base", "hopf", "coaction", "h_coproduct",
                 "base_gen", "hopf_gen")

    def __init__(self, name, base, hopf, coaction, h_coproduct, base_gen, hopf_gen):
        self.name = name
        self.base = base
        self.hopf = hopf
        self.coaction = coaction
        self.h_coproduct = h_coproduct
        self.base_gen = base_gen
        self.hopf_gen = hopf_gen

    base_cls = property(lambda self: structures.ALGEBRAS[self.base].cls)
    hopf_cls = property(lambda self: structures.ALGEBRAS[self.hopf].cls)
    base_indices = property(lambda self: structures.ALGEBRAS[self.base].indices)
    h_indices = property(lambda self: structures.ALGEBRAS[self.hopf].indices)

    def base_element(self, idx):
        return structures.ALGEBRAS[self.base].element({idx: 1})

    def hopf_element(self, idx):
        return structures.ALGEBRAS[self.hopf].element({idx: 1})

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


SB = SplitAlgebroid("S.B", "sym", "fdb", coaction_sym, fdb_coproduct,
                    _coaction_gen, _fdb_coproduct_gen)
NN = SplitAlgebroid("N.N", "nsym", "nsym", bfk_coproduct, bfk_coproduct,
                    _bfk_coproduct_gen, _bfk_coproduct_gen)

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
    the last coface, all of whose terms end in a unit slot.  Each slot's
    image is read from the word-image memo through ``image_items``: slot
    indices are e-basis (or word) indices, on which the public coaction and
    coproduct are exactly ``on_words`` of these letter maps.
    """
    get = out.get
    base_gen, hopf_gen = alg.base_gen, alg.hopf_gen
    for key, c in terms.items():
        if normalized and () in key[1:]:
            continue
        tail = key[1:]
        for (a, g), cc in image_items(base_gen, key[0]):
            if g or not normalized:
                k = (a, g) + tail
                old = get(k)
                out[k] = c * cc if old is None else old + c * cc
        for i in range(1, n + 1):
            signed = -c if i % 2 else c
            head, rest = key[:i], key[i + 1:]
            for (l, r), cc in image_items(hopf_gen, key[i]):
                if l and r or not normalized:
                    k = head + (l, r) + rest
                    old = get(k)
                    out[k] = signed * cc if old is None else old + signed * cc
        if not normalized:
            k, v = key + ((),), c if n % 2 else -c
            old = get(k)
            out[k] = v if old is None else old + v
    return out


def differential(alg, x):
    """Alternating sum of cofaces, level n -> n+1; bounded to keep sizes sane."""
    x = alg.as_level(x)
    n = x.arity - 1
    if n > LEVEL_BOUND:
        raise CapabilityError("cobar differential bounded at level %d (got %d)"
                              % (LEVEL_BOUND, n))
    return x._new(settle(_cofaces_into({}, alg, x.terms, n, False)),
                  (alg.base_cls,) + (alg.hopf_cls,) * (n + 1))


# -- normalized complex and ranks -----------------------------------------

def _level_basis(alg, w, s):
    """Basis keys of the weight-w normalized level-s piece: base weight
    falling, then the H weights of the s slots in increasing lex order, then
    the enumeration order of the indices (``sparse_rank`` breaks ties by
    column, so the order is part of the result)."""
    return [key for base_w in range(w - s, -1, -1)
            for split in reversed(compositions_of(w - base_w)) if len(split) == s
            for key in product(alg.base_indices(base_w), *map(alg.h_indices, split))]


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
        for k, c in img.terms.items():
            if () not in k[1:]:
                row[col[k]] = c
        rows.append(row)
    return dom, cod, rows


def differential_rows(alg, w, s):
    """The normalized differential level s -> s+1 in weight w as sparse rows.

    Returns ``(dom, cod, rows)`` like ``differential_matrix``, but each row is
    the primitive ``{column: int}`` dict of its nonzeros (the structure
    constants of both algebroids are integers), built by the accumulator.
    """
    dom, cod = _level_basis(alg, w, s), _level_basis(alg, w, s + 1)
    return dom, cod, _sparse_rows(alg, dom, cod, s)


def _sparse_rows(alg, dom, cod, s):
    """The rows of ``differential_rows`` on the level-s basis ``dom`` and the
    level-(s+1) basis ``cod``, built once by the caller."""
    col = {key: j for j, key in enumerate(cod)}
    rows = []
    for key in dom:
        row = {col[k]: c for k, c in _cofaces_into({}, alg, {key: 1}, s, True).items() if c}
        rows.append(_primitive(row) if row else row)
    return rows


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
    if s < 0:
        raise DomainError("negative degree")
    if w < 0:
        raise DomainError("negative weight")
    if s not in (0, 1):
        raise CapabilityError("cohomology degree %d not supported (only 0 and 1)" % s)
    if w > weight_bound:
        raise CapabilityError("cohomology weight bounded at %d (got %d)"
                              % (weight_bound, w))
    # each level basis is built once: level s is the domain of d^s and the
    # codomain of d^(s-1)
    dom, cod = _level_basis(alg, w, s), _level_basis(alg, w, s + 1)
    rank = len(dom) - sparse_rank(_sparse_rows(alg, dom, cod, s))
    if s:
        rank -= sparse_rank(_sparse_rows(alg, _level_basis(alg, w, s - 1), dom, s - 1))
    return rank


def invariants_rank_oracle(alg, w):
    """Independent H^0 computation: solve coaction(x) = x (x) 1 directly.

    The rank of the residual rows is the pivot count of dense Gauss-Jordan
    (``exactlinalg.row_reduce``), not the sparse elimination that
    ``cohomology_rank`` uses."""
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
    return len(basis) - len(row_reduce(rows)[1])


def right_unit_functional(f, I):
    """Curried renormalization coproduct: pair the right leg against M_I.

    For f in the Z-algebra, returns the sum over Delta f of
    <Z-part on the right, M_I> times the left part.
    """
    if isinstance(f, int):
        f = NSymElement({(f,): ONE})
    I = tuple(I)
    # the terms with right slot I have distinct left slots: nothing to merge
    return NSymElement({left: c for (left, right), c in bfk_coproduct(f).terms.items()
                        if right == I})
