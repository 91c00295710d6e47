"""Split Hopf algebroids and their Amitsur (cobar) cosimplicial complexes.

Two algebroids are wired up, each by one line naming the ``structures``
rows of its coaction and coproduct: symmetric functions coacted on by the
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
elements.  That slow route shares the generator images and the word images
with the fast one: ``coaction_sym``, ``fdb_coproduct`` and ``bfk_coproduct``
extend over words through ``linear.on_words``, which reads the same
``word_image`` entries that ``image_items`` gives the accumulator.  What the
slow route checks independently is the rest: the splicing of those images
into level keys, the projection onto normalized cochains, and the
elimination.

Cohomology ranks are computed over the rationals on the normalized
subcomplex (all H slots of positive weight), one weight at a time; it has
the cohomology of the whole complex (Ravenel, Complex Cobordism, App. A1.2).
Its level-s basis splits the H weight over the s slots by
``indices.compositions_of``.  Its differential is the full one projected:
the accumulator builds the whole differential of a basis key, and the rows
keep the keys of the codomain basis, refusing any other key that has no unit
H slot.  ``differential_rows`` maps each image
to codomain columns as the exact ``{column: int}`` row of d, and
``exactlinalg.sparse_leads`` divides the rows by their content and
eliminates them sparsest column first.
``differential_matrix`` keeps the slow route: dense rows from the ``coface``
tensors, summed and then projected.

``_cleared_rank`` is the one rank loop, over two callables: the basis of
level t and the integer rows of d^t on a list of level-t keys.  It clears,
as persistent-homology codes do (Chen and Kerber, EuroCG 2011; Bauer, Kerber
and Reininghaus, 2014).  It walks the degrees up from 0; the leads of the
pivot rows of d^(t-1) pick out level-t keys whose unit vectors, with
im d^(t-1), span level t, and since d^t d^(t-1) = 0, the rank of d^t is the
rank of its rows on the other keys.  So no row on a lead is built, and H^s
is the number of kept level-s keys less the leads of d^s.  ``cobar_rank``
runs it on the normalized cobar complex.

``ce_rank`` runs it on the Chevalley-Eilenberg cochains Lambda^s g^* (x) A,
for an algebroid whose Hopf class is commutative.  Such an H is the graded
dual of U(g) over Q, g spanned by the xi_n dual to its generators t_n
(Milnor and Moore, Ann. of Math. 81, 1965), so the cobar cohomology is
H^*(g; A) (Ravenel, App. A1).  The bracket [xi_a, xi_b] is read off the
``hopf_gen`` image of t_(a+b), and xi_n acts on a base generator by the
terms of its ``base_gen`` image whose right slot is t_n, a . xi =
(id (x) xi) psi(a) with no sign, extended to monomials as a derivation.  The
memos are module-level ``lru_cache``s that read ``image_items``, so no
element is built.  For S.B, g is L_1 and the CE cochains in degrees 1-3 at
weight 12 are 6, 33 and 272 times fewer than the cobar levels; with trivial
coefficients (``trivial=True``) the ranks are Goncharova's (Funct. Anal.
Appl. 7, 1973).  A Hopf class that is not commutative is refused.

``cohomology_rank`` takes the CE route for a commutative Hopf class (S.B)
up to weight 20, and the cobar route otherwise (N.N) up to weight 5, in any
degree: a degree above the weight is 0 without a walk, as C^s is empty.
``cobar_rank`` and the dense ``differential_matrix`` stay the oracles in
``verify``, and ``invariants_rank_oracle``, counted by the dense
``exactlinalg.matrix_rank``, is H^0's.  A negative degree or weight is a
domain error, and a weight above the bound raises a capability error.
"""

from bisect import bisect
from functools import lru_cache, partial
from itertools import product

from . import structures
from .diffeo import _bfk_coproduct_gen, _coaction_gen, _fdb_coproduct_gen, bfk_coproduct
from .errors import AlgebraMismatchError, CapabilityError, DomainError
from .exactlinalg import matrix_rank, sparse_leads
from .indices import compositions_of, natural
from .linear import CommutativeElement, Tensor, image_items, settle
from .nsym import NSymElement

WEIGHT_BOUND = 5
CE_WEIGHT_BOUND = 20


class SplitAlgebroid:
    """Bundle of the data the cobar machinery needs for one algebroid: the
    labels of the ``structures.STRUCTURES`` rows of its coaction and of the
    coproduct of its Hopf algebra, and the letter maps ``linear.on_words``
    extends to them (``base_gen`` on e-basis or word indices of the base,
    ``hopf_gen`` on indices of H).  The tags ``base`` and ``hopf`` are read
    off the rows once; ``coaction`` and ``h_coproduct`` read them per call."""

    __slots__ = ("name", "coaction_row", "coproduct_row", "base", "hopf",
                 "base_gen", "hopf_gen")

    def __init__(self, name, coaction_row, coproduct_row, base_gen, hopf_gen):
        rows = structures.STRUCTURES
        for label in (coaction_row, coproduct_row):
            if not isinstance(label, str) or label not in rows:
                raise DomainError("unknown structure %r (known: %s)" % (label, list(rows)))
        self.name = name
        self.coaction_row, self.coproduct_row = coaction_row, coproduct_row
        self.base, self.hopf = rows[coaction_row].algebra, rows[coproduct_row].algebra
        self.base_gen = base_gen
        self.hopf_gen = hopf_gen

    coaction = property(lambda self: structures.STRUCTURES[self.coaction_row].coproduct)
    h_coproduct = property(lambda self: structures.STRUCTURES[self.coproduct_row].coproduct)
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


SB = SplitAlgebroid("S.B", "sym-fdb-coaction", "fdb", _coaction_gen, _fdb_coproduct_gen)
NN = SplitAlgebroid("N.N", "bfk", "bfk", _bfk_coproduct_gen, _bfk_coproduct_gen)

ALGEBROIDS = {"S.B": SB, "N.N": NN}


def coface(alg, x, i):
    """The i-th coface on a level-n element (0 <= i <= n+1)."""
    x = alg.as_level(x)
    n = x.arity - 1
    if natural(i, "coface index") > n + 1:
        raise DomainError("coface index %d out of range for level %d" % (i, n))
    if i == 0:
        return x.apply(0, lambda idx: alg.coaction(alg.base_element(idx)),
                       (alg.base_cls, alg.hopf_cls))
    if i <= n:
        return x.apply(i, lambda idx: alg.h_coproduct(alg.hopf_element(idx)),
                       (alg.hopf_cls, alg.hopf_cls))
    return x.insert_slot(n + 1, alg.hopf_cls)


def _cofaces_into(out, alg, terms, n):
    """Add sum_i (-1)^i d_i(terms), i = 0..n+1, of level-n ``terms`` into the
    raw dict ``out`` (zeros kept until ``settle``): one loop splices the image
    of each slot i <= n whole, as ``head + image + rest``, read from the
    word-image memo by ``image_items`` of ``base_gen`` at slot 0 and
    ``hopf_gen`` above (on slot indices the public coaction and coproduct are
    exactly ``on_words`` of these letter maps); the last coface appends a
    unit slot."""
    get = out.get
    gens = (alg.base_gen,) + (alg.hopf_gen,) * n
    for key, c in terms.items():
        for i, gen in enumerate(gens):
            signed = -c if i % 2 else c
            head, rest = key[:i], key[i + 1:]
            for image, cc in image_items(gen, key[i]):
                k = head + image + rest
                old = get(k)
                out[k] = signed * cc if old is None else old + signed * cc
        k, v = key + ((),), c if n % 2 else -c
        old = get(k)
        out[k] = v if old is None else old + v
    return out


def differential(alg, x):
    """Alternating sum of cofaces, level n -> n+1, at any level."""
    x = alg.as_level(x)
    n = x.arity - 1
    return x._new(settle(_cofaces_into({}, alg, x.terms, n)),
                  (alg.base_cls,) + (alg.hopf_cls,) * (n + 1))


# -- normalized complex and ranks -----------------------------------------

def _level_basis(alg, w, s):
    """Basis keys of the weight-w normalized level-s piece: base weight
    falling, then the H weights of the s slots in increasing lex order, then
    the enumeration order of the indices.  ``sparse_leads`` breaks ties by
    column, so the order is part of its result: which keys lead im d^(s-1),
    and so which rows of d^s ``cohomology_rank`` keeps, depends on the pivot
    choice, though the rank does not.  Both sizes go through ``natural``,
    the degree first."""
    s, w = natural(s, "degree"), natural(w, "weight")
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
        x = level._new({key: 1})
        img = coface(alg, x, 0)
        for i in range(1, s + 2):
            img = img - coface(alg, x, i) if i % 2 else img + coface(alg, x, i)
        row = [0] * len(cod)
        for k, c in img.terms.items():
            if () not in k[1:]:
                row[col[k]] = c
        rows.append(row)
    return dom, cod, rows


def differential_rows(alg, w, s):
    """The normalized differential level s -> s+1 in weight w as sparse rows.

    Returns ``(dom, cod, rows)`` like ``differential_matrix``, but each row is
    the ``{column: int}`` dict of its nonzeros, unscaled (the structure
    constants of both algebroids are integers), built by the accumulator.
    """
    dom, cod = _level_basis(alg, w, s), _level_basis(alg, w, s + 1)
    return dom, cod, _sparse_rows(alg, dom, cod, s)


def _sparse_rows(alg, dom, cod, s):
    """The rows of ``differential_rows`` on the level-s keys ``dom`` (the
    whole basis, or the keys that clearing keeps) into the level-(s+1) basis
    ``cod``, both built once by the caller: the full differential of each key,
    unscaled, projected onto normalized cochains by keeping the keys of
    ``cod``.  Only a key with a unit H slot may miss it; any other is
    refused, not dropped."""
    col = {key: j for j, key in enumerate(cod)}
    get = col.get
    rows = []
    for key in dom:
        row = {}
        for k, c in _cofaces_into({}, alg, {key: 1}, s).items():
            j = get(k)
            if j is not None:
                if c:
                    row[j] = c
            elif () not in k[1:]:
                raise DomainError("the differential of %r has the term %r outside the "
                                  "normalized level-%d basis" % (key, k, s + 1))
        rows.append(row)
    return rows


def _algebroid(alg):
    """The algebroid ``alg`` names, or ``alg`` itself."""
    if not isinstance(alg, str):
        return alg
    if alg not in ALGEBROIDS:
        raise DomainError("unknown algebroid %r (known: %s)" % (alg, list(ALGEBROIDS)))
    return ALGEBROIDS[alg]


def _cleared_rank(basis, rows, s):
    """H^s of a cochain complex given by ``basis(t)``, the basis of level t,
    and ``rows(keys, cod, t)``, the integer ``{column: int}`` rows of d^t on
    the level-t ``keys`` into the level-(t+1) basis ``cod``.

    Clearing: d^t vanishes on im d^(t-1), which the unit vectors off its
    leads complete to all of level t, so d^t is built and eliminated on the
    other keys only; each level basis is built once."""
    cod, leads = basis(0), set()
    for t in range(s + 1):
        dom, cod = cod, basis(t + 1)
        kept = [key for j, key in enumerate(dom) if j not in leads]
        leads = sparse_leads(rows(kept, cod, t))
    return len(kept) - len(leads)


def cobar_rank(alg, w, s):
    """H^s of the weight-w normalized cobar complex by the cleared loop, with
    no bound: the route of ``cohomology_rank`` for N.N, and S.B's oracle."""
    alg, s = _algebroid(alg), natural(s, "degree")
    return _cleared_rank(partial(_level_basis, alg, w), partial(_sparse_rows, alg), s)


def cohomology_rank(alg, w, s, weight_bound=WEIGHT_BOUND):
    """Rank over Q of the weight-w, degree-s cohomology of ``alg``, in any degree.

    An algebroid whose Hopf class is commutative takes ``ce_rank``; any other
    takes ``cobar_rank``.  ``weight_bound`` bounds the weight of the cobar
    route, and the CE route answers to at least ``CE_WEIGHT_BOUND``; the
    weight is the one bound, and a degree above it is 0."""
    alg = _algebroid(alg)
    s, w = natural(s, "degree"), natural(w, "weight")
    bound = natural(weight_bound, "weight_bound")
    lie = issubclass(alg.hopf_cls, CommutativeElement)
    if lie:
        bound = max(bound, CE_WEIGHT_BOUND)
    if w > bound:
        raise CapabilityError("cohomology weight bounded at %d (got %d)" % (bound, w))
    # a normalized cochain of degree s has weight >= s (a CE one s(s+1)/2): C^s is empty
    if s > w:
        return 0
    return (ce_rank if lie else cobar_rank)(alg, w, s)


# -- Chevalley-Eilenberg cochains -------------------------------------------

@lru_cache(maxsize=None)
def _bracket(hopf_gen, k):
    """The brackets of g landing in weight k: triples (a, b, c) with a < b,
    a + b = k and [xi_a, xi_b] = c xi_k, c nonzero.  c is xi_a * xi_b - xi_b *
    xi_a on t_k: the coefficient of t_a (x) t_b in its coproduct less that of
    t_b (x) t_a."""
    get = dict(image_items(hopf_gen, (k,))).get
    return tuple((a, k - a, c) for a in range(1, (k + 1) // 2)
                 if (c := get(((a,), (k - a,)), 0) - get(((k - a,), (a,)), 0)))


@lru_cache(maxsize=None)
def _generator_action(base_gen, n, k):
    """xi_n on the base generator k as ``(index, c)`` pairs: a . xi =
    (id (x) xi) psi(a), the terms of its coaction whose right slot is t_n."""
    return tuple((left, c) for (left, right), c in image_items(base_gen, (k,))
                 if right == (n,))


@lru_cache(maxsize=None)
def _action(base_gen, key_mul, n, idx):
    """xi_n on the base monomial ``idx`` as ``(index, c)`` pairs: the
    generator action extended as a derivation, since xi_n is primitive in the
    dual of H and the coaction is multiplicative."""
    out = {}
    for i, k in enumerate(idx):
        head, tail = idx[:i], idx[i + 1:]
        for mu, c in _generator_action(base_gen, n, k):
            key = key_mul(key_mul(head, mu), tail)
            old = out.get(key)
            out[key] = c if old is None else old + c
    return tuple(item for item in out.items() if item[1])


@lru_cache(maxsize=None)
def _wedges(m, s, least=1):
    """The sets of s distinct weights of at least ``least`` summing to m, as
    increasing tuples: the wedges of dual generators xi^n spanning Lambda^s g^*."""
    if s == 0:
        return ((),) if m == 0 else ()
    return tuple((a,) + rest for a in range(least, m + 1)
                 for rest in _wedges(m - a, s - 1, a + 1))


def _scalars(w):
    """The base indices of Q in weight 0: trivial coefficients."""
    return ((),) if w == 0 else ()


def _ce_basis(base_indices, w, s):
    """Basis keys ``(J, lam)`` of the weight-w CE cochains of degree s: the
    wedge xi^J times the base index lam of weight w - |J|; base weight
    falling, then J in increasing lex order, then the order of the indices."""
    return [(J, lam) for base_w in range(w, -1, -1) for J in _wedges(w - base_w, s)
            for lam in base_indices(base_w)]


def _ce_rows(alg, keys, cod, t):
    """The exact ``{column: int}`` rows of the CE differential on the
    degree-t ``keys`` into the degree-(t+1) basis ``cod``:

        d(xi^J (x) a) = d(xi^J) (x) a + sum_n xi^n ^ xi^J (x) xi_n . a,

    with d xi^k = -sum c xi^a ^ xi^b over the brackets [xi_a, xi_b] = c xi_k
    and d a derivation of Lambda g^*."""
    col = {key: j for j, key in enumerate(cod)}
    base_gen, hopf_gen, key_mul = alg.base_gen, alg.hopf_gen, alg.base_cls.key_mul
    rows = []
    for J, lam in keys:
        row = {}
        for n in range(1, sum(lam) + 1):
            p = bisect(J, n)
            if p and J[p - 1] == n:
                continue
            wedge = J[:p] + (n,) + J[p:]
            for mu, c in _action(base_gen, key_mul, n, lam):
                j, v = col[wedge, mu], -c if p % 2 else c
                old = row.get(j)
                row[j] = v if old is None else old + v
        for i, k in enumerate(J):
            rest = J[:i] + J[i + 1:]
            for a, b, c in _bracket(hopf_gen, k):
                if a in rest or b in rest:
                    continue
                # xi^a and xi^b move left past the larger entries of J[:i]
                pa, pb = bisect(rest, a), bisect(rest, b)
                j = col[rest[:pa] + (a,) + rest[pa:pb] + (b,) + rest[pb:], lam]
                v = c if (i + pa + pb) % 2 else -c
                old = row.get(j)
                row[j] = v if old is None else old + v
        rows.append({j: c for j, c in row.items() if c})
    return rows


def ce_rank(alg, w, s, trivial=False):
    """H^s(g; A) in weight w by the cleared loop on the Chevalley-Eilenberg
    cochains Lambda^s g^* (x) A, g the primitives of the dual of the Hopf
    algebra and A the base; with ``trivial``, H^s(g; Q).  No bound; a Hopf
    class that is not commutative is refused."""
    alg = _algebroid(alg)
    if not issubclass(alg.hopf_cls, CommutativeElement):
        raise DomainError("the Chevalley-Eilenberg route needs a commutative Hopf "
                          "algebra; %s has %s" % (alg.name, alg.hopf_cls.__name__))
    s, w = natural(s, "degree"), natural(w, "weight")
    indices = _scalars if trivial else alg.base_indices
    return _cleared_rank(partial(_ce_basis, indices, w), partial(_ce_rows, alg), s)


def invariants_rank_oracle(alg, w):
    """Independent H^0 computation: solve coaction(x) = x (x) 1 directly.

    The rank of the residual rows is the dense Gauss-Jordan pivot count of
    ``exactlinalg.matrix_rank``, not the sparse elimination that
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
        row = [0] * len(keys)
        for k, c in r.terms.items():
            row[col[k]] = c
        rows.append(row)
    return len(basis) - matrix_rank(rows)


def right_unit_functional(f, I):
    """Curried renormalization coproduct: pair the right leg against M_I.

    For f in the Z-algebra, returns the sum over Delta f of
    <Z-part on the right, M_I> times the left part.
    """
    f = NSymElement.require(f, "right_unit_functional")
    I = NSymElement.canonical_index(I)
    # the terms with right slot I have distinct left slots: nothing to merge
    return NSymElement({left: c for (left, right), c in bfk_coproduct(f).terms.items()
                        if right == I})
