"""Finite sparse sums: linear combinations indexed by integer tuples, tensors
of them, and the shared engine that builds every Hopf structure of the package.

Every value of the package is a dict ``terms`` from a key to a nonzero
coefficient, and ``SparseSum`` is the one base class that holds it.  Its kinds
are the algebra elements and tensors here, ``topology.BetaPolynomial`` and
``series.TruncatedSeries``.  The trusted builder ``_new``, the operand rule,
addition, negation, subtraction, the scalar action and printing live in the
base, so a subclass says only what its keys mean, which values are of its
kind, where its unit sits, how two sums are compared and multiplied, and how
a key prints.  The operand rule is the same for every kind and every binary
operation: a value of the same kind is combined, an ``int`` or ``Fraction``
stands for that multiple of the unit, and anything else raises
``AlgebraMismatchError``.  Every value prints through the one term printer
``format_terms``.  In an algebra element the key is a basis index
(a tuple of positive integers, ``()`` for the unit) and the coefficient a
nonzero ``int`` or a ``Fraction`` whose denominator is greater than 1
(``scalars.rational`` is the normaliser); subclasses fix the product of two
basis indices, and the bilinear extension and grading helpers live here.
Elements are treated as immutable once built, which keeps the memoised
structure constants safe to share.

Every product of elements, and every coefficient product of a truncated
series, goes through one kernel.  ``mul_into`` adds the raw products of two
term dicts into a plain dict, and ``settle`` then drops the zeros and stores
integral ``Fraction``s as ``int``, once per result.  Each value's
``_mul_into(out, a, b)`` hook adds a * b into ``out`` in that value's own
basis: an algebra element calls ``mul_into`` with its basis product (the sym
m basis with its counted structure constants), and any other sum adds the
terms of the built product.  So ``LinearElement.__mul__`` is one hook call
and one ``settle``, and a series keeps one such dict per output power
instead of building and re-adding an element for each product.

Each coproduct, coaction and antipode is given on the generators and then
extended over words.  ``on_words`` does that extension, multiplicatively or
as an antimorphism.  ``word_image`` builds the image of one word by a plain
loop over its letters (so a word of any length needs no recursion) and
memoises it per letter map and word; the memoised image never leaves
``on_words``, which copies its terms into a fresh result.  ``binomial_gen``
is the generator coproduct of a grouplike generator series.  Where no closed
form on generators is known, ``recursive_antipode`` computes the antipode
from the coproduct by the connected-graded recursion (Takeuchi 1971).
"""

from fractions import Fraction
from functools import lru_cache

from .errors import AlgebraMismatchError, DomainError
from .indices import index_sort_key
from .scalars import ONE, ZERO, rational


def add_term(data, idx, coeff):
    """Accumulate ``coeff`` on ``idx`` inside ``data``, dropping zeros.

    A scalar that comes out integral is stored as its ``int``.
    """
    c = data.get(idx)
    c = coeff if c is None else c + coeff
    if c:
        if type(c) is Fraction and c.denominator == 1:
            c = c.numerator
        data[idx] = c
    elif idx in data:
        del data[idx]


def mul_into(out, a_terms, b_terms, basis_mul):
    """Add the product of the sums ``a_terms`` and ``b_terms`` into ``out``.

    ``basis_mul(i, j)`` gives the product of two keys as ``(key, coeff)``
    pairs.  The sums are raw: a key may end at zero and an integral
    ``Fraction`` stays one until ``settle`` runs once on the finished dict.
    """
    get = out.get
    b_items = b_terms.items()
    for i, ci in a_terms.items():
        for j, cj in b_items:
            cij = ci * cj
            for idx, bc in basis_mul(i, j):
                out[idx] = get(idx, 0) + (cij if bc == 1 else cij * bc)
    return out


def settle(out):
    """The raw sums of ``out`` as stored terms: zeros dropped and an integral
    ``Fraction`` stored as its ``int``; a value that is an element is kept
    when nonzero.  ``out`` itself comes back when it needs neither."""
    for c in out.values():
        if not c or type(c) is Fraction and c.denominator == 1:
            return {k: c.numerator if type(c) is Fraction and c.denominator == 1 else c
                    for k, c in out.items() if c}
    return out


def format_terms(terms):
    """Print ``(coefficient, monomial)`` pairs as a signed sum, or ``0``.

    A coefficient containing spaces is parenthesised, a coefficient of 1 or
    -1 is absorbed into the sign, and an empty monomial prints the bare
    coefficient.
    """
    pieces = []
    for coeff, mono in terms:
        body = str(coeff)
        if " " in body:
            body = "(%s)" % body
        if not mono:
            pieces.append(body)
        elif body == "1":
            pieces.append(mono)
        elif body == "-1":
            pieces.append("-" + mono)
        else:
            pieces.append("%s*%s" % (body, mono))
    if not pieces:
        return "0"
    out = pieces[0]
    for piece in pieces[1:]:
        if piece.startswith("-"):
            out += " - " + piece[1:]
        else:
            out += " + " + piece
    return out


class SparseSum:
    """A finite sum held as a dict ``terms`` from keys to nonzero coefficients.

    Subclasses give the meaning of a key, ``__mul__``, the unit
    (``_unit_term``), how a key prints (``_monomial``) and the display order
    of the keys (``_sort_key``, natural order by default); one carrying extra
    state also says which sums of its type are of its kind (``_same_kind``).
    """

    __slots__ = ("terms",)
    __hash__ = None
    _sort_key = None
    coeffs = property(lambda self: self.terms)  # read by bench/streams.py

    def _new(self, terms):
        """Adopt ``terms`` as a sum of the same kind, with no second pass.

        This is the trusted path arithmetic takes; user input goes through the
        validating constructor.  Every caller passes a freshly built dict that
        nothing else holds.  In an algebra element its keys are canonical basis
        indices (tuples of positive ints, partitions sorted decreasingly for
        commutative classes) and its values nonzero ``int``s or ``Fraction``s
        with denominator > 1; in a ``BetaPolynomial`` its keys are ``int``
        powers of beta and its values nonzero ``BElement``s.  Subclasses
        carrying extra state override this.
        """
        obj = object.__new__(type(self))
        obj.terms = terms
        return obj

    def _same_kind(self, other):
        """Whether ``other``, a sum of this type, combines with this one."""
        return True

    def _unit_term(self, q):
        """The ``(key, coefficient)`` of ``q`` times the unit, ``q`` a nonzero
        ``int`` or ``Fraction``."""
        return (), q

    def _operand(self, other):
        """``other`` as a sum of this kind, by the operand rule: a sum of the
        same kind passes, an ``int`` or ``Fraction`` goes on the unit, and
        anything else raises ``AlgebraMismatchError``."""
        # the own type first: Fraction's isinstance check runs the slower ABC
        # machinery
        if type(other) is type(self) and self._same_kind(other):
            return other
        if isinstance(other, (int, Fraction)):
            q = rational(other)
            return self._new(dict((self._unit_term(q),)) if q else {})
        raise AlgebraMismatchError(
            "cannot combine %s with %s of another kind"
            % (type(self).__name__, type(other).__name__))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._same_kind(other) and self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other):
        out = dict(self.terms)
        for k, c in self._operand(other).terms.items():
            add_term(out, k, c)
        return self._new(out)

    __radd__ = __add__

    def __neg__(self):
        return self._new({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._operand(other))

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, q):
        q = rational(q)
        out = {}
        if q:
            for k, c in self.terms.items():
                c *= q
                out[k] = c.numerator if type(c) is Fraction and c.denominator == 1 else c
        return self._new(out)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def _mul_into(self, out, a, b):
        """Add the raw terms of ``a * b`` into ``out``, in this value's kind
        (``a`` and ``b`` are sums of the same kind); ``settle`` finishes
        ``out``.  By default the product is built and its terms added."""
        get = out.get
        for k, c in (a * b).terms.items():
            v = get(k)
            out[k] = c if v is None else v + c
        return out

    def __str__(self):
        terms = self.terms
        return format_terms((terms[k], self._monomial(k))
                            for k in sorted(terms, key=self._sort_key))

    def __repr__(self):
        return str(self)


class LinearElement(SparseSum):
    LETTER = "?"
    COMMUTATIVE = False
    __slots__ = ()
    _sort_key = staticmethod(index_sort_key)

    def __init__(self, terms=None):
        data = {}
        if terms:
            for idx, coeff in terms.items():
                add_term(data, self.canonical_index(idx), rational(coeff))
        self.terms = data

    @classmethod
    def canonical_index(cls, idx):
        """``idx`` as this algebra stores a basis index; ``DomainError`` if it
        is not one."""
        idx = tuple(idx)
        if any(not isinstance(p, int) or p < 1 for p in idx):
            raise DomainError("index parts must be positive integers")
        return idx

    def slot_form(self):
        """This element as a tensor slot holds it; sym overrides (slots are e-based)."""
        return self

    @classmethod
    def from_index(cls, idx, coeff=1):
        return cls({tuple(idx): coeff})

    @classmethod
    def one(cls):
        return cls({(): 1})

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def basis_mul(cls, i, j):
        """Product of two basis indices as ((index, coeff), ...) pairs."""
        raise NotImplementedError

    # -- structure helpers ------------------------------------------------

    def counit(self):
        """Coefficient of the unit; kills everything of positive weight."""
        return self.terms.get((), ZERO)

    def weights(self):
        return sorted({sum(idx) for idx in self.terms})

    def component(self, w):
        """Homogeneous part of weight ``w``."""
        return self._new({i: c for i, c in self.terms.items() if sum(i) == w})

    def max_weight(self):
        return max((sum(i) for i in self.terms), default=0)

    def map_indices(self, fn):
        """Relabel basis indices through ``fn``, merging collisions."""
        out = {}
        for idx, c in self.terms.items():
            add_term(out, tuple(fn(idx)), c)
        return out

    # -- arithmetic -------------------------------------------------------

    # each binary operation tests for its own type before the scalar types,
    # whose isinstance check runs the slower ABC machinery of Fraction

    def __eq__(self, other):
        if type(other) is type(self):
            return self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self.terms == ({(): other} if other else {})
        return NotImplemented

    def __mul__(self, other):
        if type(other) is not type(self) and isinstance(other, (int, Fraction)):
            return self.scale(other)
        other = self._operand(other)
        return self._new(settle(self._mul_into({}, self, other)))

    def _mul_into(self, out, a, b):
        return mul_into(out, a.terms, b.terms, self.basis_mul)

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise AlgebraMismatchError("exponents must be nonnegative integers")
        out = self._new({(): ONE})
        for _ in range(n):
            out = out * self
        return out

    # -- printing ---------------------------------------------------------

    def _letter(self):
        return self.LETTER

    def _monomial(self, idx):
        return "%s[%s]" % (self._letter(), ",".join(str(p) for p in idx)) if idx else ""


class CommutativeElement(LinearElement):
    """Free commutative polynomial algebra on generators g_1, g_2, ...

    A basis index is a partition; the part ``k`` stands for the generator of
    weight ``k`` and the monomial is the product of its parts.
    """

    COMMUTATIVE = True
    __slots__ = ()

    @classmethod
    def canonical_index(cls, idx):
        # indices are partitions; unsorted inputs merge correctly
        return tuple(sorted(super().canonical_index(idx), reverse=True))

    @classmethod
    def basis_mul(cls, i, j):
        return ((tuple(sorted(i + j, reverse=True)), ONE),)


class Tensor(SparseSum):
    """Sparse tensor over a fixed tuple of coefficient algebras.

    Keys are tuples of basis indices, one per slot.  All algebras here are
    concentrated in even topological degree, so no Koszul signs appear
    anywhere.
    """

    __slots__ = ("factors",)

    def __init__(self, factors, terms=None):
        """Validate ``terms``: each slot key becomes its factor's canonical
        index (partitions sorted, keys that collide merged), and a key of the
        wrong arity or with a part below 1 raises ``DomainError``."""
        self.factors = tuple(factors)
        data = {}
        if terms:
            for key, coeff in terms.items():
                key = tuple(key)
                if len(key) != len(self.factors):
                    raise DomainError("tensor key %r has %d slots, not %d"
                                      % (key, len(key), len(self.factors)))
                key = tuple(f.canonical_index(i) for f, i in zip(self.factors, key))
                add_term(data, key, rational(coeff))
        self.terms = data

    def _new(self, terms, factors=None):
        """Adopt ``terms`` as a tensor over ``factors`` (by default the same
        factors), with no second pass.

        The invariant of ``SparseSum._new`` holds here too: a fresh dict,
        keys tuples of canonical basis indices (one per slot, each canonical
        for its factor), values nonzero ``int``s or ``Fraction``s with
        denominator > 1; ``factors`` is a tuple of element classes.
        """
        obj = object.__new__(Tensor)
        obj.factors = self.factors if factors is None else factors
        obj.terms = terms
        return obj

    @classmethod
    def of(cls, *elements):
        """Tensor product of algebra elements, expanded bilinearly."""
        elements = [x.slot_form() for x in elements]
        factors = tuple(type(x) for x in elements)
        keys = {(): ONE}
        for x in elements:
            nxt = {}
            for prefix, c in keys.items():
                for idx, cx in x.terms.items():
                    nxt[prefix + (idx,)] = c * cx
            keys = nxt
        return cls(factors, keys)

    @property
    def arity(self):
        return len(self.factors)

    def _same_kind(self, other):
        return other.factors == self.factors

    def _unit_term(self, q):
        return ((),) * len(self.factors), q

    def __mul__(self, other):
        if type(other) is not Tensor and isinstance(other, (int, Fraction)):
            return self.scale(other)
        other = self._operand(other)
        out = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                partial = [((), c1 * c2)]
                for f, i1, i2 in zip(self.factors, k1, k2):
                    nxt = []
                    for prefix, c in partial:
                        for idx, bc in f.basis_mul(i1, i2):
                            nxt.append((prefix + (idx,), c if bc == 1 else c * bc))
                    partial = nxt
                for key, c in partial:
                    add_term(out, key, c)
        return self._new(out)

    # -- slot surgery -----------------------------------------------------

    def apply(self, pos, fn, new_factors):
        """Apply ``fn`` (index -> element or tensor) to slot ``pos``, splicing."""
        factors = self.factors[:pos] + tuple(new_factors) + self.factors[pos + 1:]
        out = {}
        for key, c in self.terms.items():
            res = fn(key[pos])
            if isinstance(res, Tensor):
                items = res.terms.items()
            else:
                items = (((i,), cc) for i, cc in res.terms.items())
            for sub, cc in items:
                add_term(out, key[:pos] + sub + key[pos + 1:], c * cc)
        return self._new(out, factors)

    def insert_slot(self, pos, factor, index=()):
        """Insert a fresh slot holding a single basis index (default: the unit)."""
        factors = self.factors[:pos] + (factor,) + self.factors[pos:]
        index = tuple(index)
        return self._new({key[:pos] + (index,) + key[pos:]: c
                          for key, c in self.terms.items()}, factors)

    def swap_slots(self, i, j):
        factors = list(self.factors)
        factors[i], factors[j] = factors[j], factors[i]
        out = {}
        for key, c in self.terms.items():
            k = list(key)
            k[i], k[j] = k[j], k[i]
            add_term(out, tuple(k), c)
        return self._new(out, tuple(factors))

    def project_counit(self, pos):
        """Apply the counit to slot ``pos``: keep unit-indexed terms, drop the slot."""
        factors = self.factors[:pos] + self.factors[pos + 1:]
        out = {}
        for key, c in self.terms.items():
            if key[pos] == ():
                add_term(out, key[:pos] + key[pos + 1:], c)
        return self._new(out, factors)

    def slot_element(self):
        """Convert an arity-1 tensor back into a plain algebra element."""
        if self.arity != 1:
            raise AlgebraMismatchError("slot_element needs an arity-1 tensor")
        return self.factors[0]({k[0]: c for k, c in self.terms.items()})

    @staticmethod
    def _sort_key(key):
        return tuple(index_sort_key(i) for i in key)

    def _monomial(self, key):
        units = [f.one() for f in self.factors]
        return " (x) ".join(one._monomial(idx) or "1" for one, idx in zip(units, key))


class TensorSpace:
    """Descriptor for a tensor-product coefficient algebra, usable by series."""

    __slots__ = ("factors",)

    def __init__(self, *factors):
        self.factors = tuple(factors)

    def one(self):
        return Tensor(self.factors, {tuple(() for _ in self.factors): 1})

    def zero(self):
        return Tensor(self.factors, {})

    @property
    def COMMUTATIVE(self):
        return all(f.COMMUTATIVE for f in self.factors)

    def __eq__(self, other):
        return isinstance(other, TensorSpace) and other.factors == self.factors

    def __repr__(self):
        return "TensorSpace(%s)" % ", ".join(f.__name__ for f in self.factors)


# -- the shared Hopf engine ----------------------------------------------------

@lru_cache(maxsize=None)
def binomial_gen(cls, k):
    """sum_{i+j=k} g_i (x) g_j: the coproduct of g_k in a grouplike generator series."""
    return Tensor((cls, cls), {((i,) if i else (), (k - i,) if k - i else ()): ONE
                               for i in range(k + 1)})


@lru_cache(maxsize=None)
def word_image(gen, letters):
    """The product gen(l_1) * ... * gen(l_r) over the word ``letters``, built
    by a plain loop; memoised, and read only by ``on_words``."""
    letters = iter(letters)
    image = gen(next(letters, 0))
    for k in letters:
        image = image * gen(k)
    return image


def on_words(f, gen, reverse=False):
    """Extend the letter map ``gen`` (an element or tensor per letter, ``gen(0)``
    the unit) over the words indexing ``f``: multiplicatively, or as an
    antimorphism with ``reverse=True``.

    Each word's image comes from the ``word_image`` memo, keyed by ``gen``, so
    ``gen`` should be a module-level function or constant (a fresh closure or
    ``partial`` per call would never hit).  The memoised images are shared:
    their terms are copied into a fresh dict here, and no image is ever
    returned or modified.
    """
    out = {}
    for word, c in f.terms.items():
        for key, cc in word_image(gen, word[::-1] if reverse else word).terms.items():
            add_term(out, key, c * cc)
    return gen(0)._new(out)


def recursive_antipode(delta_x, antipode):
    """The antipode of x read off its coproduct, for a connected graded bialgebra.

    S(x) = e(x) - sum c S(x') x'' over the terms c x' (x) x'' of ``delta_x``
    whose right slot is not the unit (Takeuchi 1971); ``antipode`` maps a
    basis index of the left slot, always of lower weight, to its image.
    """
    cls = delta_x.factors[1]
    rights = {}
    for (i, j), c in delta_x.terms.items():
        if j:
            rights.setdefault(i, {})[j] = -c
    out = cls({(): delta_x.terms.get(((), ()), ZERO)})
    for i, r in rights.items():
        out = out + antipode(i) * cls(r)
    return out
