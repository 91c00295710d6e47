"""Finite sparse sums: linear combinations indexed by integer tuples, tensors
of them, and the shared engine that builds every Hopf structure of the package.

Every value of the package is a dict ``terms`` from a key to a nonzero
coefficient, and ``SparseSum`` is the one base class that holds it.  Its kinds
are the algebra elements, tensors and exponent-vector polynomials here
(``Polynomial``, with ``substitute``), ``topology.BetaPolynomial`` and
``series.TruncatedSeries``.  The base owns every rule the kinds share: the
trusted builder ``_new``, the operand rule, equality, addition, negation,
subtraction, the scalar action, the product, powers, the classmethods
``one`` and ``zero``, the storing of a constructor's terms (``checked``), and
printing.  A subclass says only what its keys mean, which values are of its
kind, where its unit sits, how two keys multiply and how a key prints.  The
operand rule is the same for every kind and every binary operation, equality
included: a value of the same kind is combined, an ``int`` or
``Fraction`` stands for that multiple of the unit, and anything else raises
``AlgebraMismatchError``.  An exponent is a nonnegative ``int``; anything
else raises ``DomainError``.  Every value prints through the one term
printer ``format_terms``.  In an algebra element the key is a basis index
(a tuple of positive integers, ``()`` for the unit) and the coefficient a
nonzero ``int`` or a ``Fraction`` whose denominator is greater than 1
(``scalars.rational`` is the normaliser); subclasses fix the product of two
basis indices, and the bilinear extension and the grading helpers ``counit``
and ``max_weight`` live here.  An element moves into another algebra only
through the target's validating constructor: ``CommutativeElement`` sorts each
word into a partition and merges the repeats, so each abelianization down the
tower is one constructor call.  A map out of an algebra takes only that
algebra's elements, since it reads its input's indices as its own: it passes
the input through ``LinearElement.require``, which raises
``AlgebraMismatchError`` on anything else, a bare number included.  Elements
are treated as immutable once built, which keeps the memoised structure
constants safe to share.

Every hot sum (a product, ``Tensor.apply``, ``on_words``, the cobar cofaces of
``algebroid``) adds raw terms into a plain dict and settles once: a key seen
first stores its value as is, and a structure constant 1 is not multiplied.
Outside ``algebroid`` each coefficient product and sum is ``int`` arithmetic
inline or the exact kernel of ``scalars``, never a ``Fraction`` operator, so a
raw sum is canonical, or the ``int`` 0 where terms cancelled; ``settle`` drops
those zeros, and stores as ``int`` the integral ``Fraction``s the cofaces leave.
``add_term``, which settles each term as it lands, is left to ``checked`` and
the cold paths, and ``+`` settles only the keys it touches.  Every product of
elements, tensors or polynomials, and every coefficient product of a
truncated series, adds through the value's ``_mul_into(out, a, b)`` hook.  In
a monomial algebra (words in NSym, partitions in the commutative algebras,
powers of beta) the product of two keys is one key with coefficient 1, which
the class's ``key_mul`` gives, so the base hook makes one key per term pair
and ``basis_mul`` follows from it.  A tensor whose factors share one
``key_mul`` takes their slot-wise product as its own, so the base hook
multiplies it too.  QSym, the sym m basis and any other tensor give
``mul_into`` their ``basis_mul`` as ``(key, coeff)`` pairs instead, a tensor
slot by slot.  The accumulator here, ``add_product`` with ``settle_sums``,
keeps one such dict per output key for ``substitute`` (so every series
composition, ``exp``, ``log`` and ``invert``), the series product,
``compose_sum`` and reversion.

Each coproduct, coaction and antipode is given on the generators and then
extended over words.  ``on_words`` does that extension, multiplicatively or
as an antimorphism.  ``word_image`` builds the image of one word by a plain
loop over its letters (so a word of any length needs no recursion) and
memoises it per letter map and word.  Two readers share the memo, and
neither hands out its dicts: ``on_words`` copies the terms into a fresh
result (a one-word input, the common case, is one ``dict`` copy, or one
``scale`` when its coefficient is not 1), and ``image_items`` gives a
read-only view of one word's terms, through which the cobar accumulator of
``algebroid`` reads each basis index's coaction or coproduct.  ``binomial_gen``
is the generator coproduct of a grouplike generator series.  Where no closed
form on generators is known (the renormalization generators of ``diffeo``),
``recursive_antipode`` computes the antipode from the coproduct by the
connected-graded recursion (Takeuchi 1971); elsewhere it is the ``verify``
oracle of a closed form.
"""

from fractions import Fraction
from functools import lru_cache
from operator import add, le

from .errors import AlgebraMismatchError, DomainError
from .indices import index_sort_key, natural
from .scalars import qadd, qmul, rational


def add_term(data, idx, coeff):
    """Add the canonical ``coeff`` on ``idx`` in ``data`` and settle it there:
    a zero is dropped.  For constructors and cold paths only; a hot loop adds
    raw and settles once."""
    c = data.get(idx)
    c = coeff if c is None else c + coeff if type(c) is int is type(coeff) else qadd(c, coeff)
    # a canonical Fraction is nonzero, and its truth test is a Python call
    if type(c) is Fraction or c:
        data[idx] = c
    elif idx in data:
        del data[idx]


def checked(terms, key, coefficient=rational):
    """A constructor's ``terms`` as stored terms, refused in one order for
    every kind: ``key`` checks each key, raising ``DomainError`` on a
    malformed one and returning ``None`` for one the value drops (beyond a
    series cap, outside a polynomial bound), whose coefficient is never read;
    ``coefficient`` lifts each kept value.  Zeros are dropped, and
    ``add_term`` sums a repeated key."""
    data = {}
    if terms:
        for k, c in terms.items():
            k = key(k)
            if k is not None:
                c = coefficient(c)
                if k in data:
                    add_term(data, k, c)
                elif type(c) is Fraction or c:
                    data[k] = c
    return data


def mul_into(out, a_terms, b_terms, basis_mul):
    """Add the product of the sums ``a_terms`` and ``b_terms`` into ``out``.

    ``basis_mul(i, j)`` gives the product of two keys as ``(key, coeff)``
    pairs.  The sums are raw: a key may end at zero until ``settle`` runs
    once on the finished dict.
    """
    get = out.get
    b_items = b_terms.items()
    for i, ci in a_terms.items():
        for j, cj in b_items:
            cij = ci * cj if type(ci) is int is type(cj) else qmul(ci, cj)
            for idx, bc in basis_mul(i, j):
                c = (cij if bc == 1 else cij * bc if type(cij) is int is type(bc)
                     else qmul(cij, bc))
                old = get(idx)
                out[idx] = (c if old is None else old + c if type(old) is int is type(c)
                            else qadd(old, c))
    return out


def settle(out):
    """The raw sums of ``out`` as stored terms: zeros dropped, an integral
    ``Fraction`` (only the cofaces leave one) stored as its ``int``, and an
    element kept when nonzero.  ``out`` itself comes back when it needs neither."""
    for c in out.values():
        # the type first: a Fraction's truth test is a Python-level call, so
        # the rebuild reads a Fraction's numerator instead
        if not c if type(c) is not Fraction else c.denominator == 1:
            return {k: c.numerator if type(c) is Fraction and c.denominator == 1 else c
                    for k, c in out.items() if (c.numerator if type(c) is Fraction else c)}
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


def dot(a_terms, b_terms):
    """The canonical pairing: the sum of ``c * d`` over the keys both term dicts
    share, ``int`` arithmetic inline and ``qmul`` and ``qadd`` otherwise."""
    get = b_terms.get
    total = 0
    for key, c in a_terms.items():
        d = get(key)
        if d is not None:
            v = c * d if type(c) is int is type(d) else qmul(c, d)
            total = total + v if type(total) is int is type(v) else qadd(total, v)
    return total


class SparseSum:
    """A finite sum held as a dict ``terms`` from keys to nonzero coefficients.

    Subclasses give the meaning of a key, the unit (``_unit_term``), the
    product of two keys (``key_mul``, or their own ``_mul_into``), how a key
    prints (``_monomial``) and the display order of the keys (``_sort_key``,
    natural order by default); one carrying extra state also says which sums
    of its type are of its kind (``_same_kind``).
    """

    __slots__ = ("terms",)
    __hash__ = None
    _sort_key = None
    key_mul = None  # in a monomial algebra, the one key of a product of two keys
    SCALAR = False  # a series coefficient algebra (``scalars.Q``) of sums, not numbers
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

    @classmethod
    def one(cls):
        """The unit, of a kind whose constructor needs nothing but terms."""
        return cls()._operand(1)

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def lift(cls, v):
        """``_lift``, for a kind whose constructor needs nothing but terms."""
        return cls()._lift(v)

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

    def _lift(self, v):
        """A constructor's coefficient ``v`` as a sum of this kind: the operand
        rule, except that a float raises ``DomainError`` as ``rational`` does."""
        return self._operand(rational(v) if isinstance(v, float) else v)

    def __eq__(self, other):
        if type(other) is type(self):
            return self._same_kind(other) and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self.terms == self._operand(other).terms
        return NotImplemented

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other):
        out = dict(self.terms)
        for k, c in self._operand(other).terms.items():
            if k in out:
                add_term(out, k, c)
            else:
                out[k] = c
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
        if type(q) is int:
            if q == 1:
                return self._new(dict(self.terms))
            if not q:
                return self._new({})
        return self._new({k: c * q if type(c) is int is type(q) else qmul(c, q)
                          for k, c in self.terms.items()})

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    # each product tests for its own type before the scalar types, whose
    # isinstance check runs the slower ABC machinery of Fraction
    def __mul__(self, other):
        if type(other) is not type(self) and isinstance(other, (int, Fraction)):
            return self.scale(other)
        return self._new(settle(self._mul_into({}, self, self._operand(other))))

    def _mul_into(self, out, a, b):
        """Add the raw terms of ``a * b`` into ``out``, in this value's kind
        (``a`` and ``b`` are sums of the same kind); ``settle`` finishes
        ``out``.  One key per term pair by ``key_mul``; a class without one
        gives ``basis_mul`` instead."""
        key_mul = self.key_mul
        if key_mul is None:
            return mul_into(out, a.terms, b.terms, self.basis_mul)
        get = out.get
        b_items = b.terms.items()
        for i, ci in a.terms.items():
            integral = type(ci) is int
            for j, cj in b_items:
                k = key_mul(i, j)
                old = get(k)
                if integral and type(cj) is int:
                    c = ci * cj
                    out[k] = c if old is None else old + c if type(old) is int else qadd(old, c)
                else:
                    c = qmul(ci, cj)
                    out[k] = c if old is None else qadd(old, c)
        return out

    def __pow__(self, n):
        if not natural(n, "exponent"):
            return self._operand(1)
        # from x itself, not the unit: a product with the unit would cut a
        # Laurent view at its lowered cap once more
        out = self._new(dict(self.terms))
        for _ in range(n - 1):
            out = out * self
        return out

    def __str__(self):
        terms = self.terms
        return format_terms((terms[k], self._monomial(k))
                            for k in sorted(terms, key=self._sort_key))

    def __repr__(self):
        return str(self)


class Polynomial(SparseSum):
    """A polynomial in x_1 .. x_nvars keyed by exponent vectors, truncated by
    ``bound``: ``None`` keeps every term, an ``int`` drops total degree above
    it, and a tuple drops x_i above ``bound[i]`` (the ring Z[x]/(x_i^(n_i+1))).
    A coefficient is an ``int``, a ``Fraction`` or an element of an algebra of
    the package; the variables are central.  The product skips a pair whose
    key leaves the bound before it multiplies the coefficients, left first.
    """

    __slots__ = ("nvars", "bound")

    def __init__(self, nvars, terms=None, bound=None):
        self.nvars = natural(nvars, "nvars")
        if type(bound) is tuple and len(bound) != nvars:
            raise DomainError("a bound has one degree per variable, not %r" % (bound,))
        for n in bound if type(bound) is tuple else () if bound is None else (bound,):
            natural(n, "a bound")
        self.bound = bound
        self.terms = checked(terms, self._exponents,
                             lambda c: c if isinstance(c, SparseSum) else rational(c))

    def _new(self, terms):
        obj = super()._new(terms)
        obj.nvars = self.nvars
        obj.bound = self.bound
        return obj

    def _same_kind(self, other):
        return other.nvars == self.nvars and other.bound == self.bound

    def _unit_term(self, q):
        return (0,) * self.nvars, q

    def _exponents(self, key):
        """``key`` if it is an exponent vector inside the bound, ``None`` if it
        leaves the bound; ``DomainError`` if it is not an exponent vector."""
        if (type(key) is not tuple or len(key) != self.nvars
                or any(type(k) is not int or k < 0 for k in key)):
            raise DomainError("%r is not %d nonnegative int exponents" % (key, self.nvars))
        return key if self._inside(key) else None

    def _inside(self, key):
        bound = self.bound
        return bound is None or (sum(key) <= bound if type(bound) is int
                                 else all(map(le, key, bound)))

    def _mul_into(self, out, a, b):
        inside = self._inside
        b_items = b.terms.items()
        for i, ci in a.terms.items():
            for j, cj in b_items:
                k = tuple(map(add, i, j))
                if inside(k):
                    add_term(out, k, ci * cj if type(ci) is int is type(cj)
                             else qmul(ci, cj))
        return out

    @staticmethod
    def _sort_key(key):
        return -sum(key), tuple(-k for k in key)

    def _monomial(self, key):
        return "*".join("x%d" % (i + 1) if k == 1 else "x%d^%d" % (i + 1, k)
                        for i, k in enumerate(key) if k)


def add_product(sums, key, a, b, scalar):
    """Add the coefficient product ``a * b`` to the sum kept on ``key``: by a
    plain ``+`` when ``scalar`` (one side is a number), else into a
    ``(prototype, raw terms)`` bucket that ``a._mul_into`` fills, the prototype
    being the key's first left factor, whose kind and sym basis the sum takes."""
    if scalar:
        c = a * b if type(a) is int is type(b) else qmul(a, b)
        old = sums.get(key)
        sums[key] = (c if old is None else old + c if type(old) is int is type(c)
                     else qadd(old, c))
        return
    bucket = sums.get(key)
    if bucket is None:
        bucket = sums[key] = (a, {})
    if not type(a) is type(b) is type(bucket[0]):
        raise AlgebraMismatchError("coefficients mix %s, %s and %s" % tuple(
            type(x).__name__ for x in (bucket[0], a, b)))
    bucket[0]._mul_into(bucket[1], a, b)


def settle_sums(sums, scalar):
    """The finished coefficients of ``sums``, zeros dropped: plain sums when
    ``scalar``, otherwise the buckets of ``add_product``."""
    if scalar:
        return settle(sums)
    out = {}
    for key, (proto, terms) in sums.items():
        terms = settle(terms)
        if terms:
            out[key] = proto._new(terms)
    return out


def substitute(coeffs, values, one):
    """sum_k c_k prod_q values[q]^(k_q) over the dict ``coeffs`` from exponent
    vectors k to coefficients c_k, each c_k on the left and each power built
    once.  ``one`` is the unit of the values' kind: the empty vector's value."""
    powers = [[one, v] for v in values]
    # buckets need elements on both sides: the first c_k and the unit's value
    scalar = not all(isinstance(x, SparseSum) for x in
                     (next(iter(coeffs.values()), 0), next(iter(one.terms.values()))))
    out = {}
    for key, c in coeffs.items():
        term = None
        for q, k in enumerate(key):
            if k:
                row = powers[q]
                while len(row) <= k:
                    row.append(row[-1] * values[q])
                term = row[k] if term is None else term * row[k]
        for k, v in (one if term is None else term).terms.items():
            add_product(out, k, c, v, scalar)
    return one._new(settle_sums(out, scalar))


class LinearElement(SparseSum):
    LETTER = "?"
    COMMUTATIVE = False
    __slots__ = ()
    _sort_key = staticmethod(index_sort_key)

    def __init__(self, terms=None):
        self.terms = checked(terms, self.canonical_index)

    @classmethod
    def canonical_index(cls, idx):
        """``idx`` as this algebra stores a basis index; ``DomainError`` if it
        is not one."""
        try:
            idx = tuple(idx)
        except TypeError:
            raise DomainError("an index is a sequence of parts, not %r" % (idx,)) from None
        for p in idx:
            if type(p) is not int or p < 1:
                raise DomainError("index parts must be positive integers")
        return idx

    @classmethod
    def require(cls, f, name):
        """``f`` when it is an element of this algebra; otherwise
        ``AlgebraMismatchError`` naming the map ``name`` and both classes.
        The one place a map out of an algebra refuses its input."""
        if isinstance(f, cls):
            return f
        raise AlgebraMismatchError("%s expects %s, not %s"
                                   % (name, cls.__name__, type(f).__name__))

    def slot_form(self):
        """This element as a tensor slot holds it; sym overrides (slots are e-based)."""
        return self

    @classmethod
    def from_index(cls, idx):
        """The basis element of ``idx``, canonicalised once."""
        obj = cls()
        obj.terms = {cls.canonical_index(idx): 1}
        return obj

    @classmethod
    def basis_mul(cls, i, j):
        """Product of two basis indices as ((index, coeff), ...) pairs; in a
        monomial algebra the one pair ``(key_mul(i, j), 1)``."""
        return ((cls.key_mul(i, j), 1),)

    # -- structure helpers ------------------------------------------------

    def counit(self):
        """Coefficient of the unit; kills everything of positive weight."""
        return self.terms.get((), 0)

    def max_weight(self):
        return max((sum(i) for i in self.terms), default=0)

    # the base product, bound here so element products can be timed on their
    # own (bench/layers.py wraps this entry)
    __mul__ = SparseSum.__mul__

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

    @staticmethod
    def key_mul(i, j):
        """The merge of two partitions."""
        return tuple(sorted(i + j, reverse=True))


class Tensor(SparseSum):
    """Sparse tensor over a fixed tuple of coefficient algebras.

    Keys are tuples of basis indices, one per slot.  All algebras here are
    concentrated in even topological degree, so no Koszul signs appear
    anywhere.
    """

    __slots__ = ("factors",)

    def __init__(self, factors, terms=None):
        """Validate ``terms``: each slot key becomes its factor's canonical
        index (partitions sorted, keys that collide merged), and factors that
        are not a tuple or list of algebra classes, a key that is not a
        sequence, a key of the wrong arity or a part below 1 raise
        ``DomainError``."""
        if not (isinstance(factors, (tuple, list)) and all(
                isinstance(f, type) and issubclass(f, LinearElement) for f in factors)):
            raise DomainError("tensor factors are a sequence of algebras, not %r" % (factors,))
        self.factors = tuple(factors)
        self.terms = checked(terms, self._slot_indices)

    def _slot_indices(self, key):
        """``key`` as one canonical index per slot; ``DomainError`` if it is not."""
        try:
            key = tuple(key)
        except TypeError:
            raise DomainError("a tensor key is a sequence of slot indices, not %r"
                              % (key,)) from None
        if len(key) != len(self.factors):
            raise DomainError("tensor key %r has %d slots, not %d"
                              % (key, len(key), len(self.factors)))
        return tuple(f.canonical_index(i) for f, i in zip(self.factors, key))

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
        """Tensor product of algebra elements, expanded bilinearly: canonical,
        distinct keys and nonzero products, adopted with no second pass."""
        elements = [LinearElement.require(x, "Tensor.of").slot_form() for x in elements]
        factors = tuple(type(x) for x in elements)
        keys = {(idx,): c for idx, c in elements[0].terms.items()} if elements else {(): 1}
        for x in elements[1:]:
            keys = {prefix + (idx,): c * cx if type(c) is int is type(cx) else qmul(c, cx)
                    for prefix, c in keys.items() for idx, cx in x.terms.items()}
        return cls(factors)._new(keys)

    @property
    def arity(self):
        return len(self.factors)

    def _same_kind(self, other):
        return other.factors == self.factors

    def _unit_term(self, q):
        return ((),) * len(self.factors), q

    # the base product, bound here so tensor products can be timed on their
    # own (bench/layers.py wraps this entry)
    __mul__ = SparseSum.__mul__

    @property
    def key_mul(self):
        """The slot-wise product of two keys when every factor shares one
        ``key_mul``, so the base product makes one key per term pair; ``None``
        otherwise, and ``basis_mul`` multiplies."""
        key_muls = {f.key_mul for f in self.factors}
        if None in key_muls or len(key_muls) != 1:
            return None
        key_mul, = key_muls
        return lambda k1, k2: tuple(map(key_mul, k1, k2))

    def basis_mul(self, k1, k2):
        """Product of two keys as ``(key, coeff)`` pairs, slot by slot."""
        pairs = [((), 1)]
        for f, i1, i2 in zip(self.factors, k1, k2):
            pairs = [(prefix + (idx,), c if bc == 1 else c * bc)
                     for prefix, c in pairs for idx, bc in f.basis_mul(i1, i2)]
        return pairs

    # -- slot surgery -----------------------------------------------------

    def apply(self, pos, fn, new_factors):
        """Apply ``fn`` (index -> element or tensor) to slot ``pos``, splicing.

        ``fn`` must be a pure map from a basis index to its image, as every
        caller's is: it is called once per distinct index in that slot.
        """
        factors = self.factors[:pos] + tuple(new_factors) + self.factors[pos + 1:]
        images = {}
        out = {}
        get = out.get
        for key, c in self.terms.items():
            items = images.get(key[pos])
            if items is None:
                res = fn(key[pos])
                items = images[key[pos]] = (
                    res.terms.items() if isinstance(res, Tensor)
                    else [((i,), cc) for i, cc in res.terms.items()])
            head, tail = key[:pos], key[pos + 1:]
            for sub, cc in items:
                k = head + sub + tail
                v = c if cc == 1 else c * cc if type(c) is int is type(cc) else qmul(c, cc)
                old = get(k)
                out[k] = (v if old is None else old + v if type(old) is int is type(v)
                          else qadd(old, v))
        return self._new(settle(out), factors)

    def insert_slot(self, pos, factor):
        """Insert a fresh slot holding the unit."""
        factors = self.factors[:pos] + (factor,) + self.factors[pos:]
        return self._new({key[:pos] + ((),) + key[pos:]: c
                          for key, c in self.terms.items()}, factors)

    def swap_slots(self, i, j):
        """Swap slots ``i`` and ``j``: a bijection on keys, so nothing merges."""
        order = list(range(len(self.factors)))
        order[i], order[j] = j, i
        return self._new({tuple(key[p] for p in order): c for key, c in self.terms.items()},
                         tuple(self.factors[p] for p in order))

    def project_counit(self, pos):
        """Apply the counit to slot ``pos``: keep unit-indexed terms, drop the
        slot; dropping a slot fixed at the unit is injective, so nothing merges."""
        return self._new({key[:pos] + key[pos + 1:]: c for key, c in self.terms.items()
                          if key[pos] == ()}, self.factors[:pos] + self.factors[pos + 1:])

    @staticmethod
    def _sort_key(key):
        return tuple(map(index_sort_key, key))

    def _monomial(self, key):
        units = [f.one() for f in self.factors]
        return " (x) ".join(one._monomial(idx) or "1" for one, idx in zip(units, key))


class TensorSpace:
    """Descriptor for a tensor-product coefficient algebra, usable by series."""

    __slots__ = ("factors",)
    SCALAR = False

    def __init__(self, *factors):
        self.factors = Tensor(factors).factors  # checked as a tensor's

    def one(self):
        return Tensor(self.factors, {tuple(() for _ in self.factors): 1})

    def zero(self):
        return Tensor(self.factors, {})

    def lift(self, v):
        return self.zero()._lift(v)

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
    return Tensor((cls, cls), {((i,) if i else (), (k - i,) if k - i else ()): 1
                               for i in range(k + 1)})


@lru_cache(maxsize=None)
def word_image(gen, letters):
    """The product gen(l_1) * ... * gen(l_r) over the word ``letters``, built
    by a plain loop; memoised, and read only by ``on_words`` and
    ``image_items``."""
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
    their terms are copied into a fresh dict here (one ``dict`` copy, or one
    ``scale``, for a one-word ``f``), and no image is ever returned or
    modified.
    """
    if len(f.terms) == 1:
        (word, c), = f.terms.items()
        image = word_image(gen, word[::-1] if reverse else word)
        return image.scale(c)
    out = {}
    get = out.get
    for word, c in f.terms.items():
        for key, cc in word_image(gen, word[::-1] if reverse else word).terms.items():
            v = c if cc == 1 else c * cc if type(c) is int is type(cc) else qmul(c, cc)
            old = get(key)
            out[key] = (v if old is None else old + v if type(old) is int is type(v)
                        else qadd(old, v))
    return gen(0)._new(settle(out))


def image_items(gen, word):
    """The ``(key, coefficient)`` pairs of the memoised image of ``word`` under
    the letter map ``gen``, as a read-only view of the memo's terms: the way
    a hot loop reads one basis index's image without building an element."""
    return word_image(gen, word).terms.items()


def recursive_antipode(delta_x, antipode):
    """The antipode of x read off its coproduct, for a connected graded bialgebra.

    S(x) = e(x) - sum c S(x') x'' over the terms c x' (x) x'' of ``delta_x``
    whose right slot is not the unit (Takeuchi 1971); ``antipode`` maps a
    basis index of the left slot, always of lower weight, to its image.  Each
    product is added raw through the unit's ``_mul_into``, settled once.
    """
    unit = delta_x.factors[1].one()
    rights = {}
    for (i, j), c in delta_x.terms.items():
        if j:
            rights.setdefault(i, {})[j] = -c
    c = delta_x.terms.get(((), ()))
    out = {(): c} if c else {}
    for i, r in rights.items():
        unit._mul_into(out, antipode(i), unit._new(r))
    return unit._new(settle(out))
