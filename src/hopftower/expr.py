"""Parsers for the element and series expression languages of the CLI.

Element grammar, whitespace insensitive::

    expr   := ["+" | "-"] term (("+" | "-") term)*
    term   := factor ("*" factor)*
    factor := atom ("^" UINT)?
    atom   := NUMBER | GEN "[" UINT ("," UINT)* "]" | "(" expr ")"

``NUMBER`` is an unsigned integer or a tight rational such as ``3/4``.
``GEN`` is a single letter naming a generator family: ``e h p m`` for
symmetric functions (the letter doubles as the basis tag), ``Z`` for the
noncommutative power series generators, ``M`` for quasisymmetric monomials,
``t`` for diffeomorphism coordinates and ``b`` for bordism generators, as
registered in :mod:`hopftower.structures`.  One expression must stay inside
a single family; plain numbers mix with all of them.  The optional leading
sign is an extension so antipode output can be pasted back in unchanged.

Series expressions extend the same grammar with three more atoms:

* the variable ``T`` and the central parameter ``beta``;
* named generating series applied by composition: ``e(g)`` ``h(g)`` ``t(g)``
  ``Z(g)`` ``b(g)``, e.g. ``e(-T)`` or ``Z(T)``;
* function calls ``invert(f)``, ``revert(f)``, ``exp(f)``, ``log(f)``,
  ``alternate(f)``, ``residue(f)``, ``shift(f, k)``, ``compose(f, g)``.

Generator atoms like ``e[1]`` act as constant coefficients, so
``invert(1 - e[1]*T)`` is a series over symmetric functions.  Rational
constants promote into any coefficient algebra, and b-polynomials promote
into beta-polynomials, by the target algebra's lift; no other mixing is
allowed.

Both languages share one parse tree and one evaluator, ``_evaluate``: a
syntax, arity or family error is raised before any product is formed, so
``e[1]^100000 + Z[1]`` fails at once.  The parser records the letter and
column of each generator as it reads it, and ``parse_element`` checks the
families from that record.

Errors carry a 1-based column; positions past the end of the input are
reported at the last character.  A ``(`` or a call opens a level of nesting,
and more than ``NESTING_BOUND`` open levels are a capability error, raised
long before the parser or the evaluator could exhaust the stack.
"""

from . import structures
from .errors import AlgebraMismatchError, CapabilityError, ExpressionError
from .scalars import Q, quotient, rational
from .series import TruncatedSeries
from .topology import BetaPolynomial

NESTING_BOUND = 100

_FUNCTIONS = {"invert": 1, "revert": 1, "exp": 1, "log": 1,
              "alternate": 1, "residue": 1, "shift": 2, "compose": 2}

_SYMBOLS = {"+": "plus", "-": "minus", "*": "star", "^": "caret",
            "[": "lbrack", "]": "rbrack", "(": "lparen", ")": "rparen",
            ",": "comma"}

# ASCII only: str.isdigit() accepts superscripts, which int() cannot read
_DIGITS = frozenset("0123456789")


def _tokenize(text):
    toks = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        pos = i + 1
        if ch in _DIGITS:
            j = i
            while j < n and text[j] in _DIGITS:
                j += 1
            num = int(text[i:j])
            if j < n and text[j] == "/" and j + 1 < n and text[j + 1] in _DIGITS:
                k = j + 1
                while k < n and text[k] in _DIGITS:
                    k += 1
                den = int(text[j + 1:k])
                if den == 0:
                    raise ExpressionError("zero denominator", pos)
                toks.append(("num", quotient(num, den), pos))
                i = k
            else:
                toks.append(("num", num, pos))
                i = j
            continue
        if ch in _SYMBOLS:
            toks.append((_SYMBOLS[ch], ch, pos))
            i += 1
            continue
        if ch.isalpha():
            j = i
            while j < n and text[j].isalpha():
                j += 1
            word = text[i:j]
            if len(word) == 1:
                if word == "T":
                    toks.append(("var", word, pos))
                elif structures.tag_of_letter(word) is not None:
                    toks.append(("gen", word, pos))
                else:
                    raise ExpressionError("unknown letter %r" % word, pos)
            else:
                toks.append(("ident", word, pos))
            i = j
            continue
        raise ExpressionError("unexpected character %r" % ch, pos)
    toks.append(("eof", None, n + 1))
    return toks


class _Parser:
    def __init__(self, text, series_mode):
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0
        self.series_mode = series_mode
        self.letters = []  # (letter, column) of each generator atom, as read
        self.depth = 0

    def _fail(self, message, pos):
        # errors at EOF point at the last character, not one past it
        raise ExpressionError(message, min(pos, max(1, len(self.text))))

    def peek(self):
        return self.toks[self.i]

    def take(self):
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def expect(self, kind, what):
        tok = self.peek()
        if tok[0] != kind:
            self._fail("expected %s" % what, tok[2])
        return self.take()

    def nested(self, pos):
        """The expression inside a '(', a call or a named-series call opened
        at column ``pos``, read one level deeper."""
        if self.depth == NESTING_BOUND:
            raise CapabilityError("expression nesting bounded at %d (exceeded at column %d)"
                                  % (NESTING_BOUND, pos))
        self.depth += 1
        node = self.expr()
        self.depth -= 1
        return node

    def parse(self):
        node = self.expr()
        tok = self.peek()
        if tok[0] != "eof":
            self._fail("unexpected trailing input", tok[2])
        return node

    def expr(self):
        sign = 1
        tok = self.peek()
        if tok[0] in ("plus", "minus"):
            self.take()
            sign = -1 if tok[0] == "minus" else 1
        terms = [(sign, self.term())]
        while self.peek()[0] in ("plus", "minus"):
            tok = self.take()
            terms.append((-1 if tok[0] == "minus" else 1, self.term()))
        return ("add", terms)

    def term(self):
        factors = [self.factor()]
        while self.peek()[0] == "star":
            self.take()
            factors.append(self.factor())
        return ("mul", factors)

    def factor(self):
        base = self.atom()
        if self.peek()[0] == "caret":
            self.take()
            tok = self.peek()
            if tok[0] != "num" or tok[1].denominator != 1 or tok[1] < 0:
                self._fail("expected a nonnegative integer exponent", tok[2])
            self.take()
            return ("pow", base, int(tok[1]))
        return base

    def atom(self):
        tok = self.peek()
        if tok[0] == "num":
            self.take()
            return ("num", tok[1], tok[2])
        if tok[0] == "var":
            if not self.series_mode:
                self._fail("the series variable T is not allowed here", tok[2])
            self.take()
            return ("var", tok[2])
        if tok[0] == "ident":
            if not self.series_mode:
                self._fail("name %r is not allowed here" % tok[1], tok[2])
            return self.call()
        if tok[0] == "gen":
            return self.generator()
        if tok[0] == "lparen":
            self.take()
            node = self.nested(tok[2])
            self.expect("rparen", "')'")
            return node
        if self.series_mode:
            self._fail("expected a number, T, a generator or '('", tok[2])
        self._fail("expected a number, a generator or '('", tok[2])

    def call(self):
        head = self.take()
        name = head[1]
        if name == "beta":
            return ("beta", head[2])
        arity = _FUNCTIONS.get(name)
        if arity is None:
            self._fail("unknown function %r" % name, head[2])
        self.expect("lparen", "'(' after %r" % name)
        args = [self.nested(head[2])]
        while self.peek()[0] == "comma":
            self.take()
            args.append(self.nested(head[2]))
        self.expect("rparen", "')'")
        if len(args) != arity:
            self._fail("%s takes %d argument%s" % (name, arity,
                       "s" if arity > 1 else ""), head[2])
        return ("call", name, args, head[2])

    def generator(self):
        head = self.take()
        if self.series_mode and self.peek()[0] == "lparen":
            if structures.named_series(head[1]) is None:
                self._fail("no named series for letter %r" % head[1], head[2])
            self.take()
            arg = self.nested(head[2])
            self.expect("rparen", "')'")
            return ("sercall", head[1], arg, head[2])
        self.expect("lbrack", "'[' after generator letter")
        parts = [self.part()]
        while True:
            tok = self.peek()
            if tok[0] == "comma":
                self.take()
                parts.append(self.part())
            elif tok[0] == "rbrack":
                self.take()
                self.letters.append((head[1], head[2]))
                return ("gen", head[1], tuple(parts), head[2])
            else:
                self._fail("expected ',' or ']'", tok[2])

    def part(self):
        tok = self.peek()
        if tok[0] != "num" or tok[1].denominator != 1:
            self._fail("expected an index part", tok[2])
        if tok[1] < 1:
            self._fail("index parts must be positive integers", tok[2])
        self.take()
        return int(tok[1])


# -- evaluation -------------------------------------------------------------

def _promote(s, algebra):
    """Lift a series into a larger coefficient algebra, or fail: the target's
    lift decides on the unit of the series' algebra."""
    if s.algebra is algebra:
        return s
    if not algebra.SCALAR:
        try:
            algebra.lift(s.algebra.one())
            return TruncatedSeries(algebra, s.terms, s.cap, s.nvars)
        except AlgebraMismatchError:
            pass
    raise AlgebraMismatchError("series coefficients mix %s with %s" % (
        getattr(s.algebra, "__name__", s.algebra), getattr(algebra, "__name__", algebra)))


def _unify(a, b):
    try:
        return a, _promote(b, a.algebra)
    except AlgebraMismatchError:
        return _promote(a, b.algebra), b


def compose_series(outer, inner):
    """Compose two evaluated series, promoting the coefficients of either."""
    outer, inner = _unify(outer, inner)
    return outer.compose(inner)


def _evaluate(node, cap):
    """The value of a parse tree.  With ``cap`` None it is an element or a
    number; otherwise it is a series truncated at ``cap``, and the operands
    of each sum and product are first lifted into one coefficient algebra."""
    kind = node[0]
    if kind == "num":
        return node[1] if cap is None else TruncatedSeries(Q, {0: node[1]}, cap)
    if kind == "gen":
        el = structures.generator(node[1], node[2])
        return el if cap is None else TruncatedSeries(type(el), {0: el}, cap)
    if kind == "var":
        return TruncatedSeries(Q, {1: 1}, cap)
    if kind == "beta":
        return TruncatedSeries(BetaPolynomial, {0: BetaPolynomial({1: 1})}, cap)
    if kind == "sercall":
        return compose_series(structures.named_series(node[1])(cap),
                              _evaluate(node[2], cap))
    if kind == "call":
        return _eval_call(node, cap)
    if kind == "pow":
        return _evaluate(node[1], cap) ** node[2]
    if kind == "mul":
        out = _evaluate(node[1][0], cap)
        for sub in node[1][1:]:
            rhs = _evaluate(sub, cap)
            if cap is not None:
                out, rhs = _unify(out, rhs)
            out = out * rhs
        return out
    out = None
    for sign, sub in node[1]:
        v = _evaluate(sub, cap)
        if sign < 0:
            v = -v
        if out is not None and cap is not None:
            out, v = _unify(out, v)
        out = v if out is None else out + v
    return out


def _eval_call(node, cap):
    name, args, pos = node[1], node[2], node[3]
    first = _evaluate(args[0], cap)
    if name in ("invert", "revert", "exp", "log", "alternate"):
        return getattr(first, name)()
    if name == "residue":
        return TruncatedSeries(first.algebra, {0: first.residue()}, cap)
    if name == "shift":
        offset = _evaluate(args[1], cap)
        k = offset.coeffs.get(0, 0)
        if (not offset.algebra.SCALAR or set(offset.coeffs) - {0}
                or k.denominator != 1):
            raise ExpressionError("shift offset must be an integer", pos)
        return first.shift(int(k))
    return compose_series(first, _evaluate(args[1], cap))


def parse_element(text, algebra=None):
    """Parse and evaluate an element expression.

    Returns ``(value, family)`` with family one of ``sym``, ``nsym``,
    ``qsym``, ``fdb``, ``bpoly``, or ``scalar`` for a pure number.  Passing
    ``algebra`` pins the family up front; an expression may never mix
    generator letters from two families.  A number-only value is made
    canonical here, as bare numbers combine by Python's operators.
    """
    parser = _Parser(text, series_mode=False)
    node = parser.parse()
    family = algebra
    for letter, pos in parser.letters:
        fam = structures.tag_of_letter(letter)
        if family is None:
            family = fam
        elif fam != family:
            raise ExpressionError(
                "generator %r belongs to %s but the expression is over %s"
                % (letter, fam, family), pos)
    value = _evaluate(node, None)
    return value if parser.letters else rational(value), (family or "scalar")


def parse_series(text, cap):
    """Parse and evaluate a series expression, truncated at degree ``cap``."""
    node = _Parser(text, series_mode=True).parse()
    return _evaluate(node, cap)
