"""Canonical JSON documents for elements, tensors and truncated series.

Every document is a plain dict built in a fixed key order and rendered with
compact separators, so identical values always produce identical bytes.
Coefficients are decimal strings like ``"3"`` or ``"-5/2"``, the ``str`` of
a canonical rational, to keep the documents exact.  Terms come in the
value's own ``_sort_key`` order, the one it prints in; series entries keep
theirs, by total degree and then power.

Shapes:

* element: ``{"algebra":"sym","basis":"e","terms":[{"index":[1,1],"coeff":"1"}]}``
  (``basis`` only for symmetric functions, ``structure`` only for the
  noncommutative algebra where two coalgebras coexist)
* tensor: ``{"algebra":"tensor","factors":["nsym","nsym"],`` ... with terms
  keyed ``left``/``right`` for two slots and ``slots`` for more (a tensor,
  or a series of tensors, with an nsym factor names the structure it is
  written under, if one is given)
* series: ``{"algebra":...,"cap":6,"vars":1,"series":[{"power":1,...}]}``
  where each entry carries the coefficient body of its algebra
* beta polynomials: coefficient bodies ``{"beta":[{"power":1,"terms":[...]}]}``;
  a series of them is marked ``"coefficients":"beta"`` after its algebra tag
  (a document without the mark is read as one when an entry nests ``beta``)

A document is a head, which names the coefficient algebra, and one body:
``terms`` (an element, a tensor, or a lone number on the empty index),
``beta``, or ``series``, whose entries hold one body each, ``coeff`` for a
number; a document or entry with two bodies is refused.  One lookup per
document, ``_writer`` or ``_reader``, picks the head and the body writer or
reader of its algebra.  A series entry may hold a bare ``coeff`` whatever
the algebra, which the series constructor lifts.  ``from_document`` inverts
all of the above exactly; a ``shift`` view with a negative power or cap is
refused when written, since no document holds it.
"""

import json
from numbers import Rational

from . import structures
from .errors import DomainError
from .linear import Tensor, add_term
from .scalars import Q, parse_scalar
from .series import TruncatedSeries
from .sym import convert
from .topology import BElement


def _number_body(c):
    # the scalars are spanned by the unit, whose index is []
    return {"terms": [{"index": [], "coeff": str(Q.lift(c))}] if c else []}


def _index_body(x):
    t = x.terms
    return {"terms": [{"index": list(k), "coeff": str(t[k])} for k in sorted(t, key=x._sort_key)]}


def _tensor_body(x):
    t = x.terms
    return {"terms": [{**({"left": list(k[0]), "right": list(k[1])} if len(k) == 2
                          else {"slots": [list(i) for i in k]}), "coeff": str(t[k])}
                      for k in sorted(t, key=x._sort_key)]}


def _beta_body(x):
    return {"beta": [{"power": k, **_index_body(x.terms[k])} for k in sorted(x.terms)]}


def _writer(algebra, structure, x, series):
    """The head of the document of ``x``, a value of the coefficient algebra
    ``algebra`` or a ``series`` over it, and the writer of one value's body."""
    kind = next((name for name, row in structures.KINDS.items() if algebra is row
                 or type(algebra) is row), None) or structures.tag_of_class(algebra)
    if kind == "scalar":
        return {"algebra": "scalar"}, (lambda c: {"coeff": str(c)}) if series else _number_body
    if kind == "beta":  # b-element series share the bpoly tag, so a series is marked
        return {"algebra": "bpoly", **({"coefficients": "beta"} if series else {})}, _beta_body
    if kind == "tensor":
        tags = [structures.tag_of_class(c) for c in algebra.factors]
        named = {"structure": structure} if structure is not None and "nsym" in tags else {}
        return {"algebra": "tensor", "factors": tags, **named}, _tensor_body
    if kind == "sym":  # one basis for the document: that of the value printed first
        if series:
            x = x.terms[min(x.terms, key=x._sort_key)] if x.terms else None
        basis = "e" if x is None else x.basis
        return {"algebra": "sym", "basis": basis}, lambda v: _index_body(convert(v, basis))
    return ({"algebra": kind, "structure": structure or "binomial"} if kind == "nsym"
            else {"algebra": kind}), _index_body


def document_for(x, structure=None):
    """Serialize any supported value to its canonical document, a series with
    every coefficient in one basis.  A ``shift`` view with a negative power or
    a negative cap raises ``DomainError``: a series document holds a power
    series, as ``from_document`` builds it."""
    if not isinstance(x, TruncatedSeries):
        algebra = (structures.KINDS["tensor"](*x.factors) if isinstance(x, Tensor)
                   else Q if isinstance(x, Rational) and type(x) is not bool else type(x))
        doc, write = _writer(algebra, structure, x, False)
        return {**doc, **write(x)}
    if x.cap < 0 or x.valuation() < 0:
        raise DomainError("the shift view %s (cap %d) has no document" % (x, x.cap))
    doc, write = _writer(x.algebra, structure, x, True)
    doc["cap"], doc["vars"] = x.cap, x.nvars
    doc["series"] = [{**({"power": k} if x.nvars == 1 else {"powers": list(k)}),
                      **write(x.terms[k])}
                     for k in sorted(x.terms, key=None if x.nvars == 1 else lambda k: (sum(k), k))]
    return doc


def dumps(doc):
    """Byte-stable compact rendering."""
    return json.dumps(doc, separators=(",", ":"))


def _index(parts):
    """A document's index list as a key, checked before a repeated key is
    summed: ``true`` or ``1.0`` equals the ``int`` 1 as a dict key, so a part
    that is not an ``int`` would merge into one that is."""
    key = tuple(parts)
    if any(type(p) is not int for p in key):
        raise DomainError("index parts must be positive integers")
    return key


def _terms_from(entries, key=lambda entry: _index(entry["index"])):
    """The terms of a body, a repeated key summed; ``key`` reads an entry's key."""
    out = {}
    for entry in entries:
        add_term(out, key(entry), parse_scalar(entry["coeff"]))
    return out


def _slots(entry):
    """A tensor entry's slot keys as given; the ``Tensor`` constructor checks
    and canonicalises them."""
    if "slots" in entry:
        return tuple(_index(i) for i in entry["slots"])
    return _index(entry["left"]), _index(entry["right"])


def _number_from(body):
    wrong = next((e["index"] for e in body["terms"] if _index(e["index"])), None)
    if wrong is not None:
        raise DomainError("a scalar term has the index [], not %r" % (wrong,))
    return _terms_from(body["terms"]).get((), 0)


def _beta_from(body):
    """The terms gathered in one dict, a repeated power summed once the
    constructor of its one-term polynomial has checked it."""
    beta, out = structures.KINDS["beta"], {}
    for entry in body["beta"]:
        for k, v in beta({entry["power"]: BElement(_terms_from(entry["terms"]))}).terms.items():
            add_term(out, k, v)
    return beta()._new(out)


def _reader(doc, series):
    """The coefficient algebra of a document and the reader of one body.  A
    bpoly document holds beta polynomials when it nests ``beta``, and a
    series one when it is marked or an entry nests it."""
    tag = doc["algebra"]
    if tag == "scalar":
        return Q, (lambda body: parse_scalar(body["coeff"])) if series else _number_from
    if tag == "tensor":
        factors = tuple(structures.algebra(t).cls for t in doc["factors"])
        return (structures.KINDS["tensor"](*factors),
                lambda body: Tensor(factors, _terms_from(body["terms"], _slots)))
    if tag == "bpoly" and ((doc.get("coefficients") == "beta"
                            or any("beta" in e for e in doc["series"])) if series
                           else "beta" in doc):
        return structures.KINDS["beta"], _beta_from
    row, basis = structures.algebra(tag), doc.get("basis")
    return row.cls, lambda body: row.element(_terms_from(body["terms"]), basis)


def _body(d):
    """The body key of a document or series entry, None if it has none;
    ``DomainError`` if it has two."""
    keys = [k for k in ("coeff", "terms", "beta", "series") if k in d]
    if len(keys) > 1:
        raise DomainError("a value has one body, not %s" % " and ".join(map(repr, keys)))
    return keys[0] if keys else None


def from_document(doc):
    """Inverse of ``document_for``: rebuild the value a document describes.

    A document that lacks a required key raises ``DomainError`` naming it,
    and so does one of the wrong shape (not an object, a term that is not an
    object, a cap that is not an integer, two bodies, and so on).
    """
    try:
        if "basis" in doc and doc.get("algebra") != "sym":
            raise DomainError("only a sym document names a basis, not a %s one"
                              % (doc.get("algebra"),))
        series = _body(doc) == "series"
        algebra, read = _reader(doc, series)
        if not series:
            return read(doc)
        cap, nvars = doc["cap"], doc.get("vars", 1)
        zero, out = TruncatedSeries(algebra, None, cap, nvars), {}
        for entry in doc["series"]:
            key = tuple(entry["powers"]) if nvars == 2 else entry["power"]
            value = parse_scalar(entry["coeff"]) if _body(entry) == "coeff" else read(entry)
            # the terms are gathered in one dict, each power checked and each
            # value lifted before a repeated power is summed (True and 1.0
            # hash like 1), as the series constructor does
            key = zero._norm_key(key)
            if key is not None:
                add_term(out, key, zero.algebra.lift(value))
        return zero._new(out)
    except DomainError:
        raise
    except KeyError as exc:
        raise DomainError("document lacks the %r key" % (exc.args[0],)) from exc
    except (AttributeError, TypeError, ValueError) as exc:
        raise DomainError("malformed document: %s" % (exc,)) from exc


def parse_json(text):
    """The JSON value of ``text``, a ``str``, ``bytes`` or ``bytearray``;
    any other value, malformed or undecodable text, or nesting deeper than
    the decoder's recursion limit, is a ``DomainError``."""
    try:
        return json.loads(text)
    except (TypeError, ValueError, RecursionError) as exc:
        raise DomainError("invalid JSON: %s" % (exc,)) from exc


def loads(text):
    return from_document(parse_json(text))
