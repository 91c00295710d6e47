"""Canonical JSON documents for elements, tensors and truncated series.

Every document is a plain dict built in a fixed key order and rendered with
compact separators, so identical values always produce identical bytes.
Coefficients are decimal strings like ``"3"`` or ``"-5/2"`` to keep the
documents exact.  Term lists are sorted by (weight, index) ascending, the
same canonical order used for pretty printing.

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

One writer, ``_body``, gives the terms of every value after its head: an
element or tensor document and each series entry share it.  The readers stay
separate: a series entry may hold a bare scalar (``"coeff"``) whatever the
algebra, and a whole document may not, so one reader would branch on its
caller.  ``from_document`` inverts all of the above exactly; a ``shift`` view
with a negative power or cap is refused when written, since no document
holds it.
"""

import json
from fractions import Fraction

from . import structures
from .errors import DomainError
from .indices import index_sort_key
from .linear import Tensor, TensorSpace, add_term
from .scalars import format_scalar, parse_scalar, rational
from .series import TruncatedSeries
from .sym import SymElement, convert
from .topology import BElement, BetaPolynomial


def _class_tag(cls):
    if cls is Fraction:
        return "scalar"
    if cls is BetaPolynomial:
        return "bpoly"
    return structures.tag_of_class(cls)


def _head(space, structure):
    """The algebra tag (with the factor tags of a tensor space), and the
    structure where the noncommutative algebra carries two: an nsym element
    always names it, a tensor only when it is given and a factor is nsym."""
    if isinstance(space, TensorSpace):
        doc = {"algebra": "tensor", "factors": [_class_tag(c) for c in space.factors]}
        if structure is not None and "nsym" in doc["factors"]:
            doc["structure"] = structure
    else:
        doc = {"algebra": _class_tag(space)}
        if doc["algebra"] == "nsym":
            doc["structure"] = structure or "binomial"
    return doc


def _body(x):
    """The terms of one value: what follows the head of its document, and
    what follows the power of a series entry."""
    if isinstance(x, (int, Fraction)):
        return {"coeff": format_scalar(x)}
    if isinstance(x, BetaPolynomial):
        return {"beta": [{"power": k, **_body(x.terms[k])} for k in sorted(x.terms)]}
    terms = []
    if isinstance(x, Tensor):
        for key in sorted(x.terms, key=lambda k: tuple(map(index_sort_key, k))):
            entry = ({"left": list(key[0]), "right": list(key[1])} if len(key) == 2
                     else {"slots": [list(i) for i in key]})
            entry["coeff"] = format_scalar(x.terms[key])
            terms.append(entry)
    else:
        for idx in sorted(x.terms, key=index_sort_key):
            terms.append({"index": list(idx), "coeff": format_scalar(x.terms[idx])})
    return {"terms": terms}


def series_document(s, structure=None):
    """A series with every coefficient in one basis.  A ``shift`` view with a
    negative power or a negative cap raises ``DomainError``: a series
    document holds a power series, as ``from_document`` builds it."""
    if s.cap < 0 or s.valuation() < 0:
        raise DomainError("the shift view %s (cap %d) has no document" % (s, s.cap))
    doc = _head(s.algebra, structure)
    if s.algebra is BetaPolynomial:
        doc["coefficients"] = "beta"  # BElement series share the bpoly tag
    elif s.algebra is SymElement:
        # one basis for the whole series: that of the first term printed
        basis = s.terms[min(s.terms, key=s._sort_key)].basis if s.terms else "e"
        doc["basis"] = basis
        s = s.map_coefficients(lambda v: convert(v, basis))
    doc["cap"] = s.cap
    doc["vars"] = s.nvars
    entries = []
    for k in sorted(s.terms, key=None if s.nvars == 1 else lambda k: (sum(k), k)):
        entry = {"power": k} if s.nvars == 1 else {"powers": list(k)}
        entry.update(_body(s.terms[k]))
        entries.append(entry)
    doc["series"] = entries
    return doc


def document_for(x, structure=None):
    """Serialize any supported value to its canonical document."""
    if isinstance(x, TruncatedSeries):
        return series_document(x, structure)
    if isinstance(x, (int, Fraction)):  # a number is one term on the empty index
        return {"algebra": "scalar", "terms": [{"index": [], **_body(x)}] if x else []}
    doc = _head(TensorSpace(*x.factors) if isinstance(x, Tensor) else type(x), structure)
    if isinstance(x, SymElement):
        doc["basis"] = x.basis
    doc.update(_body(x))
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


def _terms_from(entries):
    out = {}
    for entry in entries:
        add_term(out, _index(entry["index"]), parse_scalar(entry["coeff"]))
    return out


def _beta_from(entries):
    """A repeated power is summed; the constructor checks every power."""
    return sum((BetaPolynomial({entry["power"]: BElement(_terms_from(entry["terms"]))})
                for entry in entries), BetaPolynomial())


def _element_from(doc):
    tag = doc["algebra"]
    if tag == "scalar":
        return rational(sum((parse_scalar(entry["coeff"]) for entry in doc["terms"]), 0))
    if tag == "bpoly" and "beta" in doc:
        return _beta_from(doc["beta"])
    return structures.algebra(tag).element(_terms_from(doc["terms"]), doc.get("basis"))


def _tensor_terms_from(entries):
    """Slot keys as given, a repeated key summed; the ``Tensor`` constructor
    checks and canonicalises them."""
    terms = {}
    for entry in entries:
        if "slots" in entry:
            key = tuple(_index(i) for i in entry["slots"])
        else:
            key = (_index(entry["left"]), _index(entry["right"]))
        add_term(terms, key, parse_scalar(entry["coeff"]))
    return terms


def _tensor_from(doc):
    factors = tuple(structures.algebra(tag).cls for tag in doc["factors"])
    return Tensor(factors, _tensor_terms_from(doc["terms"]))


def _series_from(doc):
    tag = doc["algebra"]
    if tag == "tensor":
        algebra = TensorSpace(*[structures.algebra(t).cls for t in doc["factors"]])
    elif tag == "scalar":
        algebra = Fraction
    elif tag == "bpoly" and (doc.get("coefficients") == "beta"
                             or any("beta" in e for e in doc["series"])):
        algebra = BetaPolynomial
    else:
        algebra = structures.algebra(tag).cls
    cap, nvars = doc["cap"], doc.get("vars", 1)
    total = TruncatedSeries(algebra, None, cap, nvars)
    for entry in doc["series"]:
        key = tuple(entry["powers"]) if nvars == 2 else entry["power"]
        if "coeff" in entry:
            value = parse_scalar(entry["coeff"])
        elif "beta" in entry:
            value = _beta_from(entry["beta"])
        elif isinstance(algebra, TensorSpace):
            value = Tensor(algebra.factors, _tensor_terms_from(entry["terms"]))
        else:
            value = structures.algebra(tag).element(_terms_from(entry["terms"]),
                                                    doc.get("basis"))
        # a repeated power is summed, each entry a series whose constructor
        # has checked its power first
        total = total + TruncatedSeries(algebra, {key: value}, cap, nvars)
    return total


def from_document(doc):
    """Inverse of ``document_for``: rebuild the value a document describes.

    A document that lacks a required key raises ``DomainError`` naming it,
    and so does one of the wrong shape (not an object, a term that is not an
    object, a cap that is not an integer, and so on).
    """
    try:
        if "series" in doc:
            return _series_from(doc)
        if doc.get("algebra") == "tensor":
            return _tensor_from(doc)
        return _element_from(doc)
    except DomainError:
        raise
    except KeyError as exc:
        raise DomainError("document lacks the %r key" % (exc.args[0],)) from exc
    except (AttributeError, TypeError, ValueError) as exc:
        raise DomainError("malformed document: %s" % (exc,)) from exc


def loads(text):
    return from_document(json.loads(text))
