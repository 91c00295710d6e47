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
  keyed ``left``/``right`` for two slots and ``slots`` for more
* series: ``{"algebra":...,"cap":6,"vars":1,"series":[{"power":1,...}]}``
  where each entry carries the coefficient body of its algebra
* beta polynomials: coefficient bodies ``{"beta":[{"power":1,"terms":[...]}]}``;
  a series of them is marked ``"coefficients":"beta"`` after its algebra tag
  (a document without the mark is read as one when an entry nests ``beta``)

``from_document`` inverts all of the above exactly.
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


def _term_list(terms):
    out = []
    for idx in sorted(terms, key=index_sort_key):
        out.append({"index": list(idx), "coeff": format_scalar(terms[idx])})
    return out


def _beta_list(poly):
    out = []
    for power in sorted(poly.terms):
        out.append({"power": power, "terms": _term_list(poly.terms[power].terms)})
    return out


def element_document(x, structure=None):
    """Canonical document for a single element (or plain rational)."""
    if isinstance(x, (int, Fraction)):
        terms = [] if not x else [{"index": [], "coeff": format_scalar(x)}]
        return {"algebra": "scalar", "terms": terms}
    if isinstance(x, BetaPolynomial):
        return {"algebra": "bpoly", "beta": _beta_list(x)}
    doc = {"algebra": _class_tag(type(x))}
    if isinstance(x, SymElement):
        doc["basis"] = x.basis
    elif doc["algebra"] == "nsym":
        doc["structure"] = structure or "binomial"
    doc["terms"] = _term_list(x.terms)
    return doc


def tensor_document(t, structure=None):
    factors = [_class_tag(cls) for cls in t.factors]
    doc = {"algebra": "tensor", "factors": factors}
    if structure is not None and "nsym" in factors:
        doc["structure"] = structure
    terms = []
    for key in sorted(t.terms, key=lambda k: tuple(index_sort_key(i) for i in k)):
        coeff = format_scalar(t.terms[key])
        if len(key) == 2:
            terms.append({"left": list(key[0]), "right": list(key[1]),
                          "coeff": coeff})
        else:
            terms.append({"slots": [list(i) for i in key], "coeff": coeff})
    doc["terms"] = terms
    return doc


def _coeff_body(v):
    if isinstance(v, (int, Fraction)):
        return {"coeff": format_scalar(v)}
    if isinstance(v, BetaPolynomial):
        return {"beta": _beta_list(v)}
    if isinstance(v, Tensor):
        doc = tensor_document(v)
        return {"terms": doc["terms"]}
    return {"terms": _term_list(v.terms)}


def series_document(s, structure=None):
    algebra = s.algebra
    if isinstance(algebra, TensorSpace):
        doc = {"algebra": "tensor",
               "factors": [_class_tag(c) for c in algebra.factors]}
    else:
        tag = _class_tag(algebra)
        doc = {"algebra": tag}
        if algebra is BetaPolynomial:
            doc["coefficients"] = "beta"  # BElement series share the bpoly tag
        elif tag == "sym":
            # one basis for the whole series: that of the first term printed
            basis = s.terms[min(s.terms, key=s._sort_key)].basis if s.terms else "e"
            doc["basis"] = basis
            s = s.map_coefficients(lambda v: convert(v, basis))
        elif tag == "nsym":
            doc["structure"] = structure or "binomial"
    doc["cap"] = s.cap
    doc["vars"] = s.nvars
    entries = []
    if s.nvars == 1:
        for k in sorted(s.coeffs):
            entry = {"power": k}
            entry.update(_coeff_body(s.coeffs[k]))
            entries.append(entry)
    else:
        for k in sorted(s.coeffs, key=lambda kk: (sum(kk), kk)):
            entry = {"powers": list(k)}
            entry.update(_coeff_body(s.coeffs[k]))
            entries.append(entry)
    doc["series"] = entries
    return doc


def document_for(x, structure=None):
    """Serialize any supported value to its canonical document."""
    if isinstance(x, TruncatedSeries):
        return series_document(x, structure)
    if isinstance(x, Tensor):
        return tensor_document(x, structure)
    return element_document(x, structure)


def dumps(doc):
    """Byte-stable compact rendering."""
    return json.dumps(doc, separators=(",", ":"))


def _terms_from(entries):
    out = {}
    for entry in entries:
        add_term(out, tuple(entry["index"]), parse_scalar(entry["coeff"]))
    return out


def _beta_from(entries):
    coeffs = {}
    for entry in entries:
        add_term(coeffs, int(entry["power"]), BElement(_terms_from(entry["terms"])))
    return BetaPolynomial(coeffs)


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
            key = tuple(tuple(i) for i in entry["slots"])
        else:
            key = (tuple(entry["left"]), tuple(entry["right"]))
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
    nvars = int(doc.get("vars", 1))
    coeffs = {}
    for entry in doc["series"]:
        key = tuple(entry["powers"]) if nvars == 2 else int(entry["power"])
        if "coeff" in entry:
            value = parse_scalar(entry["coeff"])
        elif "beta" in entry:
            value = _beta_from(entry["beta"])
        elif isinstance(algebra, TensorSpace):
            value = Tensor(algebra.factors, _tensor_terms_from(entry["terms"]))
        else:
            value = structures.algebra(tag).element(_terms_from(entry["terms"]),
                                                    doc.get("basis"))
        add_term(coeffs, key, value)  # a repeated power is summed
    return TruncatedSeries(algebra, coeffs, int(doc["cap"]), nvars)


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
