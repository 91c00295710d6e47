"""The one registry of the algebras and Hopf structures of the tower.

``ALGEBRAS`` has one row per algebra, keyed by its JSON tag, and
``STRUCTURES`` one row per coproduct, keyed by its label.  ``expr``,
``jsonio``, ``cli``, ``suites`` and ``algebroid`` read the rows at each
lookup, so adding a structure takes one row.  Every function is a direct
attribute of its row, so code that rebinds a function wherever it is held
(a tracer, a test double) also reaches the calls made through the registry.
"""

from . import diffeo, nsym, qsym, sym, topology
from .diffeo import FdBElement
from .errors import CapabilityError, DomainError
from .indices import compositions_of, partitions_of
from .nsym import NSymElement
from .qsym import QSymElement
from .sym import SymElement
from .topology import BElement


class Algebra:
    """One algebra: element class, generator letters, basis indices of a
    weight, and the generating series named by a letter (letter -> cap -> series)."""

    __slots__ = ("cls", "letters", "indices", "series")

    def __init__(self, cls, letters, indices, series=None):
        self.cls = cls
        self.letters = letters
        self.indices = indices
        self.series = series or {}

    def element(self, terms, letter=None):
        """The element with these terms; a sym letter names its basis."""
        if self.cls is SymElement:
            return SymElement(terms, letter or "e")
        return self.cls(terms)


class Structure:
    """A coproduct and antipode on the algebra tagged ``algebra``.

    ``flag`` is the ``--structure`` value that picks it, None where the
    algebra carries one structure only; ``bound`` is the weight up to which
    the Hopf axioms are checked, None where they cannot be.

    A coproduct or antipode built on ``linear.on_words`` must pass it a
    module-level function or constant as the letter map: the word-image memo
    is keyed by that map, so a fresh closure or ``partial`` per call never
    hits and adds entries that live as long as the process.
    """

    __slots__ = ("algebra", "flag", "coproduct", "antipode", "bound")

    def __init__(self, algebra, flag, coproduct, antipode, bound):
        self.algebra = algebra
        self.flag = flag
        self.coproduct = coproduct
        self.antipode = antipode
        self.bound = bound


def _bpoly_antipode(f):
    """b_k read as t_k: the bordism coefficients carry the diffeomorphism antipode."""
    return BElement(dict(diffeo.fdb_antipode(FdBElement(dict(f.terms))).terms))


ALGEBRAS = {
    "sym": Algebra(SymElement, sym.BASES, partitions_of,
                   {"e": sym.e_series, "h": sym.h_series}),
    "nsym": Algebra(NSymElement, ("Z",), compositions_of, {"Z": nsym.z_series}),
    "qsym": Algebra(QSymElement, ("M",), compositions_of),
    "fdb": Algebra(FdBElement, ("t",), partitions_of, {"t": diffeo.t_series}),
    "bpoly": Algebra(BElement, ("b",), partitions_of, {"b": topology.b_series}),
}

STRUCTURES = {
    "sym-binomial": Structure("sym", "binomial", sym.coproduct, sym.antipode, 7),
    "nsym-binomial": Structure("nsym", "binomial", nsym.coproduct, nsym.antipode, 7),
    "qsym": Structure("qsym", None, qsym.coproduct, qsym.antipode, 6),
    "fdb": Structure("fdb", None, diffeo.fdb_coproduct, diffeo.fdb_antipode, 6),
    "bfk": Structure("nsym", "bfk", diffeo.bfk_coproduct, diffeo.bfk_antipode, 6),
    # the coaction of the diffeomorphisms on sym is a coproduct into sym (x) fdb,
    # and the bordism coefficients have an antipode but no coproduct here
    "sym-fdb-coaction": Structure("sym", "fdb", diffeo.coaction_sym, None, None),
    "bpoly": Structure("bpoly", None, None, _bpoly_antipode, None),
}


def algebra(tag):
    """The row of the algebra with this JSON tag."""
    row = ALGEBRAS.get(tag) if isinstance(tag, str) else None
    if row is None:
        raise DomainError("unknown algebra tag %r" % (tag,))
    return row


def tag_of_letter(letter):
    """The tag of the algebra whose generators ``letter`` names, or None."""
    return next((tag for tag, row in ALGEBRAS.items() if letter in row.letters), None)


def tag_of_class(cls):
    """The tag of the algebra whose elements are ``cls``."""
    for tag, row in ALGEBRAS.items():
        if row.cls is cls:
            return tag
    raise DomainError("no JSON tag for %r" % (cls,))


def generator(letter, parts):
    """The basis element ``letter[parts]``."""
    return ALGEBRAS[tag_of_letter(letter)].element({parts: 1}, letter)


def named_series(letter):
    """The generating series function named by ``letter``, or None."""
    return ALGEBRAS[tag_of_letter(letter)].series.get(letter)


def find(tag, flag, part):
    """The structure on algebra ``tag`` that defines ``part`` ("coproduct" or
    "antipode") and that ``flag`` names; with no flag, the first such row."""
    rows = [st for st in STRUCTURES.values() if st.algebra == tag and getattr(st, part)]
    if not rows:
        raise CapabilityError("no %s is implemented on the %s algebra" % (part, tag))
    for st in rows:
        if flag is None or st.flag == flag:
            return st
    raise DomainError("structure %r is not defined on the %s algebra" % (flag, tag))
