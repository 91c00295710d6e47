"""Every map out of an algebra refuses an element of any other algebra, and a
bare number, with ``AlgebraMismatchError`` naming the map and both classes.

Each map reads its input's basis indices as its own words or partitions, so
an element of a neighbouring algebra used to be read as a different element
of the map's own (``nsym.coproduct(m(2,1))`` gave the coproduct of Z[2,1]).
A map that converts first names itself, not ``convert``.
The maps and the inputs are read from the registries: a structure, tower map
or algebra added later is covered with no edit here.

A basis index that is not a sequence of positive ints is refused with
``DomainError`` by ``LinearElement.canonical_index``, whichever door it comes
through; a bare int used to leak a raw ``TypeError`` from ``tuple``.  A
``Tensor`` refuses a key or factors that are not a sequence the same way.
"""

import pytest

from hopftower import algebroid, qsym, structures, sym, topology
from hopftower.errors import AlgebraMismatchError, DomainError
from hopftower.linear import Polynomial, Tensor
from hopftower.nsym import NSymElement, z
from hopftower.qsym import M
from hopftower.sym import SymElement, m
from hopftower.topology import ProjectiveProductSpace


def _maps():
    """(label, domain tag, one-argument map, the map's name) of every map out
    of an algebra."""
    for label, st in structures.STRUCTURES.items():
        for part in ("coproduct", "antipode"):
            fn = getattr(st, part)
            if fn is not None:
                yield "%s.%s" % (label, part), st.algebra, fn, fn.__name__
    for (source, target), step in structures.ARROWS.items():
        source, target = (structures.STRUCTURES[x].algebra for x in (source, target))
        yield "%s->%s" % (source, target), source, step, step.__name__
    yield "sym.convert", "sym", lambda f: sym.convert(f, "m"), "convert"
    yield "sym.involution", "sym", lambda f: sym.involution(f, "omega"), "involution"
    yield "sym.expand", "sym", lambda f: sym.expand(f, 3), "expand"
    yield "sym.hall_pair.left", "sym", lambda f: sym.hall_pair(f, m(2, 1)), "hall_pair"
    yield "sym.hall_pair.right", "sym", lambda f: sym.hall_pair(m(2, 1), f), "hall_pair"
    yield "qsym.expand_ordered", "qsym", lambda f: qsym.expand_ordered(f, 3), "expand_ordered"
    yield "qsym.pair.left", "nsym", lambda f: qsym.pair(f, M(2, 1)), "pair"
    yield "qsym.pair.right", "qsym", lambda f: qsym.pair(z(2, 1), f), "pair"


def _basis_element(tag):
    """A weight-3 basis element of the algebra tagged ``tag`` with two parts."""
    row = structures.ALGEBRAS[tag]
    return row.element({next(i for i in row.indices(3) if len(i) == 2): 1})


def _foreign(domain):
    """(tag, value) of a basis element of every other algebra, and a bare int."""
    for tag in structures.ALGEBRAS:
        if tag != domain:
            yield tag, _basis_element(tag)
    yield "int", 3


MAPS = list(_maps())
CASES = [pytest.param(fn, domain, x, name, id="%s(%s)" % (label, tag))
         for label, domain, fn, name in MAPS for tag, x in _foreign(domain)]


@pytest.mark.parametrize("fn, domain, x, name", CASES)
def test_a_map_refuses_every_foreign_input(fn, domain, x, name):
    with pytest.raises(AlgebraMismatchError) as exc:
        fn(x)
    assert structures.ALGEBRAS[domain].cls.__name__ in str(exc.value)
    assert type(x).__name__ in str(exc.value)
    # read as words: ``_bpoly_antipode`` says "bpoly antipode"
    words = name.replace("_", " ").strip()
    assert str(exc.value).replace("_", " ").startswith(words + " expects ")


@pytest.mark.parametrize("label, domain, fn, name", MAPS, ids=[m[0] for m in MAPS])
def test_a_map_takes_its_own_algebra(label, domain, fn, name):
    """The refusals above are not of everything: the domain passes."""
    fn(_basis_element(domain))



# (label, a call that passes a bad basis index)
BAD_INDICES = [
    ("NSymElement key", lambda: NSymElement({5: 1})),
    ("SymElement key", lambda: SymElement({None: 1})),
    ("from_index", lambda: NSymElement.from_index(2)),
    ("Tensor slot", lambda: Tensor((NSymElement,), {(5,): 1})),
    ("Tensor int key", lambda: Tensor((NSymElement,), {5: 1})),
    ("Tensor None key", lambda: Tensor((NSymElement,), {None: 1})),
    ("Tensor int factors", lambda: Tensor(5, {})),
    ("Tensor factor not an algebra", lambda: Tensor((1,), {((1,),): 1})),
    ("Tensor string factors", lambda: Tensor("ab", {})),
    ("Polynomial int key", lambda: Polynomial(2, {5: 1})),
    ("cp_char_number partition", lambda: topology.cp_char_number(1, 1)),
    ("quasitoric_char_number composition",
     lambda: topology.quasitoric_char_number(ProjectiveProductSpace([1], [[1], [1]]), 3)),
    ("right_unit_functional None", lambda: algebroid.right_unit_functional(z(2), None)),
    ("right_unit_functional zero part", lambda: algebroid.right_unit_functional(z(2), (0,))),
    ("right_unit_functional float part",
     lambda: algebroid.right_unit_functional(z(2), (1.0,))),
]


@pytest.mark.parametrize("label, call", BAD_INDICES, ids=[r[0] for r in BAD_INDICES])
def test_a_bad_index_is_refused_with_domain_error(label, call):
    with pytest.raises(DomainError):
        call()


def test_right_unit_functional_reads_a_checked_index():
    assert algebroid.right_unit_functional(z(2), [1]) == z(1).scale(2)
    assert algebroid.right_unit_functional(z(2), (1,)) == z(1).scale(2)
