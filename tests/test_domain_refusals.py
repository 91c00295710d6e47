"""Every map out of an algebra refuses an element of any other algebra, and a
bare number, with ``AlgebraMismatchError`` naming both classes.

Each map reads its input's basis indices as its own words or partitions, so
an element of a neighbouring algebra used to be read as a different element
of the map's own (``nsym.coproduct(m(2,1))`` gave the coproduct of Z[2,1]).
The maps and the inputs are read from the registries: a structure, tower map
or algebra added later is covered with no edit here.
"""

import pytest

from hopftower import cli, qsym, structures, sym
from hopftower.errors import AlgebraMismatchError
from hopftower.nsym import z
from hopftower.qsym import M


def _maps():
    """(label, domain tag, one-argument map) of every map out of an algebra."""
    for label, st in structures.STRUCTURES.items():
        for part in ("coproduct", "antipode"):
            if getattr(st, part) is not None:
                yield "%s.%s" % (label, part), st.algebra, getattr(st, part)
    for (source, target), step in cli._TOWER_MAPS.items():
        yield "%s->%s" % (source, target), source, step
    yield "sym.convert", "sym", lambda f: sym.convert(f, "m")
    yield "sym.involution", "sym", lambda f: sym.involution(f, "omega")
    yield "sym.expand", "sym", lambda f: sym.expand(f, 3)
    yield "qsym.expand_ordered", "qsym", lambda f: qsym.expand_ordered(f, 3)
    yield "qsym.pair.left", "nsym", lambda f: qsym.pair(f, M(2, 1))
    yield "qsym.pair.right", "qsym", lambda f: qsym.pair(z(2, 1), f)


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
CASES = [pytest.param(fn, domain, x, id="%s(%s)" % (label, tag))
         for label, domain, fn in MAPS for tag, x in _foreign(domain)]


@pytest.mark.parametrize("fn, domain, x", CASES)
def test_a_map_refuses_every_foreign_input(fn, domain, x):
    with pytest.raises(AlgebraMismatchError) as exc:
        fn(x)
    assert structures.ALGEBRAS[domain].cls.__name__ in str(exc.value)
    assert type(x).__name__ in str(exc.value)


@pytest.mark.parametrize("label, domain, fn", MAPS, ids=[m[0] for m in MAPS])
def test_a_map_takes_its_own_algebra(label, domain, fn):
    """The refusals above are not of everything: the domain passes."""
    fn(_basis_element(domain))

