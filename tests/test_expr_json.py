"""Expression parsing and the canonical JSON layer."""

import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hopftower.diffeo import t
from hopftower.errors import (AlgebraMismatchError, DomainError,
                              ExpressionError)
from hopftower.expr import parse_element, parse_series
from hopftower.jsonio import document_for, dumps, from_document, loads
from hopftower.linear import Tensor, TensorSpace
from hopftower.nsym import NSymElement, z, z_series
from hopftower.qsym import M, pair
from hopftower.series import TruncatedSeries
from hopftower.sym import SymElement, coproduct, e, h, m, p
from hopftower.topology import BElement, BetaPolynomial, b, beta_series, fgl


# -- element expressions ----------------------------------------------------

def test_parse_simple_elements():
    assert parse_element("e[2,1]") == (e(2, 1), "sym")
    assert parse_element("Z[1,2]") == (z(1, 2), "nsym")
    assert parse_element("M[3]") == (M(3), "qsym")
    assert parse_element("t[2]") == (t(2), "fdb")
    assert parse_element("b[1,1]") == (b(1, 1), "bpoly")
    assert parse_element("7") == (Fraction(7), "scalar")
    assert parse_element("3/4") == (Fraction(3, 4), "scalar")


def test_parse_arithmetic_and_precedence():
    value, fam = parse_element("2*e[1]^2 - e[2]*3 + 1/2*e[1,1]")
    assert fam == "sym"
    assert value == e(1, 1).scale(Fraction(5, 2)) - e(2).scale(3)
    assert parse_element("(e[1] + e[2])^2")[0] == \
        (e(1) + e(2)) * (e(1) + e(2))


def test_leading_sign_round_trips_antipode_output():
    text = "-e[1,1,1] + 2*e[2,1] - e[3]"
    value, _ = parse_element(text)
    assert str(value) == text
    assert parse_element("-3")[0] == Fraction(-3)


def test_every_family_round_trips_through_str():
    probes = [e(2, 1) - h(1).scale(0), h(2) + h(1, 1).scale(-2),
              p(3).scale(Fraction(1, 3)), m(2, 1) + m(1, 1, 1),
              z(1, 2) - z(2, 1), M(1, 2).scale(5), t(2, 2),
              b(3, 1) - b(2).scale(Fraction(7, 2))]
    for x in probes:
        got, _ = parse_element(str(x))
        assert got == x


def test_family_mixing_is_rejected_with_position():
    with pytest.raises(ExpressionError) as exc:
        parse_element("e[1] + Z[1]")
    assert exc.value.column == 8
    with pytest.raises(ExpressionError):
        parse_element("e[1]*h[1]*M[1]")


def test_algebra_pin():
    value, fam = parse_element("2", algebra="qsym")
    assert (value, fam) == (Fraction(2), "qsym")
    with pytest.raises(ExpressionError):
        parse_element("e[1]", algebra="qsym")


def test_syntax_errors_carry_columns():
    with pytest.raises(ExpressionError) as exc:
        parse_element("M[1,2")
    assert exc.value.column == 5  # clamped to the last character
    with pytest.raises(ExpressionError) as exc:
        parse_element("e[0]")
    assert exc.value.column == 3
    with pytest.raises(ExpressionError):
        parse_element("1/0")
    with pytest.raises(ExpressionError):
        parse_element("e[1] e[2]")
    with pytest.raises(ExpressionError):
        parse_element("q[1]")
    with pytest.raises(ExpressionError):
        parse_element("T")  # series variable outside series mode
    with pytest.raises(ExpressionError):
        parse_element("e[1]^-2")


# -- series expressions -----------------------------------------------------

def test_series_basics():
    f = parse_series("1 + T^2", 4)
    assert f.coeffs == {0: 1, 2: 1}
    g = parse_series("(1+T)*(1-T)", 4)
    assert g.coeffs == {0: 1, 2: -1}


def test_named_generating_series():
    assert parse_series("Z(T)", 3).coefficient(2) == z(1)
    assert parse_series("e(T)", 3).coefficient(2) == e(2)
    # composition with a scalar inner series promotes it
    f = parse_series("t(2*T)", 3)
    assert f.coefficient(1) == type(t(1)).one().scale(2)


def test_series_functions():
    assert parse_series("invert(1-T)", 3).coeffs == {0: 1, 1: 1, 2: 1, 3: 1}
    assert parse_series("revert(t(T))", 3).coefficient(3) \
        == t(1, 1).scale(2) - t(2)
    assert parse_series("exp(log(1+e[1]*T))", 4) == parse_series("1+e[1]*T", 4)
    assert parse_series("residue(shift(Z(T),-3))", 3).coefficient(0) == z(1)
    assert parse_series("alternate(1+T)", 3).coeffs == {0: 1, 1: -1}
    assert parse_series("compose(T+T^2, T+T^2)", 4).coeffs \
        == {1: 1, 2: 2, 3: 2, 4: 1}


def test_beta_atom():
    f = parse_series("exp(beta*T)", 2)
    assert f.algebra is BetaPolynomial
    assert f.coefficient(1) == BetaPolynomial({1: BElement.one()})
    assert f.coefficient(2) == BetaPolynomial(
        {2: BElement({(): Fraction(1, 2)})})
    # distinct from the full deformation series, whose T^2 term also
    # carries -b[1]*beta
    assert f != beta_series(2)


def test_series_error_paths():
    with pytest.raises(ExpressionError):
        parse_series("shift(Z(T), T)", 3)
    with pytest.raises(ExpressionError):
        parse_series("shift(Z(T), 1/2)", 3)
    with pytest.raises(ExpressionError):
        parse_series("frob(T)", 3)
    with pytest.raises(ExpressionError):
        parse_series("compose(T)", 3)
    with pytest.raises(AlgebraMismatchError):
        parse_series("e[1]*T + Z[1]*T", 3)
    with pytest.raises(ExpressionError):
        parse_series("M(T)", 3)  # no named series for the M letter


# -- canonical JSON ---------------------------------------------------------

def test_element_document_bytes_are_pinned():
    doc = dumps(document_for(e(1) * e(1) - e(2)))
    assert doc == ('{"algebra":"sym","basis":"e","terms":'
                   '[{"index":[1,1],"coeff":"1"},{"index":[2],"coeff":"-1"}]}')


def test_tensor_document_bytes_are_pinned():
    doc = dumps(document_for(coproduct(e(2))))
    assert doc == ('{"algebra":"tensor","factors":["sym","sym"],"terms":'
                   '[{"left":[],"right":[2],"coeff":"1"},'
                   '{"left":[1],"right":[1],"coeff":"1"},'
                   '{"left":[2],"right":[],"coeff":"1"}]}')


def test_documents_round_trip_each_kind():
    values = [
        e(2, 1) - e(3).scale(Fraction(1, 2)),
        SymElement({(2,): Fraction(1)}, "m"),
        z(1, 2) + z(3),
        M(1, 1).scale(-4),
        t(2, 1),
        b(1) + b(2, 2),
        BetaPolynomial({0: b(1), 2: BElement.one()}),
        Fraction(-7, 3),
        coproduct(e(2)),
        Tensor.of(z(1), z(2)) - Tensor.of(z(2), z(1)),
    ]
    for x in values:
        assert from_document(json.loads(dumps(document_for(x)))) == x


def test_sym_documents_keep_the_basis():
    x = SymElement({(2, 1): Fraction(3)}, "m")
    back = loads(dumps(document_for(x)))
    assert back == x and back.basis == "m"
    for x in (m(2, 1), h(2, 1), p(2, 1)):
        assert loads(dumps(document_for(x))).basis == x.basis
        series = TruncatedSeries(SymElement, {1: x}, 3)
        assert from_document(document_for(series)).coefficient(1).basis == x.basis


def test_a_basis_key_is_refused_outside_sym_documents():
    """Only a symmetric function has a basis; a tensor's sym slots are always
    in the e basis, so a document naming another one would be misread."""
    tensor = {"algebra": "tensor", "factors": ["sym"], "basis": "m",
              "terms": [{"slots": [[1]], "coeff": "1"}]}
    element = {"algebra": "nsym", "structure": "binomial", "basis": "m",
               "terms": [{"index": [1], "coeff": "1"}]}
    series = {**document_for(z_series(2)), "basis": "m"}
    for doc in (tensor, element, series):
        with pytest.raises(DomainError, match="basis"):
            from_document(doc)
        del doc["basis"]
        from_document(doc)


def test_series_documents_round_trip():
    probes = [
        parse_series("Z(T)", 4),
        parse_series("invert(e(-T))", 3),
        parse_series("exp(beta*T)", 3),
        TruncatedSeries(Fraction, {0: Fraction(1, 2), 3: Fraction(-2)}, 5),
    ]
    from hopftower.topology import fgl
    probes.append(fgl(3))
    for s in probes:
        back = loads(dumps(document_for(s)))
        assert back == s
        assert back.cap == s.cap and back.nvars == s.nvars


SYM_BASES = ("e", "h", "p", "m")
PARTITIONS = [(), (1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1)]
COMPOSITIONS = [(), (1,), (2,), (1, 1), (3,), (1, 2), (2, 1)]
fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def _terms(draw, indices):
    return {idx: draw(fractions) for idx in draw(st.lists(st.sampled_from(indices),
                                                         max_size=3, unique=True))}


@st.composite
def _series(draw):
    """A series of one of the kinds the JSON layer writes, zero ones included."""
    cap = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["scalar", "bivariate", "sym", "nsym", "tensor",
                                 "beta", "fgl", "bivariate beta", "bivariate tensor"]))
    if kind == "beta":
        return beta_series(cap).scale(draw(fractions))
    if kind == "fgl":
        return fgl(cap).scale(draw(fractions))
    nvars = 2 if kind.startswith("bivariate") else 1
    keys = [(i, j) for i in range(cap + 1) for j in range(cap + 1 - i)] \
        if nvars == 2 else list(range(cap + 1))
    coefficient = {
        "scalar": lambda: draw(fractions),
        "bivariate": lambda: draw(fractions),
        "sym": lambda: SymElement(draw(_terms(PARTITIONS)), draw(st.sampled_from(SYM_BASES))),
        "nsym": lambda: NSymElement(draw(_terms(COMPOSITIONS))),
        "tensor": lambda: Tensor((NSymElement, SymElement), {
            (draw(st.sampled_from(COMPOSITIONS)), draw(st.sampled_from(PARTITIONS))):
            draw(fractions) for _ in range(draw(st.integers(0, 2)))}),
        "bivariate beta": lambda: BetaPolynomial({
            draw(st.integers(0, 2)): BElement(draw(_terms(PARTITIONS)))}),
        "bivariate tensor": lambda: Tensor((SymElement, BElement), {
            (draw(st.sampled_from(PARTITIONS)), draw(st.sampled_from(PARTITIONS))):
            draw(fractions) for _ in range(draw(st.integers(0, 2)))}),
    }[kind]
    algebra = {"scalar": Fraction, "bivariate": Fraction, "sym": SymElement,
               "nsym": NSymElement, "tensor": TensorSpace(NSymElement, SymElement),
               "bivariate beta": BetaPolynomial,
               "bivariate tensor": TensorSpace(SymElement, BElement)}[kind]
    picked = draw(st.lists(st.sampled_from(keys), max_size=3, unique=True))
    return TruncatedSeries(algebra, {k: coefficient() for k in picked}, cap, nvars)


ZERO_SERIES = [TruncatedSeries(algebra, {}, 2, nvars) for algebra, nvars in (
    (Fraction, 1), (Fraction, 2), (SymElement, 1), (NSymElement, 1), (type(M(1)), 1),
    (type(t(1)), 1), (BElement, 1), (BElement, 2), (BetaPolynomial, 1), (BetaPolynomial, 2),
    (TensorSpace(NSymElement, NSymElement), 1), (TensorSpace(NSymElement, NSymElement), 2))]


@settings(max_examples=80, deadline=None)
@given(st.one_of(_series(), st.sampled_from(ZERO_SERIES)))
@example(parse_series("h[1]*T + (m[2]+p[1,1])*T^2 + e[3]*T^3", 3))
@example(parse_series("exp(beta*T)-exp(beta*T)", 2))
@example(TruncatedSeries(BetaPolynomial, {(1, 0): BetaPolynomial({2: b(1)}), (0, 1): 1}, 2, 2))
@example(TruncatedSeries(TensorSpace(SymElement, BElement),
                         {(1, 1): Tensor.of(e(1), b(1)), (0, 2): 1}, 2, 2))
def test_series_documents_round_trip_every_kind(s):
    back = loads(dumps(document_for(s)))
    assert back == s
    assert type(back.algebra) is type(s.algebra) and back.algebra == s.algebra


def test_sym_series_documents_keep_every_coefficient():
    # the product's T^0 and T^1 coefficients are e-based, its T^2 one m-based;
    # the document names one basis, so every coefficient is written in it
    s = TruncatedSeries(SymElement, {0: SymElement.one(), 1: m(1)}, 2)
    square = s * s
    assert square.coefficient(2).basis == "m"
    back = loads(dumps(document_for(square)))
    assert back == square
    assert back.coefficient(2) == m(1, 1).scale(2) + m(2) == e(1, 1)
    assert loads(dumps(document_for(parse_series("(1 + m[1]*T)*(1 + m[1]*T)", 2)))) \
        == parse_series("1 + 2*e[1]*T + e[1,1]*T^2", 2)


def test_scalar_zero_document():
    assert dumps(document_for(Fraction(0))) == '{"algebra":"scalar","terms":[]}'
    assert from_document({"algebra": "scalar", "terms": []}) == 0


def test_scalar_documents_hold_only_the_unit_index():
    for terms in ([{"index": [2, 1], "coeff": "3"}], [{"coeff": "3"}],
                  [{"index": [], "coeff": "1"}, {"index": [1], "coeff": "2"}],
                  [{"index": [1], "coeff": "2"}, {"index": [1], "coeff": "-2"}]):
        with pytest.raises(DomainError):
            from_document({"algebra": "scalar", "terms": terms})
    assert from_document({"algebra": "scalar", "terms": [
        {"index": [], "coeff": "1/2"}, {"index": [], "coeff": "3/2"}]}) == 2
    for x in (0, 7, -3, Fraction(-3, 4)):
        assert from_document(document_for(x)) == x


def test_unknown_algebra_tag_is_rejected():
    with pytest.raises(DomainError):
        from_document({"algebra": "octonion", "terms": []})


def test_missing_keys_are_named():
    missing = [({"algebra": "sym"}, "terms"),
               ({"algebra": "sym", "series": []}, "cap"),
               ({"terms": []}, "algebra"),
               ({"algebra": "tensor", "terms": []}, "factors")]
    for doc, key in missing:
        with pytest.raises(DomainError, match="'%s'" % key):
            from_document(doc)


def test_malformed_or_deep_json_text_is_a_domain_error():
    """``loads`` used to raise a raw JSONDecodeError or RecursionError."""
    for text in ("{", "[" * 5000 + "]" * 5000):
        with pytest.raises(DomainError, match="^invalid JSON: "):
            loads(text)


def test_malformed_documents_raise_domain_error():
    malformed = ["x", [],
                 {"algebra": "sym", "terms": [1]},
                 {"algebra": "scalar", "cap": "z", "vars": 1, "series": []}]
    for doc in malformed:
        with pytest.raises(DomainError):
            from_document(doc)


def test_int_scalars_are_documented_like_fractions():
    # the QSym pairing of integral elements returns a plain int
    value = pair(z(1, 2).scale(3), M(1, 2))
    assert type(value) is int
    assert document_for(value) == document_for(Fraction(3))
    assert from_document(document_for(value)) == 3
    series = TruncatedSeries(Fraction, {0: 2, 1: Fraction(1, 2)}, 3)
    assert loads(dumps(document_for(series))) == series


def test_byte_stability_under_reserialization():
    x = coproduct(e(2, 1))
    one = dumps(document_for(x))
    two = dumps(document_for(from_document(json.loads(one))))
    assert one == two


def test_every_unknown_tag_is_rejected():
    tensor = {"algebra": "tensor", "factors": ["xx", "nsym"], "terms": []}
    series = {"algebra": "tensor", "factors": ["nsym", "xx"], "cap": 2, "vars": 1,
              "series": []}
    for doc in (tensor, series):
        with pytest.raises(DomainError, match="'xx'"):
            from_document(doc)
    with pytest.raises(DomainError, match=r"\['sym'\]"):
        from_document({"algebra": ["sym"], "terms": []})


def test_tensor_document_slot_keys_naming_one_partition_merge():
    doc = {"algebra": "tensor", "factors": ["sym", "sym"],
           "terms": [{"left": [1, 2], "right": [], "coeff": "1"},
                     {"left": [2, 1], "right": [], "coeff": "1"}]}
    assert from_document(doc).terms == {((2, 1), ()): 2}


def test_a_repeated_key_in_a_document_is_summed_not_overwritten():
    left = {"left": [2, 1], "right": [], "coeff": "1"}
    tensor = {"algebra": "tensor", "factors": ["sym", "sym"], "terms": [left, left]}
    assert from_document(tensor).terms == {((2, 1), ()): 2}
    term = {"index": [2, 1], "coeff": "1/2"}
    element = {"algebra": "nsym", "terms": [term, term, {"index": [1], "coeff": "3"}]}
    assert from_document(element) == z(2, 1) + 3 * z(1)


def test_a_repeated_power_in_a_series_document_is_summed():
    doc = document_for(z_series(2))
    doc["series"].append(doc["series"][-1])
    assert str(from_document(doc)) == "T + 2*Z[1]*T^2"
    poly = document_for(BetaPolynomial({1: b(1)}))
    poly["beta"].append(poly["beta"][0])
    assert from_document(poly) == BetaPolynomial({1: b(1).scale(2)})


def test_bool_index_parts_are_refused():
    with pytest.raises(DomainError):
        loads('{"algebra":"nsym","structure":"binomial",'
              '"terms":[{"index":[true,2],"coeff":"1"}]}')
    with pytest.raises(DomainError):
        NSymElement({(True, 2): 1})


def test_a_power_equal_to_an_int_is_refused_before_it_is_summed():
    """``true`` and ``1.0`` hash like the power 1, so each entry's power is
    checked before a repeated power is summed; a lone one was refused already."""
    for other in (True, 1.0):
        doc = {"algebra": "scalar", "cap": 3, "vars": 1,
               "series": [{"power": 1, "coeff": "1"}, {"power": other, "coeff": "1"}]}
        with pytest.raises(DomainError):
            from_document(doc)
    doc = {"algebra": "scalar", "cap": 3, "vars": 2,
           "series": [{"powers": [1, 0], "coeff": "1"}, {"powers": [True, 0], "coeff": "1"}]}
    with pytest.raises(DomainError):
        from_document(doc)

    for other in (True, 1.0):
        poly = {"algebra": "bpoly", "beta": [
            {"power": 1, "terms": [{"index": [1], "coeff": "1"}]},
            {"power": other, "terms": [{"index": [1], "coeff": "1"}]}]}
        with pytest.raises(DomainError, match="power of beta"):
            from_document(poly)


def test_a_repeated_power_in_a_bivariate_series_document_is_summed():
    doc = document_for(TruncatedSeries(BElement, {(1, 2): b(1), (0, 1): 1}, 4, 2))
    doc["series"] += [{"powers": [1, 2], "terms": [{"index": [1], "coeff": "-1"}]},
                      {"powers": [0, 1], "coeff": "1/2"}, {"powers": [3, 3], "coeff": "7"}]
    assert from_document(doc) == TruncatedSeries(BElement, {(0, 1): Fraction(3, 2)}, 4, 2)


def test_a_cap_80_bivariate_document_reads_back_equal():
    """3,321 entries, gathered into one dict rather than added one series at
    a time."""
    s = TruncatedSeries(Fraction, {(i, j): Fraction(i - 2 * j, j + 1) or 1
                                   for i in range(81) for j in range(81 - i)}, 80, 2)
    doc = document_for(s)
    assert len(doc["series"]) == 3321
    assert from_document(json.loads(dumps(doc))) == s


def test_an_index_part_equal_to_an_int_is_refused_before_it_is_summed():
    element = {"algebra": "nsym", "terms": [{"index": [1], "coeff": "1"},
                                            {"index": [True], "coeff": "1"}]}
    tensor = {"algebra": "tensor", "factors": ["nsym", "nsym"],
              "terms": [{"left": [1], "right": [], "coeff": "1"},
                        {"left": [1.0], "right": [], "coeff": "1"}]}
    slots = {"algebra": "tensor", "factors": ["nsym", "nsym", "nsym"],
             "terms": [{"slots": [[2], [], []], "coeff": "1"},
                       {"slots": [[2], [True], []], "coeff": "1"},
                       {"slots": [[2], [1], []], "coeff": "1"}]}
    for doc in (element, tensor, slots):
        with pytest.raises(DomainError):
            from_document(doc)


_TERMS = [{"index": [1], "coeff": "1"}]
_BETA = [{"power": 2, "terms": [{"index": [], "coeff": "1"}]}]


@pytest.mark.parametrize("doc", [
    {"algebra": "fdb", "cap": 2, "series": [
        {"power": 1, "coeff": "3", "terms": [{"index": [2], "coeff": "1"}]}]},
    {"algebra": "sym", "basis": "e", "terms": _TERMS, "beta": _BETA},
    {"algebra": "bpoly", "terms": _TERMS, "beta": _BETA},
], ids=["series entry", "sym element", "bpoly element"])
def test_a_document_with_two_bodies_is_refused(doc):
    """Each body is read by its own kind, so a second one is refused rather
    than silently dropped."""
    with pytest.raises(DomainError, match="one body"):
        from_document(doc)
