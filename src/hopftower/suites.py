"""The property-check suites that :mod:`hopftower.verify` runs, loaded on first use.

Each ``suite_*`` function takes ``weight`` and ``cap`` bounds and returns a
list of ``(label, ok, detail)`` records.  The checks deliberately compute
everything twice along independent routes wherever the library offers one
(series reversion against the connected-graded recursion, matrix ranks
against a direct kernel solve, quasi-shuffle against expansion in ordered
variables, and so on), so a bug in either route breaks the comparison rather
than hiding inside it.

Every record comes from ``_check``, the one record runner.  ``SUITES`` maps
each name of ``cli.SUITE_NAMES`` to its suite, and ``verify.run_suites``
imports this module when it is called.  No memo lives here: the antipode
oracle the suites share is ``verify._fdb_chi_gen_oracle``.
"""

import io
import json
import random
from fractions import Fraction
from itertools import accumulate, chain, permutations
from math import lcm

from . import diffeo, structures, topology
from . import nsym as nsym_mod
from . import qsym as qsym_mod
from . import sym as sym_mod
from .algebroid import (ALGEBROIDS, WEIGHT_BOUND, coface, cohomology_rank, differential,
                        differential_matrix, differential_rows, invariants_rank_oracle)
from .cli import SUITE_NAMES, run_command
from .diffeo import FdBElement, t
from .errors import ExpressionError
from .exactlinalg import invert_matrix, row_reduce, sparse_rank
from .expr import parse_element
from .indices import compositions_of, partitions_of
from .jsonio import document_for, dumps, from_document
from .linear import Polynomial, Tensor
from .nsym import NSymElement, z
from .qsym import M, QSymElement, expand_ordered, pair, pair_tensor
from .scalars import ONE, ZERO
from .series import TruncatedSeries
from .sym import SymElement, convert, e, h
from .topology import BElement, BetaPolynomial, b
from .verify import DOCUMENTED_INVOCATIONS, _fdb_chi_gen_oracle

_COUNT = "{count}"


def _check(label, checks, detail="fails on %r"):
    """Walk ``(case, passed)`` pairs up to the first failure and make the record.

    ``checks`` is usually a generator, so nothing past the first failure is
    computed.  The record is ``(label, ok, detail)``: a ``{count}`` in
    ``label`` becomes the number of cases walked (filled in literally, so a
    brace elsewhere in the label is harmless), and a failing record's detail
    is ``detail % (case,)``.
    """
    checked = 0
    for case, passed in checks:
        checked += 1
        if not passed:
            return (label.replace(_COUNT, str(checked)), False, detail % (case,))
    return (label.replace(_COUNT, str(checked)), True, "")


# -- generic Hopf structure checks -----------------------------------------

def _coassociative(st, x):
    alg = structures.ALGEBRAS[st.algebra]
    d = st.coproduct(x)
    pair_fac = (alg.cls, alg.cls)
    left = d.apply(0, lambda idx: st.coproduct(alg.element({idx: 1})), pair_fac)
    right = d.apply(1, lambda idx: st.coproduct(alg.element({idx: 1})), pair_fac)
    return left == right


def _counit_ok(st, x):
    d = st.coproduct(x)
    wrapped = Tensor.of(x)
    return d.project_counit(0) == wrapped and d.project_counit(1) == wrapped


def _convolution_ok(st, x):
    alg = structures.ALGEBRAS[st.algebra]
    d = st.coproduct(x)
    left = alg.cls.zero()
    right = alg.cls.zero()
    for (i, j), c in d.terms.items():
        xi, xj = alg.element({i: 1}), alg.element({j: 1})
        left = left + (st.antipode(xi) * xj).scale(c)
        right = right + (xi * st.antipode(xj)).scale(c)
    target = alg.cls.one().scale(x.counit())
    return left == target and right == target


def suite_hopf_axioms(weight=None, cap=None):
    results = []
    for name, st in structures.STRUCTURES.items():
        if st.bound is None:
            continue
        alg = structures.ALGEBRAS[st.algebra]
        bound = weight if weight is not None else st.bound
        for check_name, check in (("coassociativity", _coassociative),
                                  ("counit", _counit_ok),
                                  ("antipode convolution", _convolution_ok)):
            results.append(_check(
                "%s %s (weight <= %d, {count} elements)" % (name, check_name, bound),
                ((idx, check(st, alg.element({idx: 1})))
                 for w in range(bound + 1) for idx in alg.indices(w)),
                "fails on index %r"))
    return results


# -- antipode cross-checks -------------------------------------------------

def _ehrenborg_antipode(I):
    """S(M_I) = (-1)^len(I) * sum of M_J over the coarsenings J of reversed I
    (Ehrenborg, Adv. Math. 119, 1996): a closed form, with no recursion."""
    rev = I[::-1]
    out = {}
    for blocks in compositions_of(len(I)):
        ends = list(accumulate(blocks))
        J = tuple(sum(rev[a:b]) for a, b in zip([0] + ends, ends))
        out[J] = Fraction(-1) ** len(I)
    return QSymElement(out)


def _expanded_transition(basis, w):
    """The transition matrix of ``basis`` read off the literal expansion."""
    nvars = max(w, 1)
    parts = partitions_of(w)
    rows = []
    for lam in parts:
        poly = sym_mod.expand(SymElement({lam: 1}, basis), nvars)
        rows.append(tuple(poly.get(mu + (0,) * (nvars - len(mu)), ZERO) for mu in parts))
    return tuple(rows)


def _gauss_jordan_inverse(basis, w):
    """``sym._transition_inverse`` packed from the dense Gauss-Jordan inverse."""
    inverse = invert_matrix(sym_mod._transition(basis, w)[1])
    d = lcm(*(x.denominator for r in inverse for x in r))
    return d, tuple(tuple((j, x.numerator * (d // x.denominator)) for j, x in enumerate(r) if x)
                    for r in inverse)


def _expanded_m_product(lam, mu):
    """m_lam * m_mu read off the product of the two literal expansions."""
    nvars = max(1, sum(lam) + sum(mu))
    prod = (Polynomial(nvars, sym_mod.expand(SymElement({lam: 1}, "m"), nvars))
            * Polynomial(nvars, sym_mod.expand(SymElement({mu: 1}, "m"), nvars))).terms
    # a weakly decreasing exponent vector is the dominant monomial of its orbit
    return SymElement({tuple(x for x in key if x): c for key, c in prod.items()
                       if list(key) == sorted(key, reverse=True)}, "m")


def suite_antipode(weight=None, cap=None):
    bound = weight if weight is not None else 8
    h_series = sym_mod.h_series(bound)
    tbound = min(bound, 7)
    mbound = min(bound, 6)
    qbound = min(bound, 6)
    bfk_bound = min(bound, 6)
    return [
        _check("antipode(e_n) = (-1)^n h_n and h-series agreement (n <= %d)" % bound,
               ((n, sym_mod.antipode(e(n)) == convert(h(n), "e").scale(Fraction(-1) ** n)
                 and h_series.coefficient(n) == convert(h(n), "e"))
                for n in range(1, bound + 1)),
               "fails at n=%d"),
        _check("counted transition matrices equal the expansion (e, h, p; weight <= %d)"
               % tbound,
               (((basis, w), sym_mod._transition(basis, w)[1]
                 == _expanded_transition(basis, w))
                for basis in ("e", "h", "p") for w in range(tbound + 1))),
        _check("triangular transition inverses equal Gauss-Jordan (e, h, p; weight <= %d)"
               % tbound,
               (((basis, w), sym_mod._transition_inverse(basis, w)
                 == _gauss_jordan_inverse(basis, w))
                for basis in ("e", "h", "p") for w in range(tbound + 1))),
        _check("counted m-products equal the product of expansions "
               "(total weight <= %d, {count} pairs)" % mbound,
               (((lam, mu), SymElement({lam: 1}, "m") * SymElement({mu: 1}, "m")
                 == _expanded_m_product(lam, mu))
                for w1 in range(mbound + 1) for w2 in range(mbound + 1 - w1)
                for lam in partitions_of(w1) for mu in partitions_of(w2))),
        _check("qsym antipode: graded recursion equals Ehrenborg's coarsening formula "
               "(weight <= %d, {count} compositions)" % qbound,
               ((I, qsym_mod.antipode(M(*I)) == _ehrenborg_antipode(I))
                for w in range(qbound + 1) for I in compositions_of(w))),
        _check("diffeo antipode: reversion equals graded recursion (n <= %d)" % bound,
               ((n, diffeo.fdb_antipode(t(n)) == _fdb_chi_gen_oracle(n))
                for n in range(1, bound + 1)),
               "fails at n=%d"),
        _check("renormalization antipode abelianizes to diffeo antipode (n <= %d)"
               % bfk_bound,
               ((n, diffeo.bfk_abelianize(diffeo.bfk_antipode(z(n)))
                 == diffeo.fdb_antipode(t(n)))
                for n in range(1, bfk_bound + 1)),
               "fails at n=%d"),
    ]


# -- duality ----------------------------------------------------------------

def suite_duality(weight=None, cap=None):
    bound = weight if weight is not None else 6
    qbound = min(bound, 5)

    same_weight = ((I, J) for w in range(bound + 1)
                   for I in compositions_of(w) for J in compositions_of(w))
    cross_weight = ((I, J) for wa in range(4) for wb in range(4) if wa != wb
                    for I in compositions_of(wa) for J in compositions_of(wb))

    def product_adjoint():
        for w in range(2, bound + 1):
            for wa in range(1, w):
                for I in compositions_of(wa):
                    for J in compositions_of(w - wa):
                        left = NSymElement({I: 1}) * NSymElement({J: 1})
                        tens = Tensor.of(NSymElement({I: 1}), NSymElement({J: 1}))
                        for K in compositions_of(w):
                            mk = QSymElement({K: 1})
                            yield (I, J, K), (pair(left, mk) == pair_tensor(
                                tens, qsym_mod.coproduct(mk)))

    def coproduct_adjoint():
        for w in range(2, bound + 1):
            for K in compositions_of(w):
                dz = nsym_mod.coproduct(NSymElement({K: 1}))
                for wa in range(1, w):
                    for I in compositions_of(wa):
                        for J in compositions_of(w - wa):
                            lhs = pair_tensor(dz, Tensor.of(QSymElement({I: 1}),
                                                            QSymElement({J: 1})))
                            rhs = pair(NSymElement({K: 1}),
                                       QSymElement({I: 1}) * QSymElement({J: 1}))
                            yield (K, I, J), lhs == rhs

    return [
        _check("basis pairing is delta (weight <= %d)" % bound,
               (((I, J), pair(NSymElement({I: 1}), QSymElement({J: 1}))
                 == (ONE if I == J else ZERO))
                for I, J in chain(same_weight, cross_weight))),
        _check("product adjoint to deconcatenation (weight <= %d, {count} triples)" % bound,
               product_adjoint()),
        _check("coproduct adjoint to quasi-shuffle (weight <= %d, {count} triples)" % bound,
               coproduct_adjoint()),
        # the number of variables is the weight w of the product
        _check("quasi-shuffle equals ordered-variable expansion (weight <= %d)" % qbound,
               (((I, J), Polynomial(w, expand_ordered(QSymElement({I: 1})
                                                      * QSymElement({J: 1}), w))
                 == Polynomial(w, expand_ordered(QSymElement({I: 1}), w))
                 * Polynomial(w, expand_ordered(QSymElement({J: 1}), w)))
                for w in range(2, qbound + 1) for wa in range(1, w)
                for I in compositions_of(wa) for J in compositions_of(w - wa))),
    ]


# -- renormalization coproduct ---------------------------------------------

def _compose_by_coefficients(outer, inner):
    """``outer.compose(inner)`` by the slow route, neither ``compose`` nor
    ``substitute``: Horner's acc = acc * g + c_n down the outer coefficients,
    g the inner series as a ``linear.Polynomial`` cut at the cap."""
    cap = min(outer.cap, inner.cap)
    univariate = inner.nvars == 1
    terms = {(k,) if univariate else k: v for k, v in inner.coeffs.items()}
    g = Polynomial(inner.nvars, terms, cap)
    acc = g * 0
    for n in range(max(outer.coeffs, default=0), -1, -1):
        acc = acc * g + Polynomial(inner.nvars, {(0,) * inner.nvars: outer.coefficient(n)}, cap)
    return TruncatedSeries(inner.algebra, {k[0] if univariate else k: v
                                           for k, v in acc.terms.items()}, cap, inner.nvars)


def suite_bfk(weight=None, cap=None):
    nn = (NSymElement, NSymElement)

    want2 = Tensor(nn, {((2,), ()): 1, ((1,), (1,)): 2, ((), (2,)): 1})
    got2 = diffeo.bfk_coproduct(z(2))
    results = [_check("coproduct of Z_2 has the 2 Z_1 (x) Z_1 cross term",
                      [(got2, got2 == want2)], "got %s")]

    want3 = Tensor(nn, {((3,), ()): 1, ((), (3,)): 1, ((1,), (1, 1)): 1,
                        ((1,), (2,)): 2, ((2,), (1,)): 3})
    got3 = diffeo.bfk_coproduct(z(3))
    results.append(_check("coproduct of Z_3: mixed coefficients 2 and 3, "
                          "not cocommutative",
                          [(got3, got3 == want3 and got3.swap_slots(0, 1) != got3)],
                          "got %s"))

    bound = weight if weight is not None else 7
    results.append(_check(
        "renormalization coproduct coassociative (weight <= %d, {count} words)" % bound,
        ((idx, _coassociative(structures.STRUCTURES["bfk"], NSymElement({idx: 1})))
         for w in range(bound + 1) for idx in compositions_of(w))))

    scap = cap if cap is not None else 6

    def slow_routes():
        zs = nsym_mod.z_series(scap)
        chi = zs.map_coefficients(diffeo.bfk_antipode)
        inner = chi.embed_bivariate(0) + chi.embed_bivariate(1)
        yield "addition series", (topology.cp_infinity_coproduct(scap)
                                  == _compose_by_coefficients(zs, inner))
        bs, log = topology.b_series(scap), topology.miscenko_log(scap)
        yield "logarithm", (_compose_by_coefficients(bs, log)
                            == TruncatedSeries(BElement, {1: 1}, scap))
        inner = log.embed_bivariate(0) + log.embed_bivariate(1)
        yield "group law", topology.fgl(scap) == _compose_by_coefficients(bs, inner)
        ts = diffeo.t_series(scap)
        yield "reversion", (_compose_by_coefficients(ts, ts.revert())
                            == TruncatedSeries(FdBElement, {1: 1}, scap))

    results.append(_check("addition series and group law match coefficient-by-coefficient "
                          "products (cap %d)" % scap, slow_routes(), "fails on the %s"))
    return results


# -- comodules and the cobar complex ---------------------------------------

def _dense_rank_oracle(rows):
    """Rank by dense Gauss-Jordan, the slow route for sparse_rank: no column
    order and no fraction-free elimination."""
    return len(row_reduce(rows)[1])


def suite_comodule_algebroid(weight=None, cap=None):
    results = []
    bound = weight if weight is not None else 6
    cosimp_bound = min(bound, 5)

    def comodule_ok(alg, lam):
        x = alg.base_element(lam)
        psi = alg.coaction(x)
        left = psi.apply(0, lambda idx: alg.coaction(alg.base_element(idx)),
                         (alg.base_cls, alg.hopf_cls))
        right = psi.apply(1, lambda idx: alg.h_coproduct(alg.hopf_element(idx)),
                          (alg.hopf_cls, alg.hopf_cls))
        return left == right and psi.project_counit(1) == Tensor.of(x)

    for name, alg in ALGEBROIDS.items():
        results.append(_check(
            "%s comodule axioms (weight <= %d)" % (name, bound),
            ((lam, comodule_ok(alg, lam))
             for w in range(bound + 1) for lam in alg.base_indices(w))))

    def cosimplicial_checks(alg):
        for w in range(cosimp_bound + 1):
            for lam in alg.base_indices(w):
                x = alg.as_level(alg.base_element(lam))
                for jj in range(1, 3):
                    for ii in range(jj):
                        yield (lam, ii, jj), (coface(alg, coface(alg, x, ii), jj)
                                              == coface(alg, coface(alg, x, jj - 1), ii))
                yield (lam, "d2"), not differential(alg, differential(alg, x))

    for name, alg in ALGEBROIDS.items():
        results.append(_check(
            "%s cosimplicial identities and d^2 = 0 (weight <= %d)" % (name, cosimp_bound),
            cosimplicial_checks(alg)))

    def matrix_squares():
        for w in range(cosimp_bound + 1):
            dom0, cod0, rows0 = differential_matrix(ALGEBROIDS["S.B"], w, 0)
            dom1, cod1, rows1 = differential_matrix(ALGEBROIDS["S.B"], w, 1)
            assert cod0 == dom1
            for i in range(len(dom0)):
                acc = [ZERO] * len(cod1)
                for j, c in enumerate(rows0[i]):
                    if c:
                        for k, d in enumerate(rows1[j]):
                            acc[k] += c * d
                yield (w, dom0[i]), not any(acc)

    results.append(_check(
        "normalized differential squares to zero in matrix form (weight <= %d)"
        % cosimp_bound,
        matrix_squares()))

    def h0_ranks():
        for w in range(4):
            got = cohomology_rank("S.B", w, 0)
            oracle = invariants_rank_oracle(ALGEBROIDS["S.B"], w)
            yield "weight %r gave %r/%r" % (w, got, oracle), got == oracle == 1

    results.append(_check("H^0 of the S.B complex is rank 1 in weights 0-3 (two routes)",
                          h0_ranks(), "%s"))

    rank_bound = min(bound, WEIGHT_BOUND)

    def differential_ranks():
        for name, alg in ALGEBROIDS.items():
            for w in range(rank_bound + 1):
                for s in (0, 1):
                    got = sparse_rank(differential_rows(alg, w, s)[2])
                    want = _dense_rank_oracle(differential_matrix(alg, w, s)[2])
                    yield (name, w, s, got, want), got == want

    results.append(_check("differential matrix ranks match dense Gauss-Jordan "
                          "(weight <= %d, levels 0 and 1)" % rank_bound,
                          differential_ranks()))
    return results


# -- topology ---------------------------------------------------------------

def suite_topology(weight=None, cap=None):
    bound = weight if weight is not None else 7

    log = topology.miscenko_log(bound + 1)

    def log_coefficients():
        for n in range(1, bound + 1):
            structural = BElement(dict(_fdb_chi_gen_oracle(n).terms))
            yield n, log.coefficient(n + 1) == structural == topology.chi_b(n)

    results = [_check("log coefficients equal the structural antipode of b_n (n <= %d)"
                      % bound, log_coefficients(), "fails at n=%d")]

    def projective_numbers():
        for n in range(6):
            for lam in partitions_of(n):
                yield (n, lam), (topology.cp_char_number(n, lam)
                                 == topology.cp_char_number_oracle(n, lam))
        # a second route through the quasitoric numbers: m_lam is the sum of
        # the M_I with sort(I) = lam, evaluated on the n + 1 roots x of CP^n
        for n in range(1, 6):
            cpn = topology.ProjectiveProductSpace((n,), [(1,)] * (n + 1))
            for lam in partitions_of(n):
                total = sum(topology.quasitoric_char_number(cpn, I, "normal")
                            for I in set(permutations(lam)))
                yield (n, lam, "quasitoric"), total == topology.cp_char_number(n, lam)
        hits = [(topology.cp_char_number(1, (1,)), Fraction(-2)),
                (topology.cp_char_number(2, (1, 1)), Fraction(6)),
                (topology.cp_char_number(2, (2,)), Fraction(-3))]
        yield ("pinned", hits), all(a == b for a, b in hits)

    results.append(_check("projective-space numbers match the normal-bundle oracle "
                          "(n <= 5)", projective_numbers()))

    fcap = cap if cap is not None else 6
    F = topology.fgl(fcap)
    ident = TruncatedSeries(BElement, {1: 1}, fcap)
    problems = []
    if F.set_variable_zero(1) != ident or F.set_variable_zero(0) != ident:
        problems.append("unit")
    if F.swap_variables() != F:
        problems.append("commutativity")
    f3 = {(i, j, 0): c for (i, j), c in F.coeffs.items()}
    g3 = {(0, i, j): c for (i, j), c in F.coeffs.items()}
    xvar = {(1, 0, 0): BElement.one()}
    zvar = {(0, 0, 1): BElement.one()}
    lhs = topology.evaluate_bivariate(F, f3, zvar, fcap)
    rhs = topology.evaluate_bivariate(F, xvar, g3, fcap)
    if lhs != rhs:
        problems.append("associativity")
    results.append(_check("group law is unital, commutative, associative (degree <= %d)"
                          % fcap, [(", ".join(problems), not problems)], "failed: %s"))

    B = topology.beta_series(fcap)
    lift = F.map_coefficients(lambda el: BetaPolynomial({0: el}),
                              algebra=BetaPolynomial)
    lhs = B.compose(lift)
    rhs = B.embed_bivariate(0) * B.embed_bivariate(1)
    results.append(_check("beta series turns the group law into a product (degree <= %d)"
                          % fcap, [("mismatch", lhs == rhs)], "%s"))
    pinned = (B.coefficient(0) == BetaPolynomial.one()
              and B.coefficient(1) == BetaPolynomial({1: BElement.one()})
              and B.coefficient(2) == BetaPolynomial({1: b(1).scale(-1),
                                                      2: BElement({(): Fraction(1, 2)})}))
    results.append(_check("beta series low coefficients: 1, beta, beta^2/2 - beta b_1",
                          [("mismatch", pinned)], "%s"))

    ncap = min(fcap, 5)
    CP = topology.cp_infinity_coproduct(ncap)
    okc = (topology.abelianize_series_to_b(CP) == topology.fgl(ncap)
           and CP.set_variable_zero(1) == TruncatedSeries(NSymElement, {1: 1}, ncap)
           and CP.coefficient((1, 1)) == z(1).scale(2))
    results.append(_check("noncommutative addition series degenerates and abelianizes "
                          "correctly", [("mismatch", okc)], "%s"))

    C = topology.cumulant_series(3)
    okq = (C.coefficient(1) == NSymElement({(): -1})
           and C.coefficient(2) == -z(1)
           and C.coefficient(3) == -(z(1, 1).scale(2) - z(2)))
    results.append(_check("cumulant series pinned coefficients through T^3",
                          [(C, okq)], "got %s"))
    return results


# -- combinatorial counts ---------------------------------------------------

def _brute_partitions(n, maxpart=None):
    if maxpart is None:
        maxpart = n
    if n == 0:
        return [()]
    out = []
    for first in range(min(n, maxpart), 0, -1):
        for rest in _brute_partitions(n - first, first):
            out.append((first,) + rest)
    return out


def suite_counts(weight=None, cap=None):
    bound = weight if weight is not None else 12
    kbound = min(bound, 10)

    def composition_counts():
        for n in range(bound + 1):
            yield n, len(compositions_of(n)) == (1 if n == 0 else 2 ** (n - 1))
        yield "order-3", compositions_of(3) == ((3,), (2, 1), (1, 2), (1, 1, 1))
        yield "order-0", compositions_of(0) == ((),)

    def partition_sets():
        for n in range(9):
            yield n, set(partitions_of(n)) == set(_brute_partitions(n))
        yield "pinned-3", set(partitions_of(3)) == {(3,), (2, 1), (1, 1, 1)}
        yield "count-4", len(partitions_of(4)) == 5

    def invariant_terms():
        for k in range(1, kbound + 1):
            inv = topology.crn_invariant(k)
            yield k, (len(inv.terms) == 2 ** (k - 1)
                      and all(c == ONE for c in inv.terms.values()))

    return [
        _check("compositions of n number 2^(n-1) (n <= %d), pinned order at 3" % bound,
               composition_counts(), "fails at %r"),
        _check("partitions agree with brute-force enumeration (n <= 8)",
               partition_sets(), "fails at %r"),
        _check("composition-sum invariant has 2^(k-1) unit terms (k <= %d)" % kbound,
               invariant_terms(), "fails at k=%d"),
    ]


# -- CLI round trips over random elements and the invocation table ---------

def _random_element(rng, family):
    alg = structures.ALGEBRAS[family]
    # a sym letter names the basis, drawn before the terms
    letter = rng.choice(alg.letters) if len(alg.letters) > 1 else None
    terms = {}
    for _ in range(rng.randint(1, 4)):
        pool = alg.indices(rng.randint(1, 6))
        idx = pool[rng.randrange(len(pool))]
        num = rng.choice([x for x in range(-9, 10) if x])
        den = rng.randint(1, 9)
        terms[idx] = terms.get(idx, Fraction(0)) + Fraction(num, den)
    terms = {k: v for k, v in terms.items() if v}
    if not terms:
        terms = {(1,): Fraction(1)}
    return alg.element(terms, letter)


def suite_cli_roundtrip(weight=None, cap=None):
    rng = random.Random(20260825)
    per_family = 1000

    def round_trips():
        for family in structures.ALGEBRAS:
            for _ in range(per_family):
                x = _random_element(rng, family)
                text = str(x)
                try:
                    value, fam = parse_element(text)
                except ExpressionError as exc:
                    yield (family, text, str(exc)), False
                    return
                yield (family, text, "value or family mismatch"), value == x and fam == family
                doc = dumps(document_for(x))
                yield (family, text, "unstable JSON"), dumps(document_for(x)) == doc
                back = from_document(json.loads(doc))
                yield (family, text, "JSON round trip"), back == x and (
                    not isinstance(x, SymElement) or back.basis == x.basis)

    def invocations():
        for argv, expected_out, expected_exit in DOCUMENTED_INVOCATIONS:
            out1, err1 = io.StringIO(), io.StringIO()
            code1 = run_command(list(argv), out1, err1)
            out2, err2 = io.StringIO(), io.StringIO()
            code2 = run_command(list(argv), out2, err2)
            yield ("%s -> exit %d != %d; stderr: %s"
                   % (argv, code1, expected_exit, err1.getvalue().strip()),
                   code1 == expected_exit)
            yield ("%s -> output not byte-stable" % (argv,),
                   (code1, out1.getvalue()) == (code2, out2.getvalue()))
            got = out1.getvalue().rstrip("\n")
            yield "%s -> got %r" % (argv, got), expected_out is None or got == expected_out

    return [
        _check("parse/print and JSON round trips on %d random elements per algebra"
               % per_family, round_trips(), "%r"),
        _check("documented invocations: %d commands, pinned output and exit codes"
               % len(DOCUMENTED_INVOCATIONS), invocations(), "%s"),
    ]


SUITES = {name: globals()["suite_" + name.replace("-", "_")] for name in SUITE_NAMES}
