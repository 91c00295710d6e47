"""Seeded request streams for the four benchmark workloads.

A stream is a list of :class:`Request` objects.  Each request holds a
zero-argument ``call`` that sends the request to the package (its reply is
what gets timed) and a ``check`` that judges the reply by a route that does
not repeat the computation: a round trip back to the input, an axiom the
reply must satisfy, a second algorithm, or a value frozen from an earlier
commit.  The package only ever sees the generated inputs; the seed stays in
the benchmark.

Every stream is stratified: the seed picks coefficients, partitions,
compositions and the order of requests, but the number of requests of each
kind and weight is fixed.  Each process therefore pays the same cold cache
fills whatever the seed, and two seeds load the same layers equally.

The package modules are reached through ``hopftower.<module>.<name>``
attribute lookups at call time, never through names copied at import, so
the traced run's wrappers see every call a request makes.
"""

import io
import json
import os
import random
from fractions import Fraction

import hopftower as H
from hopftower import (algebroid, cli, diffeo, indices, jsonio, linear, nsym,
                       qsym, series, sym, topology, verify)

PINS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pins.json")

SYM_BASES = ("e", "h", "p", "m")


class Request:
    """One request of a stream: what to send and how to judge the reply."""

    __slots__ = ("kind", "label", "call", "check")

    def __init__(self, kind, label, call, check):
        self.kind = kind
        self.label = label
        self.call = call
        self.check = check


# -- random inputs ------------------------------------------------------------

def _coeff(rng):
    num = rng.choice([x for x in range(-9, 10) if x])
    return Fraction(num, rng.randint(1, 9))


def _pick(rng, pool):
    return pool[rng.randrange(len(pool))]


def _index(rng, enum, weight, length):
    """A random partition or composition of ``weight`` with ``length`` parts."""
    return _pick(rng, [x for x in enum(weight) if len(x) == length])


def _terms(rng, slot, lead_weight, max_weight, enum):
    """1-4 terms whose shape is fixed by ``slot``: how many terms there are
    and the weight and length of each repeat for every seed.  The seed picks
    which index of that weight and length, and the coefficient."""
    count = 1 + slot % 4
    weights = [lead_weight] + [1 + (lead_weight + 3 * i + slot) % max_weight
                               for i in range(1, count)]
    terms = {}
    for i, w in enumerate(weights):
        idx = _index(rng, enum, w, 1 + (slot + i) % w)
        terms[idx] = terms.get(idx, Fraction(0)) + _coeff(rng)
    return {k: v for k, v in terms.items() if v} or {idx: Fraction(1)}


def _sym_element(rng, slot, basis, lead_weight):
    return sym.SymElement(_terms(rng, slot, lead_weight, 7, indices.partitions_of), basis)


def _points(rng, nvars=8, count=3):
    """Integer points at which two symmetric polynomials of degree at most
    ``nvars`` that differ are unlikely to agree (Schwartz-Zippel)."""
    return [tuple(rng.randint(-1000, 1000) for _ in range(nvars)) for _ in range(count)]


def _eval_m(f, point):
    """Value of an m-basis element at a point, by placing the parts of each
    partition on distinct variables; no package code is involved."""
    memo = {}

    def place(i, rest):
        if not rest:
            return 1
        if len(point) - i < len(rest):
            return 0
        key = (i, rest)
        if key not in memo:
            total = place(i + 1, rest)
            for v in set(rest):
                k = rest.index(v)
                total += point[i] ** v * place(i + 1, rest[:k] + rest[k + 1:])
            memo[key] = total
        return memo[key]

    return sum(c * place(0, lam) for lam, c in f.terms.items())


def _series_T(algebra, cap):
    """The series T itself over ``algebra``."""
    return series.TruncatedSeries(algebra, {1: 1}, cap)


# -- sym-basis ----------------------------------------------------------------

def sym_basis(seed):
    """Basis conversions, m-basis products, antipodes, omega and Hall pairs.

    168 conversions (each ordered pair of distinct bases, twice at each lead
    weight 1-7), 32 m-products (for each w1 >= w2 with w1 + w2 <= 8, two
    single-term products), 42 antipodes (h, p and m, twice at each lead weight),
    14 omegas and 14 Hall pairs: 270 requests.
    """
    rng = random.Random(seed)
    reqs = []
    for src in SYM_BASES:
        for dst in SYM_BASES:
            if src == dst:
                continue
            for w in (1, 2, 3, 4, 5, 6, 7) * 2:
                f = _sym_element(rng, len(reqs), src, w)
                reqs.append(Request(
                    "convert", "convert %s->%s w%d" % (src, dst, w),
                    lambda f=f, dst=dst: sym.convert(f, dst),
                    lambda r, f=f, dst=dst: (r.basis == dst
                                             and sym.convert(r, f.basis).terms == f.terms)))
    for w1 in range(1, 8):
        for w2 in range(1, min(w1, 8 - w1) + 1):
            for k in (0, 1):
                lam = _index(rng, indices.partitions_of, w1, 1 + (k + w2) % w1)
                mu = _index(rng, indices.partitions_of, w2, 1 + (k + w1) % w2)
                a = sym.SymElement({lam: _coeff(rng)}, "m")
                b = sym.SymElement({mu: _coeff(rng)}, "m")
                reqs.append(Request(
                    "m_mul", "m-product %s*%s" % (a, b),
                    lambda a=a, b=b: a * b,
                    lambda r, a=a, b=b, pts=_points(rng): r.basis == "m" and all(
                        _eval_m(r, pt) == _eval_m(a, pt) * _eval_m(b, pt) for pt in pts)))
    for basis in ("h", "p", "m"):
        for w in (1, 2, 3, 4, 5, 6, 7) * 2:
            f = _sym_element(rng, len(reqs), basis, w)
            reqs.append(Request(
                "antipode", "antipode %s w%d" % (basis, w),
                lambda f=f: sym.antipode(f),
                lambda r, f=f: r.basis == f.basis
                and sym.antipode(r).terms == f.terms))
    for w in (1, 2, 3, 4, 5, 6, 7) * 2:
        f = _sym_element(rng, len(reqs), SYM_BASES[len(reqs) % 4], w)
        reqs.append(Request(
            "omega", "omega %s w%d" % (f.basis, w),
            lambda f=f: sym.involution(f, "omega"),
            lambda r, f=f: sym.convert(sym.involution(r, "omega"), f.basis).terms
            == f.terms))
    for w in (1, 2, 3, 4, 5, 6, 7) * 2:
        f = _sym_element(rng, len(reqs), SYM_BASES[len(reqs) % 4], w)
        g = _sym_element(rng, len(reqs) + 1, SYM_BASES[(len(reqs) + 1) % 4], w)
        reqs.append(Request(
            "hall_pair", "hall_pair w%d" % w,
            lambda f=f, g=g: sym.hall_pair(f, g),
            lambda r, f=f, g=g: r == sym.hall_pair(g, f)))
    rng.shuffle(reqs)
    return reqs


# -- hopf-series --------------------------------------------------------------

class _Structure:
    __slots__ = ("name", "make", "enum", "delta", "antipode", "involutive")

    def __init__(self, name, make, enum, delta, antipode, involutive):
        self.name = name
        self.make = make
        self.enum = enum
        self.delta = delta
        self.antipode = antipode
        self.involutive = involutive


def _structures():
    # involutive: S o S = id because the structure is commutative or
    # cocommutative; bfk is neither and is checked through abelianization
    return [
        _Structure("sym-binomial", lambda t: sym.SymElement(t, "e"),
                   indices.partitions_of, lambda x: sym.coproduct(x),
                   lambda x: sym.antipode(x), True),
        _Structure("nsym-binomial", lambda t: nsym.NSymElement(t),
                   indices.compositions_of, lambda x: nsym.coproduct(x),
                   lambda x: nsym.antipode(x), True),
        _Structure("qsym", lambda t: qsym.QSymElement(t),
                   indices.compositions_of, lambda x: qsym.coproduct(x),
                   lambda x: qsym.antipode(x), True),
        _Structure("fdb", lambda t: diffeo.FdBElement(t),
                   indices.partitions_of, lambda x: diffeo.fdb_coproduct(x),
                   lambda x: diffeo.fdb_antipode(x), True),
        _Structure("bfk", lambda t: nsym.NSymElement(t),
                   indices.compositions_of, lambda x: diffeo.bfk_coproduct(x),
                   lambda x: diffeo.bfk_antipode(x), False),
    ]


def _counit_ok(x, d):
    one = linear.Tensor.of(x)
    return d.project_counit(0) == one and d.project_counit(1) == one


def _coassociativity(st, x):
    d = st.delta(x)
    fac = d.factors
    left = d.apply(0, lambda idx: st.delta(st.make({idx: 1})), fac)
    right = d.apply(1, lambda idx: st.delta(st.make({idx: 1})), fac)
    return left, right


def _convolution(st, x):
    d = st.delta(x)
    left = right = None
    for (i, j), c in d.terms.items():
        a = (st.antipode(st.make({i: 1})) * st.make({j: 1})).scale(c)
        b = (st.make({i: 1}) * st.antipode(st.make({j: 1}))).scale(c)
        left = a if left is None else left + a
        right = b if right is None else right + b
    return left, right


def _antipode_check(st, x, r):
    if st.involutive:
        return st.antipode(r).terms == x.terms
    return (diffeo.bfk_abelianize(r).terms
            == diffeo.fdb_antipode(diffeo.bfk_abelianize(x)).terms)


def _beta_parts(s, k):
    """The beta^k part of a beta-series as a series over BElement."""
    return series.TruncatedSeries(
        topology.BElement, {n: v.coeffs[k] for n, v in s.coeffs.items() if k in v.coeffs},
        s.cap)


def _beta_check(cap, r):
    log = topology.miscenko_log(cap)
    return (r.coefficient(0) == topology.BetaPolynomial.one()
            and _beta_parts(r, 1) == log
            and _beta_parts(r, 2) == (log * log).scale(Fraction(1, 2)))


def _fgl_check(F, algebra, cap, symmetric):
    T = _series_T(algebra, cap)
    return (F.set_variable_zero(0) == T and F.set_variable_zero(1) == T
            and (not symmetric or F.swap_variables() == F))


def hopf_series(seed):
    """Coproducts, antipodes and Hopf axioms on five structures, plus series.

    Per structure and twice per lead weight 1-6: one coproduct, one antipode,
    one coassociativity check and one antipode-convolution check (240
    requests).  Series requests at caps 4, 6, 8 and 10: reversion of t(T),
    the logarithm, the group law, the beta series and the noncommutative
    addition series (20 requests).  260 requests.
    """
    rng = random.Random(seed)
    reqs = []
    for st in _structures():
        for w in (1, 2, 3, 4, 5, 6) * 2:
            for kind in ("coproduct", "antipode", "coassoc", "convolution"):
                x = st.make(_terms(rng, len(reqs), w, 6, st.enum))
                label = "%s %s w%d" % (st.name, kind, w)
                if kind == "coproduct":
                    reqs.append(Request(kind, label, lambda st=st, x=x: st.delta(x),
                                        lambda r, x=x: _counit_ok(x, r)))
                elif kind == "antipode":
                    reqs.append(Request(kind, label, lambda st=st, x=x: st.antipode(x),
                                        lambda r, st=st, x=x: _antipode_check(st, x, r)))
                elif kind == "coassoc":
                    reqs.append(Request(kind, label,
                                        lambda st=st, x=x: _coassociativity(st, x),
                                        lambda r: r[0] == r[1]))
                else:
                    reqs.append(Request(
                        kind, label, lambda st=st, x=x: _convolution(st, x),
                        lambda r, x=x: r[0] == r[1] == r[0].one().scale(x.counit())))
    for cap in (4, 6, 8, 10):
        reqs.append(Request(
            "t_revert", "t(T) revert cap %d" % cap,
            lambda cap=cap: diffeo.t_series(cap).revert(),
            lambda r, cap=cap: diffeo.t_series(cap).compose(r)
            == _series_T(diffeo.FdBElement, cap)))
        reqs.append(Request(
            "log", "miscenko_log cap %d" % cap,
            lambda cap=cap: topology.miscenko_log(cap),
            lambda r, cap=cap: topology.b_series(cap).compose(r)
            == _series_T(topology.BElement, cap)))
        reqs.append(Request(
            "fgl", "fgl cap %d" % cap,
            lambda cap=cap: topology.fgl(cap),
            lambda r, cap=cap: _fgl_check(r, topology.BElement, cap, True)))
        reqs.append(Request(
            "beta", "beta_series cap %d" % cap,
            lambda cap=cap: topology.beta_series(cap),
            lambda r, cap=cap: _beta_check(cap, r)))
        reqs.append(Request(
            "cp_inf", "cp_infinity_coproduct cap %d" % cap,
            lambda cap=cap: topology.cp_infinity_coproduct(cap),
            lambda r, cap=cap: _fgl_check(r, nsym.NSymElement, cap, False)))
    rng.shuffle(reqs)
    return reqs


# -- cobar ----------------------------------------------------------------------

COBAR_WEIGHT_BOUND = 6


def load_pins():
    """Cohomology ranks frozen from the seed commit: {alg: [[H0, H1], ...]}."""
    with open(PINS_PATH) as fh:
        return json.load(fh)["cohomology_rank"]


def _level_key(rng, alg, slot, w, level):
    """A basis key of the normalized level-0 or level-1 piece of weight w:
    a base index, then (at level 1) an H index of positive weight."""
    if level == 0:
        return (_index(rng, alg.base_indices, w, 1 + slot % w),)
    base_w = slot % w
    base = _index(rng, alg.base_indices, base_w, 1 + slot % base_w) if base_w else ()
    return (base, _index(rng, alg.h_indices, w - base_w, 1 + slot % (w - base_w)))


def _level_element(alg, key):
    return linear.Tensor((alg.base_cls,) + (alg.hopf_cls,) * (len(key) - 1), {key: 1})


def cobar(seed):
    """Cohomology ranks, the H^0 oracle and d o d = 0 on basis elements.

    28 rank requests (S.B and N.N, weights 0-6, degrees 0 and 1) through the
    public ``weight_bound`` argument, 14 oracle requests, and 144 d o d
    requests on basis elements: per algebroid and level 0 and 1, four at
    each weight 1-3 and eight at each weight 4-6.  186 requests.  The
    weight split and the part counts of each d o d input are fixed by its
    slot; the seed picks the indices.
    """
    rng = random.Random(seed)
    pins = load_pins()
    reqs = []
    for name in ("S.B", "N.N"):
        alg = algebroid.ALGEBROIDS[name]
        for w in range(COBAR_WEIGHT_BOUND + 1):
            h0, h1 = pins[name][w]
            reqs.append(Request(
                "rank0", "%s H^0 w%d" % (name, w),
                lambda name=name, w=w: algebroid.cohomology_rank(
                    name, w, 0, weight_bound=COBAR_WEIGHT_BOUND),
                lambda r, alg=alg, w=w, h0=h0: r == h0
                == algebroid.invariants_rank_oracle(alg, w)))
            reqs.append(Request(
                "rank1", "%s H^1 w%d" % (name, w),
                lambda name=name, w=w: algebroid.cohomology_rank(
                    name, w, 1, weight_bound=COBAR_WEIGHT_BOUND),
                lambda r, h1=h1: r == h1))
            reqs.append(Request(
                "oracle", "%s invariants oracle w%d" % (name, w),
                lambda alg=alg, w=w: algebroid.invariants_rank_oracle(alg, w),
                lambda r, h0=h0: r == h0))
        for level in (0, 1):
            for w in range(1, COBAR_WEIGHT_BOUND + 1):
                for _ in range(4 if w < 4 else 8):
                    x = _level_element(alg, _level_key(rng, alg, len(reqs), w, level))
                    reqs.append(Request(
                        "dd", "%s d o d level %d w%d" % (name, level, w),
                        lambda alg=alg, x=x: algebroid.differential(
                            alg, algebroid.differential(alg, x)),
                        lambda r: not r.terms))
    rng.shuffle(reqs)
    return reqs


# -- cli-small --------------------------------------------------------------------

def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli.run_command(list(argv), out, err)
    return code, out.getvalue()


def _pinned_check(expected_out, expected_exit):
    def check(reply):
        code, out = reply
        if code != expected_exit:
            return False
        return expected_out is None or out.rstrip("\n") == expected_out
    return check


_INDICES = {"e": indices.partitions_of, "h": indices.partitions_of,
            "p": indices.partitions_of, "t": indices.partitions_of,
            "Z": indices.compositions_of, "M": indices.compositions_of}


def _element(letter, terms):
    if letter in SYM_BASES:
        return sym.SymElement(terms, letter)
    return {"Z": nsym.NSymElement, "M": qsym.QSymElement,
            "t": diffeo.FdBElement}[letter](terms)


def _parsed(out):
    return H.expr.parse_element(out.strip())[0]


def _ok_element(check):
    def judge(reply):
        code, out = reply
        return code == 0 and check(_parsed(out))
    return judge


def _ok_document(check):
    def judge(reply):
        code, out = reply
        return code == 0 and check(jsonio.loads(out))
    return judge


def _product_terms(a, b, letter):
    """Product of two elements of a multiplicative basis, by merging indices."""
    out = {}
    for i, ci in a.terms.items():
        for j, cj in b.terms.items():
            k = i + j if letter == "Z" else tuple(sorted(i + j, reverse=True))
            out[k] = out.get(k, Fraction(0)) + ci * cj
    return {k: v for k, v in out.items() if v}


def _scalar_series(rng, cap, lowest):
    """Random rational coefficients on most degrees from ``lowest`` to ``cap``."""
    return {k: _coeff(rng) for k in range(lowest, cap + 1) if rng.random() < 0.7}


def _series_text(coeffs):
    return " + ".join("(%s)" % c if k == 0 else "(%s)*T^%d" % (c, k)
                      for k, c in sorted(coeffs.items())) or "0"


def cli_small(seed):
    """The documented invocation table without its ``verify`` rows, plus a
    seeded stream of small invocations: 108 pinned rows and 96 generated ones
    (12 each of eval, convert, antipode, coproduct, compose, revert, log and
    fgl), 204 requests.
    """
    rng = random.Random(seed)
    reqs = []
    for argv, expected_out, expected_exit in verify.DOCUMENTED_INVOCATIONS:
        if argv[0] == "verify":
            continue
        reqs.append(Request("pinned", " ".join(argv),
                            lambda argv=argv: _run_cli(argv),
                            _pinned_check(expected_out, expected_exit)))
    letters = ("e", "h", "p", "Z", "t", "M")
    for k in range(12):
        # eval: products in the multiplicative bases, checked by index merging
        letter = ("e", "h", "p", "Z", "t")[k % 5]
        enum = _INDICES[letter]
        a = _element(letter, _terms(rng, k, 1 + k % 2, 2, enum))
        b = _element(letter, _terms(rng, k, 1 + k % 2, 2, enum))
        want = _element(letter, _product_terms(a, b, letter))
        reqs.append(Request("eval", "eval %s" % letter,
                            lambda t="(%s)*(%s)" % (a, b): _run_cli(("eval", "--", t)),
                            _ok_element(lambda v, want=want: v == want)))
        # convert between sym bases, checked by converting back
        src, dst = [(x, y) for x in SYM_BASES for y in SYM_BASES if x != y][k]
        f = _element(src, _terms(rng, k, 1 + k % 4, 4, indices.partitions_of))
        reqs.append(Request(
            "convert", "convert %s->%s" % (src, dst),
            lambda t=str(f), dst=dst: _run_cli(("convert", "--to", dst, "--", t)),
            _ok_element(lambda v, f=f: sym.convert(v, f.basis).terms == f.terms)))
        # antipode, involutive on every family asked for here
        letter = letters[k % 6]
        enum = _INDICES[letter]
        f = _element(letter, _terms(rng, k, 1 + k % 4, 4, enum))
        reqs.append(Request(
            "antipode", "antipode %s" % letter,
            lambda t=str(f): _run_cli(("antipode", "--", t)),
            _ok_element(lambda v, f=f: _twice(v, f))))
        # coproduct: JSON tensor, checked by the counit axioms
        letter = ("e", "Z", "M", "t")[k % 4]
        enum = _INDICES[letter]
        f = _element(letter, _terms(rng, k, 1 + k % 4, 4, enum))
        reqs.append(Request(
            "coproduct", "coproduct %s" % letter,
            lambda t=str(f): _run_cli(("coproduct", "--", t)),
            _ok_document(lambda d, f=f: _counit_ok(f, d))))
        # compose a scalar series with T + ..., checked by composing back
        cap = 3 + k % 4
        outer = _scalar_series(rng, cap, 0)
        inner = {1: Fraction(1)}
        inner.update(_scalar_series(rng, cap, 2))
        reqs.append(Request(
            "compose", "compose cap %d" % cap,
            lambda o=_series_text(outer), i=_series_text(inner), cap=cap:
            _run_cli(("compose", "--cap", str(cap), "--", o, i)),
            _ok_document(lambda s, outer=outer, inner=inner, cap=cap:
                         s.compose(_scalar(inner, cap).revert()) == _scalar(outer, cap))))
        # revert, checked by composing back to T
        cap = 3 + (k + 1) % 4
        f = {1: Fraction(1)}
        f.update(_scalar_series(rng, cap, 2))
        reqs.append(Request(
            "revert", "revert cap %d" % cap,
            lambda t=_series_text(f), cap=cap: _run_cli(("revert", "--cap", str(cap), "--", t)),
            _ok_document(lambda s, f=f, cap=cap:
                         _scalar(f, cap).compose(s) == _series_T(Fraction, cap))))
        # log: of 1 + ..., checked by exp; with no argument, by composing b(T)
        cap = 3 + (k + 2) % 4
        if k % 2:
            f = {0: Fraction(1)}
            f.update(_scalar_series(rng, cap, 1))
            reqs.append(Request(
                "log", "log cap %d" % cap,
                lambda t=_series_text(f), cap=cap: _run_cli(("log", "--cap", str(cap), "--", t)),
                _ok_document(lambda s, f=f, cap=cap: s.exp() == _scalar(f, cap))))
        else:
            reqs.append(Request(
                "log", "log b(T) cap %d" % cap,
                lambda cap=cap: _run_cli(("log", "--cap", str(cap))),
                _ok_document(lambda s, cap=cap: topology.b_series(cap).compose(s)
                             == _series_T(topology.BElement, cap))))
        # fgl: unit and, for the commutative structures, symmetry
        structure = ("binomial", "bfk", "fdb")[k % 3]
        cap = 2 + k % 5
        algebra = {"binomial": topology.BElement, "bfk": nsym.NSymElement,
                   "fdb": diffeo.FdBElement}[structure]
        reqs.append(Request(
            "fgl", "fgl %s cap %d" % (structure, cap),
            lambda structure=structure, cap=cap: _run_cli(
                ("fgl", "--structure", structure, "--cap", str(cap))),
            _ok_document(lambda s, algebra=algebra, cap=cap, structure=structure:
                         _fgl_check(s, algebra, cap, structure != "bfk"))))
    rng.shuffle(reqs)
    return reqs


def _scalar(coeffs, cap):
    return series.TruncatedSeries(Fraction, coeffs, cap)


def _twice(v, f):
    """S(S(f)) = f, with S applied by the library to the CLI's reply."""
    if isinstance(f, sym.SymElement):
        return sym.antipode(v) == f
    if isinstance(f, nsym.NSymElement):
        return nsym.antipode(v) == f
    if isinstance(f, qsym.QSymElement):
        return qsym.antipode(v) == f
    return diffeo.fdb_antipode(v) == f


class Workload:
    """A stream builder and the seconds that one of its workload processes,
    with the import-only process started before it, took at the commit the
    benchmark was defined on.  ``run.py`` sizes a run's process count from
    ``pair_s`` alone, never from how fast the code under test is."""

    __slots__ = ("build", "pair_s")

    def __init__(self, build, pair_s):
        self.build = build
        self.pair_s = pair_s


WORKLOADS = {
    "sym-basis": Workload(sym_basis, 4.8),
    "hopf-series": Workload(hopf_series, 2.5),
    "cobar": Workload(cobar, 3.6),
    "cli-small": Workload(cli_small, 1.6),
}
