"""The check suites load on demand, and the report reads as before.

``hopftower.verify`` holds the invocation table and ``run_suites``; the
suites, their table and their check runner live in ``hopftower.suites``,
which loads when ``run_suites`` is called.  Each loading test runs in a fresh
interpreter, since this one may have loaded the suites already.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# the report of a full ``hopftower verify``, byte for byte
FULL_REPORT = [
    'ok    sym-binomial coassociativity (weight <= 7, 45 elements)',
    'ok    sym-binomial counit (weight <= 7, 45 elements)',
    'ok    sym-binomial antipode convolution (weight <= 7, 45 elements)',
    'ok    nsym-binomial coassociativity (weight <= 7, 128 elements)',
    'ok    nsym-binomial counit (weight <= 7, 128 elements)',
    'ok    nsym-binomial antipode convolution (weight <= 7, 128 elements)',
    'ok    qsym coassociativity (weight <= 6, 64 elements)',
    'ok    qsym counit (weight <= 6, 64 elements)',
    'ok    qsym antipode convolution (weight <= 6, 64 elements)',
    'ok    fdb coassociativity (weight <= 6, 30 elements)',
    'ok    fdb counit (weight <= 6, 30 elements)',
    'ok    fdb antipode convolution (weight <= 6, 30 elements)',
    'ok    bfk coassociativity (weight <= 6, 64 elements)',
    'ok    bfk counit (weight <= 6, 64 elements)',
    'ok    bfk antipode convolution (weight <= 6, 64 elements)',
    'ok    arrows commute with coproduct and antipode and respect products (weight <= 5, 464 cases)',
    'ok    antipode(e_n) = (-1)^n h_n and h-series agreement (n <= 8)',
    'ok    antipode in the h, p and m bases equals the e route (weight <= 7, 135 elements)',
    'ok    e, p tables and h-to-m conversions equal the expansion (weight <= 7)',
    'ok    e, p inverses and m-to-h conversions equal Gauss-Jordan (weight <= 7)',
    'ok    counted m-products equal the product of expansions (total weight <= 6, 139 pairs)',
    "ok    qsym antipode: graded recursion equals Ehrenborg's coarsening formula (weight <= 6, 64 compositions)",
    'ok    diffeo antipode: reversion equals graded recursion (n <= 8)',
    'ok    renormalization antipode abelianizes to diffeo antipode (n <= 6)',
    'ok    basis pairing is delta (weight <= 6)',
    'ok    product adjoint to deconcatenation (weight <= 6, 3186 triples)',
    'ok    coproduct adjoint to quasi-shuffle (weight <= 6, 3186 triples)',
    'ok    quasi-shuffle equals ordered-variable expansion (weight <= 5)',
    'ok    coproduct of Z_2 has the 2 Z_1 (x) Z_1 cross term',
    'ok    coproduct of Z_3: mixed coefficients 2 and 3, not cocommutative',
    'ok    renormalization coproduct coassociative (weight <= 7, 128 words)',
    'ok    addition series and group law match coefficient-by-coefficient products (cap 6)',
    'ok    S.B comodule axioms (weight <= 6)',
    'ok    N.N comodule axioms (weight <= 6)',
    'ok    S.B cosimplicial identities and d^2 = 0 (weight <= 5)',
    'ok    N.N cosimplicial identities and d^2 = 0 (weight <= 5)',
    'ok    normalized differential squares to zero in matrix form (weight <= 5)',
    'ok    H^0 of the S.B complex is rank 1 in weights 0-3 (two routes)',
    'ok    differential matrix ranks match dense Gauss-Jordan (weight <= 5, levels 0 and 1)',
    'ok    H^1 with cleared rows equals dim C^1 - rank d^1 - rank d^0 by dense Gauss-Jordan (weight <= 5)',
    'ok    S.B Lie action: xi_n as a derivation equals (id (x) xi_n) of the coaction (weight <= 8)',
    'ok    S.B Chevalley-Eilenberg ranks equal the cleared cobar ranks (weight <= 8, degrees 0-3)',
    "ok    H^*(L_1) by Chevalley-Eilenberg cochains is Goncharova's: one class in each weight "
    "(3q^2 +- q)/2 (weight <= 30, degrees 0-5)",
    'ok    H^s equals dim C^s - rank d^s - rank d^(s-1) by dense Gauss-Jordan (weight <= 5, degrees 2-5)',
    'ok    log coefficients equal the structural antipode of b_n (n <= 7)',
    'ok    projective-space numbers match the normal-bundle oracle (n <= 5)',
    'ok    group law is unital, commutative, associative (degree <= 6)',
    'ok    beta series turns the group law into a product (degree <= 6)',
    'ok    beta series low coefficients: 1, beta, beta^2/2 - beta b_1',
    'ok    noncommutative addition series degenerates and abelianizes correctly',
    'ok    cumulant series pinned coefficients through T^3',
    'ok    beta series in closed form equals exp(beta * log) of the reverted b(T) (degree <= 6)',
    'ok    compositions of n number 2^(n-1) (n <= 12), pinned order at 3',
    'ok    partitions agree with brute-force enumeration (n <= 8)',
    'ok    composition-sum invariant has 2^(k-1) unit terms (k <= 10)',
    'ok    parse/print and JSON round trips on 1000 random elements per algebra',
    'ok    documented invocations: 110 commands, pinned output and exit codes',
    '57/57 checks passed',
]


def _python(*argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_reading_the_table_loads_no_suites():
    _python("-c", "import sys\n"
                  "import hopftower\n"
                  "assert 'hopftower.suites' not in sys.modules\n"
                  "from hopftower import verify\n"
                  "assert 'hopftower.suites' not in sys.modules\n"
                  "assert not [name for name in vars(verify) if name.startswith('suite_')]\n"
                  "loaded = set(sys.modules)\n"
                  "assert len(verify.DOCUMENTED_INVOCATIONS) == 110\n"
                  "assert not hasattr(verify, 'cache_info')\n"
                  "assert not hasattr(verify, '__path__')\n"
                  "assert set(sys.modules) == loaded\n")


def test_the_benchmark_cache_walk_loads_no_suites():
    """``find_caches`` probes every module attribute of the package, the
    verify module among them, for ``cache_info``."""
    _python("-c", "import importlib.util, sys\n"
                  "from hopftower import verify\n"
                  "spec = importlib.util.spec_from_file_location('layers', 'bench/layers.py')\n"
                  "layers = importlib.util.module_from_spec(spec)\n"
                  "spec.loader.exec_module(layers)\n"
                  "assert 'verify._fdb_chi_gen_oracle' in layers.find_caches()\n"
                  "assert 'hopftower.suites' not in sys.modules\n")


@pytest.mark.parametrize("use", ["verify.run_suites(['counts'])"])
def test_running_or_naming_a_suite_loads_the_suites(use):
    _python("-c", "import sys\n"
                  "from hopftower import verify\n"
                  "assert 'hopftower.suites' not in sys.modules\n"
                  "%s\n"
                  "assert 'hopftower.suites' in sys.modules\n" % use)


def test_the_counts_report_is_unchanged():
    assert _python("-m", "hopftower", "verify", "--suite", "counts") == "\n".join(
        FULL_REPORT[-6:-3] + ["3/3 checks passed", ""])


def test_the_full_report_is_unchanged():
    assert _python("-m", "hopftower", "verify") == "\n".join(FULL_REPORT + [""])
