"""The pinned invocation table and the entry point of the self-checks.

This module stays light, so that reading the table loads no checks.  It holds
``DOCUMENTED_INVOCATIONS``, the exact argv, stdout and exit code of every
command-line example this package documents; ``_fdb_chi_gen_oracle``, the
memoised antipode oracle (the benchmark names a cache by its module, so it
lives here and not with the suites); ``run_suites``, which imports
:mod:`hopftower.suites` when it is called; and ``render_report``.  The
suites, their table ``SUITES`` and the runner that makes every record live
in :mod:`hopftower.suites`.
"""

from functools import lru_cache

from . import structures
from .diffeo import FdBElement
from .linear import on_words, recursive_antipode


@lru_cache(maxsize=None)
def _fdb_chi_gen_oracle(n):
    """Antipode of t_n by the connected-graded recursion, not by reversion."""
    return recursive_antipode(
        structures.STRUCTURES["fdb"].gen(n),
        lambda idx: on_words(FdBElement.from_index(idx), _fdb_chi_gen_oracle))


# -- the documented invocation table ----------------------------------------

_QT_SPACE_1 = '{"factors":[1],"roots":[[1],[1]]}'
_QT_SPACE_11 = '{"factors":[1,1],"roots":[[1,0],[1,0],[0,1],[0,1]]}'

DOCUMENTED_INVOCATIONS = [
    # elements: products, canonical printing
    (("eval", "Z[1,1]*Z[2,3]"), "Z[1,1,2,3]", 0),
    (("eval", "1*Z[2]"), "Z[2]", 0),
    (("eval", "Z[2]*Z[1]"), "Z[2,1]", 0),
    (("eval", "Z[1]*Z[2]"), "Z[1,2]", 0),
    (("eval", "(Z[1]+Z[2])*Z[1]"), "Z[1,1] + Z[2,1]", 0),
    (("eval", "Z[2]*Z[1] + 3*Z[3]"), "Z[2,1] + 3*Z[3]", 0),
    (("eval", "e[2,1]^2"), "e[2,2,1,1]", 0),
    (("eval", "e[1]*e[1]"), "e[1,1]", 0),
    (("eval", "h[1]*h[2]"), "h[2,1]", 0),
    (("eval", "m[1]*m[1]"), "2*m[1,1] + m[2]", 0),
    (("eval", "M[1]*M[1]"), "2*M[1,1] + M[2]", 0),
    (("eval", "M[1]*M[2]"), "M[1,2] + M[2,1] + M[3]", 0),
    (("eval", "1*M[1,2]"), "M[1,2]", 0),
    (("eval", "t[1,2]"), "t[2,1]", 0),
    (("eval", "t[2,1,2]"), "t[2,2,1]", 0),
    (("eval", "1"), "1", 0),
    (("eval", "--json", "e[1]^2 - e[2]"),
     '{"algebra":"sym","basis":"e","terms":[{"index":[1,1],"coeff":"1"},'
     '{"index":[2],"coeff":"-1"}]}', 0),
    (("eval", "--json", "e[1] - e[1]"),
     '{"algebra":"sym","basis":"e","terms":[]}', 0),
    # basis conversion, involutions, algebra collapse
    (("convert", "h[2]", "--to", "e"), "e[1,1] - e[2]", 0),
    (("convert", "p[2]", "--to", "e"), "e[1,1] - 2*e[2]", 0),
    (("convert", "m[1]", "--to", "e"), "e[1]", 0),
    (("convert", "e[3]", "--involution", "dual"), "-e[3]", 0),
    (("convert", "e[2]", "--involution", "whitney"), "h[2]", 0),
    (("convert", "e[2]", "--involution", "omega"), "h[2]", 0),
    (("convert", "e[2]", "--involution", "omega", "--involution", "omega",
      "--to", "e"), "e[2]", 0),
    (("convert", "Z[2,1]", "--to", "e"), "e[2,1]", 0),
    (("convert", "Z[1,2]", "--to", "e"), "e[2,1]", 0),
    (("convert", "Z[1,1] - Z[2]", "--to", "e"), "e[1,1] - e[2]", 0),
    (("convert", "Z[2,1]", "--to", "t"), "t[2,1]", 0),
    (("convert", "-Z[3] + 2*Z[1,2] + 3*Z[2,1] - 5*Z[1,1,1]", "--to", "t"),
     "-5*t[1,1,1] + 5*t[2,1] - t[3]", 0),
    (("convert", "m[2,1]", "--to", "M"), "M[1,2] + M[2,1]", 0),
    (("convert", "m[1]", "--to", "M"), "M[1]", 0),
    (("convert", "e[2]", "--to", "M"), "M[1,1]", 0),
    # antipodes
    (("antipode", "e[1]"), "-e[1]", 0),
    (("antipode", "e[2]"), "e[1,1] - e[2]", 0),
    (("antipode", "e[3]"), "-e[1,1,1] + 2*e[2,1] - e[3]", 0),
    (("antipode", "Z[1]"), "-Z[1]", 0),
    (("antipode", "Z[2]"), "Z[1,1] - Z[2]", 0),
    (("antipode", "Z[3]"), "-Z[1,1,1] + Z[1,2] + Z[2,1] - Z[3]", 0),
    (("antipode", "M[1]"), "-M[1]", 0),
    (("antipode", "M[1,1]"), "M[1,1] + M[2]", 0),
    (("antipode", "M[2]"), "-M[2]", 0),
    (("antipode", "t[1]"), "-t[1]", 0),
    (("antipode", "t[2]"), "2*t[1,1] - t[2]", 0),
    (("antipode", "t[3]"), "-5*t[1,1,1] + 5*t[2,1] - t[3]", 0),
    (("antipode", "--structure", "bfk", "Z[1]"), "-Z[1]", 0),
    (("antipode", "--structure", "bfk", "Z[2]"), "2*Z[1,1] - Z[2]", 0),
    (("antipode", "--structure", "bfk", "Z[3]"),
     "-5*Z[1,1,1] + 2*Z[1,2] + 3*Z[2,1] - Z[3]", 0),
    # coproducts (canonical JSON)
    (("coproduct", "e[1]"),
     '{"algebra":"tensor","factors":["sym","sym"],"terms":['
     '{"left":[],"right":[1],"coeff":"1"},{"left":[1],"right":[],"coeff":"1"}]}', 0),
    (("coproduct", "e[2]"),
     '{"algebra":"tensor","factors":["sym","sym"],"terms":['
     '{"left":[],"right":[2],"coeff":"1"},{"left":[1],"right":[1],"coeff":"1"},'
     '{"left":[2],"right":[],"coeff":"1"}]}', 0),
    (("coproduct", "e[1]^2"),
     '{"algebra":"tensor","factors":["sym","sym"],"terms":['
     '{"left":[],"right":[1,1],"coeff":"1"},{"left":[1],"right":[1],"coeff":"2"},'
     '{"left":[1,1],"right":[],"coeff":"1"}]}', 0),
    (("coproduct", "Z[1]"),
     '{"algebra":"tensor","factors":["nsym","nsym"],"structure":"binomial",'
     '"terms":[{"left":[],"right":[1],"coeff":"1"},'
     '{"left":[1],"right":[],"coeff":"1"}]}', 0),
    (("coproduct", "Z[2]"),
     '{"algebra":"tensor","factors":["nsym","nsym"],"structure":"binomial",'
     '"terms":[{"left":[],"right":[2],"coeff":"1"},'
     '{"left":[1],"right":[1],"coeff":"1"},{"left":[2],"right":[],"coeff":"1"}]}', 0),
    (("coproduct", "Z[1,1]"),
     '{"algebra":"tensor","factors":["nsym","nsym"],"structure":"binomial",'
     '"terms":[{"left":[],"right":[1,1],"coeff":"1"},'
     '{"left":[1],"right":[1],"coeff":"2"},{"left":[1,1],"right":[],"coeff":"1"}]}', 0),
    (("coproduct", "M[1]"),
     '{"algebra":"tensor","factors":["qsym","qsym"],"terms":['
     '{"left":[],"right":[1],"coeff":"1"},{"left":[1],"right":[],"coeff":"1"}]}', 0),
    (("coproduct", "M[1,2]"),
     '{"algebra":"tensor","factors":["qsym","qsym"],"terms":['
     '{"left":[],"right":[1,2],"coeff":"1"},{"left":[1],"right":[2],"coeff":"1"},'
     '{"left":[1,2],"right":[],"coeff":"1"}]}', 0),
    (("coproduct", "1", "--algebra", "qsym"),
     '{"algebra":"tensor","factors":["qsym","qsym"],"terms":['
     '{"left":[],"right":[],"coeff":"1"}]}', 0),
    (("coproduct", "t[1]"),
     '{"algebra":"tensor","factors":["fdb","fdb"],"terms":['
     '{"left":[],"right":[1],"coeff":"1"},{"left":[1],"right":[],"coeff":"1"}]}', 0),
    (("coproduct", "t[2]"),
     '{"algebra":"tensor","factors":["fdb","fdb"],"terms":['
     '{"left":[],"right":[2],"coeff":"1"},{"left":[1],"right":[1],"coeff":"2"},'
     '{"left":[2],"right":[],"coeff":"1"}]}', 0),
    (("coproduct", "--structure", "bfk", "Z[1]"),
     '{"algebra":"tensor","factors":["nsym","nsym"],"structure":"bfk","terms":['
     '{"left":[],"right":[1],"coeff":"1"},{"left":[1],"right":[],"coeff":"1"}]}', 0),
    (("coproduct", "--structure", "bfk", "Z[2]"),
     '{"algebra":"tensor","factors":["nsym","nsym"],"structure":"bfk","terms":['
     '{"left":[],"right":[2],"coeff":"1"},{"left":[1],"right":[1],"coeff":"2"},'
     '{"left":[2],"right":[],"coeff":"1"}]}', 0),
    (("coproduct", "--structure", "bfk", "Z[3]"),
     '{"algebra":"tensor","factors":["nsym","nsym"],"structure":"bfk","terms":['
     '{"left":[],"right":[3],"coeff":"1"},{"left":[1],"right":[1,1],"coeff":"1"},'
     '{"left":[1],"right":[2],"coeff":"2"},{"left":[2],"right":[1],"coeff":"3"},'
     '{"left":[3],"right":[],"coeff":"1"}]}', 0),
    (("coproduct", "--structure", "fdb", "e[1]"),
     '{"algebra":"tensor","factors":["sym","fdb"],"terms":['
     '{"left":[1],"right":[],"coeff":"1"}]}', 0),
    (("coproduct", "--structure", "fdb", "e[2]"),
     '{"algebra":"tensor","factors":["sym","fdb"],"terms":['
     '{"left":[1],"right":[1],"coeff":"1"},{"left":[2],"right":[],"coeff":"1"}]}', 0),
    (("coproduct", "--structure", "fdb", "e[3]"),
     '{"algebra":"tensor","factors":["sym","fdb"],"terms":['
     '{"left":[1],"right":[2],"coeff":"1"},{"left":[2],"right":[1],"coeff":"2"},'
     '{"left":[3],"right":[],"coeff":"1"}]}', 0),
    # pairings
    (("pair", "h[2,1]", "m[2,1]"), "1", 0),
    (("pair", "h[2]", "m[1,1]"), "0", 0),
    (("pair", "e[2]", "m[1,1]"), "1", 0),
    (("pair", "Z[1,2]", "M[1,2]"), "1", 0),
    (("pair", "Z[1,2]", "M[2,1]"), "0", 0),
    (("pair", "Z[2]", "M[1]*M[1]"), "1", 0),
    # series calculus
    (("compose", "T+T^2", "T+T^2", "--cap", "4", "--text"),
     "T + 2*T^2 + 2*T^3 + T^4 (cap 4)", 0),
    (("compose", "(1+e[1]*T)*(1-e[1]*T)", "T", "--cap", "2", "--text"),
     "1 - e[1,1]*T^2 (cap 2)", 0),
    (("compose", "(T+Z[1]*T^2)*(T+Z[1]*T^2)", "T", "--cap", "4", "--text"),
     "T^2 + 2*Z[1]*T^3 + Z[1,1]*T^4 (cap 4)", 0),
    (("compose", "Z(T)*1", "T", "--cap", "4", "--text"),
     "T + Z[1]*T^2 + Z[2]*T^3 + Z[3]*T^4 (cap 4)", 0),
    (("compose", "invert(1 - e[1]*T)", "T", "--cap", "3", "--text"),
     "1 + e[1]*T + e[1,1]*T^2 + e[1,1,1]*T^3 (cap 3)", 0),
    (("compose", "invert(e(-T))", "T", "--cap", "2", "--text"),
     "1 + e[1]*T + (e[1,1] - e[2])*T^2 (cap 2)", 0),
    (("compose", "invert(1)", "T", "--cap", "3", "--text"), "1 (cap 3)", 0),
    (("compose", "exp(log(1+e[1]*T))", "T", "--cap", "3", "--text"),
     "1 + e[1]*T (cap 3)", 0),
    (("compose", "exp(beta*T)", "T", "--cap", "2", "--text"),
     "1 + beta*T + 1/2*beta^2*T^2 (cap 2)", 0),
    (("compose", "residue(shift(Z(T),-3))", "T", "--cap", "3", "--text"),
     "Z[1] (cap 3)", 0),
    (("compose", "residue(1)", "T", "--cap", "3", "--text"), "0 (cap 3)", 0),
    (("revert", "T", "--cap", "3", "--text"), "T (cap 3)", 0),
    (("revert", "t(T)", "--cap", "3", "--text"),
     "T - t[1]*T^2 + (2*t[1,1] - t[2])*T^3 (cap 3)", 0),
    (("revert", "t(T)", "--cap", "4", "--text"),
     "T - t[1]*T^2 + (2*t[1,1] - t[2])*T^3 + "
     "(-5*t[1,1,1] + 5*t[2,1] - t[3])*T^4 (cap 4)", 0),
    (("log", "1+T", "--cap", "4", "--text"),
     "T - 1/2*T^2 + 1/3*T^3 - 1/4*T^4 (cap 4)", 0),
    (("log", "--cap", "3", "--text"),
     "T - b[1]*T^2 + (2*b[1,1] - b[2])*T^3 (cap 3)", 0),
    (("fgl", "--cap", "2", "--text"), "X + Y + 2*b[1]*X*Y (cap 2)", 0),
    (("fgl", "--structure", "bfk", "--cap", "2", "--text"),
     "X + Y + 2*Z[1]*X*Y (cap 2)", 0),
    (("beta", "--cap", "2", "--text"),
     "1 + beta*T + (-b[1]*beta + 1/2*beta^2)*T^2 (cap 2)", 0),
    (("cumulant", "--cap", "3", "--text"),
     "-T - Z[1]*T^2 + (-2*Z[1,1] + Z[2])*T^3 (cap 3)", 0),
    # characteristic numbers
    (("charnum", "cp", "--dim", "0"), "1", 0),
    (("charnum", "cp", "--dim", "1"), "-2*b[1]", 0),
    (("charnum", "cp", "--dim", "2"), "6*b[1,1] - 3*b[2]", 0),
    (("charnum", "cp", "--dim", "1", "--partition", "1"), "-2", 0),
    (("charnum", "cp", "--dim", "2", "--partition", "1,1"), "6", 0),
    (("charnum", "cp", "--dim", "2", "--partition", "2"), "-3", 0),
    (("charnum", "quasitoric", "--space", _QT_SPACE_1,
      "--composition", "1"), "2", 0),
    (("charnum", "quasitoric", "--space", _QT_SPACE_11,
      "--composition", "1,1"), "4", 0),
    (("charnum", "quasitoric", "--space", _QT_SPACE_11,
      "--composition", "2"), "0", 0),
    # composition-sum invariant
    (("crn", "--weight", "1"), "Z[1]", 0),
    (("crn", "--weight", "2"), "Z[1,1] + Z[2]", 0),
    (("crn", "--weight", "3"), "Z[1,1,1] + Z[1,2] + Z[2,1] + Z[3]", 0),
    # cobar ranks
    (("cobar-rank", "--algebroid", "S.B", "--weight", "0", "--degree", "0"),
     '{"algebroid":"S.B","weight":0,"degree":0,"rank":1}', 0),
    (("cobar-rank", "--algebroid", "S.B", "--weight", "1", "--degree", "0"),
     '{"algebroid":"S.B","weight":1,"degree":0,"rank":1}', 0),
    (("cobar-rank", "--algebroid", "S.B", "--weight", "2", "--degree", "0"),
     '{"algebroid":"S.B","weight":2,"degree":0,"rank":1}', 0),
    (("cobar-rank", "--algebroid", "S.B", "--weight", "3", "--degree", "0"),
     '{"algebroid":"S.B","weight":3,"degree":0,"rank":1}', 0),
    # error path: truncated index list reports its column
    (("eval", "M[1,2"), None, 1),
    # verification entry points
    (("verify", "--suite", "counts"), None, 0),
    (("verify", "--suite", "hopf-axioms", "--weight", "6"), None, 0),
]


def run_suites(names, weight=None, cap=None):
    """Run the named suites, each once, and return (records, all_ok).

    No names, or ``all`` among them, runs every suite.
    """
    from .suites import SUITES
    if not names or "all" in names:
        names = SUITES
    records = []
    for name in dict.fromkeys(names):
        records.extend(SUITES[name](weight=weight, cap=cap))
    return records, all(ok for _, ok, _ in records)


def render_report(records):
    lines = []
    for label, ok, detail in records:
        if ok:
            lines.append("ok    %s" % label)
        else:
            lines.append("FAIL  %s%s" % (label, " -- " + detail if detail else ""))
    passed = sum(1 for _, ok, _ in records if ok)
    lines.append("%d/%d checks passed" % (passed, len(records)))
    return "\n".join(lines)
