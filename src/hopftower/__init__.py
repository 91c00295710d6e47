"""Exact computer algebra for a tower of combinatorial Hopf algebras.

The package implements, over the rationals and with no floating point
anywhere (each stored coefficient is a nonzero ``int``, or a ``Fraction`` whose
denominator is greater than 1, as :mod:`hopftower.scalars` normalises it):

* symmetric functions in the e, h, p and m bases with basis conversion,
  three involutions, the Hall pairing, coproduct and antipode (``sym``);
* noncommutative symmetric functions carrying two coalgebra structures,
  the binomial one and the series-powers one used in renormalization
  (``nsym``, ``diffeo``), plus their abelianizations;
* quasisymmetric functions with the quasi-shuffle product, deconcatenation
  coproduct, antipode and the pairing that makes them dual to the
  noncommutative algebra (``qsym``);
* the Faa di Bruno style Hopf algebra of formal diffeomorphisms, its
  coaction on symmetric functions, and truncated one- and two-variable
  series with composition, reversion, exp/log and residues (``series``);
* split algebroids built from an algebra with a Hopf coaction, their
  reduced cobar complexes, differentials and cohomology ranks
  (``algebroid``);
* complex-bordism style applications: the structural logarithm,
  characteristic numbers of projective and quasitoric spaces, the
  two-variable addition law, its beta deformation and noncommutative
  lift, and cumulant and composition-sum invariants (``topology``).

The registry of algebras and Hopf structures that the other modules read
lives in :mod:`hopftower.structures`, expression parsing in
:mod:`hopftower.expr`, canonical JSON in :mod:`hopftower.jsonio`, the
pinned invocation table and ``run_suites`` in :mod:`hopftower.verify`
(loaded on first use of ``run_suites``), the check suites with their table
and record runner in :mod:`hopftower.suites` (loaded when ``run_suites``
is called) and the command line in :mod:`hopftower.cli`.
"""

from .algebroid import (ALGEBROIDS, coface, cohomology_rank, differential,
                        differential_matrix, right_unit_functional)
from .diffeo import (FdBElement, bfk_abelianize, bfk_antipode, bfk_coproduct,
                     coaction_sym, fdb_antipode, fdb_coproduct, t, t_series)
from .errors import (AlgebraMismatchError, CapabilityError, DomainError,
                     ExpressionError)
from .expr import parse_element, parse_series
from .indices import compositions_of, partitions_of
from .jsonio import document_for, dumps, from_document, loads
from .linear import Tensor
from .nsym import NSymElement, abelianize, z, z_series
from .qsym import M, QSymElement, include_symmetric, pair
from .series import TruncatedSeries
from .sym import SymElement, convert, e, h, hall_pair, involution, m, p
from .topology import (BElement, BetaPolynomial, ProjectiveProductSpace, b,
                       b_series, beta_series, chi_b, cp_char_number,
                       cp_hurewicz, cp_infinity_coproduct, crn_invariant,
                       cumulant_series, fgl, miscenko_log,
                       quasitoric_char_number)

__all__ = [
    "ALGEBROIDS", "AlgebraMismatchError", "BElement", "BetaPolynomial",
    "CapabilityError", "DomainError", "ExpressionError", "FdBElement", "M",
    "NSymElement", "ProjectiveProductSpace", "QSymElement", "SymElement",
    "Tensor", "TruncatedSeries", "abelianize", "b", "b_series", "beta_series",
    "bfk_abelianize", "bfk_antipode", "bfk_coproduct", "chi_b",
    "coaction_sym", "coface", "cohomology_rank", "compositions_of",
    "convert", "cp_char_number", "cp_hurewicz", "cp_infinity_coproduct",
    "crn_invariant", "cumulant_series", "differential", "differential_matrix",
    "document_for", "dumps", "e", "fdb_antipode", "fdb_coproduct", "fgl",
    "from_document", "h", "hall_pair", "include_symmetric", "involution",
    "loads", "m", "miscenko_log", "p", "pair", "parse_element",
    "parse_series", "partitions_of", "quasitoric_char_number",
    "right_unit_functional", "run_suites", "t", "t_series", "z", "z_series",
]

__version__ = "0.1.0"


def __getattr__(name):
    # the self-check suites are the largest module, so load them on first use
    if name == "run_suites":
        from .verify import run_suites
        return run_suites
    raise AttributeError("module %r has no attribute %r" % (__name__, name))
