"""duorth: exact construction and verification of 2-orthogonal monic
polynomial eigenfunctions of third-order degree-preserving differential
operators, over arbitrary-precision rationals."""

from .backend import BACKEND
from .poly import MINUS_INF, Polynomial, Rational, as_rational
from .forms import MomentForm, combine
from .diffop import DiffOperator, LoweringClass
from .two_orth import (MPSPrefix, RecurrenceCoeffs, check_dual_identities,
                       dual_pairs, dual_sequence, fit_2orth_recurrence, generate,
                       orthogonality_check)
from .eigensolver import eigen_mps, verify_eigen
from .hahn import (ClassicalSystem, Intermediates, classical_system_check,
                   derivative_mps, hahn_check, implied_first_coeffs,
                   intermediates, j_expansion_check, lemma_identities_check,
                   phi_theorem4, varpi_theorem5)
from .pipelines import (InstanceResult, run_identities_operator,
                        run_identities_rc, run_sweep, run_theorem4,
                        run_theorem5)
from .sampling import ParamSampler
from . import errors

__version__ = "0.1.0"

__all__ = [
    "BACKEND", "MINUS_INF", "Polynomial", "Rational", "as_rational",
    "MomentForm", "combine", "DiffOperator", "LoweringClass",
    "MPSPrefix", "RecurrenceCoeffs",
    "check_dual_identities", "dual_pairs", "dual_sequence",
    "fit_2orth_recurrence", "generate",
    "orthogonality_check", "eigen_mps", "verify_eigen",
    "ClassicalSystem", "Intermediates",
    "classical_system_check", "derivative_mps", "hahn_check",
    "implied_first_coeffs", "intermediates", "j_expansion_check",
    "lemma_identities_check", "phi_theorem4", "varpi_theorem5",
    "InstanceResult", "run_identities_operator", "run_identities_rc",
    "run_sweep", "run_theorem4", "run_theorem5",
    "ParamSampler", "errors",
]
