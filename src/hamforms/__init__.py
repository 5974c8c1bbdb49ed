"""Exact correspondence between alternating three-forms, second-order
homogeneous Hamiltonian operators, and hydrodynamic conservation laws.

The package works over exact rational arithmetic throughout.  A pair
(operator metric, conservation-law data) on an even number of fields is
equivalent to a single alternating three-form on two extra coordinates;
`form_from_pair` and `pair_from_form` move between the two encodings,
`check_compat` proves the defining identities, `congruence` ties the
system to its line congruence, `classify` produces invariants and
canonical representatives, and `transforms` implements the projective,
exchange, and reciprocal symmetries.  The `hamforms` command line tool
drives everything from JSON files.
"""

from .errors import (
    HamformsError, PoleError, DimensionMismatch, OddDimension,
    SingularMatrix, NotInThetaEta, DegenerateMetric, DegenerateImage,
    WrongTBlock, NullSystemOrbit, ParseError, ValidationError, NoResidue,
    NullSystemWarning,
)
from .poly import Poly, RatFunc
from .linalg import Matrix
from .skew import SkewMatrix, pfaffian, pfaffian_adjugate, skew_inverse
from .forms import AltForm, wedge, contract_bivector, pullback_linear
from .pairs import HamPair, ForcedPair, check_compat, build_metric, rhs_covector
from .bridge import (
    StructureForm, form_from_pair, pair_from_form, dimension_audit,
)
from .congruence import (
    plucker_coords, plucker_homogeneous, grassmann_check,
    congruence_matrix, congruence_rank, annihilation_check,
    congruence_checks, pair_columns, sign_normalize_rows,
)
from .classify import (
    SymplecticSplit, ClassificationResult, symplectic_split, q_form,
    classify_n2, classify_n4, canonical_n2_pair, canonical_n4_pair,
    canonical_form_n2, eta_matrix, t4_form,
    system_coefficients, format_system, stabilizer_audit, sp4_basis,
)
from .transforms import (
    ProjectiveMap, ReciprocalMap, apply_projective, apply_xt_exchange,
    apply_reciprocal, conformal_check,
)
from .sampling import Lcg
from .serialize import (
    rational_to_str, rational_from_str, form_to_dict, form_from_dict,
    pair_to_dict, pair_from_dict, omega_to_dict, omega_from_dict,
    load_pair, save_pair, parse_omega_file, save_omega,
)

__version__ = "0.1.0"

__all__ = [
    "HamformsError", "PoleError", "DimensionMismatch", "OddDimension",
    "SingularMatrix", "NotInThetaEta", "DegenerateMetric",
    "DegenerateImage", "WrongTBlock", "NullSystemOrbit", "ParseError",
    "ValidationError", "NoResidue", "NullSystemWarning",
    "Poly", "RatFunc", "Matrix",
    "SkewMatrix", "pfaffian", "pfaffian_adjugate", "skew_inverse",
    "AltForm", "wedge", "contract_bivector", "pullback_linear",
    "HamPair", "ForcedPair", "check_compat", "build_metric",
    "rhs_covector",
    "StructureForm", "form_from_pair", "pair_from_form",
    "dimension_audit",
    "plucker_coords", "plucker_homogeneous", "grassmann_check",
    "congruence_matrix", "congruence_rank", "annihilation_check",
    "congruence_checks", "pair_columns", "sign_normalize_rows",
    "SymplecticSplit", "ClassificationResult", "symplectic_split",
    "q_form", "classify_n2", "classify_n4", "canonical_n2_pair",
    "canonical_n4_pair", "canonical_form_n2", "eta_matrix",
    "t4_form", "system_coefficients", "format_system",
    "stabilizer_audit", "sp4_basis",
    "ProjectiveMap", "ReciprocalMap", "apply_projective",
    "apply_xt_exchange", "apply_reciprocal", "conformal_check",
    "Lcg",
    "rational_to_str", "rational_from_str", "form_to_dict",
    "form_from_dict", "pair_to_dict", "pair_from_dict", "omega_to_dict",
    "omega_from_dict", "load_pair", "save_pair", "parse_omega_file",
    "save_omega",
    "__version__",
]
