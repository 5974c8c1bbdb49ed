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

Importing the package loads none of its submodules: each exported name
loads its home submodule on first use.
"""

from importlib import import_module

__version__ = "0.1.0"

# home submodule -> the names the package exports from it
_EXPORTS = {
    "errors": (
        "HamformsError", "PoleError", "DimensionMismatch", "OddDimension",
        "SingularMatrix", "NotInThetaEta", "DegenerateMetric",
        "DegenerateImage", "WrongTBlock", "ParseError", "ValidationError",
        "NoResidue", "NullSystemWarning"),
    "poly": ("Poly", "RatFunc"),
    "linalg": ("Matrix",),
    "skew": ("SkewMatrix", "pfaffian", "pfaffian_adjugate", "skew_inverse"),
    "forms": ("AltForm", "wedge", "pullback_linear"),
    "pairs": ("HamPair", "ForcedPair", "check_compat", "build_metric",
              "rhs_covector"),
    "bridge": ("StructureForm", "form_from_pair", "pair_from_form",
               "dimension_audit"),
    "congruence": (
        "plucker_coords", "plucker_homogeneous", "grassmann_check",
        "congruence_matrix", "congruence_rank", "annihilation_check",
        "congruence_checks", "pair_columns"),
    "classify": (
        "SymplecticSplit", "ClassificationResult", "symplectic_split",
        "q_form", "classify_n2", "classify_n4", "canonical_n2_pair",
        "canonical_n4_pair", "canonical_form_n2", "eta_matrix", "t4_form",
        "system_coefficients", "format_system", "stabilizer_audit",
        "sp4_basis"),
    "transforms": ("ProjectiveMap", "ReciprocalMap", "apply_projective",
                   "apply_xt_exchange", "apply_reciprocal",
                   "conformal_check"),
    "sampling": ("Lcg",),
    "serialize": (
        "rational_to_str", "rational_from_str", "form_to_dict",
        "form_from_dict", "pair_to_dict", "pair_from_dict", "omega_to_dict",
        "omega_from_dict", "load_pair", "save_pair", "parse_omega_file",
        "save_omega"),
}
_HOME = {name: mod for mod, names in _EXPORTS.items() for name in names}

__all__ = [*_HOME, "__version__"]


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError("module %r has no attribute %r"
                             % (__name__, name))
    value = getattr(import_module("." + _HOME[name], __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return list(__all__)
