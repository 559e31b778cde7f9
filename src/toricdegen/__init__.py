"""Exact-arithmetic toolkit for toric Groebner degenerations of hypersurfaces.

Everything is computed over the rationals: sparse homogeneous polynomials
and their initial forms under weight vectors, prime-binomial classification,
weight-cone feasibility with strict inequalities, and the rank certificates
that decide when a general degree-d hypersurface in projective n-space
degenerates to a toric variety after a linear change of coordinates
(exactly when d <= 2n - 1).

Only errors is loaded with the package.  Each other layer is registered in
sys.modules and bound here as a module whose body runs on its first
attribute access, so a command runs only the layers it uses.  The public
names are read from their module on access.
"""

import importlib.util
import sys

from . import errors

# the public names, by the module that defines each
_EXPORTS = {
    "errors": ("CertificateError", "DegreeError", "DimensionMismatchError",
               "DomainError", "GenericityError", "PolySyntaxError",
               "SupportMismatchError", "UsageError", "VariableIndexError",
               "ZeroPolynomialError"),
    "poly": ("Exponent", "HomogPoly", "WeightVector", "format_poly",
             "initial_form", "iter_exponents", "parse_poly", "weight_of",
             "weight_vector"),
    "linalg": ("RankReport", "rank"),
    "binomials": ("BinomialPattern", "PrimeVerdict", "classify",
                  "classify_poly", "count_prime_patterns",
                  "enumerate_patterns", "pattern_from_poly", "prime_pairs"),
    "cones": ("FeasibilityResult", "LinearSystem", "difference_functional",
              "satisfies", "solve", "stratum_system", "verify_certificate"),
    "family": ("FamilyPoint", "RedundancyReport", "differential_rank",
               "dominance_point", "excluded_block", "excluded_exponents",
               "key_matrix", "redundancy_check", "sample_family",
               "structural_rank_bound"),
    "theorem": ("NonexistenceReport", "StrataSurvey", "SweepRow",
                "WitnessBundle", "dominance_certificate", "existence_witness",
                "nonexistence_certificate", "strata_survey",
                "sweep_row_matches", "threshold_sweep", "witness_weight"),
}


def _lazy(layer: str):
    """The layer's module, in sys.modules, its body not yet run."""
    spec = importlib.util.find_spec(f".{layer}", __name__)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


domain, poly, linalg, binomials, cones, family, theorem = map(
    _lazy, ("domain", "poly", "linalg", "binomials", "cones", "family",
            "theorem"))

_LAYER_OF = {name: layer for layer, names in _EXPORTS.items()
             for name in names}

__all__ = list(_LAYER_OF)

__version__ = "0.1.0"


def __getattr__(name: str):
    layer = _LAYER_OF.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[layer], name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
