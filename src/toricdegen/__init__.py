"""Exact-arithmetic toolkit for toric Groebner degenerations of hypersurfaces.

Everything is computed over the rationals: sparse homogeneous polynomials
and their initial forms under weight vectors, prime-binomial classification,
weight-cone feasibility with strict inequalities, and the rank certificates
that decide when a general degree-d hypersurface in projective n-space
degenerates to a toric variety after a linear change of coordinates
(exactly when d <= 2n - 1).
"""

from .binomials import (
    BinomialPattern,
    PrimeVerdict,
    classify,
    classify_poly,
    count_prime_patterns,
    enumerate_patterns,
    pattern_from_poly,
    prime_pairs,
)
from .cones import (
    FeasibilityResult,
    LinearSystem,
    difference_functional,
    satisfies,
    solve,
    stratum_system,
    verify_certificate,
)
from .errors import (
    CertificateError,
    DegreeError,
    DimensionMismatchError,
    DomainError,
    GenericityError,
    PolySyntaxError,
    SupportMismatchError,
    UsageError,
    VariableIndexError,
    ZeroPolynomialError,
)
from .family import (
    FamilyPoint,
    RedundancyReport,
    differential_rank,
    dominance_point,
    excluded_block,
    excluded_exponents,
    face_exponents,
    key_matrix,
    redundancy_check,
    sample_family,
    structural_rank_bound,
)
from .linalg import RankReport, rank
from .poly import (
    Exponent,
    HomogPoly,
    WeightVector,
    format_poly,
    initial_form,
    iter_exponents,
    parse_poly,
    weight_of,
    weight_vector,
)
from .theorem import (
    NonexistenceReport,
    StrataSurvey,
    SweepRow,
    WitnessBundle,
    dominance_certificate,
    existence_witness,
    nonexistence_certificate,
    strata_survey,
    sweep_row_matches,
    threshold_sweep,
    witness_weight,
)

__version__ = "0.1.0"
