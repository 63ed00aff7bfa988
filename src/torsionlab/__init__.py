"""Torsion invariants of finite cochain complexes.

Builds simplicial and cellular cochain complexes (optionally twisted by
flat unitary local systems), computes graded and flux-twisted torsion
scalars through Gram-aware spectral decompositions, models invariant
cochains of circle bundles, and checks the torsion-inversion property of
the curvature/flux exchange exactly in finite dimensions.
"""

from .builders import CATALOG, cycle, from_expression, lens, minimal_sphere, simplex_boundary
from .chain_models import (
    Cochain,
    GradedCochainComplex,
    LocalSystem,
    SimplicialComplex,
    TwistedComplex,
    build_simplicial,
    coboundary_matrices,
    cup,
    cup_operator,
    pair_with_fundamental_class,
    signed_incidence,
    twisted_differential,
    validate_local_system,
)
from .circle_bundle import (
    BundleData,
    DriftReport,
    DualityReport,
    InvariantComplex,
    build_invariant_complex,
    deformation_experiment,
    gram_scale_path,
    hopf,
    minimal_model,
    random_bundle,
    t_dualize,
    t_duality_matrix,
    verify_t_duality,
)
from .errors import (
    DualityViolation,
    DuplicateSimplex,
    FluxError,
    FluxHasDegreeOne,
    FluxNotClosed,
    FluxNotNilpotent,
    GramNotPositive,
    InconsistentDimension,
    InvalidFlux,
    NegativeEigenvalue,
    NonFlatLocalSystem,
    NotHermitian,
    NotOriented,
    NotTopDegree,
    ParityMismatch,
    ParseError,
    PathInvalid,
    ShapeMismatch,
    TorsionLabError,
    UnknownBuilder,
    ValidationError,
)
from .spectral import (
    HarmonicBasis,
    PseudoDeterminant,
    SpectralDecomposition,
    hermitian_spectrum,
)
from .torsion_engine import (
    TorsionElement,
    cohomology_dimensions,
    reidemeister_torsion,
    twisted_cohomology_dimensions,
    twisted_torsion,
)
from .workbench import Report, RunOptions, emit, load_model, parse_report, run

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # chain models
    "SimplicialComplex",
    "build_simplicial",
    "LocalSystem",
    "validate_local_system",
    "GradedCochainComplex",
    "coboundary_matrices",
    "signed_incidence",
    "Cochain",
    "cup",
    "cup_operator",
    "pair_with_fundamental_class",
    "TwistedComplex",
    "twisted_differential",
    # spectral
    "SpectralDecomposition",
    "PseudoDeterminant",
    "HarmonicBasis",
    "hermitian_spectrum",
    # torsion engine
    "TorsionElement",
    "reidemeister_torsion",
    "twisted_torsion",
    "cohomology_dimensions",
    "twisted_cohomology_dimensions",
    # circle bundles
    "BundleData",
    "InvariantComplex",
    "DualityReport",
    "DriftReport",
    "minimal_model",
    "build_invariant_complex",
    "t_dualize",
    "t_duality_matrix",
    "verify_t_duality",
    "deformation_experiment",
    "gram_scale_path",
    "hopf",
    "random_bundle",
    # builders
    "cycle",
    "simplex_boundary",
    "lens",
    "minimal_sphere",
    "CATALOG",
    "from_expression",
    # workbench
    "Report",
    "RunOptions",
    "run",
    "emit",
    "load_model",
    "parse_report",
    # errors
    "TorsionLabError",
    "ValidationError",
    "DuplicateSimplex",
    "InconsistentDimension",
    "NotOriented",
    "NotTopDegree",
    "NotHermitian",
    "GramNotPositive",
    "NegativeEigenvalue",
    "NonFlatLocalSystem",
    "FluxError",
    "FluxHasDegreeOne",
    "FluxNotClosed",
    "FluxNotNilpotent",
    "InvalidFlux",
    "ShapeMismatch",
    "ParityMismatch",
    "DualityViolation",
    "PathInvalid",
    "ParseError",
    "UnknownBuilder",
]
