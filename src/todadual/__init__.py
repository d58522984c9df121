"""Open Toda chains of types A-D and their rational goldfish duals.

The package builds the Lax pair data for the open Toda chain attached to
gl(n), sp(2n), so(2n+1) or so(2n), constructs the dual goldfish system on
the same reduced phase space, and ships numerical verifiers for the
identities relating the two sides (matching Hamiltonian families, the
canonical round trip, commutativity of the families, and the symplectic
character of the duality map).
"""

from .errors import (
    TodaDualError,
    ValidationError,
    NonGenericPointError,
    ChamberError,
    GaussCellError,
    DegenerateSpectrumError,
    DualityResidualError,
    StepFailureError,
)
from .rootsys import AlgebraType, RootDatum, FAMILIES, build_root_datum, matrix_size, cartan_pattern
from .linalg import structured_diagonalize, lower_triangularize, iwasawa
from .moser import (
    MoserPoint,
    RuijsenaarsMatrixSpec,
    build_moser_g,
    closed_form_minor,
    minor_oracle_mk,
    momentum_equation_residual,
    moser_momentum_residual,
    ruijsenaars_spec_for,
    check_chamber,
)
from .goldfish import (
    GoldfishPoint,
    RSCoupling,
    a_from_p,
    p_from_a,
    goldfish_hamiltonian,
    goldfish_hamiltonians,
    goldfish_gradients,
    goldfish_hamiltonian_signed_A,
    rs_hamiltonian_A,
)
from .toda import (
    TodaPoint,
    symplectic_form,
    symplectic_scale,
    quadratic_index,
    build_lax,
    toda_group_element,
    toda_momentum_residual,
    toda_hamiltonian,
    toda_hamiltonians,
    toda_gradients,
    equations_of_motion,
    integrate_flow,
)
from .duality import (
    DualityReport,
    toda_to_moser,
    toda_to_goldfish,
    goldfish_to_toda,
    toda_gauge_minors,
    moser_gauge_traces,
    verify_duality_identities,
    duality_jacobian,
    symplectomorphism_check,
)
from .poisson import commutativity_matrix
from .sampling import spawn_rng, sample_chamber, sample_goldfish, sample_moser, sample_toda
from .verify import run_suite, TOLERANCES

__version__ = "0.1.0"

__all__ = [
    "TodaDualError",
    "ValidationError",
    "NonGenericPointError",
    "ChamberError",
    "GaussCellError",
    "DegenerateSpectrumError",
    "DualityResidualError",
    "StepFailureError",
    "AlgebraType",
    "RootDatum",
    "FAMILIES",
    "build_root_datum",
    "matrix_size",
    "cartan_pattern",
    "structured_diagonalize",
    "lower_triangularize",
    "iwasawa",
    "MoserPoint",
    "RuijsenaarsMatrixSpec",
    "build_moser_g",
    "closed_form_minor",
    "minor_oracle_mk",
    "momentum_equation_residual",
    "moser_momentum_residual",
    "ruijsenaars_spec_for",
    "check_chamber",
    "GoldfishPoint",
    "RSCoupling",
    "a_from_p",
    "p_from_a",
    "goldfish_hamiltonian",
    "goldfish_hamiltonians",
    "goldfish_gradients",
    "goldfish_hamiltonian_signed_A",
    "rs_hamiltonian_A",
    "TodaPoint",
    "symplectic_form",
    "symplectic_scale",
    "quadratic_index",
    "build_lax",
    "toda_group_element",
    "toda_momentum_residual",
    "toda_hamiltonian",
    "toda_hamiltonians",
    "toda_gradients",
    "equations_of_motion",
    "integrate_flow",
    "DualityReport",
    "toda_to_moser",
    "toda_to_goldfish",
    "goldfish_to_toda",
    "toda_gauge_minors",
    "moser_gauge_traces",
    "verify_duality_identities",
    "duality_jacobian",
    "symplectomorphism_check",
    "commutativity_matrix",
    "spawn_rng",
    "sample_chamber",
    "sample_goldfish",
    "sample_moser",
    "sample_toda",
    "run_suite",
    "TOLERANCES",
    "__version__",
]
