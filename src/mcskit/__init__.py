"""Multiphoton coherent states on the harmonic oscillator.

Truncated number-basis numerics for the order-k ladder algebra, its
eigenstate families, their cat decompositions, Wigner fields, and the
measures that resolve the identity on each class. Closed forms and
independent numerics are cross-checked everywhere; quantities that cannot
be trusted raise instead of returning.
"""

from .errors import (
    BoundaryMass,
    DegenerateNorm,
    EdgeSupport,
    LeakageExceeded,
    McskitError,
    Overflow,
    QuadratureFailure,
    RouteMismatch,
    TailTooHeavy,
    UnsupportedOrder,
    WindowTooNarrow,
)
from .fock import (
    DEFAULT_N_MAX,
    CommutatorResiduals,
    FockVector,
    apply_k_ladder,
    basis_state,
    inner,
    ladder_spectrum,
    pha_commutator_check,
    time_evolve,
)
from .states import (
    MCSLabel,
    MomentSet,
    a_norm_closed,
    build_mcs,
    eigenvalue_residual,
    geometric_phase,
    moments,
    numeric_moments,
    revival_phase,
)
from .decomposition import (
    ScsSuperposition,
    coherent_from_classes,
    density_movie,
    fock_wavefunction,
    mcs_as_scs,
    mcs_wavefunction,
)
from .wigner import (
    Marginals,
    PhaseGrid,
    WignerField,
    marginals,
    negativity_volume,
    purity,
    wigner_closed,
    wigner_numeric,
)
from .completeness import (
    MeasureCandidate,
    MomentReport,
    identity_block,
    identity_resolution_numeric,
    moment_check,
    root_exponential_density,
)
from .verify import CheckResult, run_suite

__version__ = "0.1.0"

__all__ = [
    "BoundaryMass", "DegenerateNorm", "EdgeSupport", "LeakageExceeded",
    "McskitError", "Overflow", "QuadratureFailure",
    "RouteMismatch", "TailTooHeavy", "UnsupportedOrder", "WindowTooNarrow",
    "DEFAULT_N_MAX", "CommutatorResiduals", "FockVector",
    "apply_k_ladder", "basis_state", "inner", "ladder_spectrum",
    "pha_commutator_check", "time_evolve",
    "MCSLabel", "MomentSet", "a_norm_closed", "build_mcs",
    "eigenvalue_residual", "geometric_phase", "moments",
    "numeric_moments", "revival_phase",
    "ScsSuperposition", "coherent_from_classes",
    "density_movie", "fock_wavefunction", "mcs_as_scs", "mcs_wavefunction",
    "Marginals", "PhaseGrid", "WignerField", "marginals",
    "negativity_volume", "purity", "wigner_closed", "wigner_numeric",
    "MeasureCandidate", "MomentReport", "identity_block",
    "identity_resolution_numeric", "moment_check", "root_exponential_density",
    "CheckResult", "run_suite",
]
