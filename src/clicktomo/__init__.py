"""Quantum state reconstruction from on/off photodetector clicks.

Pipeline: simulate no-click statistics of a signal state mixed with a
coherent probe on a beam splitter, reconstruct the displaced photon-number
diagonal at each phase-space point by expectation-maximization, read off the
Wigner value, and recover the density matrix by quadrature over the map.
"""

from .em import EMBatchResult, EMConfig, run_em_batch
from .errors import (
    ClicktomoError,
    ConfigError,
    DataError,
    DegenerateModelError,
    NumericalError,
)
from .fock import (
    DensityMatrix,
    DiagonalDistribution,
    PureState,
    TruncationConfig,
    coherent_state,
    density_from_pure,
    displace,
    displaced_diagonals,
    fock_state,
    squeezed_vacuum,
)
from .measurement import (
    ClickArrays,
    DetectorPair,
    DualDetectorRecipe,
    Schedule,
    SingleDetectorRecipe,
    binomial_counts,
    derive_settings,
    homogeneous_efficiencies,
    no_click_probabilities,
    simulate,
)
from .recover import RecoveredDensity, StateComparison, compare_states, integrate_rho
from .wigner import (
    ErrorReport,
    PhaseGrid,
    WignerEstimate,
    coherent_wigner,
    delta_w,
    exact_wigner_map,
    fock_wigner,
    recommend_truncation,
    reconstruct_point,
    scan_grid,
    squeezed_wigner,
    truncation_error_map,
    variance_map,
    wigner_from_values,
    wigner_map_from_function,
)

__version__ = "0.1.0"
