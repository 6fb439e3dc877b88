"""Quantum state reconstruction from on/off photodetector clicks.

Pipeline: simulate no-click statistics of a signal state mixed with a
coherent probe on a beam splitter, reconstruct the displaced photon-number
diagonal at each phase-space point by expectation-maximization, read off the
Wigner value, and recover the density matrix by quadrature over the map.
"""

from .em import EMBatchResult, EMConfig, run_em_batch
from .errors import ClicktomoError, ConfigError, DataError, NumericalError
from .fock import (
    DensityMatrix,
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
    PhaseGrid,
    WignerEstimate,
    coherent_wigner,
    delta_w,
    exact_wigner_map,
    fock_wigner,
    squeezed_wigner,
    wigner_from_values,
)

__version__ = "0.1.0"
