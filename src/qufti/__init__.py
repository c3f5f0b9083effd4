"""Numerics for single-photon Fourier-interferometer phase metrology.

Builds the n-mode Fourier-transform interferometer with a linear phase
gradient, computes exact matrix permanents (naive and Ryser kernels),
evaluates the closed-form coincidence probability and its derivative,
verifies the conjectured permanent product form by brute force, and
derives phase sensitivities against shot-noise and Heisenberg baselines
with efficiency and dephasing models.
"""

from .analytics import (
    ConjectureReport,
    coincidence_probability,
    conjecture_verify,
    permanent_closed_form,
    probability_derivative,
)
from .exceptions import SizeLimitError
from .matrices import (
    CustomMask,
    InterferometerSpec,
    LinearGradientMask,
    SingleModeMask,
    compose_qufti,
    qft_matrix,
)
from .metrology import (
    DephasingParams,
    OutcomeDistribution,
    dephased_probability,
    dephased_sensitivity,
    fock_output_distribution,
    heisenberg_limit,
    noon_dephased_sensitivity,
    orc_photon_count,
    phase_sensitivity_small_angle,
    protocol_efficiency,
    sensitivity_for_mask,
    shotnoise_limit,
)
from .permanent import permanent_naive, permanent_ryser, permanent_with_repeats

__all__ = [
    "ConjectureReport",
    "CustomMask",
    "DephasingParams",
    "InterferometerSpec",
    "LinearGradientMask",
    "OutcomeDistribution",
    "SingleModeMask",
    "SizeLimitError",
    "coincidence_probability",
    "compose_qufti",
    "conjecture_verify",
    "dephased_probability",
    "dephased_sensitivity",
    "fock_output_distribution",
    "heisenberg_limit",
    "noon_dephased_sensitivity",
    "orc_photon_count",
    "permanent_closed_form",
    "permanent_naive",
    "permanent_ryser",
    "permanent_with_repeats",
    "phase_sensitivity_small_angle",
    "probability_derivative",
    "protocol_efficiency",
    "qft_matrix",
    "sensitivity_for_mask",
    "shotnoise_limit",
]

__version__ = "0.1.0"
