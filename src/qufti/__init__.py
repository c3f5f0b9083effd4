"""Numerics for single-photon Fourier-interferometer phase metrology.

Builds the n-mode Fourier-transform interferometer with per-mode phase
weights (the linear gradient by default), computes exact matrix
permanents (a naive oracle and a Glynn kernel), evaluates the closed-form
coincidence probability and its derivative, verifies the conjectured
permanent product form by brute force, and derives phase sensitivities
against shot-noise and Heisenberg baselines with efficiency and
dephasing models.
"""

from .analytics import (
    ConjectureReport,
    coincidence_probability,
    conjecture_verify,
    permanent_closed_form,
    probability_derivative,
)
from .matrices import InterferometerSpec, SizeLimitError, compose_qufti, qft_matrix
from .metrology import (
    DephasingParams,
    OutcomeDistribution,
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
    "DephasingParams",
    "InterferometerSpec",
    "OutcomeDistribution",
    "SizeLimitError",
    "coincidence_probability",
    "compose_qufti",
    "conjecture_verify",
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
