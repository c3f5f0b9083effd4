"""Phase sensitivity, resource-counting baselines, efficiency, dephasing.

Sensitivity comes from error propagation on the coincidence observable,
delta_phi = sqrt(P - P^2) / |dP/dphi|, with one estimator for every noise
level: the ideal device is zero dephasing. At phi = 0 this is 0/0; the
small-angle limit sqrt(3 / (2 n (n+1) (n-1))) takes over below PHI_EPS.
Baselines use Ordinal Resource Counting, which converts the linearly
increasing phase interrogations into an equivalent photon number
N = 1 + n(n-1)/2; the shot-noise and Heisenberg limits are 1/sqrt(N)
and 1/N of that count.

Divergent sensitivities (zero derivative while 0 < P < 1) are returned
as math.inf rather than raised, so sweep outputs stay rectangular. The
sweep functions take phi and the noise variance as floats or as ndarrays
that broadcast together, and give each element the bits of its float call.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import analytics
from .analytics import _libm, _result
from .exceptions import SizeLimitError
from .matrices import CustomMask, InterferometerSpec, compose_qufti
from .permanent import permanent_ryser, permanent_with_repeats

# Switchover to the small-angle closed form around the P = 1 stationary point.
PHI_EPS = 1e-8

# |sin(n phi)| below this counts as an interior stationary point.
STATIONARY_SIN_TOL = 1e-12

# Central finite-difference step of sensitivity_for_mask, the one numeric derivative.
FD_STEP = 1e-6

# Outcome enumeration guard: C(2n-1, n) outcomes, each needing a permanent.
DISTRIBUTION_MODE_LIMIT = 9


@dataclass(frozen=True)
class DephasingParams:
    """Per-mode Gaussian phase noise, parameterized by its variance <dchi^2>."""

    chi_sq: float | np.ndarray  # an array holds one variance per sweep point

    def __post_init__(self) -> None:
        if not np.all(np.greater_equal(self.chi_sq, 0)):  # NaN fails too
            raise ValueError(f"phase-noise variance must be >= 0, got {self.chi_sq}")

    def damping(self, n: int) -> float | np.ndarray:
        """Signal damping factor exp(-n^2 <dchi^2> / 2)."""
        return _result(_libm(math.exp, -0.5 * n * n * np.asarray(self.chi_sq, dtype=float)))


@dataclass(frozen=True)
class OutcomeDistribution:
    """Probabilities of every photon-count pattern at the output."""

    n: int
    entries: list[tuple[tuple[int, ...], float]]

    def total(self) -> float:
        return sum(p for _, p in self.entries)

    def probability_of(self, occupation: tuple[int, ...]) -> float:
        for occ, p in self.entries:
            if occ == occupation:
                return p
        raise KeyError(f"no outcome {occupation}")

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "entries": [
                {"occupation": list(occ), "probability": p} for occ, p in self.entries
            ],
        }


def phase_sensitivity_small_angle(n: int) -> float:
    """Sensitivity at the phi -> 0 operating point, sqrt(3/(2n(n+1)(n-1)))."""
    if n < 2:
        raise ValueError(f"need n >= 2 for interference, got {n}")
    return math.sqrt(3.0 / (2.0 * n * (n + 1) * (n - 1)))


def _propagate(p: float | np.ndarray, dp: float | np.ndarray) -> float | np.ndarray:
    """sqrt(P - P^2) / |dP|: 0.0 where both vanish, inf where only dP does."""
    # Python's max(v, 0.0); np.maximum would turn a -0.0 into 0.0
    variance = np.where(0.0 > p - p * p, 0.0, p - p * p)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.sqrt(variance) / dp
    return _result(np.where(dp == 0.0, np.where(variance == 0.0, 0.0, math.inf), ratio))


def orc_photon_count(n: int) -> int:
    """Equivalent photon number under Ordinal Resource Counting, 1 + n(n-1)/2."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return 1 + n * (n - 1) // 2


def shotnoise_limit(n: int) -> float:
    """Shot-noise baseline 1/sqrt(N) at the ORC photon count."""
    return 1.0 / math.sqrt(orc_photon_count(n))


def heisenberg_limit(n: int) -> float:
    """Heisenberg baseline 1/N at the ORC photon count."""
    return 1.0 / orc_photon_count(n)


def protocol_efficiency(eta_source: float, eta_detector: float, n: int) -> float:
    """Success probability (eta_s * eta_d)^n with per-photon source/detector loss."""
    if not (0.0 <= eta_source <= 1.0 and 0.0 <= eta_detector <= 1.0):
        raise ValueError("efficiencies must lie in [0, 1]")
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return (eta_source * eta_detector) ** n


def dephased_probability(
    n: int, phi: float | np.ndarray, params: DephasingParams
) -> float | np.ndarray:
    """Coincidence probability with the cosine signal damped by dephasing."""
    return analytics.coincidence_probability(n, phi, params.damping(n))


def dephased_derivative(
    n: int, phi: float | np.ndarray, params: DephasingParams
) -> float | np.ndarray:
    """|dP/dphi| of the dephased probability; same product structure."""
    return analytics.probability_derivative(n, phi, params.damping(n))


def dephased_sensitivity(
    n: int, phi: float | np.ndarray, params: DephasingParams
) -> float | np.ndarray:
    """Error-propagation sensitivity; DephasingParams(0.0) is the ideal device.

    Stationary points (sin(n phi) = 0) are decided by noise, the sign of
    cos(n phi) and the parity of n. Noiseless, cos(n phi) = 1 is the P = 1
    maximum, the removable 0/0 of phi = 0: the small-angle value. For even
    n, cos(n phi) = -1 zeroes the j = n/2 factor, so P = 0 is another
    removable 0/0 with limit 1 / (n prod_{j != n/2} |n - 2j| / n). Any
    other stationary point, odd n at cos(n phi) = -1 (tiny P > 0) or any
    under noise, is a divergence of the estimator and returns inf.
    """
    if n < 2:
        raise ValueError(f"need n >= 2 for interference, got {n}")
    phi = np.asarray(phi, dtype=float)
    noiseless = np.asarray(params.chi_sq) == 0.0
    x = n * phi
    stationary = np.abs(_libm(math.sin, x)) < STATIONARY_SIN_TOL
    maximum = noiseless & ((np.abs(phi) < PHI_EPS) | (stationary & (_libm(math.cos, x) > 0)))
    if n % 2 == 0:
        limit = 1.0 / (n * math.prod(abs(n - 2 * j) / n for j in range(1, n) if 2 * j != n))
    else:
        limit = math.inf
    p = dephased_probability(n, phi, params)
    delta = _propagate(p, dephased_derivative(n, phi, params))
    delta = np.where(stationary, np.where(noiseless, limit, math.inf), delta)
    return _result(np.where(maximum, phase_sensitivity_small_angle(n), delta))


def noon_dephased_sensitivity(
    n_photons: int, phi: float | np.ndarray, params: DephasingParams
) -> float | np.ndarray:
    """Sensitivity of an N-photon NOON interferometer under the same noise model.

    The two-mode NOON signal is cos(N phi); its expectation observable is
    (1 + cos(N phi) d)/2 with d the N-photon damping factor. Undamped and
    at every phi this saturates the Heisenberg limit 1/N, which stands in
    for the 0/0 at stationary points; under noise those diverge.
    """
    if n_photons < 2:
        raise ValueError(f"need N >= 2, got {n_photons}")
    phi = np.asarray(phi, dtype=float)
    noiseless = np.asarray(params.chi_sq) == 0.0
    x = n_photons * phi
    sin = _libm(math.sin, x)
    d = params.damping(n_photons)
    p = 0.5 * (1.0 + _libm(math.cos, x) * d)
    dp = 0.5 * n_photons * np.abs(sin) * d
    delta = _propagate(p, dp)
    special = (np.abs(sin) < STATIONARY_SIN_TOL) | (noiseless & (np.abs(phi) < PHI_EPS))
    return _result(np.where(special, np.where(noiseless, 1.0 / n_photons, math.inf), delta))


def fock_output_distribution(spec: InterferometerSpec) -> OutcomeDistribution:
    """Full output distribution over photon-count patterns.

    Enumerates all C(2n-1, n) occupation vectors summing to n. With one
    photon per input mode, outcome S has probability
    |Per(U with column k repeated s_k times)|^2 / prod_k s_k!.
    Serves as the normalization oracle: probabilities must sum to 1.
    """
    n = spec.n
    if n > DISTRIBUTION_MODE_LIMIT:
        raise SizeLimitError(
            f"distribution enumeration limited to n <= {DISTRIBUTION_MODE_LIMIT}, got {n}"
        )
    u = compose_qufti(spec)
    entries = []
    for placement in itertools.combinations_with_replacement(range(n), n):
        occ = [0] * n
        for mode in placement:
            occ[mode] += 1
        amp = permanent_with_repeats(u, occ)
        norm = 1.0
        for s in occ:
            norm *= math.factorial(s)
        entries.append((tuple(occ), abs(amp) ** 2 / norm))
    return OutcomeDistribution(n=n, entries=entries)


def sensitivity_for_mask(spec: InterferometerSpec, phi_probe: float) -> float:
    """Sensitivity for an arbitrary phase mask, fully numeric.

    P(phi) comes from the Ryser permanent of the composed unitary and the
    derivative from a central finite difference, so this works for masks
    with no closed form (single-mode, custom). spec.phi is ignored in favor
    of phi_probe. A custom mask's phases are treated as per-mode weights
    multiplied by the probed phase: fixed absolute phases would have zero
    derivative and no sensitivity to speak of. The cost is three Ryser
    permanents, bounded by the kernel's own size guard.
    """

    def prob(phi: float) -> float:
        probed = _respec_phi(spec, phi)
        return abs(permanent_ryser(compose_qufti(probed))) ** 2

    p = prob(phi_probe)
    dp = abs(prob(phi_probe + FD_STEP) - prob(phi_probe - FD_STEP)) / (2 * FD_STEP)
    return _propagate(p, dp)


def _respec_phi(spec: InterferometerSpec, phi: float) -> InterferometerSpec:
    mask = spec.mask
    if isinstance(mask, CustomMask):
        mask = CustomMask(tuple(w * phi for w in mask.phases))
    return InterferometerSpec(n=spec.n, phi=phi, theta=spec.theta, mask=mask)
