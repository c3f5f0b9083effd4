"""Phase sensitivity, resource-counting baselines, efficiency, dephasing.

Sensitivity comes from error propagation on the coincidence observable,
delta_phi = sqrt(P - P^2) / |dP/dphi|, with one estimator for every noise
level: the ideal device is zero dephasing. At a double root of P (P = 1 at
the maxima, P = 0 at the even-n minima) this is 0/0; one rule, read off
the computed P with the tolerance ROOT_TOL, returns the limit there
wherever the damping is exactly 1.
Baselines use Ordinal Resource Counting, which converts the linearly
increasing phase interrogations into an equivalent photon number
N = 1 + n(n-1)/2; the shot-noise and Heisenberg limits are 1/sqrt(N)
and 1/N of that count.

Divergent sensitivities (zero derivative while 0 < P < 1) are returned
as math.inf rather than raised, so sweep outputs stay rectangular. The
sweep functions take phi and the noise variance as floats or as ndarrays
that broadcast together, and give each element the bits of its float call.
For phase weights other than the gradient there is no closed form:
sensitivity_for_mask propagates the error of exact permanents of the
composed unitary at the spec's own phi.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import analytics
from .analytics import _libm, _result
from .exceptions import SizeLimitError
from .matrices import InterferometerSpec, compose_qufti
from .permanent import permanent_ryser, permanent_with_repeats

# Noiseless P this close to a double root (0 or 1, relative) takes the root's limit.
ROOT_TOL = 1e-9

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
        with np.errstate(over="ignore"):  # a huge variance gives -inf, which damps to 0
            x = -0.5 * n * n * np.asarray(self.chi_sq, dtype=float)
        return _result(_libm(math.exp, x))


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
    """sqrt(P - P^2) / |dP|, inf where only dP vanishes; callers mask the 0/0."""
    # Python's max(v, 0.0); np.maximum would turn a -0.0 into 0.0
    variance = np.where(0.0 > p - p * p, 0.0, p - p * p)
    with np.errstate(divide="ignore", invalid="ignore"):
        return _result(np.sqrt(variance) / dp)


def _sensitivity(n, p, dp, sin, damping, at_maximum, root):
    """sqrt(P - P^2) / |dP| with one rule for the 0/0 at the double roots of P.

    Without noise (damping exactly 1, which a variance too small to damp the
    signal also gives), 1 - P <= ROOT_TOL is a P = 1 maximum, with limit
    at_maximum, and P <= ROOT_TOL root^2 a P = 0 minimum, with limit
    1 / (n root); root^2 is the product of the factors of P that do not
    vanish there. Any other stationary point (|sin| < STATIONARY_SIN_TOL),
    noisy or not, diverges: inf.
    """
    noiseless = np.asarray(damping) == 1.0
    delta = np.where(np.abs(sin) < STATIONARY_SIN_TOL, math.inf, _propagate(p, dp))
    delta = np.where(noiseless & (p <= ROOT_TOL * root * root), 1.0 / (n * root), delta)
    return _result(np.where(noiseless & (1.0 - p <= ROOT_TOL), at_maximum, delta))


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

    Noiseless, the P = 1 maxima (phi = 2 pi k / n) give the small-angle value;
    at cos(n phi) = -1 the j = n/2 factor of even n vanishes, a P = 0 minimum.
    For odd n, P = prod_j ((n - 2j) / n)^2 > 0 there: a divergence, inf.
    """
    if n < 2:
        raise ValueError(f"need n >= 2 for interference, got {n}")
    d = params.damping(n)
    p = analytics.coincidence_probability(n, phi, d)
    dp = analytics.probability_derivative(n, phi, d)
    sin = _libm(math.sin, analytics._phase(n, phi))
    root = math.prod(abs(n - 2 * j) / n for j in range(1, n) if 2 * j != n)
    return _sensitivity(n, p, dp, sin, d, phase_sensitivity_small_angle(n), root)


def noon_dephased_sensitivity(
    n_photons: int, phi: float | np.ndarray, params: DephasingParams
) -> float | np.ndarray:
    """Sensitivity of an N-photon NOON interferometer under the same noise model.

    The two-mode NOON signal is cos(N phi); its expectation observable is
    (1 + cos(N phi) d)/2 with d the N-photon damping factor. Undamped and
    at every phi this saturates the Heisenberg limit 1/N, which is also the
    limit at its double roots; under noise the stationary points diverge.
    """
    if n_photons < 2:
        raise ValueError(f"need N >= 2, got {n_photons}")
    x = analytics._phase(n_photons, phi)
    sin = _libm(math.sin, x)
    d = params.damping(n_photons)
    p = 0.5 * (1.0 + _libm(math.cos, x) * d)
    dp = 0.5 * n_photons * np.abs(sin) * d
    return _sensitivity(n_photons, p, dp, sin, d, 1.0 / n_photons, 1.0)


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


def sensitivity_for_mask(spec: InterferometerSpec) -> float:
    """Sensitivity of the device spec describes at its phase spec.phi, fully numeric.

    P comes from the exact permanent of the composed unitary at phi and
    phi +- FD_STEP, dP/dphi from their central difference, so this works
    for weights with no closed form; weights[0] is subtracted from every
    weight first, as a global phase leaves P unchanged. Near a double root
    of P (P = 1 at every spec's phi = 0, P = 0 at the even-n gradient's
    pi / n) propagation is 0/0. Where 2 min(P, 1 - P) <= |P''|, with P''
    the second difference of the three values, P is within one step of its
    root and the limit FD_STEP / sqrt(2 |P''|) is returned instead. The
    cost is three exact permanents, bounded by the kernel's own size guard.
    """
    if spec.n < 2:
        raise ValueError(f"need n >= 2 for interference, got {spec.n}")
    if spec.weights is not None:
        spec = replace(spec, weights=tuple(w - spec.weights[0] for w in spec.weights))

    def prob(phi: float) -> float:
        return abs(permanent_ryser(compose_qufti(replace(spec, phi=phi)))) ** 2

    p = prob(spec.phi)
    lo, hi = prob(spec.phi - FD_STEP), prob(spec.phi + FD_STEP)
    curvature = abs(hi - 2.0 * p + lo)
    if 2.0 * min(p, 1.0 - p) > curvature:
        return _propagate(p, abs(hi - lo) / (2 * FD_STEP))
    return FD_STEP / math.sqrt(2.0 * curvature) if curvature else math.inf
