"""Phase sensitivity, resource-counting baselines, efficiency, dephasing.

Sensitivity comes from error propagation on the coincidence observable,
delta_phi = sqrt(P - P^2) / |dP/dphi|, with one estimator for every noise
level: the ideal device is zero dephasing. One rule serves every
sensitivity: a double root of P (P = 1 at the maxima, P = 0 at the even-n
minima) takes its 0/0 limit, decided from the computed P; any other
stationary point diverges, inf; every other point propagates the error.
Baselines use Ordinal Resource Counting, which converts the linearly
increasing phase interrogations into an equivalent photon number
N = 1 + n(n-1)/2; the shot-noise and Heisenberg limits are 1/sqrt(N)
and 1/N of that count.

Divergent sensitivities (zero derivative while 0 < P < 1) are returned
as math.inf rather than raised, so sweep outputs stay rectangular. The
sweep functions take phi and the noise variance as floats or as ndarrays
that broadcast together, and give each element the bits of its float call.
For phase weights other than the gradient there is no closed form:
sensitivity_for_mask propagates the error of the exact permanent of the
composed unitary at the spec's own phi, and of its exact phi-derivatives.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from . import analytics
from .analytics import _libm, _result
from .matrices import InterferometerSpec, _circulant, _phase, compose_qufti
from .permanent import SizeLimitError, _walk, permanent_with_repeats

# Noiseless P this close to a double root (0 or 1, relative) takes the root's limit.
ROOT_TOL = 1e-9

# |sin(n phi)| below this counts as an interior stationary point.
STATIONARY_SIN_TOL = 1e-12

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
        return math.fsum(p for _, p in self.entries)

    def probability_of(self, occupation: Sequence[int]) -> float:
        """The probability of an occupation given as any sequence of integers."""
        key = tuple(map(operator.index, occupation))
        for occ, p in self.entries:
            if occ == key:
                return p
        raise KeyError(f"no outcome {key}")

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


def _sensitivity(n, p, dp, sin, damping, at_maximum, root):
    """sqrt(P - P^2) / |dP| with one rule for the 0/0 at the double roots of P.

    Without noise (damping exactly 1, which a variance too small to damp the
    signal also gives), 1 - P <= ROOT_TOL is a P = 1 maximum, with limit
    at_maximum, and P <= ROOT_TOL root^2 a P = 0 minimum, with limit
    1 / (n root); root^2 is the product of the factors of P that do not
    vanish there. Any other stationary point (|sin| < STATIONARY_SIN_TOL, or dP = 0 where
    noise underflows the signal at large n), noisy or not, diverges: inf.
    """
    noiseless = np.asarray(damping) == 1.0
    # P in [0, 1] keeps P - P^2 >= +0; a subnormal damping overflows the quotient to inf,
    # and so does a root that underflows to 0 (n >= 813)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        flat = (np.abs(sin) < STATIONARY_SIN_TOL) | (dp == 0)
        delta = np.where(flat, math.inf, np.sqrt(p - p * p) / dp)
        at_minimum = np.divide(1.0, n * root)
    delta = np.where(noiseless & (p <= ROOT_TOL * root * root), at_minimum, delta)
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
    at_maximum = phase_sensitivity_small_angle(n)  # rejects n < 2
    d = params.damping(n)
    p, dp, sin = analytics._signal(n, phi, d)
    root = math.prod(abs(n - 2 * j) / n for j in range(1, n) if 2 * j != n)
    return _sensitivity(n, p, dp, sin, d, at_maximum, root)


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
    x = _phase(n_photons, phi)
    sin = _libm(math.sin, x)
    d = params.damping(n_photons)
    p = 0.5 * (1.0 + _libm(math.cos, x) * d)
    dp = 0.5 * n_photons * np.abs(sin) * d
    return _sensitivity(n_photons, p, dp, sin, d, 1.0 / n_photons, 1.0)


def _outcomes(n: int) -> Iterator[tuple[tuple[int, ...], float]]:
    """Every occupation of n photons in n modes, in combinations_with_replacement order, with
    its prod_k s_k! as a float product taken in mode order."""
    factorial = [math.factorial(s) for s in range(n + 1)]
    for placement in itertools.combinations_with_replacement(range(n), n):
        occ = [0] * n
        for mode in placement:
            occ[mode] += 1
        norm = 1.0
        for s in occ:
            norm *= factorial[s]
        yield tuple(occ), norm


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
    entries = [(occ, abs(permanent_with_repeats(u, occ)) ** 2 / norm) for occ, norm in _outcomes(n)]
    return OutcomeDistribution(n=n, entries=entries)


def sensitivity_for_mask(spec: InterferometerSpec) -> float:
    """Sensitivity of the device spec describes at its phase spec.phi, fully numeric.

    One Glynn walk over U = V D V+, U' = V D diag(i w) V+ and U''/2 gives Per, Per', Per''/2,
    so P = |Per|^2, P' = 2 Re(conj(Per) Per') and P'' = 4 Re(conj(Per) Per''/2) + 2 |Per'|^2,
    exactly; the module's rule takes root^2 = 2 |P''| / n^2 and n P' / |P''| for sin(n phi).
    The weights are shifted by -weights[0] (a global phase leaves P unchanged) and scaled
    by 2^-e to span [n/2, n), exactly: delta_phi(w, phi) = delta_phi(w / 2^e, 2^e phi) / 2^e.
    """
    n, phi = spec.n, float(spec.phi)  # Python floats: numpy scalars warn on overflow
    if n < 2:
        raise ValueError(f"need n >= 2 for interference, got {n}")
    w = range(n) if spec.weights is None else list(map(float, spec.weights))
    spread = max(abs(x - w[0]) for x in w)
    _phase(spread, phi)
    e = math.frexp(spread / n)[1]
    w, phi = np.array([math.ldexp(x - w[0], -e) for x in w]), math.ldexp(phi, e)
    d = np.exp(1j * (w * phi)) * np.array([np.ones(n), 1j * w, -0.5 * w * w])
    per, d1, d2 = _walk(_circulant(d))  # U, U' and U''/2 = V D diag(1, i w, -w^2 / 2) V+
    dp = 2.0 * (per.conjugate() * d1).real
    d2p = 4.0 * (per.conjugate() * d2).real + 2.0 * abs(d1) ** 2
    # P'' = 0 gives the limit inf, and n P' / |P''| is +-inf, or nan where P is constant
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        root, sin = np.sqrt(2.0 * abs(d2p)) / n, n * dp / abs(d2p)
        delta = _sensitivity(n, abs(per) ** 2, abs(dp), sin, 1.0, 1 / (n * root), root)
        return float(np.ldexp(delta, -e))
