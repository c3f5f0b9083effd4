"""Closed-form results for the gradient-mask interferometer.

The permanent of the n-mode interferometer follows an empirical product
pattern, Per(U) = (1/n^{n-1}) prod_{j=1}^{n-1} (j e^{i n phi} + n - j).
This is a conjecture, not a theorem; `conjecture_verify` checks it against
the exact (Glynn) permanent of the explicitly composed matrix and reports the
worst-case absolute error. From the pattern follow a real product form for
the coincidence probability and an analytic derivative.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .matrices import InterferometerSpec, _count, _phase, compose_qufti
from .permanent import RYSER_DIM_LIMIT, permanent_ryser


def _libm(f, x):
    """f (math.cos, math.sin or math.exp) applied per element of a float or ndarray.

    numpy's SIMD transcendentals need not match the C library's last bit on
    every CPU; calling the math module per element keeps the bits of a
    scalar evaluation, so a sweep and a point-by-point loop agree exactly.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:  # a float call stays in fast float arithmetic
        return f(float(x))
    return np.fromiter(map(f, x.ravel().tolist()), float, x.size).reshape(x.shape)


def _result(x):
    """A zero-dimensional result as a Python float (so repr prints a plain
    number), an array unchanged."""
    return float(x) if np.ndim(x) == 0 else x


def permanent_closed_form(n: int, phi: float) -> complex:
    """Conjectured product form of the interferometer permanent.

    Each factor is divided by n as it is accumulated, keeping intermediate
    magnitudes O(1) instead of forming n^{n-1} explicitly. n = 1 is the
    empty product, 1. The loop runs in Python complex; it divides by n as
    numpy's complex division does, each part times 1.0 / n, so it has the
    bits of a loop over numpy complex scalars.
    """
    n = _count(n, 1)
    z = cmath.exp(1j * _phase(n, phi))
    scale = 1.0 / n
    result = 1 + 0j
    for j in range(1, n):
        factor = j * z + (n - j)
        result *= complex(factor.real * scale, factor.imag * scale)
    return result


def coincidence_probability(
    n: int, phi: float | np.ndarray, damping: float | np.ndarray = 1.0
) -> float | np.ndarray:
    """Probability of one photon in every output mode, |Per(U)|^2.

    Real product form: prod_j [a(j) cos(n phi) + b(j)] / n^2. Equals 1 at
    phi = 0 and is periodic in phi with period 2 pi / n. damping = 1 is the
    ideal device; dephasing scales the cosine term by
    damping = exp(-n^2 <dchi^2> / 2), absorbed into the a(j) coefficients.
    phi and damping may be floats or ndarrays that broadcast together; an
    array gives an array, element for element the bits of the float call.
    """
    return _result(_signal(n, phi, damping)[0])


def _signal(n: int, phi, damping):
    """P, |dP/dphi| and sin(n phi) from one phase and one running product.

    Factor j is [a(j) c + b(j)] / n^2 with a(j) = 2j(n-j), b(j) = n^2 - 2jn + 2j^2 and c
    cos(n phi) times the damping; note a + b = n^2 and b - a = (n-2j)^2. b(j) stays
    parenthesised: summed apart, it keeps the rounding bit for bit. dP/dc rides along by the
    product rule (forward mode), so no factor list is held and a vanishing factor gives no
    0/0. An array call starts p = P from ones, so n = 1 keeps its shape.
    """
    n = _count(n, 1)
    x = _phase(n, phi)
    d = np.asarray(damping)
    if (bad := d[~((d >= 0) & (d <= 1))]).size:  # the first damping outside [0, 1], or NaN
        raise ValueError(f"need 0 <= damping <= 1, got {float(bad[0])!r}")
    sin = _libm(math.sin, x)
    c = _libm(math.cos, x) * damping
    p, dp_dc = (np.ones(np.shape(c)) if np.ndim(c) else 1.0), 0.0
    for j in range(1, n):
        a = 2 * j * (n - j)
        factor = (a * c + (n * n - 2 * j * n + 2 * j * j)) / (n * n)
        dp_dc = dp_dc * factor + (a / (n * n)) * p
        p = p * factor
    return p, n * np.abs(sin) * damping * dp_dc, sin


def probability_derivative(
    n: int, phi: float | np.ndarray, damping: float | np.ndarray = 1.0
) -> float | np.ndarray:
    """|dP/dphi| of the coincidence probability, analytic form.

    Carried through the product by the product rule rather than taken as P
    times a sum of ratios, so factors that hit zero do not produce 0/0. `damping`
    scales the cosine term as in coincidence_probability; phi and damping
    broadcast as there.
    """
    return _result(_signal(n, phi, damping)[1])


@dataclass(frozen=True)
class ConjectureReport:
    """Worst-case disagreement between the product form and the exact permanent."""

    n_range: tuple[int, int]
    samples: int
    max_abs_error: float
    worst_case: tuple[int, float]  # (n, phi)

    def to_json_dict(self) -> dict:
        return {
            "n_range": [self.n_range[0], self.n_range[1]],
            "samples": self.samples,
            "max_abs_error": self.max_abs_error,
            "worst_case": {"n": self.worst_case[0], "phi": self.worst_case[1]},
        }


def conjecture_verify(n_max: int, phi_samples: int) -> ConjectureReport:
    """Check the product form against the exact (Glynn) permanent on a phi grid.

    Scans n = 2..n_max and phi_samples uniform points over [0, 2 pi); the
    first worst case in scan order is reported, and a NaN error is the worst.
    """
    n_max = _count(n_max, 2, "n_max", most=RYSER_DIM_LIMIT)
    phi_samples = _count(phi_samples, 1, "phi_samples")
    phis = np.linspace(0.0, 2 * np.pi, phi_samples, endpoint=False).tolist()
    errors = np.fromiter((
        abs(permanent_ryser(compose_qufti(InterferometerSpec(n, phi)))
            - permanent_closed_form(n, phi)) for n in range(2, n_max + 1) for phi in phis
    ), float)
    worst = int(np.argmax(errors))  # the first NaN, or else the first largest error
    n, k = divmod(worst, phi_samples)
    return ConjectureReport((2, n_max), phi_samples, float(errors[worst]), (2 + n, phis[k]))
