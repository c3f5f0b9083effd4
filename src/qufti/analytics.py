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

from .matrices import InterferometerSpec, _phase, compose_qufti
from .permanent import RYSER_DIM_LIMIT, SizeLimitError, permanent_ryser


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


def _factors(n: int, c: float | np.ndarray) -> list:
    """The n - 1 factors [a(j) c + b(j)] / n^2 of the probability product.

    a(j) = 2j(n-j) and b(j) = n^2 - 2jn + 2j^2 for j = 1..n-1; note
    a + b = n^2 and b - a = (n-2j)^2. c is cos(n phi) times the damping,
    a float or an ndarray. b(j) stays parenthesised: summed apart, it
    keeps the rounding bit for bit.
    """
    return [
        (2 * j * (n - j) * c + (n * n - 2 * j * n + 2 * j * j)) / (n * n)
        for j in range(1, n)
    ]


def permanent_closed_form(n: int, phi: float) -> complex:
    """Conjectured product form of the interferometer permanent.

    Each factor is divided by n as it is accumulated, keeping intermediate
    magnitudes O(1) instead of forming n^{n-1} explicitly. n = 1 is the
    empty product, 1. The loop runs in Python complex; it divides by n as
    numpy's complex division does, each part times 1.0 / n, so it has the
    bits of a loop over numpy complex scalars.
    """
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
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
    """P, |dP/dphi| and sin(n phi) from one phase and one factor list; an array
    call starts the running product p = P from ones, so n = 1 keeps its shape."""
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    x = _phase(n, phi)
    sin = _libm(math.sin, x)
    c = _libm(math.cos, x) * damping
    factors = _factors(n, c)
    suffix = [1.0] * n  # suffix[i] = product of factors[i:]
    for i in range(n - 2, -1, -1):
        suffix[i] = suffix[i + 1] * factors[i]
    p, leave_one_out = (np.ones(np.shape(c)) if np.ndim(c) else 1.0), 0.0
    for j in range(1, n):  # p * suffix[j] leaves out factors[j - 1]
        leave_one_out = leave_one_out + (2 * j * (n - j) / (n * n)) * p * suffix[j]
        p = p * factors[j - 1]
    return p, n * np.abs(sin) * damping * leave_one_out, sin


def probability_derivative(
    n: int, phi: float | np.ndarray, damping: float | np.ndarray = 1.0
) -> float | np.ndarray:
    """|dP/dphi| of the coincidence probability, analytic form.

    Evaluated as a sum of leave-one-out products rather than P times a sum
    of ratios, so factors that hit zero do not produce 0/0. `damping`
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
    first worst case in scan order is reported.
    """
    if not 2 <= n_max <= RYSER_DIM_LIMIT:
        raise SizeLimitError(f"n_max must be in 2..{RYSER_DIM_LIMIT}, got {n_max}")
    if phi_samples < 1:
        raise ValueError(f"phi_samples must be >= 1, got {phi_samples}")
    err, n_worst, phi_worst = -1.0, 2, 0.0
    for n in range(2, n_max + 1):
        for phi in np.linspace(0.0, 2 * np.pi, phi_samples, endpoint=False):
            spec = InterferometerSpec(n=n, phi=float(phi))
            e = abs(permanent_ryser(compose_qufti(spec)) - permanent_closed_form(n, float(phi)))
            if e > err:
                err, n_worst, phi_worst = e, n, float(phi)
    return ConjectureReport(
        n_range=(2, n_max),
        samples=phi_samples,
        max_abs_error=err,
        worst_case=(n_worst, phi_worst),
    )
