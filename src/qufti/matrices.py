"""Construction of the QuFTI unitary and its building blocks.

The interferometer is U = V . D . V+, where V is the n-mode quantum
Fourier transform matrix and D a diagonal phase mask. The default mask is
a linear phase gradient: mode j (1-based) picks up phase (j-1)*(phi+theta).
The tests cross-check the matrix product against a closed-form
expression for the entries of U under the gradient mask.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray


@dataclass(frozen=True)
class LinearGradientMask:
    """Phase (j-1)*(phi+theta) on mode j, j = 1..n."""


@dataclass(frozen=True)
class SingleModeMask:
    """Phase phi on a single mode (1-based), identity elsewhere."""

    mode: int


@dataclass(frozen=True)
class CustomMask:
    """Arbitrary per-mode phases, length must equal n."""

    phases: tuple[float, ...]


PhaseMask = LinearGradientMask | SingleModeMask | CustomMask


@dataclass(frozen=True)
class InterferometerSpec:
    """Parameters of one interferometer instance.

    n is the photon/mode count, phi the unknown phase, theta a control
    phase offset (gradient mask only; defaults to 0 and is combined
    additively with phi).
    """

    n: int
    phi: float
    theta: float = 0.0
    mask: PhaseMask = field(default_factory=LinearGradientMask)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"mode count must be >= 1, got {self.n}")
        if not (math.isfinite(self.phi) and math.isfinite(self.theta)):
            raise ValueError("phases must be finite")
        if isinstance(self.mask, SingleModeMask):
            if not 1 <= self.mask.mode <= self.n:
                raise ValueError(
                    f"single-mode mask index {self.mask.mode} outside 1..{self.n}"
                )
        elif isinstance(self.mask, CustomMask):
            if len(self.mask.phases) != self.n:
                raise ValueError(
                    f"custom mask has {len(self.mask.phases)} phases, expected {self.n}"
                )
            if not all(math.isfinite(p) for p in self.mask.phases):
                raise ValueError("custom mask phases must be finite")


def qft_matrix(n: int) -> NDArray[np.complex128]:
    """n-mode quantum Fourier transform matrix.

    Entries V[j,k] = exp(-2*pi*i*j*k/n)/sqrt(n) with 1-based j, k. The
    1-based convention matters: it differs from the 0-based DFT by a
    diagonal phase, and the closed-form entry cross-check assumes it.
    """
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    idx = np.arange(1, n + 1)
    return np.exp(-2j * np.pi * np.outer(idx, idx) / n) / np.sqrt(n)


def phase_vector(spec: InterferometerSpec) -> NDArray[np.complex128]:
    """Diagonal of the phase mask as a vector of unit-modulus amplitudes."""
    n = spec.n
    if isinstance(spec.mask, LinearGradientMask):
        phases = np.arange(n) * (spec.phi + spec.theta)
    elif isinstance(spec.mask, SingleModeMask):
        phases = np.zeros(n)
        phases[spec.mask.mode - 1] = spec.phi
    else:
        phases = np.asarray(spec.mask.phases, dtype=float)
    return np.exp(1j * phases)


def compose_qufti(spec: InterferometerSpec) -> NDArray[np.complex128]:
    """Full interferometer unitary U = V . D . V+ for the given spec."""
    v = qft_matrix(spec.n)
    d = phase_vector(spec)
    return (v * d) @ v.conj().T
