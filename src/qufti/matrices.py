"""Construction of the QuFTI unitary and its building blocks.

The interferometer is U = V . D . V+, where V is the n-mode quantum
Fourier transform matrix and D the diagonal phase mask. Mode j (0-based)
picks up phase weights[j] * phi; the default weights are the linear
gradient 0, 1, ..., n-1 of the paper's device. The tests cross-check the
matrix product against a closed-form expression for the entries of U
under the gradient.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray


@dataclass(frozen=True)
class InterferometerSpec:
    """Parameters of one interferometer instance.

    n is the photon/mode count, phi the unknown phase and weights the
    phase each mode picks up per unit of phi (None: the gradient 0..n-1).
    """

    n: int
    phi: float
    weights: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"mode count must be >= 1, got {self.n}")
        if self.weights is not None:
            if len(self.weights) != self.n:
                raise ValueError(f"got {len(self.weights)} weights, expected {self.n}")
            if not all(math.isfinite(w) for w in self.weights):
                raise ValueError("weights must be finite")
        # the largest phase phase_vector forms
        big = self.n - 1 if self.weights is None else float(max(map(abs, self.weights)))
        if not math.isfinite(big * float(self.phi)):  # in floats: numpy warns on overflow
            raise ValueError(f"{big!r} * phi must be finite, got phi = {float(self.phi)!r}")


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
    """Diagonal of the phase mask, exp(i weights[j] phi), as unit-modulus amplitudes."""
    w = np.arange(spec.n) if spec.weights is None else np.asarray(spec.weights, dtype=float)
    return np.exp(1j * (w * spec.phi))


@functools.lru_cache(maxsize=32)
def _qft_pair(n: int) -> tuple[NDArray[np.complex128], NDArray[np.complex128]]:
    """V and its conjugate for n modes, read-only and cached: every spec of one
    size, one per phi, shares them."""
    v = qft_matrix(n)
    vc = v.conj()
    v.setflags(write=False)
    vc.setflags(write=False)
    return v, vc


def compose_qufti(spec: InterferometerSpec) -> NDArray[np.complex128]:
    """Full interferometer unitary U = V . D . V+ for the given spec."""
    v, vc = _qft_pair(spec.n)
    return (v * phase_vector(spec)) @ vc.T
