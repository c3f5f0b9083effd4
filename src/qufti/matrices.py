"""Construction of the QuFTI unitary and its building blocks.

The interferometer is U = V . D . V+, where V is the n-mode quantum
Fourier transform matrix and D the diagonal phase mask. Mode j (0-based)
picks up phase weights[j] * phi; the default weights are the linear
gradient 0, 1, ..., n-1 of the paper's device. U is circulant for any
weights, so it is built from one row, the DFT of the mask (one product with
a cached DFT matrix), and comes out circulant bit for bit, which the
permanent kernel's orbit sum needs. The tests cross-check it against the
matrix product and against a closed-form expression for the entries of U
under the gradient. The library's input checks live here too: _count (and
SizeLimitError) for counts and size limits, _phase for phase products.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray


class SizeLimitError(ValueError):
    """A count above the largest its computation is admitted at: `need n <= 30, got 31`."""


FLOAT_COUNT_LIMIT = 2**1024 - 2**970 - 1  # the largest int whose float is finite


def _count(n: int, least: int, name: str = "n", most: int | None = None) -> int:
    """n as an int, or a ValueError: `need an integer n, got 2.5` or `need n >= 2, got 1`, and
    above most a SizeLimitError, `need n <= 30, got 31`. The library's one check of a photon,
    mode or sample number and of every size limit, made before any array is built; a numpy
    integer passes, a float or a bool never does, not even 3.0. Every count is used as a float
    somewhere, so one above FLOAT_COUNT_LIMIT is a SizeLimitError whatever most is; its message
    gives the size as a power of two, as str() refuses an int of more than 4,300 digits. Its
    companion for phases is _phase."""
    try:
        if n is True or n is False:  # an int subclass, which operator.index takes
            raise TypeError
        n = operator.index(n)
    except TypeError:
        raise ValueError(f"need an integer {name}, got {n}") from None
    if n < least:
        raise ValueError(f"need {name} >= {least}, got {n}")
    if n > FLOAT_COUNT_LIMIT:
        raise SizeLimitError(
            f"need {name} to convert to a finite float, got {name} >= 2**{n.bit_length() - 1}"
        )
    if most is not None and n > most:
        raise SizeLimitError(f"need {name} <= {most}, got {n}")
    return n


def _phase(w: float, phi: float | np.ndarray) -> float | np.ndarray:
    """w phi, or a ValueError naming the first phi at which it is not finite; a float phi gives
    a float. The library's one check of a phase product: w is the spec's largest |weight|, the
    closed forms' n, the NOON comparator's N or the mask sensitivity's weight spread. Its
    companion for counts is _count. An int w above 2^53 is shown as its float, not in full."""
    if type(phi) is float:
        x = w * phi  # w, a checked count or weight, is a Python number: no numpy warning
        if math.isfinite(x):
            return x
        bad = phi
    else:
        phi = np.asarray(phi, dtype=float)
        with np.errstate(over="ignore"):
            x = w * phi
        if np.isfinite(x).all():
            return x
        bad = float(phi[~np.isfinite(x)].flat[0])
    shown = float(w) if isinstance(w, int) and w > 2**53 else w
    raise ValueError(f"{shown} * phi must be finite, got phi = {bad!r}")


@dataclass(frozen=True)
class InterferometerSpec:
    """Parameters of one interferometer instance.

    n is the photon/mode count, phi the unknown phase and weights the phase each mode picks up
    per unit of phi (None: the gradient 0..n-1): an int, a float and a tuple of floats.
    """

    n: int
    phi: float
    weights: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", _count(self.n, 1))
        object.__setattr__(self, "phi", float(self.phi))
        if self.weights is not None:
            object.__setattr__(self, "weights", tuple(map(float, self.weights)))
            if len(self.weights) != self.n:
                raise ValueError(f"got {len(self.weights)} weights, expected {self.n}")
            if not all(map(math.isfinite, self.weights)):
                raise ValueError("weights must be finite")
        big = self.n - 1 if self.weights is None else max(map(abs, self.weights))
        _phase(big, self.phi)  # the largest phase phase_vector forms


def qft_matrix(n: int) -> NDArray[np.complex128]:
    """n-mode quantum Fourier transform matrix.

    Entries V[j,k] = exp(-2*pi*i*j*k/n)/sqrt(n) with 1-based j, k. The
    1-based convention matters: it differs from the 0-based DFT by a
    diagonal phase, and the closed-form entry cross-check assumes it.
    """
    n = _count(n, 1)
    idx = np.arange(1, n + 1)
    return np.exp(-2j * np.pi * np.outer(idx, idx) / n) / np.sqrt(n)


@functools.lru_cache(maxsize=32)
def _gradient(n: int) -> NDArray[np.float64]:
    """The default weights 0, 1, ..., n-1, read-only and cached."""
    w = np.arange(n, dtype=np.float64)
    w.setflags(write=False)
    return w


def phase_vector(spec: InterferometerSpec) -> NDArray[np.complex128]:
    """Diagonal of the phase mask, exp(i weights[j] phi), as unit-modulus amplitudes."""
    w = _gradient(spec.n) if spec.weights is None else np.array(spec.weights)
    return np.exp(1j * (w * spec.phi))


@functools.lru_cache(maxsize=32)
def _rotations(n: int) -> NDArray[np.intp]:
    """(j - i) mod n at [i, j], read-only and cached: row 0 of a circulant indexed by it
    gives the whole matrix."""
    index = (np.arange(n) - np.arange(n)[:, None]) % n
    index.setflags(write=False)
    return index


@functools.lru_cache(maxsize=32)
def _dft(n: int) -> NDArray[np.complex128]:
    """e^(-2 pi i (n - 1 - m) l / n) / n at [m, l], read-only and cached: the forward DFT over n
    with its rows reversed, so d @ _dft(n) is the DFT of the reversed d. The exponent is
    reduced mod n to -n/2 .. n/2 before the angle is formed, which keeps each twiddle within a
    few ulp."""
    m = np.arange(n)
    exponent = (m[::-1, None] * m + n // 2) % n - n // 2
    dft = np.exp(-2j * np.pi / n * exponent) / n
    dft.setflags(write=False)
    return dft


def _circulant(d: NDArray[np.complex128]) -> NDArray[np.complex128]:
    """V . diag(d) . V+ for each phase-mask diagonal d[..., :], circulant bit for bit.

    With 1-based V, (V D V+)[j, l] = (1/n) sum_m d_m w^((l - j) m), m = 1..n, w = e^(2 pi i/n),
    and w^((l - j) m) = w^(-(l - j)(n - m)), so row 0 is the DFT of the reversed mask over n,
    one vector-matrix product with the cached _dft(n) per mask, so a stack of masks gives
    each the bits it gets alone, and row j is row 0 rotated by j.
    """
    n = d.shape[-1]
    return (d[..., None, :] @ _dft(n))[..., 0, _rotations(n)]


def compose_qufti(spec: InterferometerSpec) -> NDArray[np.complex128]:
    """Full interferometer unitary U = V . D . V+ for the given spec, exactly circulant."""
    return _circulant(phase_vector(spec))
