"""Exact permanent computation for dense complex matrices.

Two independent routes: a factorial-time expansion over permutations
(the oracle) and a Ryser inclusion-exclusion kernel with Gray-code
row-sum updates (the production path, O(2^n * n)). A repeated-column
variant supplies amplitudes for bunched Fock outcomes.

The Gray-code summation order is fixed, so results are bit-reproducible
run-to-run on the same platform.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np
from numpy.typing import NDArray

from .exceptions import SizeLimitError

# Size guards; tune for the machine at hand, they are not algorithmic limits.
NAIVE_DIM_LIMIT = 10
RYSER_DIM_LIMIT = 30

# Gray-code steps evaluated per vectorised block of the Ryser walk.
_BLOCK = 1024


def _check_square(m: NDArray[np.complex128]) -> int:
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix must be square, got shape {m.shape}")
    return m.shape[0]


def permanent_naive(m: NDArray[np.complex128]) -> complex:
    """Permanent by direct sum over permutations, lexicographic order.

    Factorial time; exists as the independent oracle for the Ryser kernel.
    """
    n = _check_square(m)
    if n > NAIVE_DIM_LIMIT:
        raise SizeLimitError(
            f"naive permanent limited to dim <= {NAIVE_DIM_LIMIT}, got {n}"
        )
    rows = [list(map(complex, row)) for row in m]
    total = 0j
    for perm in itertools.permutations(range(n)):
        prod = 1 + 0j
        for i, j in enumerate(perm):
            prod *= rows[i][j]
        total += prod
    return total


@functools.lru_cache(maxsize=32)
def _gray_block(n: int, start: int) -> tuple[NDArray[np.intp], NDArray[np.float64]]:
    """Steps start .. start + _BLOCK - 1 of the n-column Gray-code walk.

    For each step: the row of [A^T; -A^T] it adds to the row sums (column j
    entering is row j, leaving is row n + j) and the sign (-1)^|S| of its
    subset. A block depends on (n, start) alone, so it is cached: every walk
    up to n = 10 is one block, and repeated permanents of one size, one per
    outcome or per phi, skip rebuilding it. The cache keeps at most 32
    blocks of 16 KiB.
    """
    step = np.arange(start, min(start + _BLOCK, 1 << n))
    # Step k flips the bit of k's lowest set bit; frexp(2^t) is exact.
    flipped = np.frexp(step & -step)[1] - 1
    leaving = ((step ^ (step >> 1)) >> flipped) & 1 == 0
    rows, signs = flipped + n * leaving, np.where(step & 1, -1.0, 1.0)
    rows.setflags(write=False)
    signs.setflags(write=False)
    return rows, signs


def permanent_ryser(m: NDArray[np.complex128]) -> complex:
    """Permanent via Ryser's inclusion-exclusion formula.

    Per(A) = (-1)^n sum over column subsets S of
    (-1)^|S| prod_i sum_{j in S} A[i,j]; the empty subset adds 0, or the
    empty permanent 1 when n = 0. Subsets are visited in Gray-code
    order so each step updates the row sums by a single column. The walk
    runs in blocks of _BLOCK steps; both running sums are sequential
    cumsums carried across blocks, so the adds are those of a step loop.
    """
    n = _check_square(m)
    if n > RYSER_DIM_LIMIT:
        raise SizeLimitError(
            f"Ryser permanent limited to dim <= {RYSER_DIM_LIMIT}, got {n}"
        )
    a = np.asarray(m, dtype=np.complex128).T
    signed_cols = np.concatenate([a, -a])  # column j enters at j, leaves at n + j
    row_sums = np.zeros(n, dtype=np.complex128)
    total = 0j if n else 1 + 0j  # the empty subset's product of n zero row sums
    for start in range(1, 1 << n, _BLOCK):
        rows, signs = _gray_block(n, start)
        deltas = signed_cols.take(rows, axis=0)
        deltas[0] += row_sums
        sums = deltas.cumsum(axis=0)
        row_sums = sums[-1]
        terms = np.prod(sums, axis=1) * signs  # (-1)^|S|
        terms[0] += total
        total = complex(terms.cumsum()[-1])
    return -total if n % 2 else total


def permanent_with_repeats(
    m: NDArray[np.complex128], col_multiplicities: list[int] | tuple[int, ...]
) -> complex:
    """Permanent of the matrix with column k repeated col_multiplicities[k] times.

    Multiplicities must sum to the dimension; all-ones reduces to
    permanent_ryser on the original matrix.
    """
    n = _check_square(m)
    mult = list(col_multiplicities)
    if len(mult) != n or any(s < 0 for s in mult):
        raise ValueError(f"multiplicities must be {n} non-negative integers")
    if sum(mult) != n:
        raise ValueError(f"multiplicities sum to {sum(mult)}, expected {n}")
    cols = [k for k, s in enumerate(mult) for _ in range(s)]
    return permanent_ryser(m.take(cols, axis=1))
