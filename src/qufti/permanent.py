"""Exact permanent computation for dense complex matrices.

Two independent routes: a factorial-time expansion over permutations
(the oracle) and a Glynn kernel with Gray-code row-sum updates (the
production path, O(2^(n-1) * n)). A repeated-column variant supplies
amplitudes for bunched Fock outcomes.

Glynn's formula sums 2^(n-1) signed products where Ryser's
inclusion-exclusion sums 2^n - 1, so the walk has half the steps. The
production kernel keeps the name permanent_ryser, which callers and the
benchmark's trace key on. The same walk takes a matrix polynomial to any
order in t (Taylor mode), for a permanent's exact derivatives along a path.

The Gray-code summation order is fixed, so results are bit-reproducible
run-to-run on the same platform.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np
from numpy.typing import NDArray

from .exceptions import SizeLimitError

# Size guards; tune for the machine at hand, they are not algorithmic limits.
NAIVE_DIM_LIMIT = 10
RYSER_DIM_LIMIT = 30

# The formula permanent_ryser evaluates, as verify's summary line names it.
KERNEL = "glynn"

# Gray-code steps evaluated per vectorised block of the walk.
_BLOCK = 1024

# What a column adds to the row sums when its sign turns -1, then back to +1:
# the complex values a Python -2 and 2 take in a product with A.
_TURN = np.array([-2, 2], dtype=np.complex128).reshape(2, 1, 1)
_TURN.setflags(write=False)


def _check_square(m: NDArray[np.complex128]) -> int:
    shape = np.shape(m)  # a nested list has a shape too
    if len(shape) != 2 or shape[0] != shape[1]:
        raise ValueError(f"matrix must be square, got shape {shape}")
    return shape[0]


def permanent_naive(m: NDArray[np.complex128]) -> complex:
    """Permanent by direct sum over permutations, lexicographic order.

    Factorial time; exists as the independent oracle for the Glynn kernel.
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
    """Steps start .. start + _BLOCK - 1 of the Gray-code walk over the signs
    of the first n - 1 columns (the last column's sign stays +1).

    For each step: the row of [-2 A^T; 2 A^T; sum of A's columns] it adds to
    the row sums (the sign of column t turning -1 is row t, turning back +1
    is row n + t, and step 0, all signs +1, is row 2n) and the sign
    prod_k delta_k of its sign vector. A block depends on (n, start) alone,
    so it is cached: every walk up to n = 11 is one block, and repeated
    permanents of one size, one per outcome or per phi, skip rebuilding it.
    The cache keeps at most 32 blocks of 16 KiB.
    """
    step = np.arange(start, min(start + _BLOCK, 1 << (n - 1)))
    # Step k >= 1 flips the bit of k's lowest set bit; frexp(2^t) is exact.
    flipped = np.frexp(step & -step)[1] - 1
    back = ((step ^ (step >> 1)) >> np.maximum(flipped, 0)) & 1 == 0
    rows = np.where(step == 0, 2 * n, flipped + n * back)
    signs = np.where(step & 1, -1.0, 1.0)
    rows.setflags(write=False)
    signs.setflags(write=False)
    return rows, signs


def _walk(a: NDArray[np.complex128]) -> np.complex128 | NDArray[np.complex128]:
    """2^(n-1) Per(A_0 + t A_1 + ... + t^(k-1) A_(k-1)) to order t^(k-1), as k coefficients
    (a scalar for k = 1); row t of the (n, k n) table a holds column t of each A_m in turn.

    Sign vectors are visited in Gray-code order, 2^(n-1) steps, so each step adds -2 or +2
    times one column of every A_m to the row sums. The walk runs in blocks of _BLOCK steps;
    both running sums are sequential cumsums carried across blocks, so the adds are those of
    a step loop; for k > 1 a truncated product rule multiplies the row sums' polynomials.
    """
    n, width = a.shape  # width = k n
    if n > RYSER_DIM_LIMIT:
        raise SizeLimitError(f"exact permanent limited to dim <= {RYSER_DIM_LIMIT}, got {n}")
    # column t turns -1 at row t, back to +1 at row n + t; row 2n is step 0's sums
    signed_cols = np.empty((2 * n + 1, width), dtype=np.complex128)
    np.multiply(a, _TURN, out=signed_cols[:2 * n].reshape(2, n, width))
    np.add.reduce(a, axis=0, out=signed_cols[2 * n])
    row_sums = np.zeros(width, dtype=np.complex128)
    total = 0j
    for start in range(0, 1 << (n - 1), _BLOCK):
        rows, signs = _gray_block(n, start)
        deltas = signed_cols.take(rows, axis=0)
        deltas[0] += row_sums
        sums = np.add.accumulate(deltas, axis=0, out=deltas)
        row_sums = sums[-1]
        if width == n:
            # the ufunc reduce np.prod wraps, without its per-call dispatch
            terms = np.multiply.reduce(sums, axis=1)
            terms *= signs  # prod_k delta_k
        else:
            s = sums.reshape(-1, width // n, n).T  # s[i, m]: row sum i's t^m coefficients
            p = s[0] * signs
            for i in range(1, n):
                for m in range(len(p) - 1, -1, -1):  # lower orders are still the old ones
                    p[m] *= s[i, 0]
                    for j in range(m):
                        p[m] += p[j] * s[i, m - j]
            terms = p.T
        terms[0] += total
        total = np.add.accumulate(terms)[-1]
    return total


def permanent_ryser(m: NDArray[np.complex128]) -> complex:
    """Permanent via Glynn's formula (Balasubramanian-Bax-Franklin-Glynn).

    Per(A) = 2^(1-n) sum over sign vectors delta in {+1, -1}^n with
    delta_n = +1 of (prod_k delta_k) prod_i sum_j delta_j A[i,j]; the empty
    permanent is 1. The sum is the Gray-code walk's for k = 1; the name is
    Ryser's, whose formula this kernel evaluated before (see the module note).
    """
    n = _check_square(m)
    if n == 0:
        return 1 + 0j
    # C order first: step 0's row sums then always add along a contiguous axis,
    # whose rounding differs from a strided one, so the bits ignore m's layout
    total = complex(_walk(np.ascontiguousarray(m, dtype=np.complex128).T))
    scale = math.ldexp(1.0, 1 - n)
    return complex(total.real * scale, total.imag * scale)


def permanent_with_repeats(
    m: NDArray[np.complex128], col_multiplicities: list[int] | tuple[int, ...]
) -> complex:
    """Permanent of the matrix with column k repeated col_multiplicities[k] times.

    Multiplicities are non-negative integers summing to the dimension;
    all-ones reduces to permanent_ryser on the original matrix.
    """
    n = _check_square(m)
    mult = list(col_multiplicities)
    if len(mult) != n or not all(isinstance(s, (int, np.integer)) and s >= 0 for s in mult):
        raise ValueError(f"multiplicities must be {n} non-negative integers")
    if sum(mult) != n:
        raise ValueError(f"multiplicities sum to {sum(mult)}, expected {n}")
    return permanent_ryser(np.repeat(m, mult, axis=1))
