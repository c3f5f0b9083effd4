"""Exact permanent computation for dense complex matrices.

Two independent routes: a factorial-time expansion over permutations
(the oracle) and a Glynn kernel (the production path). A repeated-column
variant supplies amplitudes for bunched Fock outcomes.

Glynn's formula sums 2^(n-1) signed products where Ryser's
inclusion-exclusion sums 2^n - 1. The production kernel keeps the name
permanent_ryser, which callers and the benchmark's trace key on. The same
walk takes a matrix polynomial to any order in t (Taylor mode), for a
permanent's exact derivatives along a path.

A general matrix is walked in Gray-code order, O(2^(n-1) n), each step
updating the row sums by one column. A circulant matrix, as every QuFTI
unitary V D V+ is, has the same summand on all rotations and negations of
a sign vector (Glynn, Eur. J. Combin. 31, 2010), so the walk sums one
vector per orbit, about 2^(n-1) / n of them, each weighted by its orbit's
share, and reads each one's row sums from two tables of half sums.

The walk returns Per itself: the cached signs carry Glynn's 2^(1-n), a
power of two per term (times a small integer weight for an orbit), exact in
the normal float range. Both summation orders are fixed, so results are
bit-reproducible run-to-run on the same platform.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np
from numpy.typing import NDArray


class SizeLimitError(ValueError):
    """Requested problem size exceeds a configured guard."""


# Size guards; tune for the machine at hand, they are not algorithmic limits.
NAIVE_DIM_LIMIT = 10
RYSER_DIM_LIMIT = 30

# The formula permanent_ryser evaluates, as verify's summary line names it.
KERNEL = "glynn"

# Gray-code steps, or orbit representatives, evaluated per vectorised block of the walk.
_BLOCK = 1024

# Sign vectors scanned per chunk while an orbit schedule is built.
_SCAN = 1 << 16

# What a column adds to the row sums when its sign turns -1, then back to +1:
# the complex values a Python -2 and 2 take in a product with A.
_TURN = np.array([-2, 2], dtype=np.complex128).reshape(2, 1, 1)
_TURN.setflags(write=False)

# The multiples of a column that half sums add: +1, -1 and, for odd n, 0 (row 2n).
_SIGNED = np.array([1, -1, 0], dtype=np.complex128).reshape(3, 1, 1)
_SIGNED.setflags(write=False)


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
    prod_k delta_k of its sign vector, times 2^(1-n). A block depends on
    (n, start) alone, so it is cached: every walk up to n = 11 is one block,
    and repeated permanents of one size, one per outcome or per phi, skip
    rebuilding it. The cache keeps at most 32 blocks of 16 KiB.
    """
    step = np.arange(start, min(start + _BLOCK, 1 << (n - 1)))
    # Step k >= 1 flips the bit of k's lowest set bit; frexp(2^t) is exact.
    flipped = np.frexp(step & -step)[1] - 1
    back = ((step ^ (step >> 1)) >> np.maximum(flipped, 0)) & 1 == 0
    rows = np.where(step == 0, 2 * n, flipped + n * back)
    signs = np.where(step & 1, -1.0, 1.0) * math.ldexp(1.0, 1 - n)
    rows.setflags(write=False)
    signs.setflags(write=False)
    return rows, signs


def _add_terms(
    total: complex | NDArray[np.complex128],
    sums: NDArray[np.complex128],
    signs: NDArray[np.float64],
    k: int,
    n: int,
) -> np.complex128 | NDArray[np.complex128]:
    """total plus Glynn's terms for a block of row sums, one row of sums per sign vector:
    each the product of its n row sums times its sign, added in order. For k > 1 the row
    sums are polynomials in t, multiplied by a truncated product rule."""
    if k == 1:
        # the ufunc reduce np.prod wraps, without its per-call dispatch
        terms = np.multiply.reduce(sums, axis=1)
        terms *= signs  # 2^(1-n) prod_k delta_k, times an orbit's weight
    else:
        s = sums.reshape(-1, k, n).T  # s[i, m]: row sum i's t^m coefficients
        p = s[0] * signs
        for i in range(1, n):
            for m in range(k - 1, -1, -1):  # lower orders are still the old ones
                p[m] *= s[i, 0]
                for j in range(m):
                    p[m] += p[j] * s[i, m - j]
        terms = p.T
    terms[0] += total
    return np.add.accumulate(terms)[-1]


def _gray_walk(
    table: NDArray[np.complex128], k: int, n: int
) -> np.complex128 | NDArray[np.complex128]:
    """Glynn's sum over every sign vector, in Gray-code order with the signs of _gray_block.

    Each step adds -2 or +2 times one column of every A_m to the row sums; both running
    sums are sequential cumsums carried across blocks, so the adds are those of a step loop.
    """
    # column t turns -1 at row t, back to +1 at row n + t; row 2n is step 0's sums
    signed_cols = np.empty((2 * n + 1, k * n), dtype=np.complex128)
    np.multiply(table, _TURN, out=signed_cols[:2 * n].reshape(2, n, k * n))
    np.add.reduce(table, axis=0, out=signed_cols[2 * n])
    row_sums = total = 0j  # carried from block to block
    for start in range(0, 1 << (n - 1), _BLOCK):
        rows, signs = _gray_block(n, start)
        deltas = signed_cols.take(rows, axis=0)
        deltas[0] += row_sums
        sums = np.add.accumulate(deltas, axis=0, out=deltas)
        row_sums = sums[-1]
        total = _add_terms(total, sums, signs, k, n)
    return total


def _is_circulant(a: NDArray[np.complex128]) -> bool:
    """Whether every matrix in the (k, n, n) stack a, n >= 2, is circulant bit for bit:
    A[i, j] is A[0, (j - i) mod n]."""
    return bool(
        a[0, 1, 1] == a[0, 0, 0]  # one entry first: most other matrices fail here
        and a[:, 1:, 1:].tobytes() == a[:, :-1, :-1].tobytes()  # constant diagonals,
        and a[:, 1:, 0].tobytes() == a[:, :-1, -1].tobytes()  # which wrap around
    )


@functools.lru_cache(maxsize=8)
def _orbit_schedule(
    n: int,
) -> tuple[NDArray[np.int32], NDArray[np.int32], NDArray[np.float64], NDArray[np.intp]]:
    """One sign vector per orbit of rotation and negation, for Glynn's sum over a circulant.

    Bit j of x set means delta_j = -1, and x < 2^(n-1) keeps delta_n = +1. On a circulant
    the summand is the same over an orbit, of which n / |stabilizer| vectors have
    delta_n = +1; the orbit's smallest x stands for them. The candidates are scanned _SCAN
    at a time, and each rotation drops those it beats before the next one is tried.

    The row sums split at column h = n // 2 into a low half (the columns below h) and a
    high half (the rest; column n - 1 keeps +1), tabulated for every choice of signs in one
    stacked table, low entries first. Returns, for the representatives in increasing order,
    the table entries hi and lo whose sum is their row sums and the weights n / |stabilizer|
    times prod_k delta_k 2^(1-n); then rows, whose column e lists the rows of
    [A^T; -A^T; 0] that table entry e adds in order, n - h of them (for odd n a low entry
    starts from the zero row). Like _gray_block, it is read-only and cached per n.
    """
    full = (1 << n) - 1
    h = n // 2
    found = []
    for start in range(0, 1 << (n - 1), _SCAN):
        x = np.arange(start, min(start + _SCAN, 1 << (n - 1)), dtype=np.int64)
        stab = np.ones_like(x)
        for r in range(1, n):
            rot = ((x << r) | (x >> (n - r))) & full
            neg = rot ^ full  # the rotation, negated
            stab += (rot == x) | (neg == x)
            keep = (x <= rot) & (x <= neg)
            x, stab = x[keep], stab[keep]
        minus = sum((x >> j) & 1 for j in range(n))  # how many delta_j are -1
        signs = np.where(minus & 1, -1.0, 1.0) * (n / stab) * math.ldexp(1.0, 1 - n)
        hi, lo = (x >> h) + (1 << h), x & ((1 << h) - 1)
        found.append((hi.astype(np.int32), lo.astype(np.int32), signs))
    hi, lo, signs = (np.concatenate(parts) for parts in zip(*found))
    bits = (np.arange(1 << h)[:, None] >> np.arange(h)) & 1
    low = np.hstack([np.full((1 << h, n - 2 * h), 2 * n), np.arange(h) + n * bits])
    free = bits[:1 << (n - 1 - h), :n - 1 - h]
    high = np.hstack([np.arange(h, n - 1) + n * free, np.full((len(free), 1), n - 1)])
    schedule = (hi, lo, signs, np.vstack([low, high]).T.copy())
    for part in schedule:
        part.setflags(write=False)
    return schedule


def _orbit_walk(
    table: NDArray[np.complex128], k: int, n: int
) -> np.complex128 | NDArray[np.complex128]:
    """Glynn's sum over one sign vector per orbit (see _orbit_schedule), for circulant A_m.

    Each representative's row sums are one entry of each half table added: one add per
    row sum, nothing carried from one representative to the next.
    """
    hi, lo, signs, rows = _orbit_schedule(n)
    signed = np.multiply(table, _SIGNED).reshape(3 * n, k * n)  # [A^T; -A^T; 0]
    halves = np.empty((rows.shape[1], k * n), dtype=np.complex128)
    for start in range(0, len(halves), _BLOCK):  # the rows taken stay one block's worth
        np.add.reduce(signed.take(rows[:, start:start + _BLOCK], axis=0), axis=0,
                      out=halves[start:start + _BLOCK])
    total = 0j
    for start in range(0, len(hi), _BLOCK):
        sums = halves.take(hi[start:start + _BLOCK], axis=0)
        sums += halves.take(lo[start:start + _BLOCK], axis=0)
        total = _add_terms(total, sums, signs[start:start + _BLOCK], k, n)
    return total


def _walk(a: NDArray[np.complex128]) -> np.complex128 | NDArray[np.complex128]:
    """Per(A_0 + t A_1 + ... + t^(k-1) A_(k-1)) to order t^(k-1) for the (k, n, n) stack a,
    as k coefficients (a scalar for k = 1).

    Glynn's sum takes one sign vector per rotation orbit if every A_m is circulant, and
    all 2^(n-1) in Gray-code order otherwise.
    """
    # C order first: step 0's row sums then always add along the same memory axis,
    # whose rounding differs from another's, so the bits ignore a's layout
    a = np.ascontiguousarray(a, dtype=np.complex128)
    k, n, _ = a.shape
    if n > RYSER_DIM_LIMIT:
        raise SizeLimitError(f"exact permanent limited to dim <= {RYSER_DIM_LIMIT}, got {n}")
    table = a.transpose(2, 0, 1).reshape(n, k * n)  # row t: column t of each A_m in turn
    if n > 1 and _is_circulant(a):
        return _orbit_walk(table, k, n)
    return _gray_walk(table, k, n)


def permanent_ryser(m: NDArray[np.complex128]) -> complex:
    """Permanent via Glynn's formula (Balasubramanian-Bax-Franklin-Glynn).

    Per(A) = 2^(1-n) sum over sign vectors delta in {+1, -1}^n with
    delta_n = +1 of (prod_k delta_k) prod_i sum_j delta_j A[i,j]; the empty
    permanent is 1. The sum is _walk's for k = 1, over one sign vector per
    orbit for a circulant; the name is Ryser's, whose formula this kernel
    evaluated before (see the module note).
    """
    n = _check_square(m)
    if n == 0:
        return 1 + 0j
    return complex(_walk(np.asarray(m)[None]))


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
