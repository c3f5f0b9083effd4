"""Exact permanent computation for dense complex matrices.

Two independent routes: a factorial-time expansion over permutations
(the oracle) and a Glynn kernel (the production path). A repeated-column
variant supplies amplitudes for bunched Fock outcomes.

Glynn's formula sums 2^(n-1) signed products where Ryser's
inclusion-exclusion sums 2^n - 1. The production kernel keeps the name
permanent_ryser, which callers and the benchmark's trace key on. The same
walk takes a matrix polynomial to any order in t (Taylor mode), for a
permanent's exact derivatives along a path.

One walk serves every matrix, O(2^(n-1) n): it reads each sign vector's row
sums from two tables of half sums, one add per row sum, and inputs differ
only in the list of sign vectors it sums. The tables are one BLAS product of
A with a cached matrix of +1, -1 and 0. Each table entry carries the sign
of the half it stands for, so a vector's sign is a product of two. A
general matrix takes all 2^(n-1), each of weight 1, in blocks of
consecutive sign vectors: a block's row sums are a slice of high entries
added to a slice of low ones, read as views of the tables, and its signs
are one cached block's, negated where the block's start has odd parity. A
circulant matrix, as every QuFTI unitary V D V+ is, has the same summand on
all rotations and negations of a sign vector (Glynn, Eur. J. Combin. 31,
2010), so it takes one vector per orbit, about 2^(n-1) / n of them, each
weighted by its orbit's share, whose entries it gathers by index.

The sign vectors run along the last axis: a block's row sums are n rows of
one entry per vector, so each product is n - 1 of numpy's vectorised binary
complex multiplies down the rows. The walk returns Per itself: the cached
signs carry Glynn's 2^(1-n), a power of two per term (times a small integer
weight for an orbit), exact in the normal float range. The summation order
is fixed, so results are bit-reproducible run-to-run on one machine. The
last bits follow numpy's complex multiply loop, which uses FMA under its
AVX2 and AVX-512 dispatch and not under the X86_V2 baseline, and the BLAS
kernel of the half sums: its products by +1, -1 and 0 are exact, OpenBLAS's
Haswell and SkylakeX kernels add them in column order, and its SSE
(Nehalem) kernel rounds some half sums differently from n = 7 on. A
permanent that overflows comes back inf or nan, without a warning: the walk
runs under numpy's error state for overflow and invalid operations.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator

import numpy as np
from numpy.typing import NDArray

from .matrices import SizeLimitError, _count, _rotations  # SizeLimitError re-exported

# Size guards, checked by matrices._count; tune for the machine at hand, they are not
# algorithmic limits.
NAIVE_DIM_LIMIT = 10
RYSER_DIM_LIMIT = 30

# The formula permanent_ryser evaluates, as verify's summary line names it.
KERNEL = "glynn"

# Sign vectors evaluated per vectorised block of the walk. A power of two: a general matrix's
# blocks are slices of the half-sum table (see _half_rows).
_BLOCK = 1024

# Sign vectors scanned per chunk while an orbit schedule is built.
_SCAN = 1 << 16


def _square(m: NDArray[np.complex128], most: int) -> NDArray[np.complex128]:
    """m as a square C-order complex array of at most `most` rows: the kernel's one check."""
    a = np.asarray(m, dtype=np.complex128, order="C")  # a nested list too
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    _count(a.shape[0], 0, most=most)
    return a


def permanent_naive(m: NDArray[np.complex128]) -> complex:
    """Permanent by direct sum over permutations, lexicographic order.

    Factorial time; exists as the independent oracle for the Glynn kernel.
    """
    rows = _square(m, NAIVE_DIM_LIMIT).tolist()
    total = 0j
    for perm in itertools.permutations(range(len(rows))):
        prod = 1 + 0j
        for i, j in enumerate(perm):
            prod *= rows[i][j]
        total += prod
    return total


@functools.cache
def _orbit_schedule(
    n: int,
) -> tuple[tuple[NDArray[np.int32], NDArray[np.int32], NDArray[np.float64]], ...]:
    """One sign vector per orbit of rotation and negation, for Glynn's sum over a circulant.

    On a circulant the summand is the same over an orbit, of which n / |stabilizer| vectors
    have delta_n = +1; the orbit's smallest x stands for them. The candidates are scanned
    _SCAN at a time, and each rotation drops those it beats before the next one is tried.
    Returns the representatives' half-sum table entries hi and lo (see _half_rows), in
    increasing x, and their signs weighted n / |stabilizer|, as the walk's blocks of _BLOCK
    vectors. It is read-only and cached per n.
    """
    h, full = n // 2, (1 << n) - 1
    sign = _half_rows(n)[1]
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
        hi, lo = (x >> h) + (1 << h), x & ((1 << h) - 1)
        found.append((hi.astype(np.int32), lo.astype(np.int32), sign[hi] * sign[lo] * (n / stab)))
    hi, lo, weights = (np.concatenate(parts) for parts in zip(*found))
    for part in (hi, lo, weights):
        part.setflags(write=False)
    return tuple((hi[s:s + _BLOCK], lo[s:s + _BLOCK], weights[s:s + _BLOCK])
                 for s in range(0, len(hi), _BLOCK))


@functools.cache
def _half_rows(
    n: int,
) -> tuple[NDArray[np.complex128], NDArray[np.float64], NDArray[np.float64], NDArray[np.float64]]:
    """The walk's half-sum table for size n, and the signs of a general matrix's first block.

    A sign vector's row sums split at column h = n // 2 into a low half (the columns below
    h) and a high half (the rest; column n - 1 keeps +1). The table holds every choice of
    signs of each half, low entries first, so one entry of each added gives any vector's
    row sums. Returns table, sign, signs and -signs:
    - table is the (n, 2^h + 2^(n-1-h)) matrix whose column e holds delta_j on each column
      j of A that entry e picks and 0 elsewhere, so A @ table is every entry's half sum;
    - sign[e] is the product of the delta_j entry e picks, times Glynn's 2^(1-n) for a low
      entry, so sign[hi] * sign[lo] is a vector's 2^(1-n) prod_k delta_k;
    - signs are those of x = 0 .. B - 1 (bit j of x set means delta_j = -1), B the lesser of
      _BLOCK and 2^(n-1), whose entries are hi = 2^h + (x >> h) and lo = x mod 2^h.
    The block x = s .. s + B - 1, s a multiple of B, has the signs of x - s, negated when
    popcount(s) is odd: as B is a power of two, s and x - s share no set bit. Its entries are
    consecutive: B >> h high ones from that of s, each against all 2^h low ones, or, where
    B <= 2^h, the high entry of s against B low ones from s mod 2^h, so its row sums are two
    slices of the half sums added. It depends on n alone, so it is read-only and cached. The
    table is complex, as numpy would otherwise cast it for every product: 22.5 MiB at n = 30.
    """
    h = n // 2
    bits = (np.arange(1 << h)[:, None] >> np.arange(h)) & 1
    free = bits[:1 << (n - 1 - h), :n - 1 - h]
    table = np.zeros((n, (1 << h) + len(free)), dtype=np.complex128)
    table[:h, :1 << h] = 1 - 2 * bits.T
    table[h:n - 1, 1 << h:] = 1 - 2 * free.T
    table[n - 1, 1 << h:] = 1
    picked = np.where(bits.sum(axis=1) & 1, -1.0, 1.0)  # a high entry's bits are its index's
    sign = np.concatenate([picked * math.ldexp(1.0, 1 - n), picked[:len(free)]])
    x = np.arange(min(_BLOCK, 1 << (n - 1)))
    signs = sign[(x >> h) + (1 << h)] * sign[x & ((1 << h) - 1)]
    parts = table, sign, signs, -signs
    for part in parts:
        part.setflags(write=False)
    return parts


def _add_terms(
    total: complex | NDArray[np.complex128],
    sums: NDArray[np.complex128],
    signs: NDArray[np.float64],
    k: int,
    n: int,
) -> np.complex128 | NDArray[np.complex128]:
    """total plus Glynn's terms for a block of row sums, one column of sums per sign vector:
    each the product of its n row sums times its sign, added in order. For k > 1 the row
    sums are polynomials in t, multiplied by a truncated product rule."""
    if k == 1:
        # row by row, each a binary complex multiply along the block
        terms = np.multiply.reduce(sums, axis=0)
        terms *= signs  # 2^(1-n) prod_k delta_k, times an orbit's weight
    else:
        s = sums.reshape(k, n, -1).swapaxes(0, 1)  # s[i, m]: row sum i's t^m coefficients
        p = s[0] * signs
        for i in range(1, n):
            for m in range(k - 1, -1, -1):  # lower orders are still the old ones
                p[m] *= s[i, 0]
                for j in range(m):
                    p[m] += p[j] * s[i, m - j]
        terms = p.T
    terms[0] += total
    return np.add.accumulate(terms)[-1]


def _is_circulant(a: NDArray[np.complex128]) -> bool:
    """Whether every matrix in the (k, n, n) stack a, n >= 2, is circulant bit for bit:
    A[i, j] is A[0, (j - i) mod n]."""
    return bool(
        a[0, 1, 1] == a[0, 0, 0]  # one entry first: most other matrices fail here
        and a.tobytes() == a[:, 0].take(_rotations(a.shape[-1]), axis=-1).tobytes()
    )


@np.errstate(over="ignore", invalid="ignore")
def _walk(a: NDArray[np.complex128]) -> np.complex128 | NDArray[np.complex128]:
    """Per(A_0 + t A_1 + ... + t^(k-1) A_(k-1)) to order t^(k-1) for the (k, n, n) stack a,
    as k coefficients (a scalar for k = 1). An overflowing Per comes back inf or nan.

    Glynn's sum takes one sign vector per rotation orbit if every A_m is circulant, and all
    2^(n-1) otherwise. Each one's row sums are one entry of each half of the half-sum table
    added: one add per row sum, nothing carried from one vector to the next. Its callers
    check that 1 <= n <= RYSER_DIM_LIMIT and pass a C-order complex stack.
    """
    k, n, _ = a.shape
    table, _, signs, negated = _half_rows(n)
    halves = a.reshape(k * n, n) @ table  # every entry's half sum, per row
    total = 0j
    if n > 1 and _is_circulant(a):
        for high, low, weights in _orbit_schedule(n):
            sums = halves.take(high, axis=1)  # (k n, block): a sign vector's row sums per column
            sums += halves.take(low, axis=1)
            total = _add_terms(total, sums, weights, k, n)
        return total
    h = n // 2
    rows, cols = max(1, len(signs) >> h), min(1 << h, len(signs))  # a block's entries, per half
    # later blocks write into the first one's array: a fresh result of 256 KiB or more per
    # block is mapped and faulted in anew by the allocator, which doubled the walk at n = 16
    sums = None
    for start in range(0, 1 << (n - 1), len(signs)):
        high, low = (1 << h) + (start >> h), start & ((1 << h) - 1)
        sums = np.add(halves[:, high:high + rows, None], halves[:, None, low:low + cols], out=sums)
        total = _add_terms(total, sums.reshape(k * n, -1),
                           negated if start.bit_count() & 1 else signs, k, n)
    return total


def permanent_ryser(m: NDArray[np.complex128]) -> complex:
    """Permanent via Glynn's formula (Balasubramanian-Bax-Franklin-Glynn).

    Per(A) = 2^(1-n) sum over sign vectors delta in {+1, -1}^n with
    delta_n = +1 of (prod_k delta_k) prod_i sum_j delta_j A[i,j]; the empty
    permanent is 1. The sum is _walk's for k = 1, over one sign vector per
    orbit for a circulant; the name is Ryser's, whose formula this kernel
    evaluated before (see the module note).
    """
    a = _square(m, RYSER_DIM_LIMIT)
    return complex(_walk(a[None])) if len(a) else 1 + 0j


def permanent_with_repeats(
    m: NDArray[np.complex128], col_multiplicities: list[int] | tuple[int, ...]
) -> complex:
    """Permanent of the matrix with column k repeated col_multiplicities[k] times.

    Multiplicities are non-negative integers summing to the dimension, never bools;
    all-ones reduces to permanent_ryser on the original matrix.
    """
    n = len(a := _square(m, RYSER_DIM_LIMIT))
    try:
        mult = list(col_multiplicities)  # read once: a one-shot iterator has no second pass
        if bool in map(type, mult):  # operator.index takes a Python bool
            raise TypeError
        mult = list(map(operator.index, mult))
    except TypeError:  # not a sequence, a float, a string or a bool
        mult = None
    if mult is None or len(mult) != n or min(mult, default=0) < 0:
        raise ValueError(f"multiplicities must be {n} non-negative integers")
    total = sum(mult)
    if total != n:
        raise ValueError(f"multiplicities sum to {total}, expected {n}")
    return permanent_ryser(np.repeat(a, mult, axis=1))
