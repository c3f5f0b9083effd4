"""Permanent kernels against the permutation-expansion oracle."""

import cmath
import functools
import itertools
import math
import operator
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qufti import (
    InterferometerSpec,
    SizeLimitError,
    compose_qufti,
    conjecture_verify,
    permanent_naive,
    permanent_ryser,
    permanent_with_repeats,
)
from qufti import permanent
from qufti.permanent import _half_rows, _orbit_schedule, _walk


def random_unit_disk_matrix(rng, n):
    radii = np.sqrt(rng.uniform(0, 1, (n, n)))
    angles = rng.uniform(0, 2 * np.pi, (n, n))
    return radii * np.exp(1j * angles)


def test_naive_identity():
    assert abs(permanent_naive(np.eye(3)) - 1) < 1e-15


def test_naive_all_ones_is_factorial():
    assert abs(permanent_naive(np.ones((3, 3))) - 6) < 1e-12


def test_naive_2x2_definition():
    m = np.array([[1 + 2j, 3 - 1j], [0.5j, 2.0]])
    expected = m[0, 0] * m[1, 1] + m[0, 1] * m[1, 0]
    assert abs(permanent_naive(m) - expected) < 1e-14


def test_naive_size_guard():
    with pytest.raises(SizeLimitError):
        permanent_naive(np.eye(11))


def test_ryser_identity_8():
    assert abs(permanent_ryser(np.eye(8)) - 1) < 1e-12


def test_ryser_size_guard():
    with pytest.raises(SizeLimitError):
        permanent_ryser(np.eye(31))


def test_ryser_rejects_nonsquare():
    with pytest.raises(ValueError):
        permanent_ryser(np.ones((2, 3)))


def test_ryser_matches_naive_random_6x6():
    rng = np.random.default_rng(7)
    m = random_unit_disk_matrix(rng, 6)
    assert abs(permanent_ryser(m) - permanent_naive(m)) < 1e-11


def test_ryser_qufti_n2_paper_value():
    u = compose_qufti(InterferometerSpec(n=2, phi=0.4))
    expected = np.exp(0.4j) * np.cos(0.4)
    assert abs(permanent_ryser(u) - expected) < 1e-12


def test_oracle_equivalence_200_matrices():
    rng = np.random.default_rng(123)
    for _ in range(200):
        n = int(rng.integers(2, 9))
        m = random_unit_disk_matrix(rng, n)
        assert abs(permanent_ryser(m) - permanent_naive(m)) < 1e-11


@pytest.mark.parametrize("n,phi", [(2, 0.3), (4, 1.2), (6, -0.7), (8, 2.9)])
def test_unitary_permanent_modulus_bound(n, phi):
    u = compose_qufti(InterferometerSpec(n=n, phi=phi))
    assert abs(permanent_ryser(u)) <= 1 + 1e-10


@given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=2**31))
@settings(max_examples=40, deadline=None)
def test_permutation_invariance(n, seed):
    rng = np.random.default_rng(seed)
    m = random_unit_disk_matrix(rng, n)
    base = permanent_ryser(m)
    rows = rng.permutation(n)
    cols = rng.permutation(n)
    assert abs(permanent_ryser(m[rows, :]) - base) < 1e-11
    assert abs(permanent_ryser(m[:, cols]) - base) < 1e-11


@given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=2**31))
@settings(max_examples=40, deadline=None)
def test_conjugation_consistency(n, seed):
    rng = np.random.default_rng(seed)
    m = random_unit_disk_matrix(rng, n)
    assert abs(permanent_ryser(np.conj(m)) - np.conj(permanent_ryser(m))) < 1e-12


def test_empty_permanent_is_one():
    empty = np.zeros((0, 0), dtype=np.complex128)
    assert permanent_naive(empty) == permanent_ryser(empty) == permanent_with_repeats(empty, []) == 1


def test_overflowing_permanent_is_non_finite_without_warning():
    # pytest turns a leaked RuntimeWarning into an error; both schedules, and the oracle
    rng = np.random.default_rng(0)
    for m in (1e160 * rng.normal(size=(3, 3)), 1e160 * random_circulant(rng, 4)):
        assert not cmath.isfinite(permanent_ryser(m))
        assert not cmath.isfinite(permanent_naive(m))


def equal_entries(n, squares):
    """The n x n matrix of equal entries x (1 + i) whose squared moduli sum to squares: its
    row sums, all n x (1 + i) for delta = +1, are the largest the sum allows."""
    return np.full((n, n), math.sqrt(squares / 2) / n * (1 + 1j))


def largest_safe_squares(n):
    """The largest sum of squared moduli S^2 of an n x n matrix at which no step of the walk
    can reach 2^1020: a half sum or row sum is at most n S, a product of n row sums at most
    2^(n+1) (n S)^n, and the running total n times that."""
    return 2.0 ** min(2 * ((1019 - n - math.log2(n)) / n - math.log2(n)), 1023)


@pytest.mark.parametrize("n", [2, 7, 12])
def test_walk_at_the_largest_safe_scale_keeps_step_loop_bits(n):
    # entries scaled so the walk's intermediates come near the float maximum: the error
    # state costs no bit, and pytest turns a leaked overflow warning into an error
    rng = np.random.default_rng(n)
    top = largest_safe_squares(n) * (1 - 1e-12)
    phases = np.exp(1j * rng.uniform(0, 2 * np.pi, (n, n)))
    for m, vectors in ((equal_entries(n, top), orbit_representatives(n)),
                       (np.sqrt(top / n**2) * phases, every_sign_vector(n))):
        value = permanent_ryser(m)
        assert cmath.isfinite(value) and value == glynn_step_loop(m, vectors)


def test_walk_on_non_finite_or_huge_entries_is_non_finite_without_warning():
    # inf and nan entries, entries near the float maximum (whose |z| overflows), and a k = 3
    # stack all come back inf or nan
    rng = np.random.default_rng(1)
    inf, nan = random_unit_disk_matrix(rng, 4), random_unit_disk_matrix(rng, 5)
    inf[1, 2], nan[3, 0] = np.inf, complex(0.5, np.nan)
    huge = 1.7e308 * np.sign(rng.normal(size=(6, 6))) * (1 + 1j)
    for m in (inf, nan, huge, circulant(huge[0])):
        assert not cmath.isfinite(permanent_ryser(m))
    stack = 1e160 * rng.normal(size=(3, 4, 4))
    assert not np.isfinite(_walk(stack)).all()


def test_ryser_bit_reproducible():
    rng = np.random.default_rng(5)
    m = random_unit_disk_matrix(rng, 7)
    assert permanent_ryser(m) == permanent_ryser(m.copy())


def every_sign_vector(n):
    """Glynn's sum over a general matrix: every x < 2^(n-1) in increasing order, weight 1."""
    return [(x, 1) for x in range(1 << (n - 1))]


def kernel_product(row_sums):
    """The product of one vector's row sums as the kernel takes it: numpy's binary complex
    multiply, one row sum at a time (with FMA where the CPU's SIMD loop uses it)."""
    return functools.reduce(np.multiply, row_sums[:, None])[0]


def glynn_step_loop(m, vectors, product=kernel_product):
    """Bit reference: Glynn's sum over the given (x, weight) list, one sign vector at a time.

    Bit j of x set means delta_j = -1. Each vector's row sums add two halves: its signed
    columns below n // 2 (after a zero for odd n) and the rest, column by column, in the
    kernel's order. product multiplies the n row sums.
    """
    n = m.shape[0]
    a = np.ascontiguousarray(m, dtype=np.complex128)
    h = n // 2
    total = 0j
    for x, weight in vectors:
        signed = [-a[:, j] if x >> j & 1 else a[:, j] for j in range(n)]
        low = functools.reduce(operator.add, [np.zeros(n, dtype=complex)] * (n % 2) + signed[:h])
        high = functools.reduce(operator.add, signed[h:])
        sign = -1.0 if bin(x).count("1") % 2 else 1.0
        total += complex(product(high + low)) * (sign * weight * math.ldexp(1.0, 1 - n))
    return total


def ryser_step_loop(m):
    """Independent oracle: Ryser's inclusion-exclusion walk, one step at a time."""
    n = m.shape[0]
    a = np.ascontiguousarray(m, dtype=np.complex128)
    row_sums = np.zeros(n, dtype=np.complex128)
    total = 0j
    sign = 1
    gray = 0
    for step in range(1, 1 << n):
        new_gray = step ^ (step >> 1)
        flipped = (gray ^ new_gray).bit_length() - 1
        if new_gray & (1 << flipped):
            row_sums += a[:, flipped]
        else:
            row_sums -= a[:, flipped]
        sign = -sign
        gray = new_gray
        total += sign * complex(np.prod(row_sums))
    return -total if n % 2 else total


def assert_matches_ryser(value, m):
    assert cmath.isclose(value, ryser_step_loop(m), rel_tol=1e-12)


@pytest.mark.parametrize("n", range(1, 14))
def test_ryser_bit_identical_to_step_loop(n):
    # n = 12 and 13 sum 2 and 4 blocks of sign vectors, so the block boundaries count
    rng = np.random.default_rng(1000 + n)
    m = random_unit_disk_matrix(rng, n)
    value = permanent_ryser(m)
    assert value == glynn_step_loop(m, every_sign_vector(n))
    assert_matches_ryser(value, m)


WITHOUT_FMA_CHECK = """
import sys
import numpy as np
sys.path[:0] = sys.argv[1:]
from qufti import permanent_ryser
from test_permanent import (every_sign_vector, glynn_step_loop, orbit_representatives,
                            random_circulant, random_unit_disk_matrix)
rng = np.random.default_rng(9000)
checks = [(random_unit_disk_matrix(rng, 7), every_sign_vector(7)),
          (random_circulant(rng, 12), orbit_representatives(12))]
for n in range(1, 14):  # the matrices of test_ryser_bit_identical_to_step_loop
    checks.append((random_unit_disk_matrix(np.random.default_rng(1000 + n), n),
                   every_sign_vector(n)))
for m, vectors in checks:
    assert permanent_ryser(m) == glynn_step_loop(m, vectors, product=np.prod), len(m)
"""


def numpy_baseline():
    """The CPU features numpy's build assumes, by numpy's names: X86_V2 on x86-64 from numpy
    2.4 on, which earlier numpy and other CPUs do not name."""
    try:
        from numpy._core._multiarray_umath import __cpu_baseline__
    except ImportError:
        return []
    return __cpu_baseline__


@pytest.mark.skipif("X86_V2" not in numpy_baseline(),
                    reason="needs numpy >= 2.4 on x86-64, whose baseline dispatch is X86_V2")
def test_kernel_gives_prod_bits_under_baseline_dispatch():
    # numpy's X86_V2 loops have no FMA, so the binary complex multiply rounds as np.prod's
    # reduce loop does: a general n = 7 matrix, a circulant n = 12 one and the general
    # n = 1..13 matrices that test_ryser_bit_identical_to_step_loop pins get those bits
    here = Path(__file__).resolve().parent
    env = {**os.environ, "NPY_ENABLE_CPU_FEATURES": "X86_V2"}
    subprocess.run([sys.executable, "-c", WITHOUT_FMA_CHECK, str(here), str(here.parent / "src")],
                   env=env, check=True)


def circulant(first):
    """The circulants whose row 0 is first[..., :]: entry [i, j] is first[(j - i) mod n]."""
    n = first.shape[-1]
    return first[..., (np.arange(n) - np.arange(n)[:, None]) % n]


def random_circulant(rng, n):
    return circulant(random_unit_disk_matrix(rng, n)[0])


def orbit_representatives(n):
    """Brute force: the smallest sign vector of each orbit under rotation and negation (bit j
    set: delta_j = -1), in increasing order, with its weight n / |stabilizer|."""
    full = (1 << n) - 1
    reps = []
    for x in range(1 << (n - 1)):
        images = [((x << r) | (x >> (n - r))) & full for r in range(n)]
        images += [y ^ full for y in images]
        if x == min(images):
            assert n % images.count(x) == 0
            reps.append((x, n // images.count(x)))
    return reps


@pytest.mark.parametrize("n", range(2, 13))
def test_orbit_representatives_cover_each_sign_vector_once(n):
    # every delta with delta_n = +1 lies in exactly one orbit, and each representative's
    # weight counts its orbit's vectors with delta_n = +1
    full = (1 << n) - 1
    reps = orbit_representatives(n)
    owner = {}
    for x, weight in reps:
        orbit = {((x << r) | (x >> (n - r))) & full for r in range(n)}
        orbit |= {y ^ full for y in orbit}
        half = [y for y in orbit if y < 1 << (n - 1)]
        assert len(half) == weight
        for y in half:
            assert owner.setdefault(y, x) == x
    assert sorted(owner) == list(range(1 << (n - 1)))
    assert sum(weight for _, weight in reps) == 1 << (n - 1)
    # the cached orbit schedule holds the same representatives, weights and signs, in blocks
    h = n // 2
    blocks = _orbit_schedule(n)
    assert [len(block[0]) for block in blocks[:-1]] == [permanent._BLOCK] * (len(blocks) - 1)
    hi, lo, signs = map(np.concatenate, zip(*blocks))
    assert ((hi - (1 << h)) << h | lo).tolist() == [x for x, _ in reps]
    assert signs.tolist() == [(-1) ** bin(x).count("1") * w * 2.0 ** (1 - n) for x, w in reps]
    # and a general matrix's first-block signs, tiled over its blocks, every x < 2^(n-1) once,
    # in increasing order, with weight 1
    parts = _half_rows(n)
    table, sign, plus, minus = parts
    assert table.shape == (n, (1 << h) + (1 << (n - 1 - h)))
    assert set(table.ravel().tolist()) <= {-1, 0, 1}
    for e, column in enumerate(table.T.tolist()):
        # a low entry e picks the columns below h, a high one 2^h + f the rest; bit j of e or
        # f set means delta = -1, and column n - 1 keeps +1
        picked = range(h) if e < 1 << h else range(h, n)
        bits = e if e < 1 << h else e - (1 << h)
        assert column == [(-1 if bits >> (j - picked[0]) & 1 else 1) if j in picked else 0
                          for j in range(n)]
        glynn = 2.0 ** (1 - n) if e < 1 << h else 1.0
        assert sign[e] == math.prod(column[j] for j in picked) * glynn
    tiled = []
    for start in range(0, 1 << (n - 1), len(plus)):
        tiled += (minus if bin(start).count("1") % 2 else plus).tolist()
    assert tiled == [(-1) ** bin(x).count("1") * 2.0 ** (1 - n) for x in range(1 << (n - 1))]
    assert not any(part.flags.writeable for part in [*parts, *itertools.chain(*blocks)])


@pytest.mark.parametrize("n", range(2, 15))
def test_orbit_path_matches_every_sign_vector_on_random_circulants(n):
    # the orbit sum against the step loop over every sign vector, and over the representatives
    rng = np.random.default_rng(6000 + n)
    m = random_circulant(rng, n)
    value = permanent_ryser(m)
    assert cmath.isclose(value, glynn_step_loop(m, every_sign_vector(n)), rel_tol=1e-12)
    if n < 14:
        assert value == glynn_step_loop(m, orbit_representatives(n))


def test_ryser_bit_identical_to_step_loop_verify_grid():
    # compose_qufti's U is circulant, so the orbit sum's step loop is the reference
    for phi in np.linspace(0.0, 2 * np.pi, 64, endpoint=False):
        u = compose_qufti(InterferometerSpec(n=12, phi=float(phi)))
        assert permanent_ryser(u) == glynn_step_loop(u, orbit_representatives(12))


@pytest.mark.parametrize("n", [3, 4, 7, 12])
def test_constant_diagonal_non_circulant_keeps_plain_schedule_bits(n):
    # the one-entry probe passes, the full test does not: the bits of every sign vector
    rng = np.random.default_rng(7000 + n)
    for m in (random_unit_disk_matrix(rng, n), random_circulant(rng, n)):
        m[1, 2] += 0.5  # breaks one diagonal
        np.fill_diagonal(m, 0.3 - 0.2j)
        assert permanent_ryser(m) == glynn_step_loop(m, every_sign_vector(n))
    # Toeplitz: every diagonal constant, but they do not wrap around
    t = random_unit_disk_matrix(rng, 2 * n - 1)[0]
    toeplitz = t[np.arange(n) - np.arange(n)[:, None] + n - 1]
    assert permanent_ryser(toeplitz) == glynn_step_loop(toeplitz, every_sign_vector(n))


@pytest.mark.parametrize("n", range(1, 14))
def test_ryser_cached_blocks_bit_identical_to_step_loop(n):
    # the half-sum table's rows and signs and the first block of sign vectors are cached per
    # n: a cold call, and warm calls after walks of other sizes, give the step loop's bits
    # (eye, ones and zeros are circulant, and their sums exact under either list of vectors)
    rng = np.random.default_rng(2000 + n)
    mats = [random_unit_disk_matrix(rng, n), np.eye(n), np.ones((n, n)), np.zeros((n, n))]
    expected = [glynn_step_loop(m, every_sign_vector(n)) for m in mats]
    _half_rows.cache_clear()
    assert [permanent_ryser(m) for m in mats] == expected
    for other in (2, 7, 12):
        permanent_ryser(random_unit_disk_matrix(rng, other))
    assert [permanent_ryser(m) for m in mats] == expected
    for value, m in zip(expected, mats):
        assert_matches_ryser(value, m)


@pytest.mark.parametrize("block", [2, 4, 8])
def test_small_blocks_keep_step_loop_bits(block, monkeypatch):
    # blocks of 2, 4 or 8 sign vectors: a general matrix's blocks start at odd-parity x and,
    # from n = 2 log2(block) + 2 on, lie within one high half-sum entry, most at a nonzero
    # low offset (the shape of the default 1024 from n = 22 on); the caches are rebuilt
    # either side
    rng = np.random.default_rng(8000 + block)
    monkeypatch.setattr(permanent, "_BLOCK", block)
    _half_rows.cache_clear()
    _orbit_schedule.cache_clear()
    try:
        for n in range(1, 14):
            m, c = random_unit_disk_matrix(rng, n), random_circulant(rng, n)
            assert permanent_ryser(m) == glynn_step_loop(m, every_sign_vector(n))
            assert permanent_ryser(c) == glynn_step_loop(c, orbit_representatives(n))
    finally:
        _half_rows.cache_clear()
        _orbit_schedule.cache_clear()


def test_repeated_verify_rebuilds_no_cached_schedule():
    # verify walks n = 2..12 in turn; the per-n caches hold every size the guard admits
    conjecture_verify(12, 4)
    misses = _half_rows.cache_info().misses, _orbit_schedule.cache_info().misses
    conjecture_verify(12, 4)
    assert (_half_rows.cache_info().misses, _orbit_schedule.cache_info().misses) == misses


@pytest.mark.parametrize("n", [4, 7, 8, 9, 12, 13])
def test_ryser_bits_independent_of_memory_layout(n):
    # a Fortran-order, transposed or strided matrix gives the bits of its C-order copy
    rng = np.random.default_rng(3000 + n)
    for _ in range(20):
        m = random_unit_disk_matrix(rng, n)
        expected = glynn_step_loop(m, every_sign_vector(n))
        assert permanent_ryser(m) == expected
        wide = np.empty((n, 2 * n), dtype=np.complex128)
        wide[:, ::2] = m
        for view in (np.asfortranarray(m), np.ascontiguousarray(m.T).T, wide[:, ::2]):
            assert permanent_ryser(view) == expected


def hex_parts(z):
    return float(z.real).hex(), float(z.imag).hex()


def column_order_half_sums(a, table):
    """Bit reference for the half-sum table's product: each row's entries times the table's
    column, added one column of A at a time, in order, to a zero start."""
    sums = np.zeros((a.shape[0], table.shape[1]), dtype=np.complex128)
    for j in range(a.shape[1]):
        sums = sums + a[:, j, None] * table[j]
    return sums


@pytest.mark.parametrize("n", range(1, 23))
def test_half_sum_product_bit_identical_to_column_order_sums(n):
    # one BLAS product gives the sequential half sums: every product by +-1 or 0 is exact, so
    # only the order of the adds could move a bit. Every term is added to a +0 total, so the
    # sign of a zero half sum never reaches Per, and it follows the BLAS kernel (OpenBLAS's
    # SkylakeX kernel gives -0.0 at n = 2 and 4): zeros compare as +0.0
    rng = np.random.default_rng(4000 + n)
    table = _half_rows(n)[0]
    for k in (1, 3):
        a = np.stack([random_unit_disk_matrix(rng, n) for _ in range(k)])  # the walk's stack
        a.real[rng.random(a.shape) < 0.3] = -0.0
        a.imag[rng.random(a.shape) < 0.3] = -0.0
        a[rng.random(a.shape) < 0.1] = -0.0
        product = a.reshape(k * n, n) @ table + 0.0
        expected = column_order_half_sums(a.reshape(k * n, n), table) + 0.0
        assert list(map(hex_parts, product.ravel())) == list(map(hex_parts, expected.ravel()))


@pytest.mark.parametrize("n", range(1, 14))
def test_ryser_bit_signs_of_zero_match_step_loop(n):
    # == takes -0.0 for 0.0; float.hex does not, so this pins the zero signs as well
    rng = np.random.default_rng(5000 + n)
    real = rng.normal(size=(n, n))
    real[rng.random((n, n)) < 0.4] = -0.0
    cplx = random_unit_disk_matrix(rng, n)
    cplx.real[rng.random((n, n)) < 0.3] = -0.0
    cplx.imag[rng.random((n, n)) < 0.3] = -0.0
    circulants = (-np.eye(n), -1j * np.eye(n), -0.0 * np.ones((n, n)))
    for mats, vectors in (((real, cplx), every_sign_vector(n)),
                          (circulants, orbit_representatives(n))):
        for m in mats:
            assert hex_parts(permanent_ryser(m)) == hex_parts(glynn_step_loop(m, vectors))


def assert_product_form_in_mpmath(n, phis, tol):
    # the gradient permanent n^(1-n) prod_j (j e^{i n phi} + n - j) in 40 digits
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        for phi in phis:
            z = mpmath.expj(n * mpmath.mpf(phi))
            exact = mpmath.mpf(n) ** (1 - n) * mpmath.fprod(j * z + n - j for j in range(1, n))
            value = permanent_ryser(compose_qufti(InterferometerSpec(n=n, phi=phi)))
            assert abs(mpmath.mpc(value) - exact) < tol, phi


@pytest.mark.parametrize("n", [14, 16, 18, 20])
def test_ryser_against_product_form_in_mpmath(n):
    assert_product_form_in_mpmath(n, (0.3, 1.1, 2.5), 1e-14)


def test_ryser_near_zero_phase_against_product_form_in_mpmath():
    # U is nearly the identity here; row sums carried from step to step drifted to 3.7e-12
    assert_product_form_in_mpmath(20, (0.0025, 0.01), 1e-13)


def glynn_in_mpmath(m, mpmath):
    """Glynn's sum for m in 40 digits, walking the sign vectors in Gray-code order."""
    n = m.shape[0]
    with mpmath.workdps(40):
        cols = [[mpmath.mpc(complex(m[i, j])) for i in range(n)] for j in range(n)]
        sums = [mpmath.fsum(row) for row in zip(*cols)]  # every delta_j = +1
        total = mpmath.fprod(sums)
        gray = 0
        for step in range(1, 1 << (n - 1)):
            flipped = (step & -step).bit_length() - 1
            gray ^= 1 << flipped
            turn = -2 if gray >> flipped & 1 else 2
            sums = [s + turn * c for s, c in zip(sums, cols[flipped])]
            term = mpmath.fprod(sums)
            total += -term if bin(gray).count("1") % 2 else term
        return total / 2 ** (n - 1)


def test_ryser_general_matrices_against_glynn_in_mpmath():
    # eight seeded n = 12 matrices: the median relative error is 1.5e-15; a walk that
    # carried its row sums from step to step gave 8.8e-15
    mpmath = pytest.importorskip("mpmath")
    errors = []
    for seed in range(8):
        m = random_unit_disk_matrix(np.random.default_rng(seed), 12)
        exact = glynn_in_mpmath(m, mpmath)
        with mpmath.workdps(40):
            errors.append(float(abs(mpmath.mpc(permanent_ryser(m)) - exact) / abs(exact)))
    assert np.median(errors) < 5e-15, errors


@pytest.mark.parametrize("n", range(1, 7))
def test_walk_jet_matches_permutation_sum_of_truncated_polynomials(n, monkeypatch):
    # Per(A0 + t A1 + t^2 A2) to order t^2: each permutation's product of entry polynomials.
    # Blocks of 2, 4 or 8 sign vectors split the walk of a general stack, with the default's
    # bits: a block spans a slice of low half-sum entries under one high one (n = 6 at 8), or
    # several high ones against all the low ones (n = 4 and 5 at 8, every n >= 3 at 1024);
    # the caches are rebuilt either side
    rng = np.random.default_rng(40 + n)
    jet = rng.normal(size=(3, n, n)) + 1j * rng.normal(size=(3, n, n))
    expected = np.zeros(3, dtype=complex)
    for perm in itertools.permutations(range(n)):
        poly = np.array([1.0 + 0j])
        for i, j in enumerate(perm):
            poly = np.polynomial.polynomial.polymul(poly, jet[:, i, j])[:3]
        expected += poly
    try:
        walks = []
        for block in (1024, 2, 4, 8):
            monkeypatch.setattr(permanent, "_BLOCK", block)
            _half_rows.cache_clear()
            _orbit_schedule.cache_clear()
            got = _walk(jet)
            np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)
            assert got[0] == pytest.approx(permanent_ryser(jet[0]), rel=1e-14, abs=1e-14)
            walks.append(list(map(hex_parts, got)))
        assert walks[1:] == walks[:1] * 3
    finally:
        _half_rows.cache_clear()
        _orbit_schedule.cache_clear()


@pytest.mark.parametrize("n", range(2, 7))
def test_walk_jet_of_circulants_matches_permutation_sum(n):
    # a stack of circulants takes the orbit sum, against the same permutation sum
    rng = np.random.default_rng(50 + n)
    jet = circulant(rng.normal(size=(3, n)) + 1j * rng.normal(size=(3, n)))
    expected = np.zeros(3, dtype=complex)
    for perm in itertools.permutations(range(n)):
        poly = np.array([1.0 + 0j])
        for i, j in enumerate(perm):
            poly = np.polynomial.polynomial.polymul(poly, jet[:, i, j])[:3]
        expected += poly
    got = _walk(jet)
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)
    assert got[0] == pytest.approx(permanent_ryser(jet[0]), rel=1e-14, abs=1e-14)


def test_with_repeats_all_ones_multiplicity():
    rng = np.random.default_rng(11)
    m = random_unit_disk_matrix(rng, 5)
    assert permanent_with_repeats(m, [1] * 5) == permanent_ryser(m)


@pytest.mark.parametrize("n", range(1, 7))
def test_with_repeats_bits_of_taken_columns(n):
    # every outcome's multiplicities, in C and Fortran order: the bits of the
    # kernel on the matrix with the repeated columns taken one by one
    rng = np.random.default_rng(4000 + n)
    m = random_unit_disk_matrix(rng, n)
    for placement in itertools.combinations_with_replacement(range(n), n):
        mult = [placement.count(k) for k in range(n)]
        cols = [k for k, s in enumerate(mult) for _ in range(s)]
        expected = permanent_ryser(np.ascontiguousarray(m).take(cols, axis=1))
        assert permanent_with_repeats(m, mult) == expected
        assert permanent_with_repeats(np.asfortranarray(m), mult) == expected


def test_with_repeats_zero_row():
    assert abs(permanent_with_repeats(np.eye(2), [2, 0])) < 1e-15


def test_with_repeats_hadamard_like():
    m = np.full((2, 2), 1 / math.sqrt(2))
    # Per([[h, h], [h, h]]) with h = 1/sqrt(2) is 2 h^2 = 1
    assert abs(permanent_with_repeats(m, [2, 0]) - 1.0) < 1e-14


def test_with_repeats_sum_mismatch():
    with pytest.raises(ValueError):
        permanent_with_repeats(np.eye(3), [2, 0, 0])


def test_with_repeats_matches_naive_expansion():
    rng = np.random.default_rng(42)
    m = random_unit_disk_matrix(rng, 4)
    mult = [2, 0, 1, 1]
    cols = [0, 0, 2, 3]
    assert abs(permanent_with_repeats(m, mult) - permanent_naive(m[:, cols])) < 1e-12


def test_kernels_accept_nested_lists():
    # a nested list gives the bits of the same matrix as an array
    rows = [[1 + 2j, 3 - 1j, 0.5], [0.5j, 2.0, -1.0], [1.0, 1j, 2 - 1j]]
    m = np.array(rows)
    assert permanent_ryser(rows) == permanent_ryser(m)
    assert permanent_naive(rows) == permanent_naive(m)
    assert permanent_with_repeats(rows, [2, 0, 1]) == permanent_with_repeats(m, [2, 0, 1])
    assert permanent_ryser([[1, 2], [3, 4]]) == permanent_naive([[1, 2], [3, 4]]) == 10
    assert permanent_with_repeats(np.eye(2), np.array([1, 1])) == 1  # numpy integers count
    assert permanent_with_repeats(np.eye(2), [1, np.uint8(1)]) == 1  # of any width
    with pytest.raises(ValueError, match="must be square"):
        permanent_ryser([[1, 2, 3], [4, 5, 6]])


@pytest.mark.parametrize("mult", [[1.0, 1.0], [1.5, 0.5], ["1", "1"], [-1, 3],
                                  [np.float64(1.0), 1], [np.True_, 1], [True, 1], (True, True)])
def test_with_repeats_rejects_non_integer_multiplicities(mult):
    with pytest.raises(ValueError, match="non-negative integers"):
        permanent_with_repeats(np.eye(2), mult)


def test_with_repeats_reads_a_one_shot_iterator_once():
    # the bool check read the iterator after operator.index had used it up, so
    # iter([True, True]) passed and gave Per(I) = 1
    for mult in (iter([True, True]), (b for b in (True, True)), iter([True, 1]), 5, None):
        with pytest.raises(ValueError) as exc:
            permanent_with_repeats(np.eye(2), mult)
        assert str(exc.value) == "multiplicities must be 2 non-negative integers"
    assert permanent_with_repeats(np.eye(2), iter([1, 1])) == 1
    assert permanent_with_repeats(np.eye(2), (k for k in (2, 0))) == 0
