"""Permanent kernels against the permutation-expansion oracle."""

import cmath
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qufti import (
    InterferometerSpec,
    SizeLimitError,
    compose_qufti,
    permanent_naive,
    permanent_ryser,
    permanent_with_repeats,
)
from qufti.permanent import _gray_block, _walk


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


def test_ryser_bit_reproducible():
    rng = np.random.default_rng(5)
    m = random_unit_disk_matrix(rng, 7)
    assert permanent_ryser(m) == permanent_ryser(m.copy())


def glynn_step_loop(m):
    """Bit reference: Glynn's Gray-code walk one step at a time, in the kernel's order."""
    n = m.shape[0]
    a = np.ascontiguousarray(m, dtype=np.complex128)
    row_sums = a.sum(axis=1)  # every sign +1
    total = 0j + complex(np.prod(row_sums))  # step 0, added to a zero total
    sign = 1
    gray = 0
    for step in range(1, 1 << (n - 1)):
        new_gray = step ^ (step >> 1)
        flipped = (gray ^ new_gray).bit_length() - 1
        if new_gray & (1 << flipped):
            row_sums -= 2 * a[:, flipped]
        else:
            row_sums += 2 * a[:, flipped]
        sign = -sign
        gray = new_gray
        total += sign * complex(np.prod(row_sums))
    scale = math.ldexp(1.0, 1 - n)
    return complex(total.real * scale, total.imag * scale)


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
    # n = 12 and 13 walk 2 and 4 blocks, so the carries between blocks count
    rng = np.random.default_rng(1000 + n)
    m = random_unit_disk_matrix(rng, n)
    value = permanent_ryser(m)
    assert value == glynn_step_loop(m)
    assert_matches_ryser(value, m)


def test_ryser_bit_identical_to_step_loop_verify_grid():
    for phi in np.linspace(0.0, 2 * np.pi, 64, endpoint=False):
        u = compose_qufti(InterferometerSpec(n=12, phi=float(phi)))
        assert permanent_ryser(u) == glynn_step_loop(u)


@pytest.mark.parametrize("n", range(1, 14))
def test_ryser_cached_blocks_bit_identical_to_step_loop(n):
    # the walk's Gray-code blocks are cached per (n, start): a cold call, and warm
    # calls after walks of other sizes, give the step loop's bits
    rng = np.random.default_rng(2000 + n)
    mats = [random_unit_disk_matrix(rng, n), np.eye(n), np.ones((n, n)), np.zeros((n, n))]
    expected = [glynn_step_loop(m) for m in mats]
    _gray_block.cache_clear()
    assert [permanent_ryser(m) for m in mats] == expected
    for other in (2, 7, 12):
        permanent_ryser(random_unit_disk_matrix(rng, other))
    assert [permanent_ryser(m) for m in mats] == expected
    for value, m in zip(expected, mats):
        assert_matches_ryser(value, m)


@pytest.mark.parametrize("n", [4, 7, 8, 9, 12, 13])
def test_ryser_bits_independent_of_memory_layout(n):
    # step 0's row sums round differently along a strided axis than a contiguous one
    rng = np.random.default_rng(3000 + n)
    for _ in range(20):
        m = random_unit_disk_matrix(rng, n)
        expected = glynn_step_loop(m)
        assert permanent_ryser(m) == expected
        wide = np.empty((n, 2 * n), dtype=np.complex128)
        wide[:, ::2] = m
        for view in (np.asfortranarray(m), np.ascontiguousarray(m.T).T, wide[:, ::2]):
            assert permanent_ryser(view) == expected


def hex_parts(z):
    return float(z.real).hex(), float(z.imag).hex()


@pytest.mark.parametrize("n", range(1, 14))
def test_ryser_bit_signs_of_zero_match_step_loop(n):
    # == takes -0.0 for 0.0; float.hex does not, so this pins the zero signs as well
    rng = np.random.default_rng(5000 + n)
    real = rng.normal(size=(n, n))
    real[rng.random((n, n)) < 0.4] = -0.0
    cplx = random_unit_disk_matrix(rng, n)
    cplx.real[rng.random((n, n)) < 0.3] = -0.0
    cplx.imag[rng.random((n, n)) < 0.3] = -0.0
    for m in (real, cplx, -np.eye(n), -1j * np.eye(n), -0.0 * np.ones((n, n))):
        assert hex_parts(permanent_ryser(m)) == hex_parts(glynn_step_loop(m))


@pytest.mark.parametrize("n", [14, 16])
def test_ryser_against_product_form_in_mpmath(n):
    # the gradient permanent n^(1-n) prod_j (j e^{i n phi} + n - j) in 40 digits
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        for phi in (0.3, 1.1, 2.5):
            z = mpmath.expj(n * mpmath.mpf(phi))
            exact = mpmath.mpf(n) ** (1 - n) * mpmath.fprod(j * z + n - j for j in range(1, n))
            value = permanent_ryser(compose_qufti(InterferometerSpec(n=n, phi=phi)))
            assert abs(mpmath.mpc(value) - exact) < 1e-13


@pytest.mark.parametrize("n", range(1, 7))
def test_walk_jet_matches_permutation_sum_of_truncated_polynomials(n):
    # Per(A0 + t A1 + t^2 A2) to order t^2: each permutation's product of entry polynomials
    rng = np.random.default_rng(40 + n)
    jet = rng.normal(size=(3, n, n)) + 1j * rng.normal(size=(3, n, n))
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
    with pytest.raises(ValueError, match="must be square"):
        permanent_ryser([[1, 2, 3], [4, 5, 6]])


@pytest.mark.parametrize("mult", [[1.0, 1.0], [1.5, 0.5], ["1", "1"], [-1, 3]])
def test_with_repeats_rejects_non_integer_multiplicities(mult):
    with pytest.raises(ValueError, match="non-negative integers"):
        permanent_with_repeats(np.eye(2), mult)
