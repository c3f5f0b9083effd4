"""Interferometer construction: QFT matrix, phase masks, closed-form entries."""

import math

import numpy as np
import pytest

from qufti import (
    CustomMask,
    InterferometerSpec,
    SingleModeMask,
    compose_qufti,
    qft_matrix,
)
from qufti.matrices import phase_vector

# Denominator modulus below which the closed-form entry is treated as 0/0.
SINGULAR_TOL = 1e-14


class SingularEntryError(ValueError):
    """Closed-form matrix entry is singular; use the matrix-product path."""


def qufti_entry_closed_form(n: int, j: int, k: int, phi: float) -> complex:
    """Entry U[j,k] of the gradient-mask interferometer via geometric series.

    Returns (1 - e^{i n phi}) / (n (e^{2 pi i (j-k)/n} - e^{i phi})).
    Raises SingularEntryError when the denominator vanishes (e.g. phi = 0,
    where the formula is 0/0); callers fall back to compose_qufti there.
    """
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    if not (1 <= j <= n and 1 <= k <= n):
        raise ValueError(f"indices ({j},{k}) outside 1..{n}")
    denom = np.exp(2j * np.pi * (j - k) / n) - np.exp(1j * phi)
    if abs(denom) < SINGULAR_TOL:
        raise SingularEntryError(
            f"closed form singular at n={n}, j={j}, k={k}, phi={phi}"
        )
    return complex((1 - np.exp(1j * n * phi)) / (n * denom))


def test_qft_n1_is_identity():
    np.testing.assert_allclose(qft_matrix(1), [[1.0]], atol=1e-15)


def test_qft_n2_entry_modulus():
    v = qft_matrix(2)
    np.testing.assert_allclose(np.abs(v), np.full((2, 2), 1 / math.sqrt(2)), atol=1e-15)


def test_qft_n4_unitary():
    v = qft_matrix(4)
    np.testing.assert_allclose(v @ v.conj().T, np.eye(4), atol=1e-12)


@pytest.mark.parametrize("n", range(2, 17))
def test_qft_unitary_range(n):
    v = qft_matrix(n)
    np.testing.assert_allclose(v @ v.conj().T, np.eye(n), rtol=0, atol=1e-10)


def test_qft_rejects_zero_dim():
    with pytest.raises(ValueError):
        qft_matrix(0)


def test_phase_diagonal_identity_at_zero():
    d = phase_vector(InterferometerSpec(n=3, phi=0.0))
    np.testing.assert_allclose(d, np.ones(3), atol=1e-15)


def test_phase_diagonal_pi():
    d = phase_vector(InterferometerSpec(n=2, phi=math.pi))
    np.testing.assert_allclose(d, [1.0, -1.0], atol=1e-15)


def test_phase_diagonal_gradient_combines_theta():
    d = phase_vector(InterferometerSpec(n=3, phi=0.1, theta=0.2))
    expected = [1.0, np.exp(0.3j), np.exp(0.6j)]
    np.testing.assert_allclose(d, expected, atol=1e-14)


def test_phase_diagonal_single_mode():
    d = phase_vector(InterferometerSpec(n=3, phi=0.7, mask=SingleModeMask(2)))
    expected = [1.0, np.exp(0.7j), 1.0]
    np.testing.assert_allclose(d, expected, atol=1e-15)


def test_phase_diagonal_custom():
    d = phase_vector(InterferometerSpec(n=2, phi=0.0, mask=CustomMask((0.3, -0.4))))
    np.testing.assert_allclose(d, [np.exp(0.3j), np.exp(-0.4j)], atol=1e-15)


def test_custom_mask_wrong_length():
    with pytest.raises(ValueError):
        InterferometerSpec(n=3, phi=0.0, mask=CustomMask((0.1, 0.2)))


def test_single_mode_out_of_range():
    with pytest.raises(ValueError):
        InterferometerSpec(n=3, phi=0.0, mask=SingleModeMask(4))


def test_spec_rejects_nonfinite_phase():
    with pytest.raises(ValueError):
        InterferometerSpec(n=2, phi=float("nan"))


def test_compose_identity_at_zero_phase():
    for n in (2, 5, 16):
        u = compose_qufti(InterferometerSpec(n=n, phi=0.0))
        np.testing.assert_allclose(u, np.eye(n), atol=1e-12)


@pytest.mark.parametrize("n,phi", [(2, 0.3), (5, 1.1), (9, -2.4), (16, 0.01)])
def test_compose_unitary(n, phi):
    u = compose_qufti(InterferometerSpec(n=n, phi=phi))
    np.testing.assert_allclose(u @ u.conj().T, np.eye(n), rtol=0, atol=1e-10)


def test_theta_additivity():
    # U(phi, theta) = U(phi + theta, 0) for the gradient mask
    u1 = compose_qufti(InterferometerSpec(n=6, phi=0.37, theta=0.21))
    u2 = compose_qufti(InterferometerSpec(n=6, phi=0.58))
    np.testing.assert_allclose(u1, u2, atol=1e-12)


def test_closed_form_hand_value():
    # n=2, j=k=1, phi=pi/2: (1 - e^{i pi}) / (2 (1 - e^{i pi/2})) = (1+i)/2
    val = qufti_entry_closed_form(2, 1, 1, math.pi / 2)
    assert abs(val - (0.5 + 0.5j)) < 1e-14


@pytest.mark.parametrize("n", [2, 3, 5, 8])
@pytest.mark.parametrize("phi", [1e-3, 0.3, 1.7, -0.9])
def test_closed_form_matches_matrix_product(n, phi):
    u = compose_qufti(InterferometerSpec(n=n, phi=phi))
    for j in range(1, n + 1):
        for k in range(1, n + 1):
            assert abs(qufti_entry_closed_form(n, j, k, phi) - u[j - 1, k - 1]) < 1e-10


def test_closed_form_singular_at_root_of_unity():
    # phi = 2 pi / 3 collides with the j-k = 1 root of unity for n = 3
    with pytest.raises(SingularEntryError):
        qufti_entry_closed_form(3, 2, 1, 2 * math.pi / 3)


def test_closed_form_singular_at_zero_phase():
    with pytest.raises(SingularEntryError):
        qufti_entry_closed_form(4, 1, 1, 0.0)


def test_closed_form_rejects_bad_indices():
    with pytest.raises(ValueError):
        qufti_entry_closed_form(3, 0, 1, 0.5)
    with pytest.raises(ValueError):
        qufti_entry_closed_form(3, 1, 4, 0.5)
