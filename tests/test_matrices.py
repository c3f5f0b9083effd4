"""Interferometer construction: QFT matrix, phase weights, closed-form entries."""

import math

import numpy as np
import pytest

from qufti import (
    DephasingParams,
    InterferometerSpec,
    coincidence_probability,
    compose_qufti,
    noon_dephased_sensitivity,
    permanent_closed_form,
    qft_matrix,
    sensitivity_for_mask,
)
from qufti.matrices import _dft, _gradient, _rotations, phase_vector

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


def test_phase_diagonal_single_mode():
    d = phase_vector(InterferometerSpec(n=3, phi=0.7, weights=(0.0, 1.0, 0.0)))
    expected = [1.0, np.exp(0.7j), 1.0]
    np.testing.assert_allclose(d, expected, atol=1e-15)


def test_phase_diagonal_custom():
    d = phase_vector(InterferometerSpec(n=2, phi=1.0, weights=(0.3, -0.4)))
    np.testing.assert_allclose(d, [np.exp(0.3j), np.exp(-0.4j)], atol=1e-15)


def test_custom_mask_wrong_length():
    with pytest.raises(ValueError):
        InterferometerSpec(n=3, phi=0.0, weights=(0.1, 0.2))


def test_nonfinite_weight_rejected():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="weights must be finite"):
            InterferometerSpec(n=3, phi=0.5, weights=(0.0, bad, 2.0))


def _old_mask_phases(kind: str, n: int, phi: float, rng) -> tuple[dict, np.ndarray]:
    """One spec of the three former mask kinds: the weights spec that replaces it,
    and the phases that kind's own formula put on the modes."""
    if kind == "gradient":  # phase (j - 1) (phi + theta) on mode j, theta = 0 by default
        return {"phi": phi}, np.arange(n) * (phi + 0.0)
    if kind == "gradient+theta":
        theta = float(rng.uniform(-3.0, 3.0))
        return {"phi": phi + theta}, np.arange(n) * (phi + theta)
    if kind == "single":  # phase phi on mode k alone
        k = int(rng.integers(n))
        phases = np.zeros(n)
        phases[k] = phi
        return {"phi": phi, "weights": tuple(float(i == k) for i in range(n))}, phases
    custom = tuple(float(p) for p in rng.uniform(-7.0, 7.0, n))  # absolute phases
    return {"phi": 1.0, "weights": custom}, np.asarray(custom, dtype=float)


def test_weights_bit_identical_to_mask_formulas():
    rng = np.random.default_rng(20150105)
    phis = [0.0, -0.0, math.pi, -math.pi, 1e-300, -2.5e-9]
    phis += [float(x) for x in rng.uniform(-10.0, 10.0, 40)]
    for n in range(1, 17):
        for phi in phis:
            for kind in ("gradient", "gradient+theta", "single", "custom"):
                fields, phases = _old_mask_phases(kind, n, phi, rng)
                spec = InterferometerSpec(n=n, **fields)
                got = phase_vector(spec)
                assert got.tobytes() == np.exp(1j * phases).tobytes(), (kind, n, phi)


def test_spec_rejects_nonfinite_phase():
    # the largest-phase check rejects them all, zero weights too: 0 * inf and 0 * nan are nan
    for phi in (math.nan, math.inf, -math.inf):
        for n, weights, big in ((2, None, "1"), (1, None, "0"), (2, (0.0, -0.0), "0.0")):
            with pytest.raises(ValueError) as exc:
                InterferometerSpec(n=n, phi=phi, weights=weights)
            assert str(exc.value) == f"{big} * phi must be finite, got phi = {phi!r}"


@pytest.mark.parametrize(
    "n,phi,weights,message",
    [
        (3, 1e308, None, "2 * phi must be finite, got phi = 1e+308"),
        (3, -1e308, None, "2 * phi must be finite, got phi = -1e+308"),
        (3, np.float64(1e308), None, "2 * phi must be finite, got phi = 1e+308"),
        (2, 1e308, (0.5, -2.0), "2.0 * phi must be finite, got phi = 1e+308"),
    ],
    ids=["gradient", "gradient_negative_phi", "gradient_numpy_phi", "weights"],
)
def test_spec_rejects_overflowing_phase(n, phi, weights, message):
    # phase_vector forms weight * phi; an overflow there would give NaN entries
    with pytest.raises(ValueError) as exc:
        InterferometerSpec(n=n, phi=phi, weights=weights)
    assert str(exc.value) == message


# Every phase product w * phi the library forms is checked by matrices._phase, with one message.
PHASE_OVERFLOWS = {
    "spec": (lambda: InterferometerSpec(3, 1e308), "2 * phi must be finite, got phi = 1e+308"),
    "spec_numpy_n": (
        lambda: InterferometerSpec(np.int64(3), 1e308), "2 * phi must be finite, got phi = 1e+308"
    ),
    "coincidence_probability": (
        lambda: coincidence_probability(3, 1e308), "3 * phi must be finite, got phi = 1e+308"
    ),
    "coincidence_probability_array": (
        lambda: coincidence_probability(3, np.array([0.1, -1e308, 1e308])),
        "3 * phi must be finite, got phi = -1e+308",
    ),
    "permanent_closed_form": (
        lambda: permanent_closed_form(3, 1e308), "3 * phi must be finite, got phi = 1e+308"
    ),
    "noon_dephased_sensitivity": (
        lambda: noon_dephased_sensitivity(4, 5e307, DephasingParams(0.0)),
        "4 * phi must be finite, got phi = 5e+307",
    ),
    "noon_dephased_sensitivity_numpy_n": (
        lambda: noon_dephased_sensitivity(np.int64(4), 5e307, DephasingParams(0.0)),
        "4 * phi must be finite, got phi = 5e+307",
    ),
    "sensitivity_for_mask": (  # the weight spread 2e300, not any one weight, overflows
        lambda: sensitivity_for_mask(InterferometerSpec(3, 1e8, (-1e300, 1e300, 0.0))),
        "2e+300 * phi must be finite, got phi = 100000000.0",
    ),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("call,message", PHASE_OVERFLOWS.values(), ids=PHASE_OVERFLOWS.keys())
def test_phase_product_overflow_is_one_error(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


def test_spec_accepts_huge_phase_without_a_phase_weight():
    for spec in (InterferometerSpec(n=1, phi=1e308), InterferometerSpec(2, 1e308, (0.0, -0.0))):
        assert np.array_equal(phase_vector(spec), np.ones(spec.n))


def test_compose_identity_at_zero_phase():
    for n in (2, 5, 16):
        u = compose_qufti(InterferometerSpec(n=n, phi=0.0))
        np.testing.assert_allclose(u, np.eye(n), atol=1e-12)


def test_compose_bit_identical_to_product_with_reversed_dft():
    # row 0 of U is the mask times the forward DFT over n with its rows reversed, one matrix
    # product, its twiddles formed from m l reduced mod n to -n/2 .. n/2; row j is row 0
    # rotated by j
    rng = np.random.default_rng(24)
    for n in range(1, 25):
        m = np.arange(n)
        dft = np.exp(-2j * np.pi / n * ((m[:, None] * m + n // 2) % n - n // 2)) / n
        reversed_dft = np.ascontiguousarray(dft[::-1])
        assert _dft(n).tobytes() == reversed_dft.tobytes()
        weights = tuple(float(w) for w in rng.uniform(-3.0, 3.0, n))
        cases = [{"phi": phi} for phi in (0.0, 0.3, -2.9, 1e-9)] + [{"phi": 1.1, "weights": weights}]
        for fields in cases:
            spec = InterferometerSpec(n=n, **fields)
            first = phase_vector(spec) @ reversed_dft
            fresh = np.array([np.roll(first, j) for j in range(n)])
            assert compose_qufti(spec).tobytes() == fresh.tobytes(), (n, fields)


def test_cached_dft_is_read_only_and_accurate():
    # every twiddle is within two ulp of 1 of e^(-2 pi i k / n) / n in 40 digits
    mpmath = pytest.importorskip("mpmath")
    for n in (1, 2, 3, 7, 12, 30):
        dft = _dft(n)
        with pytest.raises(ValueError):
            dft[0, 0] = 0
        with mpmath.workdps(40):
            for m in range(n):
                for col in range(n):
                    exact = mpmath.expj(-2 * mpmath.pi * ((n - 1 - m) * col % n) / n) / n
                    assert abs(complex(exact) - dft[m, col]) <= 4.5e-16 / n, (n, m, col)


def test_gradient_phase_vector_reads_a_cached_read_only_gradient():
    spec = InterferometerSpec(n=5, phi=0.3)
    assert phase_vector(spec).tobytes() == np.exp(1j * (np.arange(5) * 0.3)).tobytes()
    with pytest.raises(ValueError):
        _gradient(5)[0] = 1.0


def test_cached_rotations_are_read_only():
    index = _rotations(3)
    with pytest.raises(ValueError):
        index[0, 0] = 1
    assert index.tolist() == [[0, 1, 2], [2, 0, 1], [1, 2, 0]]


@pytest.mark.parametrize("n", [2, 5, 12, 16])
def test_compose_matches_matrix_product(n):
    # the circulant from one DFT row against V . D . V+ multiplied out
    rng = np.random.default_rng(30 + n)
    v = qft_matrix(n)
    for fields in ({"phi": 0.7}, {"phi": 1.3, "weights": tuple(rng.uniform(-3.0, 3.0, n))}):
        spec = InterferometerSpec(n=n, **fields)
        product = (v * phase_vector(spec)) @ v.conj().T
        np.testing.assert_allclose(compose_qufti(spec), product, rtol=0, atol=1e-14)


@pytest.mark.parametrize("n,phi", [(2, 0.3), (5, 1.1), (9, -2.4), (16, 0.01)])
def test_compose_unitary(n, phi):
    u = compose_qufti(InterferometerSpec(n=n, phi=phi))
    np.testing.assert_allclose(u @ u.conj().T, np.eye(n), rtol=0, atol=1e-10)


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
