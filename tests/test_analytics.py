"""Closed-form permanent, coincidence probability, derivative, conjecture harness."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qufti import (
    InterferometerSpec,
    SizeLimitError,
    coincidence_probability,
    compose_qufti,
    conjecture_verify,
    permanent_closed_form,
    permanent_ryser,
    probability_derivative,
)
from qufti.analytics import _phase

phis = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


def finite_difference(f, x, h=1e-6):
    return (f(x + h) - f(x - h)) / (2 * h)


def test_closed_form_n1_is_one():
    for phi in (0.0, 0.4, -2.2):
        assert permanent_closed_form(1, phi) == 1


def test_closed_form_n2():
    for phi in np.linspace(0, 2 * np.pi, 10):
        expected = np.exp(1j * phi) * np.cos(phi)
        assert abs(permanent_closed_form(2, phi) - expected) < 1e-13


def test_closed_form_n3():
    for phi in np.linspace(0, 2 * np.pi, 10):
        z = np.exp(3j * phi)
        expected = (2 + z) * (1 + 2 * z) / 9
        assert abs(permanent_closed_form(3, phi) - expected) < 1e-13


def test_closed_form_rejects_overflowing_phase():
    with pytest.raises(ValueError, match=r"3 \* phi must be finite, got phi = 1e\+308"):
        permanent_closed_form(3, 1e308)


def numpy_scalar_closed_form(n, phi):
    """The product form as a loop over numpy 0-d complex scalars: the reference bits."""
    z = np.exp(1j * (n * np.asarray(phi, dtype=float)))
    result = 1 + 0j
    for j in range(1, n):
        result *= (j * z + (n - j)) / n
    return complex(result)


def test_closed_form_bit_identical_to_numpy_scalar_loop():
    # the Python complex loop divides by n as numpy's complex division does, part by part
    extra = [-0.0, math.pi, -math.pi / 3, 1e-300, 5e-324, 1e300 / 30, -7.25]
    for n in range(1, 31):
        for phi in [*np.linspace(0.0, 2 * np.pi, 64, endpoint=False).tolist(), *extra]:
            got, want = permanent_closed_form(n, phi), numpy_scalar_closed_form(n, phi)
            assert np.array([got]).tobytes() == np.array([want]).tobytes(), (n, phi)


def test_phase_of_a_float_is_a_float_and_the_array_value():
    assert type(_phase(7, 0.3)) is float
    assert _phase(7, 0.3) == float(_phase(7, np.float64(0.3))) == 7 * 0.3
    for phi in (1e308, np.float64(1e308), np.array([0.0, 1e308])):
        with pytest.raises(ValueError, match=r"^3 \* phi must be finite, got phi = 1e\+308$"):
            _phase(3, phi)


def test_conjecture_small_grid():
    report = conjecture_verify(6, 32)
    assert report.max_abs_error < 1e-10
    assert report.n_range == (2, 6)
    assert report.samples == 32


def test_conjecture_agrees_at_zero_phase():
    for n in range(2, 9):
        u = compose_qufti(InterferometerSpec(n=n, phi=0.0))
        assert abs(permanent_ryser(u) - 1) < 1e-12
        assert abs(permanent_closed_form(n, 0.0) - 1) < 1e-12


def test_conjecture_range_guard():
    with pytest.raises(ValueError, match=r"^need n_max >= 2, got 1$") as info:
        conjecture_verify(1, 8)
    assert not isinstance(info.value, SizeLimitError)  # too small is a bad count, not a size limit
    with pytest.raises(SizeLimitError):
        conjecture_verify(31, 8)


def test_report_json_shape():
    report = conjecture_verify(4, 8)
    d = report.to_json_dict()
    assert set(d) == {"n_range", "samples", "max_abs_error", "worst_case"}
    assert set(d["worst_case"]) == {"n", "phi"}


def test_probability_unity_at_zero():
    for n in range(1, 17):
        assert abs(coincidence_probability(n, 0.0) - 1) < 1e-15


def test_probability_n2_cos_squared():
    assert coincidence_probability(2, math.pi / 2) < 1e-12
    for phi in (0.2, 0.9):
        assert abs(coincidence_probability(2, phi) - math.cos(phi) ** 2) < 1e-14


def test_probability_matches_permanent_engine():
    u = compose_qufti(InterferometerSpec(n=3, phi=0.1))
    assert abs(coincidence_probability(3, 0.1) - abs(permanent_ryser(u)) ** 2) < 1e-11


@given(st.integers(min_value=1, max_value=16), phis)
@settings(max_examples=200, deadline=None)
def test_probability_in_unit_interval(n, phi):
    p = coincidence_probability(n, phi)
    assert -1e-15 <= p <= 1 + 1e-12


@given(st.integers(min_value=2, max_value=12), phis)
@settings(max_examples=100, deadline=None)
def test_probability_periodicity(n, phi):
    assert abs(
        coincidence_probability(n, phi + 2 * math.pi / n) - coincidence_probability(n, phi)
    ) < 1e-12


@given(st.integers(min_value=2, max_value=12), phis)
@settings(max_examples=100, deadline=None)
def test_probability_even_symmetry(n, phi):
    assert abs(coincidence_probability(n, -phi) - coincidence_probability(n, phi)) < 1e-12


@given(st.integers(min_value=2, max_value=12), phis)
@settings(max_examples=100, deadline=None)
def test_probability_equals_squared_permanent_modulus(n, phi):
    assert abs(coincidence_probability(n, phi) - abs(permanent_closed_form(n, phi)) ** 2) < 1e-12


def test_derivative_zero_at_stationary_point():
    for n in range(2, 8):
        assert probability_derivative(n, 0.0) == 0.0


def test_derivative_n2_analytic():
    # P = cos^2(phi) so |dP/dphi| = |2 cos(phi) sin(phi)| = |sin(2 phi)|
    for phi in (0.3, 1.1, 2.5):
        assert abs(probability_derivative(2, phi) - abs(math.sin(2 * phi))) < 1e-13


@pytest.mark.parametrize("n,phi", [(2, 0.3), (5, 0.01), (7, 0.4), (10, 0.11)])
def test_derivative_matches_finite_difference(n, phi):
    assert abs(math.sin(n * phi)) > 1e-3
    fd = abs(finite_difference(lambda x: coincidence_probability(n, x), phi))
    assert probability_derivative(n, phi) == pytest.approx(fd, rel=1e-5)


def probability_per_coefficient(n, phi, damping):
    """Reference: the product accumulated one a(j), b(j) coefficient pair at a time."""
    c = math.cos(n * phi) * damping
    p = 1.0
    for j in range(1, n):
        p *= (float(2 * j * (n - j)) * c + float(n * n - 2 * j * n + 2 * j * j)) / (n * n)
    return p


def derivative_per_coefficient(n, phi, damping):
    """Reference: dP/dc carried by the product rule over factors rebuilt from a(j), b(j)."""
    c = math.cos(n * phi) * damping
    p, dp_dc = 1.0, 0.0
    for j in range(1, n):
        a = float(2 * j * (n - j))
        factor = (a * c + float(n * n - 2 * j * n + 2 * j * j)) / (n * n)
        dp_dc = dp_dc * factor + (a / (n * n)) * p
        p *= factor
    return n * abs(math.sin(n * phi)) * damping * dp_dc


@pytest.mark.parametrize("damping", [1.0, 0.7])
def test_factor_list_bit_identical_to_per_coefficient_loops(damping):
    grid = np.random.default_rng(17).uniform(-20.0, 20.0, 64).tolist()
    for n in range(1, 41):
        for phi in grid + [math.pi * k / n for k in range(-n, 2 * n + 1)]:
            assert coincidence_probability(n, phi, damping) == probability_per_coefficient(
                n, phi, damping
            )
            assert probability_derivative(n, phi, damping) == derivative_per_coefficient(
                n, phi, damping
            )


def probability_scalar_reference(n, phi, damping):
    """Reference: the float-only product of the previous release, one point at a time."""
    c = math.cos(n * phi) * damping
    return math.prod(
        ((2 * j * (n - j) * c + (n * n - 2 * j * n + 2 * j * j)) / (n * n) for j in range(1, n)),
        start=1.0,
    )


def derivative_scalar_reference(n, phi, damping):
    """Reference: the float-only running product, dP/dc by the product rule."""
    c = math.cos(n * phi) * damping
    p, dp_dc = 1.0, 0.0
    for j in range(1, n):
        factor = (2 * j * (n - j) * c + (n * n - 2 * j * n + 2 * j * j)) / (n * n)
        dp_dc = dp_dc * factor + (2 * j * (n - j) / (n * n)) * p
        p *= factor
    return n * abs(math.sin(n * phi)) * damping * dp_dc


def test_array_path_bit_identical_to_scalar_loop():
    rng = np.random.default_rng(29)
    grid = rng.uniform(-20.0, 20.0, 64).tolist()
    for n in range(1, 41):
        # every root pi k / n of sin(n phi), and phases just beside them
        roots = [math.pi * k / n for k in range(-2 * n, 2 * n + 1)]
        phis = grid + roots + [r + h for r in roots for h in (1e-12, -1e-9, 1e-6, -0.03)]
        arr = np.array(phis)
        dampings = [1.0, 0.3, rng.uniform(0.0, 1.0, len(phis))]
        for damping in dampings:
            ds = np.broadcast_to(damping, arr.shape).tolist()
            p = coincidence_probability(n, arr, damping)
            dp = probability_derivative(n, arr, damping)
            assert p.shape == dp.shape == arr.shape
            assert p.tolist() == [probability_scalar_reference(n, x, d) for x, d in zip(phis, ds)]
            assert dp.tolist() == [derivative_scalar_reference(n, x, d) for x, d in zip(phis, ds)]
        # float calls, one element of the array damping at a time
        assert [coincidence_probability(n, x, d) for x, d in zip(phis, ds)] == p.tolist()
        assert [probability_derivative(n, x, d) for x, d in zip(phis, ds)] == dp.tolist()
        # phi down a column, damping along a row: the product broadcasts to a table
        row = np.array([1.0, 0.5, 0.0])
        table = coincidence_probability(n, arr[:, None], row)
        assert table.shape == (len(phis), 3)
        assert table.tolist() == [
            [probability_scalar_reference(n, x, d) for d in row.tolist()] for x in phis
        ]
    # a float call returns a float, so the CLI's repr prints a plain number
    assert type(coincidence_probability(3, 0.2)) is float
    assert type(probability_derivative(3, 0.2, 0.5)) is float


def derivative_in_mpmath(n, x, damping, mpmath):
    """|dP/dphi| at phase x = n phi to 50 digits, as P times the sum of a(j) / (n^2 f_j)."""
    with mpmath.workdps(50):
        x = mpmath.mpf(x)
        c = mpmath.cos(x) * damping
        f = [(2 * j * (n - j) * c + (n * n - 2 * j * n + 2 * j * j)) / (n * n) for j in range(1, n)]
        ratios = mpmath.fsum(mpmath.mpf(2 * j * (n - j)) / (n * n * f[j - 1]) for j in range(1, n))
        return abs(n * mpmath.sin(x) * damping * mpmath.fprod(f) * ratios)


def test_derivative_against_mpmath():
    # the reference takes the phase n phi as the library rounds it, so a phase near a root of
    # sin(n phi) does not count the input's own rounding against the product
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(0)
    worst = 0.0
    for n in [*range(2, 41), 64, 100, 200]:
        phi = rng.uniform(0.0, 2 * math.pi / n, 50)
        damping = rng.uniform(0.5, 1.0, 50)
        dp = probability_derivative(n, phi, damping)
        for x, d, value in zip((n * phi).tolist(), damping.tolist(), dp.tolist()):
            exact = derivative_in_mpmath(n, x, d, mpmath)
            worst = max(worst, float(abs(value - exact) / exact))
    assert worst <= 1e-12  # 1.1e-13 measured


def test_array_call_holds_a_few_rows_at_any_n():
    # one running product: the n - 1 factor rows and n suffix rows of the leave-one-out sum
    # held 79 MiB here
    phi = np.linspace(0.001, 0.5, 1024)
    tracemalloc.start()
    try:
        probability_derivative(5000, phi, 0.9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("damping,first", [
    (2.0, "2.0"), (-1.0, "-1.0"), (math.nan, "nan"), (np.float64(1.5), "1.5"),
    (np.array([0.5, 1.5, -2.0]), "1.5"), (np.array([[1.0], [math.nan]]), "nan"),
], ids=["above", "below", "nan", "numpy_float", "array", "array_nan"])
def test_damping_outside_unit_interval_is_refused(damping, first):
    # P is a probability only for a damping in [0, 1]: 2.0 gave P = 1.228 at n = 3, phi = 0.3
    for call in (coincidence_probability, probability_derivative):
        with pytest.raises(ValueError) as exc:
            call(3, np.array([0.3, 0.4]), damping)
        assert str(exc.value) == f"need 0 <= damping <= 1, got {first}"
    # both ends of the interval are admitted: no signal leaves prod_j b(j) / n^2 = 25 / 81
    assert coincidence_probability(3, 0.3, 0.0) == pytest.approx(25 / 81)
    assert coincidence_probability(3, 0.3, np.array([0.0, 1.0])).shape == (2,)
