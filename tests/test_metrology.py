"""Sensitivity, baselines, efficiency, dephasing, output-distribution oracle."""

import itertools
import math

import numpy as np
import pytest

from qufti import (
    DephasingParams,
    InterferometerSpec,
    OutcomeDistribution,
    SizeLimitError,
    coincidence_probability,
    compose_qufti,
    dephased_probability,
    dephased_sensitivity,
    fock_output_distribution,
    heisenberg_limit,
    noon_dephased_sensitivity,
    orc_photon_count,
    permanent_closed_form,
    permanent_naive,
    permanent_ryser,
    phase_sensitivity_small_angle,
    probability_derivative,
    protocol_efficiency,
    sensitivity_for_mask,
    shotnoise_limit,
)
from qufti.matrices import FLOAT_COUNT_LIMIT
from qufti.metrology import ORC_N_LIMIT, _outcomes, dephased_derivative


def test_small_angle_values():
    assert phase_sensitivity_small_angle(2) == pytest.approx(0.5)
    assert phase_sensitivity_small_angle(3) == pytest.approx(0.25)
    assert phase_sensitivity_small_angle(10) == pytest.approx(math.sqrt(3 / 1980))


def test_small_angle_binomial_identity():
    for n in range(2, 21):
        assert phase_sensitivity_small_angle(n) == pytest.approx(
            1 / (2 * math.sqrt(math.comb(n + 1, 3))), rel=1e-14
        )


def test_small_angle_refuses_n_whose_product_overflows():
    # 2.0 n (n + 1) (n - 1) overflowed above the limit, and the law came back 0.0
    limit = 2**341 - 2**287  # metrology.SMALL_ANGLE_N_LIMIT
    assert math.isfinite(2.0 * limit * (limit + 1) * (limit - 1))
    assert not math.isfinite(2.0 * (limit + 1) * (limit + 2) * limit)
    delta = phase_sensitivity_small_angle(limit)
    assert delta == math.sqrt(3.0 / (2.0 * limit * (limit + 1) * (limit - 1))) > 1e-154
    for n in (limit + 1, 10**107, 2 * 10**156):
        with pytest.raises(SizeLimitError) as exc:
            phase_sensitivity_small_angle(n)
        assert str(exc.value) == f"need n <= {limit}, got {n}"


def test_small_angle_rejects_n1():
    with pytest.raises(ValueError):
        phase_sensitivity_small_angle(1)
    with pytest.raises(ValueError):
        dephased_sensitivity(1, 0.1, DephasingParams(0.0))


@pytest.mark.parametrize("n,expected", [(2, 0.5), (3, 0.25), (4, math.sqrt(3 / 120))])
def test_numeric_sensitivity_near_zero(n, expected):
    assert dephased_sensitivity(n, 1e-4, DephasingParams(0.0)) == pytest.approx(expected, rel=1e-5)


def test_numeric_sensitivity_small_angle_switchover():
    assert dephased_sensitivity(5, 1e-9, DephasingParams(0.0)) == phase_sensitivity_small_angle(5)


# Stationary points phi = pi/n, where cos(n phi) = -1. Even n: P = 0 there and
# the noiseless limit is 1 / (n prod_{j != n/2} |n - 2j| / n). Odd n: P is a
# tiny positive minimum, a true divergence. Under noise every one diverges.
STATIONARY_CASES = [
    (2, 0.0, 0.5),
    (4, 0.0, 1.0),
    (6, 0.0, 3.375),
    (8, 0.0, 128 / 9),
    (3, 0.0, math.inf),
    (15, 0.0, math.inf),
    (25, 0.0, math.inf),
    (4, 0.005**2, math.inf),
]


@pytest.mark.parametrize(
    "n,chi_sq,expected",
    STATIONARY_CASES,
    ids=[f"n{n}_{'noisy' if c else 'noiseless'}" for n, c, _ in STATIONARY_CASES],
)
def test_numeric_sensitivity_stationary_points(n, chi_sq, expected):
    phi0 = math.pi / n
    val = dephased_sensitivity(n, phi0, DephasingParams(chi_sq))
    assert val == pytest.approx(expected, rel=1e-12)
    if math.isfinite(expected):
        # the limit is removable: the estimator just off the point agrees
        for phi in (phi0 - 1e-6, phi0 + 1e-6):
            assert dephased_sensitivity(n, phi, DephasingParams(0.0)) == pytest.approx(
                expected, rel=1.2e-5
            )


def test_orc_photon_count():
    assert orc_photon_count(1) == 1
    assert orc_photon_count(2) == 2
    assert orc_photon_count(10) == 46


def test_orc_count_refused_where_its_float_overflows():
    # shotnoise_limit(10**200) raised OverflowError from 1 + n(n - 1)/2 as a float
    assert math.isfinite(float(orc_photon_count(ORC_N_LIMIT)))
    with pytest.raises(OverflowError):
        float(1 + (ORC_N_LIMIT + 1) * ORC_N_LIMIT // 2)
    assert shotnoise_limit(ORC_N_LIMIT) == 1.0 / math.sqrt(orc_photon_count(ORC_N_LIMIT)) > 0
    assert heisenberg_limit(ORC_N_LIMIT) == 1.0 / orc_photon_count(ORC_N_LIMIT) > 0
    for call in (orc_photon_count, shotnoise_limit, heisenberg_limit):
        for n in (ORC_N_LIMIT + 1, 10**200):
            with pytest.raises(SizeLimitError) as exc:
                call(n)
            assert str(exc.value) == f"need n <= {ORC_N_LIMIT}, got {n}"


def test_counts_at_the_float_limit_keep_working():
    # the largest admitted count: no OverflowError, no RuntimeWarning, and no signal lost
    # without noise, where n^2 overflows the damping's exponent
    n = FLOAT_COUNT_LIMIT
    assert math.isfinite(float(n))
    with pytest.raises(OverflowError):
        float(n + 1)
    assert protocol_efficiency(0.5, 0.5, n) == 0.0
    assert protocol_efficiency(1.0, 1.0, n) == 1.0
    assert noon_dephased_sensitivity(n, 0.1, DephasingParams(0.0)) == 1.0 / n
    delta = noon_dephased_sensitivity(n, np.array([0.1, 0.2]), DephasingParams(0.0))
    assert delta.tolist() == [1.0 / n, 1.0 / n]
    assert DephasingParams(0.0).damping(n) == 1.0
    assert DephasingParams(np.array([0.0, 1e-300])).damping(n).tolist() == [1.0, 0.0]


def test_baselines():
    assert shotnoise_limit(2) == pytest.approx(1 / math.sqrt(2))
    assert shotnoise_limit(3) == pytest.approx(0.5)
    assert shotnoise_limit(10) == pytest.approx(1 / math.sqrt(46))
    assert heisenberg_limit(2) == pytest.approx(0.5)
    assert heisenberg_limit(3) == pytest.approx(0.25)
    assert heisenberg_limit(10) == pytest.approx(1 / 46)


def test_sensitivity_between_baselines():
    for n in range(2, 21):
        dphi = phase_sensitivity_small_angle(n)
        assert heisenberg_limit(n) - 1e-12 <= dphi <= shotnoise_limit(n) + 1e-12
    assert phase_sensitivity_small_angle(2) == pytest.approx(heisenberg_limit(2))
    assert phase_sensitivity_small_angle(3) == pytest.approx(heisenberg_limit(3))


def test_scaling_exponent():
    ns = np.arange(10, 21)
    dphis = np.array([phase_sensitivity_small_angle(int(n)) for n in ns])
    slope = np.polyfit(np.log(ns), np.log(dphis), 1)[0]
    assert slope == pytest.approx(-1.5, abs=0.02)


def test_efficiency_spot_value():
    assert protocol_efficiency(0.42, 0.98, 10) == pytest.approx(1.4e-4, rel=0.05)


def test_efficiency_edge_cases():
    assert protocol_efficiency(1.0, 1.0, 7) == 1.0
    assert protocol_efficiency(0.0, 0.9, 3) == 0.0
    with pytest.raises(ValueError):
        protocol_efficiency(1.2, 0.9, 2)


def test_dephasing_zero_noise_reduction():
    params = DephasingParams(0.0)
    for n, phi in [(2, 0.3), (5, 0.01), (8, 1.2)]:
        assert dephased_probability(n, phi, params) == pytest.approx(
            coincidence_probability(n, phi), abs=1e-12
        )
    for n, phi in [(2, 0.3), (4, 1e-4), (5, 0.01), (8, 1.2)]:
        p = coincidence_probability(n, phi)
        expected = math.sqrt(p - p * p) / probability_derivative(n, phi)
        assert dephased_sensitivity(n, phi, params) == pytest.approx(expected, rel=1e-12)
    # periodic maxima phi = 2 pi k / n: P = 1 again, so the noiseless value
    # is the phi = 0 limit; under noise P < 1 and the estimator diverges
    for n in range(2, 13):
        for k in (1, 2):
            phi = 2 * math.pi * k / n
            assert dephased_sensitivity(n, phi, params) == phase_sensitivity_small_angle(n)
            assert math.isinf(dephased_sensitivity(n, phi, DephasingParams(0.005**2)))


def test_dephasing_rejects_negative_variance():
    with pytest.raises(ValueError):
        DephasingParams(-1e-3)


def test_dephasing_rejects_nan_variance():
    for chi_sq in (math.nan, np.array([0.0, math.nan])):
        with pytest.raises(ValueError, match="must be >= 0"):
            DephasingParams(chi_sq)
    # complete dephasing is a valid limit
    assert DephasingParams(math.inf).damping(4) == 0.0


@pytest.mark.parametrize(
    "sensitivity,n,chi_sq",
    [(dephased_sensitivity, 7, 29.06), (noon_dephased_sensitivity, 22, 1.715**2)],
    ids=["qufti", "noon"],
)
def test_subnormal_damping_gives_inf_without_warning(sensitivity, n, chi_sq):
    # the damping is subnormal: sqrt(P - P^2) / dP overflows to inf, and no
    # RuntimeWarning (an error under pytest) escapes
    assert 0.0 < DephasingParams(chi_sq).damping(n) < 2.3e-308
    assert sensitivity(n, 0.7, DephasingParams(chi_sq)) == math.inf


def test_dephasing_strong_noise_limit():
    # damping -> 0 leaves the phase-independent product of b coefficients
    n = 4
    p_inf = dephased_probability(n, 0.3, DephasingParams(1e6))
    expected = 1.0
    for j in range(1, n):
        expected *= (n * n - 2 * j * n + 2 * j * j) / (n * n)
    assert p_inf == pytest.approx(expected, abs=1e-12)
    assert dephased_probability(n, 1.9, DephasingParams(1e6)) == pytest.approx(p_inf, abs=1e-12)


def test_dephased_probability_between_limits():
    n, phi = 4, 0.01
    p0 = dephased_probability(n, phi, DephasingParams(0.0))
    p_mid = dephased_probability(n, phi, DephasingParams(0.005**2))
    p_inf = dephased_probability(n, phi, DephasingParams(1e6))
    assert p_inf < p_mid < p0


def test_dephasing_model_is_not_the_average_over_per_mode_phase_noise():
    # The damping law exp(-n^2 <dchi^2> / 2) on cos(n phi) in every factor of P is
    # not the average of |Per(U)|^2 over independent per-mode phases chi_k ~ N(0, sigma^2):
    # at n = 4, phi = 0.01, sigma = 0.1 the average is the larger by far more than its noise
    n, phi, sigma, draws = 4, 0.01, 0.1, 4000
    rng = np.random.default_rng(1501)
    weights = np.arange(n) * phi
    samples = np.array([
        abs(permanent_ryser(compose_qufti(InterferometerSpec(n, 1.0, weights=tuple(w))))) ** 2
        for w in (weights + rng.normal(0.0, sigma, (draws, n))).tolist()
    ])
    stderr = samples.std(ddof=1) / math.sqrt(draws)
    model = dephased_probability(n, phi, DephasingParams(sigma**2))
    assert samples.mean() - model > 10 * stderr


def test_dephased_sensitivity_monotone_in_noise():
    for n in (3, 6, 10):
        values = [
            dephased_sensitivity(n, 0.01, DephasingParams(chi**2))
            for chi in np.linspace(0.0, 0.01, 20)
        ]
        assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))


def test_dephased_sensitivity_finite_difference():
    n, phi = 6, 0.01
    params = DephasingParams(0.005**2)
    h = 1e-6
    fd = abs(
        dephased_probability(n, phi + h, params) - dephased_probability(n, phi - h, params)
    ) / (2 * h)
    assert dephased_derivative(n, phi, params) == pytest.approx(fd, rel=1e-5)
    assert dephased_sensitivity(n, phi, params) > 0
    assert math.isfinite(dephased_sensitivity(n, phi, params))


def test_noon_saturates_heisenberg_without_noise():
    for big_n in (2, 5, 16):
        assert noon_dephased_sensitivity(big_n, 1e-10, DephasingParams(0.0)) == pytest.approx(
            1 / big_n
        )


@pytest.mark.parametrize("big_n", [2, 5, 16])
def test_noon_stationary_points(big_n):
    # phi = pi/N puts the NOON signal at its minimum, sin(N phi) = 0
    phi = math.pi / big_n
    assert noon_dephased_sensitivity(big_n, phi, DephasingParams(0.0)) == 1 / big_n
    assert math.isinf(noon_dephased_sensitivity(big_n, phi, DephasingParams(0.005**2)))


def test_noise_too_small_to_damp_is_noiseless():
    # damping exp(-n^2 * 1e-300 / 2) rounds to 1.0, so P rounds to 1.0 at this phi: the
    # P = 1 maximum's limit, not sqrt(0) / dP = 0, below the Heisenberg limit
    tiny = DephasingParams(1e-300)
    assert tiny.damping(4) == 1.0
    assert dephased_sensitivity(4, 1e-12, tiny) == phase_sensitivity_small_angle(4)
    assert noon_dephased_sensitivity(4, 1e-12, tiny) == 1 / 4
    both = DephasingParams(np.array([0.0, 1e-300]))
    assert dephased_sensitivity(4, 1e-12, both).tolist() == [phase_sensitivity_small_angle(4)] * 2
    assert noon_dephased_sensitivity(4, 1e-12, both).tolist() == [1 / 4] * 2


@pytest.mark.parametrize("n", [813, 1000])
def test_sensitivity_where_the_minimum_root_underflows(n):
    # prod |n - 2j| / n underflows to 0 from n = 813, and the P = 0 minimum's limit with it:
    # elsewhere the value is the error propagation of the closed forms, noiseless or not
    for chi_sq in (0.0, 1e-12):
        params = DephasingParams(chi_sq)
        for phi in (1e-4, 0.1):
            p = coincidence_probability(n, phi, params.damping(n))
            dp = abs(probability_derivative(n, phi, params.damping(n)))
            assert dephased_sensitivity(n, phi, params) == math.sqrt(p - p * p) / dp

def test_sensitivity_without_signal_is_inf():
    # at n = 5000 and phi = 0.1 noise underflows P and dP/dphi to 0, which propagates as 0/0
    params = DephasingParams(1e-12)
    assert coincidence_probability(5000, 0.1, params.damping(5000)) == 0.0
    assert probability_derivative(5000, 0.1, params.damping(5000)) == 0.0
    assert dephased_sensitivity(5000, 0.1, params) == math.inf
    both = DephasingParams(np.array([1e-12, 0.0]))
    assert dephased_sensitivity(5000, 0.1, both).tolist() == [math.inf, math.inf]


def test_noon_degrades_with_noise():
    clean = noon_dephased_sensitivity(8, 0.01, DephasingParams(0.0))
    noisy = noon_dephased_sensitivity(8, 0.01, DephasingParams(0.005**2))
    assert noisy > clean


def test_noon_worse_than_gradient_interferometer_for_large_n():
    # quadratic resource count N ~ n^2/2 makes the NOON damping collapse
    # much faster; the ordering flips once n is large enough
    params = DephasingParams(0.005**2)
    for n in (25, 30):
        big_n = orc_photon_count(n)
        assert noon_dephased_sensitivity(big_n, 0.01, params) > dephased_sensitivity(
            n, 0.01, params
        )


def test_distribution_at_zero_phase():
    dist = fock_output_distribution(InterferometerSpec(n=3, phi=0.0))
    for occ, p in dist.entries:
        expected = 1.0 if occ == (1, 1, 1) else 0.0
        assert p == pytest.approx(expected, abs=1e-12)


def test_distribution_n2_half_pi():
    dist = fock_output_distribution(InterferometerSpec(n=2, phi=math.pi / 2))
    assert dist.probability_of((1, 1)) == pytest.approx(0.0, abs=1e-12)
    assert dist.probability_of((2, 0)) + dist.probability_of((0, 2)) == pytest.approx(1.0)


def test_distribution_normalization():
    for n in range(2, 6):
        for phi in np.linspace(0.1, 2.9, 8):
            dist = fock_output_distribution(InterferometerSpec(n=n, phi=float(phi)))
            assert len(dist.entries) == math.comb(2 * n - 1, n)
            assert dist.total() == pytest.approx(1.0, abs=1e-9)


def test_probability_of_takes_any_integer_sequence():
    # a list, an ndarray or numpy integers name the outcome their tuple names
    dist = fock_output_distribution(InterferometerSpec(n=3, phi=0.7))
    probability = dict(dist.entries)
    for occupation in ([1, 1, 1], np.ones(3, dtype=int), (np.int64(1),) * 3):
        assert dist.probability_of(occupation) == probability[(1, 1, 1)]
    assert dist.probability_of(np.array([0, 3, 0])) == probability[(0, 3, 0)]
    for missing in ([1, 1], np.array([1, 1, 2]), [3, 0, 0, 0]):
        with pytest.raises(KeyError, match="no outcome"):
            dist.probability_of(missing)
    for not_integers in ([1.0, 1.0, 1.0], [True, True, True], np.ones(3, dtype=bool)):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            dist.probability_of(not_integers)


def test_distribution_all_ones_matches_closed_form():
    dist = fock_output_distribution(InterferometerSpec(n=4, phi=0.7))
    assert dist.probability_of((1, 1, 1, 1)) == pytest.approx(
        coincidence_probability(4, 0.7), abs=1e-11
    )


def test_distribution_n8_normalization_and_all_ones():
    dist = fock_output_distribution(InterferometerSpec(n=8, phi=0.9))
    assert len(dist.entries) == math.comb(15, 8)
    assert dist.total() == pytest.approx(1.0, abs=1e-9)
    assert dist.probability_of((1,) * 8) == pytest.approx(
        coincidence_probability(8, 0.9), abs=1e-11
    )


def test_distribution_size_guard():
    with pytest.raises(SizeLimitError):
        fock_output_distribution(InterferometerSpec(n=10, phi=0.1))


@pytest.mark.parametrize("n", range(1, 8))
def test_outcome_table_matches_enumeration(n):
    # the occupations and their prod_k s_k!, in the order the distribution lists them
    expected = []
    for placement in itertools.combinations_with_replacement(range(n), n):
        occ = tuple(placement.count(k) for k in range(n))
        expected.append((occ, float(math.prod(math.factorial(s) for s in occ))))
    assert list(_outcomes(n)) == expected
    dist = fock_output_distribution(InterferometerSpec(n=n, phi=0.4))
    assert [occ for occ, _ in dist.entries] == [occ for occ, _ in expected]


@pytest.mark.parametrize("n", range(2, 8))
def test_distribution_is_invariant_under_output_rotations(n):
    # U is circulant for any weights, so rotating an outcome's modes rotates U's columns,
    # a row permutation that leaves each permanent unchanged: p(S) = p(S + r)
    rng = np.random.default_rng(n)
    weights = tuple(rng.uniform(-2.0, 2.0, n).tolist())
    for spec in (InterferometerSpec(n, 1.234), InterferometerSpec(n, 0.7, weights)):
        probability = dict(fock_output_distribution(spec).entries)
        for occ, p in probability.items():
            for r in range(1, n):
                assert abs(probability[occ[-r:] + occ[:-r]] - p) <= 1e-15, (spec, occ, r)


@pytest.mark.parametrize("n", range(4, 8))
def test_distribution_matches_exact_correlators(n):
    # With one photon in each input, the correlator of m distinct outputs J is
    # <prod_{j in J} n_j> = sum over m-subsets K of inputs of |Per U[K, J]|^2 (Walschaers et al.,
    # New J. Phys. 18, 123011 (2016)). The naive m x m permanents are independent of the walk;
    # m = 2 sees only |U|^2 (U is unitary), m = 4 the phases of U too.
    for phi in (0.3, 1.234):
        spec = InterferometerSpec(n, phi)
        entries = fock_output_distribution(spec).entries
        occupations = np.array([occ for occ, _ in entries], dtype=float)
        p = np.array([q for _, q in entries])
        u = compose_qufti(spec)
        for m in (2, 3, 4):
            for outputs in itertools.combinations(range(n), m):
                moment = p @ occupations[:, outputs].prod(axis=1)
                exact = sum(
                    abs(permanent_naive(u[np.ix_(inputs, outputs)])) ** 2
                    for inputs in itertools.combinations(range(n), m)
                )
                assert abs(moment - exact) <= 1e-14, (phi, outputs)


def test_mask_sensitivity_gradient_consistency():
    spec = InterferometerSpec(n=4, phi=0.05)
    assert sensitivity_for_mask(spec) == pytest.approx(
        dephased_sensitivity(4, 0.05, DephasingParams(0.0)), rel=1e-9
    )


@pytest.mark.parametrize("n", [8, 12])
def test_mask_sensitivity_beyond_distribution_limit(n):
    phi = 0.05 / n
    assert sensitivity_for_mask(InterferometerSpec(n=n, phi=phi)) == pytest.approx(
        dephased_sensitivity(n, phi, DephasingParams(0.0)), rel=1e-9
    )


def test_mask_sensitivity_size_guard():
    with pytest.raises(SizeLimitError):
        sensitivity_for_mask(InterferometerSpec(n=31, phi=0.01))


def _stationary_points():
    for n in range(2, 9):
        yield n, 0.0
        yield n, 2 * math.pi / n
        if n % 2 == 0:
            yield n, math.pi / n


@pytest.mark.parametrize("n,phi", list(_stationary_points()))
def test_mask_sensitivity_at_stationary_points(n, phi):
    # P = 1 maxima and the P = 0 minima of even n: propagation is 0/0 there
    assert sensitivity_for_mask(InterferometerSpec(n=n, phi=phi)) == pytest.approx(
        dephased_sensitivity(n, phi, DephasingParams(0.0)), rel=1e-9
    )


# minima with P > 0, not roots: the odd-n gradient at pi / n, one mode's phase at pi
NON_ROOT_MINIMA = [InterferometerSpec(n, math.pi / n) for n in range(3, 22, 2)]
NON_ROOT_MINIMA.append(InterferometerSpec(3, math.pi, weights=(0.0, 1.0, 0.0)))


@pytest.mark.parametrize(
    "spec",
    NON_ROOT_MINIMA,
    ids=[f"n{s.n}_{'single' if s.weights else 'gradient'}" for s in NON_ROOT_MINIMA],
)
def test_mask_sensitivity_at_non_root_minimum_diverges(spec):
    # P' is rounding alone there, which must not be read as a slope
    assert sensitivity_for_mask(spec) == math.inf


@pytest.mark.parametrize("n", [3, 5, 7, 9])
def test_mask_sensitivity_ten_steps_off_odd_n_minimum(n):
    # 1e-5 away the slope is signal again, and the error is propagated
    phi = math.pi / n + 1e-5
    assert sensitivity_for_mask(InterferometerSpec(n, phi)) == pytest.approx(
        dephased_sensitivity(n, phi, DephasingParams(0.0)), rel=1e-9
    )


def test_mask_sensitivity_rejects_n1():
    with pytest.raises(ValueError, match="n >= 2"):
        sensitivity_for_mask(InterferometerSpec(n=1, phi=0.3))


def test_single_mode_weights_at_zero_finite():
    val = sensitivity_for_mask(InterferometerSpec(n=4, phi=0.0, weights=(0.0, 1.0, 0.0, 0.0)))
    assert math.isfinite(val) and val > 0


def test_phase_free_weights_give_inf():
    # zero weights leave P = 1 at every phi: nothing to estimate
    assert sensitivity_for_mask(InterferometerSpec(n=3, phi=0.4, weights=(0.0, 0.0, 0.0))) == math.inf


def test_single_mode_mask_is_worse_than_gradient():
    n = 4
    single = sensitivity_for_mask(
        InterferometerSpec(n=n, phi=0.05, weights=(0.0, 1.0, 0.0, 0.0))
    )
    gradient = sensitivity_for_mask(InterferometerSpec(n=n, phi=0.05))
    assert single > gradient


def test_single_mode_mask_n2_finite():
    val = sensitivity_for_mask(InterferometerSpec(n=2, phi=0.1, weights=(1.0, 0.0)))
    assert math.isfinite(val) and val > 0


def test_custom_mask_gradient_weights_match_gradient():
    # weights (0, 1, 2, 3) reproduce the linear gradient
    spec = InterferometerSpec(n=4, phi=0.05, weights=(0.0, 1.0, 2.0, 3.0))
    assert sensitivity_for_mask(spec) == pytest.approx(
        dephased_sensitivity(4, 0.05, DephasingParams(0.0)), rel=1e-9
    )


def test_outcome_distribution_serialization():
    dist = fock_output_distribution(InterferometerSpec(n=2, phi=0.3))
    d = dist.to_json_dict()
    assert d["n"] == 2
    assert all({"occupation", "probability"} == set(e) for e in d["entries"])


def test_fock_probability_against_raw_permanent():
    # bunched outcome (2, 0) of the two-mode device, computed by hand from U
    spec = InterferometerSpec(n=2, phi=0.8)
    u = compose_qufti(spec)
    from qufti import permanent_with_repeats

    amp = permanent_with_repeats(u, [2, 0])
    dist = fock_output_distribution(spec)
    assert dist.probability_of((2, 0)) == pytest.approx(abs(amp) ** 2 / 2, abs=1e-13)
    assert abs(permanent_ryser(u)) ** 2 == pytest.approx(
        dist.probability_of((1, 1)), abs=1e-12
    )


def propagate_reference(p, dp):
    variance = max(p - p * p, 0.0)
    if dp == 0.0:
        return 0.0 if variance == 0.0 else math.inf
    return math.sqrt(variance) / dp


def sensitivity_rule_reference(n, phi, chi_sq):
    """Reference: the previous release's stationary-point rule, one float point at a time."""
    noiseless = chi_sq == 0.0
    if noiseless and abs(phi) < 1e-8:
        return phase_sensitivity_small_angle(n)
    if abs(math.sin(n * phi)) < 1e-12:
        if not noiseless:
            return math.inf
        if math.cos(n * phi) > 0:
            return phase_sensitivity_small_angle(n)
        if n % 2 == 0:
            return 1.0 / (n * math.prod(abs(n - 2 * j) / n for j in range(1, n) if 2 * j != n))
        return math.inf
    damping = math.exp(-0.5 * n * n * chi_sq)
    return propagate_reference(
        coincidence_probability(n, phi, damping), probability_derivative(n, phi, damping)
    )


def noon_rule_reference(big_n, phi, chi_sq):
    """Reference: the previous release's NOON rule, one float point at a time."""
    noiseless = chi_sq == 0.0
    if abs(math.sin(big_n * phi)) < 1e-12 or (noiseless and abs(phi) < 1e-8):
        return 1.0 / big_n if noiseless else math.inf
    d = math.exp(-0.5 * big_n * big_n * chi_sq)
    p = 0.5 * (1.0 + math.cos(big_n * phi) * d)
    return propagate_reference(p, 0.5 * big_n * abs(math.sin(big_n * phi)) * d)


def test_sensitivity_masks_match_scalar_rule():
    chi_sqs = [0.0, 0.005**2, 0.0, 0.3]  # noiseless and noisy points in one array
    for n in (2, 3, 4, 5, 6, 7, 8, 15):
        phis = [1e-9, -1e-9, 0.3, 1e-4, math.pi / n, 3 * math.pi / n]
        phis += [2 * math.pi * k / n for k in (-1, 1, 2)]
        table = dephased_sensitivity(n, np.array(phis)[:, None], DephasingParams(np.array(chi_sqs)))
        expected = [[sensitivity_rule_reference(n, phi, c) for c in chi_sqs] for phi in phis]
        assert table.tolist() == expected
        branches = {v for row in expected for v in row}
        assert {phase_sensitivity_small_angle(n), math.inf} <= branches
        # pi/n without noise: the finite P = 0 limit for even n, a divergence for odd n
        assert math.isfinite(expected[4][0]) == (n % 2 == 0)
        big_n = orc_photon_count(n)
        noon_phis = phis + [math.pi / big_n, 2 * math.pi / big_n]
        noon = noon_dephased_sensitivity(
            big_n, np.array(noon_phis)[:, None], DephasingParams(np.array(chi_sqs))
        )
        assert noon.tolist() == [
            [noon_rule_reference(big_n, phi, c) for c in chi_sqs] for phi in noon_phis
        ]
    # a float call still returns a float
    assert type(dephased_sensitivity(4, 0.3, DephasingParams(0.0))) is float
    assert type(noon_dephased_sensitivity(4, 0.3, DephasingParams(1e-4))) is float


def test_sensitivity_matches_mpmath_near_double_roots():
    # 0/0 at the P = 1 maxima (0, 2 pi / n) and, for even n, the P = 0 minimum
    # pi / n; the NOON signal has both at every N. The reference propagates
    # the same closed form in 50-digit arithmetic at the same float phi.
    mpmath = pytest.importorskip("mpmath")

    def reference(n, phi):
        x = n * mpmath.mpf(phi)
        c = mpmath.cos(x)
        f = [(2 * j * (n - j) * c + n * n - 2 * j * n + 2 * j * j) / (n * n) for j in range(1, n)]
        p = mpmath.fprod(f)
        dp = n * abs(mpmath.sin(x)) * mpmath.fsum(
            mpmath.mpf(2 * j * (n - j)) / (n * n) * mpmath.fprod(f[: j - 1] + f[j:])
            for j in range(1, n)
        )
        return mpmath.sqrt(p - p * p) / dp

    def noon_reference(big_n, phi):
        x = big_n * mpmath.mpf(phi)
        p = (1 + mpmath.cos(x)) / 2
        return mpmath.sqrt(p - p * p) / (big_n * abs(mpmath.sin(x)) / 2)

    offsets = [s * 10 ** (-k / 2) for k in range(8, 26) for s in (1, -1)]
    params = DephasingParams(0.0)
    for n in range(2, 13):
        for root in (0.0, 2 * math.pi / n, math.pi / n):
            phis = [root + o for o in offsets]
            with mpmath.workdps(50):
                noon_ref = [float(noon_reference(n, x)) for x in phis]
                ref = [float(reference(n, x)) for x in phis]
            noon = noon_dephased_sensitivity(n, np.array(phis), params)
            assert noon.tolist() == pytest.approx(noon_ref, rel=5e-7)
            if root == math.pi / n and n % 2:
                continue  # odd n: P > 0 at pi / n, no double root
            assert dephased_sensitivity(n, np.array(phis), params).tolist() == pytest.approx(
                ref, rel=5e-7
            )


@pytest.mark.parametrize("n", [18, 20])
def test_mask_sensitivity_large_n_away_from_roots(n):
    # P is 7.6e-13 and 3.4e-14 here: small, yet far from the P = 0 minimum at pi / n
    phi = 0.9 * math.pi / n
    assert sensitivity_for_mask(InterferometerSpec(n=n, phi=phi)) == pytest.approx(
        dephased_sensitivity(n, phi, DephasingParams(0.0)), rel=1e-9
    )


def test_mask_weights_are_free_of_a_global_phase():
    # equal weights only shift every mode's phase alike: P = 1 at every phi
    assert sensitivity_for_mask(InterferometerSpec(n=3, phi=0.4, weights=(1.0, 1.0, 1.0))) == math.inf
    shifted = sensitivity_for_mask(InterferometerSpec(n=3, phi=0.4, weights=(2.5, 3.5, 4.5)))
    assert shifted == sensitivity_for_mask(InterferometerSpec(n=3, phi=0.4, weights=(0.0, 1.0, 2.0)))


def _mp_probability(mpmath, n, weights, phi):
    """|Per U|^2 of U = V D V+ by the sum over permutations, in mpmath."""
    v = [[mpmath.expj(-2 * mpmath.pi * j * k / n) / mpmath.sqrt(n) for k in range(1, n + 1)]
         for j in range(1, n + 1)]
    d = [mpmath.expj(w * phi) for w in weights]
    u = [[mpmath.fsum(v[i][l] * d[l] * mpmath.conj(v[k][l]) for l in range(n)) for k in range(n)]
         for i in range(n)]
    per = mpmath.fsum(
        mpmath.fprod(u[i][j] for i, j in enumerate(perm)) for perm in itertools.permutations(range(n))
    )
    return abs(per) ** 2


MPMATH_MASKS = [
    (n, tuple(np.random.default_rng(n).uniform(-2.0, 2.0, n).tolist()), 0.3 + 0.4 * n)
    for n in range(2, 6)
] + [(n, tuple(float(j == 1) for j in range(n)), 0.9) for n in range(2, 6)]


@pytest.mark.parametrize(
    "n,weights,phi", MPMATH_MASKS, ids=[f"n{n}_{'e1' if phi == 0.9 else 'random'}" for n, _, phi in MPMATH_MASKS]
)
def test_mask_sensitivity_matches_mpmath_permutation_sum(n, weights, phi):
    # P from the permutation sum and P' from mpmath.diff, both in 40 digits
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        p = _mp_probability(mpmath, n, weights, mpmath.mpf(phi))
        dp = mpmath.diff(lambda x: _mp_probability(mpmath, n, weights, x), mpmath.mpf(phi))
        ref = float(mpmath.sqrt(p - p * p) / abs(dp))
    assert sensitivity_for_mask(InterferometerSpec(n, phi, weights)) == pytest.approx(ref, rel=1e-10)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("cast", [float, np.float64])
def test_mask_weight_spread_overflow_names_the_callers_values(cast):
    # weights[1] - weights[0] = 2e300 times phi overflows, though each weight times phi does not
    spec = InterferometerSpec(3, cast(1e8), tuple(map(cast, (-1e300, 1e300, 0.0))))
    with pytest.raises(ValueError, match=r"^2e\+300 \* phi must be finite, got phi = 100000000\.0$"):
        sensitivity_for_mask(spec)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_mask_weights_rescale_exactly():
    # delta_phi(w, phi) = delta_phi(w / s, s phi) / s: 1e200 times the single-mode mask near phi = 0
    huge = sensitivity_for_mask(InterferometerSpec(3, 1e-300, (0.0, 1e200, 0.0)))
    unit = sensitivity_for_mask(InterferometerSpec(3, 1e-100, (0.0, 1.0, 0.0)))
    assert huge == pytest.approx(unit / 1e200, rel=1e-12)
    tiny = sensitivity_for_mask(InterferometerSpec(3, 0.9e10, (0.0, 1e-10, 0.0)))
    assert tiny == pytest.approx(1e10 * sensitivity_for_mask(InterferometerSpec(3, 0.9, (0.0, 1.0, 0.0))), rel=1e-12)


@pytest.mark.parametrize(
    "call,error,message",
    [
        (lambda: permanent_closed_form(0, 0.1), ValueError, "need n >= 1, got 0"),
        (
            lambda: OutcomeDistribution(1, [((1,), 1.0)]).probability_of((2,)),
            KeyError,
            "no outcome (2,)",
        ),
        (lambda: orc_photon_count(0), ValueError, "need n >= 1, got 0"),
        (lambda: protocol_efficiency(0.9, 0.9, 0), ValueError, "need n >= 1, got 0"),
        (
            lambda: noon_dephased_sensitivity(1, 0.1, DephasingParams(0.0)),
            ValueError,
            "need N >= 2, got 1",
        ),
    ],
    ids=["closed_form", "probability_of", "orc_photon_count", "protocol_efficiency", "noon"],
)
def test_input_guards_name_the_bad_value(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert info.value.args == (message,)
