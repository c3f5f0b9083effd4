"""Acceptance gate: one test per headline claim, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines.
"""

import math

import numpy as np
import pytest

from qufti import (
    DephasingParams,
    InterferometerSpec,
    coincidence_probability,
    compose_qufti,
    conjecture_verify,
    dephased_sensitivity,
    fock_output_distribution,
    heisenberg_limit,
    noon_dephased_sensitivity,
    orc_photon_count,
    permanent_closed_form,
    phase_sensitivity_small_angle,
    probability_derivative,
    protocol_efficiency,
    shotnoise_limit,
)
from qufti.metrology import dephased_probability


def report(criterion: str, ok: bool):
    print(f"{'PASS' if ok else 'FAIL'}: {criterion}")
    assert ok


def test_criterion_1_conjecture_brute_force():
    result = conjecture_verify(12, 64)
    report(
        f"1. product-form permanent vs Ryser, n=2..12, 64 phases: "
        f"max |error| = {result.max_abs_error:.3e} < 1e-9",
        result.max_abs_error < 1e-9,
    )


def test_criterion_2_analytic_table_n1_to_6():
    def table_value(n, phi):
        z = np.exp(1j * n * phi)
        if n == 1:
            return 1.0 + 0j
        if n == 2:
            return np.exp(1j * phi) * np.cos(phi)
        if n == 3:
            return (2 + z) * (1 + 2 * z) / 9
        if n == 4:
            return (1 + z) * (3 + z) * (1 + 3 * z) / 32
        if n == 5:
            return (4 + z) * (3 + 2 * z) * (2 + 3 * z) * (1 + 4 * z) / 625
        return (1 + z) * (2 + z) * (5 + z) * (1 + 2 * z) * (1 + 5 * z) / 648

    rng = np.random.default_rng(2026)
    worst = 0.0
    for n in range(1, 7):
        for phi in rng.uniform(0, 2 * np.pi, 10):
            worst = max(worst, abs(permanent_closed_form(n, phi) - table_value(n, phi)))
    report(
        f"2. analytic permanent table n=1..6 at 10 random phases: "
        f"max |error| = {worst:.3e} < 1e-12",
        worst < 1e-12,
    )


def test_criterion_3_small_angle_law_and_scaling():
    worst_rel = 0.0
    for n in range(2, 11):
        closed = math.sqrt(3 / (2 * n * (n + 1) * (n - 1)))
        numeric = dephased_sensitivity(n, 1e-4, DephasingParams(0.0))
        worst_rel = max(worst_rel, abs(numeric - closed) / closed)
    ns = np.arange(10, 21)
    slope = np.polyfit(
        np.log(ns), np.log([phase_sensitivity_small_angle(int(n)) for n in ns]), 1
    )[0]
    ok = worst_rel < 1e-3 and abs(slope + 1.5) < 0.02
    report(
        f"3. small-angle law: numeric vs closed form rel err {worst_rel:.2e} < 1e-3; "
        f"log-log slope {slope:.4f} = -1.5 +/- 0.02",
        ok,
    )


def test_criterion_4_baseline_ordering():
    ok = True
    worst_margin = 0.0
    for n in range(2, 21):
        dphi = phase_sensitivity_small_angle(n)
        ok &= heisenberg_limit(n) <= dphi <= shotnoise_limit(n)
        worst_margin = max(worst_margin, dphi / shotnoise_limit(n))
    ok &= worst_margin < 0.72
    report(
        f"4. HL <= sensitivity <= SNL for n=2..20 under ordinal resource counting; "
        f"max sensitivity/SNL = {worst_margin:.4f} < 0.72",
        ok,
    )


def test_criterion_5_efficiency_spot_value():
    eta = protocol_efficiency(0.42, 0.98, 10)
    report(
        f"5. protocol efficiency (0.42*0.98)^10 = {eta:.3e} in [1.3e-4, 1.45e-4]",
        1.3e-4 <= eta <= 1.45e-4,
    )


def test_criterion_6_distribution_normalization():
    worst_total = 0.0
    worst_ones = 0.0
    for n in range(2, 6):
        for phi in np.linspace(0.05, 3.0, 8):
            dist = fock_output_distribution(InterferometerSpec(n=n, phi=float(phi)))
            worst_total = max(worst_total, abs(dist.total() - 1.0))
            worst_ones = max(
                worst_ones,
                abs(
                    dist.probability_of(tuple([1] * n))
                    - coincidence_probability(n, float(phi))
                ),
            )
    report(
        f"6. output distribution sums to 1 (residual {worst_total:.2e} < 1e-9) and "
        f"all-ones entry matches product form (residual {worst_ones:.2e} < 1e-11)",
        worst_total < 1e-9 and worst_ones < 1e-11,
    )


def test_criterion_7_derivative_vs_finite_difference():
    rng = np.random.default_rng(7)
    h = 1e-6
    worst_rel = 0.0
    checked = 0
    while checked < 100:
        n = int(rng.integers(2, 11))
        phi = float(rng.uniform(-math.pi, math.pi))
        if abs(math.sin(n * phi)) <= 1e-3:
            continue
        fd = abs(
            coincidence_probability(n, phi + h) - coincidence_probability(n, phi - h)
        ) / (2 * h)
        worst_rel = max(worst_rel, abs(probability_derivative(n, phi) - fd) / fd)
        checked += 1
    report(
        f"7. analytic derivative vs central finite difference at 100 random points: "
        f"max rel err {worst_rel:.2e} < 1e-5",
        worst_rel < 1e-5,
    )


def test_criterion_8a_dephasing_monotone_and_reduction():
    phi = 0.01
    monotone = True
    for n in (2, 4, 6, 8, 10):
        values = [
            dephased_sensitivity(n, phi, DephasingParams(chi**2))
            for chi in np.linspace(0.0, 0.01, 21)
        ]
        monotone &= all(b >= a - 1e-15 for a, b in zip(values, values[1:]))
    zero = DephasingParams(0.0)

    def propagated(n, p):
        prob = coincidence_probability(n, p)
        return math.sqrt(prob - prob * prob) / probability_derivative(n, p)

    reduction = all(
        abs(dephased_probability(n, p, zero) - coincidence_probability(n, p)) < 1e-12
        and abs(dephased_sensitivity(n, p, zero) - propagated(n, p)) < 1e-12
        for n in (2, 5, 9)
        for p in (0.01, 0.3)
    )
    # periodic maxima phi = 2 pi k / n: small-angle value without noise, inf with it
    maxima = [(n, 2 * math.pi * k / n) for n in range(2, 13) for k in (1, 2)]
    periodic = all(
        dephased_sensitivity(n, p, zero) == phase_sensitivity_small_angle(n)
        and math.isinf(dephased_sensitivity(n, p, DephasingParams(0.005**2)))
        for n, p in maxima
    )
    report(
        "8a. dephasing: sensitivity non-decreasing over the noise sweep; zero "
        "noise reduces every dephased quantity to its ideal counterpart and "
        "gives the small-angle value at every periodic maximum (inf under noise)",
        monotone and reduction and periodic,
    )


def test_criterion_8b_noon_ordering_at_equal_resources():
    # Ordering at equal ORC photon number N = 1 + n(n-1)/2, chi = 0.005,
    # <dchi^2> = chi^2 (as the CLI and criterion 8a pass it), phi = 0.01.
    # The interferometer's cosine term is damped by exp(-n^2 <dchi^2>/2),
    # the NOON signal (1 + d cos N phi)/2 by d = exp(-N^2 <dchi^2>/2).
    # The NOON comparator therefore wins at moderate n and only loses once
    # its quadratic photon count makes d collapse. At n = 6: N = 16,
    # d = e^-0.0032, so delta_phi_NOON ~ sqrt((1-d)/2 + N^2 phi^2/4) /
    # (N^2 phi/2) ~ 0.070, while the interferometer sits near its
    # small-angle value sqrt(3/420) ~ 0.085 (0.0946 at phi = 0.01). The
    # ratio NOON/interferometer rises to 0.77 at n = 22 and jumps to 1.09
    # at n = 23; the NOON comparator stays worse up to n = 30.
    phi = 0.01
    params = DephasingParams(0.005**2)
    noon_worse = [
        n
        for n in range(6, 31)
        if noon_dephased_sensitivity(orc_photon_count(n), phi, params)
        > dephased_sensitivity(n, phi, params)
    ]
    crossover = noon_worse[0] if noon_worse else None
    report(
        f"8b. at chi=0.005, phi=0.01 the NOON comparator is worse than the "
        f"interferometer exactly for n = 23..30 of n = 6..30 "
        f"(crossover at n = {crossover}, worse at n = {noon_worse})",
        noon_worse == list(range(23, 31)),
    )


def test_criterion_9_identity_sanity():
    worst_p = 0.0
    worst_u = 0.0
    for n in range(1, 17):
        worst_p = max(worst_p, abs(coincidence_probability(n, 0.0) - 1.0))
        u = compose_qufti(InterferometerSpec(n=n, phi=0.0))
        worst_u = max(worst_u, float(np.max(np.abs(u - np.eye(n)))))
    report(
        f"9. zero phase: P(n,0)=1 (residual {worst_p:.2e}) and U(0)=I "
        f"(residual {worst_u:.2e}), both < 1e-12, n <= 16",
        worst_p < 1e-12 and worst_u < 1e-12,
    )
