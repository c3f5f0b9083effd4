"""Workload definitions: the CLI command set each workload runs, and its output check.

A workload turns a seed into the argument lists of one invocation (one closed-loop
request) and checks the files that invocation wrote. The checks compare against
references written out here, independently of the qufti package, and only use the
standard library, so they also run where the package cannot be imported.
"""

from __future__ import annotations

import cmath
import csv
import itertools
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# verify: n = 2..12, 64 phases each, one process.
VERIFY_N_MAX = 12
VERIFY_SAMPLES = 64
VERIFY_THRESHOLD = 1e-9

# distribution: every bunched outcome of 7 photons in 7 modes.
DIST_N = 7
DIST_OUTCOMES = math.comb(2 * DIST_N - 1, DIST_N)  # 1716
DIST_TOL = 1e-12
# every entry against the stdlib Ryser reference: |p - ref| <= rel * ref + abs
DIST_ENTRY_REL, DIST_ENTRY_ABS = 1e-9, 1e-18

# sweeps: three commands, ~146k CSV rows in total.
SCAN_N = 20
SCAN_STEPS = 100_001
DEPHASING_N = list(range(2, 25))
DEPHASING_STEPS = 2001
DEPHASING_CHI_MAX = 0.01  # the CLI default
SENS_N_MIN, SENS_N_MAX = 2, 25
SWEEP_REL_TOL = 1e-9

# complex-step width for the derivative reference: exact to rounding, no cancellation
COMPLEX_STEP = 1e-30


@dataclass(frozen=True)
class Workload:
    """A workload; BENCHMARK.json records why each was chosen."""

    name: str
    # (seed, output dir) -> argument lists of one invocation, run in order
    commands: Callable[[int, Path], list[list[str]]]
    # (output dir, seed) -> (items produced, problems found); no problems means correct
    check: Callable[[Path, int], tuple[int, list[str]]]


def probability_reference(n: int, phi: complex, damping: float = 1.0) -> complex:
    """Coincidence probability from the paper's product form.

    |Per U|^2 = prod_j |j e^{i n phi} + n - j|^2 / n^2 expands to
    prod_j (n^2 - 2jn + 2j^2 + 2j(n - j) cos(n phi)) / n^2; dephasing scales the
    cosine term. Accepts a complex phi so the complex-step derivative can use it.
    """
    c = cmath.cos(n * phi) * damping
    p: complex = 1.0
    for j in range(1, n):
        p *= (n * n - 2 * j * n + 2 * j * j + 2 * j * (n - j) * c) / (n * n)
    return p


def _propagated(p: float, dp: float) -> float:
    return math.sqrt(max(p - p * p, 0.0)) / dp if dp else math.inf


def dephased_sensitivity_reference(n: int, phi: float, chi: float) -> float:
    damping = math.exp(-0.5 * n * n * chi * chi)
    p = probability_reference(n, phi, damping).real
    dp = abs(probability_reference(n, complex(phi, COMPLEX_STEP), damping).imag) / COMPLEX_STEP
    return _propagated(p, dp)


def noon_sensitivity_reference(n: int, phi: float, chi: float) -> float:
    big_n = 1 + n * (n - 1) // 2
    damping = math.exp(-0.5 * big_n * big_n * chi * chi)
    p = 0.5 * (1 + math.cos(big_n * phi) * damping)
    dp = 0.5 * big_n * abs(math.sin(big_n * phi)) * damping
    return _propagated(p, dp)


def _close(value: float, ref: float, rel: float, abs_tol: float = 0.0) -> bool:
    if math.isinf(ref) or math.isinf(value):
        return value == ref
    return abs(value - ref) <= rel * abs(ref) + abs_tol


def _read_csv(path: Path, header: list[str]) -> tuple[list[list[float]], list[str]]:
    """Rows of a CSV file as floats, and any problems with its shape."""
    if not path.is_file():
        return [], [f"{path.name}: missing"]
    with path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != header:
        return [], [f"{path.name}: header {rows[:1]} != {header}"]
    data = []
    for k, row in enumerate(rows[1:], start=1):
        if len(row) != len(header):
            return [], [f"{path.name}: row {k} has {len(row)} fields"]
        try:
            data.append([float(x) for x in row])
        except ValueError:
            return [], [f"{path.name}: row {k} is not numeric: {row}"]
    return data, []


# --- verify -------------------------------------------------------------------

def _verify_commands(seed: int, out: Path) -> list[list[str]]:
    # the phi grid is fixed by --samples, so the seed has no effect here
    return [[
        "verify", "--n-max", str(VERIFY_N_MAX), "--samples", str(VERIFY_SAMPLES),
        "--threads", "1", "--out", str(out / "report.json"),
    ]]


def _verify_check(out: Path, seed: int) -> tuple[int, list[str]]:
    path = out / "report.json"
    try:
        report = json.loads(path.read_text(encoding="utf-8"))
        err = float(report["max_abs_error"])
        n_range, samples = report["n_range"], report["samples"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return 0, [f"report.json unreadable: {exc!r}"]
    problems = []
    if not err < VERIFY_THRESHOLD:
        problems.append(f"max_abs_error {err!r} >= {VERIFY_THRESHOLD}")
    if n_range != [2, VERIFY_N_MAX]:
        problems.append(f"n_range {n_range} != [2, {VERIFY_N_MAX}]")
    if samples != VERIFY_SAMPLES:
        problems.append(f"samples {samples} != {VERIFY_SAMPLES}")
    items = (VERIFY_N_MAX - 1) * VERIFY_SAMPLES
    return (0 if problems else items), problems


# --- distribution -------------------------------------------------------------

def distribution_phi(seed: int) -> float:
    return random.Random(seed).uniform(0.05, 2 * math.pi - 0.05)


def _distribution_commands(seed: int, out: Path) -> list[list[str]]:
    return [[
        "distribution", "--n", str(DIST_N), "--phi", repr(distribution_phi(seed)),
        "--out", str(out / "distribution.json"),
    ]]


def interferometer_reference(n: int, phi: float) -> list[list[complex]]:
    """U = V D V^+ from its definition, as nested lists.

    V[j][m] = exp(-2 pi i j m / n) / sqrt(n) with 1-based j, m, and the gradient
    mask D = diag(exp(i (m - 1) phi)).
    """
    def v(j: int, m: int) -> complex:
        return cmath.exp(-2j * math.pi * j * m / n) / math.sqrt(n)

    return [[sum(v(j, m) * cmath.exp(1j * (m - 1) * phi) * v(k, m).conjugate()
                 for m in range(1, n + 1))
             for k in range(1, n + 1)] for j in range(1, n + 1)]


def permanent_repeats_reference(u: list[list[complex]], mult: tuple[int, ...]) -> complex:
    """Permanent of u with column c repeated mult[c] times, by Ryser with multiplicities.

    Per = (-1)^n sum over 0 <= k_c <= mult[c] of
    (-1)^(sum k) prod_c C(mult[c], k_c) prod_i sum_c k_c u[i][c].
    """
    cols = [c for c, s in enumerate(mult) if s]
    total = 0j
    for ks in itertools.product(*(range(mult[c] + 1) for c in cols)):
        term: complex = (-1) ** sum(ks)
        for c, k in zip(cols, ks):
            term *= math.comb(mult[c], k)
        for row in u:
            term *= sum(k * row[c] for c, k in zip(cols, ks))
        total += term
    return (-1) ** len(u) * total


def _compositions(n: int) -> set[tuple[int, ...]]:
    outcomes = set()
    for placement in itertools.combinations_with_replacement(range(n), n):
        occ = [0] * n
        for mode in placement:
            occ[mode] += 1
        outcomes.add(tuple(occ))
    return outcomes


def _distribution_check(out: Path, seed: int) -> tuple[int, list[str]]:
    path = out / "distribution.json"
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
        entries = [(tuple(e["occupation"]), float(e["probability"])) for e in doc["entries"]]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return 0, [f"distribution.json unreadable: {exc!r}"]
    problems = []
    if doc.get("n") != DIST_N:
        problems.append(f"n {doc.get('n')} != {DIST_N}")
    if len(entries) != DIST_OUTCOMES:
        problems.append(f"{len(entries)} entries, expected {DIST_OUTCOMES}")
    probs = dict(entries)
    if len(probs) != len(entries) or set(probs) != _compositions(DIST_N):
        problems.append("occupations are not exactly the compositions of n into n modes")
    if any(not (p >= 0.0 and math.isfinite(p)) for p in probs.values()):
        problems.append("negative or non-finite probability")
    if not problems:  # every occupation is a composition, so each has a reference
        u = interferometer_reference(DIST_N, distribution_phi(seed))
        for occ, p in entries:
            ref = abs(permanent_repeats_reference(u, occ)) ** 2 / math.prod(map(math.factorial, occ))
            if not abs(p - ref) <= DIST_ENTRY_REL * ref + DIST_ENTRY_ABS:
                problems.append(f"outcome {occ}: {p!r} != Ryser reference {ref!r}")
                break
    residual = abs(math.fsum(p for _, p in entries) - 1.0)
    if not residual < DIST_TOL:
        problems.append(f"normalization residual {residual:.3e} >= {DIST_TOL}")
    ones = (1,) * DIST_N
    ref = probability_reference(DIST_N, distribution_phi(seed)).real
    if ones not in probs or not abs(probs[ones] - ref) < DIST_TOL:
        problems.append(f"all-ones outcome {probs.get(ones)!r} != product form {ref!r}")
    return (0 if problems else len(entries)), problems


# --- sweeps -------------------------------------------------------------------

def sweep_inputs(seed: int) -> tuple[float, float, float]:
    """(phase-scan phi_min, phase-scan phi_max, dephasing phi) for a seed."""
    rng = random.Random(seed)
    phi_min = rng.uniform(0.0, math.pi)
    phi_max = phi_min + rng.uniform(math.pi / 2, math.pi)
    # small and nonzero: sin(n phi) stays away from 0 for every n in the list
    dephasing_phi = rng.uniform(0.005, 0.05)
    return phi_min, phi_max, dephasing_phi


def _sweeps_commands(seed: int, out: Path) -> list[list[str]]:
    phi_min, phi_max, dephasing_phi = sweep_inputs(seed)
    return [
        ["phase-scan", "--n", str(SCAN_N), "--steps", str(SCAN_STEPS),
         "--phi-min", repr(phi_min), "--phi-max", repr(phi_max),
         "--out", str(out / "phase_scan.csv")],
        ["dephasing", "--n-list", *map(str, DEPHASING_N), "--steps", str(DEPHASING_STEPS),
         "--phi", repr(dephasing_phi), "--out", str(out / "dephasing.csv")],
        ["sensitivity-scan", "--n-min", str(SENS_N_MIN), "--n-max", str(SENS_N_MAX),
         "--out", str(out / "sensitivity_scan.csv")],
    ]


def _check_phase_scan(out: Path, phi_min: float, phi_max: float) -> tuple[int, list[str]]:
    rows, problems = _read_csv(out / "phase_scan.csv", ["phi", "P"])
    if problems:
        return 0, problems
    if len(rows) != SCAN_STEPS:
        return 0, [f"phase_scan.csv: {len(rows)} rows, expected {SCAN_STEPS}"]
    step = (phi_max - phi_min) / (SCAN_STEPS - 1)
    for k, (phi, p) in enumerate(rows):
        if not abs(phi - (phi_min + k * step)) <= 1e-12:
            return 0, [f"phase_scan.csv: row {k + 1} phi {phi!r} off the grid"]
        ref = probability_reference(SCAN_N, phi).real
        if not _close(p, ref, 1e-12, 1e-14):
            return 0, [f"phase_scan.csv: row {k + 1} P {p!r} != product form {ref!r}"]
    return len(rows), []


def _check_dephasing(out: Path, phi: float) -> tuple[int, list[str]]:
    header = ["n", "chi", "delta_phi_qufti", "delta_phi_noon"]
    rows, problems = _read_csv(out / "dephasing.csv", header)
    if problems:
        return 0, problems
    expected = len(DEPHASING_N) * DEPHASING_STEPS
    if len(rows) != expected:
        return 0, [f"dephasing.csv: {len(rows)} rows, expected {expected}"]
    for k, (n, chi, dphi, dphi_noon) in enumerate(rows):
        n_ref = DEPHASING_N[k // DEPHASING_STEPS]
        chi_ref = DEPHASING_CHI_MAX * (k % DEPHASING_STEPS) / (DEPHASING_STEPS - 1)
        if n != n_ref or not abs(chi - chi_ref) <= 1e-15:
            return 0, [f"dephasing.csv: row {k + 1} (n, chi) = ({n}, {chi!r}) off the grid"]
        ref = dephased_sensitivity_reference(n_ref, phi, chi)
        ref_noon = noon_sensitivity_reference(n_ref, phi, chi)
        if not (_close(dphi, ref, SWEEP_REL_TOL) and _close(dphi_noon, ref_noon, SWEEP_REL_TOL)):
            return 0, [f"dephasing.csv: row {k + 1} ({dphi!r}, {dphi_noon!r}) "
                       f"!= reference ({ref!r}, {ref_noon!r})"]
    return len(rows), []


def _check_sensitivity_scan(out: Path) -> tuple[int, list[str]]:
    rows, problems = _read_csv(
        out / "sensitivity_scan.csv", ["n", "phi", "P", "dP", "delta_phi", "snl", "hl"]
    )
    if problems:
        return 0, problems
    ns = list(range(SENS_N_MIN, SENS_N_MAX + 1))
    if [row[0] for row in rows] != ns:
        return 0, [f"sensitivity_scan.csv: n column is not {SENS_N_MIN}..{SENS_N_MAX}"]
    for (n, phi, p, dp, delta, snl, hl) in rows:
        big_n = 1 + n * (n - 1) / 2
        expected = (0.0, 1.0, 0.0, math.sqrt(3 / (2 * n * (n + 1) * (n - 1))),
                    1 / math.sqrt(big_n), 1 / big_n)
        if not all(_close(v, e, 1e-14) for v, e in zip((phi, p, dp, delta, snl, hl), expected)):
            return 0, [f"sensitivity_scan.csv: n = {n:g} differs from the small-angle law"]
    return len(rows), []


def _sweeps_check(out: Path, seed: int) -> tuple[int, list[str]]:
    phi_min, phi_max, dephasing_phi = sweep_inputs(seed)
    items, problems = 0, []
    for count, found in (
        _check_phase_scan(out, phi_min, phi_max),
        _check_dephasing(out, dephasing_phi),
        _check_sensitivity_scan(out),
    ):
        items += count
        problems += found
    return (0 if problems else items), problems


# verify: few large permanents; distribution: many tiny repeated-column ones, same
# kernel; sweeps: per-phi products and CSV writing, no permanent at all.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("verify", _verify_commands, _verify_check),
        Workload("distribution", _distribution_commands, _distribution_check),
        Workload("sweeps", _sweeps_commands, _sweeps_check),
    )
}
