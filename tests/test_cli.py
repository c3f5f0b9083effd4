"""CLI commands: exit codes, file shapes, determinism."""

import errno
import json
import math
import os
import re
import stat
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from qufti import (
    DephasingParams,
    InterferometerSpec,
    coincidence_probability,
    dephased_sensitivity,
    fock_output_distribution,
    noon_dephased_sensitivity,
    orc_photon_count,
    phase_sensitivity_small_angle,
)
import qufti.cli as cli
from qufti.cli import _BLOCK, _write_text, main

ROOT = Path(__file__).resolve().parents[1]


def run(argv):
    return main(argv)


def test_verify_ok(tmp_path):
    out = tmp_path / "report.json"
    assert run(["verify", "--n-max", "6", "--samples", "16", "--out", str(out), "--threads", "1"]) == 0
    report = json.loads(out.read_text())
    assert report["n_range"] == [2, 6]
    assert report["samples"] == 16
    assert report["max_abs_error"] < 1e-9


def test_verify_below_range_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(["verify", "--n-max", "1", "--out", str(tmp_path / "r.json")])
    assert exc.value.code == 2


def test_verify_detects_corrupted_product_form(tmp_path, monkeypatch):
    import qufti.analytics as analytics

    original = analytics.permanent_closed_form

    def corrupted(n, phi):
        return -original(n, phi)

    monkeypatch.setattr(analytics, "permanent_closed_form", corrupted)
    out = tmp_path / "bad.json"
    assert run(["verify", "--n-max", "4", "--samples", "8", "--out", str(out), "--threads", "1"]) == 1


def _nan_closed_form(monkeypatch, at_n):
    import qufti.analytics as analytics

    original = analytics.permanent_closed_form

    def nan_at(n, phi):
        return complex(math.nan, 0.0) if at_n is None or n == at_n else original(n, phi)

    monkeypatch.setattr(analytics, "permanent_closed_form", nan_at)


@pytest.mark.parametrize("at_n", [3, None])
def test_verify_nan_error_fails_at_first_nan(tmp_path, capsys, monkeypatch, at_n):
    # a NaN error is the worst case, whether at one n or at every n
    _nan_closed_form(monkeypatch, at_n)
    out = tmp_path / "nan.json"
    assert run(["verify", "--n-max", "5", "--samples", "4", "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    n_first = 2 if at_n is None else at_n
    assert math.isnan(report["max_abs_error"])
    assert report["worst_case"] == {"n": n_first, "phi": 0.0}
    captured = capsys.readouterr()
    assert "conjecture holds" not in captured.out
    assert f"FAILED: max |error| = nan at n={n_first}, phi=0.0" in captured.err


def test_phase_scan_first_row_unity(tmp_path):
    out = tmp_path / "scan.csv"
    assert run(["phase-scan", "--n", "4", "--steps", "361", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "phi,P"
    assert len(lines) == 362
    phi0, p0 = lines[1].split(",")
    assert float(phi0) == 0.0
    assert float(p0) == pytest.approx(1.0, abs=1e-12)


def test_phase_scan_n2_zero_at_half_pi(tmp_path):
    out = tmp_path / "scan.csv"
    assert run([
        "phase-scan", "--n", "2", "--phi-min", str(math.pi / 2),
        "--phi-max", str(math.pi), "--steps", "2", "--out", str(out),
    ]) == 0
    first = out.read_text().splitlines()[1]
    assert float(first.split(",")[1]) == pytest.approx(0.0, abs=1e-12)


def test_phase_scan_single_step_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(["phase-scan", "--n", "4", "--steps", "1", "--out", str(tmp_path / "s.csv")])
    assert exc.value.code == 2


def test_sensitivity_scan_rows(tmp_path):
    out = tmp_path / "sens.csv"
    assert run(["sensitivity-scan", "--n-min", "2", "--n-max", "10", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,phi,P,dP,delta_phi,snl,hl"
    rows = {int(line.split(",")[0]): line.split(",") for line in lines[1:]}
    assert len(rows) == 9
    _, _, _, _, dphi2, snl2, hl2 = map(float, rows[2][:7])
    assert (dphi2, snl2, hl2) == (
        pytest.approx(0.5),
        pytest.approx(1 / math.sqrt(2)),
        pytest.approx(0.5),
    )
    _, _, _, _, dphi10, snl10, hl10 = map(float, rows[10][:7])
    assert dphi10 == pytest.approx(0.03893, abs=1e-5)
    assert snl10 == pytest.approx(0.1474, abs=1e-4)
    assert hl10 == pytest.approx(1 / 46)
    for fields in rows.values():
        assert fields[1:4] == ["0.0", "1.0", "0.0"]
        _, _, _, _, dphi, snl, hl = map(float, fields[:7])
        assert hl - 1e-12 <= dphi <= snl + 1e-12


def test_sensitivity_scan_has_no_n_cap(tmp_path):
    out = tmp_path / "sens.csv"
    assert run(["sensitivity-scan", "--n-min", "2", "--n-max", "40", "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [int(r[0]) for r in rows] == list(range(2, 41))
    for fields in rows:
        n, dphi = int(fields[0]), float(fields[4])
        assert dphi == pytest.approx(math.sqrt(3 / (2 * n * (n + 1) * (n - 1))), rel=1e-14)


def test_dephasing_shape_and_monotonicity(tmp_path):
    out = tmp_path / "deph.csv"
    assert run(["dephasing", "--n-list", "4", "6", "--steps", "11", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,chi,delta_phi_qufti,delta_phi_noon"
    assert len(lines) == 1 + 2 * 11
    per_n = {}
    for line in lines[1:]:
        n, chi, dq, dn = line.split(",")
        per_n.setdefault(int(n), []).append((float(chi), float(dq)))
    for n, rows in per_n.items():
        ideal = dephased_sensitivity(n, 0.01, DephasingParams(0.0))
        assert rows[0][1] == pytest.approx(ideal, abs=1e-9)
        values = [dq for _, dq in rows]
        assert values == sorted(values)


def test_dephasing_at_double_roots_gives_their_limits(tmp_path):
    # phi = pi/4 + 1e-9: near the P = 0 minimum for n = 4, the NOON maximum for N = 16
    out = tmp_path / "deph.csv"
    assert run([
        "dephasing", "--n-list", "2", "4", "6", "--phi", "0.7853981643974483",
        "--chi-max", "0.001", "--steps", "2", "--out", str(out),
    ]) == 0
    rows = {(int(n), float(chi)): (float(d), float(d_noon))
            for n, chi, d, d_noon in (line.split(",") for line in out.read_text().splitlines()[1:])}
    assert len(rows) == 6
    assert all(d > 0.0 and d_noon > 0.0 for d, d_noon in rows.values())
    assert rows[4, 0.0][0] == 1.0
    assert rows[6, 0.0][1] == 1 / 16


def test_dephasing_at_zero_phi_gives_noiseless_limits(tmp_path):
    # phi = 0 is the P = 1 maximum of both devices: without noise the limits,
    # under noise a stationary point, inf (as at phi = 2 pi / n)
    out = tmp_path / "deph.csv"
    assert run(["dephasing", "--n-list", "2", "3", "4", "--phi", "0", "--steps", "3",
                "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert len(rows) == 9
    for n, chi, d, d_noon in rows:
        n = int(n)
        if float(chi) == 0.0:
            assert float(d) == phase_sensitivity_small_angle(n)
            assert float(d_noon) == 1 / orc_photon_count(n)
        else:
            assert float(d) == float(d_noon) == math.inf


def test_distribution_json(tmp_path, capsys):
    out = tmp_path / "dist.json"
    assert run(["distribution", "--n", "3", "--phi", "0.7", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["n"] == 3
    assert len(data["entries"]) == 10
    total = sum(e["probability"] for e in data["entries"])
    assert total == pytest.approx(1.0, abs=1e-9)
    match = re.fullmatch(
        r"distribution: outcomes=10 residual=(\S+) elapsed_s=\d+\.\d+\n", capsys.readouterr().err
    )
    assert match and float(match[1]) < 1e-9


@pytest.mark.parametrize("n", range(1, 8))
def test_distribution_json_bytes_match_json_dumps(tmp_path, n):
    # the CLI writes the indented JSON entry by entry; json.dumps is the reference
    out = tmp_path / "dist.json"
    for phi in ("0", "-0.0", "0.7", "-2.2"):
        assert run(["distribution", "--n", str(n), "--phi", phi, "--out", str(out)]) == 0
        dist = fock_output_distribution(InterferometerSpec(n=n, phi=float(phi)))
        assert out.read_bytes() == (json.dumps(dist.to_json_dict(), indent=2) + "\n").encode()


def test_distribution_zero_phase(tmp_path):
    out = tmp_path / "dist.json"
    assert run(["distribution", "--n", "3", "--phi", "0", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    ones = [e for e in data["entries"] if e["occupation"] == [1, 1, 1]]
    assert ones[0]["probability"] == pytest.approx(1.0, abs=1e-12)


def test_distribution_size_limit(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(["distribution", "--n", "10", "--phi", "0.1", "--out", str(tmp_path / "d.json")])
    assert exc.value.code == 2


def test_byte_identical_reruns(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        run(["phase-scan", "--n", "5", "--steps", "50", "--out", str(out)])
    assert a.read_bytes() == b.read_bytes()
    # --threads is accepted and ignored: different values, same bytes
    a, b = tmp_path / "ra.json", tmp_path / "rb.json"
    for out, threads in ((a, "1"), (b, "2")):
        run(["verify", "--n-max", "5", "--samples", "8", "--out", str(out), "--threads", threads])
    assert a.read_bytes() == b.read_bytes()
    a, b = tmp_path / "da.json", tmp_path / "db.json"
    for out in (a, b):
        run(["distribution", "--n", "5", "--phi", "0.7", "--out", str(out)])
    assert a.read_bytes() == b.read_bytes()


def test_reproduce_figures_script(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "reproduce_figures.py"),
         "--n-max", "6", "--outdir", str(tmp_path)],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "conjecture_report.json", "dephasing.csv", "phase_scan_n2.csv", "phase_scan_n4.csv",
        "phase_scan_n6.csv", "phase_scan_n8.csv", "sensitivity_scan.csv",
    ]
    assert json.loads((tmp_path / "conjecture_report.json").read_text())["n_range"] == [2, 6]


@pytest.mark.parametrize("n", [10**103, 10**155], ids=["10**103", "10**155"])
def test_sensitivity_scan_beyond_the_finite_product_exits_2(tmp_path, capsys, n):
    # the law's 2n(n + 1)(n - 1) overflowed: 10**103 wrote delta_phi 0.0 and exited 0, and
    # 10**155 ended in a traceback from the shot-noise limit
    out = tmp_path / "sens.csv"
    with pytest.raises(SystemExit) as exc:
        run(["sensitivity-scan", "--n-min", str(n), "--n-max", str(n), "--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()
    assert f"need n <= {2**341 - 2**287}, got {n}" in capsys.readouterr().err


# Domain limits are checked by the library alone; the CLI maps its error to exit 2.
LIBRARY_DOMAIN_ERRORS = [
    (["verify", "--n-max", "31"], "need n_max <= 30, got 31"),
    (["verify", "--n-max", "1"], "need n_max >= 2, got 1"),
    (["verify", "--n-max", "4", "--samples", "0"], "need phi_samples >= 1, got 0"),
    (["distribution", "--n", "10", "--phi", "0.1"], "need n <= 9, got 10"),
    (["distribution", "--n", "0", "--phi", "0.1"], "need n >= 1, got 0"),
    (["phase-scan", "--n", "0"], "need n >= 1, got 0"),
    (["sensitivity-scan", "--n-min", "1", "--n-max", "3"], "need n >= 2, got 1"),
    (["dephasing", "--n-list", "1", "3"], "need n >= 2, got 1"),
    # the bad n comes after a good block: the rows written so far must not reach --out
    (["dephasing", "--n-list", "3", "1"], "need n >= 2, got 1"),
    (["phase-scan", "--n", "20", "--phi-max", "1e307"], "20 * phi must be finite, got phi = 9e+306"),
    (["distribution", "--n", "3", "--phi", "1e308"], "2 * phi must be finite, got phi = 1e+308"),
    (["dephasing", "--n-list", "3", "--phi", "1e308"], "3 * phi must be finite, got phi = 1e+308"),
    # n * phi is finite for n = 3; the NOON comparator's N = 4 overflows it
    (["dephasing", "--n-list", "3", "--phi", "5e307"], "4 * phi must be finite, got phi = 5e+307"),
    (["dephasing", "--n-list", "4", "--phi", "nan"], "4 * phi must be finite, got phi = nan"),
    (["dephasing", "--n-list", "4", "--phi", "inf"], "4 * phi must be finite, got phi = inf"),
]


@pytest.mark.parametrize(
    "argv,message", LIBRARY_DOMAIN_ERRORS, ids=["_".join(a) for a, _ in LIBRARY_DOMAIN_ERRORS]
)
def test_library_domain_error_exits_2(tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        run(argv + ["--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()
    assert message in capsys.readouterr().err


# Flag checks made by the CLI itself, before any library call.
FLAG_ERRORS = [
    (["phase-scan", "--n", "4", "--steps", "1"], "--steps must be >= 2"),
    (["phase-scan", "--n", "4", "--phi-min", "1", "--phi-max", "1"], "--phi-max must exceed --phi-min"),
    (["sensitivity-scan", "--n-min", "5", "--n-max", "3"], "need --n-min <= --n-max"),
    (["dephasing", "--n-list", "4", "--steps", "1"], "need --steps >= 2 and --chi-max >= 0"),
    (["dephasing", "--n-list", "4", "--chi-max", "-0.1"], "need --steps >= 2 and --chi-max >= 0"),
    (["phase-scan", "--n", "4", "--phi-min", "nan"], "--phi-min must be finite"),
    (["phase-scan", "--n", "4", "--phi-max", "inf"], "--phi-max must be finite"),
    (["dephasing", "--n-list", "4", "--chi-max", "nan"], "--chi-max must be finite"),
    (["dephasing", "--n-list", "4", "--chi-max", "inf"], "--chi-max must be finite"),
    (["phase-scan", "--n", "3", "--phi-min=-1e308", "--phi-max", "1e308", "--steps", "3"],
     "--phi-max minus --phi-min overflows a float"),
]


@pytest.mark.parametrize("argv,message", FLAG_ERRORS, ids=["_".join(a) for a, _ in FLAG_ERRORS])
def test_flag_error_exits_2(tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        run(argv + ["--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("usage: qufti ")
    assert err.endswith(f"qufti: error: {message}\n")


def test_unwritable_out_exits_2(tmp_path, capsys):
    out = tmp_path / "missing" / "x.csv"
    with pytest.raises(SystemExit) as exc:
        run(["phase-scan", "--n", "3", "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    # names --out itself, not the temporary file beside it
    assert err.endswith(f"qufti: error: cannot write {out}: {os.strerror(errno.ENOENT)}\n")
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv", [["phase-scan", "--n", "3"], ["dephasing", "--n-list", "3"]], ids=lambda a: a[0]
)
def test_oversized_steps_exits_2(tmp_path, capsys, argv):
    # a grid the allocator refuses outright: a usage error, not a failed check
    out = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as exc:
        run(argv + ["--steps", str(10**17), "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert re.search(r"\nqufti: error: not enough memory: .+\n$", err), err
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_chi_max_square_overflow_exits_2(tmp_path, capsys):
    # Python's chi ** 2 raises past 1.34e154: a usage error naming the flag
    out = tmp_path / "deph.csv"
    with pytest.raises(SystemExit) as exc:
        run(["dephasing", "--n-list", "2", "--chi-max", "1e200", "--steps", "3", "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert re.search(r"\nqufti: error: --chi-max squared overflows a float.*\n$", err), err
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_huge_chi_max_damps_to_inf_without_warning(tmp_path, capsys):
    # chi ** 2 = 1e308 is finite, n^2 chi^2 / 2 is not: the damping is 0, quietly
    out = tmp_path / "deph.csv"
    assert run(["dephasing", "--n-list", "2", "--chi-max", "1e154", "--steps", "3", "--out", str(out)]) == 0
    assert out.read_text().splitlines() == [
        "n,chi,delta_phi_qufti,delta_phi_noon",
        "2,0.0,0.5000000000000077,0.5000000000000077",
        "2,5e+153,inf,inf",
        "2,1e+154,inf,inf",
    ]
    assert "Warning" not in capsys.readouterr().err


def test_dephasing_at_sizes_whose_minimum_root_underflows(tmp_path, capsys):
    # from n = 813 the P = 0 minimum's limit 1 / (n prod |n - 2j| / n) divides by zero: inf
    out = tmp_path / "deph.csv"
    assert run(["dephasing", "--n-list", "813", "1000", "--out", str(out)]) == 0
    rows = out.read_text().splitlines()
    assert len(rows) == 43 and rows[1].startswith("813,0.0,")
    assert "Warning" not in capsys.readouterr().err


def test_dephasing_without_signal_writes_inf_not_nan(tmp_path, capsys):
    # at n = 5000 and phi = 0.1 noise underflows P and dP/dphi to 0: no signal, inf
    out = tmp_path / "deph.csv"
    argv = ["dephasing", "--n-list", "5000", "--chi-max", "1e-6", "--phi", "0.1"]
    assert run(argv + ["--out", str(out)]) == 0
    rows = [row.split(",") for row in out.read_text().splitlines()[1:]]
    assert len(rows) == 21 and all(row[2] == "inf" for row in rows)
    assert "nan" not in out.read_text()
    assert "Warning" not in capsys.readouterr().err

def test_failed_run_leaves_existing_out_untouched(tmp_path):
    out = tmp_path / "deph.csv"
    out.write_bytes(b"n,chi\nearlier,run\n")
    with pytest.raises(SystemExit) as exc:
        run(["dephasing", "--n-list", "3", "1", "--out", str(out)])
    assert exc.value.code == 2
    assert out.read_bytes() == b"n,chi\nearlier,run\n"
    assert [p.name for p in tmp_path.iterdir()] == ["deph.csv"]  # no temporary file left


def test_pipe_out_is_written_in_place(tmp_path):
    # a device or pipe is not replaced by a regular file
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    received = []
    reader = threading.Thread(target=lambda: received.append(pipe.read_bytes()), daemon=True)
    reader.start()
    try:
        assert run(["sensitivity-scan", "--n-max", "3", "--out", str(pipe)]) == 0
    finally:
        reader.join(timeout=10)
    assert not reader.is_alive()
    assert stat.S_ISFIFO(pipe.stat().st_mode)
    assert received[0].decode().splitlines()[0] == "n,phi,P,dP,delta_phi,snl,hl"
    assert [p.name for p in tmp_path.iterdir()] == ["pipe"]
    # every row arrives: the same bytes as a regular file gets
    regular = tmp_path / "regular.csv"
    assert run(["sensitivity-scan", "--n-max", "3", "--out", str(regular)]) == 0
    assert received[0] == regular.read_bytes()


@pytest.mark.parametrize("through", ["link", "dangling link"])
def test_symlink_out_keeps_link_and_writes_target(tmp_path, through):
    links, targets = tmp_path / "links", tmp_path / "targets"
    links.mkdir()
    targets.mkdir()
    link, target = links / "scan.csv", targets / "scan.csv"
    if through == "link":
        target.write_bytes(b"earlier,run\n")
    link.symlink_to(target)
    assert run(["sensitivity-scan", "--n-max", "3", "--out", str(link)]) == 0
    assert link.is_symlink() and os.readlink(link) == str(target)
    regular = tmp_path / "regular.csv"
    assert run(["sensitivity-scan", "--n-max", "3", "--out", str(regular)]) == 0
    assert target.read_bytes() == regular.read_bytes()
    assert [p.name for p in links.iterdir()] == ["scan.csv"]  # no temporary file left
    assert [p.name for p in targets.iterdir()] == ["scan.csv"]


def _spy_on_writes(monkeypatch):
    """The strings given to each write on a file the CLI opens, in order."""
    writes = []

    class Spy:
        def __init__(self, fh):
            self.fh = fh

        def write(self, text):
            writes.append(text)
            return self.fh.write(text)

        def __enter__(self):
            self.fh.__enter__()
            return self

        def __exit__(self, *exc):
            return self.fh.__exit__(*exc)

    monkeypatch.setattr(cli, "open", lambda *a, **k: Spy(open(*a, **k)), raising=False)
    return writes


def test_write_text_writes_each_string_as_given(tmp_path, monkeypatch):
    writes = _spy_on_writes(monkeypatch)
    chunks = ["a,b\n", "", "1,2\n3,4\n", "no newline"]
    out = tmp_path / "out.txt"
    assert _write_text(str(out), iter(chunks)) == 3  # the newlines written
    assert writes == chunks
    assert out.read_text() == "".join(chunks)


def test_sweeps_write_once_per_block(tmp_path, monkeypatch, capsys):
    # the header, then one string per block of _BLOCK points
    writes = _spy_on_writes(monkeypatch)
    out = tmp_path / "scan.csv"
    assert run(["phase-scan", "--n", "3", "--steps", str(2 * _BLOCK + 3), "--out", str(out)]) == 0
    assert len(writes) == 1 + 3
    assert run([
        "dephasing", "--n-list", "2", "5", "--steps", str(_BLOCK + 1), "--out", str(out),
    ]) == 0
    assert len(writes) == 4 + 1 + 2 * 2
    assert all(text.endswith("\n") for text in writes)
    err = capsys.readouterr().err.splitlines()
    assert [line.split(" elapsed_s=")[0] for line in err] == [
        f"phase-scan: rows={2 * _BLOCK + 3}", f"dephasing: rows={2 * (_BLOCK + 1)}",
    ]


def test_sweeps_match_scalar_rows_across_blocks(tmp_path):
    steps = 2 * _BLOCK + 3  # two full blocks and a partial one
    out = tmp_path / "scan.csv"
    assert run(["phase-scan", "--n", "7", "--steps", str(steps), "--out", str(out)]) == 0
    rows = ["phi,P"]
    for phi in np.linspace(0.0, 2 * math.pi, steps).tolist():
        rows.append(f"{phi!r},{coincidence_probability(7, phi)!r}")
    assert out.read_text() == "\n".join(rows) + "\n"

    phi = 1.5707963267948966  # stationary for n = 2, 4, 6 and the NOON N = 2, 4, 16
    out = tmp_path / "deph.csv"
    assert run([
        "dephasing", "--n-list", "2", "3", "4", "6", "--phi", repr(phi),
        "--steps", str(steps), "--out", str(out),
    ]) == 0
    rows = ["n,chi,delta_phi_qufti,delta_phi_noon"]
    for n in (2, 3, 4, 6):
        for chi in np.linspace(0.0, 0.01, steps).tolist():
            params = DephasingParams(chi**2)
            dphi = dephased_sensitivity(n, phi, params)
            dphi_noon = noon_dephased_sensitivity(orc_photon_count(n), phi, params)
            rows.append(f"{n},{chi!r},{dphi!r},{dphi_noon!r}")
    assert out.read_text() == "\n".join(rows) + "\n"


def _row_count(text):
    return {"rows": str(len(text.splitlines()) - 1)}


def _verify_fields(text):
    return {"max_abs_error": f"{json.loads(text)['max_abs_error']:.3e}", "kernel": "glynn"}


def _distribution_fields(text):
    probabilities = [e["probability"] for e in json.loads(text)["entries"]]
    residual = abs(math.fsum(probabilities) - 1.0)
    return {"outcomes": str(len(probabilities)), "residual": f"{residual:.3e}"}


# each command's argv, and the summary fields its data file implies
SUMMARY_COMMANDS = {
    "phase-scan": (["phase-scan", "--n", "5", "--steps", "1500"], _row_count),
    "dephasing": (["dephasing", "--n-list", "3", "8", "--steps", "700"], _row_count),
    "sensitivity-scan": (["sensitivity-scan", "--n-min", "2", "--n-max", "30"], _row_count),
    "verify": (["verify", "--n-max", "5", "--samples", "8"], _verify_fields),
    "distribution": (["distribution", "--n", "4", "--phi", "0.3"], _distribution_fields),
}


@pytest.mark.parametrize("command", sorted(SUMMARY_COMMANDS))
def test_sweep_summary_on_stderr(tmp_path, capsys, command):
    argv, expected_fields = SUMMARY_COMMANDS[command]
    captured = tmp_path / "captured.out"
    assert run(argv + ["--out", str(captured)]) == 0
    err = capsys.readouterr().err
    match = re.fullmatch(rf"{command}: (.+) elapsed_s=(\d+\.\d+)\n", err)
    assert match, err
    assert dict(field.split("=") for field in match[1].split(" ")) == expected_fields(
        captured.read_text()
    )
    assert float(match[2]) >= 0.0
    # the summary goes to stderr only: the data file has the same bytes without it
    plain = tmp_path / "plain.out"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    subprocess.run(
        [sys.executable, "-m", "qufti.cli", *argv, "--out", str(plain)],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, check=True,
    )
    assert plain.read_bytes() == captured.read_bytes()
