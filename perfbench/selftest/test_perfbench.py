"""Self-test of the benchmark itself.

Shows that a corrupted output is counted as a failure and not timed as a success,
that the trace sees kernel calls made through `from ... import` names, and that the
benchmark gives no result without the program's sources. Run from the repo root:

    python3 -m pytest perfbench/selftest -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import worker  # noqa: E402
from tracing import Tracer, invocation_stats  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

import qufti.analytics  # noqa: E402
import qufti.cli  # noqa: E402
import qufti.permanent  # noqa: E402

SEED = 7


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def real_output(request, tmp_path_factory):
    """One real invocation of each workload: (workload, output dir)."""
    workload = WORKLOADS[request.param]
    out = tmp_path_factory.mktemp(workload.name)
    for argv in workload.commands(SEED, out):
        assert qufti.cli.main(argv) == 0
    return workload, out


def _corrupt(out: Path, name: str) -> list[Path]:
    """Copies of the output with one corruption each: (file, edit) per workload."""
    def perturb_json(doc):
        if "entries" in doc:  # the smallest entry: too small to break the sum
            min(doc["entries"], key=lambda e: e["probability"])["probability"] *= 1 + 1e-6
        else:
            doc["max_abs_error"] = 1e-3

    def swap_json(doc):
        if "entries" in doc:  # two entries swap places: the sum still holds
            lo = min(doc["entries"], key=lambda e: e["probability"])
            hi = max(doc["entries"], key=lambda e: e["probability"])
            lo["probability"], hi["probability"] = hi["probability"], lo["probability"]
        else:
            doc["n_range"][0] += 1

    def drop_json(doc):
        if "entries" in doc:
            del doc["entries"][-1]
        else:
            doc["samples"] -= 1

    edits = []
    for path in sorted(out.iterdir()):
        if path.suffix == ".json":
            for edit in (perturb_json, swap_json, drop_json):
                doc = json.loads(path.read_text())
                edit(doc)
                edits.append((path.name, json.dumps(doc, indent=2) + "\n"))
        else:
            lines = path.read_text().splitlines()
            mid = len(lines) // 2
            fields = lines[mid].split(",")
            fields[-1] = repr(float(fields[-1]) * (1 + 1e-6))
            edits.append((path.name, "\n".join(lines[:mid] + [",".join(fields)] + lines[mid + 1:]) + "\n"))
            edits.append((path.name, "\n".join(lines[:mid] + lines[mid + 1:]) + "\n"))
    copies = []
    for k, (file_name, text) in enumerate(edits):
        copy = out.parent / f"{name}-corrupt{k}"
        shutil.copytree(out, copy)
        (copy / file_name).write_text(text)
        copies.append(copy)
    return copies


def test_check_accepts_real_output_and_rejects_each_corruption(real_output):
    workload, out = real_output
    items, problems = workload.check(out, SEED)
    assert problems == [] and items > 0
    copies = _corrupt(out, workload.name)
    assert copies
    for copy in copies:
        items, problems = workload.check(copy, SEED)
        assert problems, f"{copy.name} passed its check"
        assert items == 0


def test_failed_invocations_are_counted_and_not_timed(real_output, tmp_path):
    """Replay the real output, failing invocations 1 to 4 in different ways."""
    workload, out = real_output
    bad = _corrupt(out, f"{workload.name}-replay")[0]
    first_command = workload.commands(SEED, tmp_path)[0][0]
    invocations = []

    def fake_main(argv):
        first = argv[0] == first_command
        if first:
            invocations.append(argv)
        inv = len(invocations) - 1
        dest = Path(argv[argv.index("--out") + 1])
        good = (out / dest.name).read_bytes()
        if inv == 1:  # wrong content, and slow: must not enter the success timings
            if first:
                time.sleep(0.3)
            shutil.copy(bad / dest.name, dest)
        elif inv == 2:
            raise RuntimeError("boom")
        elif inv == 3:
            return 1
        elif inv == 4:  # same data in other bytes: passes the check, breaks byte identity
            dest.write_bytes(good.replace(b"\n", b"\r\n"))
        else:
            dest.write_bytes(good)
        return 0

    loop = worker.run_loop(workload, SEED, 1.5, tmp_path, fake_main)
    records = loop["records"]
    assert len(records) >= 6
    verdicts = run.judge(records, tmp_path / "keep", workload, SEED)
    failed = [i for i, (_, reason) in enumerate(verdicts) if reason]
    assert failed == [1, 2, 3, 4]
    metrics = run.end_to_end(records, verdicts, [0.1], 40.0)
    assert metrics["success_frac"] == (len(records) - 4) / len(records)
    assert metrics["wall_p50_s"] < 0.3
    items = verdicts[0][0]
    assert items > 0 and all(verdicts[i][0] == 0 for i in failed)
    total_wall = sum(r["wall_s"] for r in records)
    assert metrics["items_per_s"] == pytest.approx(items * (len(records) - 4) / total_wall)


def test_trace_sees_kernel_calls_through_from_imports(tmp_path):
    original = qufti.analytics.permanent_ryser
    tracer = Tracer()
    tracer.install()
    try:
        lo = tracer.mark()
        assert qufti.cli.main(["verify", "--n-max", "5", "--samples", "3", "--threads", "1",
                               "--out", str(tmp_path / "r.json")]) == 0
        mid = tracer.mark()
        assert qufti.cli.main(["distribution", "--n", "3", "--phi", "0.4",
                               "--out", str(tmp_path / "d.json")]) == 0
        hi = tracer.mark()
    finally:
        tracer.uninstall()
    assert qufti.analytics.permanent_ryser is original
    assert qufti.permanent.permanent_ryser is original

    verify = invocation_stats(tracer, lo, mid)
    assert verify["permanent.permanent_ryser.calls"] == 4 * 3
    assert verify["matrices.compose_qufti.calls"] == 4 * 3
    assert verify["analytics.permanent_closed_form.calls"] == 4 * 3
    assert verify["cli.main.calls"] == 1
    assert verify["permanent.subsets"] == 3 * sum(2**n - 1 for n in range(2, 6))

    dist = invocation_stats(tracer, mid, hi)
    assert dist["permanent.permanent_with_repeats.calls"] == 10
    assert dist["permanent.permanent_ryser.calls"] == 10
    assert dist["metrology.outcomes"] == 10
    assert dist["permanent.subsets"] == 10 * 7

    # every span's time is attributed: the self times add up to the root spans
    cols = tracer.arrays(lo, hi)
    roots = cols["parent"] < 0
    wall = float((cols["end"] - cols["start"])[roots].sum())
    self_sum = sum(v for stats in (verify, dist) for k, v in stats.items() if k.endswith(".self_s"))
    assert self_sum == pytest.approx(wall)


def test_setup_probes_run_between_invocations(tmp_path):
    events = []

    def fake_main(argv):
        events.append("invoke")
        time.sleep(0.02)
        return 0

    def probe():
        events.append("probe")
        return 0.1

    loop = worker.run_loop(WORKLOADS["verify"], SEED, 0.01, tmp_path, fake_main, probe=probe)
    assert len(loop["records"]) == 1
    assert events == ["invoke"] + ["probe"] * worker.SETUP_PROBES_MIN
    assert loop["setup_times"] == [0.1] * worker.SETUP_PROBES_MIN

    events.clear()
    loop = worker.run_loop(WORKLOADS["verify"], SEED, 1.0, tmp_path, fake_main, probe=probe)
    k = len(loop["records"])
    assert k > worker.SETUP_PROBES_MIN
    assert events == ["invoke", "probe"] * k


def test_no_result_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_metrics_cover_benchmark_json(tmp_path):
    """End-to-end and per-layer results hold every metric BENCHMARK.json names."""
    spec = json.loads(run.SPEC.read_text())
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)

    workload = WORKLOADS["distribution"]
    tracer = Tracer()
    loop = worker.run_loop(workload, SEED, 0.01, tmp_path, lambda argv: qufti.cli.main(argv),
                           tracer)
    records = loop["records"]
    assert [r["traced"] for r in records] == [False, True]
    verdicts = run.judge(records, tmp_path / "keep", workload, SEED)
    assert all(reason is None for _, reason in verdicts)
    e2e = run.end_to_end(records, verdicts, [0.1], 40.0)
    assert set(e2e) == {m["name"] for m in spec["end_to_end"]}

    layers = worker.trace_summary(tracer, loop)
    assert {m["name"] for m in spec["per_layer"]} <= set(layers)
    assert layers["trace.count_mismatches"] == 0
    assert layers["permanent.permanent_ryser.calls"] == 1716
    assert layers["metrology.outcomes"] == 1716
