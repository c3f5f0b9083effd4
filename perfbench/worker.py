"""One benchmark run inside a fresh interpreter: a closed loop over the real CLI.

Started by run.py with the checkout's src/ on PYTHONPATH. One client: each
invocation (the workload's command set, through `qufti.cli.main`) starts when the
previous one has returned. After each invocation, outside the timed region, the
output files are hashed; the first output with each distinct set of digests is kept
for run.py to check. With --trace 0, a set-up probe (a fresh interpreter that
imports qufti.cli) runs between invocations, so the probes sample the whole run.
With --trace 1, traced and untraced invocations alternate and nothing is probed.
Writes its result as JSON to <workdir>/result.json.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import traceback
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS

SRC = Path(__file__).resolve().parents[1] / "src"
SETUP_PROBES_MIN = 7
SETUP_TIMEOUT_S = 60


def _digests(out: Path) -> dict[str, str]:
    result = {}
    for path in sorted(out.iterdir()):
        h = hashlib.sha256()
        with path.open("rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
        result[path.name] = h.hexdigest()
    return result


def _cpu() -> float:
    """User + system CPU of this process and of its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def setup_probe() -> float:
    """Wall time of a fresh interpreter that starts and imports qufti.cli with numpy.

    A blocking wait() returns when the child exits; wait(timeout) would poll in
    50 ms steps, so a watchdog thread bounds the time instead.
    """
    t0 = perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", "import numpy, qufti.cli"])
    watchdog = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        code = proc.wait()
    finally:
        watchdog.cancel()
    elapsed = perf_counter() - t0
    if code != 0:
        raise RuntimeError(f"set-up probe exited with code {code}")
    return elapsed


def invoke(main, commands: list[list[str]]) -> dict:
    """Run one invocation; time it and catch every way it can fail."""
    error = None
    codes = []
    sink = io.StringIO()
    cpu0 = _cpu()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            for argv in commands:
                codes.append(main(argv))
    except SystemExit as exc:  # argparse usage errors
        codes.append(exc.code)
    except Exception:
        error = traceback.format_exc()
    wall = perf_counter() - t0
    cpu = _cpu() - cpu0
    return {"wall_s": wall, "cpu_s": cpu, "exit_codes": codes, "error": error,
            "output": sink.getvalue()[-2000:]}


def run_loop(workload, seed: int, seconds: float, workdir: Path, main, tracer=None,
             probe=None) -> dict:
    """Closed loop for `seconds`; with a tracer, every second invocation is traced.

    With a probe, it runs after every invocation, outside the timed region, and
    again after the loop until it has run SETUP_PROBES_MIN times.
    """
    out = workdir / "out"
    keep = workdir / "keep"
    keep.mkdir(parents=True, exist_ok=True)
    kept: dict[str, str] = {}  # digest key -> kept directory name
    records = []
    traced_bounds = []
    setup_times = []
    t_begin = perf_counter()
    while True:
        elapsed = perf_counter() - t_begin
        k = len(records)
        traced = tracer is not None and k % 2 == 1
        if elapsed >= seconds and (tracer is None or k >= 2):
            break
        if out.exists():
            shutil.rmtree(out)
        out.mkdir()
        commands = workload.commands(seed, out)
        if traced:
            tracer.install()
            lo = tracer.mark()
        try:
            rec = invoke(main, commands)
        finally:
            if traced:
                tracer.uninstall()
                traced_bounds.append((lo, tracer.mark()))
        digests = _digests(out)
        rec["traced"] = traced
        rec["bytes_written"] = sum(p.stat().st_size for p in out.iterdir())
        key = json.dumps(digests, sort_keys=True)
        if key not in kept:
            kept[key] = f"inv{k}"
            out.rename(keep / kept[key])
        rec["digests"] = digests
        rec["kept"] = kept[key]
        records.append(rec)
        if probe is not None:
            setup_times.append(probe())
    if out.exists():
        shutil.rmtree(out)
    while probe is not None and len(setup_times) < SETUP_PROBES_MIN:
        setup_times.append(probe())
    return {"records": records, "traced_bounds": traced_bounds, "setup_times": setup_times}


def trace_summary(tracer, loop: dict) -> dict[str, float]:
    """Per-layer metrics: medians over the traced invocations, counts per invocation."""
    from tracing import invocation_stats

    records = loop["records"]
    traced = [r for r in records if r["traced"]]
    untraced = [r for r in records if not r["traced"]]
    per_inv = [invocation_stats(tracer, lo, hi) for lo, hi in loop["traced_bounds"]]
    for stats, rec in zip(per_inv, traced):
        stats["cli.bytes_written"] = rec["bytes_written"]
        stats["trace.wall_s"] = rec["wall_s"]
    keys = set().union(*per_inv)
    # counts must repeat exactly between invocations; a mismatch is a tracing fault
    counts = {k for k in keys if k.endswith(".calls") or k in (
        "permanent.subsets", "permanent.ops_computed", "metrology.outcomes", "cli.bytes_written")}
    summary = {
        k: (statistics.median_low if k in counts else statistics.median)(s.get(k, 0) for s in per_inv)
        for k in sorted(keys)
    }
    summary["trace.overhead_frac"] = (
        summary["trace.wall_s"] / statistics.median(r["wall_s"] for r in untraced) - 1.0
    )
    summary["permanent.self_frac"] = (
        summary.get("permanent.permanent_ryser.self_s", 0.0)
        + summary.get("permanent.permanent_with_repeats.self_s", 0.0)
    ) / summary["trace.wall_s"]
    subsets = summary["permanent.subsets"]
    summary["permanent.ns_per_subset"] = (
        summary.get("permanent.permanent_ryser.self_s", 0.0) / subsets * 1e9 if subsets else 0.0
    )
    summary["trace.count_mismatches"] = sum(
        len({s.get(k, 0) for s in per_inv}) > 1 for k in counts
    )
    return summary


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args()

    import numpy
    import qufti.cli

    if Path(qufti.cli.__file__).resolve().parent.parent != SRC:
        print(f"qufti imported from {qufti.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    # look main up at call time, so the traced invocations call the wrapped one
    loop = run_loop(WORKLOADS[args.workload], args.seed, args.seconds, args.workdir,
                    lambda argv: qufti.cli.main(argv), tracer,
                    None if args.trace else setup_probe)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {"records": loop["records"], "setup_times": loop["setup_times"],
              "peak_rss_mib": peak_kib / 1024.0, "numpy": numpy.__version__}
    if tracer is not None:
        result["trace"] = trace_summary(tracer, loop)
        tracer.save(args.workdir / "spans.npz", loop["traced_bounds"])
    (args.workdir / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
