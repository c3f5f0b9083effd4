"""qufti benchmark: runs one workload of the real CLI and prints its metrics.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from its src/.
With --trace 0 the last line of stdout is a JSON object with the end-to-end
metrics, with --trace 1 the per-layer metrics of a traced run. The line before it
holds the machine facts and the raw samples. Exit code 0 on a completed run, also
when outputs fail their checks (`correct` is then false); anything else means no
result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SPEC = ROOT / "BENCHMARK.json"  # names and units of the metrics printed
# a run may overshoot --seconds by one invocation and the set-up probes, then
# hashes and checks outputs
WORKER_GRACE_S = 120


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def machine_facts(numpy_version: str) -> dict:
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "python": platform.python_version(),
            "numpy": numpy_version, "git_commit": commit}


def judge(records: list[dict], keep: Path, workload, seed: int) -> list[tuple[int, str | None]]:
    """(items, failure reason or None) for each invocation.

    An invocation fails if it raised, exited non-zero, wrote output that fails the
    workload's check, or wrote output whose digests differ from the first correct one.
    """
    checks = {}
    for name in {r["kept"] for r in records}:
        checks[name] = workload.check(keep / name, seed)
    reference = None
    verdicts = []
    for r in records:
        items, problems = checks[r["kept"]]
        if r["error"]:
            reason = "exception: " + r["error"].strip().splitlines()[-1]
        elif any(code not in (0, None) for code in r["exit_codes"]):
            reason = f"exit codes {r['exit_codes']}: {r['output'].strip()[-300:]}"
        elif problems:
            reason = "; ".join(problems)
        elif reference is not None and r["digests"] != reference:
            reason = "output differs from the first correct invocation's bytes"
        else:
            reason = None
            reference = reference or r["digests"]
        verdicts.append((0 if reason else items, reason))
    return verdicts


def end_to_end(records, verdicts, setup_times, peak_rss_mib) -> dict[str, float]:
    ok = [r for r, (_, reason) in zip(records, verdicts) if reason is None] or records
    return {
        "setup_s": statistics.median(setup_times),
        "wall_p50_s": statistics.median(r["wall_s"] for r in ok),
        "items_per_s": sum(items for items, _ in verdicts) / sum(r["wall_s"] for r in records),
        "cpu_s": statistics.median(r["cpu_s"] for r in ok),
        "peak_rss_mib": peak_rss_mib,
        "success_frac": sum(reason is None for _, reason in verdicts) / len(records),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qufti" / "cli.py").is_file() or not SPEC.is_file():
        print(f"no qufti sources or {SPEC.name} under {ROOT}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    workload = WORKLOADS[args.workload]
    workdir = WORK / f"run-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("worker.py")),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--workdir", str(workdir)],
            cwd=ROOT, env=_env(), stdout=sys.stderr, timeout=args.seconds + WORKER_GRACE_S,
        )
        if proc.returncode != 0:
            print(f"worker exited with code {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads((workdir / "result.json").read_text(encoding="utf-8"))
        records = result["records"]
        setup_times = result["setup_times"]
        verdicts = judge(records, workdir / "keep", workload, args.seed)
        if args.trace:
            values = result["trace"]
            shutil.move(workdir / "spans.npz", WORK / f"spans-{args.workload}.npz")
        else:
            values = end_to_end(records, verdicts, setup_times, result["peak_rss_mib"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only when empty: spans of traced runs stay

    failed = sum(reason is not None for _, reason in verdicts)
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine_facts(result["numpy"]),
        "closed_loop": "one client", "invocations": len(records),
        "wall_s": [r["wall_s"] for r in records], "cpu_s": [r["cpu_s"] for r in records],
        "setup_s": setup_times,
        "failures": [reason for _, reason in verdicts if reason][:5],
    }
    print(json.dumps(detail))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in spec["per_layer" if args.trace else "end_to_end"]},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
