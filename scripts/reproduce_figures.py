#!/usr/bin/env python3
"""Generate the data files behind the headline plots in one run.

Writes into --outdir (default ./figures_data):
  conjecture_report.json  brute-force check of the permanent product form
  phase_scan_n*.csv       coincidence probability vs phase, several n
  sensitivity_scan.csv    sensitivity vs photon number with SNL/HL baselines
  dephasing.csv           noise sweep with the NOON comparator
"""

import argparse
import sys
from pathlib import Path

from qufti.cli import main as qufti_main


def run(argv):
    code = qufti_main(argv)
    if code != 0:
        sys.exit(code)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--outdir", default="figures_data")
    parser.add_argument("--n-max", type=int, default=12)
    args = parser.parse_args()

    out = Path(args.outdir)
    out.mkdir(parents=True, exist_ok=True)

    run([
        "verify", "--n-max", str(args.n_max), "--samples", "64",
        "--out", str(out / "conjecture_report.json"),
    ])
    for n in (2, 4, 6, 8):
        run(["phase-scan", "--n", str(n), "--steps", "361",
             "--out", str(out / f"phase_scan_n{n}.csv")])
    run(["sensitivity-scan", "--n-min", "2", "--n-max", "20",
         "--out", str(out / "sensitivity_scan.csv")])
    run(["dephasing", "--n-list", "2", "4", "6", "8", "10", "--steps", "21",
         "--out", str(out / "dephasing.csv")])
    print(f"wrote data files to {out}/")


if __name__ == "__main__":
    main()
