"""Command-line front end: verification runs and parameter sweeps.

Emits CSV/JSON data files; plotting is left to the user's toolchain.
Exit codes: 0 success, 1 scientific-check failure, 2 usage/domain error.
Identical flags produce byte-identical output (floats written with
shortest round-trip repr, rows in canonical order).
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import analytics, metrology
from .matrices import InterferometerSpec

VERIFY_THRESHOLD = 1e-9


def _write_lines(path: str, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def cmd_verify(args: argparse.Namespace) -> int:
    report = analytics.conjecture_verify(args.n_max, args.samples)
    _write_lines(args.out, [report.to_json()])
    if report.max_abs_error < VERIFY_THRESHOLD:
        print(f"conjecture holds: max |error| = {report.max_abs_error:.3e}")
        return 0
    print(
        f"conjecture check FAILED: max |error| = {report.max_abs_error:.3e} "
        f"at n={report.worst_case[0]}, phi={report.worst_case[1]!r}",
        file=sys.stderr,
    )
    return 1


def cmd_phase_scan(args: argparse.Namespace) -> int:
    lines = ["phi,P"]
    for phi in np.linspace(args.phi_min, args.phi_max, args.steps):
        p = analytics.coincidence_probability(args.n, float(phi))
        lines.append(f"{float(phi)!r},{p!r}")
    _write_lines(args.out, lines)
    return 0


def cmd_sensitivity_scan(args: argparse.Namespace) -> int:
    lines = ["n,phi,P,dP,delta_phi,snl,hl"]
    for n in range(args.n_min, args.n_max + 1):
        delta = metrology.phase_sensitivity_small_angle(n)
        snl = metrology.shotnoise_limit(n)
        hl = metrology.heisenberg_limit(n)
        lines.append(f"{n},0.0,1.0,0.0,{delta!r},{snl!r},{hl!r}")
    _write_lines(args.out, lines)
    return 0


def cmd_dephasing(args: argparse.Namespace) -> int:
    lines = ["n,chi,delta_phi_qufti,delta_phi_noon"]
    for n in args.n_list:
        big_n = metrology.orc_photon_count(n)
        for chi in np.linspace(0.0, args.chi_max, args.steps):
            params = metrology.DephasingParams(chi_sq=float(chi) ** 2)
            dphi = metrology.dephased_sensitivity(n, args.phi, params)
            dphi_noon = metrology.noon_dephased_sensitivity(big_n, args.phi, params)
            lines.append(f"{n},{float(chi)!r},{dphi!r},{dphi_noon!r}")
    _write_lines(args.out, lines)
    return 0


def cmd_distribution(args: argparse.Namespace) -> int:
    spec = InterferometerSpec(n=args.n, phi=args.phi)
    dist = metrology.fock_output_distribution(spec)
    import json

    _write_lines(args.out, [json.dumps(dist.to_json_dict(), indent=2)])
    residual = abs(dist.total() - 1.0)
    print(f"normalization residual: {residual:.3e}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qufti",
        description="Fourier-interferometer metrology: verification and sweeps",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check the permanent product form against Ryser")
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--samples", type=int, default=64)
    p.add_argument("--out", default="conjecture_report.json")
    p.add_argument("--threads", type=int, default=0, help="accepted and ignored")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("phase-scan", help="coincidence probability vs phase (CSV)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--phi-min", type=float, default=0.0)
    p.add_argument("--phi-max", type=float, default=2 * math.pi)
    p.add_argument("--steps", type=int, default=361)
    p.add_argument("--out", default="phase_scan.csv")
    p.set_defaults(func=cmd_phase_scan)

    p = sub.add_parser("sensitivity-scan", help="sensitivity vs baselines per n (CSV)")
    p.add_argument("--n-min", type=int, default=2)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--out", default="sensitivity_scan.csv")
    p.set_defaults(func=cmd_sensitivity_scan)

    p = sub.add_parser("dephasing", help="dephased sensitivity sweep, with NOON comparison (CSV)")
    p.add_argument("--n-list", type=int, nargs="+", required=True)
    p.add_argument("--phi", type=float, default=0.01)
    p.add_argument("--chi-max", type=float, default=0.01)
    p.add_argument("--steps", type=int, default=21)
    p.add_argument("--out", default="dephasing.csv")
    p.set_defaults(func=cmd_dephasing)

    p = sub.add_parser("distribution", help="full output photon-count distribution (JSON)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--phi", type=float, required=True)
    p.add_argument("--out", default="distribution.json")
    p.set_defaults(func=cmd_distribution)

    return parser


def _validate(args: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
    """Checks with no library counterpart; the library guards every domain limit."""
    if args.command == "phase-scan":
        if args.steps < 2:
            parser.error("--steps must be >= 2")
        if not args.phi_max > args.phi_min:
            parser.error("--phi-max must exceed --phi-min")
    elif args.command == "sensitivity-scan":
        if args.n_min > args.n_max:
            parser.error("need --n-min <= --n-max")
    elif args.command == "dephasing":
        if args.phi == 0.0:
            parser.error("--phi must be nonzero (sensitivity diverges at phi = 0)")
        if args.steps < 2 or args.chi_max < 0:
            parser.error("need --steps >= 2 and --chi-max >= 0")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _validate(args, parser)
    try:
        return args.func(args)
    except ValueError as exc:  # SizeLimitError included
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
