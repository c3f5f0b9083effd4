"""Command-line front end: verification runs and parameter sweeps.

Emits CSV/JSON data files; plotting is left to the user's toolchain.
Exit codes: 0 success, 1 scientific-check failure, 2 usage/domain error.
Identical flags produce byte-identical output (floats written with
shortest round-trip repr, rows in canonical order).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
import time
from collections.abc import Iterable, Iterator

import numpy as np

from . import analytics, metrology
from .matrices import InterferometerSpec
from .permanent import KERNEL

VERIFY_THRESHOLD = 1e-9

# Sweep points evaluated and written per step: large enough that the numpy
# calls amortise, small enough that no whole table is ever held in memory.
_BLOCK = 1024


def _write_lines(path: str, lines: Iterable[str]) -> int:
    """Write each line and a newline to a sibling temporary file, then move it to path.

    Lines may come from a generator that computes them as they are written.
    If it raises, the temporary file is removed: a failed run leaves no file
    at path, or the old file untouched. Returns the number of lines written.
    """
    # A device or pipe (/dev/null, say) is written in place: replacing it
    # would leave a regular file where the node was.
    special = os.path.exists(path) and not os.path.isfile(path)
    tmp = path if special else f"{path}.{os.getpid()}.tmp"
    count = 0
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            for line in lines:
                fh.write(line + "\n")
                count += 1
        if not special:
            os.replace(tmp, path)
    except BaseException:
        if not special:
            with contextlib.suppress(FileNotFoundError):
                os.remove(tmp)
        raise
    return count


def _blocks(values: np.ndarray) -> Iterator[np.ndarray]:
    for start in range(0, len(values), _BLOCK):
        yield values[start:start + _BLOCK]


def _check_finite(args: argparse.Namespace, *names: str) -> None:
    """A usage error naming the flag unless each named float flag is finite."""
    for name in names:
        if not math.isfinite(getattr(args, name)):
            raise ValueError(f"--{name.replace('_', '-')} must be finite")


def cmd_verify(args: argparse.Namespace) -> tuple[int, str]:
    report = analytics.conjecture_verify(args.n_max, args.samples)
    _write_lines(args.out, [json.dumps(report.to_json_dict(), indent=2)])
    summary = f"max_abs_error={report.max_abs_error:.3e} kernel={KERNEL}"
    if report.max_abs_error < VERIFY_THRESHOLD:
        print(f"conjecture holds: max |error| = {report.max_abs_error:.3e}")
        return 0, summary
    print(
        f"conjecture check FAILED: max |error| = {report.max_abs_error:.3e} "
        f"at n={report.worst_case[0]}, phi={report.worst_case[1]!r}",
        file=sys.stderr,
    )
    return 1, summary


def cmd_phase_scan(args: argparse.Namespace) -> tuple[int, str]:
    _check_finite(args, "phi_min", "phi_max")
    if args.steps < 2:
        raise ValueError("--steps must be >= 2")
    if not args.phi_max > args.phi_min:
        raise ValueError("--phi-max must exceed --phi-min")
    if not math.isfinite(args.phi_max - args.phi_min):  # the grid's span
        raise ValueError("--phi-max minus --phi-min overflows a float")

    def rows() -> Iterator[str]:
        yield "phi,P"
        for phis in _blocks(np.linspace(args.phi_min, args.phi_max, args.steps)):
            ps = analytics.coincidence_probability(args.n, phis)
            for phi, p in zip(phis.tolist(), ps.tolist()):
                yield f"{phi!r},{p!r}"

    return 0, f"rows={_write_lines(args.out, rows()) - 1}"


def cmd_sensitivity_scan(args: argparse.Namespace) -> tuple[int, str]:
    if args.n_min > args.n_max:
        raise ValueError("need --n-min <= --n-max")

    def rows() -> Iterator[str]:
        yield "n,phi,P,dP,delta_phi,snl,hl"
        for n in range(args.n_min, args.n_max + 1):
            delta = metrology.phase_sensitivity_small_angle(n)
            snl = metrology.shotnoise_limit(n)
            hl = metrology.heisenberg_limit(n)
            yield f"{n},0.0,1.0,0.0,{delta!r},{snl!r},{hl!r}"

    return 0, f"rows={_write_lines(args.out, rows()) - 1}"


def cmd_dephasing(args: argparse.Namespace) -> tuple[int, str]:
    _check_finite(args, "phi", "chi_max")
    if args.steps < 2 or args.chi_max < 0:
        raise ValueError("need --steps >= 2 and --chi-max >= 0")
    try:  # the largest variance of the sweep; Python's ** raises on overflow
        args.chi_max ** 2
    except OverflowError:
        raise ValueError(f"--chi-max squared overflows a float, got {args.chi_max!r}") from None

    def rows() -> Iterator[str]:
        yield "n,chi,delta_phi_qufti,delta_phi_noon"
        chi_grid = np.linspace(0.0, args.chi_max, args.steps)
        for n in args.n_list:
            big_n = metrology.orc_photon_count(n)
            for chis in _blocks(chi_grid):
                chis = chis.tolist()
                # Python's float ** 2, as a single point's DephasingParams gets it
                params = metrology.DephasingParams(chi_sq=np.array([chi ** 2 for chi in chis]))
                dphi = metrology.dephased_sensitivity(n, args.phi, params)
                dphi_noon = metrology.noon_dephased_sensitivity(big_n, args.phi, params)
                for chi, d, d_noon in zip(chis, dphi.tolist(), dphi_noon.tolist()):
                    yield f"{n},{chi!r},{d!r},{d_noon!r}"

    return 0, f"rows={_write_lines(args.out, rows()) - 1}"


def _distribution_json(dist: metrology.OutcomeDistribution) -> Iterator[str]:
    """The text of json.dumps(dist.to_json_dict(), indent=2), one entry per string.

    json writes an indented document with its pure-Python encoder, several
    times slower than this. Joined by newlines, the strings are that text for
    any distribution of n >= 1 modes: every entry list and occupation is
    non-empty. A float is written as json writes it: its repr, or NaN/Infinity.
    """
    yield f'{{\n  "n": {dist.n},\n  "entries": ['
    last = len(dist.entries) - 1
    for i, (occ, p) in enumerate(dist.entries):
        counts = ",\n        ".join(map(str, occ))
        prob = repr(p) if math.isfinite(p) else json.dumps(p)
        comma = "," if i < last else ""
        yield (
            f'    {{\n      "occupation": [\n        {counts}\n      ],\n'
            f'      "probability": {prob}\n    }}{comma}'
        )
    yield "  ]\n}"


def cmd_distribution(args: argparse.Namespace) -> tuple[int, str]:
    spec = InterferometerSpec(n=args.n, phi=args.phi)
    dist = metrology.fock_output_distribution(spec)
    _write_lines(args.out, _distribution_json(dist))
    return 0, f"outcomes={len(dist.entries)} residual={abs(dist.total() - 1.0):.3e}"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qufti",
        description="Fourier-interferometer metrology: verification and sweeps",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check the permanent product form against Glynn's formula")
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


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand: a usage, domain, write or memory error exits 2; a finished
    run prints `<command>: <summary> elapsed_s=T` on stderr and returns its code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.perf_counter()
    try:
        code, summary = args.func(args)
    except ValueError as exc:  # SizeLimitError included
        parser.error(str(exc))
    except OSError as exc:  # --out is the only file a subcommand opens
        parser.error(f"cannot write {args.out}: {exc.strerror}")
    except MemoryError as exc:  # a grid too large to allocate, --steps 10**17 say
        parser.error(f"not enough memory: {exc}")
    print(f"{args.command}: {summary} elapsed_s={time.perf_counter() - start:.3f}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
