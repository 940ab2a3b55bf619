"""Command-line interface.

Subcommands:
  solve     adaptive solve of a structure file down to an error bound
  uniform   fixed-resolution cascade at order 0 or 1
  sweep     method/knob sweeps with errors against a ground-truth cascade
  validate  run the built-in analytic oracle checks

Exit codes: 0 on success, 2 on input errors (bad flags, missing files,
output paths that cannot be written or that name the same file as another
path flag, invalid structure documents,
documents whose operators do not fit in memory), 3 on numeric failures.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from pathlib import Path

from . import checks as checks_mod
from . import harness
from .errors import ArcwaError, StructureError
from .geometry import StructureSpec, parse_structure
from .solver import SolveReport, SolverConfig, solve_adaptive, solve_uniform

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3


def _load_structure(path_str: str) -> StructureSpec:
    path = Path(path_str)
    try:
        text = path.read_text()
    except OSError as exc:
        raise FileNotFoundError(f"cannot read structure file '{path}': {exc.strerror or exc}") from exc
    return parse_structure(text)


def _check_writable(*paths: str | None) -> None:
    """Raise OSError, before any solve, for an output path that cannot be opened for writing; create no file."""
    for path in filter(None, paths):
        existed = os.path.lexists(path)
        with open(path, "a"):
            pass
        if not existed:
            os.remove(path)


def _check_distinct(args) -> None:
    """Raise ValueError when two of --structure, --out and --report name the same file."""
    named = [(f"--{flag}", path) for flag in ("structure", "out", "report") if (path := getattr(args, flag, None))]
    for (flag_a, a), (flag_b, b) in itertools.combinations(named, 2):
        if os.path.realpath(a) == os.path.realpath(b) or (
            os.path.exists(a) and os.path.exists(b) and os.path.samefile(a, b)
        ):
            raise ValueError(f"{flag_a} '{a}' and {flag_b} '{b}' name the same file")


def _print_report(report: SolveReport, method: str, stream) -> None:
    print(f"method: {method}", file=stream)
    print(f"sections: {len(report.sections)}", file=stream)
    print(f"sections_solved: {report.sections_solved}", file=stream)
    print(f"total_eig_count: {report.total_eig_count}", file=stream)
    print(f"wall_ms: {report.total_wall_time * 1e3:.3f}", file=stream)
    for i, (z_l, z_r, est) in enumerate(report.sections):
        print(f"section {i:4d}: z in [{z_l:.9f}, {z_r:.9f}]  est_error={est:.6e}", file=stream)


def _emit_solution(args, report: SolveReport, method: str) -> None:
    if args.out:
        with open(args.out, "w") as fh:
            harness.write_smatrix_csv(report.smat, fh)
        _print_report(report, method, sys.stdout)
    else:
        harness.write_smatrix_csv(report.smat, sys.stdout)
        _print_report(report, method, sys.stderr)
    if getattr(args, "report", None):
        payload = {
            "method": method,
            "sections": [list(s) for s in report.sections],
            "sections_solved": report.sections_solved,
            "total_eig_count": report.total_eig_count,
            "wall_ms": report.total_wall_time * 1e3,
        }
        Path(args.report).write_text(json.dumps(payload, indent=2) + "\n")


def _cmd_solve(args) -> int:
    spec = _load_structure(args.structure)
    report = solve_adaptive(spec, SolverConfig(alpha=args.alpha, order=args.order))
    _emit_solution(args, report, f"adaptive(alpha={args.alpha:g}, order={args.order})")
    return EXIT_OK


def _cmd_uniform(args) -> int:
    spec = _load_structure(args.structure)
    report = solve_uniform(spec, args.sections, order=args.order)
    _emit_solution(args, report, f"uniform(N={args.sections}, order={args.order})")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    spec = _load_structure(args.structure)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    try:
        grid = [float(v) for v in args.grid.split(",") if v.strip()]
    except ValueError:
        raise ValueError(f"grid must be a comma-separated list of numbers, got {args.grid!r}") from None
    records = harness.run_sweep(spec, methods, grid, oracle_sections=args.oracle_sections)
    if args.out:
        with open(args.out, "w") as fh:
            harness.write_sweep_csv(records, fh)
        print(f"wrote {len(records)} sweep rows to {args.out}", file=sys.stderr)
    else:
        harness.write_sweep_csv(records, sys.stdout)
    return EXIT_OK


def _cmd_validate(args) -> int:
    if args.list:
        for name in checks_mod.check_names():
            print(name)
        return EXIT_OK
    results = checks_mod.run_checks()
    width = max(len(r.name) for r in results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{r.name:<{width}}  {status}  ({r.detail})")
    if all(r.passed for r in results):
        print(f"all {len(results)} checks passed")
        return EXIT_OK
    failed = sum(1 for r in results if not r.passed)
    print(f"{failed} of {len(results)} checks FAILED", file=sys.stderr)
    return EXIT_NUMERIC


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arcwa",
        description="Scattering matrices of structures with varying cross-sections.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="adaptive solve down to an error bound")
    solve.add_argument("--structure", required=True, help="structure document path")
    solve.add_argument("--alpha", type=float, required=True, help="error bound")
    solve.add_argument("--order", type=int, choices=[0, 1], default=1)
    solve.add_argument("--out", help="scattering-matrix CSV path (default: stdout)")
    solve.add_argument("--report", help="optional JSON report path")
    solve.set_defaults(func=_cmd_solve)

    uniform = sub.add_parser("uniform", help="fixed-resolution cascade")
    uniform.add_argument("--structure", required=True, help="structure document path")
    uniform.add_argument("--sections", type=int, required=True, help="number of equal sections")
    uniform.add_argument("--order", type=int, choices=[0, 1], default=0)
    uniform.add_argument("--out", help="scattering-matrix CSV path (default: stdout)")
    uniform.add_argument("--report", help="optional JSON report path")
    uniform.set_defaults(func=_cmd_uniform)

    sweep = sub.add_parser("sweep", help="error/cost sweeps against a ground-truth cascade")
    sweep.add_argument("--structure", required=True, help="structure document path")
    sweep.add_argument("--methods", default="uniform0,uniform1,adaptive", help="comma list from: uniform0,uniform1,adaptive")
    sweep.add_argument("--grid", required=True, help="comma list of knobs (N or alpha)")
    sweep.add_argument("--oracle-sections", type=int, default=256, help="ground-truth resolution")
    sweep.add_argument("--out", help="sweep CSV path (default: stdout)")
    sweep.set_defaults(func=_cmd_sweep)

    validate = sub.add_parser("validate", help="run the built-in analytic oracle checks")
    validate.add_argument("--list", action="store_true", help="list check names and exit")
    validate.set_defaults(func=_cmd_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _check_distinct(args)
        _check_writable(getattr(args, "out", None), getattr(args, "report", None))
        return args.func(args)
    except (OSError, StructureError, ValueError) as exc:
        print(f"arcwa: input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError as exc:
        print(f"arcwa: input error: {exc}; the dense operators grow as (2 * truncation_order + 1)^2", file=sys.stderr)
        return EXIT_INPUT
    except ArcwaError as exc:
        print(f"arcwa: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
