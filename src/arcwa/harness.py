"""Experiment sweeps and CSV serialization.

A sweep runs one or more method families (fixed-resolution order 0/1,
adaptive) over a knob grid, measures each run's max-norm error against a
high-resolution ground-truth cascade, and records cost counters. CSV
output is deterministic for identical inputs: rows follow the requested
method/knob order and floats are written with repr (shortest round-trip
form), so only the wall-time column varies between runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Sequence, TextIO

from .errors import BasisMismatchError
from .geometry import StructureSpec
from .numerics import max_abs
from .sections import ScatteringMatrix
from .solver import SolveReport, SolverConfig, solve_adaptive, solve_uniform

METHODS = ("uniform0", "uniform1", "adaptive")

_BLOCK_NAMES = (("TLR", "T_LR"), ("RR", "R_R"), ("RL", "R_L"), ("TRL", "T_RL"))


@dataclass(frozen=True)
class SweepRecord:
    """One sweep run: method, its knob (N or alpha), error and cost."""

    method: str
    knob: float
    error_max_norm: float
    wall_ms: float
    eig_count: int


def max_norm_difference(s1: ScatteringMatrix, s2: ScatteringMatrix) -> float:
    """Largest absolute entry of S1 - S2 across all four blocks.

    Both matrices must be expressed in the same bases; solver outputs are
    port-normalized, so results for the same structure always compare.
    """
    if (s1.left_basis_id, s1.right_basis_id) != (s2.left_basis_id, s2.right_basis_id):
        raise BasisMismatchError(
            f"cannot compare: bases ({s1.left_basis_id}, {s1.right_basis_id}) vs "
            f"({s2.left_basis_id}, {s2.right_basis_id})"
        )
    return max(
        max_abs(getattr(s1, attr) - getattr(s2, attr)) for _, attr in _BLOCK_NAMES
    )


def _section_count(method: str, knob: float) -> int:
    """A uniform method's knob as its section count: a finite integer >= 1."""
    if not (math.isfinite(knob) and knob >= 1 and knob == int(knob)):
        raise ValueError(f"{method} knob must be a whole number of sections >= 1, got {knob!r}")
    return int(knob)


def _planned_run(method: str, knob: float) -> Callable[[StructureSpec], SolveReport]:
    """The solve of one pair of a method of METHODS and its knob, checked now: a section count or an alpha."""
    if method == "adaptive":
        return partial(solve_adaptive, config=SolverConfig(alpha=float(knob)))
    return partial(solve_uniform, n_sections=_section_count(method, knob), order={"uniform0": 0, "uniform1": 1}[method])


def run_sweep(
    spec: StructureSpec,
    methods: Sequence[str],
    grid: Sequence[float],
    oracle_sections: int = 256,
) -> list[SweepRecord]:
    """Run every (method, knob) pair against a fixed-resolution ground truth.

    The knob is a section count for the uniform methods and an error bound
    alpha for the adaptive one. Every pair's knob is checked before the
    ground truth or any pair is solved. Rows come back in deterministic
    method-major, knob-minor order.
    """
    if not methods:
        raise ValueError("no methods given")
    if not grid:
        raise ValueError("empty knob grid")
    unknown = [m for m in methods if m not in METHODS]
    if unknown:
        raise ValueError(f"unknown method(s) {unknown}; expected one of {METHODS}")
    runs = [(method, knob, _planned_run(method, knob)) for method in methods for knob in grid]

    oracle = solve_uniform(spec, oracle_sections, order=0)
    records = []
    for method, knob, run in runs:
        report = run(spec)
        records.append(
            SweepRecord(
                method=method,
                knob=float(knob),
                error_max_norm=max_norm_difference(report.smat, oracle.smat),
                wall_ms=report.total_wall_time * 1e3,
                eig_count=report.total_eig_count,
            )
        )
    return records


def _fmt(value: float) -> str:
    return repr(int(value)) if float(value).is_integer() else repr(float(value))


def write_smatrix_csv(smat: ScatteringMatrix, stream: TextIO) -> None:
    """Write the four blocks as `block,row,col,re,im` rows.

    Each block is converted to Python numbers once and written as one string.
    """
    stream.write("block,row,col,re,im\n")
    for name, attr in _BLOCK_NAMES:
        rows = getattr(smat, attr).tolist()
        stream.write(
            "".join(
                f"{name},{row},{col},{value.real!r},{value.imag!r}\n"
                for row, values in enumerate(rows)
                for col, value in enumerate(values)
            )
        )


def write_sweep_csv(records: Iterable[SweepRecord], stream: TextIO) -> None:
    """Write sweep rows as `method,knob,error_max_norm,wall_ms,eig_count`."""
    stream.write("method,knob,error_max_norm,wall_ms,eig_count\n")
    for rec in records:
        stream.write(
            f"{rec.method},{_fmt(rec.knob)},{float(rec.error_max_norm)!r},"
            f"{float(rec.wall_ms)!r},{rec.eig_count}\n"
        )
