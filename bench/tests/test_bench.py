"""Tests of the benchmark itself: counters, seeding, checks and the tracer.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import workloads
from arcwa import cascade, geometry, modal, numerics, solver
from tracer import Tracer, summarize


@pytest.mark.parametrize("truncation", [3, 25])
def test_warm_adaptive_solve_counters(truncation):
    """One warm solve of the README taper at TE, alpha 1e-4 (n = 7 and 51)."""
    doc = workloads.structure_doc(workloads.geometry_for(0), "taper", "TE", truncation)
    spec = geometry.parse_structure(doc)
    config = solver.SolverConfig(alpha=1e-4)
    solver.solve_adaptive(spec, config)
    tracer = Tracer()
    tracer.install()
    try:
        solver.solve_adaptive(spec, config)
    finally:
        tracer.uninstall()
    calls = summarize(tracer.take())["calls"]
    assert calls["sections.first_order_smatrix"] == 121
    assert calls["modal.eigen_basis"] == 81
    assert calls["operators.assemble_operators"] == 323
    assert calls["numerics.condition_number"] == 571
    assert calls["cascade.star"] == 81


def test_tracer_wraps_every_binding_and_restores_them():
    originals = (numerics.condition_number, modal.condition_number, cascade.condition_number)
    assert originals[0] is originals[1] is originals[2]
    tracer = Tracer()
    tracer.install()
    try:
        wrapped = (numerics.condition_number, modal.condition_number, cascade.condition_number)
        assert wrapped[0] is not originals[0]
        assert wrapped[0] is wrapped[1] is wrapped[2]
    finally:
        tracer.uninstall()
    assert (numerics.condition_number, modal.condition_number, cascade.condition_number) == originals


def test_summarize_subtracts_child_spans():
    spans = [
        ("solver.solve_adaptive", 0.0, 10.0, -1, None),
        ("operators.assemble_operators", 1.0, 4.0, 0, 0.5),
        ("operators.fourier_eps", 2.0, 3.0, 1, None),
        ("operators.assemble_operators", 5.0, 6.0, 0, 0.5),
    ]
    summary = summarize(spans)
    assert summary["self_s"]["solver.solve_adaptive"] == pytest.approx(6.0)
    assert summary["self_s"]["operators.assemble_operators"] == pytest.approx(3.0)
    assert summary["calls"]["operators.assemble_operators"] == 2
    assert summary["distinct_keys"]["operators.assemble_operators"] == 1


def test_seed_changes_geometry_but_not_case_list(tmp_path):
    default = workloads.geometry_for(0)
    assert default == workloads.Geometry(0.26, 0.37, 0.05, 0.7)
    for seed in (1, 2, 3):
        geo = workloads.geometry_for(seed)
        assert geo != default
        assert geo == workloads.geometry_for(seed)
        assert abs(geo.taper_start - 0.26) <= 0.02 and abs(geo.taper_end - 0.37) <= 0.02
        assert 0.04 <= geo.sinusoid_amplitude <= 0.06 and 0.6 <= geo.sinusoid_period_z <= 0.8
    first = workloads.Workload("cli_io", 0, tmp_path, reference_file=None)
    other = workloads.Workload("cli_io", 5, tmp_path, reference_file=None)
    assert [c.name for c in first.cases] == [c.name for c in other.cases]
    assert all(first.docs[c.name] != other.docs[c.name] for c in first.cases)


def _cli_io_loop(tmp_path, reference_file):
    prepared = workloads.Workload("cli_io", workloads.DEFAULT_SEED, tmp_path, reference_file)
    loop = run.Loop(prepared)
    loop.one_pass()
    return loop


def test_default_seed_matches_the_stored_references(tmp_path):
    loop = _cli_io_loop(tmp_path, workloads.REFERENCE_FILE)
    assert loop.attempted == 2
    assert loop.failures == []


def _with_port_factors(blocks, factors):
    """Blocks of ``f_i S_ij f_j`` for one factor per port mode (left modes first)."""
    full = factors[:, None] * workloads.full_smatrix(blocks) * factors[None, :]
    n = blocks[0].shape[0]
    return full[n:, :n], full[n:, n:], full[:n, :n], full[:n, n:]


def _cli_io_loop_with_reference(tmp_path, case, transform):
    """A cli_io pass against the stored references, with ``case``'s transformed."""
    with np.load(workloads.REFERENCE_FILE) as data:
        arrays = dict(data)
    keys = [workloads.reference_key("cli_io", case, b) for b in workloads.BLOCKS]
    for key, block in zip(keys, transform(tuple(arrays[k] for k in keys))):
        arrays[key] = block
    changed = tmp_path / "changed.npz"
    np.savez(changed, **arrays)
    return _cli_io_loop(tmp_path, changed)


def test_flipped_port_mode_signs_still_match_the_reference(tmp_path):
    case = workloads.WORKLOADS["cli_io"][1]
    signs = np.random.default_rng(7).choice([-1.0, 1.0], 2 * (2 * case.truncation + 1))
    loop = _cli_io_loop_with_reference(tmp_path, case, lambda b: _with_port_factors(b, signs))
    assert loop.failures == []


def test_phase_only_corruption_is_reported_as_a_failure(tmp_path):
    """A shifted port reference plane: every magnitude kept, phases moved."""
    case = workloads.WORKLOADS["cli_io"][1]
    phases = np.exp(1j * 1e-6 * np.arange(2 * (2 * case.truncation + 1)))
    loop = _cli_io_loop_with_reference(tmp_path, case, lambda b: _with_port_factors(b, phases))
    assert loop.attempted == 2
    assert len(loop.failures) == 1
    assert case.name in loop.failures[0] and "reference" in loop.failures[0]


def test_run_refuses_a_directory_without_sources(tmp_path):
    bench = Path(run.__file__).resolve().parent
    shutil.copytree(bench, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", "tests"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli_io", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_reports_exactly_the_listed_metrics(trace, section):
    root = Path(run.__file__).resolve().parent.parent
    listed = json.loads((root / "BENCHMARK.json").read_text())[section]
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli_io", "--seed", "3", "--seconds", "0",
         "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=300, check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed
    }
