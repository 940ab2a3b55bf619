"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines. The desk-scale geometry is the linear taper fixture; ground truth
is a 256-section zeroth-order cascade.
"""

import time

import numpy as np

from arcwa import checks
from arcwa.cascade import projection_pair, project_left, star
from arcwa.geometry import Polarization, slice_at
from arcwa.harness import max_norm_difference
from arcwa.numerics import max_abs
from arcwa.sections import zeroth_order_smatrix
from arcwa.solver import SolverConfig, solve_adaptive, solve_uniform

from conftest import (
    assemble_operators,
    assert_check,
    blocks_diff,
    eigen_basis,
    first_order_section,
    random_basis,
    random_passive_smatrix,
)


def report_pass(number: int, message: str) -> None:
    print(f"criterion {number} PASS: {message}")


def test_criterion_1_zero_variation_equivalence():
    started = time.perf_counter()
    detail = assert_check(checks.constant_section_order_equivalence)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    report_pass(1, f"constant sections, {detail} ({elapsed:.2f}s)")


def test_criterion_2_analytic_slab_oracle():
    started = time.perf_counter()
    details = [f"{p.value} {assert_check(checks.slab_airy, p)}" for p in Polarization]
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    report_pass(2, f"slab vs two-interface formula, {', '.join(details)} ({elapsed:.2f}s)")


def test_criterion_3_convergence_order(taper_spec, taper_oracle):
    started = time.perf_counter()
    ratios = {}
    for n in (2, 4, 8, 16, 32, 64):
        e0 = max_norm_difference(solve_uniform(taper_spec, n, order=0).smat, taper_oracle.smat)
        e1 = max_norm_difference(solve_uniform(taper_spec, n, order=1).smat, taper_oracle.smat)
        assert e1 <= e0, f"order-1 error {e1:.3e} exceeds order-0 error {e0:.3e} at N={n}"
        ratios[n] = e1 / e0
    assert ratios[64] <= 0.5
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    report_pass(3, f"order-1 error <= order-0 at every N; ratio(N=64) = {ratios[64]:.3f} <= 0.5 ({elapsed:.1f}s)")


def test_criterion_4_adaptive_alpha_bound(taper_spec, taper_oracle):
    started = time.perf_counter()
    achieved = {}
    for alpha in (1e-1, 1e-2, 1e-3):
        report = solve_adaptive(taper_spec, SolverConfig(alpha=alpha))
        err = max_norm_difference(report.smat, taper_oracle.smat)
        achieved[alpha] = err
        assert err <= alpha, f"adaptive error {err:.3e} exceeds alpha {alpha:.0e}"
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    detail = ", ".join(f"alpha={a:.0e}: err={e:.2e}" for a, e in achieved.items())
    report_pass(4, f"{detail} ({elapsed:.1f}s)")


def test_criterion_5_efficiency_proxy(taper_spec, taper_oracle):
    started = time.perf_counter()
    target = 1e-3

    # Cheapest adaptive run on the alpha grid whose achieved error meets
    # the target (the performance-accuracy curve read at matched error).
    adaptive_eigs = None
    for alpha in (1e-1, 3e-2, 1e-2, 3e-3, 1e-3):
        report = solve_adaptive(taper_spec, SolverConfig(alpha=alpha))
        err = max_norm_difference(report.smat, taper_oracle.smat)
        if err <= target and (adaptive_eigs is None or report.total_eig_count < adaptive_eigs):
            adaptive_eigs = report.total_eig_count
    assert adaptive_eigs is not None

    # Smallest uniform zeroth-order N reaching the target (eig count = N).
    smallest_n = None
    for n in range(2, 257):
        err = max_norm_difference(solve_uniform(taper_spec, n, order=0).smat, taper_oracle.smat)
        if err <= target:
            smallest_n = n
            break
    assert smallest_n is not None
    assert adaptive_eigs <= 0.5 * smallest_n, (
        f"adaptive needs {adaptive_eigs} eigendecompositions, uniform order-0 needs N={smallest_n}"
    )
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    report_pass(
        5,
        f"adaptive eigs {adaptive_eigs} <= 0.5 x uniform0 N {smallest_n} at error <= 1e-3 ({elapsed:.1f}s)",
    )


def test_criterion_6_projection_correctness():
    started = time.perf_counter()
    rng = np.random.default_rng(60)
    n = 4
    worst = 0.0
    for _ in range(50):
        b_prev = random_basis(rng, n)
        b_cur = random_basis(rng, n)
        s = random_passive_smatrix(rng, n, b_cur.basis_id, b_cur.basis_id)
        pp = projection_pair(b_prev, b_cur)
        projected = project_left(s, pp, b_prev.basis_id)

        a_old = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        b_right = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        zero = np.zeros((n, n), dtype=np.complex128)
        eye = np.eye(n, dtype=np.complex128)
        system = np.block(
            [
                [b_cur.W, b_cur.W, -b_prev.W],
                [b_cur.V, -b_cur.V, b_prev.V],
                [-s.R_L, eye, zero],
            ]
        )
        rhs = np.concatenate([b_prev.W @ a_old, b_prev.V @ a_old, s.T_RL @ b_right])
        solution = np.linalg.solve(system, rhs)
        a_l, b_l, b_old = solution[:n], solution[n : 2 * n], solution[2 * n :]
        a_r = s.T_LR @ a_l + s.R_R @ b_right
        worst = max(
            worst,
            max_abs(projected.R_L @ a_old + projected.T_RL @ b_right - b_old),
            max_abs(projected.T_LR @ a_old + projected.R_R @ b_right - a_r),
        )
        assert worst <= 1e-9

    identity = assert_check(checks.projection_identity)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    report_pass(
        6, f"50 random projections vs direct solve, worst residual {worst:.2e} <= 1e-9; {identity} ({elapsed:.2f}s)"
    )


def test_criterion_7_algebra_properties():
    started = time.perf_counter()
    rng = np.random.default_rng(70)
    n = 4
    ids = [1, 2, 3, 4]
    worst_assoc = 0.0
    for _ in range(100):
        s1 = random_passive_smatrix(rng, n, ids[0], ids[1])
        s2 = random_passive_smatrix(rng, n, ids[1], ids[2])
        s3 = random_passive_smatrix(rng, n, ids[2], ids[3])
        worst_assoc = max(worst_assoc, blocks_diff(star(star(s1, s2), s3), star(s1, star(s2, s3))))
        assert worst_assoc <= 1e-10

    identity = assert_check(checks.star_identity)
    roundtrip = assert_check(checks.mode_roundtrip)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    report_pass(
        7,
        f"associativity {worst_assoc:.2e} <= 1e-10, {identity}, {roundtrip} ({elapsed:.2f}s)",
    )


def test_criterion_8_estimator_construction_identity(taper_spec):
    worst = 0.0
    for z_l, z_r in ((0.0, 1.0), (0.0, 0.5), (0.25, 0.75), (0.9, 1.0)):
        mid = 0.5 * (z_l + z_r)
        ops = assemble_operators(slice_at(taper_spec, mid), taper_spec)
        basis = eigen_basis(ops)
        first = first_order_section(taper_spec, z_l, z_r, basis, ops)
        zeroth = zeroth_order_smatrix(basis, z_l, z_r)
        gap = blocks_diff(first.smat, zeroth)
        rel = abs(first.est_error - gap) / max(gap, 1e-300)
        worst = max(worst, rel)
        assert rel <= 1e-12
    report_pass(8, f"estimate == max-norm of S1 - S0 per section, worst rel dev {worst:.2e}")


def test_criterion_9_reuse_accounting(taper_spec):
    report = solve_adaptive(taper_spec, SolverConfig(alpha=1e-3))
    assert len(report.sections) > 3, "run must be multi-level to exercise reuse"
    assert report.total_eig_count < report.sections_solved, (
        f"eig count {report.total_eig_count} not below sections solved {report.sections_solved}"
    )
    report_pass(
        9,
        f"total_eig_count {report.total_eig_count} < sections solved {report.sections_solved} "
        f"({len(report.sections)} leaf sections)",
    )
