"""Fixed-resolution and adaptive solvers."""

import bisect
import math
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from arcwa import cascade, modal, numerics, operators, sections, solver
from arcwa.errors import MaxDepthExceededError
from arcwa.geometry import parse_structure
from arcwa.harness import max_norm_difference
from arcwa.numerics import max_abs
from arcwa.solver import (
    SolverConfig,
    port_bases,
    solve_adaptive,
    solve_uniform,
)

from conftest import TAPER_DOC, first_order_section, two_step_join


# README taper at n = 7: (solve, operator assemblies, sections solved, eigendecompositions,
# eigen_basis calls, guarded factorizations). The calls add the two ports. Each interface is one
# factorization: (leaves - 1) between sections plus one per port.
REUSE_CASES = {
    "midpoint-M3": (lambda spec: solve_adaptive(spec, SolverConfig(alpha=1e-4)), 163, 121, 81, 83, 82),
    "uniform-N64-order1": (lambda spec: solve_uniform(spec, 64, order=1), 129, 64, 64, 66, 65),
}

# Fixed partitions at order 0 read no estimate: only the ends and the references are assembled.
ORDER0_CASES = {
    "uniform-N64-order0-midpoint": (lambda spec: solve_uniform(spec, 64), 66, 64, 64, 66, 65),
}
# Im(eps) = 1e-3 in the core: non-Hermitian operators, so every basis takes the geev route,
# whose W and V inverses add two factorizations per eigen_basis call.
LOSSY_TAPER_DOC = TAPER_DOC.replace("eps: [12.25, 0.0]", "eps: [12.25, 0.001]")
TM_TAPER_DOC = TAPER_DOC.replace("polarization: TE", "polarization: TM")
OTHER_CASES = {
    "lossy-midpoint-M3": (
        lambda spec: solve_adaptive(parse_structure(LOSSY_TAPER_DOC), SolverConfig(alpha=1e-4)),
        163,
        121,
        81,
        83,
        82 + 2 * 83,
    ),
    # TM operators invert two Toeplitz matrices per assembly.
    "TM-midpoint-M3": (
        lambda spec: solve_adaptive(parse_structure(TM_TAPER_DOC), SolverConfig(alpha=1e-4)),
        163,
        121,
        81,
        83,
        82 + 2 * 163,
    ),
}
COUNTER_CASES = {**REUSE_CASES, **ORDER0_CASES, **OTHER_CASES}


def leaf_edges(report):
    edges = [report.sections[0][0]]
    edges.extend(z_r for _, z_r, _ in report.sections)
    return edges


def test_uniform_single_constant_section_analytic(constant_spec):
    report = solve_uniform(constant_spec, 1, order=1)
    left, right = port_bases(constant_spec)
    expected = np.diag(np.exp(1j * left.lam * left.k0 * 1.0))
    assert max_abs(report.smat.T_LR - expected) <= 1e-12
    assert max_abs(report.smat.R_L) <= 1e-12
    assert max_abs(report.smat.R_R) <= 1e-12
    assert report.smat.left_basis_id == left.basis_id
    assert report.smat.right_basis_id == right.basis_id


def test_uniform_constant_sections_compose_exactly(constant_spec):
    one = solve_uniform(constant_spec, 1, order=0)
    two = solve_uniform(constant_spec, 2, order=0)
    assert max_norm_difference(one.smat, two.smat) <= 1e-12


def test_uniform_counts_and_tiling(taper_spec):
    report = solve_uniform(taper_spec, 8, order=1)
    assert report.total_eig_count == 8
    assert report.sections_solved == 8
    edges = leaf_edges(report)
    assert edges[0] == taper_spec.z_min
    assert edges[-1] == taper_spec.z_max
    assert all(b > a for a, b in zip(edges, edges[1:]))
    for (_, r_end, _), (l_start, _, _) in zip(report.sections, report.sections[1:]):
        assert r_end == l_start


def test_uniform_order0_convergence_trend(taper_spec, taper_oracle):
    errors = [
        max_norm_difference(solve_uniform(taper_spec, n, order=0).smat, taper_oracle.smat)
        for n in (2, 8, 32, 128)
    ]
    assert errors[-1] < errors[0] / 100.0
    assert all(b < a for a, b in zip(errors, errors[1:]))


def test_uniform_order1_beats_order0(taper_spec, taper_oracle):
    for n in (2, 8, 32):
        e0 = max_norm_difference(solve_uniform(taper_spec, n, order=0).smat, taper_oracle.smat)
        e1 = max_norm_difference(solve_uniform(taper_spec, n, order=1).smat, taper_oracle.smat)
        assert e1 <= e0


def test_adaptive_huge_alpha_single_section(taper_spec):
    report = solve_adaptive(taper_spec, SolverConfig(alpha=1e9))
    assert len(report.sections) == 1
    assert report.sections[0][0] == taper_spec.z_min
    assert report.sections[0][1] == taper_spec.z_max
    assert report.total_eig_count == 1
    assert report.sections_solved == 1


def test_adaptive_constant_structure(constant_spec):
    report = solve_adaptive(constant_spec, SolverConfig(alpha=1e-12))
    assert len(report.sections) == 1
    assert report.sections[0][2] == 0.0
    left, _ = port_bases(constant_spec)
    expected = np.diag(np.exp(1j * left.lam * left.k0 * 1.0))
    assert max_abs(report.smat.T_LR - expected) <= 1e-12


@pytest.mark.parametrize("alpha", [1e-1, 1e-2, 1e-3])
def test_adaptive_error_bounded_by_alpha(taper_spec, taper_oracle, alpha):
    report = solve_adaptive(taper_spec, SolverConfig(alpha=alpha))
    assert max_norm_difference(report.smat, taper_oracle.smat) <= alpha
    assert all(est < alpha for _, _, est in report.sections)


def test_adaptive_section_count_grows_as_alpha_shrinks(taper_spec):
    counts = [
        len(solve_adaptive(taper_spec, SolverConfig(alpha=a)).sections)
        for a in (1e-1, 1e-2, 1e-3)
    ]
    assert counts[0] <= counts[1] <= counts[2]
    assert counts[2] > counts[0]


def test_adaptive_midpoint_reuse_accounting(taper_spec):
    report = solve_adaptive(taper_spec, SolverConfig(alpha=1e-3))
    leaves = len(report.sections)
    subdivisions = (leaves - 1) // 2
    assert report.sections_solved == 3 * subdivisions + 1
    assert report.total_eig_count == 2 * subdivisions + 1
    assert report.total_eig_count < report.sections_solved


def test_adaptive_tiling_is_exact(taper_spec):
    report = solve_adaptive(taper_spec, SolverConfig(alpha=1e-3))
    edges = leaf_edges(report)
    assert edges[0] == taper_spec.z_min
    assert edges[-1] == taper_spec.z_max
    for (_, r_end, _), (l_start, _, _) in zip(report.sections, report.sections[1:]):
        assert r_end == l_start


def test_adaptive_monotone_refinement(taper_spec):
    coarse = solve_adaptive(taper_spec, SolverConfig(alpha=1e-2))
    fine = solve_adaptive(taper_spec, SolverConfig(alpha=1e-3))
    coarse_edges = set(leaf_edges(coarse))
    fine_edges = set(leaf_edges(fine))
    assert coarse_edges <= fine_edges


def test_adaptive_determinism(taper_spec):
    r1 = solve_adaptive(taper_spec, SolverConfig(alpha=1e-2))
    r2 = solve_adaptive(taper_spec, SolverConfig(alpha=1e-2))
    assert r1.sections == r2.sections
    assert np.array_equal(r1.smat.T_LR, r2.smat.T_LR)
    assert np.array_equal(r1.smat.R_L, r2.smat.R_L)
    assert np.array_equal(r1.smat.R_R, r2.smat.R_R)
    assert np.array_equal(r1.smat.T_RL, r2.smat.T_RL)


def section_and_depth(error):
    """The section [z_L, z_R] and the depth a MaxDepthExceededError names, without its estimate."""
    return re.search(r"section (\[.*?\]) .* at depth (\d+)", str(error)).groups()


@pytest.mark.parametrize("split_harmonics", [math.inf, 7], ids=["unsplit", "split"])
def test_adaptive_max_depth(taper_spec, monkeypatch, split_harmonics):
    """Both paths grow one tree, so a split solve has one rerun and fails where the unsplit one does."""
    with pytest.raises(MaxDepthExceededError) as unsplit:
        solve_adaptive(taper_spec, SolverConfig(alpha=1e-300))
    monkeypatch.setattr(solver, "_SPLIT_HARMONICS", split_harmonics)
    # No estimate is below alpha = 1e-300, so the refinement reaches the depth limit.
    with pytest.raises(MaxDepthExceededError, match="at depth 20") as batched:
        solve_adaptive(taper_spec, SolverConfig(alpha=1e-300))
    # A batch meets the limit out of depth-first order; the error is the depth-first one.
    monkeypatch.setattr(solver, "_BATCH_ENTRIES", 1)
    with pytest.raises(MaxDepthExceededError) as depth_first:
        solve_adaptive(taper_spec, SolverConfig(alpha=1e-300))
    assert str(batched.value) == str(depth_first.value)
    assert section_and_depth(batched.value) == section_and_depth(unsplit.value)


def test_adaptive_order0_uses_zeroth_order_leaves(taper_spec, taper_oracle):
    config = SolverConfig(alpha=1e-2, order=0)
    report = solve_adaptive(taper_spec, config)
    # Same subdivision as order 1 (the estimate is shared), coarser matrix.
    first = solve_adaptive(taper_spec, SolverConfig(alpha=1e-2, order=1))
    assert [s[:2] for s in report.sections] == [s[:2] for s in first.sections]
    e0 = max_norm_difference(report.smat, taper_oracle.smat)
    e1 = max_norm_difference(first.smat, taper_oracle.smat)
    assert e1 <= e0


@pytest.mark.parametrize("order", [0, 1])
def test_uniform_is_one_piece_adaptive_at_infinite_alpha(taper_spec, order):
    uniform = solve_uniform(taper_spec, 1, order=order)
    adaptive = solve_adaptive(taper_spec, SolverConfig(alpha=math.inf, order=order))
    assert uniform.sections == adaptive.sections
    assert uniform.sections_solved == adaptive.sections_solved == 1
    for block in ("T_LR", "R_R", "R_L", "T_RL"):
        assert np.array_equal(getattr(uniform.smat, block), getattr(adaptive.smat, block))
    if order == 0:
        # Nothing reads the estimate, so it is not computed.
        assert adaptive.sections[0][2] == 0.0


def test_tm_adaptive_bound():
    spec = parse_structure(TAPER_DOC.replace("TE", "TM"))
    oracle = solve_uniform(spec, 256, order=0)
    report = solve_adaptive(spec, SolverConfig(alpha=1e-2))
    assert max_norm_difference(report.smat, oracle.smat) <= 1e-2


def test_taper_flux_conservation(taper_spec, taper_oracle):
    """Lossless staircase cascade conserves modal power in the truncated basis."""
    left, right = port_bases(taper_spec)
    s = taper_oracle.smat

    def propagating(lam):
        return np.where(np.abs(lam.imag) < 1e-9)[0]

    prop_l, prop_r = propagating(left.lam), propagating(right.lam)
    assert prop_l.size and prop_r.size
    for k in prop_l:
        incident = left.lam[k].real
        transmitted = sum(right.lam[m].real * abs(s.T_LR[m, k]) ** 2 for m in prop_r)
        reflected = sum(left.lam[m].real * abs(s.R_L[m, k]) ** 2 for m in prop_l)
        assert transmitted + reflected == pytest.approx(incident, rel=1e-6)


def test_sweep_records_mirror_reports(taper_spec):
    from arcwa.harness import run_sweep

    records = run_sweep(taper_spec, ["uniform0"], [4.0, 8.0], oracle_sections=32)
    records += run_sweep(taper_spec, ["adaptive"], [1e-2], oracle_sections=32)
    by_method = {(r.method, r.knob): r for r in records}
    assert by_method[("uniform0", 4.0)].eig_count == solve_uniform(taper_spec, 4, 0).total_eig_count
    assert by_method[("uniform0", 8.0)].eig_count == 8
    adaptive_report = solve_adaptive(taper_spec, SolverConfig(alpha=1e-2))
    assert by_method[("adaptive", 1e-2)].eig_count == adaptive_report.total_eig_count
    assert all(r.error_max_norm >= 0.0 for r in records)


def test_results_compare_after_many_other_solves(taper_spec):
    """Port basis ids follow the content, not a cache of recently solved specs."""
    config = SolverConfig(alpha=1e-2)
    first = solve_adaptive(taper_spec, config)
    for k in range(40):
        other = parse_structure(TAPER_DOC.replace("end: 0.37", f"end: {0.30 + 0.001 * k:.3f}"))
        solve_uniform(other, 1)
    again = solve_adaptive(taper_spec, config)
    assert max_norm_difference(first.smat, again.smat) == 0.0


def test_basis_ids_are_equal_across_processes():
    """Basis ids hash content alone: the same solve in two processes with different hash seeds, and in this
    one, returns the same port basis ids."""
    script = (
        "import sys; from arcwa.geometry import parse_structure; from arcwa.solver import solve_uniform; "
        "smat = solve_uniform(parse_structure(sys.argv[1]), 4).smat; print(smat.left_basis_id, smat.right_basis_id)"
    )
    ids = []
    for seed in ("1", "2"):
        # The child finds arcwa where this process found it, installed or not.
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path), "PYTHONHASHSEED": seed}
        proc = subprocess.run(
            [sys.executable, "-c", script, TAPER_DOC], capture_output=True, text=True, env=env, check=True
        )
        ids.append(proc.stdout.split())
    smat = solve_uniform(parse_structure(TAPER_DOC), 4).smat
    assert ids[0] == ids[1] == [str(smat.left_basis_id), str(smat.right_basis_id)]


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(alpha=-1.0)
    with pytest.raises(ValueError, match="alpha must be > 0, got nan"):
        SolverConfig(alpha=math.nan)
    with pytest.raises(ValueError):
        SolverConfig(alpha=1.0, order=2)
    with pytest.raises(ValueError):
        solve_uniform(parse_structure(TAPER_DOC), 0)


def counted(monkeypatch, module, name):
    """Replace ``module.name`` with a wrapper; returns the list of its calls."""
    calls = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def counted_entries(monkeypatch, module, name):
    """Replace the stacked kernel ``module.name`` with a wrapper; returns every stack entry it was given.

    The per-slice functions are stacks of one of these kernels, so this counts their calls too.
    """
    entries = []
    original = getattr(module, name)

    def wrapper(stack, *args, **kwargs):
        entries.extend(stack)
        return original(stack, *args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return entries


@pytest.mark.parametrize("case", COUNTER_CASES.values(), ids=COUNTER_CASES.keys())
def test_operator_and_guard_counters(taper_spec, monkeypatch, case):
    """Each z is assembled once, the ports add no assembly, each interface is one
    factorization, and no guard needs the SVD fallback."""
    solve, assemblies, solved, eigs, eigen_basis_calls, factorizations = case
    assembled = counted_entries(monkeypatch, operators, "assemble_stack")
    decomposed = counted_entries(monkeypatch, modal, "eigen_basis_stack")
    exact_conds = counted(monkeypatch, numerics, "condition_number")
    # One entry per guarded matrix that the guard inverts (not per call).
    factored = counted_entries(monkeypatch, numerics, "guarded_inverses")
    # Modules that imported the guard by name share the same count.
    for module in (modal, operators):
        monkeypatch.setattr(module, "guarded_inverses", numerics.guarded_inverses)
    report = solve(taper_spec)
    assert len({slc.z for slc in assembled}) == len(assembled)
    assert len(assembled) == assemblies
    assert len(factored) == factorizations
    assert report.sections_solved == solved
    assert report.total_eig_count == eigs
    assert len(decomposed) == eigen_basis_calls
    assert exact_conds == []


@pytest.mark.parametrize("case", REUSE_CASES.values(), ids=REUSE_CASES.keys())
def test_handed_down_operators_match_fresh_assembly(taper_spec, monkeypatch, case):
    """Every leaf re-solved alone with freshly assembled sample operators is bit-identical."""
    solve = case[0]
    original = sections.first_order_stack
    solved = {}

    def recording(stack):
        results = original(stack)
        for section, result in zip(stack, results):
            solved[section[:2]] = (section, result)
        return results

    monkeypatch.setattr(sections, "first_order_stack", recording)
    report = solve(taper_spec)
    monkeypatch.setattr(sections, "first_order_stack", original)
    assert len(report.sections) > 1
    for z_l, z_r, est_error in report.sections:
        (_, _, basis, ref_ops, (left_ops, right_ops)), used = solved[(z_l, z_r)]
        assert (left_ops.z, right_ops.z) == (z_l, z_r)
        assert abs(basis.z_ref - (z_l + z_r) / 2) <= 1e-12 * max(z_r - z_l, 1)
        fresh = first_order_section(taper_spec, z_l, z_r, basis, ref_ops)
        assert fresh.est_error == used.est_error == est_error
        for block in ("T_LR", "R_R", "R_L", "T_RL"):
            assert np.array_equal(getattr(fresh.smat, block), getattr(used.smat, block))


@pytest.mark.parametrize("split", [False, True], ids=["unsplit", "split"])
def test_boundary_operators_are_freed_with_their_sections(monkeypatch, split):
    """The peak memory of a uniform solve does not grow with its section count: no point outlives its sections.

    Both counts span at least two batches, so the smaller solve fills its rounds too: 16 and 128 sections
    unsplit (B = 9 at n = 21), 2B and 16B split (B = 33 per parity sector).
    """
    spec = parse_structure(TAPER_DOC.replace("truncation_order: 3", "truncation_order: 10"))
    if split:
        assert spec.mirror_x_um is not None and spec.n_harmonics >= solver._SPLIT_HARMONICS
        batch = solver._BATCH_ENTRIES // (spec.n_harmonics // 2 + 1) ** 2
        counts = (2 * batch, 16 * batch)
    else:
        monkeypatch.setattr(solver, "_SPLIT_HARMONICS", math.inf)
        counts = (16, 128)
    solve_uniform(spec, 1, order=1)
    peaks = []
    for n_sections in counts:
        tracemalloc.start()
        try:
            solve_uniform(spec, n_sections, order=1)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0], peaks


SINUSOID_DOC = TAPER_DOC.replace(
    "{kind: linear, start: 0.26, end: 0.37}", "{kind: sinusoidal, mean: 0.3, amplitude: 0.05, period_z: 0.7}"
)
BATCH_SOLVES = {
    **{f"adaptive-alpha{alpha:g}": (lambda spec, order, alpha=alpha: solve_adaptive(
        spec, SolverConfig(alpha=alpha, order=order))) for alpha in (1e-2, 1e-3, 1e-4)},
    **{f"uniform-N{n}": (lambda spec, order, n=n: solve_uniform(spec, n, order=order)) for n in (1, 7, 64)},
}


@pytest.mark.parametrize("truncation", [3, 10], ids=["n7", "n21"])
@pytest.mark.parametrize("loss", ["0.0", "0.001"], ids=["lossless", "lossy"])
@pytest.mark.parametrize("polarization", ["TE", "TM"])
@pytest.mark.parametrize("doc", [TAPER_DOC, SINUSOID_DOC], ids=["taper", "sinusoid"])
def test_batching_is_invisible(monkeypatch, doc, polarization, loss, truncation):
    """Evaluating the frontier in batches gives what one section at a time gives, bit for bit."""
    doc = doc.replace("polarization: TE", f"polarization: {polarization}").replace(
        "eps: [12.25, 0.0]", f"eps: [12.25, {loss}]"
    )
    spec = parse_structure(doc.replace("truncation_order: 3", f"truncation_order: {truncation}"))
    runs = [
        (name, order)
        for name in BATCH_SOLVES
        for order in (0, 1)
        # alpha = 1e-4 costs up to seconds a run, so it runs only at n = 7 and order 1: order 0 only
        # swaps the leaves of the order-1 tree.
        if not (name == "adaptive-alpha0.0001" and (truncation == 10 or order == 0))
    ]
    batched = [BATCH_SOLVES[name](spec, order) for name, order in runs]
    monkeypatch.setattr(solver, "_BATCH_ENTRIES", 1)
    for run, report in zip(runs, batched):
        expected = BATCH_SOLVES[run[0]](spec, run[1])
        for block in ("T_LR", "R_R", "R_L", "T_RL"):
            assert np.array_equal(getattr(report.smat, block), getattr(expected.smat, block)), run
        assert (report.smat.left_basis_id, report.smat.right_basis_id) == (
            expected.smat.left_basis_id,
            expected.smat.right_basis_id,
        ), run
        assert report.sections == expected.sections, run
        assert report.sections_solved == expected.sections_solved, run
        assert report.total_eig_count == expected.total_eig_count, run


@pytest.mark.parametrize("truncation, n_sections", [(3, 100), (10, 20), (25, 3)], ids=["n7", "n21", "n51"])
def test_batch_sizes(monkeypatch, truncation, n_sections):
    """An order-0 uniform solve decomposes its references in full batches of B = max(1, _BATCH_ENTRIES // n^2),
    then the two ports as one stack. From n = 21 up the mirror-symmetric taper solves per parity sector, with
    B sized for the even sector: each sector's references in stacks of min(N, B) at its own size (B = 33 at 11
    and at 10 modes, 6 at 26 and at 25), then the two full-size ports."""
    spec = parse_structure(TAPER_DOC.replace("truncation_order: 3", f"truncation_order: {truncation}"))
    stacks = []
    eigen_basis_stack = modal.eigen_basis_stack

    def recording(stack):
        stacks.append(stack)
        return eigen_basis_stack(stack)

    monkeypatch.setattr(modal, "eigen_basis_stack", recording)
    solve_uniform(spec, n_sections)
    split_stacks = {10: [(20, 11), (20, 10), (2, 21)], 25: [(3, 26), (3, 25), (2, 51)]}
    if truncation in split_stacks:
        assert max(1, solver._BATCH_ENTRIES // (truncation + 1) ** 2) == {10: 33, 25: 6}[truncation]
        assert [(len(stack), stack[0].n) for stack in stacks] == split_stacks[truncation]
        return
    *frontier, ports = [len(stack) for stack in stacks]
    batch = max(1, solver._BATCH_ENTRIES // spec.n_harmonics**2)
    assert max(frontier) == min(n_sections, batch)
    assert frontier == [batch] * (n_sections // batch) + [n_sections % batch] * (n_sections % batch > 0)
    assert ports == 2


def recorded_fold(monkeypatch):
    """Wrap ``cascade.join_stack``, ``cascade.direct_sum`` and ``sections.first_order_stack``; returns the
    events of a solve in order.

    A round of a sector is ("round", modes), at its first-order stack; a stacked join is ("join", pairs,
    results) and a direct sum ("sum", parts, result).
    """
    events = []
    join_stack, direct_sum, first_order_stack = cascade.join_stack, cascade.direct_sum, sections.first_order_stack

    def joining(pairs):
        results = join_stack(pairs)
        events.append(("join", pairs, results))
        return results

    def summing(t, parts):
        result = direct_sum(t, parts)
        events.append(("sum", parts, result))
        return result

    def evaluating(stack):
        events.append(("round", stack[0][2].n))
        return first_order_stack(stack)

    monkeypatch.setattr(cascade, "join_stack", joining)
    monkeypatch.setattr(cascade, "direct_sum", summing)
    monkeypatch.setattr(sections, "first_order_stack", evaluating)
    return events


def merged_ranges(events, leaves):
    """Per round, per stacked join, the leaf ranges ([first, mid), [mid, end)) that each of its pairs merges.

    A leaf is an operand that no join returned. Each left basis lies in the last leaf of its left operand and
    each right basis in the first leaf of its right operand: a section holds its reference point.
    """
    lefts = [z_l for z_l, _, _ in leaves]
    spans = {}

    def span(smat, basis, side):
        i = bisect.bisect_right(lefts, basis.z_ref) - 1
        first, end = spans.get(id(smat), (i, i + 1))
        assert i == (end - 1 if side == "left" else first)
        return first, end

    rounds = []
    for event in events:
        if event[0] == "round":
            rounds.append([])
            continue
        _, pairs, results = event
        merges = []
        for (left, left_basis, right, right_basis), result in zip(pairs, results):
            (first, mid), (mid_again, end) = span(left, left_basis, "left"), span(right, right_basis, "right")
            assert mid == mid_again
            spans[id(result)] = (first, end)
            merges.append(((first, mid), (mid, end)))
        rounds[-1].append(merges)
    return rounds


def binary_counter_tree(n_leaves):
    """The merges of the binary-counter fold of ``n_leaves`` leaves, sorted.

    Every aligned run of 2^j leaves, j >= 1, inside [0, n_leaves) is two aligned halves merged; the runs
    of the set bits of n_leaves, largest first, are then merged left to right.
    """
    merges = []
    size = 2
    while size <= n_leaves:
        merges += [((s, s + size // 2), (s + size // 2, s + size)) for s in range(0, n_leaves - size + 1, size)]
        size *= 2
    runs, start = [], 0
    for bit in reversed(range(n_leaves.bit_length())):
        if n_leaves >> bit & 1:
            runs.append((start, start + 2**bit))
            start += 2**bit
    for run in runs[1:]:
        merges.append(((0, run[0]), run))
    return sorted(merges)


FOLD_SOLVES = {
    "adaptive-midpoint": lambda spec, alpha: solve_adaptive(spec, SolverConfig(alpha=alpha)),
    "uniform-N16-order1": lambda spec, alpha: solve_uniform(spec, 16, order=1),
}


@pytest.mark.parametrize("truncation, alpha", [(3, 1e-2), (10, 1e-2)], ids=["n7", "n21"])
@pytest.mark.parametrize("solve", FOLD_SOLVES.values(), ids=FOLD_SOLVES.keys())
def test_leaves_fold_as_a_binary_counter(monkeypatch, solve, truncation, alpha):
    """The joins merge the leaves as the binary-counter tree of L leaves, whatever the batch size, then the
    two ports are joined on. Within a round, each level's merges are one stacked join.

    At n = 21 the mirror-symmetric sinusoid solves as two parity sectors: each sector merges the same tree,
    in the same stacked joins per round, and the left port is joined to the direct sum of the two folds.
    The sinusoid refines unevenly, so at n = 7 a batch accepts sections to the right of one it refines.
    """
    spec = parse_structure(SINUSOID_DOC.replace("truncation_order: 3", f"truncation_order: {truncation}"))
    trees = []
    for batch_entries in (solver._BATCH_ENTRIES, 1):
        with monkeypatch.context() as patch:
            patch.setattr(solver, "_BATCH_ENTRIES", batch_entries)
            events = recorded_fold(patch)
            report = solve(spec, alpha)
        *fold, (_, (left_port,), (ported,)), (_, (right_port,), _) = events
        assert right_port[0] is ported
        folds = [left_port[2]]
        if truncation == 10:
            *fold, (_, parts, (summed, _, _)) = fold
            assert left_port[2] is summed
            folds = [smat for smat, _, _ in parts]
        modes = list(dict.fromkeys(event[1] for event in fold if event[0] == "round"))
        assert modes == ([truncation + 1, truncation] if truncation == 10 else [spec.n_harmonics])
        sector_rounds = []
        for n, folded in zip(modes, folds, strict=True):
            sector = [event for event in fold if n == (event[1] if event[0] == "round" else event[1][0][1].n)]
            assert folded is sector[-1][2][-1]
            sector_rounds.append(merged_ranges(sector, report.sections))
        rounds = sector_rounds[0]
        assert all(other == rounds for other in sector_rounds)
        tree = sorted(merge for joins in rounds for merges in joins for merge in merges)
        assert tree == binary_counter_tree(len(report.sections))
        assert len(tree) == len(report.sections) - 1 > 1
        for joins in rounds:
            sizes = [{(mid - first, end - mid) for (first, mid), (_, end) in merges} for merges in joins]
            assert all(len(pair) == 1 for pair in sizes)
            sizes = [pair.pop() for pair in sizes]
            # One stacked join per level and round; the final joins, of a longer run and a shorter, are single.
            levels = [left for left, right in sizes if left == right]
            assert len(levels) == len(set(levels))
            assert all(len(merges) == 1 for merges, (left, right) in zip(joins, sizes) if left != right)
        trees.append((tree, max(len(merges) for joins in rounds for merges in joins)))
    (batched, widest), (single, one) = trees
    assert batched == single
    assert one == 1
    if truncation == 3:
        assert widest > 1


def full_smatrix(smat):
    """The 2n x 2n scattering matrix, left port modes first."""
    return np.block([[smat.R_L, smat.T_RL], [smat.T_LR, smat.R_R]])


def geev_route(monkeypatch):
    monkeypatch.setattr(modal, "_hermitian_eig", lambda q, p: [])


ROUTE_CASES = {
    "n7-adaptive": (3, lambda spec: solve_adaptive(spec, SolverConfig(alpha=1e-4))),
    "n21-uniform-N64-order1": (10, lambda spec: solve_uniform(spec, 64, order=1)),
}


@pytest.mark.parametrize("polarization", ["TE", "TM"])
@pytest.mark.parametrize("case", ROUTE_CASES.values(), ids=ROUTE_CASES.keys())
def test_lossless_smatrix_matches_the_geev_route(monkeypatch, case, polarization):
    """Port bases agree column by column up to a unit phase, and S agrees in those bases."""
    truncation, solve = case
    doc = TAPER_DOC.replace("truncation_order: 3", f"truncation_order: {truncation}")
    spec = parse_structure(doc.replace("polarization: TE", f"polarization: {polarization}"))
    ports, report = port_bases(spec), solve(spec)
    with monkeypatch.context() as patch:
        geev_route(patch)
        geev_ports, geev_report = port_bases(spec), solve(spec)
    phase = np.concatenate([np.sum(g.W.conj() * h.W, axis=0) for g, h in zip(geev_ports, ports)])
    assert_allclose(np.abs(phase), 1.0, rtol=0, atol=1e-10)
    expected = phase.conj()[:, None] * full_smatrix(geev_report.smat) * phase[None, :]
    assert max_abs(full_smatrix(report.smat) - expected) <= 5e-12
    assert leaf_edges(report) == leaf_edges(geev_report)
    assert report.total_eig_count == geev_report.total_eig_count


def test_lossy_smatrix_is_the_geev_route_bit_for_bit(monkeypatch):
    spec = parse_structure(LOSSY_TAPER_DOC)
    report = solve_adaptive(spec, SolverConfig(alpha=1e-3))
    geev_route(monkeypatch)
    geev_report = solve_adaptive(spec, SolverConfig(alpha=1e-3))
    assert np.array_equal(full_smatrix(report.smat), full_smatrix(geev_report.smat))
    assert report.smat.left_basis_id == geev_report.smat.left_basis_id


JOIN_CASES = {
    "adaptive-alpha1e-4": lambda spec: solve_adaptive(spec, SolverConfig(alpha=1e-4)),
    "uniform-N64-order1": lambda spec: solve_uniform(spec, 64, order=1),
}


@pytest.mark.parametrize("truncation", [3, 10], ids=["n7", "n21"])
@pytest.mark.parametrize("polarization", ["TE", "TM"])
@pytest.mark.parametrize("solve", JOIN_CASES.values(), ids=JOIN_CASES.keys())
def test_join_fold_matches_the_two_step_fold(monkeypatch, solve, polarization, truncation):
    doc = TAPER_DOC.replace("truncation_order: 3", f"truncation_order: {truncation}")
    spec = parse_structure(doc.replace("polarization: TE", f"polarization: {polarization}"))
    report = solve(spec)
    monkeypatch.setattr(cascade, "join", two_step_join)
    expected = solve(spec)
    assert max_abs(full_smatrix(report.smat) - full_smatrix(expected.smat)) <= 1e-12
    assert report.sections == expected.sections
    assert (report.smat.left_basis_id, report.smat.right_basis_id) == (
        expected.smat.left_basis_id,
        expected.smat.right_basis_id,
    )


@pytest.mark.parametrize("truncation", [3, 10], ids=["n7", "n21"])
@pytest.mark.parametrize("polarization", ["TE", "TM"])
@pytest.mark.parametrize("solve", JOIN_CASES.values(), ids=JOIN_CASES.keys())
def test_stacked_fold_matches_the_two_step_fold(monkeypatch, solve, polarization, truncation):
    """Every pair of every stacked join, the fold's and the ports', against the two-step recipe."""
    doc = TAPER_DOC.replace("truncation_order: 3", f"truncation_order: {truncation}")
    spec = parse_structure(doc.replace("polarization: TE", f"polarization: {polarization}"))
    report = solve(spec)
    monkeypatch.setattr(cascade, "join_stack", lambda pairs: [two_step_join(*pair) for pair in pairs])
    expected = solve(spec)
    assert max_abs(full_smatrix(report.smat) - full_smatrix(expected.smat)) <= 1e-12
    assert report.sections == expected.sections
    assert (report.smat.left_basis_id, report.smat.right_basis_id) == (
        expected.smat.left_basis_id,
        expected.smat.right_basis_id,
    )
