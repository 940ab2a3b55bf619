"""Mirror-parity sectors: operators, detection and split solves against the unsplit engine."""

import collections

import numpy as np
import pytest

from arcwa import modal, operators, solver
from arcwa.geometry import parse_structure, slice_at
from arcwa.numerics import as_stack, max_abs
from arcwa.solver import SolverConfig, solve_adaptive, solve_uniform

from conftest import TAPER_DOC

BLOCKS = ("T_LR", "R_R", "R_L", "T_RL")
SINUSOID_DOC = TAPER_DOC.replace(
    "{kind: linear, start: 0.26, end: 0.37}", "{kind: sinusoidal, mean: 0.3, amplitude: 0.05, period_z: 0.7}"
)


def taper(polarization="TE", truncation=3, loss="0.0", center="0.5", doc=TAPER_DOC):
    return parse_structure(
        doc.replace("polarization: TE", f"polarization: {polarization}")
        .replace("truncation_order: 3", f"truncation_order: {truncation}")
        .replace("eps: [12.25, 0.0]", f"eps: [12.25, {loss}]")
        .replace("center_x: 0.5", f"center_x: {center}")
    )


@pytest.mark.parametrize("truncation", [3, 25], ids=["n7", "n51"])
@pytest.mark.parametrize("center", ["0.5", "0.3"])
@pytest.mark.parametrize("loss", ["0.0", "0.001"], ids=["lossless", "lossy"])
@pytest.mark.parametrize("polarization", ["TE", "TM"])
def test_sector_operators_are_the_parity_projection(polarization, loss, center, truncation):
    """Each sector's P and Q are the diagonal blocks of T^H A T for the full-size A, whose off-block part vanishes."""
    spec = taper(polarization, truncation, loss, center)
    assert spec.mirror_x_um == float(center)
    slices = [slice_at(spec, z) for z in (0.0, 0.4, 1.0)]
    full = operators.assemble_stack(slices, spec)[0]
    sectors = operators.assemble_stack(slices, spec, (0, 1))
    t = operators.parity_basis(spec)
    assert np.allclose(t.conj().T @ t, np.eye(spec.n_harmonics), rtol=0.0, atol=1e-15)
    split = truncation + 1
    for k, ops in enumerate(full):
        for name in ("P", "Q"):
            a = getattr(ops, name)
            rotated = t.conj().T @ a @ t
            scale = max_abs(a)
            even, odd = (getattr(pairs[k], name) for pairs in sectors)
            assert even.shape == (split, split) and odd.shape == (split - 1, split - 1)
            assert max_abs(rotated[:split, :split] - even) <= 1e-13 * scale, name
            assert max_abs(rotated[split:, split:] - odd) <= 1e-13 * scale, name
            assert max_abs(rotated[:split, split:]) <= 1e-13 * scale, name
            assert max_abs(rotated[split:, :split]) <= 1e-13 * scale, name
    if loss != "0.0":
        return
    # Lossless sectors take the Hermitian routes: TE keeps the read-only identity P, TM passes Cholesky.
    for pairs in sectors:
        routes = modal._hermitian_eig(as_stack([ops.Q for ops in pairs]), as_stack([ops.P for ops in pairs]))
        assert len(routes) == 1
        index, _, _, b = routes[0]
        assert index.tolist() == list(range(len(pairs)))
        if polarization == "TE":
            assert b is None
            assert all(ops.P is pairs[0].P and not ops.P.flags.writeable for ops in pairs)
            assert np.array_equal(pairs[0].P, np.eye(len(pairs[0].P)))
        else:
            assert b is not None


# A second core, concentric with the first, whose width ramps from 0: the slice at z = 0 has fewer intervals.
RAMP_DOC = TAPER_DOC + "  - eps: [4.0, 0.0]\n    center_x: 0.5\n    profile: {kind: linear, start: 0.0, end: 0.2}\n"


@pytest.mark.parametrize("truncation", [3, 25], ids=["n7", "n51"])
@pytest.mark.parametrize("loss", ["0.0", "0.001"], ids=["lossless", "lossy"])
@pytest.mark.parametrize("polarization", ["TE", "TM"])
def test_sector_stacks_equal_stacks_of_one(polarization, loss, truncation):
    """A padded two-sector stack equals its per-slice calls and its one-sector calls in every P and Q, bit for bit."""
    spec = taper(polarization, truncation, loss, doc=RAMP_DOC)
    assert spec.mirror_x_um == 0.5
    slices = [slice_at(spec, z) for z in (0.0, 0.4, 1.0)]
    assert [len(slc.intervals) for slc in slices] == [3, 5, 5]
    for sector, stack in enumerate(operators.assemble_stack(slices, spec, (0, 1))):
        (alone,) = operators.assemble_stack(slices, spec, (sector,))
        for slc, ops, one_sector in zip(slices, stack, alone):
            ((single,),) = operators.assemble_stack([slc], spec, (sector,))
            for other in (one_sector, single):
                assert np.array_equal(ops.P, other.P) and np.array_equal(ops.Q, other.Q)


def unsplit(monkeypatch, solve):
    """``solve()`` with the split disabled: every spec takes the one-sector, full-size path."""
    with monkeypatch.context() as patch:
        patch.setattr(solver, "_SPLIT_HARMONICS", np.inf)
        return solve()


def split(monkeypatch, solve):
    """``solve()`` with the split from n = 7 up, so that small specs take the sector path."""
    with monkeypatch.context() as patch:
        patch.setattr(solver, "_SPLIT_HARMONICS", 7)
        return solve()


@pytest.mark.parametrize("polarization", ["TE", "TM"])
def test_split_solve_assembles_each_z_once(monkeypatch, polarization):
    """One call per round builds both sectors from one phase table and the eps (and, in TM, 1/eps) coefficients."""
    spec = taper(polarization)
    work = {"_phase_table": 0, "_piecewise_coefficients": 0}
    calls = []

    def counting(name):
        original = getattr(operators, name)

        def wrapper(*args):
            work[name] += 1
            return original(*args)

        return wrapper

    def recording(slices, spec, sectors=(None,)):
        before = dict(work)
        stacks = assemble_stack(slices, spec, sectors)
        calls.append((sectors, [slc.z for slc in slices], {name: work[name] - before[name] for name in work}))
        return stacks

    assemble_stack = operators.assemble_stack
    for name in work:
        monkeypatch.setattr(operators, name, counting(name))
    monkeypatch.setattr(operators, "assemble_stack", recording)
    report = split(monkeypatch, lambda: solve_adaptive(spec, SolverConfig(alpha=1e-3)))
    assert len(report.sections) > 1
    # Each z of the tree is assembled once for both sectors; the end points once more, at full size, for the ports.
    assembled = collections.Counter(z for _, zs, _ in calls for z in zs)
    ends = [spec.z_min, spec.z_max]
    assert assembled[spec.z_min] == assembled[spec.z_max] == 2
    assert all(count == 1 for z, count in assembled.items() if z not in ends)
    assert {z for leaf in report.sections for z in leaf[:2]} <= assembled.keys()
    assert [zs for sectors, zs, _ in calls if sectors == (None,)] == [ends]
    per_call = {"_phase_table": 1, "_piecewise_coefficients": 1 if polarization == "TE" else 2}
    assert all(work_done == per_call for _, _, work_done in calls)


def deviation(a, b):
    return max(max_abs(getattr(a.smat, block) - getattr(b.smat, block)) for block in BLOCKS)


UNIFORM_SOLVES = {
    "N16-order0": lambda spec: solve_uniform(spec, 16),
    "N16-order1": lambda spec: solve_uniform(spec, 16, order=1),
}


@pytest.mark.parametrize("doc", [TAPER_DOC, SINUSOID_DOC], ids=["taper", "sinusoid"])
@pytest.mark.parametrize("polarization", ["TE", "TM"])
@pytest.mark.parametrize("name", UNIFORM_SOLVES)
def test_split_uniform_solve_equals_unsplit(monkeypatch, name, polarization, doc):
    """Raw entries agree without any port-sign fitting: the ports are the unsplit solve's bases."""
    spec = taper(polarization, doc=doc)
    solve = UNIFORM_SOLVES[name]
    expected = unsplit(monkeypatch, lambda: solve(spec))
    report = split(monkeypatch, lambda: solve(spec))
    assert deviation(report, expected) <= 1e-10
    assert (report.smat.left_basis_id, report.smat.right_basis_id) == (
        expected.smat.left_basis_id,
        expected.smat.right_basis_id,
    )
    assert [leaf[:2] for leaf in report.sections] == [leaf[:2] for leaf in expected.sections]
    assert (report.sections_solved, report.total_eig_count) == (expected.sections_solved, 2 * expected.total_eig_count)


@pytest.mark.parametrize("polarization", ["TE", "TM"])
def test_split_n51_uniform_solve_equals_unsplit(monkeypatch, polarization):
    """At n = 51 the split is the default path."""
    spec = taper(polarization, 25)
    report = solve_uniform(spec, 16, order=1)
    expected = unsplit(monkeypatch, lambda: solve_uniform(spec, 16, order=1))
    assert deviation(report, expected) <= 1e-10
    assert report.smat.left_basis_id == expected.smat.left_basis_id
    assert report.smat.right_basis_id == expected.smat.right_basis_id
    assert report.sections_solved == expected.sections_solved == 16


def assert_same_tree(report, expected):
    """One tree: the same leaves and section count, estimates within 1e-12 and raw S-matrix entries within 1e-12."""
    assert [leaf[:2] for leaf in report.sections] == [leaf[:2] for leaf in expected.sections]
    assert report.sections_solved == expected.sections_solved
    assert max(abs(a[2] - b[2]) for a, b in zip(report.sections, expected.sections)) <= 1e-12
    assert deviation(report, expected) <= 1e-12


@pytest.mark.parametrize("doc", [TAPER_DOC, SINUSOID_DOC], ids=["taper", "sinusoid"])
@pytest.mark.parametrize("polarization", ["TE", "TM"])
@pytest.mark.parametrize("loss", ["0.0", "0.001"], ids=["lossless", "lossy"])
@pytest.mark.parametrize("alpha", [1e-2, 1e-3, 1e-4])
def test_split_adaptive_solve_equals_unsplit(monkeypatch, alpha, loss, polarization, doc):
    """The larger sector estimate is the unsplit estimate, so both sectors refine along the unsplit tree."""
    spec = taper(polarization, loss=loss, doc=doc)
    expected = unsplit(monkeypatch, lambda: solve_adaptive(spec, SolverConfig(alpha=alpha)))
    report = split(monkeypatch, lambda: solve_adaptive(spec, SolverConfig(alpha=alpha)))
    assert_same_tree(report, expected)
    assert report.total_eig_count == 2 * expected.total_eig_count


def test_split_n51_adaptive_solve_equals_unsplit(monkeypatch):
    """At n = 51 and the default threshold the split solve is the unsplit one too."""
    spec = taper("TM", 25)
    report = solve_adaptive(spec, SolverConfig(alpha=1e-2))
    expected = unsplit(monkeypatch, lambda: solve_adaptive(spec, SolverConfig(alpha=1e-2)))
    assert len(report.sections) == 81
    assert_same_tree(report, expected)


@pytest.mark.parametrize("doc", [TAPER_DOC, SINUSOID_DOC], ids=["taper", "sinusoid"])
@pytest.mark.parametrize("polarization", ["TE", "TM"])
@pytest.mark.parametrize("loss", ["0.0", "0.001"], ids=["lossless", "lossy"])
def test_split_batching_is_invisible(monkeypatch, loss, polarization, doc):
    """On the split path, batched runs and one-section-at-a-time runs agree bit for bit."""
    spec = taper(polarization, loss=loss, doc=doc)
    solves = [
        lambda: solve_adaptive(spec, SolverConfig(alpha=1e-3)),
        lambda: solve_adaptive(spec, SolverConfig(alpha=1e-2, order=0)),
        lambda: solve_uniform(spec, 7, order=1),
    ]
    batched = [split(monkeypatch, solve) for solve in solves]
    monkeypatch.setattr(solver, "_BATCH_ENTRIES", 1)
    for report, solve in zip(batched, solves):
        expected = split(monkeypatch, solve)
        for block in BLOCKS:
            assert np.array_equal(getattr(report.smat, block), getattr(expected.smat, block))
        assert report.sections == expected.sections
        assert report.sections_solved == expected.sections_solved
        assert report.total_eig_count == expected.total_eig_count


TWO_CENTERS_DOC = TAPER_DOC.replace(
    "regions:\n",
    "regions:\n  - eps: [4.0, 0.0]\n    center_x: 0.2\n    profile: {kind: constant, value: 0.1}\n",
)
# The core overhangs x = 0 by 2e-14, inside the 1e-12 tolerance of the document check, so slice_at clips it.
CLIPPED_DOC = TAPER_DOC.replace("center_x: 0.5", "center_x: 0.13").replace(
    "{kind: linear, start: 0.26, end: 0.37}", "{kind: linear, start: 0.26000000000004, end: 0.2}"
)
ASYMMETRIC_DOCS = {
    "two-centers": TWO_CENTERS_DOC,
    "linear-center": TAPER_DOC.replace("center_x: 0.5", "center_x: {kind: linear, start: 0.45, end: 0.55}"),
    "clipped": CLIPPED_DOC,
}


@pytest.mark.parametrize("doc", ASYMMETRIC_DOCS.values(), ids=ASYMMETRIC_DOCS.keys())
def test_asymmetric_documents_take_the_unsplit_path(monkeypatch, doc):
    """No mirror is detected, and the solve is bit-identical to one with the split disabled."""
    spec = taper(truncation=12, doc=doc)
    assert spec.n_harmonics >= solver._SPLIT_HARMONICS
    assert spec.mirror_x_um is None
    solve = lambda: solve_adaptive(spec, SolverConfig(alpha=1e-2))  # noqa: E731
    report = solve()
    expected = unsplit(monkeypatch, solve)
    for block in BLOCKS:
        assert np.array_equal(getattr(report.smat, block), getattr(expected.smat, block))
    assert report.sections == expected.sections
    assert (report.sections_solved, report.total_eig_count) == (expected.sections_solved, expected.total_eig_count)


def test_clipped_region_really_is_clipped():
    """The clipped core reaches less far left of its center than right of it."""
    (x0, x1, eps), *_ = slice_at(taper(doc=CLIPPED_DOC), 0.0).intervals
    assert eps == 12.25 and x0 == 0.0
    assert 0.13 - x0 < x1 - 0.13


def test_lossy_taper_splits_through_geev(monkeypatch):
    """A lossy symmetric taper at n = 25 solves as two sectors on the geev route, and matches the unsplit solve."""
    spec = taper("TM", 12, loss="0.001")
    assert spec.mirror_x_um == 0.5
    sizes = []
    eigen_basis_stack = modal.eigen_basis_stack

    def recording(stack):
        sizes.append({ops.n for ops in stack})
        assert not modal._hermitian_eig(as_stack([ops.Q for ops in stack]), as_stack([ops.P for ops in stack]))
        return eigen_basis_stack(stack)

    monkeypatch.setattr(modal, "eigen_basis_stack", recording)
    report = solve_adaptive(spec, SolverConfig(alpha=1e-2))
    assert {13, 12, 25} == set().union(*sizes)
    monkeypatch.undo()
    expected = unsplit(monkeypatch, lambda: solve_adaptive(spec, SolverConfig(alpha=1e-2)))
    assert deviation(report, expected) <= 1e-10
