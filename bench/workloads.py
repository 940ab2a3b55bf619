"""Workload definitions, seeded geometry, operations and output checks.

A workload is a fixed list of cases. One pass runs every case once, in
order, with a single client and no extra threads (a closed loop). The
seed only changes the geometry inside fixed ranges; the case list is the
same for every seed. Seed 0 is the default and gives exactly the README
taper and the reference sinusoid, for which reference S-matrices are
stored in ``reference_seed0.npz``.

The arcwa modules are reached through their module attributes at call
time, so the tracer's wrappers are seen by every call the benchmark makes.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import random
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from arcwa import cli, geometry, solver

DEFAULT_SEED = 0
REFERENCE_FILE = Path(__file__).resolve().parent / "reference_seed0.npz"

# Uniform cascades have no error-bound knob, so their reference check is a
# tight fixed tolerance that still admits reordered floating-point sums.
UNIFORM_TOL = 1e-10

BLOCKS = ("T_LR", "R_R", "R_L", "T_RL")
_CSV_BLOCKS = {"TLR": 0, "RR": 1, "RL": 2, "TRL": 3}

_TAPER_DOC = """\
wavelength_um: 1.55
polarization: {polarization}
period_x_um: 1.0
z_range_um: [0.0, 1.0]
truncation_order: {order}
background_eps: [1.0, 0.0]
regions:
  - eps: [12.25, 0.0]
    center_x: 0.5
    profile: {{kind: linear, start: {start!r}, end: {end!r}}}
"""

_SINUSOID_DOC = """\
wavelength_um: 1.55
polarization: {polarization}
period_x_um: 1.0
z_range_um: [0.0, 2.0]
truncation_order: {order}
background_eps: [1.0, 0.0]
regions:
  - eps: [12.25, 0.0]
    center_x: 0.5
    profile: {{kind: sinusoidal, mean: 0.3, amplitude: {amplitude!r}, period_z: {period_z!r}, phase: 0.0}}
"""


@dataclass(frozen=True)
class Geometry:
    """Seeded shape parameters of the two structures (lengths in um)."""

    taper_start: float
    taper_end: float
    sinusoid_amplitude: float
    sinusoid_period_z: float


def geometry_for(seed: int) -> Geometry:
    """Draw the geometry for a seed; the default seed gives the README shapes."""
    if seed == DEFAULT_SEED:
        return Geometry(0.26, 0.37, 0.05, 0.7)
    rng = random.Random(seed)
    return Geometry(
        taper_start=0.26 + rng.uniform(-0.02, 0.02),
        taper_end=0.37 + rng.uniform(-0.02, 0.02),
        sinusoid_amplitude=rng.uniform(0.04, 0.06),
        sinusoid_period_z=rng.uniform(0.6, 0.8),
    )


def structure_doc(geo: Geometry, structure: str, polarization: str, order: int) -> str:
    """YAML structure document for one structure, polarization and order."""
    if structure == "taper":
        return _TAPER_DOC.format(
            polarization=polarization, order=order, start=geo.taper_start, end=geo.taper_end
        )
    return _SINUSOID_DOC.format(
        polarization=polarization,
        order=order,
        amplitude=geo.sinusoid_amplitude,
        period_z=geo.sinusoid_period_z,
    )


@dataclass(frozen=True)
class Case:
    """One operation of a pass.

    ``method`` is "adaptive" (knob = alpha) or "uniform" (knob = section
    count, with ``order``); ``truncation`` is the spec's truncation order.
    ``via_cli`` runs the case through ``arcwa.cli.main`` with a structure
    file, ``--out`` CSV and ``--report`` JSON.
    """

    structure: str
    polarization: str
    truncation: int
    method: str
    knob: float
    order: int = 1
    via_cli: bool = False

    @property
    def name(self) -> str:
        knob = f"alpha{self.knob:g}" if self.method == "adaptive" else f"N{int(self.knob)}o{self.order}"
        prefix = "cli-" if self.via_cli else ""
        return f"{prefix}{self.structure}-{self.polarization}-n{2 * self.truncation + 1}-{knob}"

    @property
    def tolerance(self) -> float:
        """Allowed max-norm distance from the stored reference."""
        return self.knob if self.method == "adaptive" else UNIFORM_TOL


def _adaptive(structure, polarization, truncation, alpha, via_cli=False):
    return Case(structure, polarization, truncation, "adaptive", alpha, via_cli=via_cli)


def _uniform(structure, polarization, truncation, sections, order, via_cli=False):
    return Case(structure, polarization, truncation, "uniform", sections, order, via_cli)


# Why each workload exists is recorded in BENCHMARK.json and bench/README.md.
WORKLOADS: dict[str, tuple[Case, ...]] = {
    "adaptive_n7": tuple(
        _adaptive(s, p, 3, a)
        for s in ("taper", "sinusoid")
        for p in ("TE", "TM")
        for a in (1e-2, 1e-3, 1e-4)
    ),
    "adaptive_n51": (
        _adaptive("taper", "TE", 25, 1e-3),
        _adaptive("taper", "TE", 25, 1e-4),
        _adaptive("taper", "TM", 25, 1e-2),
    ),
    "uniform_n21": (
        _uniform("taper", "TE", 10, 256, 0),
        _uniform("taper", "TM", 10, 256, 0),
        _uniform("taper", "TE", 10, 64, 1),
    ),
    "cli_io": (
        _adaptive("taper", "TE", 25, 1e-2, via_cli=True),
        _uniform("taper", "TM", 10, 16, 1, via_cli=True),
    ),
}


@dataclass
class Outcome:
    """What one operation produced: S-matrix blocks and solver counters.

    ``seconds`` is the wall time of the library or CLI call alone, without
    the benchmark's reading back of the files the CLI wrote.
    """

    seconds: float
    blocks: tuple[np.ndarray, ...]
    sections_solved: int
    leaves: int
    eig_count: int


class Workload:
    """Prepared inputs of one workload for one seed.

    Construction is the set-up phase: it parses every structure, writes
    the structure files the CLI cases read, loads the references and runs
    a one-section warm-up solve per structure so lazy initialisation and
    the port-basis cache are paid before the timed loop.
    """

    def __init__(self, name: str, seed: int, workdir: Path, reference_file: Path | None = REFERENCE_FILE):
        self.cases = WORKLOADS[name]
        geo = geometry_for(seed)
        self.docs = {
            case.name: structure_doc(geo, case.structure, case.polarization, case.truncation)
            for case in self.cases
        }
        self.specs = {}
        self.paths = {}
        for case in self.cases:
            doc = self.docs[case.name]
            if case.via_cli:
                path = workdir / f"{case.name}.yaml"
                path.write_text(doc)
                self.paths[case.name] = path
            self.specs[case.name] = geometry.parse_structure(doc)
        self.workdir = workdir
        self.references = {} if reference_file is None else load_references(reference_file, name, seed)
        for spec in dict.fromkeys(self.specs.values()):
            solver.solve_uniform(spec, 1, order=1)

    def check(self, case: Case, blocks, baseline) -> tuple[str | None, float | None]:
        """``check_outcome`` against this workload's reference for the case."""
        return check_outcome(case, blocks, baseline, self.references.get(case.name))

    def run(self, case: Case) -> Outcome:
        """Run one case; raises whatever the library raises."""
        if case.via_cli:
            return self._run_cli(case)
        spec = self.specs[case.name]
        start = time.perf_counter()
        if case.method == "adaptive":
            report = solver.solve_adaptive(spec, solver.SolverConfig(alpha=case.knob))
        else:
            report = solver.solve_uniform(spec, int(case.knob), order=case.order)
        seconds = time.perf_counter() - start
        smat = report.smat
        return Outcome(
            seconds=seconds,
            blocks=tuple(getattr(smat, b) for b in BLOCKS),
            sections_solved=report.sections_solved,
            leaves=len(report.sections),
            eig_count=report.total_eig_count,
        )

    def _run_cli(self, case: Case) -> Outcome:
        out = self.workdir / f"{case.name}.csv"
        report = self.workdir / f"{case.name}.json"
        if case.method == "adaptive":
            argv = ["solve", "--alpha", repr(case.knob)]
        else:
            argv = ["uniform", "--sections", str(int(case.knob)), "--order", str(case.order)]
        argv += ["--structure", str(self.paths[case.name]), "--out", str(out), "--report", str(report)]
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        seconds = time.perf_counter() - start
        if code != 0:
            raise RuntimeError(f"arcwa {argv[0]} exited with code {code}")
        payload = json.loads(report.read_text())
        n = 2 * case.truncation + 1
        return Outcome(
            seconds=seconds,
            blocks=read_smatrix_csv(out, n),
            sections_solved=payload["sections_solved"],
            leaves=len(payload["sections"]),
            eig_count=payload["total_eig_count"],
        )


def read_smatrix_csv(path: Path, n: int) -> tuple[np.ndarray, ...]:
    """Parse a `block,row,col,re,im` CSV back into the four blocks."""
    blocks = [np.full((n, n), np.nan, dtype=np.complex128) for _ in BLOCKS]
    with open(path, newline="") as fh:
        rows = csv.reader(fh)
        if next(rows) != ["block", "row", "col", "re", "im"]:
            raise ValueError(f"{path.name}: unexpected CSV header")
        for block, row, col, re, im in rows:
            blocks[_CSV_BLOCKS[block]][int(row), int(col)] = complex(float(re), float(im))
    return tuple(blocks)


def full_smatrix(blocks: tuple[np.ndarray, ...]) -> np.ndarray:
    """The 2n x 2n S-matrix, left port modes first: [[R_L, T_RL], [T_LR, R_R]]."""
    t_lr, r_r, r_l, t_rl = blocks
    return np.block([[r_l, t_rl], [t_lr, r_r]])


def port_signs(full: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """One sign per port mode so that ``d_i d_j full_ij`` best matches ``ref_ij``.

    A flipped port eigenvector flips the sign of its row and its column of
    the full S-matrix. The signs are chosen along a maximum spanning tree
    of the reference's entry magnitudes: each mode joins the tree through
    its strongest coupling, and its sign is the one that agrees best with
    the modes already in the tree. Only signs are fitted, so any other
    phase error is left in the result.
    """
    k = full.shape[0]
    weight = np.maximum(np.abs(ref), np.abs(ref.T))
    np.fill_diagonal(weight, 0.0)
    agree = (np.conj(ref) * full).real
    agree = agree + agree.T
    signs = np.zeros(k)
    signs[0] = 1.0
    link = weight[0].copy()
    vote = agree[0].copy()
    for _ in range(k - 1):
        j = int(np.argmax(np.where(signs == 0.0, link, -1.0)))
        signs[j] = 1.0 if vote[j] >= 0.0 else -1.0
        link = np.maximum(link, weight[j])
        vote += signs[j] * agree[j]
    return signs


def reference_deviation(blocks: tuple[np.ndarray, ...], reference: tuple[np.ndarray, ...]) -> float:
    """Max-norm distance from the reference, after fitting the port-mode signs."""
    full, ref = full_smatrix(blocks), full_smatrix(reference)
    signs = port_signs(full, ref)
    return float(np.max(np.abs(signs[:, None] * full * signs[None, :] - ref)))


def check_outcome(
    case: Case,
    blocks: tuple[np.ndarray, ...],
    baseline: tuple[np.ndarray, ...] | None,
    reference: tuple[np.ndarray, ...] | None,
) -> tuple[str | None, float | None]:
    """Check one result; returns (problem or None, deviation from reference).

    The result must be finite, bit-identical to the first result of the
    same case in this process, and, when a reference exists, within the
    case tolerance of it in the max-norm over complex entries.

    Each port eigenvector is fixed only up to its sign: LAPACK makes an
    eigenvector's largest entry real, and in these mirror-symmetric
    structures the +m and -m entries tie, so a change of 1e-14 in the
    input can flip the sign of whole rows and columns of S. The compare
    therefore first fits one sign per port mode (``port_signs``); a phase
    error of any other size still counts.
    """
    if not all(np.all(np.isfinite(b)) for b in blocks):
        return f"{case.name}: non-finite S-matrix entries", None
    if baseline is not None and not all(
        a.shape == b.shape and np.array_equal(a, b) for a, b in zip(blocks, baseline)
    ):
        return f"{case.name}: result differs from the first pass", None
    if reference is None:
        return None, None
    if any(a.shape != r.shape for a, r in zip(blocks, reference)):
        return f"{case.name}: shape differs from the reference", None
    deviation = reference_deviation(blocks, reference)
    if not deviation <= case.tolerance:
        return (
            f"{case.name}: S-matrix differs from the reference by {deviation:.3e} > {case.tolerance:g}",
            deviation,
        )
    return None, deviation


def reference_key(workload: str, case: Case, block: str) -> str:
    return f"{workload}/{case.name}/{block}"


def load_references(path: Path, workload: str, seed: int) -> dict[str, tuple[np.ndarray, ...]]:
    """Reference S-matrix blocks per case name; empty for other seeds.

    The file is read for every seed so that set-up does the same work
    whatever the seed.
    """
    with np.load(path) as data:
        stored_seed = int(data["seed"])
        refs = {
            case.name: tuple(data[reference_key(workload, case, b)] for b in BLOCKS)
            for case in WORKLOADS[workload]
        }
    return refs if seed == stored_seed else {}
