"""Structure solver: one engine for fixed partitions and adaptive subdivision.

The engine cuts [z_min, z_max] into equal pieces, solves each section in
the eigenbasis of its reference position and subdivides it evenly into M
subsections whenever its estimated error reaches the user bound alpha.
Accepted sections are folded strictly left to right, in z order: each
section boundary is one ``cascade.join``, which writes field continuity
between the two bases and composes the scattering matrices with a single
guarded factorization. The star product is associative, so this plain
cascade is as valid a grouping as any other.

``solve_adaptive`` starts from the whole structure as a single piece. M
follows the reference rule: 3 under the midpoint rule, 2 under the
endpoint rule. Either way the child at index 1 has its reference where
its parent's is (the middle third's midpoint, the right half's right
end), so it reuses the parent's eigendecomposition; ``total_eig_count``
reflects that reuse. ``solve_uniform`` is the same engine with N pieces
and alpha = inf: a fixed partition that is never refined.

The engine works on a frontier: a stack of the open sections in z order,
leftmost on top. Each round takes the B leftmost of them as one batch,
B = max(1, 512 // n^2) for n modes (10 at n = 7, 1 from n = 17 up): their
missing boundary and reference operators are assembled as one stack,
their fresh bases are decomposed as one stack (one eigensolver call per
section) and their first-order matrices are evaluated as one stack. Then,
in z order, each section is accepted or refined, and the children of a
refined section go back on top. Small n gains the most, because there a
section's cost is per-call overhead rather than arithmetic. Equal pieces
enter the frontier only as the batches reach them. An accepted section
waits, keyed by its left boundary, until every section to its left has
been folded; so the joins, and the output, do not depend on B. Batching
changes only the order in which sections are evaluated; an error inside a
batched solve therefore reruns the solve one section at a time, which is
the depth-first order and raises the error that order meets first.

The final scattering matrix is re-expressed in the eigenbases of the end
cross-sections (the slices at z_min and z_max) by two more joins, with an
identity matrix in each port basis, so a solve with L leaves performs
(L - 1) + 2 interface factorizations. Those "port" bases depend
only on the structure and basis ids hash basis content, so results of
different methods, resolutions and solves compare entry by entry. Each
solve decomposes its own end operators (nothing is cached); under the
endpoint rule the last section's basis sits at z_max and serves as the
right port. The port eigendecompositions are not charged to
``total_eig_count``.
"""

from __future__ import annotations

import enum
import itertools
import math
import time
from collections.abc import Iterator
from dataclasses import dataclass

from . import cascade, geometry, modal, operators, sections
from .errors import MaxDepthExceededError
from .geometry import StructureSpec
from .modal import ModalBasis
from .operators import OperatorPair
from .sections import ScatteringMatrix


class ReferenceRule(enum.Enum):
    """Where a section samples its reference operators."""

    MIDPOINT = "midpoint"
    ENDPOINT = "endpoint"


# Subsections per refined section: each rule's natural split, the one in
# which a child's reference coincides with its parent's.
_SUBDIVISIONS = {ReferenceRule.MIDPOINT: 3, ReferenceRule.ENDPOINT: 2}
# Refinement depth at which a section still over alpha raises.
_MAX_DEPTH = 20


@dataclass(frozen=True)
class SolverConfig:
    """Solver knobs.

    ``alpha`` is the per-section error bound the estimate is compared
    against; alpha = inf never refines. At order 0 with alpha = inf
    nothing reads the estimate, so it is not computed and every section
    reports ``est_error`` 0.0. ``reference_rule`` also fixes how many
    subsections a refined section splits into (3 midpoint, 2 endpoint).
    """

    alpha: float
    reference_rule: ReferenceRule = ReferenceRule.MIDPOINT
    order: int = 1

    def __post_init__(self) -> None:
        if not self.alpha >= 0.0:
            raise ValueError(f"alpha must be >= 0, got {self.alpha!r}")
        if self.order not in (0, 1):
            raise ValueError(f"order must be 0 or 1, got {self.order!r}")


@dataclass(frozen=True)
class SolveReport:
    """Outcome of one solve: scattering matrix plus observability data.

    ``sections`` lists the solved leaf sections as (z_L, z_R, est_error),
    tiling [z_min, z_max] exactly in order. ``sections_solved`` counts
    every section evaluation including interior nodes that were later
    subdivided; ``total_eig_count`` counts eigendecompositions actually
    performed (reused bases count once).
    """

    smat: ScatteringMatrix
    sections: tuple[tuple[float, float, float], ...]
    total_eig_count: int
    total_wall_time: float
    sections_solved: int


# Matrix entries (sections x n^2) that one frontier batch evaluates
# together: B = max(1, _BATCH_ENTRIES // n^2) sections, 10 at n = 7 and
# 1 from n = 17 up. Larger stacks grew peak memory at n = 7 and were
# slower than one section at a time at n >= 21.
_BATCH_ENTRIES = 512

# What the report keeps of an accepted section: (z_L, z_R, est_error).
_Leaf = tuple[float, float, float]


class _Boundary:
    """A section boundary and its operators, shared by the two sections that meet there.

    ``ops`` stays None until the section to its left is evaluated (and for
    good when nothing reads the estimate), so each boundary is assembled once.
    """

    __slots__ = ("z", "ops")

    def __init__(self, z: float, ops: OperatorPair | None = None) -> None:
        self.z = z
        self.ops = ops


@dataclass(eq=False, slots=True)
class _Open:
    """A section waiting to be evaluated."""

    left: _Boundary
    right: _Boundary
    depth: int
    reference: tuple[OperatorPair, ModalBasis] | None


# An accepted section, keyed by its left boundary until the fold reaches it:
# (right boundary, scattering matrix, reference basis, leaf).
_Accepted = tuple[_Boundary, ScatteringMatrix, ModalBasis, _Leaf]


def _reference_z(z_l: float, z_r: float, rule: ReferenceRule) -> float:
    return 0.5 * (z_l + z_r) if rule is ReferenceRule.MIDPOINT else z_r


def _assemble_stack(spec: StructureSpec, zs: list[float]) -> list[OperatorPair]:
    return operators.assemble_stack([geometry.slice_at(spec, z) for z in zs], spec) if zs else []


def port_bases(spec: StructureSpec) -> tuple[ModalBasis, ModalBasis]:
    """End cross-section bases that solve results are expressed in (not cached)."""
    left, right = _assemble_stack(spec, [spec.z_min, spec.z_max])
    return modal.eigen_basis(left), modal.eigen_basis(right)


def _identity(basis: ModalBasis) -> ScatteringMatrix:
    return sections.zeroth_order_smatrix(basis, basis.z_ref, basis.z_ref)


def _normalize_to_ports(
    smat: ScatteringMatrix, first: ModalBasis, last: ModalBasis, root: tuple[OperatorPair, OperatorPair]
) -> ScatteringMatrix:
    """Join identities in the port bases onto both ends of ``smat``, which runs from basis ``first`` to ``last``."""
    left_port = modal.eigen_basis(root[0])
    # A last basis at z_max was decomposed from root[1] itself, so it is the right port.
    right_port = last if last.z_ref == root[1].z else modal.eigen_basis(root[1])
    smat = cascade.join(_identity(left_port), left_port, smat, first)
    return cascade.join(smat, last, _identity(right_port), right_port)


def _split(section: _Open, m: int) -> list[_Open]:
    """The m children of a refined section, in z order; child 1 keeps its reference."""
    z_l, z_r = section.left.z, section.right.z
    bounds = [section.left, *(_Boundary(z_l + (z_r - z_l) * (i + 1) / m) for i in range(m - 1)), section.right]
    return [_Open(bounds[i], bounds[i + 1], section.depth + 1, section.reference if i == 1 else None) for i in range(m)]


def _pieces(spec: StructureSpec, left: _Boundary, end: OperatorPair, pieces: int) -> Iterator[_Open]:
    """The equal root pieces in z order from ``left``, made one at a time; each shares its left boundary."""
    z_min, z_max = spec.z_min, spec.z_max
    for i in range(pieces):
        right = _Boundary(z_max, end) if i == pieces - 1 else _Boundary(z_min + (z_max - z_min) * (i + 1) / pieces)
        yield _Open(left, right, 0, None)
        left = right


def _refine(
    spec: StructureSpec,
    config: SolverConfig,
    root: tuple[OperatorPair, OperatorPair],
    pieces: int,
    batch: int,
) -> tuple[ScatteringMatrix, ModalBasis, ModalBasis, list[_Leaf], dict[str, int]]:
    """Evaluate the frontier ``batch`` sections at a time and fold the leaves left to right.

    The open sections sit on a stack in z order, leftmost on top. Each
    round takes the ``batch`` leftmost of them, topping up from the root
    pieces, which are made only when needed, and pushes back the children
    of the sections it refines. With ``batch`` = 1 this is the depth-first
    order, operation by operation. After each round the running fold takes
    in every accepted section that now adjoins its right edge. Returns the
    fold, its first and last leaf bases, the leaves and the counters.
    """
    counters = {"eig": 0, "solved": 0}
    edge = _Boundary(spec.z_min, root[0])
    unmade = _pieces(spec, edge, root[1], pieces)
    stack: list[_Open] = []
    accepted: dict[_Boundary, _Accepted] = {}
    smat = first = last = None
    leaves: list[_Leaf] = []
    while True:
        taken = [stack.pop() for _ in range(min(batch, len(stack)))]
        taken.extend(itertools.islice(unmade, batch - len(taken)))
        if not taken:
            return smat, first, last, leaves, counters
        stack.extend(reversed(_evaluate(spec, config, taken, accepted, counters)))
        while edge in accepted:
            edge, piece, basis, leaf = accepted.pop(edge)
            if smat is None:
                smat, first = piece, basis
            else:
                smat = cascade.join(smat, last, piece, basis)
            last = basis
            leaves.append(leaf)


def _evaluate(
    spec: StructureSpec,
    config: SolverConfig,
    taken: list[_Open],
    accepted: dict[_Boundary, _Accepted],
    counters: dict[str, int],
) -> list[_Open]:
    """One round: evaluate the sections ``taken`` (in z order) and return the children to push.

    Missing right boundaries are assembled as one stack and fresh
    references as one stack, decomposed as one stack, and every section is
    solved at first order as one stack; then, in z order, each section is
    either recorded in ``accepted`` under its left boundary or split. The
    round's other temporaries are released on return.
    """
    rule = config.reference_rule
    estimate = config.order == 1 or config.alpha < math.inf
    if estimate:
        bounds = [s.right for s in taken if s.right.ops is None]
        for bound, ops in zip(bounds, _assemble_stack(spec, [b.z for b in bounds])):
            bound.ops = ops
    fresh: list[_Open] = []
    ref_ops: list[OperatorPair | None] = []
    missing: list[tuple[int, float]] = []
    for s in taken:
        if s.reference is None:
            z = _reference_z(s.left.z, s.right.z, rule)
            # The endpoint rule's reference reuses the section's right end.
            ops = s.right.ops if s.right.ops is not None and s.right.ops.z == z else None
            if ops is None:
                missing.append((len(fresh), z))
            fresh.append(s)
            ref_ops.append(ops)
    for (i, _), ops in zip(missing, _assemble_stack(spec, [z for _, z in missing])):
        ref_ops[i] = ops
    for s, ops, basis in zip(fresh, ref_ops, modal.eigen_basis_stack(ref_ops) if fresh else []):
        s.reference = (ops, basis)
    counters["eig"] += len(fresh)
    counters["solved"] += len(taken)

    if not estimate:
        for s in taken:
            basis = s.reference[1]
            smat = sections.zeroth_order_smatrix(basis, s.left.z, s.right.z)
            accepted[s.left] = (s.right, smat, basis, (s.left.z, s.right.z, 0.0))
        return []
    results = sections.first_order_stack(
        spec, [(s.left.z, s.right.z, s.reference[1], s.reference[0], (s.left.ops, s.right.ops)) for s in taken]
    )
    children: list[_Open] = []
    for s, result in zip(taken, results):
        z_l, z_r, basis = s.left.z, s.right.z, s.reference[1]
        if result.est_error < config.alpha:
            smat = sections.zeroth_order_smatrix(basis, z_l, z_r) if config.order == 0 else result.smat
            accepted[s.left] = (s.right, smat, basis, (z_l, z_r, result.est_error))
        elif s.depth >= _MAX_DEPTH:
            raise MaxDepthExceededError(
                f"section [{z_l:g}, {z_r:g}] still has estimated error "
                f"{result.est_error:.3e} >= alpha = {config.alpha:.3e} at depth {s.depth}; "
                "the structure is too singular for this accuracy"
            )
        else:
            children.extend(_split(s, _SUBDIVISIONS[rule]))
    return children


def _solve(spec: StructureSpec, config: SolverConfig, pieces: int) -> SolveReport:
    """Cut [z_min, z_max] into ``pieces`` equal sections and refine each down to alpha.

    Every section receives the operators at its own ends; a refined
    section's inner child boundaries are each assembled once, for the two
    children that share them. At order 0 with alpha = inf nothing reads the
    estimate: sections are solved at zeroth order directly and no inner
    boundary is assembled. A batch evaluates sections out of depth-first
    order, so after any error the solve is rerun one section at a time,
    which raises the error the depth-first order meets first.
    """
    started = time.perf_counter()
    batch = max(1, _BATCH_ENTRIES // spec.n_harmonics**2)
    root = tuple(_assemble_stack(spec, [spec.z_min, spec.z_max]))
    try:
        folded = _refine(spec, config, root, pieces, batch)
    except Exception:
        if batch == 1:
            raise
        # One section at a time is the depth-first order: the rerun raises the error it meets first.
        folded = _refine(spec, config, root, pieces, 1)
    smat, first, last, leaves, counters = folded
    return SolveReport(
        smat=_normalize_to_ports(smat, first, last, root),
        sections=tuple(leaves),
        total_eig_count=counters["eig"],
        total_wall_time=time.perf_counter() - started,
        sections_solved=counters["solved"],
    )


def solve_uniform(
    spec: StructureSpec,
    n_sections: int,
    order: int = 0,
    reference_rule: ReferenceRule = ReferenceRule.MIDPOINT,
) -> SolveReport:
    """Fixed-resolution cascade: N equal sections that are never refined.

    The solve engine with N pieces and alpha = inf. Every section gets its
    own reference basis (one eigendecomposition each); the result is
    expressed in the end cross-section port bases. At order 1 every
    section boundary is assembled once and shared by its two sections; at
    order 0 only the reference positions and the two ends are assembled.
    """
    if n_sections < 1:
        raise ValueError(f"n_sections must be >= 1, got {n_sections}")
    config = SolverConfig(alpha=math.inf, reference_rule=reference_rule, order=order)
    return _solve(spec, config, n_sections)


def solve_adaptive(spec: StructureSpec, config: SolverConfig) -> SolveReport:
    """Adaptive subdivision down to the error bound alpha.

    The solve engine with the whole structure as one piece. A section
    whose estimated error stays below alpha is accepted as a leaf;
    otherwise it is split evenly into 3 subsections (midpoint rule) or 2
    (endpoint rule) that are solved in turn and joined. The
    estimate is always the first-order one; ``config.order`` selects
    which scattering matrix a leaf contributes. Raises
    MaxDepthExceededError when a section still reaches alpha at depth 20,
    which signals a structure too singular for the requested alpha.

    Caveat: each section inspects the cross-section only at its endpoints,
    midpoint and reference position. A modulation that vanishes at all of
    those (e.g. a sinusoid with exactly one period over the span) yields a
    zero estimate and is accepted unrefined. Keep modulation periods
    non-commensurate with the span, or start from solve_uniform at a
    resolution finer than the modulation, when in doubt.
    """
    return _solve(spec, config, 1)
