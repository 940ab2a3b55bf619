"""Structure solver: one engine for fixed partitions and adaptive subdivision.

The engine cuts [z_min, z_max] into equal pieces, solves each section in
the eigenbasis of its reference position and subdivides it evenly into M
subsections whenever its estimated error reaches the user bound alpha.
Accepted sections are folded left to right: each section boundary is one
``cascade.join``, which writes field continuity between the two bases and
composes the scattering matrices with a single guarded factorization.

``solve_adaptive`` starts from the whole structure as a single piece. M
follows the reference rule: 3 under the midpoint rule, 2 under the
endpoint rule. Either way the child at index 1 has its reference where
its parent's is (the middle third's midpoint, the right half's right
end), so it reuses the parent's eigendecomposition; ``total_eig_count``
reflects that reuse. ``solve_uniform`` is the same engine with N pieces
and alpha = inf: a fixed partition that is never refined.

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
import math
import time
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


@dataclass
class _Composite:
    """Accumulated scattering matrix with its live boundary bases."""

    smat: ScatteringMatrix
    left_basis: ModalBasis
    right_basis: ModalBasis


# Operators at a section's two ends; None where nothing reads them.
_Ends = tuple[OperatorPair | None, OperatorPair | None]

# What the report keeps of an accepted section: (z_L, z_R, est_error).
_Leaf = tuple[float, float, float]


def _reference_z(z_l: float, z_r: float, rule: ReferenceRule) -> float:
    return 0.5 * (z_l + z_r) if rule is ReferenceRule.MIDPOINT else z_r


def _assemble(spec: StructureSpec, z: float) -> OperatorPair:
    return operators.assemble_operators(geometry.slice_at(spec, z), spec)


def _build_basis(spec: StructureSpec, z: float, ends: _Ends) -> tuple[OperatorPair, ModalBasis]:
    """Operators and eigenbasis at z; the endpoint rule's z reuses the section's right end."""
    ops = ends[1] if ends[1] is not None and ends[1].z == z else _assemble(spec, z)
    return ops, modal.eigen_basis(ops)


def port_bases(spec: StructureSpec) -> tuple[ModalBasis, ModalBasis]:
    """End cross-section bases that solve results are expressed in (not cached)."""
    return modal.eigen_basis(_assemble(spec, spec.z_min)), modal.eigen_basis(_assemble(spec, spec.z_max))


def _attach_right(acc: _Composite, piece: _Composite) -> _Composite:
    """Join a piece onto the accumulated composite at their shared plane."""
    return _Composite(
        smat=cascade.join(acc.smat, acc.right_basis, piece.smat, piece.left_basis),
        left_basis=acc.left_basis,
        right_basis=piece.right_basis,
    )


def _identity(basis: ModalBasis) -> ScatteringMatrix:
    return sections.zeroth_order_smatrix(basis, basis.z_ref, basis.z_ref)


def _normalize_to_ports(comp: _Composite, root: tuple[OperatorPair, OperatorPair]) -> ScatteringMatrix:
    """Join identities in the port bases onto both ends of the composite."""
    left_port = modal.eigen_basis(root[0])
    # A last basis at z_max was decomposed from root[1] itself, so it is the right port.
    right_port = comp.right_basis if comp.right_basis.z_ref == root[1].z else modal.eigen_basis(root[1])
    smat = cascade.join(_identity(left_port), left_port, comp.smat, comp.left_basis)
    return cascade.join(smat, comp.right_basis, _identity(right_port), right_port)


def _solve(spec: StructureSpec, config: SolverConfig, pieces: int) -> SolveReport:
    """Cut [z_min, z_max] into ``pieces`` equal sections and refine each down to alpha.

    Every node receives the operators at its own ends from its parent and
    assembles its inner child boundaries once, handing each to the two
    children that share it. The recursion is depth first, so only
    O(depth) operator pairs are alive at a time. At order 0 with
    alpha = inf nothing reads the estimate: sections are solved at zeroth
    order directly and no inner boundary is assembled.
    """
    started = time.perf_counter()
    counters = {"eig": 0, "solved": 0}
    rule = config.reference_rule
    estimate = config.order == 1 or config.alpha < math.inf

    def solve_node(
        z_l: float,
        z_r: float,
        ends: _Ends,
        depth: int,
        inherited: tuple[OperatorPair, ModalBasis] | None,
    ) -> tuple[_Composite, list[_Leaf]]:
        if inherited is None:
            ops, basis = _build_basis(spec, _reference_z(z_l, z_r, rule), ends)
            local_eigs = 1
        else:
            ops, basis = inherited
            local_eigs = 0
        counters["eig"] += local_eigs
        counters["solved"] += 1
        if not estimate:
            return _Composite(sections.zeroth_order_smatrix(basis, z_l, z_r), basis, basis), [(z_l, z_r, 0.0)]
        result = sections.first_order_smatrix(spec, z_l, z_r, basis, ops, end_ops=ends)

        if result.est_error < config.alpha:
            smat = result.smat if config.order == 1 else sections.zeroth_order_smatrix(basis, z_l, z_r)
            return _Composite(smat, basis, basis), [(z_l, z_r, result.est_error)]

        if depth >= _MAX_DEPTH:
            raise MaxDepthExceededError(
                f"section [{z_l:g}, {z_r:g}] still has estimated error "
                f"{result.est_error:.3e} >= alpha = {config.alpha:.3e} at depth {depth}; "
                "the structure is too singular for this accuracy"
            )
        return solve_children(z_l, z_r, ends, _SUBDIVISIONS[rule], depth + 1, (ops, basis))

    def solve_children(
        z_l: float,
        z_r: float,
        ends: _Ends,
        m: int,
        depth: int,
        parent: tuple[OperatorPair, ModalBasis] | None,
    ) -> tuple[_Composite, list[_Leaf]]:
        comp: _Composite | None = None
        leaves: list[_Leaf] = []
        z_a, left_ops = z_l, ends[0]
        for i in range(m):
            last = i == m - 1
            z_b = z_r if last else z_l + (z_r - z_l) * (i + 1) / m
            right_ops = ends[1] if last else (_assemble(spec, z_b) if estimate else None)
            # Under both rules child 1 has its parent's reference position.
            inherited = parent if i == 1 else None
            child_comp, child_leaves = solve_node(z_a, z_b, (left_ops, right_ops), depth, inherited)
            leaves.extend(child_leaves)
            comp = child_comp if comp is None else _attach_right(comp, child_comp)
            z_a, left_ops = z_b, right_ops
        return comp, leaves

    root = (_assemble(spec, spec.z_min), _assemble(spec, spec.z_max))
    comp, leaves = solve_children(spec.z_min, spec.z_max, root, pieces, 0, None)
    smat = _normalize_to_ports(comp, root)
    return SolveReport(
        smat=smat,
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
    """Recursive adaptive subdivision down to the error bound alpha.

    The solve engine with the whole structure as one piece. A section
    whose estimated error stays below alpha is accepted as a leaf;
    otherwise it is split evenly into 3 subsections (midpoint rule) or 2
    (endpoint rule) that are solved recursively and joined. The
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
