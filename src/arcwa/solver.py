"""Structure solvers: fixed-resolution cascades and adaptive subdivision.

Both solvers cut [z_min, z_max] into sections, solve each in the eigenbasis
of its reference position, reproject every section onto its left
neighbour's basis and fold the results with the Redheffer star product.

``solve_adaptive`` starts from the whole structure as a single section and
recursively subdivides evenly into M subsections whenever the section's
estimated error reaches the user bound alpha. With the midpoint reference
rule and M = 3, the middle subsection's reference coincides with its
parent's, so the parent's eigendecomposition is reused there;
``total_eig_count`` reflects that reuse. With the endpoint rule the last
subsection reuses the parent's decomposition (the natural pairing is
M = 2).

The final scattering matrix is re-expressed in the eigenbases of the end
cross-sections (the slices at z_min and z_max). Those "port" bases depend
only on the structure and basis ids hash basis content, so results of
different methods, resolutions and solves compare entry by entry. Each
solve decomposes its own end operators (nothing is cached); the two port
eigendecompositions are not charged to ``total_eig_count``.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, replace

from . import cascade, geometry, modal, operators, sections
from .errors import MaxDepthExceededError
from .geometry import StructureSpec
from .modal import ModalBasis
from .operators import OperatorPair
from .sections import ScatteringMatrix, SectionResult


class ReferenceRule(enum.Enum):
    """Where a section samples its reference operators."""

    MIDPOINT = "midpoint"
    ENDPOINT = "endpoint"


@dataclass(frozen=True)
class SolverConfig:
    """Adaptive solver knobs.

    ``alpha`` is the per-section error bound the estimate is compared
    against. The natural pairings are midpoint with M = 3 and endpoint
    with M = 2 (only those reuse the parent decomposition), but any
    combination is accepted.
    """

    alpha: float
    subdivision_m: int = 3
    reference_rule: ReferenceRule = ReferenceRule.MIDPOINT
    max_depth: int = 20
    order: int = 1

    def __post_init__(self) -> None:
        if self.alpha < 0.0:
            raise ValueError(f"alpha must be >= 0, got {self.alpha!r}")
        if self.subdivision_m not in (2, 3):
            raise ValueError(f"subdivision_m must be 2 or 3, got {self.subdivision_m!r}")
        if self.max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {self.max_depth!r}")
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


def _reference_z(z_l: float, z_r: float, rule: ReferenceRule) -> float:
    return 0.5 * (z_l + z_r) if rule is ReferenceRule.MIDPOINT else z_r


def _assemble(spec: StructureSpec, z: float) -> OperatorPair:
    return operators.assemble_operators(geometry.slice_at(spec, z), spec)


def _build_basis(
    spec: StructureSpec, z: float, ends: tuple[OperatorPair, OperatorPair] | None = None
) -> tuple[OperatorPair, ModalBasis]:
    """Operators and eigenbasis at z; the endpoint rule's z reuses the section's right end."""
    ops = ends[1] if ends is not None and ends[1].z == z else _assemble(spec, z)
    return ops, modal.eigen_basis(ops)


def port_bases(spec: StructureSpec) -> tuple[ModalBasis, ModalBasis]:
    """End cross-section bases that solve results are expressed in (not cached)."""
    return modal.eigen_basis(_assemble(spec, spec.z_min)), modal.eigen_basis(_assemble(spec, spec.z_max))


def _attach_right(acc: _Composite, piece: _Composite) -> _Composite:
    """Project a piece onto the accumulated right basis and star it on."""
    pp = cascade.projection_pair(acc.right_basis, piece.left_basis)
    projected = cascade.project_left(piece.smat, pp, acc.right_basis.basis_id)
    return _Composite(
        smat=cascade.star(acc.smat, projected),
        left_basis=acc.left_basis,
        right_basis=piece.right_basis,
    )


def _normalize_to_ports(comp: _Composite, root: tuple[OperatorPair, OperatorPair]) -> ScatteringMatrix:
    left_port, right_port = modal.eigen_basis(root[0]), modal.eigen_basis(root[1])
    pp_left = cascade.projection_pair(left_port, comp.left_basis)
    smat = cascade.project_left(comp.smat, pp_left, left_port.basis_id)
    ident = sections.zeroth_order_smatrix(right_port, right_port.z_ref, right_port.z_ref)
    pp_right = cascade.projection_pair(comp.right_basis, right_port)
    iface = cascade.project_left(ident, pp_right, comp.right_basis.basis_id)
    return cascade.star(smat, iface)


def _solve_section(
    spec: StructureSpec,
    z_l: float,
    z_r: float,
    basis: ModalBasis,
    ops: OperatorPair,
    order: int,
    eig_count: int,
    ends: tuple[OperatorPair, OperatorPair] | None,
) -> SectionResult:
    """One section at the requested order; order 0 skips the estimator."""
    if order == 1:
        return sections.first_order_smatrix(spec, z_l, z_r, basis, ops, eig_count=eig_count, end_ops=ends)
    smat = sections.zeroth_order_smatrix(basis, z_l, z_r)
    return SectionResult(smat=smat, est_error=0.0, eig_count=eig_count, z_L=z_l, z_R=z_r, order=0)


def solve_uniform(
    spec: StructureSpec,
    n_sections: int,
    order: int = 0,
    reference_rule: ReferenceRule = ReferenceRule.MIDPOINT,
) -> SolveReport:
    """Fixed-resolution cascade: N equal sections at the requested order.

    Every section gets its own reference basis (one eigendecomposition
    each); the result is expressed in the end cross-section port bases.
    At order 1 each section hands its right-end operators on to the next
    one, so every section boundary is assembled once.
    """
    if n_sections < 1:
        raise ValueError(f"n_sections must be >= 1, got {n_sections}")
    if order not in (0, 1):
        raise ValueError(f"order must be 0 or 1, got {order!r}")
    started = time.perf_counter()

    span = spec.z_max - spec.z_min
    root = (_assemble(spec, spec.z_min), _assemble(spec, spec.z_max))
    comp: _Composite | None = None
    solved: list[SectionResult] = []
    ends: tuple[OperatorPair, OperatorPair] | None = None
    for i in range(n_sections):
        last = i == n_sections - 1
        z_l = spec.z_min + span * i / n_sections
        z_r = spec.z_max if last else spec.z_min + span * (i + 1) / n_sections
        if order == 1:
            ends = (root[0] if ends is None else ends[1], root[1] if last else _assemble(spec, z_r))
        ops, basis = _build_basis(spec, _reference_z(z_l, z_r, reference_rule), ends)
        result = _solve_section(spec, z_l, z_r, basis, ops, order, eig_count=1, ends=ends)
        solved.append(result)
        piece = _Composite(result.smat, basis, basis)
        comp = piece if comp is None else _attach_right(comp, piece)

    smat = _normalize_to_ports(comp, root)
    return SolveReport(
        smat=smat,
        sections=tuple((r.z_L, r.z_R, r.est_error) for r in solved),
        total_eig_count=n_sections,
        total_wall_time=time.perf_counter() - started,
        sections_solved=n_sections,
    )


def solve_adaptive(spec: StructureSpec, config: SolverConfig) -> SolveReport:
    """Recursive adaptive subdivision down to the error bound alpha.

    A section whose estimated error stays below alpha is accepted as a
    leaf; otherwise it is split evenly into ``subdivision_m`` subsections
    that are solved recursively, reprojected left-to-right and composed.
    The estimate is always the first-order one; ``config.order`` selects
    which scattering matrix a leaf contributes. Raises
    MaxDepthExceededError when the recursion limit is hit, which signals a
    structure too singular for the requested alpha.

    Caveat: each section inspects the cross-section only at its endpoints,
    midpoint and reference position. A modulation that vanishes at all of
    those (e.g. a sinusoid with exactly one period over the span) yields a
    zero estimate and is accepted unrefined. Keep modulation periods
    non-commensurate with the span, or start from solve_uniform at a
    resolution finer than the modulation, when in doubt.

    Every node receives the operators at its own ends from its parent and
    assembles its inner child boundaries once, handing each to the two
    children that share it. Only O(depth) operator pairs are alive at a
    time.
    """
    started = time.perf_counter()
    counters = {"eig": 0, "solved": 0}
    rule = config.reference_rule
    if rule is ReferenceRule.MIDPOINT and config.subdivision_m % 2 == 1:
        reuse_index = config.subdivision_m // 2
    elif rule is ReferenceRule.ENDPOINT:
        reuse_index = config.subdivision_m - 1
    else:
        reuse_index = None

    def solve_node(
        ends: tuple[OperatorPair, OperatorPair],
        depth: int,
        inherited: tuple[OperatorPair, ModalBasis] | None,
    ) -> tuple[_Composite, list[SectionResult]]:
        z_l, z_r = ends[0].z, ends[1].z
        if inherited is None:
            ops, basis = _build_basis(spec, _reference_z(z_l, z_r, rule), ends)
            local_eigs = 1
        else:
            ops, basis = inherited
            local_eigs = 0
        counters["eig"] += local_eigs
        counters["solved"] += 1
        result = sections.first_order_smatrix(
            spec, z_l, z_r, basis, ops, eig_count=local_eigs, end_ops=ends
        )

        if result.est_error < config.alpha:
            if config.order == 0:
                result = replace(
                    result, smat=sections.zeroth_order_smatrix(basis, z_l, z_r), order=0
                )
            return _Composite(result.smat, basis, basis), [result]

        if depth >= config.max_depth:
            raise MaxDepthExceededError(
                f"section [{z_l:g}, {z_r:g}] still has estimated error "
                f"{result.est_error:.3e} >= alpha = {config.alpha:.3e} at depth {depth}; "
                "the structure is too singular for this accuracy"
            )

        comp: _Composite | None = None
        leaves: list[SectionResult] = []
        m = config.subdivision_m
        left_ops = ends[0]
        for i in range(m):
            right_ops = ends[1] if i == m - 1 else _assemble(spec, z_l + (z_r - z_l) * (i + 1) / m)
            child_inherited = (ops, basis) if i == reuse_index else None
            child_comp, child_leaves = solve_node((left_ops, right_ops), depth + 1, child_inherited)
            leaves.extend(child_leaves)
            comp = child_comp if comp is None else _attach_right(comp, child_comp)
            left_ops = right_ops
        return comp, leaves

    root = (_assemble(spec, spec.z_min), _assemble(spec, spec.z_max))
    comp, leaves = solve_node(root, 0, None)
    smat = _normalize_to_ports(comp, root)
    return SolveReport(
        smat=smat,
        sections=tuple((r.z_L, r.z_R, r.est_error) for r in leaves),
        total_eig_count=counters["eig"],
        total_wall_time=time.perf_counter() - started,
        sections_solved=counters["solved"],
    )
