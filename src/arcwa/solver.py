"""Structure solver: one engine for fixed partitions and adaptive subdivision.

The engine cuts [z_min, z_max] at given root cut positions, solves each
section in the eigenbasis of its reference point and trisects it whenever
its estimated error reaches the user bound alpha. Accepted sections are
folded strictly left to right, in z order: each section boundary is one
``cascade.join``, which writes field continuity between the two bases and
composes the scattering matrices with a single guarded inverse. The
star product is associative, so this plain cascade is as valid a grouping
as any other.

A point is a z with its operators and its modal basis, each filled in at
most once. A section has a point per Simpson sample: left and right, shared
with the sections it meets, and a middle point of its own, which is its
reference. Every reuse of operators or of a basis is by identity.

``solve_adaptive`` cuts only at z_min and z_max. The parent's middle point
becomes the middle third's middle point, so child 1 shares its parent's
reference point and eigendecomposition, and ``total_eig_count`` reflects
that reuse.
``solve_uniform`` is the same engine with N equal pieces and alpha = inf:
a fixed partition that is never refined.

The engine works on a frontier: a stack of the open sections in z order,
leftmost on top. Each round takes the B leftmost of them as one batch, B =
max(1, 4096 // n^2) for n modes (83 at n = 7, 9 at n = 21, 1 from n = 47
up): their points that lack operators are assembled as one stack, their
fresh reference points are decomposed as one stack (one Hermitian
eigensolver call per route, and one ``geev`` call for the lossy ones) and
their first-order matrices are evaluated as one stack.
Then, in z order, each section is accepted or refined, and the children of
a refined section go back on top. A batch shares each kernel call's fixed
cost, most of a section's cost at n = 7 and much of it at n = 21. Root
sections enter the frontier only as the batches reach them. An accepted
section waits, keyed by its left point, until every section to its left has
been folded; so the joins, and the output, do not depend on B. Batching
changes only the order in which sections are evaluated; an error inside a
batched solve therefore reruns the solve one section at a time, which is
the depth-first order and raises the error that order meets first.

The final scattering matrix is re-expressed in the bases of the two end
points by two more joins, with an identity matrix in each port basis, so a
solve with L leaves performs (L - 1) + 2 guarded interface inverses. Those
"port" bases depend only on the structure and basis ids hash basis
content, so results of different methods, resolutions and solves compare
entry by entry. Each solve decomposes its own end points (nothing is
cached). The port eigendecompositions are not charged to
``total_eig_count``.

Mirror-parity sectors: from ``_SPLIT_HARMONICS`` modes up, a spec with a
``mirror_x_um`` (every region has one constant center and none is clipped
at the period's edge) has operators that split into an even and an odd
block, which never couple. The engine then runs once per sector, on
operators assembled at the sector's size, each sector with its own end
points, tree, batch size and rerun. The two folds are embedded
block-diagonally through ``operators.parity_basis`` and joined to the
full-size port bases as above, so ports, basis ids and the mode order are
those of an unsplit solve. Every other spec, and every spec below
``_SPLIT_HARMONICS`` modes, runs as one fold.
"""
from __future__ import annotations

import itertools
import math
import time
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass

from . import cascade, geometry, modal, operators, sections
from .errors import MaxDepthExceededError
from .geometry import StructureSpec
from .modal import ModalBasis
from .operators import OperatorPair
from .sections import ScatteringMatrix


# Refinement depth at which a section still over alpha raises.
_MAX_DEPTH = 20


@dataclass(frozen=True)
class SolverConfig:
    """Solver knobs.

    ``alpha`` is the per-section error bound the estimate is compared
    against; alpha = inf never refines. At order 0 with alpha = inf
    nothing reads the estimate, so it is not computed and every section
    reports ``est_error`` 0.0.
    """

    alpha: float
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
    performed (reused bases count once). On a solve split into parity
    sectors (see the module docstring), ``sections`` is the common
    refinement of the two sectors' leaves, each piece with the larger of
    the two estimates that cover it, and both counters sum the sectors.
    """

    smat: ScatteringMatrix
    sections: tuple[tuple[float, float, float], ...]
    total_eig_count: int
    total_wall_time: float
    sections_solved: int


# Matrix entries (sections x n^2) evaluated in one frontier batch: B =
# max(1, _BATCH_ENTRIES // n^2), 83 at n = 7, 9 at n = 21, 1 at n = 51. On
# 2 cores with one BLAS thread 4096 ran n = 21 solves a third faster than
# 512; 8192 (B = 3 at n = 51) only grew n = 51 peak memory, by 4%.
_BATCH_ENTRIES = 4096

# Harmonic count from which a spec with a ``mirror_x_um`` solves as its two
# parity sectors. On 2 cores with one BLAS thread, the split solve of the
# README taper at alpha = 1e-3 ran (TE/TM) 0.54/0.71x as fast as the
# unsplit one at n = 7, 0.81/0.92x at 15, 1.04/1.26x at 21, 1.19/1.38x at
# 25 and 1.53/1.81x at 51 (best of 6 or more solves).
_SPLIT_HARMONICS = 25

# What the report keeps of an accepted section: (z_L, z_R, est_error).
_Leaf = tuple[float, float, float]


@dataclass(eq=False, slots=True)
class _Point:
    """A Simpson sample whose operators and basis are each filled in at most once.

    ``ops`` stays None until something reads them (only a reference's when
    nothing reads the estimate) and ``basis`` until the point is a reference.
    """

    z: float
    ops: OperatorPair | None = None
    basis: ModalBasis | None = None


@dataclass(eq=False, slots=True)
class _Open:
    """A section waiting to be evaluated; its reference is ``middle``."""

    left: _Point
    middle: _Point
    right: _Point
    depth: int


# An accepted section, keyed by its left point until the fold reaches it:
# (right point, scattering matrix, reference basis, leaf).
_Accepted = tuple[_Point, ScatteringMatrix, ModalBasis, _Leaf]


def _assemble(spec: StructureSpec, points: Iterable[_Point], sector: int | None = None) -> None:
    """Give the points that lack operators theirs (the ``sector``'s block), each point once, as one stack."""
    missing = [p for p in dict.fromkeys(points) if p.ops is None]
    slices = [geometry.slice_at(spec, p.z) for p in missing]
    for point, ops in zip(missing, operators.assemble_stack(slices, spec, sector)):
        point.ops = ops


def _decompose(points: Sequence[_Point]) -> int:
    """Give the points that lack a basis theirs, as one stack; returns how many were decomposed."""
    missing = [p for p in points if p.basis is None]
    for point, basis in zip(missing, modal.eigen_basis_stack([p.ops for p in missing])):
        point.basis = basis
    return len(missing)


def port_bases(spec: StructureSpec) -> tuple[ModalBasis, ModalBasis]:
    """End cross-section bases that solve results are expressed in (not cached)."""
    ends = (_Point(spec.z_min), _Point(spec.z_max))
    _assemble(spec, ends)
    _decompose(ends)
    return ends[0].basis, ends[1].basis


def _sections(points: Iterator[_Point], depth: int) -> Iterator[_Open]:
    """The sections between consecutive ``points`` in z order, each made only when asked for."""
    left = next(points)
    for right in points:
        # No local names the middle point: a suspended generator would keep its basis alive.
        yield _Open(left, _Point(0.5 * (left.z + right.z)), right, depth)
        left = right


def _split(section: _Open) -> list[_Open]:
    """The three children of a refined section, in z order; child 1 keeps its parent's middle point."""
    z_l, z_r = section.left.z, section.right.z
    inner = [_Point(z_l + (z_r - z_l) * i / 3) for i in range(1, 3)]
    children = list(_sections(iter([section.left, *inner, section.right]), section.depth + 1))
    children[1].middle = section.middle
    return children


# What a fold returns: its S-matrix, its first and last leaf bases, its leaves and its counters.
_Fold = tuple[ScatteringMatrix, ModalBasis, ModalBasis, list[_Leaf], dict[str, int]]


def _refine(
    spec: StructureSpec,
    config: SolverConfig,
    cuts: Sequence[float],
    ends: tuple[_Point, _Point],
    batch: int,
    sector: int | None,
) -> _Fold:
    """Evaluate the frontier ``batch`` sections at a time and fold the leaves left to right.

    The open sections sit on a stack in z order, leftmost on top. Each
    round takes the ``batch`` leftmost of them, topping up from the root
    sections between the ``cuts``, which run from end point to end point
    and are made only when needed, and pushes back the children of the
    sections it refines. With ``batch`` = 1 this is the depth-first order,
    operation by operation. After each round the running fold takes in
    every accepted section whose left point is its right edge. Returns the
    fold, its first and last leaf bases, the leaves and the counters. Every
    operator pair is the ``sector``'s block (see ``operators.assemble_stack``).
    """
    counters = {"eig": 0, "solved": 0}
    edge = ends[0]
    unmade = _sections(itertools.chain(ends[:1], map(_Point, cuts[1:-1]), ends[1:]), 0)
    stack: list[_Open] = []
    accepted: dict[_Point, _Accepted] = {}
    smat = first = last = None
    leaves: list[_Leaf] = []
    while True:
        taken = [stack.pop() for _ in range(min(batch, len(stack)))]
        taken.extend(itertools.islice(unmade, batch - len(taken)))
        if not taken:
            return smat, first, last, leaves, counters
        stack.extend(reversed(_evaluate(spec, config, taken, accepted, counters, sector)))
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
    accepted: dict[_Point, _Accepted],
    counters: dict[str, int],
    sector: int | None,
) -> list[_Open]:
    """One round: evaluate the sections ``taken`` (in z order) and return the children to push.

    Their middle and right points that lack operators are assembled as one
    stack (only the fresh middle points when nothing reads the estimate),
    the fresh middle points are decomposed as one stack and the sections
    are solved at first order as one stack, or not at all when nothing
    reads the estimate, which then counts as 0.0. Then, in z order, each
    section is either recorded in ``accepted`` under its left point or
    split.
    """
    estimate = config.order == 1 or config.alpha < math.inf
    fresh = [s.middle for s in taken if s.middle.basis is None]
    _assemble(spec, [p for s in taken for p in (s.middle, s.right)] if estimate else fresh, sector)
    counters["eig"] += _decompose(fresh)
    counters["solved"] += len(taken)

    results = [None] * len(taken)
    if estimate:
        stack = [(s.left.z, s.right.z, s.middle.basis, s.middle.ops, (s.left.ops, s.right.ops)) for s in taken]
        results = sections.first_order_stack(stack)
    children: list[_Open] = []
    for s, result in zip(taken, results):
        z_l, z_r, basis = s.left.z, s.right.z, s.middle.basis
        est_error = 0.0 if result is None else result.est_error
        if est_error < config.alpha:
            smat = sections.zeroth_order_smatrix(basis, z_l, z_r) if config.order == 0 else result.smat
            accepted[s.left] = (s.right, smat, basis, (z_l, z_r, est_error))
        elif s.depth >= _MAX_DEPTH:
            raise MaxDepthExceededError(
                f"section [{z_l:g}, {z_r:g}] still has estimated error "
                f"{est_error:.3e} >= alpha = {config.alpha:.3e} at depth {s.depth}; "
                "the structure is too singular for this accuracy"
            )
        else:
            children.extend(_split(s))
    return children


def _fold(
    spec: StructureSpec, config: SolverConfig, cuts: Sequence[float], ends: tuple[_Point, _Point], sector: int | None
) -> _Fold:
    """``_refine`` in batches sized for the ``sector``'s modes; after any error, rerun one section at a time.

    A batch evaluates sections out of depth-first order; the rerun starts
    from fresh inner points and raises the error that order meets first.
    """
    modes = spec.n_harmonics if sector is None else spec.truncation_order + 1 - sector
    batch = max(1, _BATCH_ENTRIES // modes**2)
    try:
        return _refine(spec, config, cuts, ends, batch, sector)
    except Exception:
        if batch == 1:
            raise
        # One section at a time is the depth-first order: the rerun raises the error it meets first.
        return _refine(spec, config, cuts, ends, 1, sector)


def _common_refinement(even: list[_Leaf], odd: list[_Leaf]) -> list[_Leaf]:
    """The pieces between the edges of two tilings, each with the larger estimate of the two leaves covering it."""
    edges = sorted({z for leaf in even + odd for z in leaf[:2]})
    pieces: list[_Leaf] = []
    i = j = 0
    for z_l, z_r in zip(edges, edges[1:]):
        while even[i][1] <= z_l:
            i += 1
        while odd[j][1] <= z_l:
            j += 1
        pieces.append((z_l, z_r, max(even[i][2], odd[j][2])))
    return pieces


def _sector_fold(spec: StructureSpec, config: SolverConfig, cuts: Sequence[float]) -> _Fold:
    """The fold of a spec with a ``mirror_x_um``, made of one fold per parity sector.

    Each sector is refined alone, from end points of its own, with its own
    tree, even sector first. The sectors never couple, so the direct sum of
    their folds through ``operators.parity_basis`` is the structure's fold:
    a block-diagonal S-matrix between embedded end bases. Its leaves are
    the common refinement of the two tilings, and its counters sum both.
    """
    folds = []
    for sector in (0, 1):
        ends = (_Point(cuts[0]), _Point(cuts[-1]))
        _assemble(spec, ends, sector)
        folds.append(_fold(spec, config, cuts, ends, sector))
    (*even, even_leaves, even_counters), (*odd, odd_leaves, odd_counters) = folds
    smat, first, last = cascade.direct_sum(operators.parity_basis(spec), [even, odd])
    counters = {key: even_counters[key] + odd_counters[key] for key in even_counters}
    return smat, first, last, _common_refinement(even_leaves, odd_leaves), counters


def _solve(spec: StructureSpec, config: SolverConfig, cuts: Sequence[float]) -> SolveReport:
    """Cut the structure at ``cuts`` (z_min first, z_max last) and refine each root section down to alpha.

    The end points are assembled first, a section's other points when it is
    evaluated (only its middle point when nothing reads the estimate). From
    ``_SPLIT_HARMONICS`` modes up, a spec with a ``mirror_x_um`` is folded
    per parity sector (``_sector_fold``), every other spec in one fold. The
    end points are then decomposed at full size as one stack for the ports.
    """
    started = time.perf_counter()
    ends = (_Point(cuts[0]), _Point(cuts[-1]))
    _assemble(spec, ends)
    if spec.n_harmonics >= _SPLIT_HARMONICS and spec.mirror_x_um is not None:
        folded = _sector_fold(spec, config, cuts)
    else:
        folded = _fold(spec, config, cuts, ends, None)
    smat, first, last, leaves, counters = folded
    _decompose(ends)
    left, right = ends
    smat = cascade.join(sections.identity_smatrix(left.basis.n, left.basis.basis_id), left.basis, smat, first)
    return SolveReport(
        smat=cascade.join(smat, last, sections.identity_smatrix(right.basis.n, right.basis.basis_id), right.basis),
        sections=tuple(leaves),
        total_eig_count=counters["eig"],
        total_wall_time=time.perf_counter() - started,
        sections_solved=counters["solved"],
    )


def solve_uniform(spec: StructureSpec, n_sections: int, order: int = 0) -> SolveReport:
    """Fixed-resolution cascade: N equal sections that are never refined.

    The solve engine cut into N equal pieces, with alpha = inf. Every
    section gets its own reference point (one eigendecomposition each);
    the result is expressed in the end-point port bases. At order 1 every
    boundary point is assembled once and shared by its two sections; at
    order 0 only the reference points and the two end points are assembled.
    A solve split into parity sectors (see the module docstring) does all
    this once per sector, at the sector's size, so each section counts
    twice in ``sections_solved`` and ``total_eig_count``.
    """
    if n_sections < 1:
        raise ValueError(f"n_sections must be >= 1, got {n_sections}")
    config = SolverConfig(alpha=math.inf, order=order)
    z_min, z_max = spec.z_min, spec.z_max
    cuts = [z_min, *(z_min + (z_max - z_min) * i / n_sections for i in range(1, n_sections)), z_max]
    return _solve(spec, config, cuts)


def solve_adaptive(spec: StructureSpec, config: SolverConfig) -> SolveReport:
    """Adaptive subdivision down to the error bound alpha.

    The solve engine with the whole structure as one root section. A
    section whose estimated error stays below alpha is accepted as a leaf;
    otherwise it is split evenly into 3 subsections that are solved in turn
    and joined. The estimate is always the first-order one; ``config.order``
    selects which scattering matrix a leaf contributes. Raises
    MaxDepthExceededError when a section still reaches alpha at depth 20,
    which signals a structure too singular for the requested alpha.

    From 25 modes up, a mirror-symmetric structure (``spec.mirror_x_um``
    not None) is refined per parity sector: each half-size sector has its
    own tree, the report's ``sections`` is the common refinement of the
    two trees, with the larger estimate on each piece, and the counters sum
    both sectors. The result is still expressed in the full-size port
    bases of ``port_bases``.

    Caveat: each section inspects the cross-section only at its two ends
    and midpoint. A modulation that vanishes at all of those (e.g. a
    sinusoid with exactly one period over the span) yields a zero estimate
    and is accepted unrefined. Keep modulation periods non-commensurate
    with the span, or start from solve_uniform at a resolution finer than
    the modulation, when in doubt.
    """
    return _solve(spec, config, [spec.z_min, spec.z_max])
