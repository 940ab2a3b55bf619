"""Structure solver: one engine for fixed partitions and adaptive subdivision.

The engine cuts [z_min, z_max] at given root cut positions, solves each
section in the eigenbasis of its reference point and trisects it whenever
its estimated error reaches the user bound alpha. Accepted sections, the
leaves, are folded in z order by a binary counter: leaf after leaf is
added to a few waiting partial folds of 2^j consecutive leaves each, and
two partials of 2^j leaves merge into one of 2^(j + 1). Each merge is one
join, which writes field continuity between the two bases at their shared
plane and composes the scattering matrices with a single guarded inverse;
the merges of one level in one round are one ``cascade.join_stack`` call.
The star product is associative, so this grouping is as valid as any
other, and it depends on the number of leaves alone.

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
max(1, 4096 // n^2) for n modes (83 at n = 7, 9 at unsplit n = 21, 1 from
n = 47 up; on a split solve n is the even sector's size, so B = 33 at
n = 21 and 6 at n = 51): their points that lack operators are assembled as
one stack for every sector, and per sector their fresh reference points are
decomposed as one stack (one Hermitian eigensolver call per route, and one
``geev`` call for the lossy ones) and their first-order matrices are
evaluated as one stack. Then, in z order, each section is accepted or
refined, and the children of a refined section go back on top. A batch
shares each kernel call's fixed cost, most of a section's cost at n = 7
and much of it at n = 21. Root sections enter the frontier only as the
batches reach them. An accepted section waits, keyed by its left point,
until every section to its left has been accepted; the run of leaves that
this completes is carried into the counter after the round, and the at
most log2(L) partials left at the end are joined left to right. So the
joins, and the output, do not depend on B: a stacked join gives each entry
what a stack of one gives. Batching changes only the order in which
sections are evaluated; an error inside a batched solve therefore reruns
the solve one section at a time, which is the depth-first order and raises
the error that order meets first.

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
block, which never couple. Each point then carries the operators and the
basis of both sectors, even first; one ``assemble_stack`` call builds both
sectors' operators from one slice and one Fourier table. A section is
accepted when the larger of its two estimates is below alpha. The unsplit
first-order terms are block-diagonal in the parity basis, so that is the
unsplit test, and the one tree, frontier and rerun are the unsplit ones up
to rounding. Each sector folds its own tree of joins, the same tree; the
two folds are embedded block-diagonally through ``operators.parity_basis``
once and joined to the full-size port bases as above, so ports, basis ids
and the mode order are those of an unsplit solve. Every other spec, and every spec
below ``_SPLIT_HARMONICS`` modes, has one full-size sector.
"""
from __future__ import annotations

import itertools
import math
import time
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from typing import NamedTuple

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

    ``alpha`` > 0 is the per-section error bound that a section's estimate
    must be below; alpha = inf never refines. At order 0 with alpha = inf
    nothing reads the estimate, so it is not computed and every section
    reports ``est_error`` 0.0.
    """

    alpha: float
    order: int = 1

    def __post_init__(self) -> None:
        if not self.alpha > 0.0:
            raise ValueError(f"alpha must be > 0, got {self.alpha!r}")
        if self.order not in (0, 1):
            raise ValueError(f"order must be 0 or 1, got {self.order!r}")


@dataclass(frozen=True)
class SolveReport:
    """Outcome of one solve: scattering matrix plus observability data.

    ``sections`` lists the solved leaf sections as (z_L, z_R, est_error),
    tiling [z_min, z_max] exactly in order. ``sections_solved`` counts
    every section evaluation including interior nodes that were later
    subdivided; ``total_eig_count`` counts eigendecompositions actually
    performed (reused bases count once). A solve split into parity
    sectors (see the module docstring) grows one tree, the unsplit one up
    to rounding: ``sections`` is that tree's leaves, each with the larger
    of its two sector estimates, ``sections_solved`` counts each section
    once and ``total_eig_count`` counts the decompositions of both sectors.
    """

    smat: ScatteringMatrix
    sections: tuple[tuple[float, float, float], ...]
    total_eig_count: int
    total_wall_time: float
    sections_solved: int


# Matrix entries (sections x n^2) evaluated in one frontier batch: B =
# max(1, _BATCH_ENTRIES // n^2): 83 at n = 7, 9 at unsplit n = 21, and per
# sector 33 at split n = 21 and 6 at split n = 51. On 2 cores with one BLAS
# thread 4096 ran unsplit n = 21 solves a third faster than 512, split
# n = 51 ones 12% faster than B = 3, and split n = 21 ones in 25% less
# time than B = 9 (sized for the full n).
_BATCH_ENTRIES = 4096

# Harmonic count from which a spec with a ``mirror_x_um`` solves as its two
# parity sectors: the smallest n from which the split was faster on every
# cell of a sweep over taper and sinusoid, TE and TM, and adaptive alpha =
# 1e-3, uniform N = 64 at order 0 and N = 32 at order 1. Unsplit time over
# split time, per cell the median of 6 alternating pairs of best-of-5
# solves, on 2 cores with one BLAS thread:
#
#   n       11    13    15    17    19    21    23
#   min     0.70  0.77  0.98  0.93  1.13  1.12  1.23
#   median  0.86  1.02  1.09  1.16  1.23  1.38  1.38
#
# The weakest cell is the shortest solve, taper TE adaptive (27 leaves).
_SPLIT_HARMONICS = 19

# What the report keeps of an accepted section: (z_L, z_R, est_error).
_Leaf = tuple[float, float, float]


@dataclass(eq=False, slots=True)
class _Point:
    """A Simpson sample whose operators and basis are each filled in at most once.

    Each holds one entry per sector of the solve, in the order of its
    ``sectors``. ``ops`` stays None until something reads them (only a
    reference's when nothing reads the estimate) and ``basis`` until the
    point is a reference.
    """

    z: float
    ops: tuple[OperatorPair, ...] | None = None
    basis: tuple[ModalBasis, ...] | None = None


@dataclass(eq=False, slots=True)
class _Open:
    """A section waiting to be evaluated; its reference is ``middle``."""

    left: _Point
    middle: _Point
    right: _Point
    depth: int


# An accepted section, keyed by its left point until the fold reaches it:
# (right point, scattering matrix per sector, reference basis per sector, leaf).
_Accepted = tuple[_Point, list[ScatteringMatrix], tuple[ModalBasis, ...], _Leaf]


def _assemble(spec: StructureSpec, points: Iterable[_Point], sectors: Sequence[int | None]) -> None:
    """Give the points that lack operators theirs, each point once: one slice each, one stack for every sector."""
    missing = [p for p in dict.fromkeys(points) if p.ops is None]
    stacks = operators.assemble_stack([geometry.slice_at(spec, p.z) for p in missing], spec, sectors)
    for point, ops in zip(missing, zip(*stacks)):
        point.ops = ops


def _decompose(points: Sequence[_Point]) -> int:
    """Give the points that lack a basis theirs, as one stack per sector; returns how many bases were built."""
    missing = [p for p in points if p.basis is None]
    stacks = [modal.eigen_basis_stack(ops) for ops in zip(*(p.ops for p in missing))]
    for point, bases in zip(missing, zip(*stacks)):
        point.basis = bases
    return len(missing) * len(stacks)


def port_bases(spec: StructureSpec) -> tuple[ModalBasis, ModalBasis]:
    """End cross-section bases that solve results are expressed in (not cached)."""
    ends = (_Point(spec.z_min), _Point(spec.z_max))
    _assemble(spec, ends, (None,))
    _decompose(ends)
    return ends[0].basis[0], ends[1].basis[0]


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


class _Partial(NamedTuple):
    """Consecutive leaves folded into one: per sector its S-matrix and its first and last leaf bases."""

    smats: Sequence[ScatteringMatrix]
    firsts: Sequence[ModalBasis]
    lasts: Sequence[ModalBasis]


# What a fold returns: the partial of all leaves, then the leaves and the counters.
_Fold = tuple[Sequence[ScatteringMatrix], Sequence[ModalBasis], Sequence[ModalBasis], list[_Leaf], dict[str, int]]


def _join(lefts: Sequence[_Partial], rights: Sequence[_Partial]) -> list[_Partial]:
    """Each partial of ``lefts`` joined to the one of ``rights`` that follows it: one stacked join per sector."""
    per_sector = [
        cascade.join_stack([(a.smats[k], a.lasts[k], b.smats[k], b.firsts[k]) for a, b in zip(lefts, rights)])
        for k in range(len(lefts[0].smats))
    ]
    return [_Partial(smats, a.firsts, b.lasts) for a, b, smats in zip(lefts, rights, zip(*per_sector))]


def _carry(
    partials: dict[int, _Partial], accepted: dict[_Point, _Accepted], edge: _Point, leaves: list[_Leaf]
) -> _Point:
    """Fold the accepted sections from ``edge`` on into ``partials`` as a binary increment; returns the new edge.

    The sections, taken from ``accepted`` in z order while each starts
    where the last one ends, join ``leaves`` and are the items of level 0.
    ``partials`` holds at most one partial of 2^j leaves at each level j,
    a larger one to the left of a smaller. At level j the waiting partial
    goes in front of the level's items, the items are joined in pairs,
    all in one stacked join per sector, and an odd item left over waits at
    level j; the joined pairs are the items of level j + 1. Each join
    merges two aligned runs of 2^j leaves, so the tree depends on the
    leaves alone, not on how they arrive.
    """
    items = []
    while edge in accepted:
        edge, smats, bases, leaf = accepted.pop(edge)
        items.append(_Partial(smats, bases, bases))
        leaves.append(leaf)
    level = 0
    while items:
        if level in partials:
            items.insert(0, partials.pop(level))
        if len(items) % 2:
            partials[level] = items.pop()
        items = _join(items[::2], items[1::2]) if items else []
        level += 1
    return edge


def _refine(
    spec: StructureSpec,
    config: SolverConfig,
    cuts: Sequence[float],
    ends: tuple[_Point, _Point],
    sectors: Sequence[int | None],
    batch: int,
) -> _Fold:
    """Evaluate the frontier ``batch`` sections at a time and fold the leaves by a binary counter.

    The open sections sit on a stack in z order, leftmost on top. Each
    round takes the ``batch`` leftmost of them, topping up from the root
    sections between the ``cuts``, which run from end point to end point
    and are made only when needed, and pushes back the children of the
    sections it refines. With ``batch`` = 1 this is the depth-first order,
    operation by operation. After each round the accepted sections that
    continue the folded leaves are carried into the partials of a binary
    counter (``_carry``); at the end its at most log2(L) partials are
    joined left to right. Returns the fold, the leaves and the counters.
    """
    counters = {"eig": 0, "solved": 0}
    edge = ends[0]
    unmade = _sections(itertools.chain(ends[:1], map(_Point, cuts[1:-1]), ends[1:]), 0)
    stack: list[_Open] = []
    accepted: dict[_Point, _Accepted] = {}
    partials: dict[int, _Partial] = {}
    leaves: list[_Leaf] = []
    while True:
        taken = [stack.pop() for _ in range(min(batch, len(stack)))]
        taken.extend(itertools.islice(unmade, batch - len(taken)))
        if not taken:
            folded, *rest = [partials[level] for level in sorted(partials, reverse=True)]
            for partial in rest:
                (folded,) = _join([folded], [partial])
            return (*folded, leaves, counters)
        stack.extend(reversed(_evaluate(spec, config, sectors, taken, accepted, counters)))
        edge = _carry(partials, accepted, edge, leaves)


def _evaluate(
    spec: StructureSpec,
    config: SolverConfig,
    sectors: Sequence[int | None],
    taken: list[_Open],
    accepted: dict[_Point, _Accepted],
    counters: dict[str, int],
) -> list[_Open]:
    """One round: evaluate the sections ``taken`` (in z order) and return the children to push.

    Their middle and right points that lack operators are assembled (only
    the fresh middle points when nothing reads the estimate), the fresh
    middle points are decomposed and the sections are solved at first
    order, or not at all when nothing reads the estimate, which then
    counts as 0.0; each step is one stack per sector. Then, in z order,
    each section is either recorded in ``accepted`` under its left point or
    split. A section's estimate is the larger of its sectors' estimates.
    """
    estimate = config.order == 1 or config.alpha < math.inf
    fresh = [s.middle for s in taken if s.middle.basis is None]
    _assemble(spec, [p for s in taken for p in (s.middle, s.right)] if estimate else fresh, sectors)
    counters["eig"] += _decompose(fresh)
    counters["solved"] += len(taken)

    results = [None] * len(taken)
    if estimate:
        per_sector = [
            [(s.left.z, s.right.z, s.middle.basis[k], s.middle.ops[k], (s.left.ops[k], s.right.ops[k])) for s in taken]
            for k in range(len(sectors))
        ]
        results = zip(*map(sections.first_order_stack, per_sector))
    children: list[_Open] = []
    for s, result in zip(taken, results):
        z_l, z_r, bases = s.left.z, s.right.z, s.middle.basis
        est_error = 0.0 if result is None else max([r.est_error for r in result])
        if est_error < config.alpha:
            if config.order == 0:
                smats = [sections.zeroth_order_smatrix(basis, z_l, z_r) for basis in bases]
            else:
                smats = [r.smat for r in result]
            accepted[s.left] = (s.right, smats, bases, (z_l, z_r, est_error))
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
    spec: StructureSpec,
    config: SolverConfig,
    cuts: Sequence[float],
    ends: tuple[_Point, _Point],
    sectors: Sequence[int | None],
) -> _Fold:
    """``_refine`` in batches sized for the first sector's modes; after any error, rerun one section at a time.

    A batch evaluates sections out of depth-first order; the rerun starts
    from fresh inner points and raises the error that order meets first.
    """
    batch = max(1, _BATCH_ENTRIES // ends[0].ops[0].n ** 2)
    try:
        return _refine(spec, config, cuts, ends, sectors, batch)
    except Exception:
        if batch == 1:
            raise
        # One section at a time is the depth-first order: the rerun raises the error it meets first.
        return _refine(spec, config, cuts, ends, sectors, 1)


def _solve(spec: StructureSpec, config: SolverConfig, cuts: Sequence[float]) -> SolveReport:
    """Cut the structure at ``cuts`` (z_min first, z_max last) and refine each root section down to alpha.

    The full-size end points are assembled first, for the ports. From
    ``_SPLIT_HARMONICS`` modes up, a spec with a ``mirror_x_um`` is solved
    in its two parity sectors, even first, from end points of their own;
    every other spec in one full-size sector, from the port points. A
    section's other points are assembled when it is evaluated (only its
    middle point when nothing reads the estimate). The sectors' folds are
    embedded through ``operators.parity_basis`` and the port points are
    decomposed at full size as one stack.
    """
    started = time.perf_counter()
    ports = (_Point(cuts[0]), _Point(cuts[-1]))
    _assemble(spec, ports, (None,))
    split = spec.n_harmonics >= _SPLIT_HARMONICS and spec.mirror_x_um is not None
    sectors = (0, 1) if split else (None,)
    ends = (_Point(cuts[0]), _Point(cuts[-1])) if split else ports
    _assemble(spec, ends, sectors)
    smats, firsts, lasts, leaves, counters = _fold(spec, config, cuts, ends, sectors)
    if split:
        smat, first, last = cascade.direct_sum(operators.parity_basis(spec), list(zip(smats, firsts, lasts)))
    else:
        (smat,), (first,), (last,) = smats, firsts, lasts
    _decompose(ports)
    left, right = (port.basis[0] for port in ports)
    smat = cascade.join(sections.identity_smatrix(left.n, left.basis_id), left, smat, first)
    return SolveReport(
        smat=cascade.join(smat, last, sections.identity_smatrix(right.n, right.basis_id), right),
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
    A solve split into parity sectors (see the module docstring) does the
    operator and basis work once per sector, at the sector's size, on the
    same N sections: each section counts once in ``sections_solved`` and
    twice in ``total_eig_count``.
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

    From 19 modes up, a mirror-symmetric structure (``spec.mirror_x_um``
    not None) is solved as two half-size parity sectors that grow one tree,
    the unsplit one up to rounding, accepting a section when both sector
    estimates are below alpha. The report's ``sections`` is that tree,
    ``sections_solved`` counts each section once and ``total_eig_count``
    counts both sectors' decompositions. The result is still expressed in
    the full-size port bases of ``port_bases``.

    Caveat: each section inspects the cross-section only at its two ends
    and midpoint. A modulation that vanishes at all of those (e.g. a
    sinusoid with exactly one period over the span) yields a zero estimate
    and is accepted unrefined. Keep modulation periods non-commensurate
    with the span, or start from solve_uniform at a resolution finer than
    the modulation, when in doubt.
    """
    return _solve(spec, config, [spec.z_min, spec.z_max])
