"""Shared fixtures: reference structures, random-matrix helpers and strategies."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import strategies as st

from arcwa.cascade import project_left, projection_pair, star
from arcwa.checks import (  # noqa: F401 - re-exported to the tests
    random_passive_smatrix,
    uniform_basis,
    uniform_slice,
    uniform_spec,
)
from arcwa.geometry import PermittivitySlice, StructureSpec, parse_structure, slice_at
from arcwa.modal import ModalBasis, eigen_basis_stack
from arcwa.numerics import max_abs
from arcwa.operators import OperatorPair, assemble_stack
from arcwa.sections import ScatteringMatrix, SectionResult, first_order_stack
from arcwa.solver import solve_uniform


def uniform_spec_on(period: float, eps: complex = 1.0, **kwargs) -> StructureSpec:
    """``uniform_spec`` of unit thickness on the transverse period ``period``, the one its slices are assembled on."""
    return dataclasses.replace(uniform_spec(eps, 1.0, **kwargs), period_x_um=period)


# Stacks of one, for the tests that assemble or decompose a single slice or pair.
def assemble_operators(slc: PermittivitySlice, spec: StructureSpec) -> OperatorPair:
    return assemble_stack([slc], spec)[0][0]


def eigen_basis(ops: OperatorPair) -> ModalBasis:
    return eigen_basis_stack([ops])[0]


def assert_check(check, *args) -> str:
    """Run one of the ``arcwa validate`` checks, assert that it passed, and return its detail."""
    passed, detail = check(*args)
    assert passed, detail
    return detail


def two_step_join(left, left_basis, right, right_basis):
    """Reproject the right matrix onto the left basis, then star the two: what ``cascade.join`` fuses."""
    return star(left, project_left(right, projection_pair(left_basis, right_basis), left_basis.basis_id))


@st.composite
def random_slice(draw, period: float, loss=st.just(0.0), z: float = 0.0) -> PermittivitySlice:
    """A slice of 1-6 intervals on [0, period] with Re(eps) in [1, 13] and Im(eps) drawn from ``loss``."""
    k = draw(st.integers(1, 6))
    cuts = draw(st.lists(st.floats(0.01, 0.99), min_size=k - 1, max_size=k - 1, unique=True))
    bounds = [0.0, *(period * cut for cut in sorted(cuts)), period]
    values = draw(st.lists(st.builds(complex, st.floats(1.0, 13.0), loss), min_size=k, max_size=k))
    return PermittivitySlice(z=z, intervals=tuple(zip(bounds, bounds[1:], values)))


def owning_buffer(a: np.ndarray) -> np.ndarray:
    """The array that owns ``a``'s memory: ``a`` itself, or the end of its chain of bases."""
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


# Desk-scale linear taper: high-contrast core widening from 0.26 to 0.37 um
# across a 1 um span on a 1 um transverse period.
TAPER_DOC = """
wavelength_um: 1.55
polarization: TE
period_x_um: 1.0
z_range_um: [0.0, 1.0]
truncation_order: 3
background_eps: [1.0, 0.0]
regions:
  - eps: [12.25, 0.0]
    center_x: 0.5
    profile: {kind: linear, start: 0.26, end: 0.37}
"""

CONSTANT_DOC = TAPER_DOC.replace(
    "{kind: linear, start: 0.26, end: 0.37}", "{kind: constant, value: 0.3}"
)


@pytest.fixture(scope="session")
def taper_spec() -> StructureSpec:
    return parse_structure(TAPER_DOC)


@pytest.fixture(scope="session")
def taper_oracle(taper_spec):
    """256-section zeroth-order cascade: the ground-truth scattering matrix."""
    return solve_uniform(taper_spec, 256, order=0)


@pytest.fixture(scope="session")
def constant_spec() -> StructureSpec:
    return parse_structure(CONSTANT_DOC)


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(20250810)


def random_basis(rng: np.random.Generator, n: int, k0: float = 2.0 * np.pi / 1.55) -> ModalBasis:
    """Well-conditioned random basis; only W/V (and inverses) are meaningful."""
    w = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) + 2.0 * np.eye(n)
    v = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) + 2.0 * np.eye(n)
    lam = 1.0 + rng.random(n) + 0j
    return ModalBasis(
        W=w,
        V=v,
        lam=lam,
        z_ref=0.0,
        k0=k0,
        W_inv=np.linalg.inv(w),
        V_inv=np.linalg.inv(v),
    )


def random_join_pair(rng: np.random.Generator, n: int) -> tuple:
    """(left, left basis, right, right basis) for ``cascade.join``: random passive matrices in random bases."""
    left_basis, right_basis = random_basis(rng, n), random_basis(rng, n)
    left = random_passive_smatrix(rng, n, 1, left_basis.basis_id)
    return left, left_basis, random_passive_smatrix(rng, n, right_basis.basis_id, 2), right_basis


def first_order_section(
    spec: StructureSpec, z_l: float, z_r: float, basis: ModalBasis, ref_ops: OperatorPair
) -> SectionResult:
    """Section [z_l, z_r] solved by ``first_order_stack``, with its two end samples assembled here."""
    ends = tuple(assemble_stack([slice_at(spec, z) for z in (z_l, z_r)], spec)[0])
    return first_order_stack([(z_l, z_r, basis, ref_ops, ends)])[0]


def blocks_diff(s1: ScatteringMatrix, s2: ScatteringMatrix) -> float:
    """Max-norm of the blockwise difference, ignoring basis bookkeeping."""
    return max(
        max_abs(s1.T_LR - s2.T_LR),
        max_abs(s1.R_R - s2.R_R),
        max_abs(s1.R_L - s2.R_L),
        max_abs(s1.T_RL - s2.T_RL),
    )


def smat_scale(s: ScatteringMatrix) -> float:
    return max(max_abs(s.T_LR), max_abs(s.R_R), max_abs(s.R_L), max_abs(s.T_RL))
