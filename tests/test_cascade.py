"""Interface reprojection and Redheffer composition."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from arcwa import cascade
from arcwa.cascade import join, join_stack, project_left, projection_pair, star
from arcwa.checks import slab_sandwich_smatrix
from arcwa.errors import BasisMismatchError, ProjectionBreakdownError, ResonanceError
from arcwa.geometry import Polarization
from arcwa.modal import ModalBasis
from arcwa.numerics import max_abs
from arcwa.sections import ScatteringMatrix, zeroth_order_smatrix

from conftest import (
    blocks_diff,
    random_basis,
    random_join_pair,
    random_passive_smatrix,
    smat_scale,
    two_step_join,
    uniform_basis,
)


def continuity_residual(b_from, b_to, pp, rng):
    """Residual of the tangential continuity equations under the X/Y map."""
    n = b_from.n
    a_old = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    b_old = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    x, y = pp
    a_new = x @ a_old + y @ b_old
    b_new = y @ a_old + x @ b_old
    r1 = b_to.W @ (a_new + b_new) - b_from.W @ (a_old + b_old)
    r2 = b_to.V @ (a_new - b_new) - b_from.V @ (a_old - b_old)
    return max(max_abs(r1), max_abs(r2))


def test_projection_scaled_w():
    base = uniform_basis(2.25, order=1)
    from dataclasses import replace

    doubled = replace(
        base,
        W=2.0 * base.W,
        W_inv=base.W_inv / 2.0,
    )
    # V_{i-1} = V_i, W_{i-1} = 2 W_i: X = 3/2 I, Y = 1/2 I.
    x, y = projection_pair(doubled, base)
    assert_allclose(x, 1.5 * np.eye(base.n), atol=1e-12)
    assert_allclose(y, 0.5 * np.eye(base.n), atol=1e-12)


def test_projection_continuity_oracle(rng):
    for _ in range(10):
        b_from = random_basis(rng, 4)
        b_to = random_basis(rng, 4)
        pp = projection_pair(b_from, b_to)
        assert continuity_residual(b_from, b_to, pp, rng) <= 1e-10


def test_project_left_zero_reflection_case(rng):
    n = 3
    b_from = random_basis(rng, n)
    b_to = random_basis(rng, n)
    pp = projection_pair(b_from, b_to)
    t = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    zero = np.zeros((n, n), dtype=np.complex128)
    s = ScatteringMatrix(t.copy(), zero, zero.copy(), t.copy(), b_to.basis_id, b_to.basis_id)
    projected = project_left(s, pp, b_from.basis_id)
    x, y = pp
    x_inv = np.linalg.inv(x)
    assert_allclose(projected.R_L, -x_inv @ y, atol=1e-11)
    assert_allclose(projected.T_RL, x_inv @ t, atol=1e-11)


def test_project_left_against_block_solve_oracle(rng):
    """Projected S must reproduce the continuity-augmented direct solve."""
    n = 4
    for _ in range(10):
        b_prev = random_basis(rng, n)
        b_cur = random_basis(rng, n)
        s = random_passive_smatrix(rng, n, b_cur.basis_id, b_cur.basis_id)
        pp = projection_pair(b_prev, b_cur)
        projected = project_left(s, pp, b_prev.basis_id)

        a_old = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        b_right = rng.standard_normal(n) + 1j * rng.standard_normal(n)

        # Unknowns: a_L, b_L (current basis), b_old (previous basis, outgoing).
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

        assert max_abs(projected.R_L @ a_old + projected.T_RL @ b_right - b_old) <= 1e-9
        assert max_abs(projected.T_LR @ a_old + projected.R_R @ b_right - a_r) <= 1e-9


def test_star_uniform_semigroup():
    basis = uniform_basis(6.25, order=2)
    s1 = zeroth_order_smatrix(basis, 0.0, 0.35)
    s2 = zeroth_order_smatrix(basis, 0.35, 1.0)
    full = zeroth_order_smatrix(basis, 0.0, 1.0)
    assert blocks_diff(star(s1, s2), full) <= 1e-12


def test_star_associativity(rng):
    for _ in range(20):
        s1 = random_passive_smatrix(rng, 4, 1, 2)
        s2 = random_passive_smatrix(rng, 4, 2, 3)
        s3 = random_passive_smatrix(rng, 4, 3, 4)
        left = star(star(s1, s2), s3)
        right = star(s1, star(s2, s3))
        assert blocks_diff(left, right) <= 1e-10


def test_star_rejects_mismatched_bases(rng):
    s1 = random_passive_smatrix(rng, 3, 1, 2)
    s2 = random_passive_smatrix(rng, 3, 3, 4)
    with pytest.raises(BasisMismatchError, match="basis"):
        star(s1, s2)


def unit_basis(n):
    """W = V = I exactly, so a pair of these projects with X = I and Y = 0 exactly."""
    eye = np.eye(n, dtype=np.complex128)
    return ModalBasis(W=eye, V=eye.copy(), lam=np.ones(n, dtype=np.complex128), z_ref=0.0, k0=1.0,
                      W_inv=eye.copy(), V_inv=eye.copy())


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8))
def test_join_matches_projection_then_star(seed, n):
    rng = np.random.default_rng(seed)
    left_basis, right_basis = random_basis(rng, n), random_basis(rng, n)
    left = random_passive_smatrix(rng, n, 1, left_basis.basis_id)
    right = random_passive_smatrix(rng, n, right_basis.basis_id, 2)
    expected = two_step_join(left, left_basis, right, right_basis)
    joined = join(left, left_basis, right, right_basis)
    # The reprojected blocks grow with the interface's conditioning; compare relative to them.
    assert blocks_diff(joined, expected) <= 1e-12 * max(1.0, smat_scale(expected))
    assert (joined.left_basis_id, joined.right_basis_id) == (1, 2)


def with_singular_projection(rng, left_basis, right, right_basis):
    """``right`` with R_L chosen so that X - R_L Y = u v^T, of rank 1 < n."""
    x, y = projection_pair(left_basis, right_basis)
    u, v = rng.standard_normal((2, right.n, 1)) + 1j * rng.standard_normal((2, right.n, 1))
    r_l = (x - u @ v.T) @ np.linalg.inv(y)
    return replace(right, R_L=r_l)


def test_join_refuses_a_singular_projection_like_the_two_step_recipe(rng):
    """No left reflection: the fused matrix is X - R_L Y itself."""
    n = 4
    left_basis, right_basis = random_basis(rng, n), random_basis(rng, n)
    left = random_passive_smatrix(rng, n, 1, left_basis.basis_id)
    left = replace(left, R_R=np.zeros((n, n), dtype=np.complex128))
    right = random_passive_smatrix(rng, n, right_basis.basis_id, 2)
    right = with_singular_projection(rng, left_basis, right, right_basis)
    with pytest.raises(ProjectionBreakdownError) as expected:
        two_step_join(left, left_basis, right, right_basis)
    with pytest.raises(ProjectionBreakdownError) as refused:
        join(left, left_basis, right, right_basis)
    assert str(refused.value) == str(expected.value)


def test_a_refused_pair_raises_from_inside_a_stack_as_alone(rng):
    """The singular projection of the test above, between two regular pairs: the stack raises its error."""
    n = 4
    left_basis, right_basis = random_basis(rng, n), random_basis(rng, n)
    left = random_passive_smatrix(rng, n, 1, left_basis.basis_id)
    left = replace(left, R_R=np.zeros((n, n), dtype=np.complex128))
    right = random_passive_smatrix(rng, n, right_basis.basis_id, 2)
    singular = (left, left_basis, with_singular_projection(rng, left_basis, right, right_basis), right_basis)
    with pytest.raises(ProjectionBreakdownError) as alone:
        join(*singular)
    with pytest.raises(ProjectionBreakdownError) as stacked:
        join_stack([random_join_pair(rng, n), singular, random_join_pair(rng, n)])
    assert str(stacked.value) == str(alone.value)


def refused_but_composable_pair(rng, n):
    """A pair whose fused system L = (X - R_L Y)(I - R_L^p R_R') has condition number 1e14, while the two-step
    recipe's matrices X - R_L Y, I - R_R' R_L^p and I - R_L^p R_R' have about 1e7 each.

    The right basis is the unit one, so the left basis' W = X + Y and V = X - Y realize any X and Y. X and Y
    are solved for from R_L, X - R_L Y = A and R_L^p = P (unitary / 2): Y - R_L X = -A P. R_R' = P^-1 (I - M)
    makes I - R_L^p R_R' = M, and M's smallest output direction is A's smallest input direction.
    """

    def unitary():
        return np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]

    u, w, v, p, r_l = unitary(), unitary(), unitary(), 0.5 * unitary(), 0.5 * unitary()
    spread = np.diag([1.0] * (n - 1) + [1e-7])
    a, m = u @ spread @ w.conj().T, w @ spread @ v.conj().T
    y = np.linalg.solve(r_l @ r_l - np.eye(n), a @ p - r_l @ a)
    x = r_l @ y + a
    left_basis = ModalBasis(W=x + y, V=x - y, lam=np.ones(n, dtype=np.complex128), z_ref=0.0, k0=1.0,
                            W_inv=np.linalg.inv(x + y), V_inv=np.linalg.inv(x - y))
    right_basis = unit_basis(n)
    left = replace(random_passive_smatrix(rng, n, 1, left_basis.basis_id), R_R=np.linalg.solve(p, np.eye(n) - m))
    right = replace(random_passive_smatrix(rng, n, right_basis.basis_id, 2), R_L=r_l)
    return left, left_basis, right, right_basis


def test_a_refused_pair_takes_the_two_step_recipe_alone(rng, monkeypatch):
    """Inside a stack, only the pair whose fused system the guard refuses is reprojected; every entry is what
    its stack of one gives, bit for bit, and the refused one is the two-step recipe's result."""
    n = 4
    pairs = [random_join_pair(rng, n), refused_but_composable_pair(rng, n), random_join_pair(rng, n)]
    projected = []
    project_left = cascade.project_left

    def recording(smat, pp, new_left_basis_id):
        projected.append(smat)
        return project_left(smat, pp, new_left_basis_id)

    monkeypatch.setattr(cascade, "project_left", recording)
    stacked = join_stack(pairs)
    assert len(projected) == 1 and projected[0] is pairs[1][2]
    for pair, joined in zip(pairs, stacked):
        (single,) = join_stack([pair])
        for block in ("T_LR", "R_R", "R_L", "T_RL"):
            assert np.array_equal(getattr(joined, block), getattr(single, block))
    expected = two_step_join(*pairs[1])
    assert blocks_diff(stacked[1], expected) <= 1e-12 * max(1.0, smat_scale(expected))


def test_join_composes_where_the_reprojection_alone_breaks_down(rng):
    """A singular X - R_L Y, but the left matrix reflects: the pair is well posed."""
    n = 4
    left_basis, right_basis = random_basis(rng, n), random_basis(rng, n)
    left = random_passive_smatrix(rng, n, 1, left_basis.basis_id)
    right = random_passive_smatrix(rng, n, right_basis.basis_id, 2)
    right = with_singular_projection(rng, left_basis, right, right_basis)
    with pytest.raises(ProjectionBreakdownError):
        two_step_join(left, left_basis, right, right_basis)
    joined = join(left, left_basis, right, right_basis)

    # Direct solve for the waves at the plane: a', b' in basis i-1 and a, b in basis i.
    a_l = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    b_r = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    x, y = projection_pair(left_basis, right_basis)
    eye = np.eye(n, dtype=np.complex128)
    zero = np.zeros((n, n), dtype=np.complex128)
    system = np.block(
        [
            [eye, -left.R_R, zero, zero],
            [x, y, -eye, zero],
            [y, x, zero, -eye],
            [zero, zero, right.R_L, -eye],
        ]
    )
    rhs = np.concatenate([left.T_LR @ a_l, np.zeros(2 * n), -right.T_RL @ b_r])
    _, b_old, a_new, _ = np.split(np.linalg.solve(system, rhs), 4)
    assert max_abs(joined.T_LR @ a_l + joined.R_R @ b_r - (right.T_LR @ a_new + right.R_R @ b_r)) <= 1e-9
    assert max_abs(joined.R_L @ a_l + joined.T_RL @ b_r - (left.R_L @ a_l + left.T_RL @ b_old)) <= 1e-9


def test_join_refuses_a_resonance_like_the_two_step_recipe(rng):
    """Reflections that bounce one mode back unattenuated: I - R_R R_L is singular."""
    n = 3
    basis = unit_basis(n)
    left = replace(random_passive_smatrix(rng, n, 1, basis.basis_id), R_R=np.diag([1.0, 0.3, 0.2]).astype(complex))
    right = replace(random_passive_smatrix(rng, n, basis.basis_id, 2), R_L=np.diag([1.0, -0.1, 0.4]).astype(complex))
    with pytest.raises(ResonanceError) as expected:
        two_step_join(left, basis, right, basis)
    with pytest.raises(ResonanceError) as refused:
        join(left, basis, right, basis)
    assert str(refused.value) == str(expected.value)


def test_join_rejects_mismatched_bases(rng):
    left_basis, right_basis = random_basis(rng, 3), random_basis(rng, 3)
    left = random_passive_smatrix(rng, 3, 1, right_basis.basis_id)
    right = random_passive_smatrix(rng, 3, right_basis.basis_id, 2)
    with pytest.raises(BasisMismatchError, match="basis") as expected:
        two_step_join(left, left_basis, right, right_basis)
    with pytest.raises(BasisMismatchError) as refused:
        join(left, left_basis, right, right_basis)
    assert str(refused.value) == str(expected.value)


@pytest.mark.parametrize("at", [0, 1, 2])
def test_join_stack_rejects_mismatched_bases_on_any_entry(rng, at):
    pairs = [random_join_pair(rng, 3) for _ in range(3)]
    left, left_basis, right, right_basis = pairs[at]
    pairs[at] = (left, random_basis(rng, 3), right, right_basis)
    with pytest.raises(BasisMismatchError) as alone:
        join(*pairs[at])
    with pytest.raises(BasisMismatchError) as stacked:
        join_stack(pairs)
    assert str(stacked.value) == str(alone.value)


def test_single_interface_fresnel():
    """Two uniform media composed: Fresnel coefficients with phase factors."""
    n1, n2 = 1.5, 3.0
    l1, l2 = 0.23, 0.41
    wavelength = 1.55
    k0 = 2.0 * np.pi / wavelength
    basis1 = uniform_basis(n1**2, wavelength=wavelength)
    basis2 = uniform_basis(n2**2, wavelength=wavelength)
    s1 = zeroth_order_smatrix(basis1, 0.0, l1)
    s2 = zeroth_order_smatrix(basis2, l1, l1 + l2)
    projected = project_left(s2, projection_pair(basis1, basis2), basis1.basis_id)
    total = star(s1, projected)

    r12 = (n1 - n2) / (n1 + n2)
    t12 = 2.0 * n1 / (n1 + n2)
    t21 = 2.0 * n2 / (n1 + n2)
    phase = np.exp(1j * k0 * (n1 * l1 + n2 * l2))
    assert total.T_LR[0, 0] == pytest.approx(t12 * phase, abs=1e-12)
    assert total.T_RL[0, 0] == pytest.approx(t21 * phase, abs=1e-12)
    assert total.R_L[0, 0] == pytest.approx(r12 * np.exp(2j * k0 * n1 * l1), abs=1e-12)
    assert total.R_R[0, 0] == pytest.approx(-r12 * np.exp(2j * k0 * n2 * l2), abs=1e-12)


def test_slab_flux_conservation_with_truncation():
    result = slab_sandwich_smatrix(4.0, 0.71, 1.55, Polarization.TE, order=4)
    s = result.smat
    # The eigenvalue ordering puts the single propagating vacuum mode first.
    lam = result.left_basis.lam
    assert lam[0] == pytest.approx(1.0, abs=1e-12)
    assert np.all(lam[1:].real < 1e-12)
    power = abs(s.T_LR[0, 0]) ** 2 + abs(s.R_L[0, 0]) ** 2
    assert power == pytest.approx(1.0, abs=1e-6)
