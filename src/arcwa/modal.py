"""Eigenmode bases of cross-section operators.

Diagonalizing P_r Q_r = W Lam^2 W^-1 at a reference position yields the
electric-field basis W, effective indices lam (square roots of the
eigenvalues) and the magnetic basis V = Q_r W Lam^-1. Field vectors map to
forward/backward coefficients through

    a = W^-1 e + V^-1 h,    b = W^-1 e - V^-1 h.

The square-root branch is fixed to Im(lam) >= 0, with Re(lam) > 0 on the
real axis. That choice makes every propagation factor exp(j*lam*k0*dz)
have magnitude <= 1 for dz >= 0, so cascaded sections can never amplify.

Lossless dielectric cross-sections are diagonalized by numpy's Hermitian
eigensolver ``eigh``, one call per stack. In TE, P is the identity and Q
is Hermitian: ``eigh(Q)`` gives a unitary Y, so W^-1 and V^-1 follow from
Y^H. In TM, P and Q are Hermitian and B = -Q is positive definite: with
the Cholesky factor B = L L^H, P Q is similar to the Hermitian
C = -L^H P L, and Y = L^-H Z for the eigenvectors Z of C solves the pencil
(-Q P Q, B) with Y^H B Y = I, so W^-1 = D^-1 Y^H B for W = Y D. Either way
lam^2 is real and no inverse needs a factorization. Every other pair
(lossy, indefinite or non-finite) goes through the general ``geev``
eigensolver, one call per stack, and guarded explicit inverses. Both
routes normalize columns alike (unit 2-norm, largest entry real) and
share the branch, the ordering, the cutoff check and the conditioning
limit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import (
    CutoffModeError,
    EigendecompositionError,
    NearDefectiveBasisError,
)
from .numerics import COND_LIMIT, as_stack, guard_inverses, guarded_inverses, per_item
from .operators import OperatorPair

# Effective indices below this magnitude count as cutoff modes.
LAMBDA_CUTOFF = 1e-8


@dataclass(frozen=True)
class ModalBasis:
    """Eigenbasis of P_r Q_r at one reference position.

    ``basis_id`` hashes the bytes of W, V and lam (``dataclasses.replace``
    recomputes it): within one process equal content means an equal id and
    any bitwise difference a different one. Ids differ between processes
    (``PYTHONHASHSEED``). Inverses are precomputed because every downstream
    product needs them.
    """

    W: np.ndarray
    V: np.ndarray
    lam: np.ndarray
    z_ref: float
    basis_id: int = field(init=False)
    k0: float
    W_inv: np.ndarray
    V_inv: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "basis_id", hash((self.W.tobytes(), self.V.tobytes(), self.lam.tobytes())))

    @property
    def n(self) -> int:
        return int(self.W.shape[0])


@dataclass(frozen=True)
class WaveState:
    """Forward/backward coefficients of a field in one modal basis."""

    a: np.ndarray
    b: np.ndarray
    basis_id: int


# Relative asymmetry max|A - A^H| / max|A| up to which an operator counts
# as Hermitian.
_HERMITIAN_RTOL = 1e-12

# Threshold, relative to the spectrum scale max|lam^2|, below which the
# off-axis part |Im(lam^2)| / 2 of an eigenvalue lam^2 is floating-point
# dust from a mathematically real one.
_AXIS_SNAP_RTOL = 1e-14


def _principal_branch(lam: np.ndarray) -> np.ndarray:
    """Square roots on the Im >= 0 (then Re > 0) branch, per row of the last axis.

    Mathematically real eigenvalues lam^2 come out of ``geev`` with
    imaginary dust whose sign is arbitrary and whose size follows the
    whole spectrum, not the eigenvalue itself. Flipping on that sign would
    put propagating modes on the backward branch and misorder evanescent
    ones, so a root whose |Re lam| |Im lam| = |Im(lam^2)| / 2 is negligible
    against max|lam^2| is first snapped onto the nearer of the real and
    imaginary axes (for the largest roots, a test against their own
    magnitude). The Hermitian route's eigenvalues are real, so its roots
    already sit on an axis and pass through unchanged.
    """
    re, im = np.abs(lam.real), np.abs(lam.imag)
    on_axis = re * im <= _AXIS_SNAP_RTOL * np.abs(lam).max(axis=-1, keepdims=True) ** 2
    # Off the axes Im(lam) != 0, so its sign alone picks the branch.
    return np.where(on_axis, np.where(re >= im, re, 1j * im), np.where(lam.imag < 0.0, -lam, lam))


def _near_defective(name: str, z: float):
    """Error factory for a basis matrix ``name`` that fails the conditioning guard."""
    return lambda cond: NearDefectiveBasisError(
        f"near-defective eigenbasis at z = {z:g}: cond({name}) = {cond:.3e} exceeds {COND_LIMIT:.0e}"
    )


def _is_hermitian(a: np.ndarray) -> np.ndarray:
    """Per matrix of a stack: finite and Hermitian, max|A - A^H| <= _HERMITIAN_RTOL max|A|."""
    with np.errstate(invalid="ignore"):
        scale = np.abs(a).max(axis=(-2, -1))
        asym = np.abs(a - a.conj().swapaxes(-2, -1)).max(axis=(-2, -1))
    return np.isfinite(scale) & (asym <= _HERMITIAN_RTOL * scale)


# The pairs of one Hermitian route: their indices in the stack, lam^2, Y and B.
_Route = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]


def _hermitian_eig(q: np.ndarray, p: np.ndarray) -> list[_Route]:
    """Eigenvalues lam^2 and eigenvectors Y of P Q from a Hermitian solver, plus B, per route.

    ``q`` and ``p`` stack the Q and P of the operator pairs. TE pairs (P
    exactly I, Q Hermitian) take ``eigh(Q)``, with unitary Y and no B. TM
    pairs (P and Q Hermitian, B = -Q positive definite) are reduced with
    the Cholesky factor B = L L^H: P Q = L^-H C L^H for the Hermitian
    C = -L^H P L, so ``eigh(C)`` gives Z and Y = L^-H Z, with Y^H B Y = I.
    Every step is one call per route for the whole stack, and the
    Hermitian tests are computed for the whole stack too. Returns one
    route per solver that has pairs: a pair that is not Hermitian, whose B
    is not positive definite or whose solver does not converge is in none
    and takes ``geev``.
    """
    hermitian = _is_hermitian(q)
    te = hermitian & (p == np.eye(q.shape[-1])).all(axis=(-2, -1))
    tm = hermitian & ~te
    if tm.any():
        tm[tm] = _is_hermitian(p[tm])
    routes = []
    for solve, mask in ((_te_eig, te), (_tm_eig, tm)):
        index = np.flatnonzero(mask)
        if index.size:
            solved, result, _ = per_item(solve, q[index], p[index])
            if solved.size:
                routes.append((index[solved], *result))
    return routes


def _te_eig(q: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray, None]:
    """lam^2 and Y of a stack of TE pairs."""
    mu, y = np.linalg.eigh(q, UPLO="U")
    return mu, y, None


def _tm_eig(q: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """lam^2, Y and B of a stack of TM pairs."""
    b = -q
    lower = np.linalg.cholesky(b)
    upper = lower.conj().swapaxes(-2, -1)
    mu, z = np.linalg.eigh(-(upper @ p @ lower))
    return mu, np.linalg.solve(upper, z), b


def _hermitian_basis(
    y: np.ndarray, lam: np.ndarray, b: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """W, W^-1, V and V^-1 from ordered eigenvectors Y of ``_hermitian_eig``, stacked.

    ``y`` is shaped (slices, n, n) with every slice column-major, so each
    column norm is summed over contiguous memory exactly as for a single
    matrix; ``lam`` is (slices, n) and ``b``
    (slices, n, n) or None. W = Y D scales each column to unit 2-norm with
    its largest entry real, as ``geev`` normalizes. With B = I in TE,
    W^-1 = D^-1 Y^H B = G (B W)^H and D^-1 Y^H = G W^H, where G = |D|^-2
    holds the squared column norms of Y. V = Q W Lam^-1 is then W Lam (TE)
    or -B W Lam^-1 (TM), and V^-1 is Lam^-1 W^-1 (TE) or -Lam G W^H (TM).
    """
    stack, n = lam.shape
    rows, cols = np.arange(stack)[:, None], np.arange(n)
    mag2 = (y * y.conj()).real
    peak = np.argmax(mag2, axis=1)
    g = mag2.sum(axis=1)
    w = y * (y[rows, peak, cols].conj() / np.sqrt(mag2.max(axis=1) * g))[:, None, :]
    w[rows, peak, cols] = w[rows, peak, cols].real
    w_h = w.conj().transpose(0, 2, 1)
    if b is None:
        w_inv = w_h * g[:, :, None]
        return w, w_inv, w * lam[:, None, :], w_inv / lam[:, :, None]
    bw = b @ w
    return w, bw.conj().transpose(0, 2, 1) * g[:, :, None], bw / -lam[:, None, :], w_h * (-lam * g)[:, :, None]


def eigen_basis_stack(stack: Sequence[OperatorPair]) -> list[ModalBasis]:
    """Diagonalize P Q and build the modal basis at ops.z, for several operator pairs of one size.

    Hermitian operator pairs (lossless dielectrics, see the module
    docstring) take the Hermitian solver and get their inverses from the
    eigenvectors; every other pair takes ``geev`` and two guarded
    inverses. Eigenvalues are ordered by descending Re(lam), ties broken
    by ascending Im(lam), so identical operator pairs always produce the
    same basis (up to the eigensolver's own determinism). Each basis
    equals the one built in a stack of one, bit for bit, and owns its
    arrays. Each route solves all its pairs in one call per step: the
    ``geev`` pairs take one ``geev`` call, then one ``guarded_inverses``
    call for every W and one for every V. The branch, the ordering and the
    basis matrices are computed for the whole stack.

    Raises ValueError when a ``geev`` pair's product P Q has a non-finite
    entry, EigendecompositionError when ``geev`` fails on a pair,
    CutoffModeError when an effective index sits below LAMBDA_CUTOFF and
    NearDefectiveBasisError when cond(W) or cond(V) exceeds the shared
    conditioning limit, on either route. Errors are raised stage by stage:
    the ``geev`` eigensolver (the first failing pair in stack order), the
    cutoff checks in stack order, then each route's guards, every W of the
    route followed by every V, Hermitian routes first. For a single pair
    that is: eigensolver, cutoff, cond(W), cond(V).
    """
    if not stack:
        return []
    size, n = len(stack), stack[0].n
    q = as_stack([ops.Q for ops in stack])
    p = as_stack([ops.P for ops in stack])
    routes = _hermitian_eig(q, p)
    eigvals = np.empty((size, n), dtype=np.complex128)
    geev = np.ones(size, dtype=bool)
    for index, mu, _, _ in routes:
        eigvals[index] = mu
        geev[index] = False
    geev = np.flatnonzero(geev)
    if geev.size:
        pq = p[geev] @ q[geev]
        solved, result, error = per_item(np.linalg.eig, pq)
        if error is not None:
            first = np.setdiff1d(np.arange(geev.size), solved)[0]
            if not np.all(np.isfinite(pq[first])):
                raise ValueError("operator product contains non-finite entries")
            raise EigendecompositionError(f"eigensolver failed on a {n}x{n} operator: {error}") from error
        eigvals[geev], eigvecs = result

    lam = _principal_branch(np.sqrt(eigvals))
    order = np.lexsort((lam.imag, -lam.real), axis=-1)
    lam = lam[np.arange(size)[:, None], order]

    small = np.abs(lam) < LAMBDA_CUTOFF
    for ops, lam_i, small_i in zip(stack, lam, small) if small.any() else ():
        if small_i.any():
            worst = lam_i[small_i][np.argmin(np.abs(lam_i[small_i]))]
            raise CutoffModeError(
                f"mode at cutoff: |lambda| = {abs(worst):.3e} < {LAMBDA_CUTOFF:.0e} at z = {ops.z:g}; "
                "add a small material loss (e.g. Im(eps) ~ 1e-6) to move the mode off cutoff"
            )

    # W, V, W^-1 and V^-1 of each route, stacked; the guards screen every W of a route, then every V.
    built = []
    for index, _, y, b in routes:
        # Columns in mode order, each slice column-major (rows of Y^T are the columns of Y), as
        # ``_hermitian_basis`` expects.
        y = y.swapaxes(-2, -1)[np.arange(index.size)[:, None], order[index]].swapaxes(-2, -1)
        w, w_inv, v, v_inv = _hermitian_basis(y, lam[index], b)
        guard_inverses(w, w_inv, [_near_defective("W", stack[i].z) for i in index])
        guard_inverses(v, v_inv, [_near_defective("V", stack[i].z) for i in index])
        built.append((index, w, v, w_inv, v_inv))
    if geev.size:
        w = np.take_along_axis(eigvecs, order[geev][:, None, :], axis=-1)
        w_inv = guarded_inverses(w, [_near_defective("W", stack[i].z) for i in geev])
        v = q[geev] @ (w / lam[geev][:, None, :])
        built.append((geev, w, v, w_inv, guarded_inverses(v, [_near_defective("V", stack[i].z) for i in geev])))

    bases: list[ModalBasis] = [None] * size  # type: ignore[list-item]
    for index, *arrays in built:
        for k, i in enumerate(index):
            # Copies, in the same memory order: a view would keep the whole stack alive with this basis.
            w_k, v_k, w_inv_k, v_inv_k = (np.copy(a[k]) for a in arrays)
            ops = stack[i]
            bases[i] = ModalBasis(
                W=w_k, V=v_k, lam=np.copy(lam[i]), z_ref=ops.z, k0=ops.k0, W_inv=w_inv_k, V_inv=v_inv_k
            )
    return bases


def mode_coefficients(e: np.ndarray, h: np.ndarray, basis: ModalBasis) -> WaveState:
    """Split a transverse field pair into forward/backward coefficients."""
    if e.shape != (basis.n,) or h.shape != (basis.n,):
        raise ValueError(f"field vectors must have shape ({basis.n},), got {e.shape} and {h.shape}")
    we = basis.W_inv @ e
    vh = basis.V_inv @ h
    return WaveState(a=we + vh, b=we - vh, basis_id=basis.basis_id)


def reconstruct_fields(state: WaveState, basis: ModalBasis) -> tuple[np.ndarray, np.ndarray]:
    """Invert mode_coefficients: e = W (a+b)/2, h = V (a-b)/2."""
    if state.basis_id != basis.basis_id:
        raise ValueError(f"state basis {state.basis_id} does not match basis {basis.basis_id}")
    if state.a.shape != (basis.n,) or state.b.shape != (basis.n,):
        raise ValueError(f"coefficient vectors must have shape ({basis.n},)")
    e = basis.W @ (state.a + state.b) / 2.0
    h = basis.V @ (state.a - state.b) / 2.0
    return e, h


def propagation_factor(basis: ModalBasis, dz: float) -> np.ndarray:
    """Diagonal of the propagation operator over dz: exp(j * lam * k0 * dz).

    Returned as a 1-D array of the diagonal entries. The branch rule
    guarantees every entry has magnitude <= 1 for dz >= 0.
    """
    if dz < 0.0:
        raise ValueError(f"dz must be >= 0, got {dz:g}")
    return np.exp(1j * basis.lam * basis.k0 * dz)
