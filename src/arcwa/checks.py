"""Built-in analytic oracles for the `validate` command.

Each check compares a pipeline result against a value known in closed form
(vacuum spectra, two-interface slab formulas) or against an exact identity
(round trips, the star identity element). Together they pin every sign
convention in the operator assembly, the modal branch rule, the interface
projection and the composition order. The uniform-medium and random
scattering-matrix helpers are shared with the test suite.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import cascade, modal, operators, sections
from .geometry import PermittivitySlice, Polarization, StructureSpec
from .harness import max_norm_difference
from .numerics import max_abs


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def airy_slab_coefficients(n_slab: complex, thickness_um: float, wavelength_um: float) -> tuple[complex, complex]:
    """Closed-form reflection/transmission of vacuum | slab | vacuum.

    Amplitude convention: forward fields go as exp(+j n k0 z); t is the
    field ratio across the slab span (no vacuum padding), r the reflected
    amplitude at the entry plane.
    """
    k0 = 2.0 * np.pi / wavelength_um
    beta = n_slab * k0 * thickness_um
    r12 = (1.0 - n_slab) / (1.0 + n_slab)
    r23 = -r12
    t12 = 2.0 / (1.0 + n_slab)
    t23 = 2.0 * n_slab / (1.0 + n_slab)
    phase = cmath.exp(1j * beta)
    denom = 1.0 + r12 * r23 * phase**2
    return (r12 + r23 * phase**2) / denom, t12 * t23 * phase / denom


def uniform_spec(
    eps: complex, thickness: float, wavelength: float = 1.55, polarization: Polarization = Polarization.TE, order: int = 0
) -> StructureSpec:
    """Minimal spec for a uniform medium (background only, no regions)."""
    return StructureSpec(
        wavelength_um=wavelength,
        polarization=polarization,
        period_x_um=1.0,
        z_min=0.0,
        z_max=thickness,
        truncation_order=order,
        background_eps=complex(eps),
        regions=(),
    )


def uniform_slice(eps: complex, z: float = 0.0) -> PermittivitySlice:
    """Cross-section of a uniform medium on the unit transverse period."""
    return PermittivitySlice(z=z, intervals=((0.0, 1.0, complex(eps)),))


def uniform_basis(eps: complex, spec: StructureSpec) -> modal.ModalBasis:
    """Modal basis of a uniform medium, assembled for ``spec``."""
    return modal.eigen_basis_stack(operators.assemble_stack([uniform_slice(eps)], spec))[0]


def random_passive_smatrix(rng: np.random.Generator, n: int, left_id: int, right_id: int) -> sections.ScatteringMatrix:
    """Random scattering matrix with spectral norm of R blocks bounded away from resonance."""

    def block(scale: float) -> np.ndarray:
        raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        return scale * raw / np.linalg.norm(raw, 2)

    return sections.ScatteringMatrix(block(0.9), block(0.3), block(0.3), block(0.9), left_id, right_id)


@dataclass(frozen=True)
class ScatteringMatrixPorts:
    """A scattering matrix together with the bases its sides live in."""

    smat: sections.ScatteringMatrix
    left_basis: modal.ModalBasis
    right_basis: modal.ModalBasis


def slab_sandwich_smatrix(
    eps_slab: complex,
    thickness_um: float,
    wavelength_um: float,
    polarization: Polarization,
    order: int = 0,
) -> ScatteringMatrixPorts:
    """Scattering matrix of a uniform slab between semi-infinite vacuum ports.

    Built the way a solve normalizes to its ports: an identity in the
    vacuum basis, joined with the slab's diagonal propagation matrix and
    then with a second vacuum identity (two ``cascade.join`` calls).
    Returns the matrix together with the two port bases so callers can
    identify modes.
    """
    spec = uniform_spec(eps_slab, thickness_um, wavelength_um, polarization, order)
    vac_basis = uniform_basis(1.0, spec)
    slab_basis = uniform_basis(eps_slab, spec)

    vacuum = sections.zeroth_order_smatrix(vac_basis, 0.0, 0.0)
    s_slab = sections.zeroth_order_smatrix(slab_basis, 0.0, thickness_um)
    entered = cascade.join(vacuum, vac_basis, s_slab, slab_basis)
    smat = cascade.join(entered, slab_basis, vacuum, vac_basis)
    return ScatteringMatrixPorts(smat, vac_basis, vac_basis)


# ---------------------------------------------------------------------------
# Individual checks
# ---------------------------------------------------------------------------


def _check_vacuum_te_spectrum() -> tuple[bool, str]:
    spec = uniform_spec(1.0, 1.0, order=3)
    (ops,) = operators.assemble_stack([uniform_slice(1.0)], spec)
    m = np.arange(-3, 4)
    expected = np.sort(1.0 - (m * 1.55) ** 2)
    got = np.sort(np.linalg.eigvals(ops.P @ ops.Q).real)
    err = float(np.max(np.abs(got - expected)))
    return err < 1e-10, f"max eigenvalue deviation {err:.2e}"


def _check_vacuum_tm_unit_index() -> tuple[bool, str]:
    spec = uniform_spec(1.0, 1.0, polarization=Polarization.TM)
    (ops,) = operators.assemble_stack([uniform_slice(1.0)], spec)
    err = abs((ops.P @ ops.Q)[0, 0] - 1.0)
    return err < 1e-12, f"|PQ - 1| = {err:.2e}"


def _check_slab_airy(polarization: Polarization) -> tuple[bool, str]:
    wavelength = 1.55
    worst = 0.0
    for thickness in (wavelength / 2.0, wavelength / 8.0):
        r_ref, t_ref = airy_slab_coefficients(2.0, thickness, wavelength)
        result = slab_sandwich_smatrix(4.0, thickness, wavelength, polarization)
        s = result.smat
        worst = max(
            worst,
            abs(s.T_LR[0, 0] - t_ref),
            abs(s.R_L[0, 0] - r_ref),
            abs(s.T_RL[0, 0] - t_ref),
            abs(s.R_R[0, 0] - r_ref),
        )
    return worst < 1e-10, f"max |S - analytic| = {worst:.2e}"


def _check_mode_roundtrip() -> tuple[bool, str]:
    rng = np.random.default_rng(20240811)
    basis = uniform_basis(2.25, uniform_spec(2.25, 1.0, order=2))
    worst = 0.0
    for _ in range(20):
        e = rng.standard_normal(basis.n) + 1j * rng.standard_normal(basis.n)
        h = rng.standard_normal(basis.n) + 1j * rng.standard_normal(basis.n)
        state = modal.mode_coefficients(e, h, basis)
        e2, h2 = modal.reconstruct_fields(state, basis)
        worst = max(worst, max_abs(e2 - e), max_abs(h2 - h))
    return worst < 1e-12, f"max round-trip residual {worst:.2e}"


def _check_star_identity() -> tuple[bool, str]:
    rng = np.random.default_rng(7)
    n = 5
    s = random_passive_smatrix(rng, n, 0, 0)
    ident = sections.identity_smatrix(n, 0)
    left = cascade.star(s, ident)
    right = cascade.star(ident, s)
    worst = max(max_norm_difference(left, s), max_norm_difference(right, s))
    return worst < 1e-12, f"max |S * I - S| = {worst:.2e}"


def _check_projection_identity() -> tuple[bool, str]:
    basis = uniform_basis(2.25, uniform_spec(2.25, 1.0, order=2))
    x, y = cascade.projection_pair(basis, basis)
    err = max(max_abs(x - np.eye(basis.n)), max_abs(y))
    rng = np.random.default_rng(11)
    s = random_passive_smatrix(rng, basis.n, basis.basis_id, basis.basis_id)
    projected = cascade.project_left(s, (x, y), basis.basis_id)
    err = max(err, max_norm_difference(projected, s))
    return err < 1e-12, f"identity-projection residual {err:.2e}"


def _check_constant_section_orders() -> tuple[bool, str]:
    spec = uniform_spec(6.25, 0.8, order=2)
    ops, *ends = operators.assemble_stack([uniform_slice(6.25, z=z) for z in (0.4, 0.0, 0.8)], spec)
    (basis,) = modal.eigen_basis_stack([ops])
    (first,) = sections.first_order_stack([(0.0, 0.8, basis, ops, tuple(ends))])
    zeroth = sections.zeroth_order_smatrix(basis, 0.0, 0.8)
    worst = max(max_norm_difference(first.smat, zeroth), first.est_error)
    return worst < 1e-12, f"order-0/order-1 gap {worst:.2e}"


_CHECKS: dict[str, Callable[[], tuple[bool, str]]] = {
    "vacuum-te-spectrum": _check_vacuum_te_spectrum,
    "vacuum-tm-unit-index": _check_vacuum_tm_unit_index,
    "slab-airy-te": lambda: _check_slab_airy(Polarization.TE),
    "slab-airy-tm": lambda: _check_slab_airy(Polarization.TM),
    "mode-roundtrip": _check_mode_roundtrip,
    "star-identity": _check_star_identity,
    "projection-identity": _check_projection_identity,
    "constant-section-order-equivalence": _check_constant_section_orders,
}


def check_names() -> list[str]:
    return list(_CHECKS)


def run_checks() -> list[CheckResult]:
    """Run every built-in check; a crash counts as a failure of that check."""
    results = []
    for name, fn in _CHECKS.items():
        try:
            passed, detail = fn()
        except Exception as exc:  # noqa: BLE001 - report, don't abort the suite
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append(CheckResult(name=name, passed=passed, detail=detail))
    return results
