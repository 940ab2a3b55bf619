"""Analytic oracles: each fact the pipeline must reproduce, asserted in one place.

Each public check compares a pipeline result against a value known in closed
form (vacuum spectra, two-interface slab formulas) or against an exact
identity (round trips, the star and projection identity elements, a constant
section's first-order terms). Together they pin every sign convention in the
operator assembly, the modal branch rule, the interface projection and the
composition order. A check returns ``(passed, detail)``. ``arcwa validate``
runs them all through ``run_checks``, and exactly one Tier-1 test asserts each,
so a fact has one set of parameters and one tolerance. The uniform-medium and
random scattering-matrix helpers are shared with the test suite.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import cascade, modal, operators, sections
from .geometry import MaterialRegion, PermittivitySlice, PiecewiseLinearProfile, Polarization, StructureSpec, slice_at
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


def uniform_basis(
    eps: complex, order: int = 0, wavelength: float = 1.55, polarization: Polarization = Polarization.TE
) -> modal.ModalBasis:
    """Modal basis of a uniform medium on the unit transverse period."""
    spec = uniform_spec(eps, 1.0, wavelength, polarization, order)
    return modal.eigen_basis_stack(operators.assemble_stack([uniform_slice(eps)], spec)[0])[0]


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
    vac_basis = uniform_basis(1.0, order, wavelength_um, polarization)
    slab_basis = uniform_basis(eps_slab, order, wavelength_um, polarization)

    vacuum = sections.zeroth_order_smatrix(vac_basis, 0.0, 0.0)
    s_slab = sections.zeroth_order_smatrix(slab_basis, 0.0, thickness_um)
    entered = cascade.join(vacuum, vac_basis, s_slab, slab_basis)
    smat = cascade.join(entered, slab_basis, vacuum, vac_basis)
    return ScatteringMatrixPorts(smat, vac_basis, vac_basis)


# ---------------------------------------------------------------------------
# The checks
# ---------------------------------------------------------------------------


def vacuum_te_spectrum() -> tuple[bool, str]:
    """TE vacuum at order 3: P = I exactly, and PQ = diag(1 - (m wavelength / period)^2) in entries and spectrum."""
    (ops,) = operators.assemble_stack([uniform_slice(1.0)], uniform_spec(1.0, 1.0, order=3))[0]
    expected = 1.0 - (np.arange(-3, 4) * 1.55) ** 2
    pq = ops.P @ ops.Q
    spectrum = np.sort(np.linalg.eigvals(pq).real)
    err = max(max_abs(pq - np.diag(expected)), max_abs(spectrum - np.sort(expected)))
    p_err = max_abs(ops.P - np.eye(len(expected)))
    detail = f"max |P - I| = {p_err:.2e}, must be 0; max PQ entry and eigenvalue deviation {err:.2e}, bound 1e-13"
    return p_err == 0.0 and err <= 1e-13, detail


def vacuum_tm_unit_index() -> tuple[bool, str]:
    """TM vacuum at order 0: P = Q = -1, so PQ = 1."""
    (ops,) = operators.assemble_stack([uniform_slice(1.0)], uniform_spec(1.0, 1.0, polarization=Polarization.TM))[0]
    err = max(abs(ops.P[0, 0] + 1.0), abs(ops.Q[0, 0] + 1.0), abs((ops.P @ ops.Q)[0, 0] - 1.0))
    return err <= 1e-14, f"max of |P + 1|, |Q + 1|, |PQ - 1| = {err:.2e}, bound 1e-14"


def slab_airy(polarization: Polarization) -> tuple[bool, str]:
    """Index-2 slab in vacuum, 1/2, 1/8 and 0.31 of a wavelength thick: all four S entries against the Airy formulas."""
    wavelength = 1.55
    worst = 0.0
    for fraction in (0.5, 0.125, 0.31):
        thickness = fraction * wavelength
        r_ref, t_ref = airy_slab_coefficients(2.0, thickness, wavelength)
        s = slab_sandwich_smatrix(4.0, thickness, wavelength, polarization).smat
        worst = max(
            worst,
            abs(s.T_LR[0, 0] - t_ref),
            abs(s.R_L[0, 0] - r_ref),
            abs(s.T_RL[0, 0] - t_ref),
            abs(s.R_R[0, 0] - r_ref),
        )
    return worst < 1e-10, f"max |S - analytic| = {worst:.2e}, bound 1e-10"


def mode_roundtrip() -> tuple[bool, str]:
    """Fields to mode amplitudes and back is the identity: 100 random draws per basis.

    Bases: uniform eps 2.25 at order 2 and eps 6.25 at order 3, TE and TM.
    """
    rng = np.random.default_rng(20240811)
    worst = 0.0
    for eps, order in ((2.25, 2), (6.25, 3)):
        for polarization in Polarization:
            basis = uniform_basis(eps, order, polarization=polarization)
            for _ in range(100):
                e, h = rng.standard_normal((2, basis.n)) + 1j * rng.standard_normal((2, basis.n))
                e2, h2 = modal.reconstruct_fields(modal.mode_coefficients(e, h, basis), basis)
                worst = max(worst, max_abs(e2 - e), max_abs(h2 - h))
    return worst < 1e-12, f"max round-trip residual {worst:.2e}, bound 1e-12"


def star_identity() -> tuple[bool, str]:
    """The identity S-matrix is a two-sided unit of the star product, at n = 4 and 5."""
    rng = np.random.default_rng(7)
    worst = 0.0
    for n in (4, 5):
        s = random_passive_smatrix(rng, n, 0, 0)
        ident = sections.identity_smatrix(n, 0)
        for product in (cascade.star(s, ident), cascade.star(ident, s)):
            worst = max(worst, max_norm_difference(product, s))
    return worst < 1e-12, f"max |S * I - S| = {worst:.2e}, bound 1e-12"


def projection_identity() -> tuple[bool, str]:
    """Identical bases project with X = I and Y = 0, and ``project_left`` with such a pair returns S unchanged.

    The pair is the one ``projection_pair`` computes for a uniform eps 2.25 basis at order 2, and an
    exact (I, 0) at n = 4 and 5.
    """
    basis = uniform_basis(2.25, order=2)
    x, y = cascade.projection_pair(basis, basis)
    worst = max(max_abs(x - np.eye(basis.n)), max_abs(y))
    exact = [(np.eye(n, dtype=np.complex128), np.zeros((n, n), dtype=np.complex128)) for n in (4, 5)]
    rng = np.random.default_rng(11)
    for pair in [(x, y), *exact]:
        s = random_passive_smatrix(rng, len(pair[0]), 0, 0)
        worst = max(worst, max_norm_difference(cascade.project_left(s, pair, 0), s))
    return worst <= 1e-14, f"identity-projection residual {worst:.2e}, bound 1e-14"


def constant_section_order_equivalence() -> tuple[bool, str]:
    """A section with no z-variation has exactly zero first-order terms: S1 = S0 and the estimate is 0.

    Sections: the README taper's core held at width 0.3 (TE and TM, orders 2 and 3), and a
    uniform eps 6.25 TE guide 0.8 um long at order 2. The reference basis sits at the midpoint.
    TM end samples hold their own P, equal to the reference P, so their dP is formed and is exact zeros.
    """
    center, width = (PiecewiseLinearProfile(((0.0, value), (1.0, value))) for value in (0.5, 0.3))
    core = MaterialRegion(12.25 + 0j, center, width)
    specs = [
        replace(uniform_spec(1.0, 1.0, polarization=polarization, order=order), regions=(core,))
        for polarization in Polarization
        for order in (2, 3)
    ]
    specs.append(uniform_spec(6.25, 0.8, order=2))
    worst = 0.0
    for spec in specs:
        ends = (spec.z_min, spec.z_max)
        ops, *end_ops = operators.assemble_stack([slice_at(spec, z) for z in (0.5 * sum(ends), *ends)], spec)[0]
        (basis,) = modal.eigen_basis_stack([ops])
        (first,) = sections.first_order_stack([(*ends, basis, ops, tuple(end_ops))])
        zeroth = sections.zeroth_order_smatrix(basis, *ends)
        worst = max(worst, max_norm_difference(first.smat, zeroth), first.est_error)
    return worst == 0.0, f"max of |S1 - S0| and the estimate over {len(specs)} sections {worst:.2e}, must be 0"


_CHECKS: dict[str, Callable[[], tuple[bool, str]]] = {
    "vacuum-te-spectrum": vacuum_te_spectrum,
    "vacuum-tm-unit-index": vacuum_tm_unit_index,
    "slab-airy-te": lambda: slab_airy(Polarization.TE),
    "slab-airy-tm": lambda: slab_airy(Polarization.TM),
    "mode-roundtrip": mode_roundtrip,
    "star-identity": star_identity,
    "projection-identity": projection_identity,
    "constant-section-order-equivalence": constant_section_order_equivalence,
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
