"""Cross-check the composed pipeline against a field-space transfer oracle.

The oracle propagates the raw field vector [e; h] with matrix exponentials
of the assembled operators, expm(j*k0*L*[[0, P], [Q, 0]]), multiplying one
exponential per staircase section; tangential continuity makes the field
vector itself continuous across interfaces. No modal decomposition, branch
rule, reprojection or star product is involved, so agreement validates the
entire production path (eigenbases, projections, Redheffer composition and
port normalization) end to end.

Transfer matrices grow exponentially with evanescent-mode decay lengths,
which is exactly why they are not the production path; spans here are kept
short enough that the oracle stays well-conditioned.
"""

import numpy as np
import pytest
from scipy.linalg import expm

from arcwa.geometry import Polarization, parse_structure, slice_at
from arcwa.numerics import max_abs
from arcwa.solver import port_bases, solve_uniform

from conftest import TAPER_DOC, assemble_operators


def transfer_oracle_smatrix(spec, n_sections):
    """Scattering matrix of the staircase approximation via transfer matrices.

    Uses the same midpoint reference slices as solve_uniform so both paths
    model the identical staircase; the propagation physics comes solely from expm.
    """
    n = spec.n_harmonics
    span = spec.z_max - spec.z_min
    total = np.eye(2 * n, dtype=np.complex128)
    for i in range(n_sections):
        z_l = spec.z_min + span * i / n_sections
        z_r = spec.z_min + span * (i + 1) / n_sections
        ops = assemble_operators(slice_at(spec, 0.5 * (z_l + z_r)), spec)
        zero = np.zeros((n, n), dtype=np.complex128)
        generator = 1j * spec.k0 * (z_r - z_l) * np.block([[zero, ops.P], [ops.Q, zero]])
        total = expm(generator) @ total

    left, right = port_bases(spec)
    # Solve for (a_R, b_L) columnwise: fields on the right must equal the
    # transferred left fields for each incident port mode.
    out_left = np.vstack([left.W, -left.V])
    in_left = np.vstack([left.W, left.V])
    out_right = np.vstack([right.W, right.V])
    system = np.hstack([-out_right, total @ out_left])
    t_lr = np.empty((n, n), dtype=np.complex128)
    r_l = np.empty((n, n), dtype=np.complex128)
    for k in range(n):
        a_l = np.zeros(n, dtype=np.complex128)
        a_l[k] = 1.0
        rhs = -total @ in_left @ a_l
        solution = np.linalg.solve(system, rhs)
        t_lr[:, k] = solution[:n]
        r_l[:, k] = solution[n:]
    return t_lr, r_l


@pytest.mark.parametrize("polarization", [Polarization.TE, Polarization.TM])
def test_staircase_matches_transfer_oracle(polarization):
    doc = TAPER_DOC.replace("TE", polarization.value).replace(
        "z_range_um: [0.0, 1.0]", "z_range_um: [0.0, 0.4]"
    ).replace("end: 0.37", "end: 0.304")
    spec = parse_structure(doc)
    report = solve_uniform(spec, 4, order=0)
    t_ref, r_ref = transfer_oracle_smatrix(spec, 4)
    assert max_abs(report.smat.T_LR - t_ref) <= 1e-6
    assert max_abs(report.smat.R_L - r_ref) <= 1e-6


def test_single_uniform_section_matches_transfer_oracle():
    doc = TAPER_DOC.replace(
        "{kind: linear, start: 0.26, end: 0.37}", "{kind: constant, value: 0.3}"
    ).replace("z_range_um: [0.0, 1.0]", "z_range_um: [0.0, 0.35]")
    spec = parse_structure(doc)
    report = solve_uniform(spec, 1, order=0)
    t_ref, r_ref = transfer_oracle_smatrix(spec, 1)
    assert max_abs(report.smat.T_LR - t_ref) <= 1e-8
    assert max_abs(report.smat.R_L - r_ref) <= 1e-8
