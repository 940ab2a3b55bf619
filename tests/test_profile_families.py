"""Profile shapes beyond the linear taper, at unit and solver level.

Mirrors the validation families of the geometry model: exponential ramps,
sinusoidal side variation and piecewise-linear outlines, each solved
adaptively against its own high-resolution cascade. The piecewise case has
profile kinks, which the adaptive solve cuts its roots at and refines
around.
"""

import math

import pytest

from arcwa import cli
from arcwa.geometry import parse_structure
from arcwa.harness import max_norm_difference
from arcwa.solver import SolverConfig, solve_adaptive, solve_uniform

from conftest import TAPER_DOC

EXPONENTIAL_PROFILE = """{kind: exponential, start: 0.26, end: 0.37, rate: 2.0}"""
SINUSOIDAL_PROFILE = """{kind: sinusoidal, mean: 0.3, amplitude: 0.05, period_z: 0.7}"""
PIECEWISE_PROFILE = (
    """{kind: piecewise_linear, points: [[0.0, 0.26], [0.35, 0.33], [0.7, 0.29], [1.0, 0.37]]}"""
)


def family_spec(profile: str):
    return parse_structure(
        TAPER_DOC.replace("{kind: linear, start: 0.26, end: 0.37}", profile)
    )


def test_exponential_profile_values():
    spec = family_spec(EXPONENTIAL_PROFILE)
    width = spec.regions[0].width
    assert width.at(0.0) == pytest.approx(0.26, abs=1e-15)
    assert width.at(1.0) == pytest.approx(0.37, abs=1e-15)
    expected_mid = 0.26 + 0.11 * math.expm1(1.0) / math.expm1(2.0)
    assert width.at(0.5) == pytest.approx(expected_mid, abs=1e-15)
    lo, hi = width.bounds()
    assert (lo, hi) == (0.26, 0.37)


@pytest.mark.parametrize("rate", [2.0, 700.0, 800.0, 2000.0, -2.0, -800.0])
def test_steep_exponential_profile_stays_finite_and_monotone(rate):
    """Large positive rates used to overflow ``exp``; every rate keeps exact ends and a monotone ramp."""
    width = family_spec(f"{{kind: exponential, start: 0.26, end: 0.37, rate: {rate}}}").regions[0].width
    assert (width.at(0.0), width.at(1.0)) == (0.26, 0.37)
    values = [width.at(i / 4096) for i in range(4097)]
    assert all(a <= b for a, b in zip(values, values[1:]))
    assert 0.26 <= min(values) and max(values) <= 0.37


@pytest.mark.parametrize("rate", [5.0e-324, -1.0e-310])
def test_subnormal_exponential_rate_exit2_naming_the_key(tmp_path, capsys, rate):
    """expm1(rate * t) underflows for a subnormal rate, and the ramp would become a step."""
    path = tmp_path / "subnormal.spec"
    path.write_text(TAPER_DOC.replace(
        "{kind: linear, start: 0.26, end: 0.37}", f"{{kind: exponential, start: 0.2, end: 0.4, rate: {rate!r}}}"
    ))
    assert cli.main(["solve", "--structure", str(path), "--alpha", "1e-2"]) == 2
    assert "regions[0].profile.rate" in capsys.readouterr().err


@pytest.mark.parametrize("rate", [800.0, 2000.0])
def test_steep_exponential_profile_solves_from_the_cli(tmp_path, capsys, rate):
    path = tmp_path / "steep.spec"
    path.write_text(TAPER_DOC.replace(
        "{kind: linear, start: 0.26, end: 0.37}", f"{{kind: exponential, start: 0.26, end: 0.37, rate: {rate}}}"
    ))
    assert cli.main(["solve", "--structure", str(path), "--alpha", "1e-2", "--out", str(tmp_path / "s.csv")]) == 0
    assert "sections:" in capsys.readouterr().out


def test_piecewise_profile_values_and_clamping():
    spec = family_spec(PIECEWISE_PROFILE)
    width = spec.regions[0].width
    assert width.at(0.0) == pytest.approx(0.26)
    assert width.at(0.35) == pytest.approx(0.33)
    assert width.at(0.525) == pytest.approx((0.33 + 0.29) / 2.0, abs=1e-14)
    assert width.at(1.0) == pytest.approx(0.37)
    assert width.bounds() == (0.26, 0.37)


def test_sinusoidal_bounds_cover_full_cycle():
    spec = family_spec(SINUSOIDAL_PROFILE)
    lo, hi = spec.regions[0].width.bounds()
    assert lo == pytest.approx(0.25)
    assert hi == pytest.approx(0.35)


# Profiles that take one value at z_min, at the midpoint and at z_max of a 1 um span: one whole sinusoid
# period, and a piecewise-linear bump up and down again.
COMMENSURATE_PROFILES = {
    "one-period-sinusoid": "{kind: sinusoidal, mean: 0.3, amplitude: 0.05, period_z: 1.0}",
    "bump": "{kind: piecewise_linear, points: [[0, 0.3], [0.25, 0.4], [0.5, 0.3], [0.75, 0.2], [1, 0.3]]}",
}


@pytest.mark.parametrize("polarization", ["TE", "TM"])
@pytest.mark.parametrize("profile", COMMENSURATE_PROFILES.values(), ids=COMMENSURATE_PROFILES.keys())
def test_seeded_roots_close_the_sampling_blind_spot(profile, polarization):
    """A section sees the cross-section only at its two ends and midpoint. Over the whole span these show one
    cross-section, so a single root would estimate 0.0 and be accepted; the roots cut at every third of the
    period and at every breakpoint see the variation, and the solve meets alpha."""
    spec = parse_structure(
        TAPER_DOC.replace("{kind: linear, start: 0.26, end: 0.37}", profile).replace(
            "polarization: TE", f"polarization: {polarization}"
        )
    )
    alpha = 1e-3
    report = solve_adaptive(spec, SolverConfig(alpha=alpha))
    assert len(report.sections) > 3
    assert max_norm_difference(report.smat, solve_uniform(spec, 1024, order=1).smat) <= alpha


@pytest.mark.parametrize(
    "profile",
    [EXPONENTIAL_PROFILE, SINUSOIDAL_PROFILE, PIECEWISE_PROFILE],
    ids=["exponential", "sinusoidal", "piecewise"],
)
def test_adaptive_bound_across_profile_families(profile):
    spec = family_spec(profile)
    oracle = solve_uniform(spec, 256, order=0)
    alpha = 1e-2
    report = solve_adaptive(spec, SolverConfig(alpha=alpha))
    assert max_norm_difference(report.smat, oracle.smat) <= alpha
    assert all(est < alpha for _, _, est in report.sections)


def test_piecewise_refinement_concentrates_at_kinks():
    spec = family_spec(PIECEWISE_PROFILE)
    report = solve_adaptive(spec, SolverConfig(alpha=3e-3))
    # Finer sections appear than a uniform split at this alpha would need,
    # and the tiling still closes exactly.
    lengths = [z_r - z_l for z_l, z_r, _ in report.sections]
    assert min(lengths) < max(lengths)
    assert sum(lengths) == pytest.approx(1.0, abs=1e-12)
