"""Structure parsing and slicing."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arcwa.errors import SpecSemanticError, SpecSyntaxError
from arcwa.geometry import (
    PiecewiseLinearProfile,
    Polarization,
    parse_structure,
    slice_at,
)

from conftest import CONSTANT_DOC, TAPER_DOC

MINIMAL_DOC = """
wavelength_um: 1.0
polarization: TM
period_x_um: 2.0
z_range_um: [0.0, 0.5]
truncation_order: 0
background_eps: [1.0, 0.0]
regions:
  - eps: [2.25, 0.0]
    center_x: 1.0
    profile: {kind: constant, value: 0.5}
"""


def test_parse_minimal_document():
    spec = parse_structure(MINIMAL_DOC)
    assert len(spec.regions) == 1
    assert spec.polarization is Polarization.TM
    assert spec.truncation_order == 0
    assert spec.background_eps == 1.0 + 0.0j
    assert spec.regions[0].width == PiecewiseLinearProfile(((0.0, 0.5), (0.5, 0.5)))
    assert spec.regions[0].center == PiecewiseLinearProfile(((0.0, 1.0), (0.5, 1.0)))
    assert spec.k0 == pytest.approx(2.0 * math.pi)


def test_parse_linear_taper_widths():
    spec = parse_structure(TAPER_DOC)
    region = spec.regions[0]
    assert region.width.at(0.0) == pytest.approx(0.26, abs=1e-15)
    assert region.width.at(1.0) == pytest.approx(0.37, abs=1e-15)
    assert region.width.at(0.5) == pytest.approx((0.26 + 0.37) / 2.0, abs=1e-15)
    assert region.eps == 12.25 + 0.0j


def test_linear_profile_is_exactly_end_at_z_max():
    """A linear profile is the two-point profile through (z_min, start) and (z_max, end)."""
    spec = parse_structure(TAPER_DOC.replace("start: 0.26, end: 0.37", "start: 0.9, end: 0.03"))
    width = spec.regions[0].width
    assert width == PiecewiseLinearProfile(((0.0, 0.9), (1.0, 0.03)))
    assert (width.at(0.0), width.at(1.0)) == (0.9, 0.03)
    assert width.bounds() == (0.03, 0.9)


def test_negative_width_rejected():
    doc = MINIMAL_DOC.replace(
        "{kind: constant, value: 0.5}", "{kind: linear, start: 0.5, end: -0.1}"
    )
    with pytest.raises(SpecSemanticError, match="width"):
        parse_structure(doc)


def test_region_leaving_domain_rejected():
    doc = MINIMAL_DOC.replace("center_x: 1.0", "center_x: 1.9")
    with pytest.raises(SpecSemanticError, match="domain"):
        parse_structure(doc)


def test_unknown_profile_kind_rejected():
    doc = MINIMAL_DOC.replace("kind: constant", "kind: parabolic")
    with pytest.raises(SpecSemanticError, match="parabolic"):
        parse_structure(doc)


def test_syntax_error_reports_position():
    with pytest.raises(SpecSyntaxError, match="line"):
        parse_structure("wavelength_um: 1.0\npolarization: [unclosed")


def test_missing_and_unknown_keys_rejected():
    with pytest.raises(SpecSemanticError, match="missing"):
        parse_structure("wavelength_um: 1.0")
    with pytest.raises(SpecSemanticError, match="unknown"):
        parse_structure(MINIMAL_DOC + "\nextra_key: 1\n")


def test_gain_medium_rejected():
    doc = MINIMAL_DOC.replace("eps: [2.25, 0.0]", "eps: [2.25, -0.1]")
    with pytest.raises(SpecSemanticError, match="passive"):
        parse_structure(doc)


def test_zero_eps_rejected_for_tm_only():
    with pytest.raises(SpecSemanticError, match=r"regions\[0\]\.eps must be nonzero for TM"):
        parse_structure(MINIMAL_DOC.replace("eps: [2.25, 0.0]", "eps: [0.0, 0.0]"))
    with pytest.raises(SpecSemanticError, match="background_eps must be nonzero for TM"):
        parse_structure(MINIMAL_DOC.replace("background_eps: [1.0, 0.0]", "background_eps: [0.0, 0.0]"))
    te = MINIMAL_DOC.replace("polarization: TM", "polarization: TE")
    assert parse_structure(te.replace("eps: [2.25, 0.0]", "eps: [0.0, 0.0]")).regions[0].eps == 0


def test_piecewise_breakpoints_must_increase():
    doc = MINIMAL_DOC.replace(
        "{kind: constant, value: 0.5}",
        "{kind: piecewise_linear, points: [[0.0, 0.3], [0.4, 0.2], [0.4, 0.5]]}",
    )
    with pytest.raises(SpecSemanticError, match="increasing"):
        parse_structure(doc)


@pytest.mark.parametrize(
    "points",
    ["[[-1.0, -0.5], [0.0, 0.2], [1.0, 0.3]]", "[[0.0, 0.2], [1.0, 0.3], [2.0, 1.5]]"],
    ids=["negative-before-z_min", "wide-after-z_max"],
)
def test_piecewise_bounds_ignore_breakpoints_outside_z_range(points):
    # The width stays in [0.2, 0.3] on z in [0, 1]; values beyond the range never reach a slice.
    doc = TAPER_DOC.replace("{kind: linear, start: 0.26, end: 0.37}", f"{{kind: piecewise_linear, points: {points}}}")
    width = parse_structure(doc).regions[0].width
    assert width.bounds() == pytest.approx((0.2, 0.3), abs=1e-15)


@settings(max_examples=200, deadline=None)
@example(points=[(-1.0, -0.5), (0.0, 0.2), (1.0, 0.3)])
@given(
    points=st.lists(
        st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)), min_size=2, max_size=6, unique_by=lambda p: p[0]
    ).map(sorted)
)
def test_piecewise_profile_returns_every_breakpoint_value_exactly(points):
    profile = PiecewiseLinearProfile(tuple(points))
    assert [profile.at(z) for z, _ in points] == [value for _, value in points]


def test_constant_profile_slices_identical():
    spec = parse_structure(CONSTANT_DOC)
    s1 = slice_at(spec, 0.1)
    s2 = slice_at(spec, 0.9)
    assert s1.intervals == s2.intervals


def test_linear_taper_midpoint_width_is_mean():
    spec = parse_structure(TAPER_DOC)
    mid = slice_at(spec, 0.5)
    core = [iv for iv in mid.intervals if iv[2] == 12.25 + 0j]
    assert len(core) == 1
    x0, x1, _ = core[0]
    assert x1 - x0 == pytest.approx((0.26 + 0.37) / 2.0, abs=1e-14)


def test_sinusoidal_quarter_period_width():
    doc = MINIMAL_DOC.replace(
        "{kind: constant, value: 0.5}",
        "{kind: sinusoidal, mean: 0.5, amplitude: 0.2, period_z: 0.4}",
    )
    spec = parse_structure(doc)
    # Closed form: width(z_min + period_z/4) = mean + amplitude.
    slc = slice_at(spec, 0.1)
    core = [iv for iv in slc.intervals if iv[2] == 2.25 + 0j][0]
    assert core[1] - core[0] == pytest.approx(0.7, abs=1e-14)


def test_slice_out_of_range():
    spec = parse_structure(MINIMAL_DOC)
    with pytest.raises(ValueError, match="outside"):
        slice_at(spec, 0.6)


def test_slice_covers_domain_exactly():
    spec = parse_structure(TAPER_DOC)
    for z in (0.0, 0.37, 1.0):
        slc = slice_at(spec, z)
        assert slc.intervals[0][0] == 0.0
        assert slc.intervals[-1][1] == spec.period_x_um
        for (_, e0, _), (s1, _, _) in zip(slc.intervals, slc.intervals[1:]):
            assert e0 == s1


def test_overlap_last_region_wins():
    doc = MINIMAL_DOC.replace(
        "regions:",
        "regions:\n  - eps: [9.0, 0.0]\n    center_x: 1.0\n    profile: {kind: constant, value: 1.2}",
    )
    spec = parse_structure(doc)
    assert len(spec.regions) == 2
    slc = slice_at(spec, 0.2)
    # Inner (later) region overwrites the middle of the wide first region.
    values = [iv[2] for iv in slc.intervals]
    assert values == [1.0 + 0j, 9.0 + 0j, 2.25 + 0j, 9.0 + 0j, 1.0 + 0j]


def test_zero_width_region_leaves_background():
    doc = MINIMAL_DOC.replace("{kind: constant, value: 0.5}", "{kind: constant, value: 0.0}")
    spec = parse_structure(doc)
    slc = slice_at(spec, 0.25)
    assert slc.intervals == ((0.0, 2.0, 1.0 + 0j),)


def test_slice_continuity_in_z():
    spec = parse_structure(TAPER_DOC)
    z0 = 0.4
    base = slice_at(spec, z0)
    previous = None
    for delta in (1e-3, 1e-5, 1e-7):
        moved = slice_at(spec, z0 + delta)
        assert len(moved.intervals) == len(base.intervals)
        displacement = max(
            max(abs(a[0] - b[0]), abs(a[1] - b[1]))
            for a, b in zip(base.intervals, moved.intervals)
        )
        if previous is not None:
            assert displacement < previous
        previous = displacement
    assert previous < 1e-6


def test_json_document_accepted():
    doc = (
        '{"wavelength_um": 1.0, "polarization": "TE", "period_x_um": 1.0,'
        ' "z_range_um": [0.0, 1.0], "truncation_order": 1, "background_eps": [1.0, 0.0],'
        ' "regions": [{"eps": [4.0, 0.0], "center_x": 0.5, "profile": {"kind": "constant", "value": 0.25}}]}'
    )
    spec = parse_structure(doc)
    assert spec.n_harmonics == 3


@pytest.mark.parametrize("text, value", [("1e-6", 1e-6), ("2E5", 2e5), ("1.0e300", 1e300), (".5e3", 500.0)])
def test_exponent_numbers_parse_as_floats(text, value):
    """JSON and YAML 1.2 exponent forms are numbers in both kinds of document; a quoted one stays a string."""
    yaml_doc = TAPER_DOC.replace("eps: [12.25, 0.0]", f"eps: [12.25, {text}]")
    assert parse_structure(yaml_doc).regions[0].eps == complex(12.25, value)
    json_doc = (
        '{"wavelength_um": 1.0, "polarization": "TE", "period_x_um": 1.0,'
        ' "z_range_um": [0.0, 1.0], "truncation_order": 1, "background_eps": [1.0, %s],'
        ' "regions": [{"eps": [4.0, 0.0], "center_x": 0.5, "profile": {"kind": "constant", "value": 0.25}}]}'
    )
    assert parse_structure(json_doc % text).background_eps == complex(1.0, value)
    with pytest.raises(SpecSemanticError, match="must be a real number"):
        parse_structure(json_doc % f'"{text}"')


def test_varying_center_profile():
    doc = MINIMAL_DOC.replace(
        "center_x: 1.0",
        "center_x: {kind: linear, start: 0.8, end: 1.2}",
    )
    spec = parse_structure(doc)
    s0 = slice_at(spec, 0.0)
    s1 = slice_at(spec, 0.5)
    c0 = [iv for iv in s0.intervals if iv[2] == 2.25 + 0j][0]
    c1 = [iv for iv in s1.intervals if iv[2] == 2.25 + 0j][0]
    assert (c0[0] + c0[1]) / 2.0 == pytest.approx(0.8, abs=1e-14)
    assert (c1[0] + c1[1]) / 2.0 == pytest.approx(1.2, abs=1e-14)



def sinusoid(mean, period_z):
    return f"{{kind: sinusoidal, mean: {mean}, amplitude: 0.05, period_z: {period_z}}}"


# (center_x, width profile, width profile of a second region centered at 0.5 or None, period_z).
PERIOD_Z_CASES = {
    "constant-center-sinusoidal-width": ("0.5", sinusoid(0.3, 0.7), None, 0.7),
    "sinusoidal-center-and-width": (sinusoid(0.5, 1.0), sinusoid(0.3, 1.0), None, 1.0),
    "two-regions-one-period": ("0.5", sinusoid(0.3, 0.7), sinusoid(0.1, 0.7), 0.7),
    "two-periods": ("0.5", sinusoid(0.3, 0.7), sinusoid(0.1, 0.9), None),
    "linear-width": ("0.5", "{kind: linear, start: 0.26, end: 0.37}", None, None),
    "exponential-width": ("0.5", "{kind: exponential, start: 0.26, end: 0.37, rate: 2.0}", None, None),
    "piecewise-width": ("0.5", "{kind: piecewise_linear, points: [[0, 0.3], [0.5, 0.4], [1, 0.3]]}", None, None),
    "linear-center": ("{kind: linear, start: 0.45, end: 0.55}", sinusoid(0.3, 0.7), None, None),
    "constant": ("0.5", "{kind: constant, value: 0.3}", None, None),
}


@pytest.mark.parametrize("center, width, second_width, period_z", PERIOD_Z_CASES.values(), ids=PERIOD_Z_CASES.keys())
def test_period_z_is_the_one_period_of_every_varying_profile(center, width, second_width, period_z):
    """Constant profiles do not count; any varying profile that is not a sinusoid of the shared period does."""
    doc = TAPER_DOC.replace("center_x: 0.5", f"center_x: {center}").replace(
        "{kind: linear, start: 0.26, end: 0.37}", width
    )
    if second_width is not None:
        doc += f"  - eps: [4.0, 0.0]\n    center_x: 0.5\n    profile: {second_width}\n"
    assert parse_structure(doc).period_z == period_z
