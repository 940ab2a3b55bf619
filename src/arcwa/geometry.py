"""Structure descriptions: parametric permittivity profiles on a periodic line.

A structure is a stack of material regions living on a transverse periodic
domain [0, period_x_um]. Each region is an interval whose center and width
may vary along the propagation axis z through one of three profile classes:
piecewise-linear (the ``constant`` and ``linear`` kinds are two-point
piecewise-linear profiles over the z range), exponential and sinusoidal.
``slice_at`` evaluates the stack at one z into an exact piecewise-constant
permittivity slice, which downstream code turns into Fourier coefficients
in closed form.

Structure documents are YAML (JSON works too, being a YAML subset) with the
normative top-level keys ``wavelength_um``, ``polarization``, ``period_x_um``,
``z_range_um``, ``truncation_order``, ``background_eps`` and ``regions``.
"""

from __future__ import annotations

import enum
import math
import re
import sys
from dataclasses import dataclass
from typing import Union

import yaml

from .errors import SpecSemanticError, SpecSyntaxError

# Tolerance used when checking that region extents stay inside the domain;
# scaled by the domain size where applied.
_GEOM_RTOL = 1e-12

# Longest z span, in wavelengths, that a document may ask for. Adaptive leaves grow about 3.3x per
# decade of span (the README taper at alpha = 1e-2), so 1e6 wavelengths already take some 2e4 leaves.
_MAX_SPAN_WAVELENGTHS = 1e6


class Polarization(enum.Enum):
    TE = "TE"
    TM = "TM"


# ---------------------------------------------------------------------------
# Profiles: scalar functions of z with exact range bounds.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExponentialProfile:
    """Exponential ramp between ``start`` and ``end``.

    value(t) = start + (end - start) * expm1(rate*t) / expm1(rate) with
    t in [0, 1]; monotone for any rate != 0, so range bounds are the
    endpoint values. For rate > 0 the ramp is evaluated in the equal form
    exp(rate*(t-1)) * expm1(-rate*t) / expm1(-rate), which cannot overflow.
    """

    start: float
    end: float
    rate: float
    z_start: float
    z_end: float

    def at(self, z: float) -> float:
        t = (z - self.z_start) / (self.z_end - self.z_start)
        t = min(max(t, 0.0), 1.0)
        rate = self.rate
        if rate > 0.0:
            ramp = math.exp(rate * (t - 1.0)) * math.expm1(-rate * t) / math.expm1(-rate)
        else:
            ramp = math.expm1(rate * t) / math.expm1(rate)
        return self.start + (self.end - self.start) * ramp

    def bounds(self) -> tuple[float, float]:
        return (min(self.start, self.end), max(self.start, self.end))


@dataclass(frozen=True)
class SinusoidalProfile:
    """mean + amplitude * sin(2*pi*(z - z_start)/period_z + phase)."""

    mean: float
    amplitude: float
    period_z: float
    phase: float
    z_start: float
    z_end: float

    def at(self, z: float) -> float:
        arg = 2.0 * math.pi * (z - self.z_start) / self.period_z + self.phase
        return self.mean + self.amplitude * math.sin(arg)

    def bounds(self) -> tuple[float, float]:
        span = self.z_end - self.z_start
        if span >= self.period_z:
            lo, hi = self.mean - abs(self.amplitude), self.mean + abs(self.amplitude)
            return (lo, hi)
        # Shorter than one period: check endpoints plus interior extrema,
        # which sit where the sine argument crosses pi/2 + k*pi.
        candidates = [self.at(self.z_start), self.at(self.z_end)]
        k_lo = math.floor((self.phase - math.pi / 2.0) / math.pi)
        k_hi = math.ceil((2.0 * math.pi * span / self.period_z + self.phase) / math.pi)
        for k in range(k_lo, k_hi + 1):
            arg = math.pi / 2.0 + k * math.pi
            z = self.z_start + (arg - self.phase) * self.period_z / (2.0 * math.pi)
            if self.z_start <= z <= self.z_end:
                candidates.append(self.at(z))
        return (min(candidates), max(candidates))


@dataclass(frozen=True)
class PiecewiseLinearProfile:
    """Linear interpolation through (z, value) breakpoints, clamped outside.

    The ``constant`` and ``linear`` kinds are two-point profiles through
    (z_min, start) and (z_max, end), with start = end for a constant.
    ``bounds`` covers z in [z_start, z_end], by default every z.
    """

    points: tuple[tuple[float, float], ...]
    z_start: float = -math.inf
    z_end: float = math.inf

    def at(self, z: float) -> float:
        pts = self.points
        if z <= pts[0][0]:
            return pts[0][1]
        if z >= pts[-1][0]:
            return pts[-1][1]
        # A breakpoint starts its segment, where t = 0 returns its own value exactly.
        for (z0, v0), (z1, v1) in zip(pts, pts[1:]):
            if z < z1:
                t = (z - z0) / (z1 - z0)
                return v0 + (v1 - v0) * t
        return pts[-1][1]

    def bounds(self) -> tuple[float, float]:
        inside = [v for z, v in self.points if self.z_start < z < self.z_end]
        values = [self.at(self.z_start), self.at(self.z_end), *inside]
        return (min(values), max(values))


Profile = Union[ExponentialProfile, SinusoidalProfile, PiecewiseLinearProfile]


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MaterialRegion:
    """One material interval: eps over [center - width/2, center + width/2]."""

    eps: complex
    center: Profile
    width: Profile


@dataclass(frozen=True)
class StructureSpec:
    """Validated description of a full problem.

    Immutable (and hashable) after construction; ``slice_at`` is pure, so a
    spec can be shared freely between threads.
    """

    wavelength_um: float
    polarization: Polarization
    period_x_um: float
    z_min: float
    z_max: float
    truncation_order: int
    background_eps: complex
    regions: tuple[MaterialRegion, ...]

    @property
    def k0(self) -> float:
        """Vacuum wavenumber, rad/um."""
        return 2.0 * math.pi / self.wavelength_um

    @property
    def n_harmonics(self) -> int:
        return 2 * self.truncation_order + 1

    @property
    def mirror_x_um(self) -> float | None:
        """The x that every slice is mirror-symmetric about, or None.

        That is the one center of every region when each center profile is
        constant (its bounds coincide) and no region reaches past an edge of
        the period, where ``slice_at`` would clip it. Read from the profiles'
        bounds, in O(regions); a spec without regions has none.
        """
        centers = {region.center.bounds() for region in self.regions}
        if len(centers) != 1:
            return None
        ((x0, hi),) = centers
        reach = max(region.width.bounds()[1] for region in self.regions) / 2.0
        return x0 if x0 == hi and x0 - reach >= 0.0 and x0 + reach <= self.period_x_um else None

    @property
    def period_z(self) -> float | None:
        """The z period that every slice repeats with, or None.

        That is the one ``period_z`` of the center and width profiles when
        every profile that is not constant (its bounds coincide) is
        sinusoidal and they share it. Read from the profiles, in
        O(regions); a spec whose profiles are all constant has none.
        """
        varying = [p for region in self.regions for p in (region.center, region.width) if len(set(p.bounds())) > 1]
        periods = {p.period_z if isinstance(p, SinusoidalProfile) else None for p in varying}
        return periods.pop() if len(periods) == 1 else None


@dataclass(frozen=True)
class PermittivitySlice:
    """Exact piecewise-constant eps(x) at one z.

    ``intervals`` are (x_start, x_end, eps), disjoint, sorted, and covering
    the spec's transverse period [0, period_x_um] exactly once.
    """

    z: float
    intervals: tuple[tuple[float, float, complex], ...]


# ---------------------------------------------------------------------------
# Document parsing
# ---------------------------------------------------------------------------

_TOP_KEYS = {
    "wavelength_um",
    "polarization",
    "period_x_um",
    "z_range_um",
    "truncation_order",
    "background_eps",
    "regions",
}

_PROFILE_PARAMS = {
    "constant": {"value"},
    "linear": {"start", "end"},
    "exponential": {"start", "end", "rate"},
    "sinusoidal": {"mean", "amplitude", "period_z", "phase"},
    "piecewise_linear": {"points"},
}


class _Loader(yaml.SafeLoader):
    """``yaml.SafeLoader`` that also reads the JSON and YAML 1.2 floats YAML 1.1 leaves as strings.

    YAML 1.1 wants a dot and a signed exponent (``1.0e+6``); JSON and
    YAML 1.2 also write ``1e-6``, ``2E5`` and ``1.0e300``. Quoted scalars
    stay strings.
    """


_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?)[eE][-+]?[0-9]+$"),
    list("-+.0123456789"),
)


def _semantic(msg: str) -> SpecSemanticError:
    return SpecSemanticError(msg)


def _as_float(value, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _semantic(f"{what} must be a real number, got {value!r}")
    # NaN fails the comparison; so do infinities and ints too large for a float.
    if not abs(value) <= sys.float_info.max:
        raise _semantic(f"{what} must be finite, got {value!r}")
    return float(value)


def _as_complex(value, what: str) -> complex:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return complex(_as_float(value, what))
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(_as_float(value[0], what), _as_float(value[1], what))
    raise _semantic(f"{what} must be a number or a [re, im] pair, got {value!r}")


def _parse_profile(node, z_min: float, z_max: float, what: str) -> Profile:
    if isinstance(node, (int, float)) and not isinstance(node, bool):
        value = _as_float(node, what)
        return PiecewiseLinearProfile(((z_min, value), (z_max, value)))
    if not isinstance(node, dict):
        raise _semantic(f"{what} must be a number or a profile mapping, got {node!r}")
    kind = node.get("kind")
    if kind not in _PROFILE_PARAMS:
        raise _semantic(f"{what}: unknown profile kind {kind!r}; expected one of {sorted(_PROFILE_PARAMS)}")
    params = {k: v for k, v in node.items() if k != "kind"}
    unknown = set(params) - _PROFILE_PARAMS[kind]
    if unknown:
        raise _semantic(f"{what}: unknown parameter(s) {sorted(unknown)} for {kind} profile")

    def need(name):
        if name not in params:
            raise _semantic(f"{what}: {kind} profile requires parameter '{name}'")
        return params[name]

    if kind == "constant":
        value = _as_float(need("value"), f"{what}.value")
        return PiecewiseLinearProfile(((z_min, value), (z_max, value)))
    if kind == "linear":
        start = _as_float(need("start"), f"{what}.start")
        end = _as_float(need("end"), f"{what}.end")
        return PiecewiseLinearProfile(((z_min, start), (z_max, end)))
    if kind == "exponential":
        rate = _as_float(params.get("rate", 1.0), f"{what}.rate")
        if rate == 0.0:
            raise _semantic(f"{what}: exponential profile rate must be nonzero")
        # A subnormal rate underflows expm1(rate * t) and turns the ramp into a step.
        if abs(rate) < sys.float_info.min:
            raise _semantic(f"{what}.rate = {rate!r} is subnormal; |rate| must be at least {sys.float_info.min!r}")
        return ExponentialProfile(
            _as_float(need("start"), f"{what}.start"),
            _as_float(need("end"), f"{what}.end"),
            rate,
            z_min,
            z_max,
        )
    if kind == "sinusoidal":
        period_z = _as_float(need("period_z"), f"{what}.period_z")
        if period_z <= 0.0:
            raise _semantic(f"{what}: sinusoidal period_z must be positive")
        return SinusoidalProfile(
            _as_float(need("mean"), f"{what}.mean"),
            _as_float(need("amplitude"), f"{what}.amplitude"),
            period_z,
            _as_float(params.get("phase", 0.0), f"{what}.phase"),
            z_min,
            z_max,
        )
    # piecewise_linear
    raw = need("points")
    if not isinstance(raw, (list, tuple)) or len(raw) < 2:
        raise _semantic(f"{what}: piecewise_linear needs at least two [z, value] points")
    points = []
    for i, item in enumerate(raw):
        if not isinstance(item, (list, tuple)) or len(item) != 2:
            raise _semantic(f"{what}: point {i} must be a [z, value] pair, got {item!r}")
        points.append((_as_float(item[0], f"{what}.points[{i}].z"), _as_float(item[1], f"{what}.points[{i}].value")))
    for (za, _), (zb, _) in zip(points, points[1:]):
        if not zb > za:
            raise _semantic(f"{what}: piecewise_linear breakpoints must be strictly increasing in z")
    return PiecewiseLinearProfile(tuple(points), z_min, z_max)


def _check_tm_eps(eps: complex, polarization: Polarization, what: str) -> None:
    if polarization is Polarization.TM and eps == 0:
        raise _semantic(f"{what} must be nonzero for TM: the TM operators use 1/eps")


def parse_structure(text: str) -> StructureSpec:
    """Parse and validate a structure document.

    Raises SpecSyntaxError for malformed YAML (with position information)
    and SpecSemanticError for well-formed documents that violate an
    invariant (region leaving the domain, negative width, unknown profile
    kind, ...).
    """
    try:
        doc = yaml.load(text, Loader=_Loader)
    except yaml.YAMLError as exc:
        detail = str(exc)
        mark = getattr(exc, "problem_mark", None)
        if mark is not None:
            detail = f"line {mark.line + 1}, column {mark.column + 1}: {getattr(exc, 'problem', detail)}"
        raise SpecSyntaxError(f"malformed structure document ({detail})") from exc

    if not isinstance(doc, dict):
        raise _semantic(f"structure document must be a mapping, got {type(doc).__name__}")
    missing = _TOP_KEYS - set(doc)
    if missing:
        raise _semantic(f"missing required key(s): {sorted(missing)}")
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise _semantic(f"unknown top-level key(s): {sorted(unknown)}")

    wavelength = _as_float(doc["wavelength_um"], "wavelength_um")
    if wavelength <= 0.0:
        raise _semantic("wavelength_um must be positive")

    pol_raw = doc["polarization"]
    try:
        polarization = Polarization(str(pol_raw).upper())
    except ValueError:
        raise _semantic(f"polarization must be TE or TM, got {pol_raw!r}") from None

    period = _as_float(doc["period_x_um"], "period_x_um")
    if period <= 0.0:
        raise _semantic("period_x_um must be positive")

    z_range = doc["z_range_um"]
    if not isinstance(z_range, (list, tuple)) or len(z_range) != 2:
        raise _semantic(f"z_range_um must be a [min, max] pair, got {z_range!r}")
    z_min = _as_float(z_range[0], "z_range_um[0]")
    z_max = _as_float(z_range[1], "z_range_um[1]")
    if not z_max > z_min:
        raise _semantic(f"z_range_um must satisfy max > min, got [{z_min}, {z_max}]")
    # Propagation phases reach k0 * (z_max - z_min); from 2^52 rad up a double holds no fraction of a radian.
    phase = 2.0 * math.pi / wavelength * (z_max - z_min)
    if not phase < 2.0**52:
        raise _semantic(
            f"wavelength_um = {wavelength:g} and z_range_um = [{z_min:g}, {z_max:g}] give a propagation phase "
            f"k0 * (z_max - z_min) = {phase:.3e} rad, beyond the 2^52 rad a double resolves"
        )
    span = (z_max - z_min) / wavelength
    if span > _MAX_SPAN_WAVELENGTHS:
        raise _semantic(
            f"z_range_um = [{z_min:g}, {z_max:g}] spans {span:.3e} wavelengths of wavelength_um = {wavelength:g}, "
            f"beyond the {_MAX_SPAN_WAVELENGTHS:.0e} wavelengths a solve can afford"
        )

    order = doc["truncation_order"]
    if isinstance(order, bool) or not isinstance(order, int) or order < 0:
        raise _semantic(f"truncation_order must be an integer >= 0, got {order!r}")
    # The operators square the transverse wavevector m * wavelength / period up to m = order.
    kt_max = order * wavelength / period
    if not math.isfinite(kt_max * kt_max):
        raise _semantic(
            f"wavelength_um = {wavelength:g} and period_x_um = {period:g} are too far apart for "
            f"truncation_order {order}: (truncation_order * wavelength_um / period_x_um)^2 is not finite"
        )

    background = _as_complex(doc["background_eps"], "background_eps")
    if background.imag < 0.0:
        raise _semantic("background_eps must be passive: Im(eps) >= 0")
    _check_tm_eps(background, polarization, "background_eps")

    raw_regions = doc["regions"]
    if not isinstance(raw_regions, (list, tuple)):
        raise _semantic(f"regions must be a list, got {raw_regions!r}")
    regions = []
    for i, node in enumerate(raw_regions):
        what = f"regions[{i}]"
        if not isinstance(node, dict):
            raise _semantic(f"{what} must be a mapping, got {node!r}")
        unknown = set(node) - {"eps", "center_x", "profile"}
        if unknown:
            raise _semantic(f"{what}: unknown key(s) {sorted(unknown)}")
        for key in ("eps", "center_x", "profile"):
            if key not in node:
                raise _semantic(f"{what}: missing required key '{key}'")
        eps = _as_complex(node["eps"], f"{what}.eps")
        if eps.imag < 0.0:
            raise _semantic(f"{what}.eps must be passive: Im(eps) >= 0")
        _check_tm_eps(eps, polarization, f"{what}.eps")
        center = _parse_profile(node["center_x"], z_min, z_max, f"{what}.center_x")
        width = _parse_profile(node["profile"], z_min, z_max, f"{what}.profile")
        regions.append(MaterialRegion(eps, center, width))

    spec = StructureSpec(
        wavelength_um=wavelength,
        polarization=polarization,
        period_x_um=period,
        z_min=z_min,
        z_max=z_max,
        truncation_order=order,
        background_eps=background,
        regions=tuple(regions),
    )
    _validate_regions(spec)
    return spec


def _validate_regions(spec: StructureSpec) -> None:
    tol = _GEOM_RTOL * spec.period_x_um
    for i, region in enumerate(spec.regions):
        w_lo, w_hi = region.width.bounds()
        if w_lo < 0.0:
            raise _semantic(
                f"regions[{i}]: width profile reaches {w_lo:g} um; widths must stay >= 0 "
                f"over z in [{spec.z_min:g}, {spec.z_max:g}]"
            )
        c_lo, c_hi = region.center.bounds()
        # Exact for a constant center; conservative (never under-reports)
        # when center and width vary together.
        left, right = c_lo - w_hi / 2.0, c_hi + w_hi / 2.0
        if left < -tol or right > spec.period_x_um + tol:
            raise _semantic(
                f"regions[{i}]: x-extent [{left:g}, {right:g}] um leaves the periodic "
                f"domain [0, {spec.period_x_um:g}] for some z"
            )


# ---------------------------------------------------------------------------
# Slicing
# ---------------------------------------------------------------------------


def _paint(
    intervals: list[tuple[float, float, complex]], x0: float, x1: float, eps: complex
) -> list[tuple[float, float, complex]]:
    """Overwrite [x0, x1] with eps in a sorted disjoint interval list."""
    out: list[tuple[float, float, complex]] = []
    for s, e, v in intervals:
        if e <= x0 or s >= x1:
            out.append((s, e, v))
            continue
        if s < x0:
            out.append((s, x0, v))
        if e > x1:
            out.append((x1, e, v))
    out.append((x0, x1, eps))
    out.sort(key=lambda iv: iv[0])
    return out


def slice_at(spec: StructureSpec, z: float) -> PermittivitySlice:
    """Evaluate the structure at one z into an exact piecewise-constant slice.

    Overlapping regions resolve last-region-wins; gaps fill with the
    background permittivity. Pure and deterministic: equal (spec, z) inputs
    produce identical slices.
    """
    if not (spec.z_min <= z <= spec.z_max):
        raise ValueError(f"z = {z:g} outside structure range [{spec.z_min:g}, {spec.z_max:g}]")

    period = spec.period_x_um
    intervals = [(0.0, period, complex(spec.background_eps))]
    for region in spec.regions:
        w = region.width.at(z)
        if w <= 0.0:
            continue
        c = region.center.at(z)
        x0 = max(c - w / 2.0, 0.0)
        x1 = min(c + w / 2.0, period)
        if x1 > x0:
            intervals = _paint(intervals, x0, x1, complex(region.eps))

    merged: list[tuple[float, float, complex]] = []
    for s, e, v in intervals:
        if e <= s:
            continue
        if merged and merged[-1][2] == v and merged[-1][1] == s:
            merged[-1] = (merged[-1][0], e, v)
        else:
            merged.append((s, e, v))
    return PermittivitySlice(z=z, intervals=tuple(merged))
