"""Command-line interface: artifacts, exit codes, determinism."""

import csv
import io
import json
import os
import re
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

from arcwa import cli, harness
from arcwa import operators as operators_mod
from arcwa.geometry import Polarization, parse_structure
from arcwa.sections import ScatteringMatrix

from conftest import CONSTANT_DOC, TAPER_DOC


@pytest.fixture()
def taper_file(tmp_path):
    path = tmp_path / "taper.spec"
    path.write_text(TAPER_DOC)
    return path


@pytest.fixture()
def constant_file(tmp_path):
    path = tmp_path / "constant.spec"
    path.write_text(CONSTANT_DOC)
    return path


@pytest.fixture()
def assembled(monkeypatch):
    """The stack sizes of every operator assembly made while the test runs."""
    sizes = []
    assemble_stack = operators_mod.assemble_stack

    def recording(slices, spec, *sectors):
        sizes.append(len(slices))
        return assemble_stack(slices, spec, *sectors)

    monkeypatch.setattr(operators_mod, "assemble_stack", recording)
    return sizes


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_solve_writes_csv_and_report(taper_file, tmp_path, capsys):
    out = tmp_path / "smat.csv"
    report_path = tmp_path / "report.json"
    code = cli.main(
        [
            "solve",
            "--structure",
            str(taper_file),
            "--alpha",
            "1e-2",
            "--out",
            str(out),
            "--report",
            str(report_path),
        ]
    )
    assert code == 0
    rows = read_csv(out)
    n = 7  # 2*3+1 harmonics
    assert len(rows) == 4 * n * n
    assert {row["block"] for row in rows} == {"TLR", "RR", "RL", "TRL"}
    assert set(rows[0]) == {"block", "row", "col", "re", "im"}
    values = [complex(float(r["re"]), float(r["im"])) for r in rows]
    assert max(abs(v) for v in values) > 0.5  # transmission entries present
    captured = capsys.readouterr()
    assert "sections:" in captured.out
    assert "total_eig_count:" in captured.out
    payload = json.loads(report_path.read_text())
    assert payload["total_eig_count"] >= 1
    assert len(payload["sections"]) >= 1
    assert payload["method"] == "adaptive(alpha=0.01, order=1)"


def test_solve_constant_reports_single_zero_error_section(constant_file, capsys):
    code = cli.main(["solve", "--structure", str(constant_file), "--alpha", "1e-3"])
    assert code == 0
    captured = capsys.readouterr()
    assert "sections: 1" in captured.err
    assert re.search(r"est_error=0\.0+e\+00", captured.err)
    # CSV went to stdout.
    assert captured.out.startswith("block,row,col,re,im")


def test_missing_structure_file_exit2(capsys):
    code = cli.main(["solve", "--structure", "/nonexistent/taper.spec", "--alpha", "1e-3"])
    assert code == 2
    assert "/nonexistent/taper.spec" in capsys.readouterr().err


def test_invalid_document_exit2(tmp_path, capsys):
    bad = tmp_path / "bad.spec"
    bad.write_text("wavelength_um: -1\n")
    code = cli.main(["solve", "--structure", str(bad), "--alpha", "1e-3"])
    assert code == 2
    assert "input error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--alpha", "1e-2", "--out"],
        ["uniform", "--sections", "2", "--report"],
        ["sweep", "--methods", "uniform0", "--grid", "2", "--oracle-sections", "4", "--out"],
    ],
    ids=["solve-out", "uniform-report", "sweep-out"],
)
def test_output_path_that_is_a_directory_exit2(taper_file, tmp_path, capsys, assembled, argv):
    """An output file that cannot be written is an input error, not a traceback, found before any solve."""
    code = cli.main([*argv, str(tmp_path), "--structure", str(taper_file)])
    assert code == 2
    captured = capsys.readouterr()
    assert "arcwa: input error:" in captured.err and str(tmp_path) in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert assembled == []


@pytest.mark.parametrize(
    "argv, flags",
    [
        (["solve", "--alpha", "1e-2", "--out", "{x}", "--report", "{x}"], ("--out", "--report")),
        (["solve", "--alpha", "1e-2", "--out", "{s}"], ("--structure", "--out")),
        (["solve", "--alpha", "1e-2", "--report", "{link}"], ("--structure", "--report")),
        (["uniform", "--sections", "2", "--report", "{s}", "--out", "{x}"], ("--structure", "--report")),
        (["uniform", "--sections", "2", "--out", "{x}", "--report", "{dotted_x}"], ("--out", "--report")),
        (["sweep", "--grid", "2", "--oracle-sections", "4", "--out", "{s}"], ("--structure", "--out")),
    ],
    ids=["solve-out-report", "solve-structure-out", "solve-structure-hardlink", "uniform-structure-report",
         "uniform-out-dotted-report", "sweep-structure-out"],
)
def test_path_flags_naming_the_same_file_exit2(taper_file, tmp_path, capsys, assembled, argv, flags):
    """Two path flags that name one file are an input error found before any solve; nothing is written."""
    original = taper_file.read_bytes()
    (tmp_path / "sub").mkdir()
    link = tmp_path / "link.spec"
    os.link(taper_file, link)
    paths = {"x": tmp_path / "x.out", "dotted_x": tmp_path / "sub" / ".." / "x.out", "s": taper_file, "link": link}
    argv = [arg.format(**paths) for arg in argv]
    code = cli.main([*argv, "--structure", str(taper_file)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("arcwa: input error:") and "name the same file" in err
    assert all(flag in err for flag in flags)
    assert assembled == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.spec", "sub", "taper.spec"]
    assert taper_file.read_bytes() == original


@pytest.mark.parametrize("reference", ["endpoint", "midpoint"])
@pytest.mark.parametrize(
    "argv",
    [["solve", "--alpha", "1e-2"], ["uniform", "--sections", "2"], ["sweep", "--grid", "2", "--oracle-sections", "4"]],
    ids=["solve", "uniform", "sweep"],
)
def test_reference_flag_is_gone_exit2(taper_file, capsys, assembled, argv, reference):
    """Every section's reference is its midpoint; argparse rejects the removed --reference flag before any solve."""
    with pytest.raises(SystemExit) as exited:
        cli.main([*argv, "--structure", str(taper_file), "--reference", reference])
    assert exited.value.code == 2
    assert "unrecognized arguments: --reference" in capsys.readouterr().err
    assert assembled == []


def test_tm_zero_eps_exit2(tmp_path, capsys):
    """TM operators divide by eps: an eps = 0 interval is an input error, not a traceback."""
    doc = TAPER_DOC.replace("polarization: TE", "polarization: TM").replace(
        "background_eps: [1.0, 0.0]", "background_eps: [0.0, 0.0]"
    )
    path = tmp_path / "tm_zero.spec"
    path.write_text(doc)
    code = cli.main(["solve", "--structure", str(path), "--alpha", "1e-2"])
    assert code == 2
    assert "background_eps must be nonzero for TM" in capsys.readouterr().err


def test_nan_alpha_exit2(taper_file, capsys):
    code = cli.main(["solve", "--structure", str(taper_file), "--alpha", "nan"])
    assert code == 2
    assert "alpha must be > 0, got nan" in capsys.readouterr().err


def test_zero_alpha_exit2(constant_file, capsys):
    """No estimate, not even a constant section's 0.0, is below alpha = 0: an input error, not a depth failure."""
    code = cli.main(["solve", "--structure", str(constant_file), "--alpha", "0"])
    assert code == 2
    assert "alpha must be > 0, got 0.0" in capsys.readouterr().err


def test_uniform_command(taper_file, tmp_path, capsys):
    out = tmp_path / "uniform.csv"
    code = cli.main(
        ["uniform", "--structure", str(taper_file), "--sections", "8", "--order", "1", "--out", str(out)]
    )
    assert code == 0
    assert len(read_csv(out)) == 4 * 49
    assert "sections: 8" in capsys.readouterr().out


def test_sweep_csv_and_bounds(taper_file, tmp_path):
    out = tmp_path / "sweep.csv"
    code = cli.main(
        [
            "sweep",
            "--structure",
            str(taper_file),
            "--methods",
            "uniform0,adaptive",
            "--grid",
            "4,16",
            "--oracle-sections",
            "64",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    rows = read_csv(out)
    assert [r["method"] for r in rows] == ["uniform0", "uniform0", "adaptive", "adaptive"]
    uniform_errors = [float(r["error_max_norm"]) for r in rows[:2]]
    assert uniform_errors[1] < uniform_errors[0]
    # Adaptive knobs are alphas; the achieved error respects them.
    for row in rows[2:]:
        assert float(row["error_max_norm"]) <= float(row["knob"])
    assert all(int(r["eig_count"]) > 0 for r in rows)


def test_sweep_adaptive_alpha_bound(taper_file, tmp_path):
    out = tmp_path / "sweep.csv"
    code = cli.main(
        [
            "sweep",
            "--structure",
            str(taper_file),
            "--methods",
            "adaptive",
            "--grid",
            "1e-1,1e-2",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    for row in read_csv(out):
        assert float(row["error_max_norm"]) <= float(row["knob"])


def test_sweep_empty_grid_exit2(taper_file, capsys):
    code = cli.main(["sweep", "--structure", str(taper_file), "--grid", ""])
    assert code == 2
    assert "grid" in capsys.readouterr().err


def test_sweep_unknown_method_exit2(taper_file, capsys):
    code = cli.main(
        ["sweep", "--structure", str(taper_file), "--methods", "magic", "--grid", "2"]
    )
    assert code == 2


@pytest.mark.parametrize("knob", ["inf", "2.5", "0.5"])
def test_sweep_rejects_non_integer_section_count(taper_file, capsys, knob):
    code = cli.main(
        ["sweep", "--structure", str(taper_file), "--methods", "uniform0", "--grid", knob, "--oracle-sections", "4"]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert f"uniform0 knob must be a whole number of sections >= 1, got {float(knob)!r}" in err


def unsolvable(*args, **kwargs):
    raise AssertionError("a solve ran before every knob was checked")


@pytest.mark.parametrize(
    "methods, grid, message",
    [
        ("adaptive", "0", "alpha must be > 0, got 0.0"),
        ("adaptive", "1e-2,0", "alpha must be > 0, got 0.0"),
        ("uniform1,adaptive", "4,0", "uniform1 knob must be a whole number of sections >= 1, got 0.0"),
    ],
    ids=["bad", "good-bad", "two-methods"],
)
def test_sweep_checks_every_knob_before_any_solve(taper_file, capsys, monkeypatch, methods, grid, message):
    """Neither the ground truth nor a good knob is solved when any knob is bad."""
    monkeypatch.setattr(harness, "solve_uniform", unsolvable)
    monkeypatch.setattr(harness, "solve_adaptive", unsolvable)
    code = cli.main(["sweep", "--structure", str(taper_file), "--methods", methods, "--grid", grid])
    assert code == 2
    assert message in capsys.readouterr().err


def test_sweep_csv_bit_stable(taper_file, tmp_path):
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        code = cli.main(
            [
                "sweep",
                "--structure",
                str(taper_file),
                "--methods",
                "uniform0",
                "--grid",
                "2,4,8",
                "--oracle-sections",
                "32",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        outs.append(out.read_text())

    def strip_wall(text):
        rows = [line.split(",") for line in text.strip().splitlines()]
        return [row[:3] + row[4:] for row in rows]

    assert strip_wall(outs[0]) == strip_wall(outs[1])


def test_validate_passes(capsys):
    assert cli.main(["validate"]) == 0
    out = capsys.readouterr().out
    assert "slab-airy-tm" in out
    assert "FAIL" not in out


def test_validate_list(capsys):
    assert cli.main(["validate", "--list"]) == 0
    assert capsys.readouterr().out.split() == [
        "vacuum-te-spectrum",
        "vacuum-tm-unit-index",
        "slab-airy-te",
        "slab-airy-tm",
        "mode-roundtrip",
        "star-identity",
        "projection-identity",
        "constant-section-order-equivalence",
    ]


def test_validate_detects_tm_sign_flip(monkeypatch, capsys):
    """Mutation check: a TM assembly sign error must fail the slab oracle."""
    original = operators_mod.assemble_stack

    def flipped(slices, spec, *sectors):
        stacks = original(slices, spec, *sectors)
        if spec.polarization is Polarization.TM:
            stacks = [
                [operators_mod.OperatorPair(P=ops.P, Q=-ops.Q, z=ops.z, k0=ops.k0) for ops in pairs] for pairs in stacks
            ]
        return stacks

    monkeypatch.setattr(operators_mod, "assemble_stack", flipped)
    code = cli.main(["validate"])
    out = capsys.readouterr().out
    assert code == 3
    assert re.search(r"slab-airy-tm\s+FAIL", out)


def test_module_entry_point(taper_file, tmp_path):
    # The child finds arcwa where this process found it, installed or not.
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = tmp_path / "cli.csv"
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "arcwa",
            "uniform",
            "--structure",
            str(taper_file),
            "--sections",
            "2",
            "--out",
            str(out),
        ],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.exists()


NON_FINITE_CASES = {
    "center-nan": ("center_x: 0.5", "center_x: .nan", "regions[0].center_x"),
    "rate-inf": (
        "{kind: linear, start: 0.26, end: 0.37}",
        "{kind: exponential, start: 0.26, end: 0.37, rate: .inf}",
        "regions[0].profile.rate",
    ),
    "period-z-inf": (
        "{kind: linear, start: 0.26, end: 0.37}",
        "{kind: sinusoidal, mean: 0.3, amplitude: 0.05, period_z: .inf}",
        "regions[0].profile.period_z",
    ),
    "z-max-inf": ("z_range_um: [0.0, 1.0]", "z_range_um: [0.0, .inf]", "z_range_um[1]"),
    "wavelength-nan": ("wavelength_um: 1.55", "wavelength_um: .nan", "wavelength_um"),
    "wavelength-inf": ("wavelength_um: 1.55", "wavelength_um: .inf", "wavelength_um"),
    "wavelength-int-beyond-float": ("wavelength_um: 1.55", "wavelength_um: 1" + "0" * 400, "wavelength_um"),
    "period-x-nan": ("period_x_um: 1.0", "period_x_um: .nan", "period_x_um"),
    "period-x-inf": ("period_x_um: 1.0", "period_x_um: .inf", "period_x_um"),
    "background-eps-nan": ("background_eps: [1.0, 0.0]", "background_eps: [.nan, 0.0]", "background_eps"),
    "background-eps-scalar-inf": ("background_eps: [1.0, 0.0]", "background_eps: .inf", "background_eps"),
    "region-eps-nan": ("eps: [12.25, 0.0]", "eps: [.nan, 0.0]", "regions[0].eps"),
    "region-eps-inf": ("eps: [12.25, 0.0]", "eps: [12.25, .inf]", "regions[0].eps"),
}


@pytest.mark.parametrize("case", NON_FINITE_CASES.values(), ids=NON_FINITE_CASES.keys())
def test_non_finite_numbers_exit2_naming_the_key(tmp_path, capsys, case):
    """A NaN or infinite number is an input error, not a different structure or a numeric failure."""
    old, new, key = case
    assert old in TAPER_DOC
    path = tmp_path / "non_finite.spec"
    path.write_text(TAPER_DOC.replace(old, new))
    code = cli.main(["solve", "--structure", str(path), "--alpha", "1e-2"])
    assert code == 2
    assert f"{key} must be finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "old, new",
    [
        ("wavelength_um: 1.55", "wavelength_um: 1.0e+300"),
        ("wavelength_um: 1.55", "wavelength_um: 1.0e+160"),
        ("period_x_um: 1.0", "period_x_um: 1.0e-160"),
    ],
    ids=["wavelength-1e300", "wavelength-1e160", "period-x-1e-160"],
)
def test_overflowing_transverse_wavevector_exit2_naming_the_keys(tmp_path, capsys, old, new):
    """A finite wavelength or period whose squared wavevector overflows is an input error, not a numeric one."""
    path = tmp_path / "overflow.spec"
    path.write_text(TAPER_DOC.replace(old, new))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["solve", "--structure", str(path), "--alpha", "1e-2"])
    assert code == 2
    err = capsys.readouterr().err
    assert "wavelength_um" in err and "period_x_um" in err
    assert "is not finite" in err


@pytest.mark.parametrize(
    "old, new",
    [
        ("wavelength_um: 1.55", "wavelength_um: 1.0e-300"),
        ("z_range_um: [0.0, 1.0]", "z_range_um: [0.0, 1.0e+300]"),
    ],
    ids=["wavelength-1e-300", "z-max-1e300"],
)
def test_unresolvable_propagation_phase_exit2_naming_the_keys(tmp_path, capsys, old, new):
    """A phase k0 * (z_max - z_min) beyond what a double resolves is an input error, not a depth-limit failure."""
    path = tmp_path / "phase.spec"
    path.write_text(TAPER_DOC.replace(old, new))
    code = cli.main(["solve", "--structure", str(path), "--alpha", "1e-2"])
    assert code == 2
    err = capsys.readouterr().err
    assert "wavelength_um" in err and "z_range_um" in err
    assert "beyond the 2^52 rad a double resolves" in err


def test_unaffordable_span_exit2_naming_the_keys(tmp_path, capsys):
    """6.5e13 wavelengths pass the 2^52 rad phase bound, but a solve would need some 1e8 leaves."""
    path = tmp_path / "span.spec"
    path.write_text(TAPER_DOC.replace("wavelength_um: 1.55", "wavelength_um: 1.0e-14"))
    started = time.perf_counter()
    code = cli.main(["solve", "--structure", str(path), "--alpha", "1e-2"])
    assert time.perf_counter() - started < 1.0
    assert code == 2
    err = capsys.readouterr().err
    assert "wavelength_um" in err and "z_range_um" in err
    assert "beyond the 1e+06 wavelengths a solve can afford" in err
    assert parse_structure(TAPER_DOC.replace("wavelength_um: 1.55", "wavelength_um: 1.0e-5")).wavelength_um == 1e-5


def test_document_beyond_memory_exit2_naming_truncation_order(tmp_path, capsys):
    """Operators too large to allocate are an input error, not a traceback; 10^15 harmonics fail at once."""
    path = tmp_path / "huge.spec"
    path.write_text(TAPER_DOC.replace("truncation_order: 3", "truncation_order: 1000000000000000"))
    code = cli.main(["solve", "--structure", str(path), "--alpha", "1e-2"])
    assert code == 2
    assert "truncation_order" in capsys.readouterr().err


# Run in a child process with every scipy import blocked: prints the exit codes of ``argv_sets`` and
# the scipy modules loaded.
_WITHOUT_SCIPY = """
import json, sys
sys.modules["scipy"] = None
from arcwa import cli
codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
loaded = sorted(name for name, module in sys.modules.items() if name.split(".")[0] == "scipy" and module is not None)
print(json.dumps({"codes": codes, "scipy": loaded}))
"""


def test_cli_runs_without_scipy(tmp_path):
    """The runtime needs only numpy and PyYAML: solve, uniform and validate run with scipy unimportable."""
    argv_sets = []
    for polarization in ("TE", "TM"):
        path = tmp_path / f"taper-{polarization}.spec"
        path.write_text(TAPER_DOC.replace("polarization: TE", f"polarization: {polarization}"))
        for command in (["solve", "--alpha", "1e-2"], ["uniform", "--sections", "4", "--order", "1"]):
            out = tmp_path / f"{command[0]}-{polarization}.csv"
            argv_sets.append([*command, "--structure", str(path), "--out", str(out)])
    argv_sets.append(["validate"])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run(
        [sys.executable, "-c", _WITHOUT_SCIPY, json.dumps(argv_sets)], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result == {"codes": [0] * len(argv_sets), "scipy": []}


def per_entry_csv(smat):
    """The writer that ``write_smatrix_csv`` replaced: one numpy scalar per row."""
    out = io.StringIO()
    out.write("block,row,col,re,im\n")
    for name, attr in (("TLR", "T_LR"), ("RR", "R_R"), ("RL", "R_L"), ("TRL", "T_RL")):
        block = getattr(smat, attr)
        for row in range(block.shape[0]):
            for col in range(block.shape[1]):
                value = block[row, col]
                out.write(f"{name},{row},{col},{float(value.real)!r},{float(value.imag)!r}\n")
    return out.getvalue()


def test_smatrix_csv_matches_the_per_entry_writer_byte_for_byte():
    specials = [-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, -2.2e-310, 1e300, -1e-300, 0.1, 1.0 / 3.0]
    rng = np.random.default_rng(3)
    blocks = []
    for _ in range(4):
        values = rng.choice(specials, size=(2, 5, 5)) * rng.choice([1.0, -1.0], size=(2, 5, 5))
        block = np.empty((5, 5), dtype=np.complex128)
        block.real, block.imag = values
        blocks.append(block)
    # A real block too, and an entry built from signed zeros.
    blocks[1] = blocks[1].real.copy()
    blocks[2][0, 0] = complex(-0.0, -0.0)
    smat = ScatteringMatrix(*blocks, left_basis_id=1, right_basis_id=2)
    out = io.StringIO()
    harness.write_smatrix_csv(smat, out)
    assert out.getvalue() == per_entry_csv(smat)
    assert "-0.0" in out.getvalue() and "nan" in out.getvalue() and "5e-324" in out.getvalue()
