import io
import json
import os
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cauchys3.cli import (
    EXIT_INPUT,
    EXIT_PASS,
    EXIT_SINGULARITY,
    EXIT_TOLERANCE,
    canonical_json,
    main,
)


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def test_verify_builtin_families_pass():
    for name in ("plus-id", "minus-id", "left-133", "right-133"):
        code, out = run_cli(["--samples", "200", "verify", "--builtin", name])
        assert code == EXIT_PASS
        doc = json.loads(out)
        assert doc["schema"] == 1
        assert doc["pass"] is True
        assert doc["flatness_max"] < 1e-10


def test_verify_expr_failure_reports_residual():
    code, out = run_cli(["--samples", "100", "verify", "--expr", "diag(2,2,2)"])
    assert code == EXIT_TOLERANCE
    doc = json.loads(out)
    assert doc["pass"] is False
    assert doc["flatness_max"] == pytest.approx(3.0 * np.sqrt(2.0), rel=1e-12)


def test_verify_parse_error_exit_code(capsys):
    code = main(["verify", "--expr", "diag(2,,2)"])
    assert code == EXIT_INPUT
    code = main(["verify"])
    assert code == EXIT_INPUT
    code = main(["verify", "--expr", "builtin:nope"])
    assert code == EXIT_INPUT


def test_classify_lists_eight_rows():
    code, out = run_cli(["--samples", "100", "classify", "--grid-oracle"])
    assert code == EXIT_PASS
    doc = json.loads(out)
    assert doc["count"] == 8
    assert doc["grid_oracle_matches"] is True
    assert doc["grid_oracle_count"] == 5
    lefts = [tuple((r["a"], r["b"], r["c"])) for r in doc["rows"] if r["chirality"] == "left"]
    rights = [tuple((r["a"], r["b"], r["c"])) for r in doc["rows"] if r["chirality"] == "right"]
    assert len(lefts) == 5 and len(rights) == 3
    assert all(r["flatness_max"] < 1e-10 for r in doc["rows"])
    assert all(r["cyclic_residual"] < 1e-12 for r in doc["rows"])


def test_deform_dimensions():
    code, out = run_cli(["--samples", "150", "deform"])
    assert code == EXIT_PASS
    doc = json.loads(out)
    assert doc["solution_space_dim"] == 5
    assert doc["image_span_dim"] == 2
    assert doc["lemma_derivative_error"] < 1e-10


def test_cylinder_forward():
    code, out = run_cli(["cylinder", "--t", "0..3"])
    assert code == EXIT_PASS
    doc = json.loads(out)
    s = doc["summary"]
    assert s["max_conserved_drift"] < 1e-9
    assert s["max_slice_residual_rel"] < 1e-9
    assert s["max_ricci_norm_rel"] < 1e-8
    assert s["singularity"] is False


def test_cylinder_to_singularity():
    code, out = run_cli(["cylinder", "--to-singularity"])
    assert code == EXIT_PASS
    doc = json.loads(out)
    s = doc["summary"]
    assert s["singularity"] is True
    assert abs(s["boundary_distance_reached"] - 0.1884) < 2e-4


def test_cylinder_singularity_exit_code_when_not_requested():
    code, out = run_cli(["cylinder", "--t", "0..-1"])
    assert code == EXIT_SINGULARITY
    doc = json.loads(out)
    assert doc["summary"]["singularity"] is True


def test_cylinder_probe():
    code, out = run_cli(["cylinder", "--s", "0.51..0.9", "--probe-curvature"])
    assert code == EXIT_PASS
    doc = json.loads(out)
    assert doc["strictly_increasing"] is True
    norms = doc["probe_curvature_norm"]
    assert norms[-1] / norms[0] > 10.0


@pytest.mark.parametrize("npoints", ["1", "0", "-3"])
def test_cylinder_probe_needs_two_points(npoints, capsys):
    # strict increase over fewer than two values would be a vacuous pass
    code, out = run_cli(
        ["cylinder", "--s", "0.51..0.9", "--probe-curvature", "--probe-points", npoints]
    )
    assert code == EXIT_INPUT and out == ""
    assert "--probe-points" in capsys.readouterr().err
    code, out = run_cli(
        ["cylinder", "--s", "0.51..0.9", "--probe-curvature", "--probe-points", "2"]
    )
    assert code == EXIT_PASS and len(json.loads(out)["probe_curvature_norm"]) == 2


def test_cylinder_bad_range(capsys):
    assert main(["cylinder", "--t", "1..2"]) == EXIT_INPUT
    assert main(["cylinder"]) == EXIT_INPUT
    capsys.readouterr()
    # s ranges run from LO up to HI > LO
    for argv in (["--s", "0.9..0.51", "--probe-curvature"], ["--s", "0.9..0.6"], ["--s", "0.7..0.7"]):
        code, out = run_cli(["cylinder"] + argv)
        assert code == EXIT_INPUT and out == ""
        assert "LO < HI" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["--t", "0..nan"],
        ["--t", "0..inf"],
        ["--t", "0..-inf"],
        ["--s", "0.6..nan"],
        ["--s", "inf..0.9"],
        ["--s", "0.51..inf", "--probe-curvature"],
    ],
    ids=" ".join,
)
def test_cylinder_nonfinite_range_rejected(argv, capsys):
    code, out = run_cli(["cylinder"] + argv)
    assert code == EXIT_INPUT and out == ""
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["--t", "0..1e100"],
        ["--t", "0..1e200"],
        ["--s", "0.6..1e300"],
        ["--s", "0.6..1e160", "--probe-curvature"],
    ],
    ids=" ".join,
)
def test_cylinder_huge_range_rejected(argv, capsys):
    # finite, but the state or the export overflows floating point
    code, out = run_cli(["cylinder"] + argv)
    assert code == EXIT_INPUT and out == ""
    err = capsys.readouterr().err
    assert err.startswith("cylinder: range too large for floating point: ") and err.count("\n") == 1


_bound = st.one_of(st.floats(-1e300, 1e300), st.floats(-4.0, 4.0))


@st.composite
def _cylinder_range(draw):
    flag = draw(st.sampled_from(["--t", "--s"]))
    lo = draw(st.one_of(st.just(0.0), st.floats(0.5, 2.0), _bound))
    argv = [f"{flag}={lo!r}..{draw(_bound)!r}"]
    return argv + ["--probe-curvature"] if draw(st.booleans()) else argv


@given(argv=_cylinder_range())
@example(argv=["--s=0.6..1e160", "--probe-curvature"])
@example(argv=["--t=0..1e154"])
@settings(max_examples=40, deadline=None)
def test_cylinder_range_ends_cleanly(argv):
    # any finite range: a known exit code, no warning, strict JSON or nothing
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run_cli(["cylinder"] + argv)
    assert code in (EXIT_PASS, EXIT_TOLERANCE, EXIT_INPUT, EXIT_SINGULARITY)
    assert out == "" or json.loads(out, parse_constant=_reject_constant)["schema"] == 1


_COORD = st.sampled_from(["a1", "a2", "a3", "a4"])
_LINEAR = st.lists(_COORD, min_size=1, max_size=3).map(lambda v: f"({' + '.join(v)})")
_COEF = st.one_of(st.integers(-9, 9).map(str), st.floats(-10.0, 10.0).map(repr))


@st.composite
def _poly_entry(draw):
    # a sum of products of coefficients, coordinates and linear sums, each
    # product of total degree <= 16
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        factors, budget = [draw(_COEF)], 16
        for _ in range(draw(st.integers(0, 3))):
            base = draw(st.one_of(_COORD, _LINEAR))
            power = draw(st.integers(0, budget))
            budget -= power
            factors.append(base if power == 1 else f"{base}^{power}")
        terms.append("*".join(factors))
    return " + ".join(terms)


@st.composite
def _field_spec(draw):
    head, n = draw(st.sampled_from([("diag", 3), ("sym", 6)]))
    return f"{head}({', '.join(draw(st.lists(_poly_entry(), min_size=n, max_size=n)))})"


def _run_argv_cleanly(argv):
    """Exit code and stdout of main(argv); fails on a traceback, a warning or non-strict JSON."""
    err = io.StringIO()
    with warnings.catch_warnings(), redirect_stderr(err):
        warnings.simplefilter("error")
        try:
            code, out = run_cli(argv)
        except SystemExit as exc:  # argparse rejects a malformed option
            code, out = exc.code, ""
    assert code in (EXIT_PASS, EXIT_TOLERANCE, EXIT_INPUT, EXIT_SINGULARITY)
    assert "Traceback" not in err.getvalue()
    assert out == "" or json.loads(out, parse_constant=_reject_constant)["schema"] == 1
    return code, out


@given(spec=_field_spec())
@settings(max_examples=20, deadline=None)
def test_verify_generated_field_spec_ends_cleanly(spec):
    # any spec in the grammar parses and runs; only the identity-like ones pass
    code, out = _run_argv_cleanly(["--samples", "20", "verify", "--expr", spec])
    assert code in (EXIT_PASS, EXIT_TOLERANCE)
    assert json.loads(out)["field"] == spec


_NUMBER = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.floats(1e-12, 0.99).map(repr),
    st.sampled_from(["0", "-1", "1", "1e400", "x", ""]),
)


@st.composite
def _run_options(draw):
    argv = []
    if draw(st.booleans()):
        argv.append(f"--seed={draw(st.one_of(st.integers(-3, 2**70).map(str), st.sampled_from(['1.5', 'x'])))}")
    if draw(st.booleans()):
        argv.append(f"--samples={draw(st.one_of(st.integers(-3, 120).map(str), st.just('1e3')))}")
    for flag in ("--tol", "--fd-step"):
        if draw(st.booleans()):
            argv.append(f"{flag}={draw(_NUMBER)}")
    command = draw(
        st.sampled_from(
            [
                ["verify", "--builtin", "left-133"],
                ["verify", "--expr", "sym(a1, 0, 0, a2, 0, a3)"],
                ["classify"],
                ["classify", "--grid-oracle"],
                ["deform"],
                ["rigidity"],
            ]
        )
    )
    return argv + command


@given(argv=_run_options())
@example(argv=["--seed=1180591620717411303424", "--samples=1", "rigidity"])
@example(argv=["--tol=5e-324", "--fd-step=5e-324", "--samples=3", "deform"])
@settings(max_examples=20, deadline=None)
def test_run_options_end_cleanly(argv):
    # any value of the shared options: a known exit code and strict JSON or
    # nothing, and an option out of range is an input error with no output
    code, out = _run_argv_cleanly(argv)
    assert (code == EXIT_INPUT) == (out == "")


def test_rigidity():
    code, out = run_cli(["--samples", "40", "rigidity"])
    assert code == EXIT_PASS
    doc = json.loads(out)
    for row in doc["identity_rows"]:
        assert row["det_residual_max"] < 1e-12
        assert row["div_residual_max"] < 1e-12
    assert doc["codazzi_equivalence_max"] < 1e-6
    assert 5.0 < doc["scaling_ratio_det"] < 20.0
    assert 5.0 < doc["scaling_ratio_div"] < 20.0


def test_json_byte_identical_between_runs():
    _, out1 = run_cli(["--seed", "9", "--samples", "120", "verify", "--builtin", "right-133"])
    _, out2 = run_cli(["--seed", "9", "--samples", "120", "verify", "--builtin", "right-133"])
    assert out1 == out2
    _, out3 = run_cli(["--seed", "10", "--samples", "120", "verify", "--builtin", "right-133"])
    assert out1 != out3  # seed participates in the document


def test_csv_output_columns():
    code, out = run_cli(["--format", "csv", "cylinder", "--t", "0..1"])
    assert code == EXIT_PASS
    header = out.splitlines()[0].split(",")
    assert header[:7] == ["t", "s", "a", "b", "adot", "bdot", "conserved"]
    assert "slice_residual_max" in header and "ricci_norm" in header


def test_csv_bitwise_stable():
    _, out1 = run_cli(["--format", "csv", "cylinder", "--t", "0..2"])
    _, out2 = run_cli(["--format", "csv", "cylinder", "--t", "0..2"])
    assert out1 == out2


def test_invalid_config_rejected(capsys):
    assert main(["--samples", "0", "deform"]) == EXIT_INPUT
    assert main(["--tol", "-1", "deform"]) == EXIT_INPUT
    capsys.readouterr()
    for argv in (
        ["verify", "--builtin", "left-133"],
        ["classify"],
        ["deform"],
        ["cylinder", "--t", "0..3"],
        ["rigidity"],
    ):
        code, out = run_cli(["--seed", "-1"] + argv)
        assert code == EXIT_INPUT and out == ""
        assert capsys.readouterr().err == "cauchys3: seed must be >= 0, got -1\n"


def test_nan_tolerance_rejected(capsys):
    code, out = run_cli(["--tol", "nan", "verify", "--builtin", "left-133"])
    assert code == EXIT_INPUT and out == ""
    assert "tolerance" in capsys.readouterr().err


def test_nan_fd_step_rejected(capsys):
    code, out = run_cli(["--fd-step", "nan", "verify", "--builtin", "left-133"])
    assert code == EXIT_INPUT and out == ""
    assert "fd-step" in capsys.readouterr().err


def test_fd_step_beyond_unit_scale_rejected(capsys):
    # a central difference over a step far beyond the unit sphere goes to
    # 0 like 1/h, so both sides of the Codazzi check vanish and it passes
    code, out = run_cli(["--fd-step", "1e8", "rigidity"])
    assert code == EXIT_INPUT and out == ""
    assert "fd-step" in capsys.readouterr().err
    assert main(["--fd-step", "1", "rigidity"]) == EXIT_INPUT


def test_fd_step_below_one_runs():
    code, out = run_cli(["--fd-step", "0.5", "--samples", "10", "rigidity"])
    assert code == EXIT_TOLERANCE  # a coarse step fails the check honestly
    assert json.loads(out)["codazzi_equivalence_max"] > 1e-6


def test_infinite_tolerance_rejected(capsys):
    # an infinite tolerance would pass any residual
    code, out = run_cli(["--tol", "inf", "verify", "--expr", "diag(2,2,2)"])
    assert code == EXIT_INPUT and out == ""
    assert main(["--fd-step", "inf", "deform"]) == EXIT_INPUT


def test_human_format():
    code, out = run_cli(["--format", "human", "--samples", "60", "deform"])
    assert code == EXIT_PASS
    assert "solution_space_dim: 5" in out
    assert "image_span_dim: 2" in out


def test_csv_format_scalar_report():
    code, out = run_cli(["--format", "csv", "--samples", "60", "verify", "--builtin", "plus-id"])
    assert code == EXIT_PASS
    assert out.startswith("key,value")
    assert "flatness_max,0" in out


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_canonical_json_nonfinite_floats_are_strict_json():
    txt = canonical_json({"n": float("nan"), "p": float("inf"), "m": np.float64("-inf"), "x": [1.5]})
    doc = json.loads(txt, parse_constant=_reject_constant)
    assert doc == {"n": "NaN", "p": "Infinity", "m": "-Infinity", "x": [1.5]}


def test_verify_overflowing_field_output_is_strict_json():
    # a coefficient that overflows to inf makes every residual NaN
    with np.errstate(all="ignore"):
        code, out = run_cli(["--samples", "20", "verify", "--expr", "diag(" + "9" * 400 + ",1,1)"])
    assert code == EXIT_TOLERANCE
    doc = json.loads(out, parse_constant=_reject_constant)
    assert doc["schema"] == 1 and doc["pass"] is False
    assert doc["flatness_max"] == "NaN"


@pytest.mark.parametrize("power", ["a1^1e9", "a1^1e400", "a1^17", "a1^9*a2^9"])
def test_verify_degree_above_bound_exits_input(power, capsys):
    code, out = run_cli(["--samples", "20", "verify", "--expr", f"diag({power},1,1)"])
    assert code == EXIT_INPUT and out == ""
    err = capsys.readouterr().err
    assert err.startswith("verify: ") and "16" in err and "Traceback" not in err


def test_verify_degree_at_bound_runs():
    code, out = run_cli(["--samples", "20", "verify", "--expr", "diag(a1^16,1,1)"])
    assert code == EXIT_TOLERANCE and json.loads(out)["pass"] is False


def test_canonical_json_17_digits():
    txt = canonical_json({"x": 0.1})
    assert "0.10000000000000001" in txt
    assert canonical_json({"n": 3}) == '{\n  "n": 3\n}'


# the nine invocations of the README's command list
README_INVOCATIONS = [
    ["verify", "--builtin", "left-133"],
    ["verify", "--expr", "diag(2,2,2)"],
    ["verify", "--expr", "sym(a1, 0, 0, a2, 0, a3)"],
    ["classify", "--grid-oracle"],
    ["deform"],
    ["cylinder", "--t", "0..3"],
    ["cylinder", "--to-singularity"],
    ["cylinder", "--s", "0.51..0.9", "--probe-curvature"],
    ["rigidity"],
]

_NO_SCIPY_PROBE = """
import io, json, sys
from contextlib import redirect_stdout
from cauchys3.cli import main
codes = []
for argv in json.loads(sys.argv[1]):
    with redirect_stdout(io.StringIO()):
        codes.append(main(argv))
print(json.dumps({"codes": codes, "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""


def test_readme_invocations_never_import_scipy():
    # a fresh interpreter, so that no other test has imported scipy first
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_PROBE, json.dumps(README_INVOCATIONS)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["codes"] == [EXIT_PASS, EXIT_TOLERANCE, EXIT_TOLERANCE] + [EXIT_PASS] * 6
    assert report["scipy"] == []
