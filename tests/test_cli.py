import csv
import io
import json
import os
import re
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


def test_verify_fails_just_above_tolerance():
    # a near-threshold negative: 2.83e-9 fails --tol 1e-10, where a looser gate would pass it
    code, out = run_cli(["--samples", "50", "--tol", "1e-10", "verify", "--expr", "diag(1.000000001,-3,-3)"])
    assert code == EXIT_TOLERANCE
    doc = json.loads(out)
    assert doc["pass"] is False
    assert doc["flatness_max"] == pytest.approx(2.83e-9, rel=1e-2)


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


def test_cylinder_probe_over_a_wide_range():
    # the closed form resolves 8/(2s-1)^3 down to 1e-150, where the
    # sectional curvatures cancel to rounding noise
    code, out = run_cli(["cylinder", "--s", "0.6..1e50", "--probe-curvature"])
    assert code == EXIT_PASS
    norms = json.loads(out)["probe_curvature_norm"]
    assert len(norms) == 8 and all(a < b for a, b in zip(norms, norms[1:]))
    assert norms[0] == pytest.approx(1e-150, rel=1e-12)
    code, out = run_cli(["cylinder", "--s", "0.6..1e300", "--probe-curvature"])
    assert code == EXIT_INPUT and out == ""


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


@pytest.mark.parametrize(
    "argv",
    [
        ["--t", "0..1", "--s", "0.6..0.9"],
        ["--to-singularity", "--t", "0..1"],
        ["--to-singularity", "--s", "0.6..0.9"],
        ["--t", "0..1", "--s", "0.6..0.9", "--to-singularity"],
        ["--s", "0.51..0.9", "--probe-curvature", "--t", "0..1"],
        ["--s", "0.51..0.9", "--probe-curvature", "--to-singularity"],
        ["--probe-curvature", "--to-singularity"],
        ["--probe-curvature", "--t", "0..1"],
        ["--t", "0..1", "--probe-points", "5"],
    ],
    ids=" ".join,
)
def test_cylinder_conflicting_modes_rejected(argv, capsys):
    # at most one of --t, --s and --to-singularity; --probe-curvature needs
    # --s, and --probe-points needs --probe-curvature
    code, out = run_cli(["cylinder"] + argv)
    assert code == EXIT_INPUT and out == ""
    err = capsys.readouterr().err
    assert err.startswith("cylinder: ") and err.count("\n") == 1


def test_human_format_keeps_one_line_per_key():
    code, out = run_cli(["--format", "human", "--samples", "20", "verify", "--expr", "diag(2,\n2,\t2)"])
    assert code == EXIT_TOLERANCE
    _assert_well_formed(out, "human")
    assert "field: diag(2,\\u000a2,\\u00092)\n" in out


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


_WHITESPACE = st.text(alphabet=" \t\n\r\x0b\x0c", max_size=3)


@st.composite
def _field_spec(draw):
    # entries joined by any whitespace, control characters among it: the
    # spec is echoed into the report's "field", which must stay strict JSON
    head, n = draw(st.sampled_from([("diag", 3), ("sym", 6)]))
    entries = draw(st.lists(_poly_entry(), min_size=n, max_size=n))
    return f"{head}({''.join(e + ',' + draw(_WHITESPACE) for e in entries[:-1])}{entries[-1]})"


_KEY = r"[A-Za-z_]\w*(\.\w+)*"


def _assert_well_formed(out: str, output_format: str):
    """Strict JSON of schema 1, a CSV table, or `dotted.key: value` lines."""
    if output_format == "json":
        assert json.loads(out, parse_constant=_reject_constant)["schema"] == 1
    elif output_format == "csv":
        header, *rows = csv.reader(io.StringIO(out))
        assert rows and all(len(r) == len(header) for r in rows)
        if header == ["key", "value"]:  # a report without rows: every leaf
            assert rows[0] == ["schema", "1"] and all(re.fullmatch(_KEY, r[0]) for r in rows)
    else:
        lines = out.splitlines()
        assert out.endswith("\n") and lines[0] == "schema: 1"
        assert all(re.fullmatch(_KEY + ": .*", line) for line in lines)


def _leaves(node, key=""):
    """(dotted key, text) for every leaf of a parsed JSON document: the
    text a float has in the document, JSON's literals, and a string with
    U+0000-U+001F, backslash and quote escaped as the document does."""
    if isinstance(node, (dict, list)):
        for k, v in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _leaves(v, f"{key}.{k}" if key else str(k))
    elif isinstance(node, str):
        escaped = (f"\\u{ord(c):04x}" if c < " " else "\\" + c if c in '\\"' else c for c in node)
        yield key, "".join(escaped)
    else:
        yield key, format(node, ".17g") if isinstance(node, float) else json.dumps(node)


def _assert_holds_every_leaf(out: str, output_format: str, doc: dict):
    """Human output is one line per leaf of the JSON document, in its
    order; CSV is one row per leaf, or for a report with rows their table."""
    leaves = list(_leaves(doc))
    if output_format == "human":
        assert out.splitlines() == [f"{k}: {v}" for k, v in leaves]
    elif "rows" in doc:
        header, *rows = csv.reader(io.StringIO(out))
        assert header == list(doc["rows"][0]) and len(rows) == len(doc["rows"])
        for k, v in leaves:
            if k.startswith("rows."):
                i, column = k.split(".")[1:]
                assert rows[int(i)][header.index(column)] == v, k
    else:
        assert list(csv.reader(io.StringIO(out))) == [["key", "value"], *map(list, leaves)]


def _run_argv_cleanly(argv):
    """Exit code and stdout of main(argv); fails on a traceback, a warning or
    output that is not well formed in the `--format=` that argv asks for."""
    err = io.StringIO()
    with warnings.catch_warnings(), redirect_stderr(err):
        warnings.simplefilter("error")
        try:
            code, out = run_cli(argv)
        except SystemExit as exc:  # argparse rejects a malformed option
            code, out = exc.code, ""
    assert code in (EXIT_PASS, EXIT_TOLERANCE, EXIT_INPUT, EXIT_SINGULARITY)
    assert "Traceback" not in err.getvalue()
    output_format = next((a[len("--format=") :] for a in argv if a.startswith("--format=")), "json")
    if out:
        _assert_well_formed(out, output_format)
    return code, out


@given(spec=_field_spec())
@example(spec="diag(2,\n2,\t2)")
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
def _shared_options(draw):
    argv = []
    if draw(st.booleans()):
        argv.append(f"--seed={draw(st.one_of(st.integers(-3, 2**70).map(str), st.sampled_from(['1.5', 'x'])))}")
    if draw(st.booleans()):
        argv.append(f"--samples={draw(st.one_of(st.integers(-3, 120).map(str), st.just('1e3')))}")
    for flag in ("--tol", "--fd-step"):
        if draw(st.booleans()):
            argv.append(f"{flag}={draw(_NUMBER)}")
    return argv


@st.composite
def _run_options(draw):
    argv = draw(_shared_options())
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


# one invocation of each subcommand, and each mode of cylinder
_SUBCOMMANDS = [
    ["verify", "--builtin", "left-133"],
    ["verify", "--expr", "sym(a1, 0, 0, a2, 0, a3)"],
    ["classify", "--grid-oracle"],
    ["deform"],
    ["cylinder", "--t", "0..1"],
    ["cylinder", "--s", "0.6..0.9"],
    ["cylinder", "--to-singularity"],
    ["cylinder", "--s", "0.51..0.9", "--probe-curvature"],
    ["rigidity"],
]


@pytest.mark.parametrize("command", _SUBCOMMANDS, ids=" ".join)
@pytest.mark.parametrize("output_format", ["csv", "human"])
@given(seed=st.integers(0, 2**40), samples=st.integers(1, 40))
@settings(max_examples=2, deadline=None)
def test_every_subcommand_in_csv_and_human_ends_cleanly(command, output_format, seed, samples):
    # and loses no field of the same run's JSON document
    argv = [f"--seed={seed}", f"--samples={samples}", *command]
    code, out = _run_argv_cleanly([f"--format={output_format}", *argv])
    if command == ["deform"] and samples == 1:  # one point cannot tell the five basis fields apart
        assert code == EXIT_INPUT and out == ""
        return
    assert code in (EXIT_PASS, EXIT_TOLERANCE) and out
    json_code, json_out = run_cli(argv)
    assert code == json_code
    _assert_holds_every_leaf(out, output_format, json.loads(json_out))


@pytest.mark.parametrize("output_format", ["json", "csv", "human"])
def test_closed_stdout_exits_input_without_traceback(output_format):
    # the reader of stdout is gone before the report is written
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = [f"--format={output_format}", "cylinder", "--t", "0..1"]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "cauchys3.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, env=env, text=True, timeout=300,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == EXIT_INPUT
    assert proc.stderr.startswith("cylinder: ") and proc.stderr.count("\n") == 1, proc.stderr


_PROBE_POINTS = st.one_of(
    st.integers(-3, 300).map(str), st.sampled_from(["1.5", "x", "", "1e3", str(2**70)])
)


@given(
    lo=st.one_of(st.floats(0.0, 2.0), st.just(0.5)),
    hi=st.one_of(st.floats(0.5, 4.0), st.floats(4.0, 1e6)),
    points=_PROBE_POINTS,
    output_format=st.sampled_from(["json", "csv", "human"]),
)
@example(lo=0.51, hi=0.9, points=str(2**70), output_format="json")
@settings(max_examples=20, deadline=None)
def test_probe_points_end_cleanly(lo, hi, points, output_format):
    argv = [f"--format={output_format}", "cylinder", f"--s={lo!r}..{hi!r}", "--probe-curvature"]
    code, out = _run_argv_cleanly(argv + [f"--probe-points={points}"])
    if points.lstrip("-").isdigit() and int(points) < 2:
        assert code == EXIT_INPUT and out == ""
    if code in (EXIT_PASS, EXIT_TOLERANCE) and output_format == "json":
        assert len(json.loads(out)["probe_curvature_norm"]) == int(points)


@given(options=_shared_options(), output_format=st.sampled_from(["json", "csv", "human"]))
@example(options=[], output_format="csv")
@example(options=["--seed=3", "--samples=5", "--tol=1e-3", "--fd-step=1e-4"], output_format="human")
@settings(max_examples=20, deadline=None)
def test_to_singularity_with_shared_options_ends_cleanly(options, output_format):
    # the run ignores --seed, --samples, --tol and --fd-step, but validates them
    code, out = _run_argv_cleanly([f"--format={output_format}", *options, "cylinder", "--to-singularity"])
    assert code in (EXIT_PASS, EXIT_INPUT)
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


@pytest.mark.parametrize(
    "fd_step,code,equiv_max", [("1e-3", EXIT_TOLERANCE, 2.30e-6), ("5e-4", EXIT_PASS, 5.76e-7)]
)
def test_rigidity_codazzi_gate_near_threshold(fd_step, code, equiv_max):
    # the FD Codazzi equivalence straddles its 1e-6 gate: a looser gate would pass the 1e-3 run
    got, out = run_cli(["--fd-step", fd_step, "rigidity"])
    doc = json.loads(out)
    assert doc["codazzi_equivalence_max"] == pytest.approx(equiv_max, rel=1e-2)
    assert got == code
    assert doc["pass"] is (code == EXIT_PASS)


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
    assert main(["--samples", "1", "deform"]) == EXIT_INPUT
    assert capsys.readouterr().err.endswith("deform: needs --samples >= 2\n")
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


@pytest.mark.parametrize("step", ["1e-300", "1e-17"])
def test_fd_step_below_machine_epsilon_rejected(step, capsys):
    # p +- h X rounds to p, so every central difference is exactly 0 and the
    # Codazzi check would compare two derivative-free sides
    code, out = run_cli(["--fd-step", step, "rigidity"])
    assert code == EXIT_INPUT and out == ""
    err = capsys.readouterr().err
    assert "fd-step" in err and "machine epsilon" in err


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


def test_verify_overflowing_field_output_is_strict_json(capsys):
    # a coefficient that overflows to inf would make every residual NaN, so
    # the spec is refused before anything is evaluated
    for number in ["9" * 400, "1e400", "1e200*1e200", "-1e308-1e308"]:
        code, out = run_cli(["--samples", "20", "verify", "--expr", f"diag({number},1,1)"])
        assert code == EXIT_INPUT and out == ""
        err = capsys.readouterr().err
        assert err.startswith("verify: ") and "not finite" in err
    # finite coefficients whose values or residuals overflow, with every
    # numpy warning an error and no errstate around the run
    for spec in ["diag(1e308*a1^2,1,1)", "diag(1e308 + 1e308*a1,1,1)"]:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run_cli(["--samples", "20", "verify", "--expr", spec])
        assert code == EXIT_INPUT and out == ""
        err = capsys.readouterr().err
        assert err.startswith("verify: field too large for floating point: ") and err.count("\n") == 1


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


# the ten invocations of the README's command list
README_INVOCATIONS = [
    ["verify", "--builtin", "left-133"],
    ["verify", "--expr", "diag(2,2,2)"],
    ["verify", "--expr", "sym(a1, 0, 0, a2, 0, a3)"],
    ["classify", "--grid-oracle"],
    ["deform"],
    ["cylinder", "--t", "0..3"],
    ["cylinder", "--to-singularity"],
    ["cylinder", "--s", "0.6..0.9"],
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
    assert report["codes"] == [EXIT_PASS, EXIT_TOLERANCE, EXIT_TOLERANCE] + [EXIT_PASS] * 7
    assert report["scipy"] == []
