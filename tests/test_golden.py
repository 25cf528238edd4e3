"""Golden outputs: stdout and exit code of the README invocations.

`tests/golden/manifest.json` lists each invocation with its exit code
and the file that holds its stdout, plus the environment the files were
recorded under.  The files are not regenerated to make a change pass:
a change that alters output on purpose records new ones in its own
commit (`python tests/test_golden.py --write`, which runs each
invocation as a fresh `python -m cauchys3.cli` process) and explains
the diff.

When this interpreter matches the recorded environment (Python
major.minor, the numpy version, numpy's found SIMD targets, the BLAS
build and the C library), stdout must match byte for byte.  Elsewhere,
and where numpy cannot report these (numpy < 2.0), the last bits of a
float may legitimately move (another `pow`, another BLAS kernel), so
both documents are parsed and compared value by value:
keys, strings, integers, booleans and exit codes exactly, floats within
a relative 1e-8 (the ODE-versus-closed-form tolerance) or an absolute
1e-10 (the flatness tolerance and the CLI's default `--tol`).  The
cylinder export's absolute residual columns are zero up to rounding of
terms as large as its curvature scale 8/(2s-1)^3, which reaches 1e18
near s = 1/2; their absolute tolerance is 1e-10 times 1 + that scale, at
the row's s (at the smallest s of the rows for the summary's maxima).
"""

import copy
import io
import json
import math
import os
import platform
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"

# the README invocations CI runs, two more rigidity runs, the benchmark's
# field spec and two runs to an s target
INVOCATIONS = [
    ["verify", "--builtin", "left-133"],
    ["verify", "--expr", "diag(2,2,2)"],
    ["verify", "--expr", "sym(a1, 0, 0, a2, 0, a3)"],
    ["classify", "--grid-oracle"],
    ["deform"],
    ["cylinder", "--t", "0..3"],
    ["cylinder", "--to-singularity"],
    ["cylinder", "--s", "0.51..0.9", "--probe-curvature"],
    ["rigidity"],
    ["--seed", "7919", "rigidity"],
    ["--samples", "37", "rigidity"],
    ["verify", "--expr", "sym(a1*a2 - a3^2, a4, a1*a3, 1 + a2^3, a4*a1, -a1)"],
    ["cylinder", "--s", "0.6..0.9"],
    ["cylinder", "--s", "0.6..2"],
]

REL_TOL = 1e-8
ABS_TOL = 1e-10
# the absolute residual columns of a cylinder row, and the summary maxima over them
SCALED_ROW_KEYS = ("slice_residual_max", "ricci_norm")
SCALED_SUMMARY_KEYS = ("max_slice_residual", "max_ricci_norm")


ENV_KEYS = ["python", "numpy", "simd_found", "blas", "libc"]


def environment() -> "dict | None":
    """This interpreter's environment as the manifest records it, or None
    where numpy does not expose it (`numpy._core` and `show_config(mode=)`
    need numpy >= 2.0): None never equals the recorded environment, so
    the documents are then compared by value."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_id = blas.get("openblas configuration", f"{blas.get('name')} {blas.get('version')}")
    except (ImportError, TypeError, KeyError, AttributeError):
        return None
    return {
        "python": ".".join(platform.python_version_tuple()[:2]),
        "numpy": np.__version__,
        "simd_found": [f for f in __cpu_dispatch__ if __cpu_features__.get(f)],
        "blas": blas_id,
        "libc": " ".join(platform.libc_ver()),
    }


def _stem(argv) -> str:
    return "-".join("".join(c if c.isalnum() or c == "." else "_" for c in a).strip("_") for a in argv)


def curvature_tolerance(s: float) -> float:
    """ABS_TOL times 1 + 8/(2s-1)^3, the curvature scale of the cylinder at s."""
    u = 2.0 * s - 1.0
    return ABS_TOL * (1.0 + 8.0 / (u * u * u))


def _abs_tolerances(want) -> dict:
    """Absolute tolerances by path where they are not ABS_TOL: the scaled
    residual columns of a cylinder trajectory document."""
    if not (isinstance(want, dict) and want.get("command") == "cylinder" and want.get("rows")):
        return {}
    tols = {}
    for i, row in enumerate(want["rows"]):
        for k in SCALED_ROW_KEYS:
            tols[f"$.rows[{i}].{k}"] = curvature_tolerance(row["s"])
    for k in SCALED_SUMMARY_KEYS:
        tols[f"$.summary.{k}"] = curvature_tolerance(min(row["s"] for row in want["rows"]))
    return tols


def _close(got, want, where="$", tols=None):
    tols = _abs_tolerances(want) if tols is None else tols
    # a scaled column may print as an integer ("96") and still be a float
    if isinstance(want, float) or isinstance(got, float) or where in tols:
        assert isinstance(got, (int, float)) and isinstance(want, (int, float)), where
        assert not isinstance(got, bool) and not isinstance(want, bool), where
        abs_tol = tols.get(where, ABS_TOL)
        assert math.isclose(got, want, rel_tol=REL_TOL, abs_tol=abs_tol), f"{where}: {got!r} != {want!r}"
    elif isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), where
        for k in want:
            _close(got[k], want[k], f"{where}.{k}", tols)
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _close(g, w, f"{where}[{i}]", tols)
    else:
        assert type(got) is type(want) and got == want, f"{where}: {got!r} != {want!r}"


def _manifest() -> dict:
    return json.loads((GOLDEN / "manifest.json").read_text())


def test_manifest_lists_every_invocation():
    manifest = _manifest()
    assert [case["argv"] for case in manifest["invocations"]] == INVOCATIONS
    assert list(manifest["environment"]) == ENV_KEYS
    env = environment()
    assert env is None or list(env) == ENV_KEYS


@pytest.mark.parametrize("argv", INVOCATIONS, ids=_stem)
def test_golden_output(argv):
    from cauchys3.cli import main

    case = next(c for c in _manifest()["invocations"] if c["argv"] == argv)
    want = (GOLDEN / case["stdout"]).read_bytes()
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    assert code == case["exit"]
    _compare(buf.getvalue().encode(), want)


def _compare(got: bytes, want: bytes):
    if _manifest()["environment"] == environment():
        assert got == want
    _close(json.loads(got), json.loads(want))


def _numpy_without_show_config_mode(monkeypatch):
    def show_config():  # numpy < 1.26 takes no `mode`
        pass

    monkeypatch.setattr(np, "show_config", show_config)


def _numpy_without_core(monkeypatch):
    monkeypatch.setitem(sys.modules, "numpy._core._multiarray_umath", None)  # numpy 1.x


@pytest.mark.parametrize("older_numpy", [_numpy_without_show_config_mode, _numpy_without_core])
def test_unreadable_environment_compares_by_value(monkeypatch, older_numpy):
    older_numpy(monkeypatch)
    assert environment() is None
    test_golden_output(["rigidity"])
    want = (GOLDEN / _manifest()["invocations"][8]["stdout"]).read_bytes()
    moved = json.loads(want)
    moved["scaling_ratio_det"] = float(np.nextafter(moved["scaling_ratio_det"], np.inf))
    _compare(json.dumps(moved).encode(), want)  # a last-bit move passes by value
    moved["scaling_ratio_det"] *= 1.0 + 1e-6
    with pytest.raises(AssertionError):
        _compare(json.dumps(moved).encode(), want)


def test_tolerant_comparison_sees_a_changed_value():
    doc = json.loads((GOLDEN / _manifest()["invocations"][8]["stdout"]).read_text())
    _close(json.loads(json.dumps(doc)), doc)
    moved = json.loads(json.dumps(doc))
    moved["scaling_ratio_det"] *= 1.0 + 1e-6
    with pytest.raises(AssertionError):
        _close(moved, doc)
    moved = json.loads(json.dumps(doc))
    moved["pass"] = not doc["pass"]
    with pytest.raises(AssertionError):
        _close(moved, doc)


def test_by_value_fallback_scales_the_cylinder_residuals_by_the_curvature():
    want = json.loads((GOLDEN / "07-cylinder-to_singularity.out").read_text())
    rows = want["rows"]
    at_one = next(i for i, row in enumerate(rows) if row["s"] == 1)
    assert rows[0]["s"] < 0.5 + 2e-6 and min(row["s"] for row in rows) == rows[0]["s"]
    # near s = 1/2 these columns are rounding of terms up to 1e18: a last-bit
    # move passes, and so does a fourfold one, as a change of rounding gave
    for move in (lambda v: float(np.nextafter(v, np.inf)), lambda v: 4.0 * v):
        moved = copy.deepcopy(want)
        for k in SCALED_ROW_KEYS:
            moved["rows"][0][k] = move(float(rows[0][k]))
        for k in SCALED_SUMMARY_KEYS:
            moved["summary"][k] = move(float(want["summary"][k]))
        _close(json.loads(json.dumps(moved)), want)
    # at s = 1 the tolerance is 9e-10: a 1e-6 relative move of an order-one
    # residual fails, in a row and in the summary of a run that starts there
    forward = json.loads((GOLDEN / "06-cylinder-t-0..3.out").read_text())
    assert min(row["s"] for row in forward["rows"]) == 1
    for doc, path in [(want, ("rows", at_one, k)) for k in SCALED_ROW_KEYS] + [
        (forward, ("summary", k)) for k in SCALED_SUMMARY_KEYS
    ]:
        _close(_with_value(doc, path, 1.0), _with_value(doc, path, 1.0))
        with pytest.raises(AssertionError):
            _close(_with_value(doc, path, 1.0 + 1e-6), _with_value(doc, path, 1.0))
    assert math.isclose(curvature_tolerance(1.0), 9e-10)


def _with_value(doc, path, value):
    """A copy of doc with the entry at path (a sequence of keys) set to value."""
    out = copy.deepcopy(doc)
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return out


def _write():
    if environment() is None:
        sys.exit("the environment cannot be recorded under numpy < 2.0")
    src = str(GOLDEN.parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    GOLDEN.mkdir(exist_ok=True)
    cases = []
    for i, argv in enumerate(INVOCATIONS, 1):
        proc = subprocess.run(
            [sys.executable, "-m", "cauchys3.cli", *argv], env=env, capture_output=True, timeout=600
        )
        name = f"{i:02d}-{_stem(argv)}.out"
        (GOLDEN / name).write_bytes(proc.stdout)
        cases.append({"argv": argv, "exit": proc.returncode, "stdout": name})
    manifest = {"environment": environment(), "invocations": cases}
    (GOLDEN / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    _write()
