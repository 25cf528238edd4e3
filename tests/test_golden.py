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
1e-10 (the flatness tolerance and the CLI's default `--tol`).
"""

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

# the nine README invocations CI runs, two more rigidity runs and the
# benchmark's field spec
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
]

REL_TOL = 1e-8
ABS_TOL = 1e-10


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


def _close(got, want, where="$"):
    if isinstance(want, float) or isinstance(got, float):
        assert isinstance(got, (int, float)) and isinstance(want, (int, float)), where
        assert not isinstance(got, bool) and not isinstance(want, bool), where
        assert math.isclose(got, want, rel_tol=REL_TOL, abs_tol=ABS_TOL), f"{where}: {got!r} != {want!r}"
    elif isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), where
        for k in want:
            _close(got[k], want[k], f"{where}.{k}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _close(g, w, f"{where}[{i}]")
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
