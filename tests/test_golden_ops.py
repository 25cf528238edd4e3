"""Golden op results: a SHA-256 of every benchmark op's result.

`tests/golden/ops.json` holds, for each op that `perfbench/workloads.py`
builds for `s3-exact`, `s3-fd` and `cylinder-s2` at seeds 1 and 7919,
one digest over every array leaf of its result: the dtype, the shape
and the bytes, in the order the result holds them (a dict's keys count
as leaves, and a `CylinderProfile` gives its node arrays, `max_drift`,
`steps` and `singularity`).  That is what "bit for bit" means for the
op results, kept in kilobytes instead of arrays.

The digests hold only where the last bits cannot move: the environment
recorded with them (see `tests/test_golden.py`) must match this
interpreter's, or the test skips and names what differs.  Elsewhere the
golden CLI outputs still compare by value.  What needs no recorded
environment is checked on any machine: the digests that child processes
compute with numpy's SIMD dispatch off, or with OpenBLAS's oldest x86
kernels, equal those of a child with the default environment.  The
file is not regenerated to make a change pass: a change that alters results on purpose records
it in its own commit (`python tests/test_golden_ops.py --write`, about
2 s) and explains the diff.
"""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from test_golden import GOLDEN, _manifest, environment

OPS = GOLDEN / "ops.json"
WORKLOADS = ["s3-exact", "s3-fd", "cylinder-s2"]
SEEDS = [1, 7919]


def _workloads():
    """perfbench/workloads.py, loaded without putting perfbench/ on the path."""
    name = "_golden_perfbench_workloads"
    if name not in sys.modules:
        path = GOLDEN.parent.parent / "perfbench" / "workloads.py"
        spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name]


def _leaves(result):
    if hasattr(result, "max_drift"):  # CylinderProfile
        r = result
        yield from (r.t, r.a, r.b, r.adot, r.bdot, r.max_drift, r.steps, r.singularity)
    elif isinstance(result, dict):
        for key, value in result.items():
            yield key
            yield from _leaves(value)
    elif isinstance(result, (list, tuple)):
        for item in result:
            yield from _leaves(item)
    else:
        yield result


def digest(result) -> str:
    h = hashlib.sha256()
    for leaf in _leaves(result):
        a = np.ascontiguousarray(leaf)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def op_digests(workload: str, seed: int) -> dict:
    w = _workloads().WORKLOADS[workload]
    return {op.name: digest(op.run()) for op in w.build(seed, w.n)}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", WORKLOADS)
def test_op_results_bit_for_bit(workload, seed):
    recorded = json.loads(OPS.read_text())
    env = environment()
    if env is None:
        pytest.skip("numpy < 2.0 cannot report the environment the digests were recorded under")
    moved = [k for k in env if env[k] != recorded["environment"][k]]
    if moved:
        pytest.skip(f"recorded under another environment: {', '.join(moved)} differ")
    want = recorded["ops"][workload][str(seed)]
    got = op_digests(workload, seed)
    assert list(got) == list(want)
    assert [name for name in want if got[name] != want[name]] == []


def test_ops_cover_every_op():
    recorded = json.loads(OPS.read_text())
    assert recorded["environment"] == _manifest()["environment"]
    assert list(recorded["ops"]) == WORKLOADS
    assert all(list(by_seed) == [str(s) for s in SEEDS] for by_seed in recorded["ops"].values())
    assert sum(len(ops) for by_seed in recorded["ops"].values() for ops in by_seed.values()) == 84


# the environments a CPU can put a child in: numpy's AVX2 and AVX-512
# kernels off, and OpenBLAS's kernels for the oldest x86_64 cores
CPU_VARIANTS = {
    "simd-off": {"NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4 X86_V3"},
    "prescott": {"OPENBLAS_CORETYPE": "Prescott"},
}


def _start_child(extra: dict) -> subprocess.Popen:
    """A process that prints the seed-1 digests of every workload and the
    SIMD targets numpy found, as JSON."""
    root = GOLDEN.parent.parent
    path = [str(root / "src"), str(root / "tests"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)), **extra)
    code = (
        "import json; from test_golden import environment; from test_golden_ops import op_digests, WORKLOADS; "
        "env = environment(); "
        "print(json.dumps({'simd': env and env['simd_found'], 'ops': {w: op_digests(w, 1) for w in WORKLOADS}}))"
    )
    return subprocess.Popen([sys.executable, "-c", code], env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)


def test_op_digests_do_not_depend_on_the_cpu():
    children = {name: _start_child(extra) for name, extra in [("default", {}), *CPU_VARIANTS.items()]}
    results = {}
    for name, child in children.items():
        out, err = child.communicate(timeout=600)
        assert child.returncode == 0, err.decode()[-2000:]
        results[name] = json.loads(out)
    base = results.pop("default")["ops"]
    assert list(base) == WORKLOADS and all(base.values())
    simd_off = results["simd-off"]["simd"]
    assert simd_off is None or not set(simd_off) & set(CPU_VARIANTS["simd-off"]["NPY_DISABLE_CPU_FEATURES"].split())
    for name, result in results.items():
        ops = result["ops"]
        moved = [f"{w}:{op}" for w in WORKLOADS for op in base[w] if ops[w][op] != base[w][op]]
        assert moved == [], name


def test_other_environment_skips_and_names_it(monkeypatch):
    moved = dict(json.loads(OPS.read_text())["environment"], numpy="0.0")
    monkeypatch.setattr(sys.modules[__name__], "environment", lambda: moved)
    with pytest.raises(pytest.skip.Exception, match="numpy differ"):
        test_op_results_bit_for_bit("s3-fd", 1)


def test_digest_sees_dtype_shape_and_bits():
    x = np.arange(6.0)
    base = digest(x)
    assert digest(x.copy()) == base
    assert digest(x.reshape(2, 3)) != base
    assert digest(x.view(np.int64)) != base  # same bytes, another dtype
    moved = x.copy()
    moved[3] = np.nextafter(moved[3], np.inf)
    assert digest(moved) != base
    assert digest({"a": 1.0}) != digest({"b": 1.0})


def _write():
    env = environment()
    if env is None:
        sys.exit("the environment cannot be recorded under numpy < 2.0")
    ops = {w: {str(s): op_digests(w, s) for s in SEEDS} for w in WORKLOADS}
    OPS.write_text(json.dumps({"environment": env, "ops": ops}, indent=2) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden_ops.py --write")
    _write()
