"""The benchmark's own tests: a wrong result is a counted failure.

Run from the root of a checkout:  python3 -m pytest -q perfbench
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

c = workloads.import_package()


def _pass(ops):
    tally = run.Tally()
    run.run_pass(ops, tally, {op.name: [] for op in ops})
    return tally


@pytest.mark.parametrize("build,n", [(workloads.build_s3_exact, 200), (workloads.build_s3_fd, 200), (workloads.build_cylinder_s2, 5)])
def test_seeded_pass_is_correct(build, n):
    ops = build(3, n)
    tally = _pass(ops)
    assert tally.attempted == len(ops) and tally.correct, tally.failures


def test_wrong_result_counts_as_failure(monkeypatch):
    ops = workloads.build_s3_exact(3, 200)
    original = c.flatness_residual_norms
    monkeypatch.setattr(c, "flatness_residual_norms", lambda A, pts: original(A, pts) + 1e-6)
    tally = _pass(ops)
    assert tally.attempted == len(ops)
    assert not tally.correct
    # the five solutions and the diag(2,2,2) control; the failing spec stays failing
    assert len(tally.failures) == 6, tally.failures
    assert all(f.startswith("flatness:") for f in tally.failures)


def test_crash_counts_as_failure_and_run_goes_on():
    def boom():
        raise RuntimeError("kaput")

    ops = [workloads.Op("boom", 1, boom, lambda r: None), workloads.Op("ok", 1, lambda: 0, lambda r: None)]
    tally = _pass(ops)
    assert tally.attempted == 2 and len(tally.failures) == 1 and "kaput" in tally.failures[0]


def test_nothing_attempted_is_not_correct():
    assert not run.Tally().correct


@pytest.mark.parametrize(
    "stdout,code,previous,problem",
    [
        ('{"schema": 1, "pass": true, "x": NaN}', 0, None, "strict JSON"),
        ('{"schema": 2, "pass": true}', 0, None, "schema"),
        ('{"schema": 1, "pass": true}', 1, None, "exit code"),
        ('{"schema": 1, "pass": false}', 0, None, "pass flag"),
        ('{"schema": 1, "pass": true}', 0, '{"schema": 1,  "pass": true}', "differs"),
    ],
)
def test_cli_check_rejects(stdout, code, previous, problem):
    with pytest.raises(workloads.CheckFailed, match=problem):
        workloads.check_cli_output(code, stdout, 0, lambda doc: None, previous)


def test_tracer_counts_repeat_and_restore():
    pts = c.random_points(50, seed=0)
    quartic = c.right_family_left_frame()
    original = c.Poly.__call__
    with Tracer() as tracer:
        for _ in range(2):
            snap = tracer.snapshot()
            c.flatness_residual_norms(quartic, pts)
            assert tracer.since(snap)[1]["Poly.__call__"] == 54
        assert tracer.self_s["cauchy.flatness"] > 0
    assert c.Poly.__call__ is original
    assert c.flatness_residual_norms is c.cauchy.flatness_residual_norms


def test_fails_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "s3-exact", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") and '"correct"' in line for line in proc.stdout.splitlines())
