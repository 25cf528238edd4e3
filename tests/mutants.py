"""Mutation gate for the bit-level references and the verdicts: each mutant must fail its test file.

"Every output bit for bit" rests on references that recompute values in a
written order: tests/test_cov_kernel.py, test_s2_batched.py,
test_classify.py (the Hopf residual and the grid oracle's Newton steps),
test_polynomial.py and test_integrate_reference.py.  A verdict rests on
inputs near its threshold or literal numbers at its bounds (test_cli.py)
or on an independent oracle (test_cauchy.py, test_deformation.py).  A
reference that a later change rewrites could stop seeing what it was
written to see.  So each mutant below changes one sum order or factor,
drops one term, flips one sign (a zero's too) or loosens one gate in a
copy of src/, and the named test file, run to the end against the copy,
must fail; the gate prints how many of its tests failed.  A source text
that is not found exactly once fails the gate too, so a mutant cannot go
stale silently.

    python tests/mutants.py
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (file under src/cauchys3, exact source text, replacement, test file)
MUTANTS = [
    (  # the dot helper reassociated: a0*b0 + (a1*b1 + a2*b2)
        "tensor.py",
        "return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]",
        "return a[0] * b[0] + (a[1] * b[1] + a[2] * b[2])",
        "test_cov_kernel.py",
    ),
    (  # one matmul entry reassociated
        "tensor.py",
        "a0 * b0 + a1 * b3 + a2 * b6,",
        "a0 * b0 + (a1 * b3 + a2 * b6),",
        "test_s2_batched.py",
    ),
    (  # the trace helper reassociated
        "tensor.py",
        "return m[0] + m[4] + m[8]",
        "return m[0] + (m[4] + m[8])",
        "test_cov_kernel.py",
    ),
    (  # the -A Gamma_k term of [Gamma_k, A] dropped from cov_entries
        "tensor.py",
        "v = rows[j][1](v, m[3 * i + rows[j][0]])",
        "pass",
        "test_cov_kernel.py",
    ),
    (  # every +-1 of Gamma_k signed as the other chirality's
        "tensor.py",
        "np.add if g[i, l] > 0 else np.subtract",
        "np.subtract if g[i, l] > 0 else np.add",
        "test_cov_kernel.py",
    ),
    (  # (M X)_i summed in einsum's order (0, 2, 1)
        "cauchy.py",
        "_lin(zip(x, m[3 * i : 3 * i + 3]))",
        "_lin((x[j], m[3 * i + j]) for j in (0, 2, 1))",
        "test_cov_kernel.py",
    ),
    (  # the Hopf residual's third equation reassociated
        "classify.py",
        "r3 = (2.0 * (1.0 + f) - (p22 * p33 - b23 * b23)) + (d3[1] - d2[2])",
        "r3 = 2.0 * (1.0 + f) - ((p22 * p33 - b23 * b23) - (d3[1] - d2[2]))",
        "test_classify.py",
    ),
    (  # an off-diagonal projector entry negated instead of subtracted from 0.0: a zero product gives -0.0
        "classify.py",
        "0.0 - q0 * q1",
        "-q0 * q1",
        "test_s2_batched.py",
    ),
    (  # x and p swapped in the first product of a D_xP entry, so it counts p x^T twice
        "classify.py",
        "-x0 * p1 - p0 * x1",
        "-p0 * x1 - p0 * x1",
        "test_s2_batched.py",
    ),
    (  # one cofactor sum of the grid oracle's Cramer step reassociated
        "classify.py",
        "(c12[k] * f0 + c20[k] * f1 + c01[k] * f2) / det",
        "(c12[k] * f0 + (c20[k] * f1 + c01[k] * f2)) / det",
        "test_classify.py",
    ),
    (  # the polynomial's terms summed last to first
        "polynomial.py",
        "for k, cols, coefs in steps:",
        "for k, cols, coefs in steps[::-1]:",
        "test_polynomial.py",
    ),
    (  # a Runge-Kutta stage combination summed last to first
        "cylinder.py",
        "for w, (ka, kb) in zip(weights, slopes):",
        "for w, (ka, kb) in reversed(list(zip(weights, slopes))):",
        "test_integrate_reference.py",
    ),
    (  # the sign of definiteness_check flipped
        "cauchy.py",
        "return True, 1 if tr < 0 else -1",
        "return True, 1 if tr > 0 else -1",
        "test_cauchy.py",
    ),
    (  # verify's gate loosened a thousandfold
        "cli.py",
        "passed = max_res < config.tolerance",
        "passed = max_res < 1e3 * config.tolerance",
        "test_cli.py",
    ),
    (  # rigidity's Codazzi gate loosened a thousandfold
        "cli.py",
        "and equiv_max < 1e-6",
        "and equiv_max < 1e-3",
        "test_cli.py",
    ),
    (  # rigidity's +-Id gate loosened a millionfold
        "cli.py",
        "worst_id < 1e-12",
        "worst_id < 1e-6",
        "test_cli.py",
    ),
    (  # rigidity's scaling-ratio window widened from (5, 20) to (1, 200)
        "cli.py",
        "5.0 < ratio_det < 20.0",
        "1.0 < ratio_det < 200.0",
        "test_cli.py",
    ),
    (  # the cylinder's gates loosened to 1e-3
        "cli.py",
        "drift < 1e-9 and slice_rel < 1e-9 and ricci_rel < 1e-8",
        "drift < 1e-3 and slice_rel < 1e-3 and ricci_rel < 1e-3",
        "test_cli.py",
    ),
    (  # deform's span-membership gate dropped
        "cli.py",
        " and span_err < tol",
        "",
        "test_cli.py",
    ),
    (  # deform's lemma gate dropped
        "cli.py",
        " and lemma_err < tol",
        "",
        "test_cli.py",
    ),
    (  # the e3e3 identity of the V_8 lemma replaced by the e2e2 one, which also vanishes there
        "deformation.py",
        "dd(3, 3) + 4.0 * qv",
        "dd(2, 2) + 4.0 * qv",
        "test_deformation.py",
    ),
]


def _pytest(src: Path, test: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", str(ROOT / "tests" / test)]
    return subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True)


def main() -> int:
    bad = []
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        env = dict(os.environ, PYTHONPATH=str(src))
        probe = [sys.executable, "-c", "import cauchys3; print(cauchys3.__file__)"]
        where = subprocess.run(probe, env=env, capture_output=True, text=True, check=True).stdout.strip()
        if not Path(where).is_relative_to(src):  # the tests would check the unmutated package
            print(f"cauchys3 resolves to {where}, not to the mutated copy")
            return 1
        for name, old, new, test in MUTANTS:
            path = src / "cauchys3" / name
            text = path.read_text()
            if text.count(old) != 1:
                bad.append(f"{name}: {old!r} found {text.count(old)} times, not once")
                continue
            path.write_text(text.replace(old, new))
            try:
                run = _pytest(src, test)
            finally:
                path.write_text(text)
            summary = run.stdout.strip().splitlines()[-1] if run.stdout.strip() else "no output"
            failed = re.search(r"(\d+) failed", summary)
            caught = run.returncode == 1 and failed is not None
            print(f"{'caught' if caught else 'MISSED'}: {name}: {old!r} -> {new!r}; {test}: {summary}")
            if not caught:
                bad.append(f"{name}: {old!r} -> {new!r} failed no test of {test} (exit {run.returncode})")
    for line in bad:
        print(f"mutation gate: {line}", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
