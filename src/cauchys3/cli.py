"""Command-line front end: seeded, machine-readable verification runs.

Subcommands

    verify    flatness + Gauss-Codazzi residuals of a specified field
    classify  the constant-frame solution set with residual confirmation
    deform    Berger-Laplacian eigenvalue, dimension and pairing report
    cylinder  trajectory export with residual/Ricci summaries
    rigidity  S^2 rigidity residuals and the Codazzi equivalence check

Every run prints one report: a header (`schema`, `command` and the shared
options as `config`) and the subcommand's body.  A leaf has one text in
every format: a float with 17 significant digits, a non-finite one as NaN,
Infinity or -Infinity, a bool or null as JSON writes it, a string with
U+0000-U+001F, backslash and quote escaped.

    json   the document in a fixed layout, a string or a non-finite
           float quoted, so that it stays strict JSON
    human  one `dotted.key: value` line per leaf (`config.seed: 0`,
           `frame_pairs.0.1: 2`)
    csv    one `key,value` row per leaf; a report with `rows` prints that
           table alone, its other fields being in the JSON and human
           outputs and `pass` in the exit code

Identical configurations (including the seed) produce byte-identical
output.  Exit codes: 0 pass, 1 tolerance failure, 3 singularity reached
when not requested, 2 input error: a bad value, an option the run would
not read (`--probe-points` without `--probe-curvature`), or a stdout
closed before the report is written.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import asdict, dataclass

import numpy as np

from . import classify as cls
from . import cylinder as cyl
from . import deformation as dfm
from .cauchy import (
    FRAME_PAIRS,
    KNOWN_KINDS,
    SymEnd3Field,
    flatness_residual_norms,
    gauss_codazzi_residual,
    known_example,
)
from .exprspec import parse_field_spec
from .frame import Chirality, harmonic_quadratic, random_points
from .polynomial import Poly

SCHEMA_VERSION = 1

EXIT_PASS = 0
EXIT_TOLERANCE = 1
EXIT_INPUT = 2
EXIT_SINGULARITY = 3


@dataclass(frozen=True)
class RunConfig:
    """Shared run options; all serialized into every report."""

    seed: int = 0
    samples: int = 1000
    tolerance: float = 1e-10
    fd_step: float = 1e-5

    def validate(self):
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        for name, value in (("tolerance", self.tolerance), ("fd-step", self.fd_step)):
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be a positive finite number, got {value}")
        # a central difference goes to 0 like 1/h over a step beyond the unit
        # sphere's scale, and is 0 below machine epsilon, where p +- h X rounds
        # to p: either way both sides of a comparison lose their derivatives
        if self.fd_step >= 1:
            raise ValueError(f"fd-step must be below 1, got {self.fd_step}")
        if self.fd_step < sys.float_info.epsilon:
            eps = sys.float_info.epsilon
            raise ValueError(f"fd-step must be at least machine epsilon ({eps:.3g}), got {self.fd_step}")


# ---------------------------------------------------------------------------
# deterministic serialization
# ---------------------------------------------------------------------------


# JSON's string escapes (control characters U+0000-U+001F, backslash, quote), in every format
_ESCAPES = {c: f"\\u{c:04x}" for c in range(32)} | {ord("\\"): "\\\\", ord('"'): '\\"'}
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _text(leaf) -> str:
    """A leaf's text in every format: JSON's for a number, a bool or null,
    a float with 17 significant digits and a non-finite one as NaN,
    Infinity or -Infinity; a string escaped through _ESCAPES, unquoted."""
    if isinstance(leaf, (bool, np.bool_)):
        return "true" if leaf else "false"
    if isinstance(leaf, (int, np.integer)):
        return str(int(leaf))
    if isinstance(leaf, (float, np.floating)):
        text = format(float(leaf), ".17g")
        return _NON_FINITE.get(text, text)
    return "null" if leaf is None else str(leaf).translate(_ESCAPES)


def canonical_json(obj, indent: int = 0) -> str:
    """Fixed-layout JSON with 17-significant-digit floats.  A string, and a
    non-finite float, is a JSON string, so the document stays strict JSON."""
    pad = "  " * indent
    pad_in = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f'{pad_in}"{k}": {canonical_json(v, indent + 1)}' for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{pad_in}{canonical_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    text = _text(obj)
    return f'"{text}"' if isinstance(obj, str) or text in _NON_FINITE.values() else text


def _flatten(node, key=""):
    """(dotted key, leaf) for every leaf of a report, in document order."""
    if isinstance(node, (dict, list, tuple)):
        for k, v in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _flatten(v, f"{key}.{k}" if key else str(k))
    else:
        yield key, node


def emit(report: dict, output_format: str) -> None:
    """Write a report to stdout as JSON, `key: value` lines or CSV."""
    if output_format == "json":
        sys.stdout.write(canonical_json(report) + "\n")
    elif output_format == "human":
        sys.stdout.writelines(f"{key}: {_text(leaf)}\n" for key, leaf in _flatten(report))
    else:
        import csv  # here, so that a JSON run does not import it

        # csv quotes a cell that holds a comma or a quote; a report with rows
        # prints that table alone, any other report one row per leaf
        out, rows = csv.writer(sys.stdout, lineterminator="\n"), report.get("rows")
        if rows:
            out.writerow(rows[0])
            out.writerows([_text(r[c]) for c in rows[0]] for r in rows)
        else:
            out.writerow(["key", "value"])
            out.writerows((key, _text(leaf)) for key, leaf in _flatten(report))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


# a finite field spec whose values or residuals overflow ends in FloatingPointError, not in warnings
@np.errstate(over="raise")
def cmd_verify(args, config: RunConfig) -> tuple:
    if (args.builtin is None) == (args.expr is None):
        raise ValueError("give exactly one of --builtin / --expr")
    field = known_example(args.builtin) if args.builtin else parse_field_spec(args.expr)
    pts = random_points(config.samples, seed=config.seed)
    norms = flatness_residual_norms(field, pts)
    gc_scalar, gc_vec = gauss_codazzi_residual(field, pts)
    max_res = float(np.max(norms))
    passed = max_res < config.tolerance
    body = {
        "field": args.builtin or args.expr,
        "frame_pairs": [list(p) for p in FRAME_PAIRS],
        "flatness_max": max_res,
        "flatness_rms": float(np.sqrt(np.mean(norms**2))),
        "gauss_codazzi_scalar_max": float(np.max(np.abs(gc_scalar))),
        "gauss_codazzi_vector_max": float(np.max(np.abs(gc_vec))),
        "pass": bool(passed),
    }
    return body, EXIT_PASS if passed else EXIT_TOLERANCE


def cmd_classify(args, config: RunConfig) -> tuple:
    sols = sorted(cls.constant_frame_solutions())
    pts = random_points(min(config.samples, 200), seed=config.seed)
    rows = []
    ok = True
    for (a, b, c), chir in [(s, "left") for s in sols] + [
        (tuple(-x for x in s), "right")
        for s in sols
        if s not in ((1.0, 1.0, 1.0), (-1.0, -1.0, -1.0))
    ]:
        field = SymEnd3Field.from_constant_matrix(
            np.diag([a, b, c]), Chirality.LEFT if chir == "left" else Chirality.RIGHT
        )
        res = float(np.max(flatness_residual_norms(field, pts)))
        ok = ok and res < config.tolerance
        rows.append(
            {
                "chirality": chir,
                "a": a,
                "b": b,
                "c": c,
                "cyclic_residual": float(
                    np.max(np.abs(cls.constant_frame_residual((a, b, c) if chir == "left" else (-a, -b, -c))))
                ),
                "flatness_max": res,
            }
        )
    body = {"count": len(rows), "rows": rows, "pass": bool(ok)}
    if args.grid_oracle:
        brute = sorted(cls.constant_frame_solutions_bruteforce())
        body["grid_oracle_matches"] = bool(set(brute) == set(sols))
        body["grid_oracle_count"] = len(brute)
        ok = ok and body["grid_oracle_matches"]
        body["pass"] = bool(ok)
    return body, EXIT_PASS if ok else EXIT_TOLERANCE


def cmd_deform(args, config: RunConfig) -> tuple:
    if config.samples < 2:  # one point samples each basis field as a vector of R^3: rank 3, never 5
        raise ValueError("needs --samples >= 2")
    n = min(config.samples, 200)
    pts = random_points(n, seed=config.seed)
    rep = dfm.deformation_report(pts)
    eig_err = 0.0
    lemma_err = 0.0
    for k in (1, 2, 3):
        q = harmonic_quadratic(k)
        eig_err = max(
            eig_err, float(np.max(np.abs(dfm.berger_laplacian(q, pts) - 8.0 * q(pts))))
        )
        lemma_err = max(lemma_err, float(np.max(np.abs(dfm.lemma_derivative_checks(k, pts)))))
    ok = (
        rep["solution_space_dim"] == 5
        and rep["image_span_dim"] == 2
        and rep["span_membership_error"] < config.tolerance
        and eig_err < config.tolerance
        and lemma_err < config.tolerance
    )
    body = {
        "solution_space_dim": rep["solution_space_dim"],
        "image_span_dim": rep["image_span_dim"],
        "span_membership_error": rep["span_membership_error"],
        "pairing_error": rep["pairing_error"],
        "berger_eigenvalue8_error": eig_err,
        "lemma_derivative_error": lemma_err,
        "lie_e2_A0": [[float(v) for v in row] for row in dfm.LIE_E2_A0],
        "lie_e3_A0": [[float(v) for v in row] for row in dfm.LIE_E3_A0],
        "pass": bool(ok),
    }
    return body, EXIT_PASS if ok else EXIT_TOLERANCE


def _parse_range(text: str) -> tuple:
    parts = text.split("..")
    if len(parts) != 2:
        raise ValueError(f"expected LO..HI, got {text!r}")
    lo, hi = float(parts[0]), float(parts[1])
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"range bounds must be finite, got {text!r}")
    return lo, hi


# an overflow anywhere in the probe or the export ends in FloatingPointError, not in warnings
@np.errstate(over="raise")
def cmd_cylinder(args, config: RunConfig) -> tuple:
    if (args.t is not None) + (args.s is not None) + args.to_singularity > 1:
        raise ValueError("give at most one of --t, --s, --to-singularity")
    if args.probe_points is not None and not args.probe_curvature:
        raise ValueError("--probe-points requires --probe-curvature")
    if args.s is not None:
        s_lo, s_hi = _parse_range(args.s)
        if s_lo >= s_hi:
            raise ValueError(f"s ranges need LO < HI, got {args.s!r}")
    if args.probe_curvature:
        if args.s is None:
            raise ValueError("--probe-curvature requires --s LO..HI")
        points = 8 if args.probe_points is None else args.probe_points
        if points < 2:
            raise ValueError("--probe-points must be at least 2")
        svals = np.linspace(s_hi, s_lo, points)  # decreasing toward 1/2
        probe = cyl.curvature_blowup_probe(svals)
        increasing = bool(np.all(np.diff(probe) > 0))
        body = {
            "probe_s": [float(v) for v in svals],
            "probe_curvature_norm": [float(v) for v in probe],
            "strictly_increasing": increasing,
            "pass": increasing,
        }
        return body, EXIT_PASS if increasing else EXIT_TOLERANCE
    if args.to_singularity:
        profile = cyl.integrate(t_end=-10.0)
    elif args.t is not None:
        lo, hi = _parse_range(args.t)
        if lo != 0.0:
            raise ValueError("t ranges start at 0 (initial data lives there)")
        profile = cyl.integrate(t_end=hi)
    elif args.s is not None:
        profile = cyl.integrate(s_end=s_hi if s_hi > 1 else s_lo)
    else:
        raise ValueError("give one of --t, --s, --to-singularity, --probe-curvature")
    rows = cyl.trajectory_rows(profile)
    drift = max(abs(r["conserved"] - 2.0) for r in rows)
    slice_rel = max(r["slice_residual_rel"] for r in rows)
    ricci_rel = max(r["ricci_norm_rel"] for r in rows)
    summary = {
        "nodes": len(rows),
        "boundary_distance_exact": cyl.boundary_distance_exact(),
        "boundary_distance_reached": abs(rows[0]["t"]) if profile.singularity else None,
        "max_conserved_drift": drift,
        "max_prestep_drift": profile.max_drift,
        "max_slice_residual": max(r["slice_residual_max"] for r in rows),
        "max_ricci_norm": max(r["ricci_norm"] for r in rows),
        "max_slice_residual_rel": slice_rel,
        "max_ricci_norm_rel": ricci_rel,
        "singularity": bool(profile.singularity),
    }
    if profile.singularity and not args.to_singularity:
        return {"summary": summary, "rows": rows, "pass": False}, EXIT_SINGULARITY
    # curvature-scale-relative gates stay meaningful near the boundary
    ok = drift < 1e-9 and slice_rel < 1e-9 and ricci_rel < 1e-8
    return {"summary": summary, "rows": rows, "pass": bool(ok)}, EXIT_PASS if ok else EXIT_TOLERANCE


def cmd_rigidity(args, config: RunConfig) -> tuple:
    n = min(config.samples, 100)
    pts = cls.random_s2_points(n, seed=config.seed)
    rng = np.random.default_rng(config.seed + 1)

    def worst(U, p):
        det_res, div_res = cls.s2_rigidity_residual(U, p)
        return {
            "det_residual_max": float(np.max(np.abs(det_res))),
            "div_residual_max": float(np.max(np.abs(div_res))),
        }

    rows = [
        {"field": name, **worst(cls.S2EndField.from_constant(mat), pts)}
        for name, mat in (("plus-id", np.eye(3)), ("minus-id", -np.eye(3)))
    ]
    worst_id = max(max(row["det_residual_max"], row["div_residual_max"]) for row in rows)

    # seeded polynomial perturbation direction, reused across epsilons
    coeffs = rng.normal(size=(3, 3, 4))

    def poly_entry(i, j):
        c = 0.5 * (coeffs[i, j] + coeffs[j, i])
        return sum((c[m + 1] * Poly.coordinate(m, 3) for m in range(3)), Poly.constant(c[0], 3))

    Smats = [[poly_entry(i, j) for j in range(3)] for i in range(3)]
    scaling = []
    for eps in (1e-2, 1e-3):
        mats = [[Poly.constant(float(i == j), 3) + eps * Smats[i][j] for j in range(3)] for i in range(3)]
        scaling.append({"epsilon": eps, **worst(cls.S2EndField.from_polynomial_matrix(mats), pts[:40])})

    ratio_det = scaling[0]["det_residual_max"] / max(scaling[1]["det_residual_max"], 1e-300)
    ratio_div = scaling[0]["div_residual_max"] / max(scaling[1]["div_residual_max"], 1e-300)

    S = cls.S2EndField(func=cls.S2EndField.from_polynomial_matrix(Smats).raw, fd_step=config.fd_step)
    lhs, rhs = cls.codazzi_divfree_equiv(S, pts)
    equiv_max = float(np.max(np.abs(lhs - rhs)))

    ok = (
        worst_id < 1e-12
        and equiv_max < 1e-6
        and 5.0 < ratio_det < 20.0
        and 5.0 < ratio_div < 20.0
    )
    body = {
        "identity_rows": rows,
        "perturbation_rows": scaling,
        "scaling_ratio_det": ratio_det,
        "scaling_ratio_div": ratio_div,
        "codazzi_equivalence_max": equiv_max,
        "pass": bool(ok),
    }
    return body, EXIT_PASS if ok else EXIT_TOLERANCE


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cauchys3",
        description="Verification toolkit for Cauchy endomorphisms on the round 3-sphere.",
        allow_abbrev=False,
    )
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--samples", type=int, default=1000)
    ap.add_argument("--tol", type=float, default=1e-10)
    ap.add_argument("--fd-step", type=float, default=1e-5)
    ap.add_argument(
        "--format", choices=("json", "csv", "human"), default="json", dest="output_format"
    )
    sub = ap.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="flatness residual of a field specification")
    v.add_argument("--builtin", choices=KNOWN_KINDS)
    v.add_argument("--expr", type=str)

    c = sub.add_parser("classify", help="constant-frame solution set")
    c.add_argument("--grid-oracle", action="store_true")

    sub.add_parser("deform", help="deformation space dimensions and residuals")

    cy = sub.add_parser("cylinder", help="generalized-cylinder trajectory")
    cy.add_argument("--t", type=str, help="time range 0..T")
    cy.add_argument("--s", type=str, help="s range LO..HI")
    cy.add_argument("--to-singularity", action="store_true")
    cy.add_argument("--probe-curvature", action="store_true")
    cy.add_argument("--probe-points", type=int, help="probe size, with --probe-curvature (default 8)")

    sub.add_parser("rigidity", help="S^2 rigidity residuals and Codazzi equivalence")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    config = RunConfig(seed=args.seed, samples=args.samples, tolerance=args.tol, fd_step=args.fd_step)
    handler = {
        "verify": cmd_verify,
        "classify": cmd_classify,
        "deform": cmd_deform,
        "cylinder": cmd_cylinder,
        "rigidity": cmd_rigidity,
    }[args.command]
    who = "cauchys3"  # a shared option's error names the program, any later one the subcommand
    try:
        config.validate()
        who = args.command
        body, code = handler(args, config)
    except ValueError as exc:  # ParseError is one
        print(f"{who}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (OverflowError, FloatingPointError) as exc:
        what = {"verify": "field", "cylinder": "range"}.get(who, "input")
        print(f"{who}: {what} too large for floating point: {exc}", file=sys.stderr)
        return EXIT_INPUT
    report = {"schema": SCHEMA_VERSION, "command": args.command, "config": asdict(config), **body}
    try:
        emit(report, args.output_format)
        sys.stdout.flush()  # so that a reader that went away is seen here, not at exit
    except BrokenPipeError:
        # point stdout at devnull, so that the flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"{who}: stdout was closed before the report was written", file=sys.stderr)
        return EXIT_INPUT
    return code


if __name__ == "__main__":
    sys.exit(main())
