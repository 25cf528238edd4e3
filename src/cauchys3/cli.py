"""Command-line front end: seeded, machine-readable verification runs.

Subcommands

    verify    flatness + Gauss-Codazzi residuals of a specified field
    classify  the constant-frame solution set with residual confirmation
    deform    Berger-Laplacian eigenvalue, dimension and pairing report
    cylinder  trajectory export with residual/Ricci summaries
    rigidity  S^2 rigidity residuals and the Codazzi equivalence check

All floats in JSON output are printed with 17 significant digits and
the document layout is fixed, so identical configurations (including
the seed) produce byte-identical output.  Exit codes: 0 pass,
1 tolerance failure, 2 input error, 3 singularity reached when not
requested.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass

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
from .exprspec import ParseError, parse_field_spec
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
    output_format: str = "json"

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


def _fmt_float(x: float) -> str:
    """17 significant digits; a non-finite value becomes the JSON string
    "NaN", "Infinity" or "-Infinity", so the document stays strict JSON."""
    if not math.isfinite(x):
        return '"NaN"' if x != x else ('"Infinity"' if x > 0 else '"-Infinity"')
    return format(float(x), ".17g")


# JSON's string escapes (control characters U+0000-U+001F, backslash, quote); human output uses them too
_ESCAPES = {c: f"\\u{c:04x}" for c in range(32)} | {ord("\\"): "\\\\", ord('"'): '\\"'}


def canonical_json(obj, indent: int = 0) -> str:
    """Fixed-layout JSON with 17-significant-digit floats."""
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
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if obj is None:
        return "null"
    return '"' + str(obj).translate(_ESCAPES) + '"'


def emit(report: dict, config: RunConfig, stream=None) -> None:
    stream = stream or sys.stdout
    if config.output_format == "json":
        stream.write(canonical_json(report) + "\n")
    elif config.output_format == "csv":
        import csv  # here, so that a JSON run does not import it

        # csv quotes a field that holds a comma or a quote, so a non-finite
        # float goes in bare: a reader gets "NaN" back either way
        out, rows = csv.writer(stream, lineterminator="\n"), report.get("rows")
        if rows:
            out.writerow(rows[0])
            for r in rows:
                vals = (r[c] for c in rows[0])
                out.writerow(_fmt_float(v).strip('"') if isinstance(v, (float, np.floating)) else str(v) for v in vals)
        else:
            out.writerow(["key", "value"])
            scalars = (int, float, str, bool, np.floating, np.integer)
            out.writerows((k, str(v)) for k, v in report.items() if isinstance(v, scalars))
    else:  # human
        _emit_human(report, stream)


def _emit_human(report, stream, prefix=""):
    for k, v in report.items():
        if isinstance(v, dict):
            stream.write(f"{prefix}{k}:\n")
            _emit_human(v, stream, prefix + "  ")
        elif isinstance(v, list):
            stream.write(f"{prefix}{k}: [{len(v)} entries]\n")
        else:
            stream.write(f"{prefix}{k}: {str(v).translate(_ESCAPES)}\n")


def _config_block(config: RunConfig) -> dict:
    return {
        "seed": config.seed,
        "samples": config.samples,
        "tolerance": config.tolerance,
        "fd_step": config.fd_step,
    }


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


# a finite field spec whose values or residuals overflow ends in FloatingPointError, not in warnings
@np.errstate(over="raise")
def cmd_verify(args, config: RunConfig) -> int:
    if (args.builtin is None) == (args.expr is None):
        print("verify: give exactly one of --builtin / --expr", file=sys.stderr)
        return EXIT_INPUT
    try:
        field = (
            known_example(args.builtin) if args.builtin else parse_field_spec(args.expr)
        )
    except (ParseError, ValueError) as exc:
        print(f"verify: {exc}", file=sys.stderr)
        return EXIT_INPUT
    pts = random_points(config.samples, seed=config.seed)
    try:
        norms = flatness_residual_norms(field, pts)
        gc_scalar, gc_vec = gauss_codazzi_residual(field, pts)
        rms = float(np.sqrt(np.mean(norms**2)))
    except FloatingPointError as exc:
        print(f"verify: field too large for floating point: {exc}", file=sys.stderr)
        return EXIT_INPUT
    max_res = float(np.max(norms))
    passed = max_res < config.tolerance
    report = {
        "schema": SCHEMA_VERSION,
        "command": "verify",
        "config": _config_block(config),
        "field": args.builtin or args.expr,
        "frame_pairs": [list(p) for p in FRAME_PAIRS],
        "flatness_max": max_res,
        "flatness_rms": rms,
        "gauss_codazzi_scalar_max": float(np.max(np.abs(gc_scalar))),
        "gauss_codazzi_vector_max": float(np.max(np.abs(gc_vec))),
        "pass": bool(passed),
    }
    emit(report, config)
    return EXIT_PASS if passed else EXIT_TOLERANCE


def cmd_classify(args, config: RunConfig) -> int:
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
    report = {
        "schema": SCHEMA_VERSION,
        "command": "classify",
        "config": _config_block(config),
        "count": len(rows),
        "rows": rows,
        "pass": bool(ok),
    }
    if args.grid_oracle:
        brute = sorted(cls.constant_frame_solutions_bruteforce())
        report["grid_oracle_matches"] = bool(set(brute) == set(sols))
        report["grid_oracle_count"] = len(brute)
        ok = ok and report["grid_oracle_matches"]
        report["pass"] = bool(ok)
    emit(report, config)
    return EXIT_PASS if ok else EXIT_TOLERANCE


def cmd_deform(args, config: RunConfig) -> int:
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
    report = {
        "schema": SCHEMA_VERSION,
        "command": "deform",
        "config": _config_block(config),
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
    emit(report, config)
    return EXIT_PASS if ok else EXIT_TOLERANCE


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
def cmd_cylinder(args, config: RunConfig) -> int:
    probe = None
    try:
        if (args.t is not None) + (args.s is not None) + args.to_singularity > 1:
            raise ValueError("give at most one of --t, --s, --to-singularity")
        if args.s is not None:
            s_lo, s_hi = _parse_range(args.s)
            if s_lo >= s_hi:
                raise ValueError(f"s ranges need LO < HI, got {args.s!r}")
        if args.probe_curvature:
            if args.s is None:
                raise ValueError("--probe-curvature requires --s LO..HI")
            if args.probe_points < 2:
                raise ValueError("--probe-points must be at least 2")
            svals = np.linspace(s_hi, s_lo, args.probe_points)  # decreasing toward 1/2
            probe = cyl.curvature_blowup_probe(svals)
            profile = None
        elif args.to_singularity:
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
        rows = None if profile is None else cyl.trajectory_rows(profile)
    except ValueError as exc:
        print(f"cylinder: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (OverflowError, FloatingPointError) as exc:
        print(f"cylinder: range too large for floating point: {exc}", file=sys.stderr)
        return EXIT_INPUT

    report = {
        "schema": SCHEMA_VERSION,
        "command": "cylinder",
        "config": _config_block(config),
    }
    code = EXIT_PASS
    if probe is not None:
        increasing = bool(np.all(np.diff(probe) > 0))
        report["probe_s"] = [float(v) for v in svals]
        report["probe_curvature_norm"] = [float(v) for v in probe]
        report["strictly_increasing"] = increasing
        report["pass"] = increasing
        code = EXIT_PASS if increasing else EXIT_TOLERANCE
    else:
        drift = max(abs(r["conserved"] - 2.0) for r in rows)
        slice_rel = max(r["slice_residual_rel"] for r in rows)
        ricci_rel = max(r["ricci_norm_rel"] for r in rows)
        report["summary"] = {
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
        report["rows"] = rows
        # curvature-scale-relative gates stay meaningful near the boundary
        ok = drift < 1e-9 and slice_rel < 1e-9 and ricci_rel < 1e-8
        if profile.singularity and not args.to_singularity:
            code = EXIT_SINGULARITY
            report["pass"] = False
        else:
            report["pass"] = bool(ok)
            code = EXIT_PASS if ok else EXIT_TOLERANCE
    emit(report, config)
    return code


def cmd_rigidity(args, config: RunConfig) -> int:
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
    report = {
        "schema": SCHEMA_VERSION,
        "command": "rigidity",
        "config": _config_block(config),
        "identity_rows": rows,
        "perturbation_rows": scaling,
        "scaling_ratio_det": ratio_det,
        "scaling_ratio_div": ratio_div,
        "codazzi_equivalence_max": equiv_max,
        "pass": bool(ok),
    }
    emit(report, config)
    return EXIT_PASS if ok else EXIT_TOLERANCE


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
    cy.add_argument("--probe-points", type=int, default=8)

    sub.add_parser("rigidity", help="S^2 rigidity residuals and Codazzi equivalence")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    config = RunConfig(
        seed=args.seed,
        samples=args.samples,
        tolerance=args.tol,
        fd_step=args.fd_step,
        output_format=args.output_format,
    )
    try:
        config.validate()
    except ValueError as exc:
        print(f"cauchys3: {exc}", file=sys.stderr)
        return EXIT_INPUT
    handler = {
        "verify": cmd_verify,
        "classify": cmd_classify,
        "deform": cmd_deform,
        "cylinder": cmd_cylinder,
        "rigidity": cmd_rigidity,
    }[args.command]
    return handler(args, config)


if __name__ == "__main__":
    sys.exit(main())
