"""Command-line front end.

Subcommands load frames/windows from JSON, run the constructions and
verifications, print a human-readable summary, and optionally write
machine-readable artifacts (JSON frames/windows, CSV tables, and a JSON
run report via --report).

Exit codes: 0 on success, 2 when a mathematical contract is violated
(the message names the failed condition and the measured quantity),
3 on parse/shape errors.
"""

from __future__ import annotations

import argparse
import csv
import sys
import time
from dataclasses import asdict, dataclass, field
from fractions import Fraction

import numpy as np

from . import io
from .duality import approx_dual_from_mixed, gdual_factorization, gdual_from_corresponding
from .errors import DimensionMismatch, FrameError, ParseError
from .frames import (
    Annihilator,
    Frame,
    approximation_rate,
    canonical_dual,
    frame_bounds,
    is_riesz,
    mixed_operator,
    random_annihilator,
)
from .gabor import (
    GABOR_DUAL_TOL,
    GaborLattice,
    GridSpec,
    SampledWindow,
    approx_dual_window,
    ck_dual1,
    ck_dual1_unchecked,
    ck_dual2,
    gabor_frame,
    janssen_residual,
    janssen_residual_table,
    sample_bspline,
    sample_char,
    scaled_gabor_operator,
    walnut_weight,
)
from .oplin import inverse, operator_norm
from .perturbation import transfer_approx_dual


@dataclass
class RunReport:
    """Verdicts and artifacts of one CLI invocation."""

    command: str
    inputs: list = field(default_factory=list)
    verdicts: dict = field(default_factory=dict)
    artifacts_written: list = field(default_factory=list)
    wall_time_ms: int = 0


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _parse_grid(spec: str) -> GridSpec:
    try:
        s, p = spec.split(":")
        return GridSpec(int(s), int(p))
    except (ValueError, TypeError) as exc:
        raise ParseError(f"grid must look like 'samples:period', got {spec!r}") from exc


def _parse_fraction(spec: str) -> Fraction:
    try:
        return Fraction(spec)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"not a rational number: {spec!r}") from exc


def _parse_denominators(spec: str) -> tuple[int, int]:
    try:
        lo, hi = (int(t) for t in spec.split(":"))
    except ValueError:
        lo = hi = 0
    if not 2 <= lo <= hi:
        raise ParseError(f"--denominators must look like LO:HI with 2 <= LO <= HI, got {spec!r}")
    return lo, hi


def _parse_coeffs(spec: str) -> list[float]:
    try:
        return [float(c) for c in spec.split(",")]
    except ValueError as exc:
        raise ParseError(f"--coeffs must look like a,b,c,... (numbers), got {spec!r}") from exc


def _window_from_spec(spec: str, grid: GridSpec | None) -> SampledWindow:
    if spec.startswith("bspline:"):
        if grid is None:
            raise ParseError("generated windows need --grid samples:period")
        return sample_bspline(int(spec.split(":", 1)[1]), grid)
    if spec.startswith("char:"):
        if grid is None:
            raise ParseError("generated windows need --grid samples:period")
        return sample_char(_parse_fraction(spec.split(":", 1)[1]), grid)
    window = io.load_window(spec)
    if grid is not None and window.grid != grid:
        raise ParseError(
            f"{spec}: window grid {window.grid} disagrees with --grid {grid}"
        )
    return window


def _parse_theta(spec: str, phi: Frame) -> Annihilator | None:
    if spec == "zero":
        return None
    if spec.startswith("random:"):
        parts = spec.split(":")
        if len(parts) != 3:
            raise ParseError("--theta random takes the form random:SEED:SCALE")
        return random_annihilator(phi, seed=int(parts[1]), scale=float(parts[2]))
    raise ParseError(f"unknown --theta spec {spec!r}")


def _print_verdicts(report: RunReport) -> None:
    for key, value in report.verdicts.items():
        if isinstance(value, float):
            print(f"{key}: {value:.12g}")
        else:
            print(f"{key}: {value}")


def cmd_frame_info(args) -> RunReport:
    report = RunReport(command="frame-info", inputs=[args.path])
    frame = io.load_frame(args.path)
    bounds = frame_bounds(frame)
    report.verdicts = {
        "dim": frame.dim,
        "count": frame.count,
        "lower_bound": bounds.lower,
        "upper_bound": bounds.upper,
        "is_frame": bounds.lower > 0.0,
        "is_riesz": is_riesz(frame),
        "condition_number": bounds.upper / bounds.lower if bounds.lower > 0 else float("inf"),
    }
    return report


def cmd_dual(args) -> RunReport:
    report = RunReport(command="dual", inputs=[args.path])
    phi = io.load_frame(args.path)
    theta = _parse_theta(args.theta, phi)
    if args.mode == "canonical":
        if theta is not None:
            raise ParseError("--theta does not apply to --mode canonical")
        result = canonical_dual(phi)
        target = np.eye(phi.dim, dtype=complex)
    else:
        if args.op_file is None:
            raise ParseError(f"--mode {args.mode} requires --op-file")
        report.inputs.append(args.op_file)
        op = io.load_operator(args.op_file)
        if args.mode == "approx":
            result = approx_dual_from_mixed(phi, op, theta)
            target = op
        else:
            result = gdual_from_corresponding(phi, op, theta)
            target = inverse(op)
    report.verdicts = {
        "mode": args.mode,
        "approximation_rate": approximation_rate(phi, result),
        "mixed_operator_residual": operator_norm(mixed_operator(phi, result) - target),
    }
    if args.out:
        io.save_frame(result, args.out)
        report.artifacts_written.append(args.out)
    return report


def cmd_verify(args) -> RunReport:
    report = RunReport(command="verify", inputs=[args.phi, args.psi])
    phi = io.load_frame(args.phi)
    psi = io.load_frame(args.psi)
    verdict = gdual_factorization(phi, psi)
    report.verdicts = {
        "kind": verdict.kind,
        "rate": verdict.rate,
        "factor_residual": verdict.factor_residual,
        "bessel_bound_ok": verdict.bessel_bound_ok,
        "bessel_margin": verdict.bessel_margin,
    }
    return report


def cmd_perturb(args) -> RunReport:
    report = RunReport(command="perturb", inputs=[args.phi, args.psi, args.phi_ad])
    phi = io.load_frame(args.phi)
    psi = io.load_frame(args.psi)
    phi_ad = io.load_frame(args.phi_ad)
    result = transfer_approx_dual(phi, psi, phi_ad)
    report.verdicts = {
        "predicted_diff_bound": result.predicted_diff_bound,
        "measured_diff_bound": result.measured_diff_bound,
        "mixed_match_residual": result.mixed_match_residual,
        "smallness": result.smallness,
    }
    if args.out:
        io.save_frame(result.psi_dual, args.out)
        report.artifacts_written.append(args.out)
    return report


def cmd_gabor_window(args) -> RunReport:
    report = RunReport(command="gabor window", inputs=[args.window])
    window = _window_from_spec(args.window, args.grid)
    report.verdicts = {
        "samples_per_unit": window.grid.samples_per_unit,
        "period": window.grid.period,
        "peak": float(np.max(np.abs(window.values))),
    }
    if args.out:
        io.save_window(window, args.out)
        report.artifacts_written.append(args.out)
    if args.csv:
        x = window.grid.points()
        rows = zip(x, window.values.real, window.values.imag)
        _write_csv(args.csv, ["x", "re", "im"], rows)
        report.artifacts_written.append(args.csv)
    return report


def cmd_gabor_dual(args) -> RunReport:
    report = RunReport(command="gabor dual", inputs=[args.window])
    window = _window_from_spec(args.window, args.grid)
    if args.support is not None:
        support = args.support
    elif args.window.startswith("bspline:"):
        support = int(args.window.split(":", 1)[1])
    else:
        raise ParseError("--support is required unless the window is bspline:N")
    if args.method == "ck1":
        dual = ck_dual1(window, support, args.b)
    else:
        if not args.coeffs:
            raise ParseError("--method ck2 requires --coeffs a,b,c,...")
        dual = ck_dual2(window, support, args.b, args.coeffs)
    lat = GaborLattice(Fraction(1), args.b)
    residual = janssen_residual(window, dual, lat)
    report.verdicts = {"method": args.method, "janssen_residual": residual}
    if args.out:
        io.save_window(dual, args.out)
        report.artifacts_written.append(args.out)
    if args.csv:
        table = janssen_residual_table(window, dual, lat)
        _write_csv(args.csv, ["n", "residual"], enumerate(table))
        report.artifacts_written.append(args.csv)
    return report


def cmd_gabor_approx_dual(args) -> RunReport:
    report = RunReport(
        command="gabor approx-dual", inputs=[args.window, args.dual, args.scale_window]
    )
    window = _window_from_spec(args.window, args.grid)
    dual = _window_from_spec(args.dual, args.grid or window.grid)
    scale = _window_from_spec(args.scale_window, args.grid or window.grid)
    lat = GaborLattice(args.a, args.b)
    a_op = scaled_gabor_operator(scale, lat)
    result = approx_dual_window(window, dual, a_op, lat)
    system = gabor_frame(window, lat)
    out_system = gabor_frame(result, lat)
    rate = approximation_rate(system, out_system)
    report.verdicts = {
        "approximation_rate": rate,
        "identity_gap_of_operator": operator_norm(
            np.eye(window.grid.total) - a_op
        ),
        "mixed_operator_residual": operator_norm(
            mixed_operator(system, out_system) - a_op
        ),
    }
    if args.out:
        io.save_window(result, args.out)
        report.artifacts_written.append(args.out)
    if args.spectrum_csv:
        eigs = gabor_frame(scale, lat).eigenvalues
        _write_csv(args.spectrum_csv, ["index", "eigenvalue"], enumerate(eigs))
        report.artifacts_written.append(args.spectrum_csv)
    return report


def cmd_gabor_verify(args) -> RunReport:
    report = RunReport(command="gabor verify", inputs=[args.window, args.dual])
    window = _window_from_spec(args.window, args.grid)
    dual = _window_from_spec(args.dual, args.grid or window.grid)
    lat = GaborLattice(args.a, args.b)
    residual = janssen_residual(window, dual, lat)
    report.verdicts = {
        "janssen_residual": residual,
        "dual": residual <= GABOR_DUAL_TOL,
    }
    if args.materialize:
        rate = approximation_rate(gabor_frame(window, lat), gabor_frame(dual, lat))
        report.verdicts["materialized_rate"] = rate
    if args.csv:
        table = janssen_residual_table(window, dual, lat)
        _write_csv(args.csv, ["n", "residual"], enumerate(table))
        report.artifacts_written.append(args.csv)
    return report


def cmd_gabor_weight(args) -> RunReport:
    report = RunReport(command="gabor weight", inputs=[args.window])
    window = _window_from_spec(args.window, args.grid)
    weight = walnut_weight(window, args.a)
    report.verdicts = {
        "min": float(weight.values.real.min()),
        "max": float(weight.values.real.max()),
    }
    if args.csv:
        rows = zip(window.grid.points(), weight.values.real)
        _write_csv(args.csv, ["x", "weight"], rows)
        report.artifacts_written.append(args.csv)
    return report


def _sweep_char(args) -> RunReport:
    report = RunReport(command="gabor sweep", inputs=[])
    values = []
    v = args.step
    while v <= 1:
        values.append(v)
        v += args.step
    windows = {c: sample_char(c, args.grid) for c in values}
    rows = []
    agree_all = True
    for c in values:
        for cp in values:
            for a in values:
                lat = GaborLattice(a, Fraction(1))
                residual = janssen_residual(windows[c], windows[cp], lat)
                dual = residual <= GABOR_DUAL_TOL
                criterion = c <= 1 and cp <= 1 and a == min(c, cp)
                agree = dual == criterion
                agree_all = agree_all and agree
                rows.append(
                    [str(c), str(cp), str(a), residual, int(dual), int(criterion), int(agree)]
                )
    report.verdicts = {"cells": len(rows), "criterion_agreement": agree_all}
    if args.out:
        _write_csv(
            args.out,
            ["c", "c_prime", "a", "residual", "dual", "criterion", "agree"],
            rows,
        )
        report.artifacts_written.append(args.out)
    return report


def _sweep_bspline(args) -> RunReport:
    """Frequency-step sweep: checks that the explicit dual-generator formula
    is dual exactly when b <= 1/(2 * order - 1)."""
    report = RunReport(command="gabor sweep", inputs=[])
    order = args.bspline
    lo, hi = args.denominators
    s = args.samples
    rows = []
    agree_all = True
    for den in range(lo, hi + 1):
        b = Fraction(1, den)
        # per-cell grid so that b * period stays an integer
        grid = GridSpec(s, den * max(2, order))
        window = sample_bspline(order, grid)
        candidate = ck_dual1_unchecked(window, order, b)
        residual = janssen_residual(window, candidate, GaborLattice(1, b))
        dual = residual <= GABOR_DUAL_TOL
        hypothesis = b <= Fraction(1, 2 * order - 1)
        agree = dual == hypothesis
        agree_all = agree_all and agree
        rows.append([str(b), int(hypothesis), residual, int(dual), int(agree)])
    report.verdicts = {"cells": len(rows), "criterion_agreement": agree_all}
    if args.out:
        _write_csv(args.out, ["b", "hypothesis", "residual", "dual", "agree"], rows)
        report.artifacts_written.append(args.out)
    return report


def cmd_gabor_sweep(args) -> RunReport:
    if args.char == (args.bspline is not None):
        raise ParseError("choose exactly one of --char or --bspline N")
    if args.char:
        if not args.grid:
            raise ParseError("--char sweeps need --grid samples:period")
        return _sweep_char(args)
    return _sweep_bspline(args)


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ParseError (exit 3) instead of exiting with argparse's 2."""

    def error(self, message):
        raise ParseError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dualframes",
        description="Finite frames, dual-type constructions, and discrete Gabor systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("frame-info", help="print bounds and basic verdicts for a frame")
    p.add_argument("path")
    p.set_defaults(func=cmd_frame_info)

    p = sub.add_parser("dual", help="construct a dual-type frame")
    p.add_argument("path")
    p.add_argument("--mode", choices=["canonical", "approx", "gdual"], default="canonical")
    p.add_argument("--op-file", help="operator JSON (target mixed operator / corresponding operator)")
    p.add_argument("--theta", default="zero", help="zero or random:SEED:SCALE")
    p.add_argument("--out")
    p.set_defaults(func=cmd_dual)

    p = sub.add_parser("verify", help="classify a frame pair and report the factorization")
    p.add_argument("phi")
    p.add_argument("psi")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("perturb", help="transfer an approximate dual to a nearby frame")
    p.add_argument("phi")
    p.add_argument("psi")
    p.add_argument("phi_ad")
    p.add_argument("--out")
    p.set_defaults(func=cmd_perturb)

    g = sub.add_parser("gabor", help="Gabor window constructions and verdicts")
    gsub = g.add_subparsers(dest="gabor_command", required=True)

    p = gsub.add_parser("window", help="generate or re-export a sampled window")
    p.add_argument("--window", required=True, help="bspline:N, char:p/q, or a window JSON path")
    p.add_argument("--grid", type=_parse_grid, help="samples:period")
    p.add_argument("--out")
    p.add_argument("--csv")
    p.set_defaults(func=cmd_gabor_window)

    p = gsub.add_parser("dual", help="explicit dual generators on the unit time lattice")
    p.add_argument("--window", required=True)
    p.add_argument("--grid", type=_parse_grid)
    p.add_argument("--b", required=True, type=_parse_fraction)
    p.add_argument("--method", choices=["ck1", "ck2"], default="ck1")
    p.add_argument("--support", type=int, default=None)
    p.add_argument("--coeffs", type=_parse_coeffs, help="comma-separated coefficients for ck2")
    p.add_argument("--out")
    p.add_argument("--csv", help="write the per-shift residual table")
    p.set_defaults(func=cmd_gabor_dual)

    p = gsub.add_parser("approx-dual", help="approximately dual window from a scaling system")
    p.add_argument("--window", required=True)
    p.add_argument("--dual", required=True)
    p.add_argument("--scale-window", required=True)
    p.add_argument("--a", required=True, type=_parse_fraction)
    p.add_argument("--b", required=True, type=_parse_fraction)
    p.add_argument("--grid", type=_parse_grid)
    p.add_argument("--out")
    p.add_argument("--spectrum-csv")
    p.set_defaults(func=cmd_gabor_approx_dual)

    p = gsub.add_parser("verify", help="duality residual for a window pair")
    p.add_argument("--window", required=True)
    p.add_argument("--dual", required=True)
    p.add_argument("--a", required=True, type=_parse_fraction)
    p.add_argument("--b", required=True, type=_parse_fraction)
    p.add_argument("--grid", type=_parse_grid)
    p.add_argument("--csv")
    p.add_argument("--materialize", action="store_true",
                   help="also compute the systems' approximation rate (read from residue-class blocks)")
    p.set_defaults(func=cmd_gabor_verify)

    p = gsub.add_parser("weight", help="periodized shift-energy weight")
    p.add_argument("--window", required=True)
    p.add_argument("--a", required=True, type=_parse_fraction)
    p.add_argument("--grid", type=_parse_grid)
    p.add_argument("--csv")
    p.set_defaults(func=cmd_gabor_weight)

    p = gsub.add_parser("sweep", help="parameter sweep with CSV verdicts")
    p.add_argument("--char", action="store_true", help="sweep indicator-window widths and time steps")
    p.add_argument("--bspline", type=int, default=None, metavar="N",
                   help="sweep the frequency step for the order-N dual generator")
    p.add_argument("--grid", type=_parse_grid, help="samples:period (for --char)")
    p.add_argument("--step", type=_parse_fraction, default="1/4",
                   help="width/step increment (for --char)")
    p.add_argument("--samples", type=int, default=10, help="samples per unit (for --bspline)")
    p.add_argument("--denominators", type=_parse_denominators, default="2:10",
                   help="LO:HI range of 1/b (for --bspline)")
    p.add_argument("--out")
    p.set_defaults(func=cmd_gabor_sweep)

    for leaf in [*sub.choices.values(), *gsub.choices.values()]:
        if leaf is not g:
            leaf.add_argument("--report", metavar="PATH", help="write a JSON run report")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        start = time.perf_counter()
        report = args.func(args)
    except (ParseError, DimensionMismatch, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except FrameError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report.wall_time_ms = int((time.perf_counter() - start) * 1000)
    _print_verdicts(report)
    if report.artifacts_written:
        for path in report.artifacts_written:
            print(f"wrote {path}")
    if args.report:
        io.dump_json(asdict(report), args.report)
        print(f"wrote {args.report}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
