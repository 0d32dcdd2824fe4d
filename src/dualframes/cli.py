"""Command-line front end.

Subcommands load frames/windows from JSON, run the constructions and
verifications, print a human-readable summary, and optionally write
machine-readable artifacts (JSON frames/windows, CSV tables, and a JSON
run report via --report).  ``main`` builds the run report, named after the
parsed subcommand; each ``cmd_*`` command fills in its inputs and verdicts
and writes each artifact through ``RunReport.write``, which records it.

Exit codes: 0 on success, 2 when a mathematical contract is violated
(the message names the failed condition and the measured quantity),
3 on parse/shape errors.

Sizes the command line sets are checked against ``SIZE_BUDGET`` before
anything is allocated: a ``--grid`` holds at most that many samples, a sweep
holds at most that many window samples at once and visits at most that many
cells, a Gabor command's class factor (L P/a entries) and lattice-sum table (L b P
entries), whatever the source of its grid, and a ``bspline:N`` window's convolutions
((N - 1) L samples) hold at most that many.  A larger request exits 3.  A file's own
data needs no budget: each size must match it.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
import time
from dataclasses import asdict, dataclass, field
from fractions import Fraction

import numpy as np

from . import io
from .duality import approx_dual_from_mixed, gdual_factorization, gdual_from_corresponding
from .errors import DimensionMismatch, FrameError, ParseError
from .frames import (
    approximation_rate,
    canonical_dual,
    frame_bounds,
    is_riesz,
    mixed_operator,
    random_annihilator,
)
from .gabor import (
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
    mixed_lattice_operator,
    sample_bspline,
    sample_char,
    scaled_gabor_operator,
    walnut_weight,
)
from .oplin import inverse, operator_norm
from .perturbation import transfer_approx_dual
from .tolerances import DUAL_TOL


@dataclass
class RunReport:
    """Verdicts and artifacts of one CLI invocation."""

    command: str
    inputs: list = field(default_factory=list)
    verdicts: dict = field(default_factory=dict)
    artifacts_written: list = field(default_factory=list)
    wall_time_ms: int = 0

    def write(self, path, save, *data) -> None:
        """``save(*data, path)`` and record ``path``; nothing when its flag was not given."""
        if path:
            save(*data, path)
            self.artifacts_written.append(path)


def _write_csv(header, rows, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


# Grid samples and sweep cells one command may ask for (see the module docstring).
SIZE_BUDGET = 1 << 20


def _within_budget(count: int, what: str) -> None:
    if count > SIZE_BUDGET:
        shown = count if count < 10**18 else f"about 10^{len(str(count)) - 1}"
        raise ParseError(f"{what} come to {shown}, over the budget of {SIZE_BUDGET}")


def _lattice_within_budget(grid: GridSpec, a: Fraction | None, b: Fraction) -> None:
    """The class factor's L (P/a) entries (``a`` given and > 0), the lattice-sum table's L (b P)."""
    if a is not None and a > 0:
        _within_budget(grid.total * math.ceil(grid.period / a), "the class-factor entries")
    _within_budget(grid.total * math.ceil(b * grid.period), "the lattice-sum table entries")


def _parse_grid(spec: str) -> GridSpec:
    try:
        s, p = spec.split(":")
        grid = GridSpec(int(s), int(p))
    except (ValueError, TypeError) as exc:
        raise ParseError(f"grid must look like 'samples:period', got {spec!r}") from exc
    _within_budget(grid.total, f"the samples of --grid {spec}")
    return grid


def _parse_fraction(spec: str) -> Fraction:
    try:
        return Fraction(spec)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"not a rational number: {spec!r}") from exc


def _parse_step(spec: str) -> Fraction:
    step = _parse_fraction(spec)
    if not 0 < step <= 1:
        raise ParseError(f"--step must lie in (0, 1], got {spec!r}")
    return step


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
        coeffs = [float(c) for c in spec.split(",")]
    except ValueError:
        coeffs = [math.nan]
    if not all(math.isfinite(c) for c in coeffs):
        raise ParseError(f"--coeffs must look like a,b,c,... (finite numbers), got {spec!r}")
    return coeffs


def _window_from_spec(spec: str, grid: GridSpec | None) -> SampledWindow:
    if spec.startswith("bspline:"):
        if grid is None:
            raise ParseError("generated windows need --grid samples:period")
        try:
            order = int(spec.split(":", 1)[1])
        except ValueError as exc:
            raise ParseError(f"a window must be bspline:N (integer N), char:WIDTH or a window JSON "
                             f"path, got {spec!r}") from exc
        _within_budget((order - 1) * grid.total, f"the samples convolved for {spec}")
        return sample_bspline(order, grid)
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


def _parse_theta(spec: str) -> tuple[int, float] | None:
    """None for ``zero``, else the seed and scale of ``random:SEED:SCALE``."""
    if spec == "zero":
        return None
    try:
        kind, seed, scale = spec.split(":")
        seed, scale = int(seed), float(scale)
    except ValueError:
        kind = None
    if kind != "random" or seed < 0 or not 0.0 <= scale < float("inf"):
        raise ParseError(f"--theta must be zero or --theta random:SEED:SCALE (integer SEED >= 0, "
                         f"finite SCALE >= 0), got {spec!r}")
    return seed, scale


def _print_verdicts(report: RunReport) -> None:
    for key, value in report.verdicts.items():
        if isinstance(value, float):
            print(f"{key}: {value:.12g}")
        else:
            print(f"{key}: {value}")


def cmd_frame_info(args, report: RunReport) -> None:
    report.inputs = [args.path]
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


def cmd_dual(args, report: RunReport) -> None:
    report.inputs = [args.path]
    phi = io.load_frame(args.path)
    if args.mode == "canonical":
        if args.theta is not None:
            raise ParseError("--theta does not apply to --mode canonical")
        result = canonical_dual(phi)
        target = np.eye(phi.dim, dtype=complex)
    else:
        if args.op_file is None:
            raise ParseError(f"--mode {args.mode} requires --op-file")
        report.inputs.append(args.op_file)
        op = io.load_operator(args.op_file)
        theta = None if args.theta is None else random_annihilator(phi, *args.theta)
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
    report.write(args.out, io.save_frame, result)


def cmd_verify(args, report: RunReport) -> None:
    report.inputs = [args.phi, args.psi]
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


def cmd_perturb(args, report: RunReport) -> None:
    report.inputs = [args.phi, args.psi, args.phi_ad]
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
    report.write(args.out, io.save_frame, result.psi_dual)


def cmd_gabor_window(args, report: RunReport) -> None:
    report.inputs = [args.window]
    window = _window_from_spec(args.window, args.grid)
    report.verdicts = {
        "samples_per_unit": window.grid.samples_per_unit,
        "period": window.grid.period,
        "peak": float(np.max(np.abs(window.values))),
    }
    report.write(args.out, io.save_window, window)
    rows = zip(window.grid.points(), window.values.real, window.values.imag)
    report.write(args.csv, _write_csv, ["x", "re", "im"], rows)


def cmd_gabor_dual(args, report: RunReport) -> None:
    report.inputs = [args.window]
    window = _window_from_spec(args.window, args.grid)
    if args.support is not None:
        support = args.support
    elif args.window.startswith("bspline:"):
        support = int(args.window.split(":", 1)[1])
    else:
        raise ParseError("--support is required unless the window is bspline:N")
    _lattice_within_budget(window.grid, None, args.b)
    if args.method == "ck1":
        dual = ck_dual1(window, support, args.b)
    else:
        if not args.coeffs:
            raise ParseError("--method ck2 requires --coeffs a,b,c,...")
        dual = ck_dual2(window, support, args.b, args.coeffs)
    table = janssen_residual_table(window, dual, GaborLattice(Fraction(1), args.b))
    report.verdicts = {"method": args.method, "janssen_residual": float(np.max(table))}
    report.write(args.out, io.save_window, dual)
    report.write(args.csv, _write_csv, ["n", "residual"], enumerate(table))


def cmd_gabor_approx_dual(args, report: RunReport) -> None:
    report.inputs = [args.window, args.dual, args.scale_window]
    window = _window_from_spec(args.window, args.grid)
    dual = _window_from_spec(args.dual, args.grid or window.grid)
    scale = _window_from_spec(args.scale_window, args.grid or window.grid)
    _lattice_within_budget(window.grid, args.a, args.b)
    lat = GaborLattice(args.a, args.b)
    a_op = scaled_gabor_operator(scale, lat)
    result = approx_dual_window(window, dual, a_op, lat)
    mixed = mixed_lattice_operator(window, result, lat)
    report.verdicts = {
        "approximation_rate": approximation_rate(gabor_frame(window, lat), gabor_frame(result, lat)),
        "identity_gap_of_operator": a_op.gap(),
        "mixed_operator_residual": mixed.distance(a_op),
    }
    report.write(args.out, io.save_window, result)
    eigs = gabor_frame(scale, lat).eigenvalues  # the scaling window's kept system: no rebuild
    report.write(args.spectrum_csv, _write_csv, ["index", "eigenvalue"], enumerate(eigs))


def cmd_gabor_verify(args, report: RunReport) -> None:
    report.inputs = [args.window, args.dual]
    window = _window_from_spec(args.window, args.grid)
    dual = _window_from_spec(args.dual, args.grid or window.grid)
    _lattice_within_budget(window.grid, args.a, args.b)
    lat = GaborLattice(args.a, args.b)
    table = janssen_residual_table(window, dual, lat)
    residual = float(np.max(table))
    report.verdicts = {
        "janssen_residual": residual,
        "dual": residual <= DUAL_TOL,
        "approximation_rate": approximation_rate(gabor_frame(window, lat), gabor_frame(dual, lat)),
    }
    report.write(args.csv, _write_csv, ["n", "residual"], enumerate(table))


def cmd_gabor_weight(args, report: RunReport) -> None:
    report.inputs = [args.window]
    window = _window_from_spec(args.window, args.grid)
    weight = walnut_weight(window, args.a)
    report.verdicts = {
        "min": float(weight.values.real.min()),
        "max": float(weight.values.real.max()),
    }
    rows = zip(window.grid.points(), weight.values.real)
    report.write(args.csv, _write_csv, ["x", "weight"], rows)


def _sweep_char(args, report: RunReport) -> None:
    values = [k * args.step for k in range(1, int(1 / args.step) + 1)]  # every multiple in (0, 1]
    windows = {c: sample_char(c, args.grid) for c in values}
    rows = []
    for c in values:
        for cp in values:
            for a in values:
                lat = GaborLattice(a, Fraction(1))
                residual = janssen_residual(windows[c], windows[cp], lat)
                dual = residual <= DUAL_TOL
                criterion = c <= 1 and cp <= 1 and a == min(c, cp)
                agree = dual == criterion
                rows.append(
                    [str(c), str(cp), str(a), residual, int(dual), int(criterion), int(agree)]
                )
    report.verdicts = {"cells": len(rows), "criterion_agreement": all(row[-1] for row in rows)}
    header = ["c", "c_prime", "a", "residual", "dual", "criterion", "agree"]
    report.write(args.out, _write_csv, header, rows)


def _sweep_bspline(args, report: RunReport) -> None:
    """Frequency-step sweep: checks that the explicit dual-generator formula
    is dual exactly when b <= 1/(2 * order - 1)."""
    order = args.bspline
    lo, hi = args.denominators
    s = args.samples
    rows = []
    for den in range(lo, hi + 1):
        b = Fraction(1, den)
        # per-cell grid so that b * period stays an integer
        grid = GridSpec(s, den * max(2, order))
        window = sample_bspline(order, grid)
        candidate = ck_dual1_unchecked(window, order, b)
        residual = janssen_residual(window, candidate, GaborLattice(1, b))
        dual = residual <= DUAL_TOL
        hypothesis = b <= Fraction(1, 2 * order - 1)
        agree = dual == hypothesis
        rows.append([str(b), int(hypothesis), residual, int(dual), int(agree)])
    report.verdicts = {"cells": len(rows), "criterion_agreement": all(row[-1] for row in rows)}
    report.write(args.out, _write_csv, ["b", "hypothesis", "residual", "dual", "agree"], rows)


def cmd_gabor_sweep(args, report: RunReport) -> None:
    if args.char == (args.bspline is not None):
        raise ParseError("choose exactly one of --char or --bspline N")
    if args.char:
        if not args.grid:
            raise ParseError("--char sweeps need --grid samples:period")
        widths = int(1 / args.step)
        _within_budget(widths**3, "the cells of the --char sweep")
        _within_budget(widths * args.grid.total, "the window samples of the --char sweep")
        _lattice_within_budget(args.grid, None, Fraction(1))  # every cell's, as b = 1
        _sweep_char(args, report)
    else:
        lo, hi = args.denominators
        _within_budget(hi - lo + 1, "the cells of the --bspline sweep")
        _within_budget(args.samples * hi * max(2, args.bspline), "the grid samples of the --bspline sweep")
        # cell den's lattice-sum table holds L b P = s den max(2, N)^2 entries; the sweep, their sum
        tables = args.samples * max(2, args.bspline) ** 2 * (lo + hi) * (hi - lo + 1) // 2
        _within_budget(tables, "the lattice-sum table entries of the --bspline sweep")
        _sweep_bspline(args, report)


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
    p.add_argument("--theta", type=_parse_theta, default="zero", help="zero or random:SEED:SCALE")
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

    p = gsub.add_parser("verify", help="duality residual and approximation rate of a window pair")
    p.add_argument("--window", required=True)
    p.add_argument("--dual", required=True)
    p.add_argument("--a", required=True, type=_parse_fraction)
    p.add_argument("--b", required=True, type=_parse_fraction)
    p.add_argument("--grid", type=_parse_grid)
    p.add_argument("--csv")
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
    p.add_argument("--step", type=_parse_step, default="1/4",
                   help="width/step increment in (0, 1] (for --char)")
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
        words = [args.command, getattr(args, "gabor_command", None)]
        report = RunReport(command=" ".join(word for word in words if word))
        start = time.perf_counter()
        args.func(args, report)
    except (ParseError, DimensionMismatch, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except FrameError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report.wall_time_ms = int((time.perf_counter() - start) * 1000)
    _print_verdicts(report)
    for path in report.artifacts_written:
        print(f"wrote {path}")
    if args.report:
        io.dump_json(asdict(report), args.report)
        print(f"wrote {args.report}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
