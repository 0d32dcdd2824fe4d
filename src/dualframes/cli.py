"""Command-line front end.

Subcommands load frames/windows from JSON, run the constructions and
verifications, print a human-readable summary, and optionally write
machine-readable artifacts (JSON frames/windows, CSV tables, and a JSON
run report via --report).  ``main`` builds the run report, named after the
parsed subcommand; each ``cmd_*`` command fills in its verdicts and writes
each artifact through ``RunReport.write``, which records it.

The options of a flag that several subcommands share are declared once, in
``_SHARED``; ``_leaf`` declares a subcommand by naming its input arguments, then its
others, in order.  Every input, ``dual``'s --op-file included, takes one path,
``_load``: it is recorded in ``report.inputs``, then loaded (a frame or operator file,
or a window on --grid, the Gabor pair commands' lattice budgeted after their windows),
and ``main`` passes the loaded inputs to the command.

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


def _bspline_order(spec: str) -> int | None:
    """N of a ``bspline:N`` window spec; None for any other spec."""
    if not spec.startswith("bspline:"):
        return None
    try:
        return int(spec.split(":", 1)[1])
    except ValueError as exc:
        raise ParseError(f"a window must be bspline:N (integer N), char:WIDTH or a window JSON "
                         f"path, got {spec!r}") from exc


def _window_from_spec(spec: str, grid: GridSpec | None) -> SampledWindow:
    if spec.startswith(("bspline:", "char:")) and grid is None:
        raise ParseError("generated windows need --grid samples:period")
    order = _bspline_order(spec)
    if order is not None:
        _within_budget((order - 1) * grid.total, f"the samples convolved for {spec}")
        return sample_bspline(order, grid)
    if spec.startswith("char:"):
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


def _files(read):
    """A loader of file inputs, each read by ``read``."""
    return lambda args, paths: [read(path) for path in paths]


def _windows(args, specs) -> list:
    """Each window spec read on --grid, or with no --grid on the first window's grid."""
    grid, windows = args.grid, []
    for spec in specs:
        windows.append(_window_from_spec(spec, grid))
        grid = windows[0].grid
    return windows


def _windows_on_lattice(args, specs) -> list:
    """The windows, then the lattice (--a, --b) once its sizes on their grid are within budget."""
    windows = _windows(args, specs)
    _lattice_within_budget(windows[0].grid, args.a, args.b)
    return [*windows, GaborLattice(args.a, args.b)]


def _load(args, report: RunReport, names, load) -> list:
    """The one input path: record the inputs named by ``names`` in the run report, then load them."""
    specs = [getattr(args, name) for name in names]
    report.inputs += specs
    return load(args, specs)


def cmd_frame_info(args, report: RunReport, frame) -> None:
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


def cmd_dual(args, report: RunReport, phi) -> None:
    if args.mode == "canonical":
        for flag, value in (("--theta", args.theta), ("--op-file", args.op_file)):
            if value is not None:
                raise ParseError(f"{flag} does not apply to --mode canonical")
        result = canonical_dual(phi)
        target = np.eye(phi.dim, dtype=complex)
    else:
        if args.op_file is None:
            raise ParseError(f"--mode {args.mode} requires --op-file")
        [op] = _load(args, report, ["op_file"], _files(io.load_operator))
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


def cmd_verify(args, report: RunReport, phi, psi) -> None:
    verdict = gdual_factorization(phi, psi)
    report.verdicts = {
        "kind": verdict.kind,
        "rate": verdict.rate,
        "factor_residual": verdict.factor_residual,
        "bessel_bound_ok": verdict.bessel_bound_ok,
        "bessel_margin": verdict.bessel_margin,
    }


def cmd_perturb(args, report: RunReport, phi, psi, phi_ad) -> None:
    result = transfer_approx_dual(phi, psi, phi_ad)
    report.verdicts = {
        "predicted_diff_bound": result.predicted_diff_bound,
        "measured_diff_bound": result.measured_diff_bound,
        "mixed_match_residual": result.mixed_match_residual,
        "smallness": result.smallness,
    }
    report.write(args.out, io.save_frame, result.psi_dual)


def cmd_gabor_window(args, report: RunReport, window) -> None:
    report.verdicts = {
        "samples_per_unit": window.grid.samples_per_unit,
        "period": window.grid.period,
        "peak": float(np.max(np.abs(window.values))),
    }
    report.write(args.out, io.save_window, window)
    rows = zip(window.grid.points(), window.values.real, window.values.imag)
    report.write(args.csv, _write_csv, ["x", "re", "im"], rows)


def cmd_gabor_dual(args, report: RunReport, window) -> None:
    support = _bspline_order(args.window) if args.support is None else args.support
    if support is None:
        raise ParseError("--support is required unless the window is bspline:N")
    _lattice_within_budget(window.grid, None, args.b)
    if args.method == "ck1":
        if args.coeffs is not None:
            raise ParseError("--coeffs does not apply to --method ck1")
        dual = ck_dual1(window, support, args.b)
    else:
        if not args.coeffs:
            raise ParseError("--method ck2 requires --coeffs a,b,c,...")
        dual = ck_dual2(window, support, args.b, args.coeffs)
    table = janssen_residual_table(window, dual, GaborLattice(Fraction(1), args.b))
    report.verdicts = {"method": args.method, "janssen_residual": float(np.max(table))}
    report.write(args.out, io.save_window, dual)
    report.write(args.csv, _write_csv, ["n", "residual"], enumerate(table))


def cmd_gabor_approx_dual(args, report: RunReport, window, dual, scale, lat) -> None:
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


def cmd_gabor_verify(args, report: RunReport, window, dual, lat) -> None:
    table = janssen_residual_table(window, dual, lat)
    residual = float(np.max(table))
    report.verdicts = {
        "janssen_residual": residual,
        "dual": residual <= DUAL_TOL,
        "approximation_rate": approximation_rate(gabor_frame(window, lat), gabor_frame(dual, lat)),
    }
    report.write(args.csv, _write_csv, ["n", "residual"], enumerate(table))


def cmd_gabor_weight(args, report: RunReport, window) -> None:
    weight = walnut_weight(window, args.a)
    report.verdicts = {
        "min": float(weight.values.real.min()),
        "max": float(weight.values.real.max()),
    }
    rows = zip(window.grid.points(), weight.values.real)
    report.write(args.csv, _write_csv, ["x", "weight"], rows)


def _sweep_char(args) -> tuple[list, list]:
    """Width/step sweep of indicator windows: the CSV header and rows."""
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
    return ["c", "c_prime", "a", "residual", "dual", "criterion", "agree"], rows


def _sweep_bspline(args) -> tuple[list, list]:
    """Frequency-step sweep: checks that the explicit dual-generator formula
    is dual exactly when b <= 1/(2 * order - 1).  The CSV header and rows."""
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
    return ["b", "hypothesis", "residual", "dual", "agree"], rows


# Each sweep mode's flags and their defaults (None: no default); a flag of the other mode exits 3.
_SWEEP_FLAGS = {"char": {"grid": None, "step": Fraction(1, 4)},
                "bspline": {"samples": 10, "denominators": (2, 10)}}


def cmd_gabor_sweep(args, report: RunReport) -> None:
    if args.char == (args.bspline is not None):
        raise ParseError("choose exactly one of --char or --bspline N")
    mode, other = ("char", "bspline") if args.char else ("bspline", "char")
    for name in _SWEEP_FLAGS[other]:
        if getattr(args, name) is not None:
            raise ParseError(f"--{name} does not apply to --{mode} sweeps")
    vars(args).update({name: v for name, v in _SWEEP_FLAGS[mode].items() if getattr(args, name) is None})
    if args.char:
        if not args.grid:
            raise ParseError("--char sweeps need --grid samples:period")
        widths = int(1 / args.step)
        _within_budget(widths**3, "the cells of the --char sweep")
        _within_budget(widths * args.grid.total, "the window samples of the --char sweep")
        _lattice_within_budget(args.grid, None, Fraction(1))  # every cell's, as b = 1
        header, rows = _sweep_char(args)
    else:
        (lo, hi), order = args.denominators, max(2, args.bspline)
        _within_budget(hi - lo + 1, "the cells of the --bspline sweep")
        _within_budget(args.samples * hi * order, "the grid samples of the --bspline sweep")
        # cell den's lattice-sum table holds L b P = s den max(2, N)^2 entries; the sweep, their sum
        tables = args.samples * order * order * (lo + hi) * (hi - lo + 1) // 2
        _within_budget(tables, "the lattice-sum table entries of the --bspline sweep")
        header, rows = _sweep_bspline(args)
    report.verdicts = {"cells": len(rows), "criterion_agreement": all(row[-1] for row in rows)}
    report.write(args.out, _write_csv, header, rows)


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ParseError (exit 3) instead of exiting with argparse's 2."""

    def error(self, message):
        raise ParseError(f"{self.prog}: {message}")


# The options of each flag that several subcommands share; a flag with none needs no entry.
_SHARED = {
    "--window": dict(required=True, help="bspline:N, char:p/q, or a window JSON path"),
    "--dual": dict(required=True),
    "--a": dict(required=True, type=_parse_fraction),
    "--b": dict(required=True, type=_parse_fraction),
    "--grid": dict(type=_parse_grid, help="samples:period"),
}


def _leaf(sub, name: str, help: str, func, inputs, *others, load=_files(io.load_frame)):
    """Subcommand ``name`` running ``func``.  Its arguments are ``inputs``, which ``load``
    reads (see ``_load``), then ``others``, then --report.  Each is given by name, with its
    options from ``_SHARED`` if it has any there, or as a (name, options) pair whose options
    add to or override those."""
    p = sub.add_parser(name, help=help)
    actions = []
    for argument in [*inputs, *others]:
        flag, options = (argument, {}) if isinstance(argument, str) else argument
        actions.append(p.add_argument(flag, **{**_SHARED.get(flag, {}), **options}))
    p.add_argument("--report", metavar="PATH", help="write a JSON run report")
    p.set_defaults(func=func, inputs=[action.dest for action in actions[:len(inputs)]], load=load)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dualframes",
        description="Finite frames, dual-type constructions, and discrete Gabor systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _leaf(sub, "frame-info", "print bounds and basic verdicts for a frame", cmd_frame_info, ["path"])
    _leaf(sub, "dual", "construct a dual-type frame", cmd_dual, ["path"],
          ("--mode", dict(choices=["canonical", "approx", "gdual"], default="canonical")),
          ("--op-file", dict(help="operator JSON (target mixed operator / corresponding operator)")),
          ("--theta", dict(type=_parse_theta, default="zero", help="zero or random:SEED:SCALE")),
          "--out")
    _leaf(sub, "verify", "classify a frame pair and report the factorization", cmd_verify, ["phi", "psi"])
    _leaf(sub, "perturb", "transfer an approximate dual to a nearby frame", cmd_perturb,
          ["phi", "psi", "phi_ad"], "--out")

    g = sub.add_parser("gabor", help="Gabor window constructions and verdicts")
    gsub = g.add_subparsers(dest="gabor_command", required=True)
    _leaf(gsub, "window", "generate or re-export a sampled window", cmd_gabor_window,
          ["--window"], "--grid", "--out", "--csv", load=_windows)
    _leaf(gsub, "dual", "explicit dual generators on the unit time lattice", cmd_gabor_dual,
          ["--window"], "--grid", "--b", ("--method", dict(choices=["ck1", "ck2"], default="ck1")),
          ("--support", dict(type=int, default=None)),
          ("--coeffs", dict(type=_parse_coeffs, help="comma-separated coefficients for ck2")),
          "--out", ("--csv", dict(help="write the per-shift residual table")), load=_windows)
    _leaf(gsub, "approx-dual", "approximately dual window from a scaling system", cmd_gabor_approx_dual,
          ["--window", "--dual", ("--scale-window", dict(required=True))], "--a", "--b", "--grid", "--out",
          "--spectrum-csv", load=_windows_on_lattice)
    _leaf(gsub, "verify", "duality residual and approximation rate of a window pair", cmd_gabor_verify,
          ["--window", "--dual"], "--a", "--b", "--grid", "--csv", load=_windows_on_lattice)
    _leaf(gsub, "weight", "periodized shift-energy weight", cmd_gabor_weight,
          ["--window"], "--a", "--grid", "--csv", load=_windows)
    _leaf(gsub, "sweep", "parameter sweep with CSV verdicts", cmd_gabor_sweep, [],
          ("--char", dict(action="store_true", help="sweep indicator-window widths and time steps")),
          ("--bspline", dict(type=int, default=None, metavar="N",
                             help="sweep the frequency step for the order-N dual generator")),
          ("--grid", dict(help="samples:period (for --char)")),
          ("--step", dict(type=_parse_step, help="width/step increment in (0, 1] (for --char; default 1/4)")),
          ("--samples", dict(type=int, help="samples per unit (for --bspline; default 10)")),
          ("--denominators", dict(type=_parse_denominators,
                                  help="LO:HI range of 1/b (for --bspline; default 2:10)")),
          "--out")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        words = [args.command, getattr(args, "gabor_command", None)]
        report = RunReport(command=" ".join(word for word in words if word))
        start = time.perf_counter()
        args.func(args, report, *_load(args, report, args.inputs, args.load))
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
