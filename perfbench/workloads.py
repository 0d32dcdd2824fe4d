"""The benchmark's workloads: seeded inputs, tasks and their correctness gates.

Each workload builds, from a seed, a fixed cycle of tasks; a run is a
whole number of cycles executed one after the other by a single client
(a closed loop: the next task starts when the previous one returns).
Every task ends in a correctness gate whose tolerances are the pinned
tolerances of the acceptance suite.

Why each workload exists:

* ``frames-dense`` -- the finite-frame pipeline on random frames: nearly
  all work sits in ``oplin``/``frames``/``duality``/``perturbation``, the
  layers that repeated spectral work on the frame operator slows.  No
  Gabor work, no file I/O.
* ``gabor-dense`` -- Gabor window pairs with verdicts on the materialized
  ``L x N`` system: dense materialization and ``L x L`` eigen/SVD work
  dominate.  The criterion-10 case has ``b * P`` not an integer.
* ``cli-files`` -- the ``dualframes`` command line as a subprocess over
  JSON files: process start-up, JSON reads and writes and the lattice-sum
  Gabor path dominate, dense Gabor work is absent.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

import dualframes as df
import dualframes.io  # binds df.io

# Pinned tolerances of the acceptance suite (tests/test_acceptance.py).
RECONSTRUCTION_TOL = 1e-10  # criterion 1; also the mixed-operator match of criterion 2
ROUNDTRIP_TOL = 1e-9  # criterion 2: recovered parameters
TRANSFER_TOL = 1e-9  # criterion 4: mixed match, measured <= predicted + slack
GABOR_DUAL_TOL = 1e-10  # criterion 6: Janssen residual and materialized rate
RATE_GAP_TOL = 1e-9  # criterion 7: rate equals the operator's identity gap
SURROGATE_RATE = 0.02  # criterion 10: Gaussian vs spline surrogate


class GateFailure(Exception):
    """A task's output failed one named correctness check."""

    def __init__(self, check, detail):
        self.check = check
        super().__init__(f"{check}: {detail}")


def require(check: str, ok: bool, detail: str = "") -> None:
    if not ok:
        raise GateFailure(check, detail)


def require_le(check: str, measured: float, threshold: float) -> None:
    # A NaN measurement fails too: the comparison is False.
    require(check, measured <= threshold, f"measured {measured:.3e} > {threshold:.3e}")


def spectral_norm(m) -> float:
    return float(np.linalg.norm(m, 2))


@dataclass
class Task:
    """One unit of client work; ``run`` raises GateFailure when a check fails."""

    kind: str
    run: Callable[[], None]


@dataclass
class Workload:
    """A built workload: its tasks in run order, its warm-up tasks and its input digest."""

    name: str
    tasks: list
    warmup: list
    digest: str
    cli: "CliRunner | None" = None


class _Digest:
    """sha256 over every generated input, in generation order."""

    def __init__(self):
        self._h = hashlib.sha256()

    def add(self, *values) -> None:
        for v in values:
            if isinstance(v, np.ndarray):
                self._h.update(np.ascontiguousarray(v).tobytes())
            else:
                self._h.update(repr(v).encode())

    def hexdigest(self) -> str:
        return self._h.hexdigest()


def _complex_gaussian(rng, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _with_norm(m: np.ndarray, size: float) -> np.ndarray:
    return m * (size / spectral_norm(m))


# ---------------------------------------------------------------- frames-dense

# Sizes (dim, count) and how many tasks of each a cycle holds.  The
# proportion is fixed; the median task is a 64x96 one and the tail falls
# among the 256x384 tasks.
FRAME_MIX = (((8, 12), 1), ((64, 96), 6), ((256, 384), 1))
TRANSFER_EPS = 0.01  # perturbation size, as in criterion 4
THETA_SCALE = 0.5
BUMP_SIZE = 0.3


@dataclass(frozen=True)
class FrameInput:
    phi: np.ndarray
    target: np.ndarray
    theta_seed: int
    perturbation: np.ndarray
    probe: np.ndarray


def _frame_input(rng, dim, count, digest) -> FrameInput:
    inp = FrameInput(
        phi=_complex_gaussian(rng, (dim, count)),
        target=np.eye(dim) + _with_norm(_complex_gaussian(rng, (dim, dim)), BUMP_SIZE),
        theta_seed=int(rng.integers(2**31)),
        perturbation=_with_norm(_complex_gaussian(rng, (dim, count)), TRANSFER_EPS),
        probe=_complex_gaussian(rng, dim),
    )
    digest.add(dim, count, inp.phi, inp.target, inp.theta_seed, inp.perturbation, inp.probe)
    return inp


def frame_task(inp: FrameInput) -> None:
    """The finite-frame pipeline on one frame, gated at the pinned tolerances."""
    phi = df.Frame(inp.phi)
    theta = df.random_annihilator(phi, seed=inp.theta_seed, scale=THETA_SCALE)
    phi_ad = df.approx_dual_from_mixed(phi, inp.target, theta)

    verdict = df.classify_pair(phi, phi_ad)
    require("classify_approx", verdict.kind == "approx", f"kind {verdict.kind}")
    mixed = phi.synthesis @ phi_ad.synthesis.conj().T
    require_le("mixed_match", spectral_norm(mixed - inp.target), RECONSTRUCTION_TOL)
    f = inp.probe
    rebuilt_f = phi.synthesis @ (phi_ad.synthesis.conj().T @ (verdict.corresponding_op @ f))
    require_le("reconstruction", np.linalg.norm(rebuilt_f - f) / np.linalg.norm(f), RECONSTRUCTION_TOL)

    factor = df.gdual_factorization(phi, phi_ad)
    require("factorization_bessel", bool(factor.bessel_bound_ok), f"margin {factor.bessel_margin}")

    whitened, theta_back = df.recover_parameters(phi, phi_ad)
    require_le("theta_recovery", spectral_norm(theta_back.map - theta.map), ROUNDTRIP_TOL)
    again = df.approx_dual_from_whitened(phi, whitened, theta_back)
    require_le("roundtrip", spectral_norm(again.synthesis - phi_ad.synthesis), ROUNDTRIP_TOL)

    psi = df.Frame(inp.phi + inp.perturbation)
    moved = df.transfer_approx_dual(phi, psi, phi_ad)
    require_le("transfer_mixed_match", moved.mixed_match_residual, TRANSFER_TOL)
    require_le(
        "transfer_bound", moved.measured_diff_bound, moved.predicted_diff_bound + TRANSFER_TOL
    )


def build_frames_dense(seed: int, cycles: int) -> Workload:
    rng = np.random.default_rng([seed, 1])
    digest = _Digest()
    tasks = []
    for _ in range(cycles):
        for (dim, count), repeat in FRAME_MIX:
            for _ in range(repeat):
                inp = _frame_input(rng, dim, count, digest)
                tasks.append(Task(f"{dim}x{count}", lambda inp=inp: frame_task(inp)))
    warm = [_frame_input(rng, dim, count, _Digest()) for (dim, count), _ in FRAME_MIX[:2]]
    warmup = [Task("warmup", lambda inp=inp: frame_task(inp)) for inp in warm]
    return Workload("frames-dense", tasks, warmup, digest.hexdigest())


# ----------------------------------------------------------------- gabor-dense

# (samples_per_unit, period, b): b * period is an integer on both grids.
PIPELINE_GRIDS = ((10, 20, Fraction(1, 10)), (16, 32, Fraction(1, 8)))
BOUNDS_GRID = (16, 64, Fraction(1, 8))
SURROGATE_GRID = (16, 32, Fraction(1, 10))  # b * P = 16/5: criterion 10
# One cycle: the 16:32 pipeline, the criterion-10 case and the 16:64
# bounds+rate verdict, each after ten 10:20 pipelines.  The three large
# tasks take most of the time; the small ones, spread over the whole run,
# give the median and the tail enough samples.
_SMALL = (("pipeline", 0),) * 10
GABOR_CYCLE = _SMALL + (("pipeline", 1),) + _SMALL + (("surrogate", None),) + _SMALL + (("bounds", None),)


@dataclass(frozen=True)
class GaborInput:
    grid: df.GridSpec
    b: Fraction
    order: int
    scale_order: int
    scale_profile: np.ndarray


def _gabor_input(rng, s, period, b, digest) -> GaborInput:
    grid = df.GridSpec(s, period)
    # The dual-generator hypothesis needs b <= 1/(2 * order - 1).
    max_order = (int(1 / b) + 1) // 2
    inp = GaborInput(
        grid=grid,
        b=b,
        order=int(rng.integers(2, max_order + 1)),
        scale_order=int(rng.integers(2, 5)),
        scale_profile=1.0 + 0.5 * rng.random(grid.total),
    )
    digest.add(s, period, str(b), inp.order, inp.scale_order, inp.scale_profile)
    return inp


def shift_energy(g: df.SampledWindow) -> np.ndarray:
    """sum_n |g(x - n)|^2 on one unit, computed independently of the library."""
    s, period = g.grid.samples_per_unit, g.grid.period
    return (np.abs(g.values) ** 2).reshape(period, s).sum(axis=0)


def _require_painless_bounds(bounds, g: df.SampledWindow, b: Fraction) -> None:
    """A window supported in [0, 1/b] on the lattice (1, b) has the frame
    bounds min and max of its shift energy over b."""
    energy = shift_energy(g) / float(b)
    err = abs(bounds.lower - energy.min()) + abs(bounds.upper - energy.max())
    require_le("painless_bounds", err, RATE_GAP_TOL * energy.max())


def gabor_pipeline_task(inp: GaborInput) -> None:
    """Window pair, exact dual, bounds, prescribed-rate approximate dual."""
    lat = df.GaborLattice(1, inp.b)
    g = df.sample_bspline(inp.order, inp.grid)
    g_dual = df.ck_dual1(g, inp.order, inp.b)
    residual = df.janssen_residual(g, g_dual, lat)
    require_le("janssen_residual", residual, GABOR_DUAL_TOL)
    system = df.gabor_frame(g, lat)
    rate = df.approximation_rate(system, df.gabor_frame(g_dual, lat))
    require_le("materialized_rate", rate, GABOR_DUAL_TOL)
    _require_painless_bounds(df.frame_bounds(system), g, inp.b)

    scale_window = df.sample_bspline(inp.scale_order, inp.grid)
    scale_window = df.SampledWindow(inp.grid, scale_window.values * inp.scale_profile)
    a_op = df.scaled_gabor_operator(scale_window, lat)
    approx = df.approx_dual_window(g, g_dual, a_op, lat)
    rate = df.approximation_rate(system, df.gabor_frame(approx, lat))
    gap = spectral_norm(np.eye(inp.grid.total) - a_op)
    require_le("rate_equals_gap", abs(rate - gap), RATE_GAP_TOL)


def gabor_bounds_task(inp: GaborInput) -> None:
    """Bounds and materialized rate of an exact dual pair on a 16:64 grid."""
    lat = df.GaborLattice(1, inp.b)
    g = df.sample_bspline(inp.order, inp.grid)
    g_dual = df.ck_dual1(g, inp.order, inp.b)
    system = df.gabor_frame(g, lat)
    _require_painless_bounds(df.frame_bounds(system), g, inp.b)
    rate = df.approximation_rate(system, df.gabor_frame(g_dual, lat))
    require_le("materialized_rate", rate, GABOR_DUAL_TOL)


def surrogate_windows():
    """Criterion 10: Gaussian and scaled order-8 spline surrogate on 16:32."""
    grid = df.GridSpec(*SURROGATE_GRID[:2])
    gaussian = df.sample_function(lambda x: np.exp(-4.0 * x**2), grid, centered=True)

    def spline(u):
        return df.bspline_value(8, 2.36 * np.asarray(u) + 4.0)

    x = grid.centered_points()
    energy = np.zeros_like(x)
    for n in range(-40, 41):
        energy += spline(x + n) ** 2
    return gaussian, df.SampledWindow(grid, (15.1 / 315.0) * spline(x) / energy)


def gabor_surrogate_task(gaussian, surrogate) -> None:
    """Bounds of the Gaussian system and its rate against the surrogate."""
    lat = df.GaborLattice(1, SURROGATE_GRID[2])
    system = df.gabor_frame(gaussian, lat)
    bounds = df.frame_bounds(system)
    require("gaussian_frame", bounds.lower > 0.0, f"lower bound {bounds.lower}")
    rate = df.approximation_rate(system, df.gabor_frame(surrogate, lat))
    require_le("surrogate_rate", rate, SURROGATE_RATE)


def build_gabor_dense(seed: int, cycles: int) -> Workload:
    rng = np.random.default_rng([seed, 2])
    digest = _Digest()
    gaussian, surrogate = surrogate_windows()
    digest.add(gaussian.values, surrogate.values)
    tasks = []
    for _ in range(cycles):
        for kind, which in GABOR_CYCLE:
            if kind == "surrogate":
                tasks.append(Task("16:32 surrogate", lambda: gabor_surrogate_task(gaussian, surrogate)))
                continue
            s, period, b = PIPELINE_GRIDS[which] if kind == "pipeline" else BOUNDS_GRID
            inp = _gabor_input(rng, s, period, b, digest)
            run = gabor_pipeline_task if kind == "pipeline" else gabor_bounds_task
            tasks.append(Task(f"{s}:{period} {kind}", lambda inp=inp, run=run: run(inp)))
    warm = _gabor_input(rng, *PIPELINE_GRIDS[0], _Digest())
    warmup = [Task("warmup", lambda: gabor_pipeline_task(warm))]
    return Workload("gabor-dense", tasks, warmup, digest.hexdigest())


# ------------------------------------------------------------------- cli-files

CLI_FRAME_SIZES = ((64, 96), (256, 384))
CLI_GRID = (16, 64)
CLI_B = "1/8"
LAUNCHER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "clirun.py")


@dataclass
class CliCall:
    """One ``dualframes`` invocation with its expected exit code and verdict check."""

    kind: str
    argv: list
    expect_exit: int = 0
    check: Callable[[dict], None] | None = None  # None: the exit code is the gate


def _verdict_checks_frame(bounds):
    lower, upper = bounds

    def frame_info(v):
        require("frame_info_is_frame", v["is_frame"] is True, str(v["is_frame"]))
        err = abs(v["lower_bound"] - lower) + abs(v["upper_bound"] - upper)
        require_le("frame_info_bounds", err, RATE_GAP_TOL * upper)

    def dual(v):
        require_le("dual_mixed_match", v["mixed_operator_residual"], RECONSTRUCTION_TOL)

    def verify(v):
        require("verify_approx", v["kind"] == "approx", v["kind"])
        require("verify_bessel", v["bessel_bound_ok"] is True, str(v["bessel_margin"]))

    def perturb(v):
        require_le("transfer_mixed_match", v["mixed_match_residual"], TRANSFER_TOL)
        require_le(
            "transfer_bound", v["measured_diff_bound"], v["predicted_diff_bound"] + TRANSFER_TOL
        )

    return frame_info, dual, verify, perturb


def _gabor_checks(peak, weight_min, weight_max):
    def window(v):
        require("window_grid", (v["samples_per_unit"], v["period"]) == CLI_GRID, str(v))
        require_le("window_peak", abs(v["peak"] - peak), RATE_GAP_TOL * peak)

    def janssen(v):
        require_le("janssen_residual", v["janssen_residual"], GABOR_DUAL_TOL)

    def verify(v):
        janssen(v)
        require("gabor_verify_dual", v["dual"] is True, str(v["dual"]))

    def weight(v):
        err = abs(v["min"] - weight_min) + abs(v["max"] - weight_max)
        require_le("walnut_weight", err, RATE_GAP_TOL * weight_max)

    def sweep(v):
        require("sweep_agreement", v["criterion_agreement"] is True, str(v))

    return window, janssen, verify, weight, sweep


def _write_cli_inputs(rng, workdir, digest) -> list:
    """Write the JSON inputs and return the call cycle that reads them."""
    calls = []
    paths = {}

    def save(name, writer, value):
        path = os.path.join(workdir, name)
        writer(value, path)
        with open(path, "rb") as fh:
            digest.add(fh.read())
        return path

    for dim, count in CLI_FRAME_SIZES:
        inp = _frame_input(rng, dim, count, _Digest())
        phi = df.Frame(inp.phi)
        theta = df.random_annihilator(phi, seed=inp.theta_seed, scale=THETA_SCALE)
        phi_ad = df.approx_dual_from_mixed(phi, inp.target, theta)
        tag = f"{dim}x{count}"
        p_phi = save(f"phi-{tag}.json", df.io.save_frame, phi)
        p_psi = save(f"psi-{tag}.json", df.io.save_frame, df.Frame(inp.phi + inp.perturbation))
        p_ad = save(f"phi_ad-{tag}.json", df.io.save_frame, phi_ad)
        p_op = save(f"op-{tag}.json", df.io.save_operator, inp.target)
        paths[tag] = p_phi
        bounds = df.frame_bounds(phi)
        frame_info, dual, verify, perturb = _verdict_checks_frame(bounds)
        out = os.path.join(workdir, f"out-{tag}.json")
        calls += [
            CliCall(f"frame-info {tag}", ["frame-info", p_phi], check=frame_info),
            CliCall(f"dual canonical {tag}", ["dual", p_phi, "--mode", "canonical"], check=dual),
            CliCall(
                f"dual approx {tag}",
                ["dual", p_phi, "--mode", "approx", "--op-file", p_op,
                 "--theta", f"random:{inp.theta_seed}:{THETA_SCALE}", "--out", out],
                check=dual,
            ),
            CliCall(f"verify {tag}", ["verify", p_phi, p_ad], check=verify),
            CliCall(f"perturb {tag}", ["perturb", p_phi, p_psi, p_ad], check=perturb),
        ]

    order = int(rng.integers(2, 5))  # b = 1/8 allows orders up to 4
    grid = df.GridSpec(*CLI_GRID)
    grid_arg = f"{grid.samples_per_unit}:{grid.period}"
    g = df.sample_bspline(order, grid)
    p_g = save("window.json", df.io.save_window, g)
    p_gd = save("window_dual.json", df.io.save_window, df.ck_dual1(g, order, Fraction(CLI_B)))
    energy = shift_energy(g)
    window, janssen, gverify, weight, sweep = _gabor_checks(
        float(np.max(np.abs(g.values))), energy.min(), energy.max()
    )
    digest.add(order)
    calls += [
        CliCall("gabor window", ["gabor", "window", "--window", f"bspline:{order}", "--grid", grid_arg,
                                 "--out", os.path.join(workdir, "out-window.json")], check=window),
        CliCall("gabor dual", ["gabor", "dual", "--window", p_g, "--support", str(order), "--b", CLI_B,
                               "--out", os.path.join(workdir, "out-dual.json")], check=janssen),
        CliCall("gabor verify", ["gabor", "verify", "--window", p_g, "--dual", p_gd, "--a", "1",
                                 "--b", CLI_B], check=gverify),
        CliCall("gabor weight", ["gabor", "weight", "--window", p_g, "--a", "1"], check=weight),
        CliCall("gabor sweep char", ["gabor", "sweep", "--char", "--grid", "4:3", "--step", "1/4"], check=sweep),
        # A fixed order: the sweep's cost grows with it, and the mix must not depend on the seed.
        CliCall("gabor sweep bspline", ["gabor", "sweep", "--bspline", "3", "--samples", "16",
                                        "--denominators", "2:12"], check=sweep),
        # Invalid on purpose: b above the dual-generator bound 1/(2 * order - 1).
        CliCall("invalid b", ["gabor", "dual", "--window", p_g, "--support", str(order), "--b", "1/2"],
                expect_exit=2),
        # Invalid on purpose: frames of different dimensions.
        CliCall("invalid shapes", ["verify", paths["64x96"], paths["256x384"]], expect_exit=3),
    ]
    return calls


class CliRunner:
    """Runs ``dualframes`` invocations through the launcher, one subprocess each.

    ``stats`` gathers what no span holds: invocations, subprocess wall
    time minus the report's ``wall_time_ms``, and exit-code mismatches.
    ``peak_rss_kb`` is the largest peak memory any child reported.
    With a ``tracer`` set, each child records its own spans and they are
    adopted below the calling task's span.
    """

    def __init__(self, workdir: str, src: str):
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=src)
        self.stats = {"invocations": 0, "overhead_s": 0.0, "exit_code_mismatch": 0}
        self.tracer = None
        self.peak_rss_kb = 0

    def run(self, call: CliCall) -> None:
        report_path = os.path.join(self.workdir, "report.json")
        spans_path = os.path.join(self.workdir, "spans.json")
        for path in (report_path, spans_path):
            if os.path.exists(path):
                os.remove(path)
        env = self.env if self.tracer is None else dict(self.env, PERFBENCH_TRACE_OUT=spans_path)
        argv = [sys.executable, LAUNCHER, *call.argv, "--report", report_path]
        start = time.perf_counter()
        proc = subprocess.run(argv, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=120)
        wall = time.perf_counter() - start
        self.stats["invocations"] += 1
        stderr, _, last = proc.stderr.rstrip().rpartition("\n")
        if last.startswith("peak_rss_kb "):
            self.peak_rss_kb = max(self.peak_rss_kb, int(last.split()[1]))
        if self.tracer is not None:
            with open(spans_path, encoding="utf-8") as fh:
                self.tracer.adopt(json.load(fh), self.tracer.current())
        if proc.returncode != call.expect_exit:
            self.stats["exit_code_mismatch"] += 1
            raise GateFailure(
                "exit_code",
                f"{call.kind}: exit {proc.returncode}, expected {call.expect_exit}: "
                + stderr.strip()[-300:],
            )
        if call.expect_exit != 0:
            self.stats["overhead_s"] += wall
            return
        with open(report_path, encoding="utf-8") as fh:
            report = json.load(fh)
        self.stats["overhead_s"] += wall - report["wall_time_ms"] / 1000.0
        if call.check is not None:
            call.check(report["verdicts"])


def build_cli_files(seed: int, cycles: int, workdir: str, src: str) -> Workload:
    rng = np.random.default_rng([seed, 3])
    digest = _Digest()
    calls = _write_cli_inputs(rng, workdir, digest)
    runner = CliRunner(workdir, src)
    tasks = [Task(call.kind, lambda call=call: runner.run(call)) for _ in range(cycles) for call in calls]
    warmup = [Task("warmup", lambda: runner.run(calls[0]))]
    return Workload("cli-files", tasks, warmup, digest.hexdigest(), cli=runner)
