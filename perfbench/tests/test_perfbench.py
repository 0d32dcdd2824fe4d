"""Tests of the benchmark itself: seeded inputs, metric names, tracing, gates."""

import json
import os
import re
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def kinds(workload):
    return [task.kind for task in workload.tasks]


@pytest.fixture(scope="module")
def cli_builds(tmp_path_factory):
    src = os.path.join(ROOT, "src")
    return [
        workloads.build_cli_files(seed, 1, str(tmp_path_factory.mktemp(f"cli{i}")), src)
        for i, seed in enumerate((1, 1, 2))
    ]


@pytest.mark.parametrize("build", [workloads.build_frames_dense, workloads.build_gabor_dense])
def test_seed_fixes_inputs_and_mix(build):
    first, again, other = build(1, 2), build(1, 2), build(2, 2)
    assert first.digest == again.digest
    assert first.digest != other.digest
    assert kinds(first) == kinds(other)


def test_cli_seed_fixes_input_files(cli_builds):
    first, again, other = cli_builds
    assert first.digest == again.digest
    assert first.digest != other.digest
    assert kinds(first) == kinds(other)


def run_bench(workload, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr + proc.stdout
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced_result():
    return run_bench("frames-dense", 1, 1)


def test_untraced_run_reports_end_to_end_metrics():
    result = run_bench("frames-dense", 1, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {
        "tasks_per_s", "task_s.p50", "task_s.tail", "setup_s", "peak_rss_mb"
    }
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_metric_names_are_well_formed(traced_result):
    assert traced_result["correct"]
    for name, metric in traced_result["metrics"].items():
        assert NAME.fullmatch(name), name
        assert set(metric) == {"value", "unit"}


def test_every_layer_reports_a_metric(traced_result):
    names = traced_result["metrics"]
    for layer in tracing.LAYERS + ("linalg", "trace"):
        assert any(name.startswith(layer + ".") for name in names), layer


def test_self_times_are_nonnegative_and_fit_in_wall_clock():
    build = workloads.build_frames_dense(4, 1)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        start = time.perf_counter()
        for index, task in enumerate(build.tasks):
            tracer.task = index
            tracer.call("bench", task.kind, task.run)
        wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
    own = tracing.self_times(tracer.spans)
    assert min(own) >= -1e-9
    assert sum(own) <= wall
    layers = {span[tracing.LAYER] for span in tracer.spans}
    assert {"oplin", "frames", "duality", "perturbation", "linalg"} <= layers


def test_uninstall_restores_the_library():
    import dualframes
    import numpy as np

    before = (dualframes.frame_bounds, dualframes.frames.frame_operator, np.linalg.eigh)
    tracer = tracing.Tracer()
    tracer.install()
    assert dualframes.frame_bounds is not before[0]
    tracer.uninstall()
    assert (dualframes.frame_bounds, dualframes.frames.frame_operator, np.linalg.eigh) == before


def first_of_each_kind(workload, skip=()):
    seen = {}
    for task in workload.tasks:
        if task.kind not in seen and not any(word in task.kind for word in skip):
            seen[task.kind] = task
    return list(seen.values())


def test_smoke_frames_and_gabor_pass_their_gates():
    tasks = first_of_each_kind(workloads.build_frames_dense(5, 1))
    # The 16:64 and criterion-10 tasks take seconds each; the acceptance
    # suite covers the criterion-10 case.
    tasks += first_of_each_kind(workloads.build_gabor_dense(5, 1), skip=("16:64", "surrogate"))
    assert len(tasks) == 5
    for task in tasks:
        task.run()


def test_smoke_cli_passes_its_gates(cli_builds):
    workload = cli_builds[0]
    for task in first_of_each_kind(workload, skip=("256x384",)):
        task.run()
    assert workload.cli.stats["exit_code_mismatch"] == 0
    assert workload.cli.peak_rss_kb > 0


def test_gate_names_the_failed_check():
    with pytest.raises(workloads.GateFailure) as info:
        workloads.require_le("roundtrip", 2e-9, workloads.ROUNDTRIP_TOL)
    assert info.value.check == "roundtrip"
    with pytest.raises(workloads.GateFailure):
        workloads.require_le("roundtrip", float("nan"), workloads.ROUNDTRIP_TOL)
