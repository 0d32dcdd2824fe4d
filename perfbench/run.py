"""Benchmark entry point: one workload, one seed, one fresh process.

    python3 perfbench/run.py --workload frames-dense --seed 1 --seconds 30 --trace 0

Run from the repository root; the library is imported from ``src/``.
The workload's inputs are made from ``--seed`` during set-up.  A run
executes a whole number of task cycles sized so that it takes about
``--seconds`` on the reference machine (see NOMINAL_CYCLE_S); every task
is checked.  With ``--trace 0`` the end-to-end metrics are reported;
with ``--trace 1`` half of the cycles run untraced and half traced, and
the per-layer metrics of the traced half are reported together with
``trace.overhead_ratio``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it, starting with ``report``, carries the environment, the input digest
and the details behind each metric.  The exit code is 1 when any task
failed its check and 2 when the benchmark could not run at all.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy loads: thread counts change both the
# timings and their spread.  Child processes inherit the setting.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")

SCHEMA_VERSION = 1
WORKLOADS = ("frames-dense", "gabor-dense", "cli-files")
# Seconds one task cycle takes on the reference machine (2-core Xeon,
# OpenBLAS, one BLAS thread).  A run executes round(seconds / nominal)
# cycles, so the task list -- and with it which task the median and the
# tail fall on -- depends only on --seconds, never on the machine's speed.
NOMINAL_CYCLE_S = {"frames-dense": 1.4, "gabor-dense": 16.2, "cli-files": 12.7}
SETUP_REPEATS = 3
TAIL_BEYOND = 10  # the tail percentile leaves at least this many tasks above it


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_library():
    """Import dualframes from this checkout's src/; return the import time."""
    if not os.path.isfile(os.path.join(SRC, "dualframes", "__init__.py")):
        fail(f"no library sources under {SRC}")
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import dualframes

    elapsed = time.perf_counter() - start
    if os.path.dirname(os.path.dirname(os.path.abspath(dualframes.__file__))) != SRC:
        fail(f"dualframes imported from {dualframes.__file__}, not from {SRC}")
    return elapsed


def fail(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def environment(seed, digest, cycles):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "schema_version": SCHEMA_VERSION,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "seed": seed,
        "input_sha256": digest,
        "cycles": cycles,
    }


def build(workloads, name, seed, cycles):
    """Make the inputs (and input files) of one workload and warm it up."""
    if name == "frames-dense":
        workload = workloads.build_frames_dense(seed, cycles)
    elif name == "gabor-dense":
        workload = workloads.build_gabor_dense(seed, cycles)
    else:
        os.makedirs(WORK, exist_ok=True)
        workdir = tempfile.mkdtemp(prefix=f"cli-{seed}-", dir=WORK)
        workload = workloads.build_cli_files(seed, cycles, workdir, SRC)
    for task in workload.warmup:
        task.run()
    return workload


def execute(tasks, workloads, tracer=None):
    """Run tasks back to back; return per-task seconds and the failures."""
    durations, failures = [], []
    for index, task in enumerate(tasks):
        t0 = time.perf_counter()
        try:
            if tracer is None:
                task.run()
            else:
                tracer.task = index
                tracer.call("bench", task.kind, task.run)
        except workloads.GateFailure as exc:
            failures.append({"task": index, "kind": task.kind, "check": exc.check, "detail": str(exc)})
        except Exception as exc:  # an error the task did not expect is a failure too
            failures.append({"task": index, "kind": task.kind, "check": "unexpected_error",
                             "detail": f"{type(exc).__name__}: {exc}"})
        durations.append(time.perf_counter() - t0)
    return durations, failures


def throughput(durations, failures, cycles):
    """Verified tasks per second: the median over cycles, robust to a stall."""
    per = len(durations) // cycles
    failed = {f["task"] for f in failures}
    rates = []
    for c in range(cycles):
        span = range(c * per, (c + 1) * per)
        rates.append(sum(i not in failed for i in span) / sum(durations[i] for i in span))
    return statistics.median(rates)


def latency_stats(durations):
    ordered = sorted(durations)
    n = len(ordered)
    rank = max(n - TAIL_BEYOND, 1)  # 1-based rank with TAIL_BEYOND tasks above it
    return {
        "p50": statistics.median(ordered),
        "tail": ordered[rank - 1],
        "tail_percentile": 100.0 * rank / n,
        "samples": n,
    }


def peak_rss_mb(workload):
    """Own peak resident memory plus the largest peak of a CLI child."""
    from clirun import peak_rss_kb

    children = workload.cli.peak_rss_kb if workload.cli is not None else 0
    return (peak_rss_kb() + children) / 1024.0


def per_kind(tasks, durations):
    kinds = {}
    for task, seconds in zip(tasks, durations):
        kinds.setdefault(task.kind, []).append(seconds)
    return {k: {"n": len(v), "p50_s": statistics.median(v)} for k, v in kinds.items()}


def main(argv=None):
    args = parse_args(argv)
    import_s = import_library()
    import tracing
    import workloads

    segments = 2 if args.trace else 1
    cycles = max(1, round(args.seconds / segments / NOMINAL_CYCLE_S[args.workload]))

    setup_runs, workload = [], None
    try:
        for _ in range(SETUP_REPEATS):
            if workload is not None and workload.cli is not None:
                shutil.rmtree(workload.cli.workdir, ignore_errors=True)
            workload = None  # free the previous set-up's inputs first
            t0 = time.perf_counter()
            workload = build(workloads, args.workload, args.seed, cycles * segments)
            setup_runs.append(time.perf_counter() - t0)

        tasks = workload.tasks
        half = len(tasks) // segments
        durations, failures = execute(tasks[:half], workloads)
        lat = latency_stats(durations)
        end_to_end = {
            "tasks_per_s": (throughput(durations, failures, cycles), "1/s"),
            "task_s.p50": (lat["p50"], "s"),
            "task_s.tail": (lat["tail"], "s"),
            "setup_s": (import_s + statistics.median(setup_runs), "s"),
            "peak_rss_mb": (peak_rss_mb(workload), "MB"),
        }
        metrics = end_to_end
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
            if workload.cli is not None:
                workload.cli.tracer = tracer
                workload.cli.stats = dict.fromkeys(workload.cli.stats, 0)
            traced, traced_failures = execute(tasks[half:], workloads, tracer)
            tracer.uninstall()
            layers = tracing.layer_metrics(
                tracer.spans, len(traced), workload.cli.stats if workload.cli is not None else {}
            )
            layers["trace.overhead_ratio"] = (
                throughput(traced, traced_failures, cycles) / end_to_end["tasks_per_s"][0]
            )
            metrics = {name: (value, layer_unit(name)) for name, value in layers.items()}
            write_spans(tracer.spans, args.workload, args.seed)
            durations += traced
            failures += [dict(f, task=f["task"] + half) for f in traced_failures]
    finally:
        if workload is not None and workload.cli is not None:
            shutil.rmtree(workload.cli.workdir, ignore_errors=True)

    report = {
        "environment": environment(args.seed, workload.digest, cycles * segments),
        "end_to_end": {name: {"value": v, "unit": u} for name, (v, u) in end_to_end.items()},
        "latency": lat,
        "failed_ratio": len(failures) / len(durations),
        "failures": failures,
        "import_s": import_s,
        "setup_runs_s": setup_runs,
        "task_kinds": per_kind(tasks, durations),
    }
    print(f"workload {args.workload} seed {args.seed}: {len(durations)} tasks, "
          f"{len(failures)} failed, {cycles * segments} cycles")
    for name, (value, unit) in end_to_end.items():
        print(f"  {name:<14} {value:.6g} {unit}")
    print(f"  task_s.tail is p{lat['tail_percentile']:.1f} of {lat['samples']} tasks")
    print(f"  failed_ratio   {report['failed_ratio']:.6g}")
    for failure in failures:
        print(f"  FAILED task {failure['task']} ({failure['kind']}): {failure['detail']}")
    print("report " + json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(durations),
        "failed": len(failures),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 1 if failures else 0


def layer_unit(name):
    if name == "trace.overhead_ratio":
        return "ratio"
    if name.endswith("_s"):
        return "s/task"
    if "bytes" in name:
        return "B/task"
    if "flops" in name:
        return "flop/task"
    return "1/task"


def write_spans(spans, workload, seed):
    os.makedirs(WORK, exist_ok=True)
    path = os.path.join(WORK, f"spans-{workload}-{seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spans, fh)


if __name__ == "__main__":
    sys.exit(main())
