"""Span tracing for traced benchmark runs.

Only a traced run installs a :class:`Tracer`.  It replaces, in every
``dualframes`` module namespace that binds them, the public functions of
the library modules with wrappers that record one span per call, and it
wraps the numpy/scipy decomposition entry points the library calls.  The
library itself is not modified on disk.

A span is ``[id, parent, task, layer, name, start, end, failed, flops,
nbytes]``.  Spans stay in memory until the run ends.  A span's self time
is its duration minus the time covered by its child spans; calls are
strictly nested on one thread, so that is the duration minus the sum of
the children's durations.  A kernel (``linalg``) span's parent is the
innermost enclosing span, so its time leaves the self time of the layer
that called it.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
import types
from collections import defaultdict

# Library modules, in dependency order; each is one layer.
LAYERS = ("oplin", "frames", "duality", "perturbation", "gabor", "io", "cli")

ID, PARENT, TASK, LAYER, NAME, START, END, FAILED, FLOPS, NBYTES = range(10)

# Complex arithmetic: one complex multiply-add is four real multiply-adds.
COMPLEX_FACTOR = 4


def _factor(a) -> int:
    return COMPLEX_FACTOR if a.dtype.kind == "c" else 1


# Computed, not measured: real-flop counts of the LAPACK algorithm behind
# each entry point (Golub & Van Loan, Matrix Computations, 4th ed.,
# Fig. 8.6.1 and Sec. 3.2), times COMPLEX_FACTOR for complex input.
# Computed bytes are the operand and result sizes, each touched once.
def _eigh_cost(a, vectors):
    n = a.shape[0]
    flops = (9 * n**3 if vectors else 4 * n**3 / 3) * _factor(a)
    out = n + (n * n if vectors else 0)
    return flops, (n * n + out) * a.itemsize


def _svd_cost(a, u_cols):
    # u_cols: 0 (values only), "thin" or "full" singular vectors.
    m, n = max(a.shape), min(a.shape)
    if not u_cols:
        flops, out = 4 * m * n**2 - 4 * n**3 / 3, n
    elif u_cols == "thin":
        flops, out = 14 * m * n**2 + 8 * n**3, m * n + n + n * n
    else:
        flops, out = 4 * m**2 * n + 8 * m * n**2 + 9 * n**3, m * m + n + n * n
    return flops * _factor(a), (m * n + out) * a.itemsize


def _solve_cost(a, b):
    n = a.shape[0]
    k = 1 if getattr(b, "ndim", 1) == 1 else b.shape[1]
    flops = (2 * n**3 / 3 + 2 * n * n * k) * _factor(a)
    return flops, (n * n + 2 * n * k) * a.itemsize


def _inv_cost(a):
    n = a.shape[0]
    return 2 * n**3 * _factor(a), 2 * n * n * a.itemsize


def _kernel_cost(name, args, kwargs):
    """(counter, flops, bytes) of one kernel call, or None when it is no decomposition."""
    a = args[0] if args else None
    if getattr(a, "ndim", 0) != 2:
        return None
    if name == "eigh":
        return ("eigh",) + _eigh_cost(a, True)
    if name == "eigvalsh":
        return ("eigh",) + _eigh_cost(a, False)
    if name == "svd":
        uv = kwargs.get("compute_uv", args[2] if len(args) > 2 else True)
        full = kwargs.get("full_matrices", args[1] if len(args) > 1 else True)
        return ("svd",) + _svd_cost(a, ("full" if full else "thin") if uv else 0)
    if name == "norm":
        order = kwargs.get("ord", args[1] if len(args) > 1 else None)
        return ("svd",) + _svd_cost(a, 0) if order in (2, -2) else None
    if name == "solve":
        return ("solve",) + _solve_cost(a, args[1] if len(args) > 1 else kwargs["b"])
    if name == "inv":
        return ("inv",) + _inv_cost(a)
    if name == "null_space":
        return ("nullspace",) + _svd_cost(a, "full")
    if name == "orth":
        return ("svd",) + _svd_cost(a, "thin")
    return None


# Computed sizes attached to library spans: the synthesis matrix of a
# Gabor materialization (L * N complex entries of 16 bytes) and the size
# of each JSON file read or written.
SIZES = {
    ("gabor", "gabor_frame"): lambda args, frame: frame.synthesis.size * 16,
    ("io", "load_json"): lambda args, data: os.path.getsize(args[0]),
    ("io", "dump_json"): lambda args, data: os.path.getsize(args[1]),
}

KERNELS = (
    ("numpy.linalg", ("eigh", "eigvalsh", "svd", "norm", "solve", "inv")),
    ("scipy.linalg", ("null_space", "orth")),
)


class Tracer:
    """Records spans for the library layers and the decomposition kernels."""

    def __init__(self):
        self.spans = []
        self.task = None
        self._stack = []
        self._undo = []

    # -- recording -------------------------------------------------------

    def _open(self, layer, name):
        span = [len(self.spans), self.current(), self.task, layer, name, 0.0, 0.0, False, 0.0, 0]
        self.spans.append(span)
        self._stack.append(span)
        span[START] = time.perf_counter()
        return span

    def _close(self, span, failed):
        span[END] = time.perf_counter()
        span[FAILED] = failed
        self._stack.pop()

    def current(self):
        """Id of the innermost open span, or None."""
        return self._stack[-1][ID] if self._stack else None

    def _run(self, span, fn, args, kwargs):
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self._close(span, True)
            raise
        self._close(span, False)
        return result

    def call(self, layer, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span of the given layer and name."""
        span = self._open(layer, name)
        result = self._run(span, fn, args, kwargs)
        size_of = SIZES.get((layer, name))
        if size_of is not None:
            span[NBYTES] = size_of(args, result)
        return result

    def _wrap(self, layer, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(layer, name, fn, *args, **kwargs)

        return traced

    def _wrap_kernel(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            cost = _kernel_cost(name, args, kwargs)
            if cost is None:
                return fn(*args, **kwargs)
            span = self._open("linalg", cost[0])
            span[FLOPS], span[NBYTES] = cost[1], cost[2]
            return self._run(span, fn, args, kwargs)

        return traced

    # -- installation ----------------------------------------------------

    def install(self):
        """Wrap the library's public functions and the decomposition kernels."""
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"dualframes.{layer}")
            for name, value in vars(module).items():
                if (
                    not name.startswith("_")
                    and isinstance(value, types.FunctionType)
                    and value.__module__ == module.__name__
                ):
                    wrappers[value] = self._wrap(layer, name, value)
        for modname, module in list(sys.modules.items()):
            if modname != "dualframes" and not modname.startswith("dualframes."):
                continue
            for name, value in list(vars(module).items()):
                if isinstance(value, types.FunctionType) and value in wrappers:
                    self._patch(module, name, wrappers[value])
        for modname, names in KERNELS:
            module = importlib.import_module(modname)
            for name in names:
                self._patch(module, name, self._wrap_kernel(name, getattr(module, name)))

    def _patch(self, module, name, value):
        self._undo.append((module, name, getattr(module, name)))
        setattr(module, name, value)

    def uninstall(self):
        while self._undo:
            module, name, value = self._undo.pop()
            setattr(module, name, value)

    # -- merging spans from a traced child process -----------------------

    def adopt(self, child_spans, parent_id):
        """Append a child process's spans below the span ``parent_id``."""
        base = len(self.spans)
        for span in child_spans:
            span = list(span)
            span[ID] += base
            span[PARENT] = parent_id if span[PARENT] is None else span[PARENT] + base
            span[TASK] = self.task
            self.spans.append(span)


def self_times(spans):
    """Self time of every span, indexed by span id."""
    child = defaultdict(float)
    for span in spans:
        if span[PARENT] is not None:
            child[span[PARENT]] += span[END] - span[START]
    return [span[END] - span[START] - child[span[ID]] for span in spans]


def _outermost(spans, layer, names):
    """Summed duration of spans named in ``names`` not nested in another of them."""
    by_id = {span[ID]: span for span in spans}
    total = 0.0
    for span in spans:
        if span[LAYER] != layer or not span[NAME].startswith(names):
            continue
        parent = by_id.get(span[PARENT])
        if parent is not None and parent[LAYER] == layer and parent[NAME].startswith(names):
            continue
        total += span[END] - span[START]
    return total


def layer_metrics(spans, tasks, cli_stats):
    """Per-layer metrics, each divided by the number of traced tasks.

    Kernel spans count towards ``linalg.*`` only when some library layer
    called them; decompositions made by the benchmark's own checks are
    left out.  ``cli_stats`` carries the subprocess figures that no span
    holds: invocations, summed subprocess overhead and exit-code
    mismatches.
    """
    own = self_times(spans)
    by_id = {span[ID]: span for span in spans}
    calls = defaultdict(int)
    failed = defaultdict(int)
    self_s = defaultdict(float)
    named_calls = defaultdict(int)
    kernel = defaultdict(float)
    for span, own_s in zip(spans, own):
        layer = span[LAYER]
        calls[layer] += 1
        failed[layer] += span[FAILED]
        named_calls[(layer, span[NAME])] += 1
        if layer == "linalg":
            parent = by_id.get(span[PARENT])
            if parent is None or parent[LAYER] not in LAYERS:
                continue
            kernel[span[NAME]] += 1
            kernel["flops"] += span[FLOPS]
            kernel["bytes"] += span[NBYTES]
        self_s[layer] += own_s

    def nbytes(layer, name):
        return sum(span[NBYTES] for span in spans if span[LAYER] == layer and span[NAME] == name)

    values = {
        "linalg.eigh_calls": kernel["eigh"],
        "linalg.svd_calls": kernel["svd"],
        "linalg.solve_calls": kernel["solve"],
        "linalg.inv_calls": kernel["inv"],
        "linalg.nullspace_calls": kernel["nullspace"],
        "linalg.flops_computed": kernel["flops"],
        "linalg.bytes_computed": kernel["bytes"],
        "linalg.self_s": self_s["linalg"],
        "oplin.calls": calls["oplin"],
        "oplin.self_s": self_s["oplin"],
        "oplin.failed": failed["oplin"],
        "frames.calls": calls["frames"],
        "frames.self_s": self_s["frames"],
        "frames.frame_operator_calls": named_calls[("frames", "frame_operator")],
        "frames.kernel_basis_calls": named_calls[("frames", "kernel_basis")],
        "duality.calls": calls["duality"],
        "duality.self_s": self_s["duality"],
        "duality.gdual_factorization_s": _outermost(spans, "duality", ("gdual_factorization",)),
        "duality.recover_parameters_s": _outermost(spans, "duality", ("recover_parameters",)),
        "duality.failed": failed["duality"],
        "perturbation.calls": calls["perturbation"],
        "perturbation.self_s": self_s["perturbation"],
        "perturbation.transfer_s": _outermost(spans, "perturbation", ("transfer_",)),
        "gabor.calls": calls["gabor"],
        "gabor.self_s": self_s["gabor"],
        "gabor.materialize_s": _outermost(spans, "gabor", ("gabor_frame",)),
        "gabor.materialized_bytes": nbytes("gabor", "gabor_frame"),
        "gabor.lattice_sum_s": _outermost(spans, "gabor", ("janssen_residual", "walnut_weight")),
        "io.calls": calls["io"],
        "io.self_s": self_s["io"],
        "io.load_s": _outermost(spans, "io", ("load_",)),
        "io.save_s": _outermost(spans, "io", ("save_", "dump_json")),
        "io.bytes_read": nbytes("io", "load_json"),
        "io.bytes_written": nbytes("io", "dump_json"),
        "cli.invocations": cli_stats.get("invocations", 0),
        "cli.self_s": self_s["cli"],
        "cli.overhead_s": cli_stats.get("overhead_s", 0.0),
        "cli.exit_code_mismatch": cli_stats.get("exit_code_mismatch", 0),
    }
    return {name: value / max(tasks, 1) for name, value in values.items()}
