"""Runs one workload for a fixed time and turns its samples into metrics.

An untraced run (trace=False) sets the workload up SETUP_REPEATS times, then
runs timed operations until the time is up and reports END_TO_END. A traced
run sets up once, spends the first half of the time untraced (the baseline
for the tracing overhead and the per-path times) and the second half with
the tracing wrappers installed, and reports PER_LAYER. Per-layer times and
counts are per traced operation.
"""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

import tracing
import workloads
from structconv import cli

SETUP_REPEATS = 3
THREAD_VARS = (
    "STRUCTCONV_THREADS",
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

# name -> (unit, better)
END_TO_END = {
    "op_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

_PATH_TIMES = (
    "infer_dense_s",
    "infer_decomposed_s",
    "verify_s",
    "decompose_s",
    "train_regularized_epoch_s",
    "train_direct_epoch_s",
)
_MODES = ("regularized", "direct")

PER_LAYER = {
    **{name: ("s", "lower") for name in _PATH_TIMES},
    "failed_ops_frac": ("frac", "lower"),
    "tensor.conv.grouped_s": ("s", "lower"),
    "tensor.conv.dense_s": ("s", "lower"),
    "tensor.conv.small_s": ("s", "lower"),
    "tensor.conv.calls": ("count", "lower"),
    "tensor.conv.mult_per_s": ("mult/s", "higher"),
    "tensor.conv.bytes_computed": ("B", "lower"),
    "tensor.sum_pool3d_s": ("s", "lower"),
    "tensor.sum_pool3d.calls": ("count", "lower"),
    "tensor.sum_pool3d.add_per_s": ("add/s", "higher"),
    "tensor.random_tensor_s": ("s", "lower"),
    "tensor.io_s": ("s", "lower"),
    "tensor.io_bytes": ("B", "lower"),
    "structured.reconstruct_s": ("s", "lower"),
    "structured.reconstruct.calls": ("count", "lower"),
    "structured.reconstruct.elems": ("count", "lower"),
    "structured.structure_matrix_s": ("s", "lower"),
    "structured.structure_matrix.misses": ("count", "lower"),
    "structured.structure_matrix.hits": ("count", "higher"),
    "structured.structure_matrix.bytes_computed": ("B", "lower"),
    "structured.residual_s": ("s", "lower"),
    "structured.residual.evals_per_kernel": ("ratio", "lower"),
    "structured.decompose_layer_s": ("s", "lower"),
    "structured.forward_decomposed_s": ("s", "lower"),
    "structured.save_layer_s": ("s", "lower"),
    "analyzer.mults_dense": ("count", "lower"),
    "analyzer.mults_decomposed": ("count", "lower"),
    "analyzer.adds_dense": ("count", "lower"),
    "analyzer.adds_decomposed": ("count", "lower"),
    **{f"infer.{k}.{r}": ("ratio", "lower") for k in workloads.KINDS for r in ("mult_ratio", "wall_ratio")},
    "cli.verify.workers": ("count", "higher"),
    "cli.verify.layer_s_max": ("s", "lower"),
    "cli.verify.pool_speedup": ("ratio", "higher"),
    **{f"training.step_s.{m}": ("s", "lower") for m in _MODES},
    "training.sr_grad_s": ("s", "lower"),
    "training.evaluate_s": ("s", "lower"),
    "training.decompose_model_s": ("s", "lower"),
    **{f"training.accuracy.{m}": ("frac", "higher") for m in _MODES},
    **{f"training.accuracy_decomposed.{m}": ("frac", "higher") for m in _MODES},
    "trace.overhead_frac": ("frac", "lower"),
    "trace.remainder_frac": ("frac", "lower"),
}


@dataclass
class Phase:
    samples: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    def median(self, key=None) -> float:
        """Median operation time, or of one timed part; 0 without samples."""
        if key is None:
            values = [sum(s.values()) for s in self.samples]
        else:
            values = [s[key] for s in self.samples if key in s]
        return statistics.median(values) if values else 0.0


def run_phase(wl, seconds: float, tracer=None) -> Phase:
    """Closed loop: start the next operation only after the previous one is
    done and checked, until `seconds` have passed (at least one operation)."""
    phase = Phase()
    start = time.perf_counter()
    while True:
        phase.attempted += 1
        try:
            if tracer is None:
                parts = wl.run()
            else:
                with tracer.root():
                    parts = wl.run()
            wl.check()
        except Exception:
            phase.failed += 1
            traceback.print_exc(file=sys.stderr)
        else:
            phase.samples.append(parts)
        if time.perf_counter() - start >= seconds:
            return phase


def _blas_threads():
    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*blas*")
    for path in glob.glob(pattern):
        lib = ctypes.CDLL(path)
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, fn, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return getter()
    return None


def environment(workload: str, seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    thread_count = getattr(cli, "_thread_count", None)
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "verify_workers": thread_count(len(workloads.analyzer.parse_network_spec(workloads.EFFNET)))
        if thread_count else None,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cost_metrics(wl, reports) -> dict:
    out = {
        "analyzer.mults_dense": sum(r.mults_before for r in reports),
        "analyzer.mults_decomposed": sum(r.mults_after for r in reports),
        "analyzer.adds_dense": sum(r.adds_before for r in reports),
        "analyzer.adds_decomposed": sum(r.adds_after for r in reports),
    }
    infer = isinstance(wl, workloads.InferWorkload)
    walls = wl.wall_ratios() if infer else {}
    for kind in workloads.KINDS:
        before = sum(r.mults_before for r in reports if r.kind == kind)
        after = sum(r.mults_after for r in reports if r.kind == kind)
        out[f"infer.{kind}.mult_ratio"] = after / before if infer and before else 0.0
        out[f"infer.{kind}.wall_ratio"] = walls.get(kind, 0.0)
    return out


def _span_metrics(spans, ops: int, kernels_per_op: int) -> tuple[dict, dict]:
    """Per-layer metrics from the traced phase, normalised per operation, and
    the self seconds per operation of every span name."""
    self_s = tracing.self_times(spans)
    acc: dict[str, float] = {}

    def add(key, value):
        acc[key] = acc.get(key, 0.0) + value

    step_calls = {m: 0 for m in _MODES}
    layer_max: dict[int, float] = {}
    workers = set()
    for span, own in zip(spans, self_s):
        name = span.name
        add(f"{name}#self", own)
        add(f"{name}#calls", 1)
        for key, value in span.attrs.items():
            if key != "groups" and key != "mode":
                add(f"{name}#{key}", value)
        if name in ("tensor.conv", "tensor.linear"):
            small = any(a.name == "structured.forward_decomposed" for a in tracing.ancestors(spans, span))
            add("conv#small" if small else "conv#dense", own)
            if span.attrs.get("groups", 1) > 1:
                add("conv#grouped", own)
        elif name == "cli.verify_layer":
            layer_max[span.run] = max(layer_max.get(span.run, 0.0), span.duration)
            workers.add(span.thread)
        elif name in ("training.forward", "training.backward", "training.step"):
            lineage = list(tracing.ancestors(spans, span))
            if any(a.name in ("training.evaluate", "training.decompose_model") for a in lineage):
                continue
            train = next((a for a in lineage if a.name == "training.train"), None)
            if train is not None:
                mode = train.attrs.get("mode")
                add(f"step#{mode}", span.duration)
                if name == "training.step":
                    step_calls[mode] += 1
        elif name in ("training.evaluate", "training.decompose_model"):
            add(f"{name}#incl", span.duration)

    def per_op(key):
        return acc.get(key, 0.0) / ops

    def rate(num, den):
        return acc.get(num, 0.0) / acc[den] if acc.get(den) else 0.0

    conv_self = acc.get("tensor.conv#self", 0.0) + acc.get("tensor.linear#self", 0.0)
    conv_mults = acc.get("tensor.conv#mults", 0.0) + acc.get("tensor.linear#mults", 0.0)
    residual_kernels = acc.get("structured.residual#kernels", 0.0)
    lookups = acc.get("structured.structure_matrix#calls", 0.0)
    builds = acc.get("structured.structure_matrix.build#calls", 0.0)
    root_self = acc.get(f"{tracing.ROOT}#self", 0.0)
    root_wall = sum(s.duration for s in spans if s.name == tracing.ROOT)
    return {
        "tensor.conv.grouped_s": per_op("conv#grouped"),
        "tensor.conv.dense_s": per_op("conv#dense"),
        "tensor.conv.small_s": per_op("conv#small"),
        "tensor.conv.calls": (acc.get("tensor.conv#calls", 0) + acc.get("tensor.linear#calls", 0)) / ops,
        "tensor.conv.mult_per_s": conv_mults / conv_self if conv_self else 0.0,
        "tensor.conv.bytes_computed": (acc.get("tensor.conv#bytes", 0) + acc.get("tensor.linear#bytes", 0)) / ops,
        "tensor.sum_pool3d_s": per_op("tensor.sum_pool3d#self"),
        "tensor.sum_pool3d.calls": per_op("tensor.sum_pool3d#calls"),
        "tensor.sum_pool3d.add_per_s": rate("tensor.sum_pool3d#adds", "tensor.sum_pool3d#self"),
        "tensor.random_tensor_s": per_op("tensor.random_tensor#self"),
        "tensor.io_s": per_op("tensor.io#self"),
        "tensor.io_bytes": per_op("tensor.io#bytes"),
        "structured.reconstruct_s": per_op("structured.reconstruct#self"),
        "structured.reconstruct.calls": per_op("structured.reconstruct#calls"),
        "structured.reconstruct.elems": per_op("structured.reconstruct#elems"),
        "structured.structure_matrix_s": per_op("structured.structure_matrix#self")
        + per_op("structured.structure_matrix.build#self"),
        "structured.structure_matrix.misses": builds / ops,
        "structured.structure_matrix.hits": (lookups - builds) / ops,
        "structured.structure_matrix.bytes_computed": per_op("structured.structure_matrix.build#bytes"),
        "structured.residual_s": per_op("structured.residual#self"),
        "structured.residual.evals_per_kernel": residual_kernels / (kernels_per_op * ops)
        if kernels_per_op else 0.0,
        "structured.decompose_layer_s": per_op("structured.decompose_layer#self"),
        "structured.forward_decomposed_s": per_op("structured.forward_decomposed#self"),
        "structured.save_layer_s": per_op("structured.save_layer#self"),
        "cli.verify.workers": float(len(workers)),
        "cli.verify.layer_s_max": statistics.median(layer_max.values()) if layer_max else 0.0,
        **{
            f"training.step_s.{m}": acc.get(f"step#{m}", 0.0) / step_calls[m] if step_calls[m] else 0.0
            for m in _MODES
        },
        "training.sr_grad_s": per_op("training.sr_grad#self"),
        "training.evaluate_s": per_op("training.evaluate#incl"),
        "training.decompose_model_s": per_op("training.decompose_model#incl"),
        "trace.remainder_frac": root_self / root_wall if root_wall else 0.0,
    }, {
        name.split("#")[0]: value / ops for name, value in sorted(acc.items()) if name.endswith("#self")
    }


def _training_metrics(wl) -> dict:
    logs = getattr(wl, "logs", {})
    out = {}
    for m in _MODES:
        log = logs.get(m)
        out[f"training.accuracy.{m}"] = log.final_accuracy if log else 0.0
        out[f"training.accuracy_decomposed.{m}"] = log.final_accuracy_decomposed if log else 0.0
    return out


def _metric(table, name, value):
    return {"value": float(value), "unit": table[name][0]}


def run(workload: str, seed: int, seconds: float, trace: bool, workdir: str, **params):
    """Run one workload; returns (result, report). result is the benchmark's
    final JSON object; report holds the environment, sample counts and, for a
    traced run, the trace summary and spans."""
    factory = workloads.WORKLOADS[workload]
    os.makedirs(workdir, exist_ok=True)
    env = environment(workload, seed)
    setup_times, wl = [], None
    for _ in range(1 if trace else SETUP_REPEATS):
        wl = None  # free the previous set-up first, so peak RSS holds one
        t0 = time.perf_counter()
        wl = factory(seed, workdir, **params)
        setup_times.append(time.perf_counter() - t0)
    reports = workloads.checked_costs(wl.count_config, wl.count_size)
    report = {"environment": env, "setup_s": setup_times}

    if not trace:
        phase = run_phase(wl, seconds)
        metrics = {
            "op_s": _metric(END_TO_END, "op_s", phase.median()),
            "setup_s": _metric(END_TO_END, "setup_s", statistics.median(setup_times)),
            "peak_rss_mb": _metric(END_TO_END, "peak_rss_mb", _peak_rss_mb()),
        }
        report["samples"] = len(phase.samples)
        report["op_s_samples"] = [sum(parts.values()) for parts in phase.samples]
        return _result(phase.attempted, phase.failed, metrics), report

    plain = run_phase(wl, seconds / 2)
    values = {name: plain.median(name) for name in _PATH_TIMES}
    values.update(_cost_metrics(wl, reports))
    attempted, failed = plain.attempted, plain.failed
    values["cli.verify.pool_speedup"] = 0.0
    if isinstance(wl, workloads.VerifyWorkload):
        single = _single_thread(wl)
        attempted += single.attempted
        failed += single.failed
        if single.samples and plain.samples:
            values["cli.verify.pool_speedup"] = single.median() / plain.median()

    tracer = tracing.Tracer()
    patched = tracing.install(tracer)
    try:
        traced = run_phase(wl, seconds / 2, tracer)
    finally:
        tracing.uninstall(patched)
    attempted += traced.attempted
    failed += traced.failed
    span_values, self_by_name = _span_metrics(
        tracer.spans, traced.attempted, getattr(wl, "kernels_per_op", 0)
    )
    values.update(span_values)
    values.update(_training_metrics(wl))
    values["failed_ops_frac"] = failed / attempted
    values["trace.overhead_frac"] = (
        traced.median() / plain.median() - 1.0 if traced.samples and plain.samples else 0.0
    )
    report["samples"] = {"untraced": len(plain.samples), "traced": len(traced.samples)}
    report["trace_summary"] = {
        "self_s_per_op": self_by_name,
        "op_s_untraced": plain.median(),
        "op_s_traced": traced.median(),
        "tracing_overhead_frac": values["trace.overhead_frac"],
        "benchmark_remainder_frac": values["trace.remainder_frac"],
    }
    report["tracer"] = tracer
    metrics = {name: _metric(PER_LAYER, name, values[name]) for name in PER_LAYER}
    return _result(attempted, failed, metrics), report


def _single_thread(wl) -> Phase:
    # Verify with the pool capped at one worker, for the pool's speed-up.
    saved = os.environ.get("STRUCTCONV_THREADS")
    os.environ["STRUCTCONV_THREADS"] = "1"
    try:
        return run_phase(wl, 0.0)
    finally:
        if saved is None:
            del os.environ["STRUCTCONV_THREADS"]
        else:
            os.environ["STRUCTCONV_THREADS"] = saved


def _result(attempted, failed, metrics) -> dict:
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
