"""Span tracing installed from outside the structconv package.

A Tracer keeps spans in memory; install() replaces the public entry points of
tensor, structured, analyzer, training and cli with wrappers that open a span
around each call, and rebinds every module attribute that refers to the same
function (structured imports conv and sum_pool3d by name, training imports
structure_matrix and random_tensor by name, and so on). uninstall() puts the
originals back. Spans are recorded only while a root span is open, so set-up
and correctness checks stay out of the trace.

Parents are tracked per thread. A span opened on a thread with no open span
(a verify pool worker) takes the innermost open span of the main thread as its
parent, so the command that submitted the job owns it.
"""

from __future__ import annotations

import contextlib
import functools
import json
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from structconv import analyzer, cli, composite, structured, tensor, training

_MODULES = (tensor, structured, analyzer, training, cli, composite)

ROOT = "bench.op"


@dataclass
class Span:
    id: int
    name: str
    start: float
    parent: int | None
    run: int
    thread: int
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; one per traced phase."""

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._main_stack: list[Span] = []
        self._run = -1
        self.active = False
        self._lock = threading.Lock()

    def _stack(self) -> list[Span]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        top = stack[-1:] or self._main_stack[-1:]
        parent = top[0].id if top else None
        with self._lock:
            span = Span(len(self.spans), name, 0.0, parent, self._run, threading.get_ident())
            self.spans.append(span)
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    @contextlib.contextmanager
    def root(self):
        """One timed operation: a new run id and a root span."""
        self._run += 1
        self.active = True
        span = self.open(ROOT)
        try:
            yield span
        finally:
            self.close(span)
            self.active = False

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for s in self.spans:
                rec = {
                    "id": s.id,
                    "name": s.name,
                    "start": s.start,
                    "end": s.end,
                    "parent": s.parent,
                    "run": s.run,
                    "thread": s.thread,
                }
                if s.attrs:
                    rec["attrs"] = s.attrs
                f.write(json.dumps(rec) + "\n")


def _arg(args, kwargs, i, name, default=None):
    if len(args) > i:
        return args[i]
    return kwargs.get(name, default)


# Count functions: (args, kwargs, result) -> attrs recorded on the span. Every
# count is computed from array shapes, not measured inside the call.


def _conv_counts(args, kwargs, out):
    x = np.asarray(args[0])
    kernel = np.asarray(_arg(args, kwargs, 1, "kernel"))
    geom = _arg(args, kwargs, 2, "geom", tensor.ConvGeometry())
    c_out, c_k, kh, kw = kernel.shape
    return {
        "groups": geom.groups,
        "mults": int(out.size * c_k * kh * kw),
        "bytes": int(x.nbytes + kernel.nbytes + out.nbytes),
    }


def _linear_counts(args, kwargs, out):
    weight = np.asarray(args[0])
    x = np.asarray(_arg(args, kwargs, 1, "x"))
    return {"mults": int(weight.size), "bytes": int(weight.nbytes + x.nbytes + out.nbytes)}


def _pool_counts(args, kwargs, out):
    kc, kh, kw = (int(d) for d in _arg(args, kwargs, 1, "pool_dims"))
    return {"adds": int(out.size * (kc * kh * kw - 1))}


def _write_counts(args, kwargs, out):
    return {"bytes": int(np.asarray(_arg(args, kwargs, 1, "x")).size * 8)}


def _read_counts(args, kwargs, out):
    return {"bytes": int(out.nbytes)}


def _elems(args, kwargs, out):
    return {"elems": int(out.size)}


def _sm_bytes(args, kwargs, out):
    return {"bytes": int(out.A.nbytes + out.pinv.nbytes + out.projector.nbytes)}


def _kernels(args, kwargs, out):
    return {"kernels": int(np.asarray(args[0]).shape[0])}


def _train_mode(args, kwargs, out):
    return {"mode": _arg(args, kwargs, 2, "config").mode}


# (span name, owner, attribute, count function). The owner is a module, whose
# attribute is rebound in every module that holds the same function, or a
# class, whose attribute is replaced on the class only.
TARGETS = (
    ("tensor.conv", tensor, "conv", _conv_counts),
    ("tensor.linear", tensor, "linear", _linear_counts),
    ("tensor.sum_pool3d", tensor, "sum_pool3d", _pool_counts),
    ("tensor.random_tensor", tensor, "random_tensor", None),
    ("tensor.io", tensor, "write_tensor", _write_counts),
    ("tensor.io", tensor, "read_tensor", _read_counts),
    ("structured.reconstruct", structured, "_reconstruct_stack", _elems),
    ("structured.structure_matrix", structured, "structure_matrix", None),
    ("structured.structure_matrix.build", structured, "_build_structure_matrix", _sm_bytes),
    ("structured.residual", structured, "_worst_block_residual", _kernels),
    ("structured.decompose_layer", structured, "decompose_conv_layer", None),
    ("structured.decompose_layer", structured, "decompose_depthwise_layer", None),
    ("structured.decompose_layer", structured, "decompose_linear", None),
    ("structured.forward_decomposed", structured, "forward_decomposed", None),
    ("structured.forward_decomposed", structured, "forward_decomposed_depthwise", None),
    ("structured.forward_decomposed", structured, "forward_decomposed_linear", None),
    ("structured.save_layer", structured, "save_decomposed_layer", None),
    ("analyzer.parse_network_spec", analyzer, "parse_network_spec", None),
    ("cli.main", cli, "main", None),
    ("cli.verify_layer", cli, "_verify_layer", None),
    ("training.train", training, "train", _train_mode),
    ("training.sr_grad", training, "sr_grad", None),
    ("training.evaluate", training, "evaluate", None),
    ("training.decompose_model", training, "decompose_model", None),
    ("training.forward", training.ToyModel, "forward", None),
    ("training.backward", training.ToyModel, "backward", None),
    ("training.step", training.ToyModel, "step", None),
)


def _wrap(tracer: Tracer, name: str, fn, counts):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        span = tracer.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if counts is not None:
            span.attrs = counts(args, kwargs, out)
        return out

    return traced


def install(tracer: Tracer) -> list:
    """Wrap every target; returns the (owner, attribute, original) list that
    uninstall() needs."""
    patched = []
    for name, owner, attr, counts in TARGETS:
        original = getattr(owner, attr, None)
        if original is None:  # renamed or removed; its metrics read 0
            continue
        wrapper = _wrap(tracer, name, original, counts)
        owners = [owner] if isinstance(owner, type) else [
            m for m in _MODULES if getattr(m, attr, None) is original
        ]
        for o in owners:
            setattr(o, attr, wrapper)
            patched.append((o, attr, original))
    return patched


def uninstall(patched: list) -> None:
    for owner, attr, original in reversed(patched):
        setattr(owner, attr, original)


def _union_length(intervals, lo, hi) -> float:
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it covered by its children
    (children on other threads may overlap, so their union is taken)."""
    children: dict[int, list] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return [s.duration - _union_length(children.get(s.id, ()), s.start, s.end) for s in spans]


def ancestors(spans: list[Span], span: Span):
    p = span.parent
    while p is not None:
        yield spans[p]
        p = spans[p].parent
