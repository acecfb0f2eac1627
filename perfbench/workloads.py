"""The benchmark workloads, each a closed loop of one call at a time.

Every workload is built by its constructor (the set-up: seeded inputs, any
files it needs, and a warm-up operation that is checked like a timed one).
run() performs one timed operation and returns its timed parts in seconds;
the operation's time is their sum. check() raises CheckFailed when the output
of the last run() is wrong, so a wrong answer never counts as a timed success.

Workloads call structconv only through its module attributes, so the tracing
wrappers in tracing.py see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import time
from dataclasses import dataclass

import numpy as np

from structconv import analyzer, cli, structured, tensor, training

FIXTURES = os.path.join(os.path.dirname(structured.__file__), "fixtures")
MV2B = os.path.join(FIXTURES, "struct_mv2_b.json")
EFFNET = os.path.join(FIXTURES, "struct_effnet.json")

REL_TOL = 1e-10
VERIFY_TRIALS = 2
TRAIN_EPOCHS = 1
KINDS = ("conv", "dwconv", "pwconv", "linear")

# Totals that `structconv analyze` has always printed for the shipped
# fixtures at 224x224: (mults dense, mults decomposed).
PINNED_MULTS = {"struct_mv2_b.json": (300774272, 174742848)}

# The lru_cache object itself; the tracing wrapper that may replace the
# module attribute has no cache_clear().
_STRUCTURE_MATRIX = structured.structure_matrix


class CheckFailed(Exception):
    """A timed operation produced a wrong result."""


class CountMismatch(Exception):
    """Per-layer analytic counts do not sum to the analyze command's totals."""


def layer_seed(seed: int, index: int) -> int:
    return seed * 1000003 + index * 7919


def layer_cfg(spec) -> structured.StructuredConfig:
    if spec.kind == "linear":
        return structured.StructuredConfig(C=spec.cin, N=1, c=spec.c, n=1)
    if spec.kind == "dwconv":
        return structured.StructuredConfig(C=1, N=spec.k, c=1, n=spec.n)
    return structured.StructuredConfig(C=spec.cin, N=spec.k, c=spec.c, n=spec.n)


def coefficients(spec, seed: int) -> np.ndarray:
    """Seeded structured coefficients, shaped (kernels, c, n, n)."""
    cfg = layer_cfg(spec)
    return np.array(tensor.random_tensor(seed, (spec.cout, cfg.c, cfg.n, cfg.n)))


def dense_weights(spec, alphas) -> np.ndarray:
    """The exactly structured dense weights the coefficients describe, in the
    layout the decompose command reads."""
    w = structured._reconstruct_stack(alphas, layer_cfg(spec))
    return w.reshape(spec.cout, spec.cin) if spec.kind == "linear" else w


def rel_error(ref, got) -> float:
    ref, got = np.asarray(ref), np.asarray(got)
    if ref.shape != got.shape:
        return float("inf")
    return float(np.max(np.abs(ref - got)) / max(1.0, float(np.max(np.abs(ref)))))


def run_cli(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


_COUNT_FIELDS = ("mults_before", "mults_after", "adds_before", "adds_after")


def checked_costs(config: str, input_size) -> list:
    """layer_costs for every layer of config, after checking that they sum to
    the totals `structconv analyze` prints (and, for pinned fixtures, to the
    pinned totals). Raises CountMismatch otherwise."""
    h, w = input_size
    reports = [analyzer.layer_costs(s) for s in analyzer.parse_network_spec(config, (h, w))]
    rc, out = run_cli(["analyze", "--config", config, "--input-size", f"{h}x{w}", "--format", "json"])
    if rc != 0:
        raise CountMismatch(f"analyze exited {rc} on {config}")
    payload = json.loads(out)
    for field in _COUNT_FIELDS:
        layer_sum = sum(getattr(r, field) for r in reports)
        if payload["totals"][field] != layer_sum:
            raise CountMismatch(
                f"{config}: {field} per-layer sum {layer_sum} != analyze total "
                f"{payload['totals'][field]}"
            )
    pinned = PINNED_MULTS.get(os.path.basename(config))
    if pinned is not None and (h, w) == (224, 224):
        got = (payload["totals"]["mults_before"], payload["totals"]["mults_after"])
        if got != pinned:
            raise CountMismatch(f"{config}: mults {got[0]} -> {got[1]}, expected {pinned[0]} -> {pinned[1]}")
    return reports


@dataclass
class _InferLayer:
    spec: object
    dense: object
    decomposed: object


def _infer_layer(spec, seed):
    alphas = coefficients(spec, layer_seed(seed, spec.index))
    kernel = dense_weights(spec, alphas)
    x_seed = layer_seed(seed, spec.index) + 500009
    if spec.kind == "linear":
        x = tensor.random_tensor(x_seed, (spec.cin,))
        layer = structured.DecomposedLinearLayer(
            in_features=spec.cin, R=spec.c, small=alphas.reshape(spec.cout, spec.c)
        )
        return _InferLayer(
            spec,
            lambda: tensor.linear(kernel, x),
            lambda: structured.forward_decomposed_linear(x, layer),
        )
    cfg = layer_cfg(spec)
    depthwise = spec.kind == "dwconv"
    geom = tensor.ConvGeometry(
        stride=spec.stride,
        padding=spec.pad,
        dilation=spec.dilation,
        groups=spec.cout if depthwise else 1,
    )
    common = dict(
        cfg=cfg,
        pool_dims=cfg.pool_dims,
        pool_geom=tensor.ConvGeometry(stride=1, padding=spec.pad, dilation=spec.dilation),
        alpha=alphas,
        small_geom=tensor.ConvGeometry(stride=spec.stride, padding=0, dilation=spec.dilation),
    )
    x = tensor.random_tensor(x_seed, (spec.cout if depthwise else spec.cin, spec.in_h, spec.in_w))
    if depthwise:
        layer = structured.DecomposedDepthwiseLayer(channels=spec.cout, **common)
        forward = lambda: structured.forward_decomposed_depthwise(x, layer)
    else:
        layer = structured.DecomposedConvLayer(**common)
        forward = lambda: structured.forward_decomposed(x, layer)
    return _InferLayer(spec, lambda: tensor.conv(x, kernel, geom), forward)


class InferWorkload:
    """One image through every layer of a network at its real input shape, on
    the dense path (conv or linear on the reconstructed kernels) and then on
    the decomposed path (pool, then small conv)."""

    name = "infer-mv2b"

    def __init__(self, seed, workdir, config=MV2B, input_size=(224, 224)):
        self.count_config, self.count_size = config, input_size
        specs = analyzer.parse_network_spec(config, input_size)
        self.layers = [_infer_layer(spec, seed) for spec in specs]
        self.by_kind = {k: [0.0, 0.0] for k in KINDS}
        self.run()
        self.check()
        self.by_kind = {k: [0.0, 0.0] for k in KINDS}

    def run(self):
        dense = decomposed = 0.0
        self.worst = (None, 0.0)
        for layer in self.layers:
            t0 = time.perf_counter()
            y_dense = layer.dense()
            t1 = time.perf_counter()
            y_dec = layer.decomposed()
            t2 = time.perf_counter()
            dense += t1 - t0
            decomposed += t2 - t1
            kind = self.by_kind[layer.spec.kind]
            kind[0] += t1 - t0
            kind[1] += t2 - t1
            err = rel_error(y_dense, y_dec)
            if not err <= self.worst[1]:
                self.worst = (layer.spec.index, err)
        return {"infer_dense_s": dense, "infer_decomposed_s": decomposed}

    def check(self):
        index, err = self.worst
        if not err <= REL_TOL:
            raise CheckFailed(f"layer {index}: dense and decomposed differ by {err:.3e}")

    def wall_ratios(self):
        return {k: (dec / dense if dense > 0 else 0.0) for k, (dense, dec) in self.by_kind.items()}


class VerifyWorkload:
    """One `structconv verify` command on a network with a fixed seed and
    trial count."""

    name = "verify-effnet"

    def __init__(self, seed, workdir, config=EFFNET, trials=VERIFY_TRIALS, corrupt=False):
        self.count_config, self.count_size = config, (224, 224)
        self.argv = [
            "verify", "--config", config, "--seed", str(seed),
            "--trials", str(trials), "--format", "json",
        ]
        self.run()
        self.check()
        if corrupt:
            self.argv.append("--corrupt-alpha")

    def run(self):
        t0 = time.perf_counter()
        self.rc, self.out = run_cli(self.argv)
        return {"verify_s": time.perf_counter() - t0}

    def check(self):
        if self.rc != 0:
            raise CheckFailed(f"verify exited {self.rc}")
        payload = json.loads(self.out)
        if payload["pass"] is not True:
            raise CheckFailed(f"verify reports max relative error {payload['max_rel_error']:.3e}")


class DecomposeWorkload:
    """One `structconv decompose` command over exactly structured weights for
    every layer, into a fresh directory and with a cold structure-matrix
    cache, as a new CLI process would run it."""

    name = "decompose-effnet"

    def __init__(self, seed, workdir, config=EFFNET):
        self.config = config
        self.count_config, self.count_size = config, (224, 224)
        self.workdir = workdir
        self.weights_dir = os.path.join(workdir, "weights")
        shutil.rmtree(self.weights_dir, ignore_errors=True)
        os.makedirs(self.weights_dir)
        self.specs = analyzer.parse_network_spec(config)
        self.kernels_per_op = sum(spec.cout for spec in self.specs)
        self.weights = {}
        for spec in self.specs:
            w = dense_weights(spec, coefficients(spec, layer_seed(seed, spec.index)))
            self.weights[spec.index] = w
            tensor.write_tensor(self._weight_path(spec), w)
        # Warm-up: the first cold decompose in a process runs about a quarter
        # slower than later ones until the allocator has grown to hold the
        # structure matrices and the weight files are in the page cache.
        _STRUCTURE_MATRIX.cache_clear()
        for cfg in {layer_cfg(spec) for spec in self.specs}:
            structured.structure_matrix(cfg)
        for spec in self.specs:
            tensor.read_tensor(self._weight_path(spec))
        self.runs = 0

    def _weight_path(self, spec):
        return os.path.join(self.weights_dir, f"layer_{spec.index:03d}.stcv")

    def run(self):
        _STRUCTURE_MATRIX.cache_clear()
        self.runs += 1
        self.out_dir = os.path.join(self.workdir, f"out_{self.runs}")
        argv = [
            "decompose", "--weights", self.weights_dir, "--config", self.config,
            "--out", self.out_dir, "--format", "json",
        ]
        t0 = time.perf_counter()
        self.rc, self.out = run_cli(argv)
        return {"decompose_s": time.perf_counter() - t0}

    def check(self):
        try:
            if self.rc != 0:
                raise CheckFailed(f"decompose exited {self.rc}")
            if json.loads(self.out)["pass"] is not True:
                raise CheckFailed("decompose reports a residual above tolerance")
            sidecars = sorted(f for f in os.listdir(self.out_dir) if f.endswith(".json"))
            expect = [f"layer_{spec.index:03d}.json" for spec in self.specs]
            if sidecars != expect:
                raise CheckFailed(f"expected sidecars {expect}, found {sidecars}")
            for spec in self.specs:
                layer = structured.load_decomposed_layer(os.path.join(self.out_dir, expect[spec.index - 1]))
                alphas = layer.small[:, :, None, None] if spec.kind == "linear" else layer.alpha
                err = rel_error(self.weights[spec.index], dense_weights(spec, alphas))
                if not err <= REL_TOL:
                    raise CheckFailed(f"layer {spec.index}: reloaded alpha reconstructs with error {err:.3e}")
        finally:
            shutil.rmtree(self.out_dir, ignore_errors=True)


class TrainWorkload:
    """training.train on the toy dataset with the stock toy model, once in
    regularized mode (lambda 1) and once in direct mode."""

    name = "train-toy"
    modes = (("regularized", 1.0), ("direct", 0.0))

    def __init__(self, seed, workdir, epochs=TRAIN_EPOCHS):
        self.epochs = epochs
        self.dataset = training.make_toy_dataset(seed)
        self.spec = cli.default_toy_model_spec()
        self.count_config = os.path.join(workdir, "toy_net.json")
        self.count_size = self.spec.input_shape[1:]
        with open(self.count_config, "w", encoding="utf-8") as f:
            json.dump(toy_network(self.spec), f)
        self.configs = {
            mode: training.TrainingConfig(lam=lam, epochs=epochs, seed=seed, mode=mode)
            for mode, lam in self.modes
        }
        self.run()
        self.check()

    def run(self):
        parts, self.logs = {}, {}
        for mode, config in self.configs.items():
            t0 = time.perf_counter()
            _, self.logs[mode] = training.train(self.spec, self.dataset, config)
            parts[f"train_{mode}_epoch_s"] = (time.perf_counter() - t0) / self.epochs
        return parts

    def check(self):
        for mode, log in self.logs.items():
            losses = [rec["task_loss"] for rec in log.epochs]
            if len(losses) != self.epochs or not np.all(np.isfinite(losses)):
                raise CheckFailed(f"{mode}: task losses {losses}")
        direct = self.logs["direct"]
        if direct.final_accuracy != direct.final_accuracy_decomposed:
            raise CheckFailed(
                f"direct: accuracy {direct.final_accuracy} but decomposed "
                f"{direct.final_accuracy_decomposed}"
            )


def toy_network(spec: training.ToyModelSpec) -> list[dict]:
    """The toy model's structured layers as a network description, so the
    analyzer can count its operations."""
    layers, channels = [], spec.input_shape[0]
    for desc in spec.layers:
        if isinstance(desc, training.Conv):
            layers.append({
                "kind": "pwconv" if desc.kernel == 1 else "conv", "cout": desc.out_channels,
                "cin": channels, "k": desc.kernel, "c": desc.c, "n": desc.n,
                "stride": desc.stride, "pad": desc.padding,
            })
            channels = desc.out_channels
        elif isinstance(desc, training.DepthwiseConv):
            layers.append({
                "kind": "dwconv", "cout": channels, "cin": 1, "k": desc.kernel, "c": 1,
                "n": desc.n, "stride": desc.stride, "pad": desc.padding,
            })
        elif isinstance(desc, training.Linear):
            layers.append({"kind": "linear", "cout": desc.out_features, "cin": channels, "k": 1, "c": desc.R, "n": 1})
            channels = desc.out_features
    return layers


WORKLOADS = {
    w.name: w for w in (InferWorkload, VerifyWorkload, DecomposeWorkload, TrainWorkload)
}

