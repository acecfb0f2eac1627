"""Structurally regularized training on a synthetic task.

Small stack of hand-differentiated layers (conv, depthwise conv, relu, global
average pool, linear) trained with plain mini-batch SGD on softmax cross
entropy. The conv, depthwise and linear layers are one structured layer type
that gathers its batch's im2col columns once for both passes; a depthwise
conv has a group per channel, a linear layer a 1x1 map. Three modes:

  regularized  adds lam * sum of per-layer structural residuals to the loss,
               pulling dense weights toward the structured subspace
  plain        the same run with lam = 0
  direct       trains the decomposed parameterization itself (pool plus small
               kernel), so every residual is zero by construction

The structural residual of a layer is ||(I - P) W||_F / ||W||_F with P the
orthogonal projector onto the structured subspace, applied kernel by kernel.
Everything is float64 and every source of randomness is seeded, so training
curves are reproducible bit for bit.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field

import numpy as np

from .structured import (
    ResidualError,
    StructuredConfig,
    _reconstruct_stack,
    block_alphas,
    structure_matrix,
)
from .tensor import col2im, im2col, random_tensor, window_sum, zero_pad

_SR_EPS = 1e-12  # smoothing inside the residual-norm factors of sr_grad


class DegenerateWeightError(ValueError):
    """Zero-norm weights have no defined structural residual direction."""


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss."""


def _blocks(w, cfg: StructuredConfig):
    # Flatten a weight tensor to rows of length C*N*N, one per kernel.
    d = cfg.C * cfg.N * cfg.N
    flat = np.asarray(w, dtype=np.float64).reshape(-1, d)
    return flat


def _residual_rows(w, cfg: StructuredConfig):
    # The kernel rows, their joint norm and (I - P) applied to each row.
    flat = _blocks(w, cfg)
    norm = float(np.linalg.norm(flat))
    if norm == 0.0:
        raise DegenerateWeightError("zero-norm weight tensor has no residual")
    proj = structure_matrix(cfg).projector
    return flat, norm, flat - flat @ proj.T


def layer_residual(w, cfg: StructuredConfig) -> float:
    """||(I - P) W||_F / ||W||_F over the whole layer tensor."""
    _, norm, resid = _residual_rows(w, cfg)
    return float(np.linalg.norm(resid) / norm)


def sr_loss(weights) -> float:
    """Sum of structural residuals over (W, cfg) pairs. The caller owns the
    regularization weight."""
    return sum(layer_residual(w, cfg) for w, cfg in weights)


def sr_grad(w, cfg: StructuredConfig) -> np.ndarray:
    """Gradient of the layer residual with respect to W.

    With R = (I - P) W, r = ||R||_eps / ||W|| and the gradient is
    R / (||R||_eps * ||W||) - (||R||_eps / ||W||^3) W, where
    ||v||_eps = sqrt(||v||^2 + eps) keeps the direction defined when W is
    already (nearly) structured.
    """
    w = np.asarray(w, dtype=np.float64)
    flat, nw, resid = _residual_rows(w, cfg)
    nr = float(np.sqrt(np.sum(resid * resid) + _SR_EPS))
    grad = resid / (nr * nw) - (nr / nw**3) * flat
    return grad.reshape(w.shape)


# Layer descriptors. Structure dims ride along with each trainable layer;
# input channel counts are resolved when the model is built.


@dataclass(frozen=True)
class Conv(object):
    out_channels: int
    kernel: int
    c: int
    n: int
    stride: int = 1
    padding: int = 0


@dataclass(frozen=True)
class DepthwiseConv(object):
    kernel: int
    n: int
    stride: int = 1
    padding: int = 0


@dataclass(frozen=True)
class Relu(object):
    pass


@dataclass(frozen=True)
class GlobalAvgPool(object):
    pass


@dataclass(frozen=True)
class Linear(object):
    out_features: int
    R: int


@dataclass(frozen=True)
class ToyModelSpec:
    layers: tuple
    input_shape: tuple[int, int, int] = (3, 8, 8)
    num_classes: int = 4


@dataclass(frozen=True)
class TrainingConfig:
    lam: float = 0.1
    lr: float = 0.3
    epochs: int = 30
    batch_size: int = 32
    seed: int = 0
    mode: str = "regularized"

    def __post_init__(self):
        if self.mode not in ("regularized", "direct", "plain"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "plain" and self.lam != 0.0:
            raise ValueError("mode 'plain' requires lam = 0")
        if self.mode == "direct" and self.lam != 0.0:
            raise ValueError("mode 'direct' takes no residual term; pass lam = 0")
        if not (np.isfinite(self.lam) and self.lam >= 0.0):
            raise ValueError(f"lam must be finite and >= 0, got {self.lam}")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        if not (np.isfinite(self.lr) and self.lr > 0.0):
            raise ValueError(f"lr must be finite and positive, got {self.lr}")


def _he_init(seed, shape):
    # Uniform He init; the fan-in is one output's kernel, all trailing axes.
    return np.array(random_tensor(seed, shape)) * np.sqrt(6.0 / np.prod(shape[1:]))


def _as_map(x):
    # A (B, Q) feature vector is a (B, Q, 1, 1) feature map.
    return x.reshape(x.shape[:2] + (x.shape[2:] or (1, 1)))


class _Layer:
    cfg = cols = None

    def params(self):
        return []


class _Structured(_Layer):
    """A structured conv, depthwise conv or linear layer.

    One weight per output, laid out (out, C, N, N) when dense and
    (out, c, n, n) when direct, where direct mode sum-pools the input with
    cfg.pool_dims before the small kernel. Input channels split into `groups`
    blocks as in tensor.conv: a depthwise conv has groups = channels and
    C = c = 1. A linear layer has N = n = 1 and reads (B, Q) inputs as 1x1 maps.

    The forward pads (direct mode: pools, with the window pair in sum_pool3d's
    order) the batch as a (C, H, W, B) map, gathers its im2col columns and
    runs one product per group over them: one GEMM for a conv or linear layer,
    one batched product for a depthwise layer. It returns a view of the
    (C', H', W', B) output, so the next layer's batch-last map is free. The
    columns live until the backward, whose weight gradient is one product per
    group with them and input gradient one product per group and one col2im.
    """

    def __init__(self, name, cfg, out_channels, groups, stride, padding, seed, direct):
        self.name = name
        self.cfg = cfg
        self.groups = groups
        self.stride = stride
        self.padding = padding
        self.direct = direct
        dims = (cfg.c, cfg.n) if direct else (cfg.C, cfg.N)
        self.w = _he_init(seed, (out_channels, dims[0], dims[1], dims[1]))
        self.b = np.zeros(out_channels)
        self.gw = np.zeros_like(self.w)
        self.gb = np.zeros_like(self.b)

    def forward(self, x):
        self.x_shape, p = x.shape, self.padding
        kc, kh, kw = self.cfg.pool_dims if self.direct else (1, 1, 1)
        xt = window_sum(_as_map(x).transpose(1, 2, 3, 0), kc, 0)
        xt = zero_pad(xt, p, p, axis=1) if p else xt
        xt = window_sum(window_sum(xt, kh, 1), kw, 2)
        k, s, grp = self.w.shape[-1], self.stride, self.groups
        self.pad_shape, cols = xt.shape, im2col(xt, (k, k), (s, s))
        self.cols = cols.reshape(grp, -1, cols.shape[-1])
        out = self.w.reshape(grp, len(self.w) // grp, -1) @ self.cols
        out = out.reshape((len(self.w),) + tuple((n - k) // s + 1 for n in xt.shape[1:3]) + (-1,))
        out += self.b[:, None, None, None]
        return out.transpose(3, 0, 1, 2).reshape(-1, *out.shape[: len(self.x_shape) - 1])

    def backward(self, g, input_grad=True):
        """Add this batch's weight and bias gradients to gw and gb and, with
        input_grad, return the gradient with respect to the layer's input."""
        g = _as_map(g)
        self.gb += g.sum(axis=(0, 2, 3))
        grp, k, s, p = self.groups, self.w.shape[-1], self.stride, self.padding
        gt = np.ascontiguousarray(g.transpose(1, 2, 3, 0)).reshape(grp, -1, self.cols.shape[-1])
        self.gw += np.matmul(gt, self.cols.transpose(0, 2, 1)).reshape(self.w.shape)
        self.cols = None  # the input gradient needs only gt and the weights
        if not input_grad:
            return None
        wt = self.w.reshape(grp, len(self.w) // grp, -1).transpose(0, 2, 1)
        if gt.shape[1] == 1:
            # One output per group (depthwise): outer products, np.matmul's bits
            # with no gemm call per group; a 16-entry ufunc buffer copies no tap.
            bufsize = np.setbufsize(16)
            try:
                dcols = wt * gt
            finally:
                np.setbufsize(bufsize)
        else:
            dcols = np.matmul(wt, gt)
        dxp = col2im(dcols, self.pad_shape, (k, k), (s, s)).transpose(3, 0, 1, 2)
        if self.direct:
            # The stride-1 pool's adjoint spreads each axis over its window,
            # which is the reconstruction A @ alpha applied to every sample.
            dxp = _reconstruct_stack(dxp, self.cfg)
        return dxp[:, :, p : dxp.shape[2] - p, p : dxp.shape[3] - p].reshape(self.x_shape)

    def params(self):
        return [(self.w, self.gw), (self.b, self.gb)]

    def effective_weight(self):
        return _reconstruct_stack(self.w, self.cfg) if self.direct else self.w

    def residual(self):
        return layer_residual(self.effective_weight(), self.cfg)


class _Relu(_Layer):
    def forward(self, x):
        self.mask = x > 0
        return x * self.mask

    def backward(self, g):
        return g * self.mask


class _GlobalAvgPool(_Layer):
    def forward(self, x):
        self.x_shape = x.shape
        return x.mean(axis=(2, 3))

    def backward(self, g):
        b, c, h, w = self.x_shape  # a view with the batch last, like the layers' outputs
        return np.broadcast_to((g / (h * w)).T[:, None, None], (c, h, w, b)).transpose(3, 0, 1, 2)


class ToyModel:
    """Ordered layer stack built from a ToyModelSpec."""

    def __init__(self, spec: ToyModelSpec, seed: int, direct: bool = False):
        self.spec = spec
        self.direct = direct
        channels = spec.input_shape[0]
        layers = []
        for i, desc in enumerate(spec.layers):
            lseed = seed + 101 * i + 1
            if isinstance(desc, Conv):
                cfg = StructuredConfig(C=channels, N=desc.kernel, c=desc.c, n=desc.n)
                layer = _Structured(
                    "conv2d", cfg, desc.out_channels, 1, desc.stride, desc.padding, lseed, direct
                )
                channels = desc.out_channels
            elif isinstance(desc, DepthwiseConv):
                cfg = StructuredConfig(C=1, N=desc.kernel, c=1, n=desc.n)
                layer = _Structured(
                    "depthwiseconv2d", cfg, channels, channels, desc.stride, desc.padding,
                    lseed, direct,
                )
            elif isinstance(desc, Relu):
                layer = _Relu()
            elif isinstance(desc, GlobalAvgPool):
                layer = _GlobalAvgPool()
            elif isinstance(desc, Linear):
                cfg = StructuredConfig(C=channels, N=1, c=desc.R, n=1)
                layer = _Structured("linear", cfg, desc.out_features, 1, 1, 0, lseed, direct)
                channels = desc.out_features
            else:
                raise TypeError(f"unknown layer descriptor {desc!r}")
            layers.append(layer)
        self.layers = layers

    def forward(self, x):
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def predict(self, x):
        """The logits of a forward that no backward follows: no columns kept."""
        for layer in self.layers:
            x = layer.forward(x)
            layer.cols = None
        return x

    def backward(self, g):
        """Add the gradients of the loss whose logits gradient is g to every
        parameter's gradient. The gradient with respect to the data is never
        built: nothing reads it, so the backward stops at the first
        structured layer's weight and bias gradients."""
        trainable = self.structured_layers()
        if not trainable:
            return
        first = self.layers.index(trainable[0])
        for layer in reversed(self.layers[first + 1 :]):
            g = layer.backward(g)
        trainable[0].backward(g, input_grad=False)

    def zero_grads(self):
        for layer in self.layers:
            for _, grad in layer.params():
                grad[...] = 0.0

    def step(self, lr):
        for layer in self.layers:
            for param, grad in layer.params():
                param -= lr * grad

    def structured_layers(self):
        return [l for l in self.layers if l.cfg is not None]

    def residuals(self) -> dict[str, float]:
        return {
            f"layer_{i}_{layer.name}": layer.residual()
            for i, layer in enumerate(self.layers)
            if layer.cfg is not None
        }


def _softmax_ce(logits, labels):
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    probs = exp / exp.sum(axis=1, keepdims=True)
    b = logits.shape[0]
    loss = float(-np.mean(np.log(probs[np.arange(b), labels] + 1e-300)))
    grad = probs.copy()
    grad[np.arange(b), labels] -= 1.0
    return loss, grad / b


@dataclass(frozen=True)
class ToyDataset:
    train_x: np.ndarray
    train_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray
    teacher: ToyModel
    seed: int


_TEACHER_SPEC = ToyModelSpec(
    layers=(
        Conv(out_channels=8, kernel=3, c=3, n=3, stride=2, padding=1),
        Relu(),
        Conv(out_channels=8, kernel=3, c=8, n=3, stride=2, padding=1),
        Relu(),
        GlobalAvgPool(),
        Linear(out_features=4, R=8),
    ),
    input_shape=(3, 8, 8),
    num_classes=4,
)

_N_TRAIN, _N_TEST = 2048, 512
_BALANCE_LO, _BALANCE_HI = 0.225, 0.275  # within 10% of uniform over 4 classes


def _balanced(labels, classes):
    counts = np.bincount(labels, minlength=classes)
    frac = counts / labels.shape[0]
    return bool(np.all((frac >= _BALANCE_LO) & (frac <= _BALANCE_HI)))


def _calibrate_head_bias(logits, classes):
    # Shift the bias until each class wins close to 1/classes of the pool.
    # Mean-centering alone is not enough: a class whose logit varies more
    # wins argmax more often, so the shift is fitted iteratively.
    b = -logits.mean(axis=0)
    target = 1.0 / classes
    for _ in range(200):
        frac = np.bincount(np.argmax(logits + b, axis=1), minlength=classes)
        frac = frac / logits.shape[0]
        if np.all(np.abs(frac - target) <= 0.01):
            break
        b += 0.1 * (target - frac)
    return b


def make_toy_dataset(seed: int = 0) -> ToyDataset:
    """Inputs from the seeded generator, labels from a frozen random teacher.

    The teacher's final bias is fitted so each class wins about a quarter of
    the generated pool; if either split still leaves the 22.5%..27.5%
    per-class band, the seed chain advances by 1000003 and everything is
    regenerated.
    """
    total = _N_TRAIN + _N_TEST
    for attempt in range(64):
        s = seed + 1000003 * attempt
        x = np.array(random_tensor(s, (total, 3, 8, 8)))
        teacher = ToyModel(_TEACHER_SPEC, seed=s + 7)
        logits = teacher.predict(x)
        # The head bias is zero until now, so logits + shift has the bits of
        # a second forward with the shifted bias.
        shift = _calibrate_head_bias(logits, 4)
        teacher.layers[-1].b += shift
        labels = np.argmax(logits + shift, axis=1)
        train_y, test_y = labels[:_N_TRAIN], labels[_N_TRAIN:]
        if _balanced(train_y, 4) and _balanced(test_y, 4):
            return ToyDataset(
                train_x=x[:_N_TRAIN],
                train_y=train_y,
                test_x=x[_N_TRAIN:],
                test_y=test_y,
                teacher=teacher,
                seed=s,
            )
    raise RuntimeError("could not draw a class-balanced dataset in 64 attempts")


@dataclass(frozen=True)
class EvalResult:
    accuracy: float
    loss: float


def evaluate(model: ToyModel, x, y, batch_size: int = 256) -> EvalResult:
    losses, correct = [], 0
    for start in range(0, x.shape[0], batch_size):
        xb, yb = x[start : start + batch_size], y[start : start + batch_size]
        logits = model.predict(xb)
        loss, _ = _softmax_ce(logits, yb)
        losses.append(loss * xb.shape[0])
        correct += int(np.sum(np.argmax(logits, axis=1) == yb))
    return EvalResult(accuracy=correct / x.shape[0], loss=sum(losses) / x.shape[0])


@dataclass
class TrainLog:
    mode: str
    lam: float
    epochs: list = field(default_factory=list)
    final_accuracy: float = 0.0
    final_accuracy_decomposed: float = 0.0

    def to_records(self):
        recs = [dict(r) for r in self.epochs]
        recs.append(
            {
                "final": {
                    "mode": self.mode,
                    "lam": self.lam,
                    "accuracy": self.final_accuracy,
                    "accuracy_decomposed": self.final_accuracy_decomposed,
                }
            }
        )
        return recs


def save_train_log(path, log: TrainLog) -> None:
    """One JSON object per line: epoch records, then the final summary. The
    file is written beside path and then replaces it, so a failed write leaves
    path as it was."""
    with tempfile.TemporaryDirectory(dir=os.path.dirname(os.path.abspath(path))) as tmp:
        part = os.path.join(tmp, "log.jsonl")
        with open(part, "w", encoding="utf-8") as f:
            for rec in log.to_records():
                f.write(json.dumps(rec, sort_keys=True))
                f.write("\n")
        os.replace(part, path)


def decompose_model(model: ToyModel, residual_tol: float = 1e-6) -> ToyModel:
    """Rebuild the model in decomposed form (pool + small kernels).

    Dense layers are projected; a layer whose residual exceeds residual_tol
    aborts the conversion. A model already in direct form just has its
    parameters copied.
    """
    out = ToyModel(model.spec, seed=0, direct=True)
    for i, (src, dst) in enumerate(zip(model.layers, out.layers)):
        if src.cfg is None:
            continue
        if src.direct:
            dst.w = src.w.copy()
            dst.b = src.b.copy()
        else:
            r = src.residual()
            if not r <= residual_tol:
                raise ResidualError(
                    f"layer {i} ({src.name}) has residual {r:.3e} > tolerance {residual_tol:.3e}"
                )
            alphas = block_alphas(_blocks(src.w, src.cfg), src.cfg)
            dst.w = alphas.reshape(dst.w.shape)
            dst.b = src.b.copy()
        dst.gw = np.zeros_like(dst.w)
        dst.gb = np.zeros_like(dst.b)
    return out


def train(spec: ToyModelSpec, dataset: ToyDataset, config: TrainingConfig):
    """Mini-batch SGD; returns (model, TrainLog).

    In regularized mode each structured layer's weight gradient gets
    lam * sr_grad added. The log records, per epoch, the mean task loss, the
    summed residual, every layer's residual, and test accuracy; after the last
    epoch the model is decomposed (tolerance 1, projection always permitted)
    and both accuracies land in the log.
    """
    model = ToyModel(spec, seed=config.seed, direct=(config.mode == "direct"))
    shuffle = np.random.default_rng(config.seed)
    log = TrainLog(mode=config.mode, lam=config.lam)
    n = dataset.train_x.shape[0]
    for epoch in range(1, config.epochs + 1):
        order = shuffle.permutation(n)
        batch_losses = []
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            xb, yb = dataset.train_x[idx], dataset.train_y[idx]
            logits = model.forward(xb)
            loss, g = _softmax_ce(logits, yb)
            if not np.isfinite(loss):
                raise DivergenceError(f"non-finite loss at epoch {epoch}")
            model.zero_grads()
            model.backward(g)
            if config.mode == "regularized" and config.lam != 0.0:
                for layer in model.structured_layers():
                    layer.gw += config.lam * sr_grad(layer.w, layer.cfg)
            model.step(config.lr)
            batch_losses.append(loss)
        residuals = model.residuals()
        sr_total = sum(residuals.values())
        acc = evaluate(model, dataset.test_x, dataset.test_y)
        log.epochs.append(
            {
                "epoch": epoch,
                "task_loss": float(np.mean(batch_losses)),
                "sr_loss": sr_total,
                "residuals": residuals,
                "test_accuracy": acc.accuracy,
            }
        )
    log.final_accuracy = log.epochs[-1]["test_accuracy"]
    decomposed = decompose_model(model, residual_tol=1.0)
    log.final_accuracy_decomposed = evaluate(
        decomposed, dataset.test_x, dataset.test_y
    ).accuracy
    return model, log
