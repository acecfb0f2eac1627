"""Structurally regularized training on a synthetic task.

Small stack of hand-differentiated layers (conv, depthwise conv, relu, global
average pool, linear) trained with plain mini-batch SGD on softmax cross
entropy. Three modes:

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
from dataclasses import dataclass, field

import numpy as np

from .structured import (
    StructuredConfig,
    structure_matrix,
)
from .tensor import ConvGeometry, _gather_patches, random_tensor, sum_pool3d

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


def layer_residual(w, cfg: StructuredConfig) -> float:
    """||(I - P) W||_F / ||W||_F over the whole layer tensor."""
    flat = _blocks(w, cfg)
    norm = float(np.linalg.norm(flat))
    if norm == 0.0:
        raise DegenerateWeightError("zero-norm weight tensor has no residual")
    proj = structure_matrix(cfg).projector
    resid = flat - flat @ proj.T
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
    flat = _blocks(w, cfg)
    nw = float(np.linalg.norm(flat))
    if nw == 0.0:
        raise DegenerateWeightError("zero-norm weight tensor has no residual")
    proj = structure_matrix(cfg).projector
    resid = flat - flat @ proj.T
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
        if self.lam < 0.0:
            raise ValueError("lam must be >= 0")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        if self.lr <= 0:
            raise ValueError("lr must be positive")


def _he_init(seed, shape, fan_in):
    return np.array(random_tensor(seed, shape)) * np.sqrt(6.0 / fan_in)


def _pool3d_backward(g, x_shape, dims, padding, dilation=(1, 1)):
    kc, kh, kw = dims
    ph, pw = padding
    dh, dw = dilation
    b, cin, h, w = x_shape
    h1, w1 = g.shape[2], g.shape[3]
    dxp = np.zeros((b, cin, h + 2 * ph, w + 2 * pw))
    cout = g.shape[1]
    for dc in range(kc):
        for u in range(kh):
            for v in range(kw):
                dxp[:, dc : dc + cout, u * dh : u * dh + h1, v * dw : v * dw + w1] += g
    return dxp[:, :, ph : ph + h, pw : pw + w]


def _conv_patches(x, kernel, stride, padding):
    kh = kw = kernel
    ho = (x.shape[2] + 2 * padding - kh) // stride + 1
    wo = (x.shape[3] + 2 * padding - kw) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    return _gather_patches(xp, (ho, wo), (kh, kw), (stride, stride), (1, 1))


def _scatter_conv_input_grad(g, w_uv_fn, x_shape, kernel, stride, padding):
    # Shared scatter for conv/depthwise input gradients: for each kernel tap
    # (u, v), w_uv_fn maps g to that tap's contribution in input layout.
    b, cin, h, w = x_shape
    ho, wo = g.shape[2], g.shape[3]
    dxp = np.zeros((b, cin, h + 2 * padding, w + 2 * padding))
    for u in range(kernel):
        for v in range(kernel):
            dxp[:, :, u : u + stride * ho : stride, v : v + stride * wo : stride] += w_uv_fn(u, v)
    return dxp[:, :, padding : padding + h, padding : padding + w]


class _Layer:
    cfg = None

    def params(self):
        return []

    def residual(self):
        return None


class _Conv2D(_Layer):
    def __init__(self, in_channels, spec: Conv, seed, direct):
        self.spec = spec
        self.cfg = StructuredConfig(C=in_channels, N=spec.kernel, c=spec.c, n=spec.n)
        self.direct = direct
        fan_in = in_channels * spec.kernel**2
        if direct:
            self.w = _he_init(seed, (spec.out_channels, spec.c, spec.n, spec.n), spec.c * spec.n**2)
        else:
            self.w = _he_init(seed, (spec.out_channels, in_channels, spec.kernel, spec.kernel), fan_in)
        self.b = np.zeros(spec.out_channels)
        self.gw = np.zeros_like(self.w)
        self.gb = np.zeros_like(self.b)

    def forward(self, x):
        self.x_shape = x.shape
        s, p = self.spec.stride, self.spec.padding
        if self.direct:
            pooled = sum_pool3d(x, self.cfg.pool_dims, ConvGeometry(padding=p))
            self.pooled_shape = pooled.shape
            self.patches = _conv_patches(pooled, self.w.shape[-1], s, 0)
        else:
            self.patches = _conv_patches(x, self.w.shape[-1], s, p)
        out = np.einsum("bchwuv,ocuv->bohw", self.patches, self.w, optimize=True)
        return out + self.b[None, :, None, None]

    def backward(self, g):
        s, p = self.spec.stride, self.spec.padding
        self.gw += np.einsum("bohw,bchwuv->ocuv", g, self.patches, optimize=True)
        self.gb += g.sum(axis=(0, 2, 3))
        w = self.w
        scatter = lambda u, v: np.einsum("bohw,oc->bchw", g, w[:, :, u, v], optimize=True)
        if self.direct:
            g_pooled = _scatter_conv_input_grad(
                g, scatter, self.pooled_shape, self.w.shape[-1], s, 0
            )
            return _pool3d_backward(g_pooled, self.x_shape, self.cfg.pool_dims, (p, p))
        return _scatter_conv_input_grad(g, scatter, self.x_shape, self.w.shape[-1], s, p)

    def params(self):
        return [(self.w, self.gw), (self.b, self.gb)]

    def effective_weight(self):
        from .structured import _reconstruct_stack

        return _reconstruct_stack(self.w, self.cfg) if self.direct else self.w

    def residual(self):
        return layer_residual(self.effective_weight(), self.cfg)


class _DepthwiseConv2D(_Layer):
    def __init__(self, channels, spec: DepthwiseConv, seed, direct):
        self.spec = spec
        self.channels = channels
        self.cfg = StructuredConfig(C=1, N=spec.kernel, c=1, n=spec.n)
        self.direct = direct
        if direct:
            self.w = _he_init(seed, (channels, spec.n, spec.n), spec.n**2)
        else:
            self.w = _he_init(seed, (channels, spec.kernel, spec.kernel), spec.kernel**2)
        self.b = np.zeros(channels)
        self.gw = np.zeros_like(self.w)
        self.gb = np.zeros_like(self.b)

    def forward(self, x):
        self.x_shape = x.shape
        s, p = self.spec.stride, self.spec.padding
        if self.direct:
            pooled = sum_pool3d(x, self.cfg.pool_dims, ConvGeometry(padding=p))
            self.pooled_shape = pooled.shape
            self.patches = _conv_patches(pooled, self.w.shape[-1], s, 0)
        else:
            self.patches = _conv_patches(x, self.w.shape[-1], s, p)
        out = np.einsum("bchwuv,cuv->bchw", self.patches, self.w, optimize=True)
        return out + self.b[None, :, None, None]

    def backward(self, g):
        s, p = self.spec.stride, self.spec.padding
        self.gw += np.einsum("bchw,bchwuv->cuv", g, self.patches, optimize=True)
        self.gb += g.sum(axis=(0, 2, 3))
        w = self.w
        scatter = lambda u, v: g * w[None, :, u, v, None, None]
        if self.direct:
            g_pooled = _scatter_conv_input_grad(
                g, scatter, self.pooled_shape, self.w.shape[-1], s, 0
            )
            return _pool3d_backward(g_pooled, self.x_shape, self.cfg.pool_dims, (p, p))
        return _scatter_conv_input_grad(g, scatter, self.x_shape, self.w.shape[-1], s, p)

    def params(self):
        return [(self.w, self.gw), (self.b, self.gb)]

    def effective_weight(self):
        from .structured import _reconstruct_stack

        if self.direct:
            return _reconstruct_stack(self.w[:, None], self.cfg)
        return self.w[:, None]

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
        b, c, h, w = self.x_shape
        return np.broadcast_to(g[:, :, None, None], self.x_shape) / (h * w)


class _Linear(_Layer):
    def __init__(self, in_features, spec: Linear, seed, direct):
        self.spec = spec
        self.in_features = in_features
        self.cfg = StructuredConfig(C=in_features, N=1, c=spec.R, n=1)
        self.direct = direct
        if direct:
            self.w = _he_init(seed, (spec.out_features, spec.R), spec.R)
        else:
            self.w = _he_init(seed, (spec.out_features, in_features), in_features)
        self.b = np.zeros(spec.out_features)
        self.gw = np.zeros_like(self.w)
        self.gb = np.zeros_like(self.b)

    def forward(self, x):
        if self.direct:
            window = self.in_features - self.spec.R + 1
            self.x_in = x
            pooled = np.lib.stride_tricks.sliding_window_view(x, window, axis=1).sum(axis=-1)
            self.pooled = pooled
            return pooled @ self.w.T + self.b
        self.x_in = x
        return x @ self.w.T + self.b

    def backward(self, g):
        self.gb += g.sum(axis=0)
        if self.direct:
            self.gw += g.T @ self.pooled
            g_pooled = g @ self.w
            window = self.in_features - self.spec.R + 1
            dx = np.zeros((g.shape[0], self.in_features))
            for d in range(window):
                dx[:, d : d + self.spec.R] += g_pooled
            return dx
        self.gw += g.T @ self.x_in
        return g @ self.w

    def params(self):
        return [(self.w, self.gw), (self.b, self.gb)]

    def effective_weight(self):
        if not self.direct:
            return self.w
        from .structured import _reconstruct_stack

        stacked = self.w[:, :, None, None]
        return _reconstruct_stack(stacked, self.cfg).reshape(self.spec.out_features, self.in_features)

    def residual(self):
        return layer_residual(self.effective_weight(), self.cfg)


class ToyModel:
    """Ordered layer stack built from a ToyModelSpec."""

    def __init__(self, spec: ToyModelSpec, seed: int, direct: bool = False):
        self.spec = spec
        self.direct = direct
        channels, h, w = spec.input_shape
        layers = []
        for i, desc in enumerate(spec.layers):
            lseed = seed + 101 * i + 1
            if isinstance(desc, Conv):
                layer = _Conv2D(channels, desc, lseed, direct)
                channels = desc.out_channels
                h = (h + 2 * desc.padding - desc.kernel) // desc.stride + 1
                w = (w + 2 * desc.padding - desc.kernel) // desc.stride + 1
            elif isinstance(desc, DepthwiseConv):
                layer = _DepthwiseConv2D(channels, desc, lseed, direct)
                h = (h + 2 * desc.padding - desc.kernel) // desc.stride + 1
                w = (w + 2 * desc.padding - desc.kernel) // desc.stride + 1
            elif isinstance(desc, Relu):
                layer = _Relu()
            elif isinstance(desc, GlobalAvgPool):
                layer = _GlobalAvgPool()
                h = w = 1
            elif isinstance(desc, Linear):
                layer = _Linear(channels, desc, lseed, direct)
                channels = desc.out_features
            else:
                raise TypeError(f"unknown layer descriptor {desc!r}")
            layers.append(layer)
        self.layers = layers

    def forward(self, x):
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def backward(self, g):
        for layer in reversed(self.layers):
            g = layer.backward(g)
        return g

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
        out = {}
        for i, layer in enumerate(self.layers):
            r = layer.residual()
            if r is not None:
                out[f"layer_{i}_{type(layer).__name__.lstrip('_').lower()}"] = r
        return out


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
        logits = teacher.forward(x)
        head = teacher.layers[-1]
        head.b += _calibrate_head_bias(logits, 4)
        labels = np.argmax(teacher.forward(x), axis=1)
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
        logits = model.forward(xb)
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
    """One JSON object per line: epoch records, then the final summary."""
    with open(path, "w", encoding="utf-8") as f:
        for rec in log.to_records():
            f.write(json.dumps(rec, sort_keys=True))
            f.write("\n")


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
            if r > residual_tol:
                raise _residual_error(i, src, r, residual_tol)
            sm = structure_matrix(src.cfg)
            flat = _blocks(src.w, src.cfg)
            alphas = (sm.pinv @ flat.T).T
            dst.w = alphas.reshape(dst.w.shape)
            dst.b = src.b.copy()
        dst.gw = np.zeros_like(dst.w)
        dst.gb = np.zeros_like(dst.b)
    return out


def _residual_error(i, layer, r, tol):
    from .structured import ResidualError

    name = type(layer).__name__.lstrip("_").lower()
    return ResidualError(
        f"layer {i} ({name}) has residual {r:.3e} > tolerance {tol:.3e}"
    )


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
    log.final_accuracy = evaluate(model, dataset.test_x, dataset.test_y).accuracy
    decomposed = decompose_model(model, residual_tol=1.0)
    log.final_accuracy_decomposed = evaluate(
        decomposed, dataset.test_x, dataset.test_y
    ).accuracy
    return model, log
