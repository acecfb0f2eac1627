"""Structured kernels and their sum-pooling decomposition.

A structured kernel on a C x N x N grid is built from the c*n*n basis whose
element (i, j, k) is an all-ones cuboid of shape (C-c+1) x (N-n+1) x (N-n+1)
with its low corner at (i, j, k). Convolution with such a kernel factors
exactly into a 3D sum-pool with that cuboid's window followed by a small
c x n x n convolution, which is where the parameter and op savings come from.

This module generates the basis, builds the structure matrix A whose columns
are the vectorized basis elements, projects arbitrary kernels onto the
structured subspace, and decomposes conv, depthwise and fully connected layers
into their pooled form, which the one forward_decomposed runs for all three.
Vectorization order is fixed everywhere: channel-major, then kernel row, then
kernel column (a plain row-major flatten of a (C, N, N) array).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .composite import CompositeBasis
from .tensor import (
    ConvGeometry,
    GeometryError,
    ShapeError,
    conv,
    out_extent,
    read_tensor,
    sum_pool3d,
    window_spread,
    window_sum,
    write_tensor,
)

class ConfigError(ValueError):
    """Structured config violates 1 <= c <= C, 1 <= n <= N."""


class ResidualError(ValueError):
    """Weights are farther from the structured subspace than the tolerance."""


class SidecarError(ValueError):
    """A decomposed-layer sidecar is missing a field or has one of the wrong type."""


@dataclass(frozen=True)
class StructuredConfig:
    """Grid dims (C, N) and structure dims (c, n); c = C and/or n = N degrade
    gracefully to channel-only or spatial-only structure."""

    C: int
    N: int
    c: int
    n: int

    def __post_init__(self):
        for name in ("C", "N", "c", "n"):
            v = getattr(self, name)
            if not isinstance(v, int) or isinstance(v, bool):
                raise ConfigError(f"{name} must be an int, got {v!r}")
        if not (1 <= self.c <= self.C):
            raise ConfigError(f"need 1 <= c <= C, got c={self.c}, C={self.C}")
        if not (1 <= self.n <= self.N):
            raise ConfigError(f"need 1 <= n <= N, got n={self.n}, N={self.N}")

    @property
    def basis_size(self) -> int:
        return self.c * self.n * self.n

    @property
    def pool_dims(self) -> tuple[int, int, int]:
        return (self.C - self.c + 1, self.N - self.n + 1, self.N - self.n + 1)

    @property
    def compression_ratio(self) -> Fraction:
        """Dense over structured parameter count, C*N^2 / (c*n^2)."""
        return Fraction(self.C * self.N * self.N, self.basis_size)


def _band_pinv(L: int, l: int) -> np.ndarray:
    """pinv(B) = G^-1 B^T for the L x l all-ones band B, with no SVD: B has
    full column rank, and its Gram matrix B^T B is the Toeplitz tent
    G[i, j] = max(0, (L-l+1) - |i-j|), the overlap of windows i and j. G^-1
    is symmetric, so G^-1 B^T is the transpose of B G^-1."""
    idx = np.arange(l)
    gram = np.maximum(L - l + 1 - np.abs(idx[:, None] - idx[None, :]), 0).astype(np.float64)
    return window_spread(np.linalg.inv(gram), L - l + 1, 0).T


def _kron3(channel, spatial):
    # kron(kron(channel, spatial), spatial) in one allocation; its rows and
    # columns follow the (channel, row, column) row-major vectorization.
    (C, c), (N, n) = channel.shape, spatial.shape
    out = np.einsum("ai,bj,dk->abdijk", channel, spatial, spatial)
    return out.reshape(C * N * N, c * n * n)


@dataclass(frozen=True)
class StructureMatrix:
    """A (C*N^2 x c*n^2) with vectorized basis elements as columns, plus its
    pseudoinverse and the orthogonal projector A @ pinv onto the column span."""

    cfg: StructuredConfig
    A: np.ndarray
    pinv: np.ndarray
    projector: np.ndarray


def _build_structure_matrix(cfg: StructuredConfig) -> StructureMatrix:
    # A cuboid is the outer product of three 1D all-ones windows, so A is the
    # Kronecker product of a channel band and two spatial bands, each the
    # window_spread of an identity. pinv(X kron Y) = pinv(X) kron pinv(Y), so
    # only the small bands are ever inverted. The projector goes first, while
    # the band-sized temporaries are few.
    kc, kn, _ = cfg.pool_dims
    pc, pn = _band_pinv(cfg.C, cfg.c), _band_pinv(cfg.N, cfg.n)
    proj = _kron3(window_spread(pc, kc, 0), window_spread(pn, kn, 0))
    A = _kron3(window_spread(np.eye(cfg.c), kc, 0), window_spread(np.eye(cfg.n), kn, 0))
    pinv = _kron3(pc, pn)
    for arr in (A, pinv, proj):
        arr.flags.writeable = False
    return StructureMatrix(cfg=cfg, A=A, pinv=pinv, projector=proj)


@lru_cache(maxsize=128)
def structure_matrix(cfg: StructuredConfig) -> StructureMatrix:
    return _build_structure_matrix(cfg)


def generate_structured_basis(cfg: StructuredConfig) -> CompositeBasis:
    """The c*n*n shifted all-ones cuboids, in lexicographic (i, j, k) order."""
    A = structure_matrix(cfg).A
    return CompositeBasis(A.T.reshape(cfg.basis_size, cfg.C, cfg.N, cfg.N))


def _check_kernel(w, cfg: StructuredConfig, name="kernel"):
    w = np.asarray(w, dtype=np.float64)
    expect = (cfg.C, cfg.N, cfg.N)
    if w.shape != expect:
        raise ShapeError(f"{name} shape {w.shape} does not match config dims {expect}")
    return w


def project(w, cfg: StructuredConfig) -> tuple[np.ndarray, float]:
    """Orthogonal projection onto the structured subspace.

    Returns (w_hat, residual) with residual = ||w - w_hat|| / ||w||, or 0 for
    a zero kernel (which is exactly structured).
    """
    w = _check_kernel(w, cfg)
    sm = structure_matrix(cfg)
    vec = w.reshape(-1)
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:
        return np.zeros_like(w), 0.0
    proj_vec = sm.projector @ vec
    residual = float(np.linalg.norm(vec - proj_vec) / norm)
    return proj_vec.reshape(w.shape), residual


def extract_alpha(w, cfg: StructuredConfig) -> np.ndarray:
    """Least-squares coefficients pinv(A) @ vec(w), shaped (c, n, n)."""
    w = _check_kernel(w, cfg)
    sm = structure_matrix(cfg)
    return (sm.pinv @ w.reshape(-1)).reshape(cfg.c, cfg.n, cfg.n)


def block_alphas(flat, sm: StructureMatrix) -> np.ndarray:
    """Least-squares coefficients of many kernels at once: flat holds one
    vectorized kernel per row, the result one coefficient row per kernel."""
    return np.ascontiguousarray((sm.pinv @ flat.T).T)


def _reconstruct_stack(alphas, cfg: StructuredConfig):
    # alphas (..., c, n, n) -> kernels (..., C, N, N): each kernel axis is
    # spread over its pool window, the channel axis last since it grows most.
    # window_spread never aliases its input, so only a config whose windows
    # are all 1 copies to keep the result apart from alphas.
    out = np.asarray(alphas, dtype=np.float64)
    for axis, k in zip((-1, -2, -3), cfg.pool_dims[::-1]):
        if k > 1:
            out = window_spread(out, k, axis)
    return out if max(cfg.pool_dims) > 1 else out.copy()


def reconstruct(alpha, cfg: StructuredConfig) -> np.ndarray:
    """Dense (C, N, N) kernel from coefficients alpha (c, n, n)."""
    alpha = np.asarray(alpha, dtype=np.float64)
    expect = (cfg.c, cfg.n, cfg.n)
    if alpha.shape != expect:
        raise ShapeError(f"alpha shape {alpha.shape} does not match config dims {expect}")
    return _reconstruct_stack(alpha, cfg)


def _worst_block_residual(flat, sm: StructureMatrix):
    # flat: one kernel per row. Zero rows are exactly structured.
    norms = np.linalg.norm(flat, axis=1)
    resid = flat @ sm.projector.T
    np.subtract(flat, resid, out=resid)
    res = np.linalg.norm(resid, axis=1) / np.where(norms > 0.0, norms, 1.0)
    worst = int(np.argmax(res)) if res.size else -1
    if worst < 0 or res[worst] == 0.0:
        return -1, 0.0
    return worst, float(res[worst])


def worst_kernel_residual(weights, cfg: StructuredConfig) -> float:
    """Largest per-kernel residual across a layer's output channels (rows for
    a linear layer, channel planes for depthwise)."""
    weights = np.asarray(weights, dtype=np.float64)
    flat = weights.reshape(-1, cfg.C * cfg.N * cfg.N)
    return _worst_block_residual(flat, structure_matrix(cfg))[1]


@dataclass(frozen=True)
class DecomposedConvLayer:
    """Conv layer refactored as sum-pool (window pool_dims, stride 1, original
    padding and dilation) followed by a small conv (original stride and
    dilation, no padding), with the bias untouched."""

    cfg: StructuredConfig
    pool_dims: tuple[int, int, int]
    pool_geom: ConvGeometry
    alpha: np.ndarray
    small_geom: ConvGeometry
    bias: np.ndarray | None = None


@dataclass(frozen=True)
class DecomposedDepthwiseLayer:
    """Depthwise conv refactored per channel: each channel pools its own plane
    spatially (window (N-n+1)^2, stride 1) and applies its own n x n kernel.
    Nothing is shared across channels."""

    cfg: StructuredConfig
    channels: int
    pool_dims: tuple[int, int, int]
    pool_geom: ConvGeometry
    alpha: np.ndarray
    small_geom: ConvGeometry
    bias: np.ndarray | None = None


@dataclass(frozen=True)
class DecomposedLinearLayer:
    """Fully connected layer (P x Q) refactored as a length-(Q-R+1) sliding
    window sum producing R values, then a small P x R matrix."""

    in_features: int
    R: int
    small: np.ndarray
    bias: np.ndarray | None = None

    @property
    def window(self) -> int:
        return self.in_features - self.R + 1


def decomposed_layer(alphas, cfg: StructuredConfig, geom: ConvGeometry = ConvGeometry(), bias=None):
    """The decomposed layer that runs the small kernels alphas after cfg's pool.

    Rank-2 alphas (P, R) give a fully connected layer, which needs N = 1 and
    the default geom. Rank-4 alphas (C_out, c, n, n) give a conv when
    geom.groups = 1 and a depthwise conv of geom.groups channels, which needs
    C = 1, otherwise. The dense layer's geom splits into the pool's part
    (stride 1, its padding and dilation) and the small kernel's part (its
    stride and dilation, no padding).
    """
    alphas = np.asarray(alphas, dtype=np.float64)
    linear = alphas.ndim == 2
    if linear and (cfg.N != 1 or geom != ConvGeometry()):
        raise GeometryError(f"a linear layer needs N = 1 and no geometry, got N={cfg.N}, {geom}")
    if geom.groups > 1 and cfg.C != 1:
        raise ShapeError(
            f"groups={geom.groups} needs a depthwise config with C = 1, got C={cfg.C}; "
            "other grouped layers decompose channel block by channel block"
        )
    outputs = (geom.groups,) if geom.groups > 1 else alphas.shape[:1]
    expect = outputs + ((cfg.c,) if linear else (cfg.c, cfg.n, cfg.n))
    if alphas.shape != expect:
        raise ShapeError(f"alpha shape {alphas.shape} does not match {expect}")
    if bias is not None:
        bias = np.asarray(bias, dtype=np.float64)
        if bias.shape != outputs:
            raise ShapeError(f"bias shape {bias.shape} does not match {expect[0]} outputs")
    if linear:
        return DecomposedLinearLayer(in_features=cfg.C, R=cfg.c, small=alphas, bias=bias)
    parts = dict(
        cfg=cfg,
        pool_dims=cfg.pool_dims,
        pool_geom=ConvGeometry(stride=1, padding=geom.padding, dilation=geom.dilation),
        alpha=alphas,
        small_geom=ConvGeometry(stride=geom.stride, padding=0, dilation=geom.dilation),
        bias=bias,
    )
    if geom.groups > 1:
        return DecomposedDepthwiseLayer(channels=geom.groups, **parts)
    return DecomposedConvLayer(**parts)


def decompose_conv_layer(
    weights,
    cfg: StructuredConfig,
    geom: ConvGeometry = ConvGeometry(),
    bias=None,
    residual_tol: float = 1e-6,
):
    """Split a conv, depthwise or fully connected layer into its pooled form.

    weights are (C_out, C, N, N) for a conv (geom.groups = 1) and for a
    depthwise conv (cfg (1, N, 1, n), geom.groups = C_out), and (P, Q) for a
    fully connected layer (cfg (Q, 1, R, 1), default geom). Every output's
    kernel must lie within residual_tol of the structured subspace; the worst
    offender is reported otherwise.
    """
    weights = np.asarray(weights, dtype=np.float64)
    # A (P, Q) fully connected layer holds P kernels of shape (Q, 1, 1).
    dims = (cfg.C,) if weights.ndim == 2 and cfg.N == 1 else (cfg.C, cfg.N, cfg.N)
    if weights.shape[1:] != dims:
        raise ShapeError(
            f"weights shape {weights.shape} does not match config dims "
            f"(C_out, {', '.join(map(str, dims))})"
        )
    sm = structure_matrix(cfg)
    flat = weights.reshape(len(weights), -1)
    worst_idx, worst_res = _worst_block_residual(flat, sm)
    if not worst_res <= residual_tol:
        raise ResidualError(
            f"output channel {worst_idx} has residual {worst_res:.3e} "
            f"> tolerance {residual_tol:.3e}"
        )
    small = (cfg.c, cfg.n, cfg.n)[: len(dims)]
    alphas = block_alphas(flat, sm).reshape((len(weights),) + small)
    return decomposed_layer(alphas, cfg, geom, bias)


def forward_decomposed(x, layer) -> np.ndarray:
    """Pool, then the small kernel, then bias, for a conv, depthwise or fully
    connected decomposed layer.

    A linear layer sums x over windows of layer.window entries and applies
    its small matrix. A conv or depthwise layer sum-pools x and runs the
    small conv, grouped per channel for a depthwise layer; its output extents
    match the dense path for every admissible input, which is asserted, not
    assumed.
    """
    x = np.asarray(x, dtype=np.float64)
    linear = isinstance(layer, DecomposedLinearLayer)
    if linear:
        if x.shape != (layer.in_features,):
            raise ShapeError(f"input shape {x.shape} does not match ({layer.in_features},)")
        out = layer.small @ window_sum(x, layer.window, 0)
    else:
        sg, groups = layer.small_geom, 1
        if isinstance(layer, DecomposedDepthwiseLayer):
            groups = layer.channels
            if x.shape[0] != groups:
                raise ShapeError(f"input has {x.shape[0]} channels, layer expects {groups}")
        pooled = sum_pool3d(x, layer.pool_dims, layer.pool_geom)
        out = conv(pooled, layer.alpha, ConvGeometry(sg.stride, sg.padding, sg.dilation, groups))
        ph, pw = layer.pool_geom.padding
        expect = (
            out_extent(x.shape[-2], layer.cfg.N, sg.stride[0], ph, sg.dilation[0]),
            out_extent(x.shape[-1], layer.cfg.N, sg.stride[1], pw, sg.dilation[1]),
        )
        if out.shape[-2:] != expect:
            raise GeometryError(
                f"decomposed output extents {out.shape[-2:]} diverged from dense-path "
                f"extents {expect}; this indicates an internal bug"
            )
    if layer.bias is not None:
        out = out + (layer.bias if linear else layer.bias[:, np.newaxis, np.newaxis])
    return out


# perfbench/ still calls the per-kind names; the benchmark change that moves it
# to forward_decomposed removes them.
forward_decomposed_depthwise = forward_decomposed_linear = forward_decomposed


def _geom_to_json(g: ConvGeometry) -> dict:
    return {"stride": list(g.stride), "padding": list(g.padding), "dilation": list(g.dilation)}


def _field(obj, key, where="sidecar"):
    if key not in obj:
        raise SidecarError(f"{where} is missing field {key!r}")
    return obj[key]


def _object_field(obj, key, where="sidecar"):
    value = _field(obj, key, where)
    if not isinstance(value, dict):
        raise SidecarError(f"{where} field {key!r} must be an object, got {value!r}")
    return value


def _int_field(obj, key, where="sidecar"):
    value = _field(obj, key, where)
    if type(value) is not int or value < 1:  # bool is an int subclass and is rejected too
        raise SidecarError(f"{where} field {key!r} must be a positive integer, got {value!r}")
    return value


def _ints_field(obj, key, length, where="sidecar"):
    value = _field(obj, key, where)
    ints = isinstance(value, list) and all(type(v) is int for v in value)
    if not ints or len(value) != length:
        raise SidecarError(
            f"{where} field {key!r} must be a list of {length} integers, got {value!r}"
        )
    return tuple(value)


def _geom_from_json(sidecar, key) -> ConvGeometry:
    d = _object_field(sidecar, key)
    return ConvGeometry(*(_ints_field(d, f, 2, key) for f in ("stride", "padding", "dilation")))


def save_decomposed_layer(out_dir, name: str, layer) -> dict:
    """Write alpha (or the small matrix), optional bias, and a JSON sidecar.

    Returns the sidecar dict; files land in out_dir as {name}.json,
    {name}_alpha.stcv, and {name}_bias.stcv when a bias is present.
    """
    os.makedirs(out_dir, exist_ok=True)
    alpha_file = f"{name}_alpha.stcv"
    bias_file = f"{name}_bias.stcv" if layer.bias is not None else None
    if isinstance(layer, (DecomposedConvLayer, DecomposedDepthwiseLayer)):
        write_tensor(os.path.join(out_dir, alpha_file), layer.alpha)
        sidecar = {
            "kind": "dwconv" if isinstance(layer, DecomposedDepthwiseLayer) else "conv",
            "config": {"C": layer.cfg.C, "N": layer.cfg.N, "c": layer.cfg.c, "n": layer.cfg.n},
            "pool_dims": list(layer.pool_dims),
            "pool_geom": _geom_to_json(layer.pool_geom),
            "small_geom": _geom_to_json(layer.small_geom),
            "alpha_file": alpha_file,
            "bias_file": bias_file,
        }
        if isinstance(layer, DecomposedDepthwiseLayer):
            sidecar["channels"] = layer.channels
    elif isinstance(layer, DecomposedLinearLayer):
        write_tensor(os.path.join(out_dir, alpha_file), layer.small)
        sidecar = {
            "kind": "linear",
            "in_features": layer.in_features,
            "R": layer.R,
            "alpha_file": alpha_file,
            "bias_file": bias_file,
        }
    else:
        raise TypeError(f"not a decomposed layer: {type(layer).__name__}")
    if bias_file is not None:
        write_tensor(os.path.join(out_dir, bias_file), layer.bias)
    with open(os.path.join(out_dir, f"{name}.json"), "w", encoding="utf-8") as f:
        json.dump(sidecar, f, indent=2, sort_keys=True)
        f.write("\n")
    return sidecar


def _sidecar_file(base, key, name):
    # A sidecar names its tensor files relative to its own directory, and
    # they may not resolve outside it.
    root = os.path.realpath(base)
    if not isinstance(name, str):
        raise SidecarError(f"sidecar field {key!r} must be a file name, got {name!r}")
    path = os.path.realpath(os.path.join(root, name))
    if os.path.commonpath([root, path]) != root:
        raise SidecarError(f"layer file {name!r} resolves outside the sidecar directory {root}")
    if not os.path.isfile(path):
        raise SidecarError(f"sidecar field {key!r} names {name!r}, which is not a file in {root}")
    return path


def load_decomposed_layer(sidecar_path):
    """Inverse of save_decomposed_layer. Every sidecar field is checked before
    any tensor is read, and decomposed_layer checks the tensors against the
    config."""
    base = os.path.dirname(sidecar_path)
    with open(sidecar_path, encoding="utf-8") as f:
        sidecar = json.load(f)
    if not isinstance(sidecar, dict):
        raise SidecarError(f"sidecar must be a JSON object, got {type(sidecar).__name__}")
    kind = _field(sidecar, "kind")
    geom = ConvGeometry()
    if kind in ("conv", "dwconv"):
        cd = _object_field(sidecar, "config")
        cfg = StructuredConfig(**{k: _int_field(cd, k, "config") for k in ("C", "N", "c", "n")})
        pool_dims = _ints_field(sidecar, "pool_dims", 3)
        if pool_dims != cfg.pool_dims:
            raise ShapeError(f"pool_dims {pool_dims} do not match the config's {cfg.pool_dims}")
        pool = _geom_from_json(sidecar, "pool_geom")
        small = _geom_from_json(sidecar, "small_geom")
        if pool.stride != (1, 1) or small.padding != (0, 0) or pool.dilation != small.dilation:
            raise SidecarError(
                f"pool_geom {_geom_to_json(pool)} and small_geom {_geom_to_json(small)} "
                "do not split one layer's geometry (pool stride 1, small padding 0, one dilation)"
            )
        groups = _int_field(sidecar, "channels") if kind == "dwconv" else 1
        geom = ConvGeometry(small.stride, pool.padding, small.dilation, groups)
    elif kind == "linear":
        q_in, R = _int_field(sidecar, "in_features"), _int_field(sidecar, "R")
        cfg = StructuredConfig(C=q_in, N=1, c=R, n=1)
    else:
        raise SidecarError(f"unknown layer kind {kind!r}")
    alpha = read_tensor(_sidecar_file(base, "alpha_file", _field(sidecar, "alpha_file")))
    bias = None
    if sidecar.get("bias_file") is not None:
        bias = read_tensor(_sidecar_file(base, "bias_file", sidecar["bias_file"]))
    if (alpha.ndim == 2) != (kind == "linear"):
        raise ShapeError(f"alpha shape {alpha.shape} does not fit a {kind} layer")
    return decomposed_layer(alpha, cfg, geom, bias)
