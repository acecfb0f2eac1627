"""Structured kernels and their sum-pooling decomposition.

A structured kernel on a C x N x N grid is built from the c*n*n basis whose
element (i, j, k) is an all-ones cuboid of shape (C-c+1) x (N-n+1) x (N-n+1)
with its low corner at (i, j, k). Convolution with such a kernel factors
exactly into a 3D sum-pool with that cuboid's window followed by a small
c x n x n convolution, which is where the parameter and op savings come from.

This module generates the basis, builds the structure matrix A whose columns
are the vectorized basis elements, projects arbitrary kernels onto the
structured subspace, and decomposes conv/linear layers into their pooled form.
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
    write_tensor,
)

class ConfigError(ValueError):
    """Structured config violates 1 <= c <= C, 1 <= n <= N."""


class ResidualError(ValueError):
    """Weights are farther from the structured subspace than the tolerance."""


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


def _band(L: int, l: int) -> np.ndarray:
    """L x l matrix whose column i is the 1D all-ones window of length L-l+1
    starting at row i. A cuboid basis element is the outer product of three
    such windows, so every structured object below is a Kronecker product of
    one channel band and two spatial bands."""
    rows = np.arange(L)[:, None]
    cols = np.arange(l)[None, :]
    return ((rows >= cols) & (rows <= cols + L - l)).astype(np.float64)


def _apply_band(M, L: int) -> np.ndarray:
    """_band(L, len(M)) @ M without the matmul: row r of the product is the
    sum of rows max(0, r-L+l) .. min(r, l-1) of M, a difference of two
    running sums."""
    l = M.shape[0]
    sums = np.cumsum(M, axis=0)
    out = np.empty((L,) + M.shape[1:])
    out[:l] = sums
    out[l:] = sums[-1]
    out[L - l + 1 :] -= sums[: l - 1]
    return out


def _band_pinv(L: int, l: int) -> np.ndarray:
    """pinv(_band(L, l)) = G^-1 B^T, with no SVD: the band has full column
    rank, and its Gram matrix B^T B is the Toeplitz tent
    G[i, j] = max(0, (L-l+1) - |i-j|), the overlap of windows i and j. G^-1
    is symmetric, so G^-1 B^T is the transpose of B G^-1."""
    idx = np.arange(l)
    gram = np.maximum(L - l + 1 - np.abs(idx[:, None] - idx[None, :]), 0).astype(np.float64)
    return _apply_band(np.linalg.inv(gram), L).T


def _kron3(channel, spatial):
    # kron(kron(channel, spatial), spatial) in one allocation; its rows and
    # columns follow the (channel, row, column) row-major vectorization.
    (C, c), (N, n) = channel.shape, spatial.shape
    out = np.einsum("ai,bj,dk->abdijk", channel, spatial, spatial)
    return out.reshape(C * N * N, c * n * n)


def generate_structured_basis(cfg: StructuredConfig) -> CompositeBasis:
    """The c*n*n shifted all-ones cuboids, in lexicographic (i, j, k) order."""
    A = _kron3(_band(cfg.C, cfg.c), _band(cfg.N, cfg.n))
    return CompositeBasis(A.T.reshape(cfg.basis_size, cfg.C, cfg.N, cfg.N))


@dataclass(frozen=True)
class StructureMatrix:
    """A (C*N^2 x c*n^2) with vectorized basis elements as columns, plus its
    pseudoinverse and the orthogonal projector A @ pinv onto the column span."""

    cfg: StructuredConfig
    A: np.ndarray
    pinv: np.ndarray
    projector: np.ndarray


def _build_structure_matrix(cfg: StructuredConfig) -> StructureMatrix:
    # pinv(X kron Y) = pinv(X) kron pinv(Y), so only the small 1D bands are
    # ever inverted. The projector goes first, while the band-sized
    # temporaries are few.
    pc, pn = _band_pinv(cfg.C, cfg.c), _band_pinv(cfg.N, cfg.n)
    proj = _kron3(_apply_band(pc, cfg.C), _apply_band(pn, cfg.N))
    A = _kron3(_band(cfg.C, cfg.c), _band(cfg.N, cfg.n))
    pinv = _kron3(pc, pn)
    for arr in (A, pinv, proj):
        arr.flags.writeable = False
    return StructureMatrix(cfg=cfg, A=A, pinv=pinv, projector=proj)


@lru_cache(maxsize=128)
def structure_matrix(cfg: StructuredConfig) -> StructureMatrix:
    return _build_structure_matrix(cfg)


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
    # alphas (..., c, n, n) -> kernels (..., C, N, N): one mode product per
    # kernel axis, last axis first. Each product is a single 2D matmul whose
    # output axis is rotated to the front of the three, so after three of
    # them the axes are back in (channel, row, column) order.
    spatial = _band(cfg.N, cfg.n)
    out = np.asarray(alphas)
    for band in (spatial, spatial, _band(cfg.C, cfg.c)):
        L, l = band.shape
        out = (out.reshape(-1, l) @ band.T).reshape(out.shape[:-1] + (L,))
        out = np.moveaxis(out, -1, -3)
    return out


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


def decompose_conv_layer(
    weights,
    cfg: StructuredConfig,
    geom: ConvGeometry = ConvGeometry(),
    bias=None,
    residual_tol: float = 1e-6,
) -> DecomposedConvLayer:
    """Split a (C_out, C, N, N) conv layer into its pooled equivalent.

    Every output channel's kernel must lie within residual_tol of the
    structured subspace; the worst offender is reported otherwise. The pool is
    shared by all output channels, so it is stored once.
    """
    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim != 4:
        raise ShapeError(f"weights must be rank 4, got rank {weights.ndim}")
    if weights.shape[1:] != (cfg.C, cfg.N, cfg.N):
        raise ShapeError(
            f"weights shape {weights.shape} does not match config dims "
            f"(C_out, {cfg.C}, {cfg.N}, {cfg.N})"
        )
    if geom.groups != 1:
        raise ShapeError("grouped layers decompose channel block by channel block; pass groups=1")
    c_out = weights.shape[0]
    sm = structure_matrix(cfg)
    flat = weights.reshape(c_out, -1)
    worst_idx, worst_res = _worst_block_residual(flat, sm)
    if not worst_res <= residual_tol:
        raise ResidualError(
            f"output channel {worst_idx} has residual {worst_res:.3e} "
            f"> tolerance {residual_tol:.3e}"
        )
    alphas = block_alphas(flat, sm).reshape(c_out, cfg.c, cfg.n, cfg.n)
    if bias is not None:
        bias = np.asarray(bias, dtype=np.float64)
        if bias.shape != (c_out,):
            raise ShapeError(f"bias shape {bias.shape} does not match {c_out} output channels")
    return DecomposedConvLayer(
        cfg=cfg,
        pool_dims=cfg.pool_dims,
        pool_geom=ConvGeometry(stride=1, padding=geom.padding, dilation=geom.dilation),
        alpha=alphas,
        small_geom=ConvGeometry(stride=geom.stride, padding=0, dilation=geom.dilation),
        bias=bias,
    )


def forward_decomposed(x, layer: DecomposedConvLayer) -> np.ndarray:
    """Pool, then small conv, then bias. Output extents match the dense path
    for every admissible input; that is asserted, not assumed."""
    x = np.asarray(x, dtype=np.float64)
    pooled = sum_pool3d(x, layer.pool_dims, layer.pool_geom)
    out = conv(pooled, layer.alpha, layer.small_geom)
    cfg, sg = layer.cfg, layer.small_geom
    ph, pw = layer.pool_geom.padding
    expect = (
        out_extent(x.shape[1], cfg.N, sg.stride[0], ph, sg.dilation[0]),
        out_extent(x.shape[2], cfg.N, sg.stride[1], pw, sg.dilation[1]),
    )
    if out.shape[1:] != expect:
        raise GeometryError(
            f"decomposed output extents {out.shape[1:]} diverged from dense-path "
            f"extents {expect}; this indicates an internal bug"
        )
    if layer.bias is not None:
        out = out + layer.bias[:, np.newaxis, np.newaxis]
    return out


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


def decompose_depthwise_layer(
    weights,
    n: int,
    geom: ConvGeometry = ConvGeometry(),
    bias=None,
    residual_tol: float = 1e-6,
) -> DecomposedDepthwiseLayer:
    """Split a (C, 1, N, N) depthwise layer; every channel's kernel must be
    within residual_tol of the spatial-structure subspace."""
    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim != 4 or weights.shape[1] != 1:
        raise ShapeError(f"depthwise weights must be (C, 1, N, N), got {weights.shape}")
    channels, _, kN, kN2 = weights.shape
    if kN != kN2:
        raise ShapeError(f"kernel must be square, got {kN}x{kN2}")
    cfg = StructuredConfig(C=1, N=kN, c=1, n=n)
    sm = structure_matrix(cfg)
    flat = weights.reshape(channels, -1)
    worst_idx, worst_res = _worst_block_residual(flat, sm)
    if not worst_res <= residual_tol:
        raise ResidualError(
            f"channel {worst_idx} has residual {worst_res:.3e} > tolerance {residual_tol:.3e}"
        )
    alphas = block_alphas(flat, sm).reshape(channels, 1, n, n)
    if bias is not None:
        bias = np.asarray(bias, dtype=np.float64)
        if bias.shape != (channels,):
            raise ShapeError(f"bias shape {bias.shape} does not match {channels} channels")
    return DecomposedDepthwiseLayer(
        cfg=cfg,
        channels=channels,
        pool_dims=cfg.pool_dims,
        pool_geom=ConvGeometry(stride=1, padding=geom.padding, dilation=geom.dilation),
        alpha=alphas,
        small_geom=ConvGeometry(stride=geom.stride, padding=0, dilation=geom.dilation),
        bias=bias,
    )


def forward_decomposed_depthwise(x, layer: DecomposedDepthwiseLayer) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape[0] != layer.channels:
        raise ShapeError(f"input has {x.shape[0]} channels, layer expects {layer.channels}")
    pooled = sum_pool3d(x, layer.pool_dims, layer.pool_geom)
    sg = layer.small_geom
    grouped = ConvGeometry(
        stride=sg.stride, padding=sg.padding, dilation=sg.dilation, groups=layer.channels
    )
    out = conv(pooled, layer.alpha, grouped)
    if layer.bias is not None:
        out = out + layer.bias[:, np.newaxis, np.newaxis]
    return out


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


def decompose_linear(weights, R: int, bias=None, residual_tol: float = 1e-6) -> DecomposedLinearLayer:
    """Split a (P, Q) matrix whose rows are structured with parameter R.

    Each row is treated as a Q x 1 x 1 kernel with channel structure R, so the
    shared pooled vector has R entries and the per-row work drops from Q to R
    multiplications.
    """
    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim != 2:
        raise ShapeError(f"weights must be rank 2, got rank {weights.ndim}")
    p_out, q_in = weights.shape
    if not (1 <= R <= q_in):
        raise ConfigError(f"need 1 <= R <= in_features, got R={R}, in_features={q_in}")
    cfg = StructuredConfig(C=q_in, N=1, c=R, n=1)
    sm = structure_matrix(cfg)
    worst_idx, worst_res = _worst_block_residual(weights, sm)
    if not worst_res <= residual_tol:
        raise ResidualError(
            f"row {worst_idx} has residual {worst_res:.3e} > tolerance {residual_tol:.3e}"
        )
    small = block_alphas(weights, sm)
    if bias is not None:
        bias = np.asarray(bias, dtype=np.float64)
        if bias.shape != (p_out,):
            raise ShapeError(f"bias shape {bias.shape} does not match {p_out} outputs")
    return DecomposedLinearLayer(in_features=q_in, R=R, small=small, bias=bias)


def forward_decomposed_linear(x, layer: DecomposedLinearLayer) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (layer.in_features,):
        raise ShapeError(f"input shape {x.shape} does not match ({layer.in_features},)")
    pooled = np.lib.stride_tricks.sliding_window_view(x, layer.window).sum(axis=-1)
    out = layer.small @ pooled
    if layer.bias is not None:
        out = out + layer.bias
    return out


def _geom_to_json(g: ConvGeometry) -> dict:
    return {"stride": list(g.stride), "padding": list(g.padding), "dilation": list(g.dilation)}


def _geom_from_json(d) -> ConvGeometry:
    return ConvGeometry(
        stride=tuple(d["stride"]), padding=tuple(d["padding"]), dilation=tuple(d["dilation"])
    )


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


def _sidecar_file(base, name):
    # A sidecar names its tensor files relative to its own directory, and
    # they may not resolve outside it.
    root = os.path.realpath(base)
    if not isinstance(name, str):
        raise ValueError(f"layer file name must be a string, got {name!r}")
    path = os.path.realpath(os.path.join(root, name))
    if os.path.commonpath([root, path]) != root:
        raise ValueError(f"layer file {name!r} resolves outside the sidecar directory {root}")
    return path


def load_decomposed_layer(sidecar_path):
    """Inverse of save_decomposed_layer. The tensors are checked against the
    sidecar's config before use."""
    base = os.path.dirname(sidecar_path)
    with open(sidecar_path, encoding="utf-8") as f:
        sidecar = json.load(f)
    alpha = read_tensor(_sidecar_file(base, sidecar["alpha_file"]))
    bias = None
    if sidecar.get("bias_file"):
        bias = read_tensor(_sidecar_file(base, sidecar["bias_file"]))
    kind = sidecar["kind"]
    if kind in ("conv", "dwconv"):
        cd = sidecar["config"]
        cfg = StructuredConfig(C=cd["C"], N=cd["N"], c=cd["c"], n=cd["n"])
        pool_dims = tuple(sidecar["pool_dims"])
        if pool_dims != cfg.pool_dims:
            raise ShapeError(f"pool_dims {pool_dims} do not match the config's {cfg.pool_dims}")
        outputs = sidecar["channels"] if kind == "dwconv" else alpha.shape[0]
        expect = (outputs, cfg.c, cfg.n, cfg.n)
    elif kind == "linear":
        cfg = StructuredConfig(C=sidecar["in_features"], N=1, c=sidecar["R"], n=1)
        outputs = alpha.shape[0]
        expect = (outputs, cfg.c)
    else:
        raise ValueError(f"unknown layer kind {kind!r}")
    if alpha.shape != expect:
        raise ShapeError(f"alpha shape {alpha.shape} does not match {expect}")
    if bias is not None and bias.shape != (outputs,):
        raise ShapeError(f"bias shape {bias.shape} does not match {outputs} outputs")
    if kind == "linear":
        return DecomposedLinearLayer(in_features=cfg.C, R=cfg.c, small=alpha, bias=bias)
    common = dict(
        cfg=cfg,
        pool_dims=pool_dims,
        pool_geom=_geom_from_json(sidecar["pool_geom"]),
        alpha=alpha,
        small_geom=_geom_from_json(sidecar["small_geom"]),
        bias=bias,
    )
    if kind == "dwconv":
        return DecomposedDepthwiseLayer(channels=outputs, **common)
    return DecomposedConvLayer(**common)
