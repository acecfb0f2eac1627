"""Structured kernels and their sum-pooling decomposition.

A structured kernel on a C x N x N grid is built from the c*n*n basis whose
element (i, j, k) is an all-ones cuboid of shape (C-c+1) x (N-n+1) x (N-n+1)
with its low corner at (i, j, k). Convolution with such a kernel factors
exactly into a 3D sum-pool with that cuboid's window followed by a small
c x n x n convolution, which is where the parameter and op savings come from.

This module generates the basis, projects arbitrary kernels onto the
structured subspace, measures their residuals, and decomposes conv, depthwise
and fully connected layers alike: decompose gives one DecomposedLayer, which
the one forward_decomposed runs and one sidecar format stores whatever its
kind, and reconstruct maps any stack of coefficients back to kernels.
Vectorization order is fixed everywhere: channel-major, then kernel row, then
kernel column (a plain row-major flatten of a (C, N, N) array).

The structure matrix A, whose columns are the vectorized basis elements, is
the Kronecker product of one L x l all-ones band B per kernel axis (window
k = L - l + 1), and every operator runs one axis at a time without it: a
vector lies in span(B) exactly when its k residue-class sums (over entries
with equal index mod k) are equal, so the projection subtracts one constant
per class, and pinv(B) v follows from p = P v by the recursion
alpha_j = alpha_{j-k} + p_j - p_{j-1}. No inverse or SVD is formed. The dense
A, its pseudoinverse and the projector belong to a StructureMatrix, which
builds each on first access; nothing caches them for the process, so they
live as long as the StructureMatrix's owner holds it (each structured
training layer holds its own).

Decomposing a layer (decompose) takes one sweep over its kernels
(_worst_block_residual): each band's class residual is taken once for the
residual norms, and the first band's also starts the coefficients, which are
solved band by band as block_alphas solves them (a later band's class
residual is taken on the coefficients so far), so both give the same bits.
A single-band layer takes one class residual in all, and the temporaries are
of the layer's own size.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

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
    """Weights are farther from the structured subspace than the tolerance:
    kernel is the index of the farthest kernel, residual its residual (NaN
    for a kernel with a NaN entry)."""

    def __init__(self, message, kernel, residual):
        super().__init__(message)
        self.kernel = kernel
        self.residual = residual


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


def _bands(cfg: StructuredConfig):
    # (axis, window) of each kernel axis of a (kernels, C, N, N) stack whose
    # band is not the identity, that is whose window is longer than 1.
    return [(axis, k) for axis, k in zip((1, 2, 3), cfg.pool_dims) if k > 1]


def _at(axis, start, stop):
    # Index of entries start..stop-1 along axis (axis >= 0).
    return (slice(None),) * axis + (slice(start, stop),)


def _class_residual(x, k, axis):
    """(beta, m, q) with ((I - P) x)[i] = beta[i mod k] along axis, for P the
    orthogonal projector onto the span of the L x (L-k+1) all-ones band B.

    Each column of B is k consecutive ones, one entry in every residue class
    mod k, so a vector in span(B) has k equal class sums s_r. These k - 1
    equalities leave L - k + 1 dimensions, span(B)'s own, so they also
    suffice, and (I - P) x is constant on each class: beta_r = (s_r - mu) / n_r
    for the n_r entries of class r, where mu = sum_r(s_r / n_r) /
    sum_r(1 / n_r) is the one class sum that P x keeps. With m, q =
    divmod(L, k), n_r is m + 1 for r < q and m otherwise. The class sums are
    slice-adds of k entries at a time.
    """
    L = x.shape[axis]
    m, q = divmod(L, k)
    s = x[_at(axis, 0, k)].copy()
    for b in range(k, L, k):
        s[_at(axis, 0, min(k, L - b))] += x[_at(axis, b, b + k)]
    big, small = s[_at(axis, 0, q)], s[_at(axis, q, k)]
    mu = np.sum(big, axis, keepdims=True) / (m + 1) + np.sum(small, axis, keepdims=True) / m
    s -= mu / (q / (m + 1) + (k - q) / m)
    big /= m + 1
    small /= m
    return s, m, q


def _minus_classes(x, beta, axis, stop):
    # The first stop entries along axis of x - beta[i mod k], which is P x
    # for beta from _class_residual.
    k = beta.shape[axis]
    out = x[_at(axis, 0, stop)].copy()
    for b in range(0, stop, k):
        out[_at(axis, b, b + k)] -= beta[_at(axis, 0, min(k, stop - b))]
    return out


def _band_solve(x, k, axis, beta=None):
    """pinv(B) x along axis: the alpha with B alpha = p = P x, where beta is
    x's class residual along axis, taken here unless the caller has it.
    Entry j of B alpha is alpha_{j-k+1} + ... + alpha_j, so alpha_j =
    alpha_{j-k} + p_j - p_{j-1}, a running sum within each residue class
    mod k, which reads only p's first l = L - k + 1 entries."""
    l = x.shape[axis] - k + 1
    if beta is None:
        beta = _class_residual(x, k, axis)[0]
    alpha = _minus_classes(x, beta, axis, l)
    alpha[_at(axis, 1, l)] -= alpha[_at(axis, 0, l - 1)]
    for b in range(k, l, k):
        alpha[_at(axis, b, b + k)] += alpha[_at(axis, b - k, min(b, l - k))]
    return alpha


def _row_squares(a):
    # The sum of squares of each kernel's entries (axis 0 runs over kernels).
    axes = "ijkl"[: a.ndim]
    return np.einsum(f"{axes},{axes}->i", a, a)


def _projection(x, cfg: StructuredConfig, keep="P"):
    """(y, ||(I - P) v||) for every kernel v of a (kernels, C, N, N) stack,
    where y is P v for keep="P", pinv(A) v for keep="alpha", None for None.

    P = P_1 P_2 P_3, one commuting projector per band, so (I - P) v is the
    sum of the orthogonal parts (I - P_1) v, P_1 (I - P_2) v and
    P_1 P_2 (I - P_3) v, whose squared norms are each band's
    sum_r n_r beta_r^2. v - P v is never formed, so a structured kernel's
    residual is at the rounding level of its betas, not of v. pinv(A) v is
    solved band by band on the coefficients so far, as block_alphas solves
    it; the first band's solve reuses the class residual of v taken here.
    Only keep="P" forms the last band's projection, which the norms do not
    read.
    """
    sq = np.zeros(len(x))
    alpha = x
    bands = _bands(cfg)
    for i, (axis, k) in enumerate(bands):
        beta, m, q = _class_residual(x, k, axis)
        sq += (m + 1) * _row_squares(beta[_at(axis, 0, q)])
        sq += m * _row_squares(beta[_at(axis, q, k)])
        if keep == "alpha":
            alpha = _band_solve(alpha, k, axis, None if i else beta)
        if keep == "P" or i < len(bands) - 1:
            x = _minus_classes(x, beta, axis, x.shape[axis])
    return {"P": x, "alpha": alpha}.get(keep), np.sqrt(sq)


def _frozen(a):
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class StructureMatrix:
    """The structured subspace of one config. decompose and the residuals
    apply it matrix-free, band by band; the dense forms are built on first
    access, by applying those same operators to an identity: A
    (C*N^2 x c*n^2) with the vectorized basis elements as columns, its
    pseudoinverse, and the orthogonal projector A @ pinv onto its column span.
    Each instance builds each form at most once and keeps it, read-only, for
    as long as its owner holds the instance; no module-level cache does."""

    cfg: StructuredConfig

    @cached_property
    def A(self) -> np.ndarray:
        cfg = self.cfg
        eye = np.eye(cfg.basis_size).reshape(-1, cfg.c, cfg.n, cfg.n)
        return _frozen(reconstruct(eye, cfg).reshape(cfg.basis_size, -1).T)

    @cached_property
    def pinv(self) -> np.ndarray:
        # Row i of block_alphas(I) is pinv @ e_i.
        return _frozen(block_alphas(np.eye(self.cfg.C * self.cfg.N**2), self.cfg).T)

    @cached_property
    def projector(self) -> np.ndarray:
        cfg = self.cfg
        d = cfg.C * cfg.N * cfg.N
        rows = _projection(np.eye(d).reshape(d, cfg.C, cfg.N, cfg.N), cfg)[0]
        return _frozen(rows.reshape(d, d).T)


def generate_structured_basis(cfg: StructuredConfig) -> CompositeBasis:
    """The c*n*n shifted all-ones cuboids, in lexicographic (i, j, k) order."""
    A = StructureMatrix(cfg).A
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
    a zero kernel (which is exactly structured), at any finite scale: the
    kernel is projected at unit scale (_unit_rows).
    """
    w = _check_kernel(w, cfg)
    flat, scale, norms = _unit_rows(w.reshape(1, -1))
    if norms[0] == 0.0:
        return np.zeros_like(w), 0.0
    w_hat, resid = _projection(flat.reshape(1, cfg.C, cfg.N, cfg.N), cfg)
    return w_hat[0] * scale[0], float(resid[0] / norms[0])


def extract_alpha(w, cfg: StructuredConfig) -> np.ndarray:
    """Least-squares coefficients pinv(A) @ vec(w), shaped (c, n, n)."""
    w = _check_kernel(w, cfg)
    return block_alphas(w.reshape(1, -1), cfg).reshape(cfg.c, cfg.n, cfg.n)


def block_alphas(flat, cfg: StructuredConfig) -> np.ndarray:
    """Least-squares coefficients of many kernels at once: flat holds one
    vectorized kernel per row, the result one coefficient row per kernel.
    pinv(A) is the Kronecker product of the bands' pseudoinverses, so each
    kernel axis is solved in turn."""
    x = np.asarray(flat, dtype=np.float64).reshape(-1, cfg.C, cfg.N, cfg.N)
    out = x
    for axis, k in _bands(cfg):
        out = _band_solve(out, k, axis)
    return (out if out is not x else x.copy()).reshape(len(x), cfg.basis_size)


def reconstruct(alphas, cfg: StructuredConfig) -> np.ndarray:
    """Spread a (..., c, h, w) stack over cfg's pool windows, to
    (..., C, h + N - n, w + N - n).

    On coefficients (..., c, n, n) this gives the dense kernels A @ alpha; on
    the gradient of a stride-1 pool's output it is that pool's adjoint. Each
    axis is spread over its window, the channel axis last since it grows
    most. window_spread never aliases its input, so only a config whose
    windows are all 1 copies to keep the result apart from alphas.
    """
    out = np.asarray(alphas, dtype=np.float64)
    if out.ndim < 3 or out.shape[-3] != cfg.c:
        raise ShapeError(f"alpha shape {out.shape} does not match (..., {cfg.c}, h, w)")
    for axis, k in zip((-1, -2, -3), cfg.pool_dims[::-1]):
        if k > 1:
            out = window_spread(out, k, axis)
    return out if max(cfg.pool_dims) > 1 else out.copy()


def _unit_rows(flat):
    # (flat, scale, norms), one kernel per row: a nonzero row whose squared
    # norm overflows or underflows is divided by its scale, its largest |entry|
    # rounded to a power of two, which is exact and keeps its residual. Other
    # rows keep scale 1; norms are those of the rows returned.
    sq = _row_squares(flat)
    rescale = ~np.isfinite(sq)
    low = sq < np.finfo(np.float64).tiny
    rescale[low] = flat[low].any(axis=1)
    scale = np.ones(len(flat))
    if rescale.any():
        scale[rescale] = np.ldexp(1.0, np.frexp(np.max(np.abs(flat[rescale]), axis=1))[1])
        flat = flat / scale[:, np.newaxis]
        sq[rescale] = _row_squares(flat[rescale])
    return flat, scale, np.sqrt(sq)


def _worst_block_residual(flat, cfg: StructuredConfig, solve=True):
    """(worst, residual, alphas) for flat, one vectorized kernel per row: the
    row and relative residual of the kernel farthest from the structured
    subspace, (-1, 0.0) when every kernel is exactly structured (zero rows
    are), and with solve every kernel's least-squares coefficients, one row
    each (None without).

    One sweep (_projection) gives both: each band's class residual is taken
    once for the norms, and the first band's also starts the coefficients,
    which take the same bits as block_alphas. The kernels are taken at unit
    scale (_unit_rows), and their coefficients are scaled back.
    """
    flat, scale, norms = _unit_rows(np.asarray(flat, dtype=np.float64))
    p, resid = _projection(flat.reshape(-1, cfg.C, cfg.N, cfg.N), cfg, "alpha" if solve else None)
    alphas = None
    if solve:
        alphas = p.reshape(len(flat), cfg.basis_size)
        # With no band, p is flat itself, which the coefficients must not share.
        if np.may_share_memory(alphas, flat) or (scale != 1.0).any():
            alphas = alphas * scale[:, np.newaxis]
    res = resid / np.where(norms > 0.0, norms, 1.0)
    worst = int(np.argmax(res)) if res.size else -1
    if worst < 0 or res[worst] == 0.0:
        return -1, 0.0, alphas
    return worst, float(res[worst]), alphas


def worst_kernel_residual(weights, cfg: StructuredConfig) -> float:
    """Largest per-kernel residual across a layer's output channels (rows for
    a linear layer, channel planes for depthwise)."""
    weights = np.asarray(weights, dtype=np.float64)
    flat = weights.reshape(-1, cfg.C * cfg.N * cfg.N)
    return _worst_block_residual(flat, cfg, solve=False)[1]


@dataclass(frozen=True, eq=False)
class DecomposedLayer:
    """A conv, depthwise or fully connected layer refactored as a sum-pool
    with cfg's windows followed by the small kernels alpha, then the bias.
    Layers compare and hash by identity: two layers with equal coefficients
    are still two layers.

    kind follows from alpha's rank and geom.groups: rank-2 alpha (P, R) is a
    fully connected layer ("linear"), which sums windows of cfg.pool_dims[0]
    entries of its input vector; rank-4 alpha (C_out, c, n, n) is a conv
    ("conv", groups 1) or a depthwise conv ("dwconv", one group per channel
    and C = 1). A conv's dense geometry geom splits into pool_geom (stride 1,
    its padding and dilation) and small_geom (its stride, dilation and
    groups, no padding); a linear layer has neither. Built by
    decomposed_layer only, which checks the shapes.
    """

    cfg: StructuredConfig
    alpha: np.ndarray
    geom: ConvGeometry
    bias: np.ndarray | None
    kind: str
    pool_geom: ConvGeometry | None
    small_geom: ConvGeometry | None


def decomposed_layer(
    alphas, cfg: StructuredConfig, geom: ConvGeometry = ConvGeometry(), bias=None
) -> DecomposedLayer:
    """The decomposed layer that runs the small kernels alphas after cfg's pool.

    Rank-2 alphas (P, R) give a fully connected layer, which needs N = 1 and
    the default geom. Rank-4 alphas (C_out, c, n, n) give a conv when
    geom.groups = 1 and a depthwise conv of geom.groups channels, which needs
    C = 1, otherwise. Its kind and its pool and small-conv geometries are
    derived here, once per layer.
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
        return DecomposedLayer(cfg, alphas, geom, bias, "linear", None, None)
    return DecomposedLayer(
        cfg,
        alphas,
        geom,
        bias,
        kind="dwconv" if geom.groups > 1 else "conv",
        pool_geom=ConvGeometry(stride=1, padding=geom.padding, dilation=geom.dilation),
        small_geom=ConvGeometry(stride=geom.stride, dilation=geom.dilation, groups=geom.groups),
    )


def decompose(
    weights,
    cfg: StructuredConfig,
    geom: ConvGeometry = ConvGeometry(),
    bias=None,
    residual_tol: float = 1e-6,
) -> tuple[DecomposedLayer, float]:
    """(layer, residual): a conv, depthwise or fully connected layer split
    into its pooled form, and the largest residual of its kernels.

    weights are (C_out, C, N, N) for a conv (geom.groups = 1) and for a
    depthwise conv (cfg (1, N, 1, n), geom.groups = C_out), and (P, Q) for a
    fully connected layer (cfg (Q, 1, R, 1), default geom). One sweep gives
    every kernel's residual and coefficients. If the largest residual is
    above residual_tol, or NaN, ResidualError names that kernel and its
    residual.
    """
    weights = np.asarray(weights, dtype=np.float64)
    # A (P, Q) fully connected layer holds P kernels of shape (Q, 1, 1).
    dims = (cfg.C,) if weights.ndim == 2 and cfg.N == 1 else (cfg.C, cfg.N, cfg.N)
    if weights.shape[1:] != dims:
        raise ShapeError(
            f"weights shape {weights.shape} does not match config dims "
            f"(C_out, {', '.join(map(str, dims))})"
        )
    worst, residual, alphas = _worst_block_residual(weights.reshape(len(weights), -1), cfg)
    if not residual <= residual_tol:
        raise ResidualError(
            f"output channel {worst} has residual {residual:.3e} > tolerance {residual_tol:.3e}",
            worst,
            residual,
        )
    small = (cfg.c, cfg.n, cfg.n)[: len(dims)]
    return decomposed_layer(alphas.reshape((len(weights),) + small), cfg, geom, bias), residual


def forward_decomposed(x, layer: DecomposedLayer) -> np.ndarray:
    """Pool, then the small kernel, then bias, for a layer of any kind.

    A linear layer sums x, a vector, over its windows and applies its small
    matrix. A conv or depthwise layer sum-pools x, one C x H x W map, and
    runs the small conv, grouped per channel for a depthwise layer; any
    other rank raises. A pool whose windows are all 1 only pads, so it is
    skipped and the small conv runs with the dense geometry instead: the
    same bits, without a padded copy the dense path does not make. The
    output extents match the dense path for every admissible input, which is
    asserted, not assumed.
    """
    x = np.asarray(x, dtype=np.float64)
    cfg, geom = layer.cfg, layer.geom
    if layer.kind == "linear":
        if x.shape != (cfg.C,):
            raise ShapeError(f"input shape {x.shape} does not match ({cfg.C},)")
        out = layer.alpha @ window_sum(x, cfg.pool_dims[0], 0)
    else:
        # Checked before the pool: sum_pool3d would pool a C x H x W x B batch.
        if x.ndim != 3:
            raise ShapeError(f"input must be rank 3 (C x H x W), got rank {x.ndim}")
        if layer.kind == "dwconv" and len(x) != geom.groups:
            raise ShapeError(f"input has {len(x)} channels, layer expects {geom.groups}")
        if max(cfg.pool_dims) == 1:
            out = conv(x, layer.alpha, geom)
        else:
            out = conv(sum_pool3d(x, cfg.pool_dims, layer.pool_geom), layer.alpha, layer.small_geom)
        expect = tuple(
            out_extent(x.shape[1 + i], cfg.N, geom.stride[i], geom.padding[i], geom.dilation[i])
            for i in (0, 1)
        )
        if out.shape[1:] != expect:
            raise GeometryError(
                f"decomposed output extents {out.shape[1:]} diverged from dense-path "
                f"extents {expect}; this indicates an internal bug"
            )
    if layer.bias is not None:
        out = out + (layer.bias if layer.kind == "linear" else layer.bias[:, np.newaxis, np.newaxis])
    return out


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


def save_decomposed_layer(out_dir, name: str, layer: DecomposedLayer) -> dict:
    """Write alpha, optional bias, and a JSON sidecar.

    Returns the sidecar dict; files land in out_dir as {name}.json,
    {name}_alpha.stcv, and {name}_bias.stcv when a bias is present.
    """
    os.makedirs(out_dir, exist_ok=True)
    cfg = layer.cfg
    sidecar = {
        "kind": layer.kind,
        "alpha_file": f"{name}_alpha.stcv",
        "bias_file": f"{name}_bias.stcv" if layer.bias is not None else None,
    }
    if layer.kind == "linear":
        sidecar.update(in_features=cfg.C, R=cfg.c)
    else:
        sidecar.update(
            config={"C": cfg.C, "N": cfg.N, "c": cfg.c, "n": cfg.n},
            pool_dims=list(cfg.pool_dims),
            pool_geom=_geom_to_json(layer.pool_geom),
            small_geom=_geom_to_json(layer.small_geom),
        )
    if layer.kind == "dwconv":
        sidecar["channels"] = layer.geom.groups
    write_tensor(os.path.join(out_dir, sidecar["alpha_file"]), layer.alpha)
    if layer.bias is not None:
        write_tensor(os.path.join(out_dir, sidecar["bias_file"]), layer.bias)
    with open(os.path.join(out_dir, f"{name}.json"), "w", encoding="utf-8") as f:
        f.write(json.dumps(sidecar, indent=2, sort_keys=True) + "\n")
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


# Compatibility block.
# The benchmark in perfbench/ still builds layers by the per-kind names below
# and reads a linear layer's coefficients as .small, and its DecomposeWorkload
# warms structure_matrix and calls cache_clear() on it. The benchmark change
# that moves it onto decomposed_layer, forward_decomposed, reconstruct and
# StructureMatrix deletes this block.

from functools import lru_cache


def DecomposedConvLayer(cfg, pool_dims, pool_geom, alpha, small_geom, bias=None, channels=1):
    # pool_dims always equal cfg.pool_dims.
    geom = ConvGeometry(small_geom.stride, pool_geom.padding, small_geom.dilation, channels)
    return decomposed_layer(alpha, cfg, geom, bias)


def DecomposedDepthwiseLayer(channels, **parts):
    return DecomposedConvLayer(channels=channels, **parts)


def DecomposedLinearLayer(in_features, R, small, bias=None):
    return decomposed_layer(small, StructuredConfig(C=in_features, N=1, c=R, n=1), bias=bias)


DecomposedLayer.small = property(lambda layer: layer.alpha)
_reconstruct_stack = reconstruct
structure_matrix = lru_cache(maxsize=128)(StructureMatrix)
forward_decomposed_depthwise = forward_decomposed_linear = forward_decomposed

# End of the compatibility block.
