"""Dense tensor substrate.

Float64 tensors in channel-major, row-major layout (feature maps C x H x W,
kernels C_out x C_in x K_h x K_w). A batch has one layout, C x H x W x B
with the batch last: im2col, col2im, zero_pad and sum_pool3d take it, and
training runs on it. Provides cross-correlation style convolution; the 1D
all-ones window pair that 3D sum-pooling and every structured operation are
built from, window_sum and its adjoint window_spread, which add strided
slices for windows of up to 4 entries and take differences of running sums
for longer ones; linear maps; a counter-based seeded random generator, which
fills its output in place one block at a time, so a draw needs its output
plus two blocks of memory; and a bit-exact binary file container.

Convolution is cross-correlation: no kernel flip, zero padding only. It
computes one map (C x H x W) and takes one of three paths, picked from the
layer's shapes: one matrix product for a 1x1 kernel with one group,
shift-and-add over contiguous slices for a depthwise layer, and for every
other layer one matrix product per group with the column matrix that im2col
fills tap by tap. The depthwise path splits the padded input into phase
buffers, one per residue of a tap's offset modulo the stride, so that every
tap reads one contiguous 1-D slice of each channel's flat buffer. It
computes the output on the buffers' row pitch and crops it, and walks the
channels in blocks of about _DEPTHWISE_BLOCK_BYTES = 256 KB of that output,
so that each block stays in cache across all its taps. zero_pad is the one
padding helper: it writes the phase buffers and every other padded map.

im2col of a padded C x H x W x B map gives (C*K_h*K_w, H'*W'*B) columns, the
batch last: conv gathers one map, and training its whole batch, which one
matrix product per group covers in both passes. col2im, their adjoint, adds
columns back in rows of W'*B entries. These two and conv are the only tap
loops in the package.

The window pair indexes the summed axis where it is: np.moveaxis costs about
5 us a call, which small maps notice. window_sum takes a stride-1 running sum
along an axis whose rows (the slices across that axis) are C-contiguous and
hold at least _PLANE_SUM_MIN_SIZE = 512 entries as one add per row, plane by
plane, and every other running sum in one call along the axis. Both give the
same bits. The docstrings of conv, window_sum and random_tensor give the
measurements behind each constant.
"""

from __future__ import annotations

import itertools
import math
import operator
import os
import struct
from dataclasses import dataclass

import numpy as np


class ShapeError(ValueError):
    """Operand shapes violate an operation's contract."""


class GeometryError(ValueError):
    """Stride/padding/dilation values produce no valid output."""


class ContainerError(ValueError):
    """Malformed tensor container file."""


def _as_int(v, name, error=ValueError):
    # The package's one rule for a count or an extent: any integer, NumPy's
    # too, returned as an int, but no bool, and no float, which int() would
    # truncate. Anything else raises error.
    try:
        if not isinstance(v, bool):
            return operator.index(v)
    except TypeError:
        pass
    raise error(f"{name} must be an integer, got {v!r}")


def _as_pair(v, name, minimum):
    v = tuple(_as_int(x, name) for x in (v if hasattr(v, "__iter__") else (v, v)))
    if len(v) != 2:
        raise ValueError(f"{name} must be an int or a pair, got {v!r}")
    if any(x < minimum for x in v):
        raise ValueError(f"{name} must be >= {minimum} per axis, got {v}")
    return v


@dataclass(frozen=True)
class ConvGeometry:
    """Stride, zero padding, and dilation for the two spatial axes, plus groups.

    Scalars are broadcast to both axes. Asymmetric (per-axis) values are
    first-class.
    """

    stride: tuple[int, int] = (1, 1)
    padding: tuple[int, int] = (0, 0)
    dilation: tuple[int, int] = (1, 1)
    groups: int = 1

    def __post_init__(self):
        object.__setattr__(self, "stride", _as_pair(self.stride, "stride", 1))
        object.__setattr__(self, "padding", _as_pair(self.padding, "padding", 0))
        object.__setattr__(self, "dilation", _as_pair(self.dilation, "dilation", 1))
        object.__setattr__(self, "groups", _as_int(self.groups, "groups"))
        if self.groups < 1:
            raise ValueError(f"groups must be >= 1, got {self.groups}")


def out_extent(size: int, kernel: int, stride: int, padding: int, dilation: int) -> int:
    """Output extent of one spatial axis: floor((size + 2p - d(k-1) - 1)/s) + 1."""
    span = size + 2 * padding - dilation * (kernel - 1) - 1
    if span < 0:
        raise GeometryError(
            f"kernel (extent {kernel}, dilation {dilation}) exceeds padded input "
            f"(extent {size}, padding {padding})"
        )
    return span // stride + 1


def _check_map(x):
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3:
        raise ShapeError(f"input must be rank 3 (C x H x W), got rank {x.ndim}")
    return x


def _tap_slices(u, v, out_hw, stride, dilation):
    # The row and column slices of a padded map that kernel tap (u, v)
    # multiplies: map[rows, cols][i, j] = map[i*sh + u*dh, j*sw + v*dw].
    (ho, wo), (sh, sw), (dh, dw) = out_hw, stride, dilation
    rows = slice(u * dh, u * dh + sh * (ho - 1) + 1, sh)
    cols = slice(v * dw, v * dw + sw * (wo - 1) + 1, sw)
    return rows, cols


def _tap_grid(hw, k_hw, stride, dilation):
    # The output extents of a K_h x K_w kernel on an already padded H x W map.
    return tuple(out_extent(n, k, s, 0, d) for n, k, s, d in zip(hw, k_hw, stride, dilation))


def im2col(xp, k_hw, stride=(1, 1), dilation=(1, 1)):
    """Column matrix (C*K_h*K_w, H'*W'*B) of an already padded C x H x W x B
    map for a K_h x K_w kernel, whose row (c, u, v) holds the strided view of
    channel c that kernel tap (u, v) multiplies, each column's batch last.
    Filled tap by tap, one strided copy per tap, into one C-contiguous array,
    which a matrix product reads without another copy.
    """
    c, h, w, b = xp.shape
    kh, kw = k_hw
    ho, wo = _tap_grid((h, w), k_hw, stride, dilation)
    cols = np.empty((c, kh, kw, ho, wo, b))
    for u, v in itertools.product(range(kh), range(kw)):
        rows, cs = _tap_slices(u, v, (ho, wo), stride, dilation)
        cols[:, u, v] = xp[:, rows, cs]
    return cols.reshape(c * kh * kw, ho * wo * b)


def col2im(cols, shape, k_hw, stride=(1, 1), dilation=(1, 1)):
    """Adjoint of im2col: adds every entry of cols (C*K_h*K_w, H'*W'*B) back
    onto the entry of the padded C x H x W x B map (shape) it was copied
    from, one strided add per tap, and returns that map. Each add walks rows
    of W'*B entries at horizontal stride 1, and runs of B entries otherwise."""
    c, h, w, b = shape
    kh, kw = k_hw
    ho, wo = _tap_grid((h, w), k_hw, stride, dilation)
    cols = cols.reshape(c, kh, kw, ho, wo, b)
    out = np.zeros(shape)
    for u, v in itertools.product(range(kh), range(kw)):
        rows, cs = _tap_slices(u, v, (ho, wo), stride, dilation)
        out[:, rows, cs] += cols[:, u, v]
    return out


# Output bytes per channel block of a depthwise conv; conv's docstring gives
# the measurements behind the value.
_DEPTHWISE_BLOCK_BYTES = 256 * 1024


def _depthwise_conv(x, taps, out_hw, geom):
    # conv's depthwise path: x is C x H x W and taps is C x K_h x K_w;
    # returns a view of the output's H' x W_q pitch.
    (ho, wo), (sh, sw), (ph, pw), (dh, dw) = out_hw, geom.stride, geom.padding, geom.dilation
    c, kh, kw = taps.shape
    h, w = x.shape[1:]
    grid = list(itertools.product(range(kh), range(kw)))
    if sh == sw == 1 and not (ph or pw) and x.flags.c_contiguous:
        wq, flat = w, {(0, 0): x.reshape(c, -1)}
    else:
        hq, wq = -(-(h + 2 * ph) // sh), -(-(w + 2 * pw) // sw)
        flat = {
            ab: zero_pad(x, ph, pw, (sh, sw), ab, (hq, wq)).reshape(c, -1)
            for ab in {(u * dh % sh, v * dw % sw) for u, v in grid}
        }
    n = ho * wq
    out = np.empty((c, n))
    step = max(1, _DEPTHWISE_BLOCK_BYTES // (8 * n))
    term = np.empty((min(step, c), n))
    # Every operand row is contiguous, so no product below needs a ufunc
    # buffer, but at NumPy's default size of 8192 entries a product with the
    # (rows, 1) taps goes through one whenever a row is shorter; 16 is the
    # smallest size NumPy takes. conv's docstring gives the cost.
    bufsize = np.setbufsize(16)
    try:
        for c0 in range(0, c, step):
            ob, kb = out[c0 : c0 + step], taps[c0 : c0 + step, :, :, np.newaxis]
            for t, (u, v) in enumerate(grid):
                off = (u * dh) // sh * wq + (v * dw) // sw
                view = flat[u * dh % sh, v * dw % sw][c0 : c0 + step, off : off + n]
                if t == 0:
                    np.multiply(view, kb[:, u, v], out=ob)
                else:
                    # A slice cut short by its buffer's end misses only
                    # pitch columns of the last output row.
                    m = view.shape[1]
                    ob[:, :m] += np.multiply(view, kb[:, u, v], out=term[: len(ob), :m])
    finally:
        np.setbufsize(bufsize)
    return out.reshape(c, ho, wq)[:, :, :wo]


def conv(x, kernel, geom: ConvGeometry = ConvGeometry()):
    """Convolve x (C x H x W) with kernel (C_out x C/g x K_h x K_w).

    Cross-correlation with zero padding; returns C_out x H' x W'. With
    groups=g, input and output channels are split into g contiguous blocks and
    block i of the output sees only block i of the input. Any other rank
    than 3 raises: a batch goes through im2col, which takes it batch last.

    No patches are copied for a 1x1 kernel with g=1 (one matrix product over
    a strided view of the input) or for a depthwise layer, g=C=C_out (a sum
    of K_h*K_w contiguous slices, each times its per-channel tap). Every
    other layer is one matrix product of the kernel, per group, with the
    input's im2col column matrix (Chellapilla, Puri & Simard 2006).

    The depthwise sum reads every tap as one contiguous 1-D slice. For each
    phase (a, b) = (u d_h mod s_h, v d_w mod s_w) that some tap (u, v) reads,
    zero_pad writes rows a, a + s_h, ... and columns b, b + s_w, ... of the
    padded input into a C x H_q x W_q buffer, where H_q and W_q are the
    padded extents over the stride, rounded up; a C-contiguous map at
    stride 1 without padding is its own buffer and is read in place.
    Flattened per channel, tap (u, v) is the slice of H' W_q entries at
    offset (u d_h // s_h) W_q + v d_w // s_w of its phase's buffer, so the
    output is computed on an H' x W_q pitch and the returned view keeps its
    W' valid columns. A slice that would run past its buffer's end is cut
    there, at most v d_w // s_w lanes short, and the lanes it misses are
    pitch columns of the last output row; tap (0, 0), which writes the block
    first, is never cut. Every valid output gets the same products in the
    same order as a sum of strided 2-D views, so the bits are those of that
    sum.

    The taps run with NumPy's ufunc buffer at its smallest, 16 entries.
    Their operand rows are contiguous and need no buffer, but at the
    default 8192 NumPy 2.4 copies the (rows, 1) taps through one whenever a
    row is shorter than that: a (16, 768) product with a (16, 1) tap took
    11.3 us at the default and 3.8 us at 16, against 3.2 us for a product
    with one scalar. Strided 2-D views do need the buffer, and at 16 the
    sum of views ran 1.5 to 2 times as slow over struct_mv2_b's depthwise
    convs, so the small buffer goes only with the flat slices. Slices of
    H' W_q entries with the small buffer, where each strided view walked
    rows of W' entries (every s_w-th at stride s_w), took struct_mv2_b's 17
    dense depthwise convs at 224x224 from 51.7 to 26.8 ms and its 17
    decomposed ones from 44.8 to 26.8 ms: the 144 x 56 x 56 layer from 7.4
    to 3.6 ms and the 96 x 112 x 112 stride-2 one from 8.5 to 5.2 ms (2
    shared cores, NumPy 2.4, min of 8 calls per layer). A 2 x 2 kernel at
    stride 2 puts each tap in its own phase, so the buffers cost a copy
    that the slices do not repay: on a (192, 29, 29) map the phase buffers
    took about half of the conv's 0.57 ms. Threads do not help on 2 shared
    cores: two Python threads running NumPy ufuncs ran at 0.84x to 1.02x
    the speed of one (arrays of 32 K to 2 M entries), and a thread pool over
    channel blocks of strided views took those depthwise convs from 55.7 to
    50.4 ms dense and from 47.2 to 42.3 ms decomposed, inside the host's
    noise.

    The sum runs over blocks of max(1, 256 KB // (8 H' W_q)) channels
    (_DEPTHWISE_BLOCK_BYTES), so a block's output, its tap product and its
    input stay in L2 while all K_h*K_w taps pass over them (loop blocking,
    Lam, Rothberg & Wolf 1991). The first tap writes its product into the
    block and the later ones add to it: the bits of zeros plus every
    product, up to the sign of a zero. Over struct_mv2_b's 34 depthwise
    convs at 224x224 (17 dense, 17 decomposed; 2 shared cores with 2 MB of
    L2 each, NumPy 2.4, min of 8 rounds) the blocks of strided views took
    0.110 s at 32 KB, 0.107 at 64 KB, 0.093 at 128 KB, 0.090 at 256 KB,
    0.091 at 512 KB, 0.111 at 1 MB and 0.114 as one block, against 0.117 s
    for np.zeros plus one full-map pass per tap. Padding each block into a
    reused zero-bordered buffer instead of padding the whole map took those
    convs from 0.087 to 0.082 s (median of 12), but infer-mv2b's op_s moved
    only from 0.172 to 0.164 s over 16 alternating pairs, less than its
    spread, so the whole map is still padded once; phase buffers built
    block by block into reused arrays showed no clear gain either.
    """
    x = _check_map(x)
    kernel = np.asarray(kernel, dtype=np.float64)
    if kernel.ndim != 4:
        raise ShapeError(f"kernel must be rank 4, got rank {kernel.ndim}")
    c_in, h, w = x.shape
    c_out, c_k, kh, kw = kernel.shape
    g = geom.groups
    if c_in % g != 0 or c_out % g != 0:
        raise ShapeError(f"channels ({c_in} in, {c_out} out) not divisible by groups {g}")
    if c_k != c_in // g:
        raise ShapeError(
            f"kernel expects {c_k} input channels per group, input has {c_in // g}"
        )
    ho = out_extent(h, kh, geom.stride[0], geom.padding[0], geom.dilation[0])
    wo = out_extent(w, kw, geom.stride[1], geom.padding[1], geom.dilation[1])
    if g == c_in == c_out and not kh == kw == g == 1:
        return _depthwise_conv(x, kernel[:, 0], (ho, wo), geom)
    ph, pw = geom.padding
    xp = zero_pad(x, ph, pw) if ph or pw else x
    if kh == kw == 1 and g == 1:
        view = xp[(slice(None),) + _tap_slices(0, 0, (ho, wo), geom.stride, geom.dilation)]
        out = kernel.reshape(c_out, c_in) @ view.reshape(c_in, -1)
    else:
        cols = im2col(xp[..., np.newaxis], (kh, kw), geom.stride, geom.dilation)
        out = kernel.reshape(g, c_out // g, -1) @ cols.reshape(g, -1, cols.shape[-1])
    return out.reshape(c_out, ho, wo)


# The longest window the window pair sums as slice-adds; window_sum's
# docstring gives the measurements behind the value.
_SLICE_ADD_MAX_K = 4
# The fewest entries per row for which window_sum takes a stride-1 running
# sum plane by plane; its docstring gives the measurements behind the value.
_PLANE_SUM_MIN_SIZE = 512


def _axis_prefix(ndim, axis):
    # The index prefix that reaches axis: x[_axis_prefix(x.ndim, axis) + (s,)]
    # slices x along axis without moving it.
    if not -ndim <= axis < ndim:
        raise ShapeError(f"axis {axis} is out of range for rank {ndim}")
    return (slice(None),) * (axis % ndim)


def _resized(shape, axis, n):
    # shape with extent n along axis (axis >= 0).
    return shape[:axis] + (n,) + shape[axis + 1 :]


def _check_window(n, k, stride, dilation):
    if k < 1:
        raise ShapeError(f"window length must be >= 1, got k={k}")
    if stride < 1:
        raise GeometryError(f"window stride must be >= 1, got stride={stride}")
    if dilation < 1:
        raise GeometryError(f"window dilation must be >= 1, got dilation={dilation}")
    if dilation * (k - 1) + 1 > n:
        raise ShapeError(
            f"window of length k={k} at dilation {dilation} spans "
            f"{dilation * (k - 1) + 1} entries, axis has {n}"
        )


def window_sum(x, k: int, axis: int, stride: int = 1, dilation: int = 1):
    """out[i] = sum_{j<k} x[i*stride + j*dilation] along axis, for every window
    that fits; a window that does not fit, or k, stride or dilation below 1,
    raises.

    Two paths, split at _SLICE_ADD_MAX_K = 4. A window of 2 to 4 entries is
    k - 1 adds of strided slices taken at the output stride, so only the kept
    outputs are computed. A longer window is a difference of two running sums
    (a summed-area table, Crow 1984), so its cost does not grow with k. On
    2 shared cores (NumPy 2.4, min of 30 calls on a (96, 56, 56) map), k=2
    took 0.32 ms as slice-adds against 3.02 ms as running sums along axis 0,
    and 0.51 against 3.16 ms along axis 2; k=4 took 0.96 against 1.84 ms
    along axis 2. The adjoint, window_spread, still wins at k=4 (1.69 against
    2.77 ms along axis 2) but loses from k=5 (2.42 against 1.87 ms), which
    sets the cutoff. For k > 1 the result never aliases x.

    A stride-1 running sum over C-contiguous rows of at least 512 entries
    (_PLANE_SUM_MIN_SIZE) is one add per row, sums[i+1] = sums[i] + x[i],
    instead of np.cumsum along the axis: the same additions in the same
    order, so the same bits, but each add streams two contiguous rows. On the
    same 2 cores (min of 30 running sums along axis 0) np.cumsum against the
    loop took 0.15 against 0.86 ms on a (960, 7, 7) map, 0.43 against
    0.56 ms on (576, 14, 14), 0.67 against 0.51 ms on (384, 16, 24),
    0.58 against 0.49 ms on (192, 28, 28), 2.07 against 0.76 ms on
    (144, 56, 56) and 8.97 against 1.02 ms on (96, 112, 112). A dilated
    window keeps np.cumsum, and so do rows that are not contiguous, such as a
    map summed along H or W, or a C x H x W x B view of a batch stored sample
    by sample, summed over C.
    """
    x = np.asarray(x, dtype=np.float64)
    pre, n, d = _axis_prefix(x.ndim, axis), x.shape[axis], dilation
    _check_window(n, k, stride, d)
    if k == 1:
        return x[pre + (slice(None, None, stride),)]
    if k <= _SLICE_ADD_MAX_K:
        # Slice j holds x[i*stride + j*d] for every kept output i.
        span = stride * ((n - d * (k - 1) - 1) // stride) + 1
        out = x[pre + (slice(0, span, stride),)] + x[pre + (slice(d, d + span, stride),)]
        for j in range(2, k):
            out += x[pre + (slice(j * d, j * d + span, stride),)]
        return out
    # Running sums with step d after d zeros: sums[i+d] = x[i] + x[i-d] + ...
    # Both paths below write every plane after the first d.
    sums = np.empty_like(x, shape=_resized(x.shape, len(pre), n + d))
    sums[pre + (slice(0, d),)] = 0.0
    row = x[pre + (0,)]
    if d == 1 and row.flags.c_contiguous and row.size >= _PLANE_SUM_MIN_SIZE:
        sums[pre + (1,)] = row
        for i in range(1, n):
            np.add(sums[pre + (i,)], x[pre + (i,)], out=sums[pre + (i + 1,)])
    else:
        for r in range(d):
            np.cumsum(x[pre + (slice(r, None, d),)], axis=len(pre),
                      out=sums[pre + (slice(d + r, None, d),)])
    out = sums[pre + (slice(d * k, None),)] - sums[pre + (slice(0, n - d * (k - 1)),)]
    return out[pre + (slice(None, None, stride),)]


def window_spread(x, k: int, axis: int):
    """Adjoint of window_sum at stride and dilation 1: B @ x along axis, for
    the (l + k - 1) x l band B whose column i is the all-ones window of
    length k starting at row i.

    k below 1 raises. The two paths split where window_sum's do. For k <= 4
    the result is x copied above k - 1 zero rows, plus k - 1 slice-adds of x
    that give row r + j its x[r] for each 0 < j < k. A longer window takes
    each output as a difference of two running sums of x. For k > 1 the
    result never aliases x.
    """
    x = np.asarray(x, dtype=np.float64)
    pre = _axis_prefix(x.ndim, axis)
    l = x.shape[axis]
    # The windows tile the l + k - 1 output rows, so only k can be wrong.
    _check_window(l + k - 1, k, 1, 1)
    if k == 1:
        return x
    # empty_like keeps x's memory order, so the result is laid out like x.
    out = np.empty_like(x, shape=_resized(x.shape, len(pre), l + k - 1))
    if k <= _SLICE_ADD_MAX_K:
        out[pre + (slice(0, l),)] = x
        out[pre + (slice(l, None),)] = 0.0
        for j in range(1, k):
            out[pre + (slice(j, j + l),)] += x
        return out
    # Output r is the sum of x[max(0, r-k+1) .. min(r, l-1)].
    sums = np.cumsum(x, axis=len(pre))
    out[pre + (slice(0, l),)] = sums
    out[pre + (slice(l, None),)] = sums[pre + (slice(l - 1, l),)]
    out[pre + (slice(k, None),)] -= sums[pre + (slice(0, l - 1),)]
    return out


def zero_pad(x, ph, pw, stride=(1, 1), phase=(0, 0), extent=None):
    """x with ph rows of zeros above and below and pw columns of zeros on
    either side of axes 1 and 2, H and W of a C x H x W map or of a
    C x H x W x B batch: zeros plus one copy, since np.pad's own cost
    dominates on small maps. Zeroing only the border of an empty array was
    slower: 0.18 against 0.16 ms on a (192, 28, 28) map (2 shared cores, min
    of 40 calls).

    With a stride (s_h, s_w) and a phase (a, b), the result keeps only rows
    a, a + s_h, ... and columns b, b + s_w, ... of the padded map: conv's
    depthwise path splits a strided layer into such phase buffers. extent,
    by default all the kept rows and columns, sets the result's extents on
    the two axes; entries past the padded map are zero too.
    """
    (h, w), (sh, sw), (a, b) = x.shape[1:3], stride, phase
    # Kept rows r0..r1-1 hold x[a + sh*r0 - ph], x[a + sh*(r0+1) - ph], ...
    # and kept columns c0..c1-1 likewise.
    r0, c0 = max(0, -((a - ph) // sh)), max(0, -((b - pw) // sw))
    r1, c1 = max(r0, (h - 1 + ph - a) // sh + 1), max(c0, (w - 1 + pw - b) // sw + 1)
    if extent is None:
        extent = (-(-(h + 2 * ph - a) // sh), -(-(w + 2 * pw - b) // sw))
    out = np.zeros(x.shape[:1] + tuple(extent) + x.shape[3:])
    rows = slice(a + sh * r0 - ph, a + sh * r1 - ph, sh)
    cols = slice(b + sw * c0 - pw, b + sw * c1 - pw, sw)
    out[:, r0:r1, c0:c1] = x[:, rows, cols]
    return out


def sum_pool3d(x, pool_dims, geom: ConvGeometry = ConvGeometry()):
    """Sliding-window sum over the (channel, height, width) axes of x, a
    C x H x W map or a C x H x W x B batch, which pools each sample.

    The channel window slides with stride 1 and no padding or dilation, and
    goes first, since it usually shrinks the map most; the spatial axes use
    geom's stride, zero padding, and dilation. Equivalent to convolving with
    an all-ones kernel of shape pool_dims, so pool dims (1, 1, 1) only pad.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (3, 4):
        raise ShapeError(f"input must be a C x H x W map or C x H x W x B batch, got rank {x.ndim}")
    kc, kh, kw = [_as_int(d, "pool dim", ShapeError) for d in pool_dims]
    if min(kc, kh, kw) < 1:
        raise ShapeError(f"pool dims must be >= 1, got {pool_dims}")
    c_in, h, w = x.shape[:3]
    if kc > c_in:
        raise ShapeError(f"channel window {kc} exceeds {c_in} input channels")
    # out_extent raises when a spatial window does not fit the padded input.
    out_extent(h, kh, geom.stride[0], geom.padding[0], geom.dilation[0])
    out_extent(w, kw, geom.stride[1], geom.padding[1], geom.dilation[1])
    out = window_sum(x, kc, 0)
    ph, pw = geom.padding
    if ph or pw:
        out = zero_pad(out, ph, pw)
    out = window_sum(out, kh, 1, geom.stride[0], geom.dilation[0])
    return window_sum(out, kw, 2, geom.stride[1], geom.dilation[1])


def linear(weight, x):
    """Matrix-vector product: weight (P x Q) applied to x (Q,)."""
    weight = np.asarray(weight, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if weight.ndim != 2 or x.ndim != 1:
        raise ShapeError(
            f"linear expects a matrix and a vector, got ranks {weight.ndim} and {x.ndim}"
        )
    if weight.shape[1] != x.shape[0]:
        raise ShapeError(f"matrix is {weight.shape}, vector has length {x.shape[0]}")
    return weight @ x


# Counter-based generator: element i of a draw is SplitMix64 applied to
# seed + (i+1) * 0x9E3779B97F4A7C15 (mod 2^64), with the mixed value's top
# 53 bits mapped to a double in [0, 1) and then rescaled to [-1, 1).
# Constants are SplitMix64's published ones; the sequence is reproducible
# from this comment alone.
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
# Entries per block of a draw; random_tensor's docstring gives the
# measurements behind the value.
_DRAW_BLOCK = 1 << 15


def random_tensor(seed: int, shape) -> np.ndarray:
    """Seeded random tensor with values in [-1, 1), reproducible bit for bit.

    A shape of rank 0, an extent that is not an integer or is below 1, or
    more than _MAX_ELEMS = 2^40 entries (the container's limit) raises
    before anything is allocated.

    SplitMix64 is counter-based (Steele, Lea & Flood 2014): entry i depends
    only on the seed and i. So the output is filled in blocks of at most
    _DRAW_BLOCK = 2^15 entries, with a one-pass draw's integer and float
    operations in its order, each in place, which keeps every bit. The
    mixing runs in one reused uint64 work block, and each round's shift goes
    into the output block, viewed as uint64, which the mixed bits then
    overwrite. Working memory is the output plus two blocks, the work block
    and the counters 1..2^15 that each block offsets. On a (96, 112, 112)
    draw of 9.6 MB, a one-pass draw with full-size temporaries peaked at
    48.2 MB under tracemalloc and took 19.6 ms; blocked, it took 12.0 ms at
    2^11 entries a block, 7.2 at 2^13, 6.9 at 2^14, 6.5 at 2^15, 6.1 at
    2^16, 7.6 at 2^17 and 10.3 at 2^19 (min of 4 x 8 interleaved calls, 2
    shared cores with 2 MB of L2 each, NumPy 2.4). 2^16 is inside the noise
    of 2^15 with twice the blocks; at 2^15 the three blocks in use, 768 KB,
    stay in L2, and the peak is 10.2 MB.
    """
    shape = tuple(_as_int(d, "extent", ShapeError) for d in shape)
    if len(shape) == 0:
        raise ShapeError("shape must have rank >= 1")
    if any(d < 1 for d in shape):
        raise ShapeError(f"all extents must be >= 1, got {shape}")
    n = math.prod(shape)
    if n > _MAX_ELEMS:
        raise ShapeError(f"shape {shape} has {n} entries, more than {_MAX_ELEMS}")
    out = np.empty(n)
    step = min(n, _DRAW_BLOCK)
    counters = np.arange(1, step + 1, dtype=np.uint64)
    work = np.empty(step, dtype=np.uint64)
    seed = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
    with np.errstate(over="ignore"):
        for start in range(0, n, step):
            v, block = work[: n - start], out[start : start + step]
            shifted = block.view(np.uint64)
            np.add(counters[: len(v)], np.uint64(start), out=v)
            np.multiply(v, _GOLDEN, out=v)
            np.add(v, seed, out=v)
            for shift, mix in ((30, _MIX1), (27, _MIX2), (31, None)):
                np.bitwise_xor(v, np.right_shift(v, np.uint64(shift), out=shifted), out=v)
                if mix is not None:
                    np.multiply(v, mix, out=v)
            np.right_shift(v, np.uint64(11), out=v)
            np.copyto(block, v)
            block *= 2.0**-53
            block *= 2.0
            block -= 1.0
    out = out.reshape(shape)
    out.flags.writeable = False
    return out


# File container: magic "STCV", then little-endian u32 version (=1), u32 rank,
# rank u32 extents, then the payload as IEEE-754 binary64, row major.
_MAGIC = b"STCV"
_VERSION = 1
_MAX_RANK = 32
_MAX_ELEMS = 1 << 40


def write_tensor(path, x) -> None:
    """Write x to the binary container at path, from x's own buffer: a
    C-contiguous little-endian float64 array is not copied."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.ndim < 1 or x.ndim > _MAX_RANK:
        raise ShapeError(f"container supports rank 1..{_MAX_RANK}, got {x.ndim}")
    if any(d < 1 for d in x.shape):
        raise ShapeError(f"all extents must be >= 1, got {x.shape}")
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<II", _VERSION, x.ndim))
        f.write(struct.pack(f"<{x.ndim}I", *x.shape))
        f.write(memoryview(x.astype("<f8", copy=False)).cast("B"))


def read_tensor(path) -> np.ndarray:
    """Read a tensor container; the round trip through write_tensor is bit exact.

    The header and extents are checked, and the file size compared with the
    size they imply, before the payload is read, so a malformed file of any
    size is rejected without loading it.
    """
    with open(path, "rb") as f:
        head = f.read(12)
        if head[:4] != _MAGIC:
            raise ContainerError(f"bad magic {head[:4]!r}, expected {_MAGIC!r}")
        if len(head) < 12:
            raise ContainerError("truncated header")
        version, rank = struct.unpack_from("<II", head, 4)
        if version != _VERSION:
            raise ContainerError(f"unsupported container version {version}")
        if rank < 1 or rank > _MAX_RANK:
            raise ContainerError(f"rank {rank} outside supported range 1..{_MAX_RANK}")
        extents = f.read(4 * rank)
        if len(extents) < 4 * rank:
            raise ContainerError("truncated extent list")
        shape = struct.unpack(f"<{rank}I", extents)
        if any(d < 1 for d in shape):
            raise ContainerError(f"zero extent in shape {shape}")
        n = math.prod(shape)
        if n > _MAX_ELEMS:
            raise ContainerError(f"element count overflow in shape {shape}")
        start = 12 + 4 * rank
        size, expected = os.fstat(f.fileno()).st_size, start + 8 * n
        if size < expected:
            raise ContainerError(f"truncated payload: {size - start} of {8 * n} bytes")
        if size > expected:
            raise ContainerError(f"{size - expected} trailing bytes after payload")
        out = np.empty(n, dtype="<f8")
        got = f.readinto(out)
    if got != 8 * n:  # the file shrank after fstat
        raise ContainerError(f"truncated payload: {got} of {8 * n} bytes")
    out = out.astype(np.float64, copy=False).reshape(shape)
    out.flags.writeable = False
    return out
