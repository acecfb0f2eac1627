import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from structconv import tensor
from structconv.tensor import (
    _DEPTHWISE_BLOCK_BYTES,
    _DRAW_BLOCK,
    _PLANE_SUM_MIN_SIZE,
    ContainerError,
    ConvGeometry,
    GeometryError,
    ShapeError,
    col2im,
    conv,
    im2col,
    linear,
    out_extent,
    random_tensor,
    read_tensor,
    sum_pool3d,
    window_spread,
    window_sum,
    write_tensor,
    zero_pad,
)
from references import conv_loops, one_pass_random_tensor, pool_loops


GEOMS = [
    ConvGeometry(),
    ConvGeometry(stride=2),
    ConvGeometry(padding=1),
    ConvGeometry(stride=2, padding=1),
    ConvGeometry(dilation=2, padding=2),
    ConvGeometry(stride=(2, 1), padding=(0, 1), dilation=(1, 2)),
]


@pytest.mark.parametrize("geom", GEOMS)
@pytest.mark.parametrize("c_in,c_out,k", [(1, 1, 1), (3, 4, 1), (3, 4, 3), (2, 5, 4)])
def test_conv_matches_loop_reference(geom, c_in, c_out, k):
    x = random_tensor(c_in * 100 + c_out, (c_in, 9, 8))
    kernel = random_tensor(k, (c_out, c_in, k, k))
    got = conv(x, kernel, geom)
    want = conv_loops(x, kernel, geom)
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("groups", [2, 3, 6])
def test_grouped_conv_matches_loop_reference(groups):
    geom = ConvGeometry(stride=2, padding=1, groups=groups)
    x = random_tensor(groups, (6, 7, 7))
    kernel = random_tensor(groups + 1, (6, 6 // groups, 3, 3))
    np.testing.assert_allclose(
        conv(x, kernel, geom), conv_loops(x, kernel, geom), rtol=0, atol=1e-12
    )


def test_depthwise_is_groups_equal_channels():
    geom = ConvGeometry(padding=1, groups=5)
    x = random_tensor(31, (5, 6, 6))
    kernel = random_tensor(32, (5, 1, 3, 3))
    got = conv(x, kernel, geom)
    for ch in range(5):
        single = conv(x[ch : ch + 1], kernel[ch : ch + 1], ConvGeometry(padding=1))
        np.testing.assert_allclose(got[ch : ch + 1], single, rtol=0, atol=1e-12)


@pytest.mark.parametrize("geom", GEOMS)
@pytest.mark.parametrize("k_hw", [(3, 2), (1, 1)])
def test_depthwise_matches_loop_reference(geom, k_hw):
    geom = ConvGeometry(geom.stride, geom.padding, geom.dilation, groups=5)
    x = random_tensor(31, (5, 9, 8))
    kernel = random_tensor(32, (5, 1) + k_hw)
    np.testing.assert_allclose(
        conv(x, kernel, geom), conv_loops(x, kernel, geom), rtol=0, atol=1e-12
    )


def depthwise_taps_reference(x, kernel, geom):
    # The unblocked depthwise sum: zeros, plus each tap's product over the
    # whole map in tap order. Blocking must reproduce it bit for bit.
    (sh, sw), (ph, pw), (dh, dw) = geom.stride, geom.padding, geom.dilation
    _, _, kh, kw = kernel.shape
    xp = np.pad(x, ((0, 0), (ph, ph), (pw, pw)))
    ho = (xp.shape[1] - dh * (kh - 1) - 1) // sh + 1
    wo = (xp.shape[2] - dw * (kw - 1) - 1) // sw + 1
    out = np.zeros((len(x), ho, wo))
    for u, v in np.ndindex(kh, kw):
        rows = slice(u * dh, u * dh + sh * (ho - 1) + 1, sh)
        cols = slice(v * dw, v * dw + sw * (wo - 1) + 1, sw)
        out += xp[:, rows, cols] * kernel[:, 0, u, v, np.newaxis, np.newaxis]
    return out


# Channels in 256 KB of 32x32 outputs.
_BLOCK_32 = _DEPTHWISE_BLOCK_BYTES // (8 * 32 * 32)


def depthwise_block(ho, w, geom):
    # Channels per block of a depthwise conv on one map: the block's output
    # runs over the W_q pitch of its phase buffers, so pitch lanes count too.
    wq = -(-(w + 2 * geom.padding[1]) // geom.stride[1])
    return max(1, _DEPTHWISE_BLOCK_BYTES // (8 * ho * wq))


@pytest.mark.parametrize(
    "hw,geom",
    [
        ((32, 32), ConvGeometry(padding=1)),
        ((64, 64), ConvGeometry(stride=2, padding=1)),
        ((36, 34), ConvGeometry(padding=(0, 1), dilation=2)),
        ((32, 34), ConvGeometry(padding=(2, 0), dilation=(2, 1))),
    ],
    ids=["stride1", "stride2", "dilation2", "asymmetric-padding"],
)
def test_depthwise_blocks_are_bit_identical_to_the_unblocked_sum(hw, geom):
    # Every case has a 32x32 output: two full channel blocks and a remainder.
    step = depthwise_block(32, hw[1], geom)
    c = 2 * step + step // 3
    geom = ConvGeometry(geom.stride, geom.padding, geom.dilation, groups=c)
    x = random_tensor(37, (c,) + hw)
    kernel = random_tensor(38, (c, 1, 3, 3))
    got = conv(x, kernel, geom)
    assert got.shape == (c, 32, 32)
    np.testing.assert_array_equal(got, depthwise_taps_reference(x, kernel, geom))


def test_depthwise_plane_larger_than_a_block_is_its_own_block():
    side = int(np.sqrt(_DEPTHWISE_BLOCK_BYTES / 8)) + 8
    assert 8 * side * side > _DEPTHWISE_BLOCK_BYTES
    geom = ConvGeometry(padding=1, groups=3)
    x = random_tensor(39, (3, side, side))
    kernel = random_tensor(40, (3, 1, 3, 3))
    np.testing.assert_array_equal(conv(x, kernel, geom), depthwise_taps_reference(x, kernel, geom))


def test_depthwise_blocks_of_a_non_contiguous_input():
    c = 2 * _BLOCK_32 + 5
    x = random_tensor(41, (32, c, 32, 2))[..., 1].transpose(1, 0, 2)  # (c, 32, 32), strided
    assert not x.flags.c_contiguous
    geom = ConvGeometry(stride=(1, 2), padding=(1, 2), groups=c)
    kernel = random_tensor(42, (c, 1, 3, 2))
    np.testing.assert_array_equal(conv(x, kernel, geom), depthwise_taps_reference(x, kernel, geom))


@pytest.mark.parametrize(
    "c_in,c_out,groups",
    [(3, 6, 3), (4, 6, 2)],
    ids=["channel-multiplier", "two-groups"],
)
@pytest.mark.parametrize("k", [1, 3])
def test_grouped_conv_off_the_fast_paths_matches_loop_reference(c_in, c_out, groups, k):
    # Neither 1x1 with one group nor one channel per group: the patch path.
    geom = ConvGeometry(stride=(2, 1), padding=1, dilation=(1, 2), groups=groups)
    x = random_tensor(33, (c_in, 9, 8))
    kernel = random_tensor(34, (c_out, c_in // groups, k, k))
    np.testing.assert_allclose(
        conv(x, kernel, geom), conv_loops(x, kernel, geom), rtol=0, atol=1e-12
    )


@pytest.mark.parametrize(
    "kernel_shape,groups", [((5, 4, 1, 1), 1), ((4, 1, 3, 3), 4)], ids=["1x1", "depthwise"]
)
@pytest.mark.parametrize("geom", GEOMS[:2] + GEOMS[-1:])
def test_fast_paths_accept_non_contiguous_input(kernel_shape, groups, geom):
    geom = ConvGeometry(geom.stride, geom.padding, geom.dilation, groups=groups)
    x = random_tensor(35, (9, 4, 8, 2))[..., 1].transpose(1, 0, 2)  # (4, 9, 8), strided
    assert not x.flags.c_contiguous
    kernel = random_tensor(36, kernel_shape)
    np.testing.assert_allclose(
        conv(x, kernel, geom), conv_loops(np.array(x), kernel, geom), rtol=0, atol=1e-12
    )


def test_conv_without_padding_is_bit_identical_to_padded_path():
    # Zero padding skips np.pad; the output must not change by a single bit.
    x = random_tensor(14, (4, 7, 6, 2))[..., 0]  # a strided, non-contiguous view
    kernel = random_tensor(15, (6, 4, 3, 2))
    geom = ConvGeometry(stride=(2, 1), dilation=(1, 2))
    want = kernel.reshape(6, -1) @ im2col(np.pad(x, 0)[..., np.newaxis], (3, 2), (2, 1), (1, 2))
    np.testing.assert_array_equal(conv(x, kernel, geom), want.reshape(6, 3, 4))


@pytest.mark.parametrize("geom", GEOMS)
@pytest.mark.parametrize(
    "kernel_shape,groups",
    [((5, 4, 1, 1), 1), ((4, 1, 3, 2), 4), ((5, 4, 3, 2), 1), ((6, 2, 3, 2), 2)],
    ids=["1x1", "depthwise", "general", "grouped-general"],
)
def test_conv_rejects_a_batch(kernel_shape, groups, geom):
    # conv computes one map on every path: a C x H x W x B batch goes
    # through im2col, and conv refuses it before any work.
    geom = ConvGeometry(geom.stride, geom.padding, geom.dilation, groups=groups)
    x = random_tensor(43, (4, 9, 8, 3))
    kernel = random_tensor(44, kernel_shape)
    with pytest.raises(ShapeError, match="got rank 4"):
        conv(x, kernel, geom)


def test_depthwise_blocks_take_one_map_not_a_batch():
    # Each sample is one map of two full channel blocks and a remainder, which
    # the unblocked sum gives bit for bit; the batch of them is refused.
    step = depthwise_block(32, 66, ConvGeometry(stride=(1, 2), padding=(1, 2)))
    c = 2 * step + step // 3
    geom = ConvGeometry(stride=(1, 2), padding=(1, 2), groups=c)
    x = random_tensor(47, (c, 32, 66, 2))
    kernel = random_tensor(48, (c, 1, 3, 2))
    with pytest.raises(ShapeError, match="got rank 4"):
        conv(x, kernel, geom)
    for i in range(2):
        got = conv(x[..., i], kernel, geom)
        assert got.shape == (c, 32, 35)
        np.testing.assert_array_equal(got, depthwise_taps_reference(x[..., i], kernel, geom))


@pytest.mark.parametrize(
    "hw,geom,k_hw",
    [
        ((17, 16), ConvGeometry(stride=3, padding=1), (3, 3)),
        ((17, 16), ConvGeometry(stride=3, padding=2), (5, 4)),
        ((17, 16), ConvGeometry(stride=(3, 2), padding=(2, 1), dilation=2), (3, 3)),
        ((17, 16), ConvGeometry(stride=(2, 3), dilation=(3, 2)), (2, 4)),
        ((1, 2), ConvGeometry(stride=3, padding=2), (3, 3)),
    ],
    ids=["stride3", "stride3-5x4", "stride3x2-dilation2", "stride2x3-dilation3x2",
         "phase-of-padding-only"],
)
def test_depthwise_taps_in_several_phases(hw, geom, k_hw):
    # Stride and dilation spread the taps over several phase buffers; on a
    # 1 x 2 map, phase (0, 0) holds padding only.
    c = 7
    geom = ConvGeometry(geom.stride, geom.padding, geom.dilation, groups=c)
    x = random_tensor(49, (c,) + hw)
    kernel = random_tensor(50, (c, 1) + k_hw)
    np.testing.assert_array_equal(conv(x, kernel, geom), depthwise_taps_reference(x, kernel, geom))
    np.testing.assert_allclose(
        conv(x, kernel, geom), conv_loops(x, kernel, geom), rtol=0, atol=1e-12
    )


def test_depthwise_at_stride_2_takes_one_map_not_a_batch():
    c = 6
    geom = ConvGeometry(stride=2, padding=1, groups=c)
    x = random_tensor(51, (c, 11, 10, 3))
    kernel = random_tensor(52, (c, 1, 3, 3))
    with pytest.raises(ShapeError, match="got rank 4"):
        conv(x, kernel, geom)
    for i in range(3):
        got = conv(x[..., i], kernel, geom)
        assert got.shape == (c, 6, 5)
        np.testing.assert_array_equal(got, depthwise_taps_reference(x[..., i], kernel, geom))


@pytest.mark.parametrize("dilation", [1, 2])
def test_depthwise_reads_an_unpadded_contiguous_map_in_place(dilation, monkeypatch):
    # No padding, stride 1 and a C-contiguous map: no phase buffer is built,
    # and the last taps' slices end at the end of the map itself.
    c = 2 * _BLOCK_32 + 3
    geom = ConvGeometry(dilation=dilation, groups=c)
    x = random_tensor(53, (c, 36, 34))
    kernel = random_tensor(54, (c, 1, 3, 3))
    want = depthwise_taps_reference(x, kernel, geom)

    def no_copy(*args, **kwargs):
        raise AssertionError("the in-place depthwise path copied its input")

    monkeypatch.setattr(tensor, "zero_pad", no_copy)
    got = conv(x, kernel, geom)
    assert got.shape == (c, 36 - 2 * dilation, 34 - 2 * dilation)
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize(
    "geom",
    [
        ConvGeometry(),
        ConvGeometry(padding=1),
        ConvGeometry(stride=2, padding=1),
        ConvGeometry(stride=(3, 2), dilation=2),
    ],
    ids=["in-place", "padded", "stride2", "stride3x2-dilation2"],
)
@pytest.mark.parametrize("batch", [None, 3], ids=["map", "batch"])
def test_depthwise_never_writes_or_aliases_its_input(geom, batch):
    c = 5
    geom = ConvGeometry(geom.stride, geom.padding, geom.dilation, groups=c)
    x = np.array(random_tensor(55, (c, 12, 11, batch or 1)))
    x = x if batch else x[..., 0]
    before = x.copy()
    kernel = random_tensor(56, (c, 1, 3, 3))
    if batch:
        # A C x H x W x B batch is refused, and left as it was.
        with pytest.raises(ShapeError, match="got rank 4"):
            conv(x, kernel, geom)
        np.testing.assert_array_equal(x, before)
        return
    # Finite inputs never raise, though the pitch lanes multiply border zeros
    # and entries that wrap around from the next row.
    with np.errstate(all="raise"):
        out = conv(x, kernel, geom)
    np.testing.assert_array_equal(x, before)
    assert not np.shares_memory(out, x)
    out[...] = np.nan
    np.testing.assert_array_equal(x, before)


def test_depthwise_restores_the_ufunc_buffer_size():
    # The taps run with NumPy's smallest ufunc buffer, which must not leak.
    before = np.getbufsize()
    geom = ConvGeometry(padding=1, groups=3)
    conv(random_tensor(63, (3, 6, 6)), random_tensor(64, (3, 1, 3, 3)), geom)
    assert np.getbufsize() == before
    with np.errstate(all="raise"), pytest.raises(FloatingPointError):
        conv(np.full((3, 6, 6), 1e300), np.full((3, 1, 3, 3), 1e300), geom)
    assert np.getbufsize() == before


@pytest.mark.parametrize(
    "shape,pad,stride,phase",
    [
        ((3, 5, 4), (1, 2), (1, 1), (0, 0)),
        ((3, 5, 4, 2), (0, 1), (1, 1), (0, 0)),
        ((3, 7, 6), (1, 1), (2, 2), (1, 0)),
        ((3, 7, 6), (2, 1), (3, 2), (2, 1)),
        ((3, 1, 2), (2, 2), (3, 3), (0, 0)),
    ],
    ids=["map", "batch", "stride2", "stride3x2", "padding-only"],
)
def test_zero_pad_keeps_one_phase_of_the_padded_map(shape, pad, stride, phase):
    x = random_tensor(57, shape)
    (ph, pw), (sh, sw), (a, b) = pad, stride, phase
    # Axes 1 and 2 are H and W of a C x H x W map and of a C x H x W x B batch.
    want = np.pad(x, ((0, 0), (ph, ph), (pw, pw)) + ((0, 0),) * (x.ndim - 3))[:, a::sh, b::sw]
    got = zero_pad(x, ph, pw, stride, phase)
    assert got.flags.c_contiguous
    np.testing.assert_array_equal(got, want)


def test_zero_pad_on_inner_axes_with_a_larger_extent():
    # Inner axes of a C x H x W x B map, with zeros past the padded map.
    x = random_tensor(58, (3, 7, 6, 2))
    got = zero_pad(x, 1, 2, (2, 3), (1, 2), (6, 5))
    kept = np.pad(x, ((0, 0), (1, 1), (2, 2), (0, 0)))[:, 1::2, 2::3]
    assert kept.shape == (3, 4, 3, 2)
    want = np.zeros((3, 6, 5, 2))
    want[:, :4, :3] = kept
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("shape", [(5, 5), (1, 2, 3, 5, 5)])
def test_conv_rejects_other_ranks(shape):
    with pytest.raises(ShapeError, match=f"got rank {len(shape)}"):
        conv(random_tensor(1, shape), random_tensor(2, (4, 3, 3, 3)))


@pytest.mark.parametrize("geom", GEOMS)
@pytest.mark.parametrize("batch", [1, 2], ids=["map", "batch"])
def test_im2col_and_col2im_are_adjoint(geom, batch):
    # col2im scatters the columns that training's backward uses.
    xp = random_tensor(45, (3, 9, 8, batch))
    k_hw = (3, 2)
    cols = im2col(xp, k_hw, geom.stride, geom.dilation)
    y = random_tensor(46, cols.shape)
    back = col2im(y, xp.shape, k_hw, geom.stride, geom.dilation)
    assert back.shape == xp.shape
    assert abs(np.vdot(cols, y) - np.vdot(xp, back)) <= 1e-12


def test_im2col_rows_hold_each_taps_view():
    xp = random_tensor(49, (3, 7, 6, 2))
    cols = im2col(xp, (2, 3), (2, 1), (1, 2))
    assert cols.shape == (3 * 2 * 3, 3 * 2 * 2) and cols.flags.c_contiguous
    taps = cols.reshape(3, 2, 3, 3, 2, 2)
    for u, v in np.ndindex(2, 3):
        np.testing.assert_array_equal(taps[:, u, v], xp[:, u : u + 5 : 2, 2 * v : 2 * v + 2])
    # Each column holds the batch last: one sample's map gives its own columns.
    one = im2col(xp[..., :1], (2, 3), (2, 1), (1, 2))
    np.testing.assert_array_equal(one, taps[..., 0].reshape(18, 6))


def test_conv_identity_kernel():
    x = random_tensor(7, (3, 5, 5))
    eye = np.zeros((3, 3, 1, 1))
    for ch in range(3):
        eye[ch, ch, 0, 0] = 1.0
    np.testing.assert_array_equal(conv(x, eye), x)


def test_conv_linearity():
    x = random_tensor(1, (3, 6, 6))
    k1 = random_tensor(2, (4, 3, 3, 3))
    k2 = random_tensor(3, (4, 3, 3, 3))
    a, b = 0.7, -2.5
    lhs = conv(x, a * k1 + b * k2, ConvGeometry(padding=1))
    rhs = a * conv(x, k1, ConvGeometry(padding=1)) + b * conv(x, k2, ConvGeometry(padding=1))
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12)


def test_conv_shape_errors():
    x = random_tensor(0, (3, 5, 5))
    with pytest.raises(ShapeError):
        conv(x, random_tensor(1, (4, 2, 3, 3)))  # channel mismatch
    with pytest.raises(ShapeError):
        conv(x, random_tensor(1, (4, 3, 3)))  # rank 3 kernel
    with pytest.raises(ShapeError):
        conv(random_tensor(1, (5, 5)), random_tensor(1, (4, 3, 3, 3)))
    with pytest.raises(ShapeError):
        conv(x, random_tensor(1, (4, 3, 3, 3)), ConvGeometry(groups=2))


def test_conv_geometry_errors():
    x = random_tensor(0, (1, 3, 3))
    with pytest.raises(GeometryError):
        conv(x, random_tensor(1, (1, 1, 5, 5)))  # kernel larger than input
    with pytest.raises(GeometryError):
        conv(x, random_tensor(1, (1, 1, 3, 3)), ConvGeometry(dilation=2))


def test_geometry_validation():
    with pytest.raises(ValueError):
        ConvGeometry(stride=0)
    with pytest.raises(ValueError):
        ConvGeometry(padding=-1)
    with pytest.raises(ValueError):
        ConvGeometry(dilation=0)
    with pytest.raises(ValueError):
        ConvGeometry(groups=0)
    with pytest.raises(ValueError):
        ConvGeometry(stride=(1, 2, 3))
    g = ConvGeometry(stride=2, padding=(0, 1))
    assert g.stride == (2, 2) and g.padding == (0, 1)


@pytest.mark.parametrize("field, value", [
    ("stride", (2.7, 1)), ("stride", 2.0), ("padding", (True, 0)), ("dilation", "2"),
    ("groups", 2.5), ("groups", True),
])
def test_geometry_rejects_non_integers_by_field(field, value):
    # A float is not truncated and a bool is not a count: each raises a
    # ValueError that names its field.
    with pytest.raises(ValueError, match=f"^{field} must be an integer"):
        ConvGeometry(**{field: value})


def test_geometry_takes_numpy_integers():
    g = ConvGeometry(stride=np.int64(2), padding=(np.int32(1), 0), groups=np.int64(3))
    assert g == ConvGeometry(stride=2, padding=(1, 0), groups=3)
    assert type(g.groups) is int and all(type(v) is int for v in g.stride + g.padding)


@pytest.mark.parametrize(
    "size,k,s,p,d,want",
    [
        (5, 3, 1, 0, 1, 3),
        (5, 3, 1, 1, 1, 5),
        (5, 3, 2, 1, 1, 3),
        (7, 3, 2, 0, 2, 2),
        (1, 1, 1, 0, 1, 1),
        (224, 3, 2, 1, 1, 112),
    ],
)
def test_out_extent(size, k, s, p, d, want):
    assert out_extent(size, k, s, p, d) == want


def test_out_extent_rejects_oversized_kernel():
    with pytest.raises(GeometryError):
        out_extent(3, 5, 1, 0, 1)


@pytest.mark.parametrize("geom", GEOMS)
@pytest.mark.parametrize("pool_dims", [(1, 1, 1), (2, 2, 2), (3, 2, 1), (1, 3, 3)])
def test_sum_pool3d_matches_loop_reference(geom, pool_dims):
    x = random_tensor(5, (4, 9, 8))
    np.testing.assert_allclose(
        sum_pool3d(x, pool_dims, geom), pool_loops(x, pool_dims, geom), rtol=0, atol=1e-12
    )


def test_sum_pool3d_equals_all_ones_conv():
    # Each channel offset of the pool is a conv with an all-ones kernel over
    # that channel window.
    x = random_tensor(6, (4, 6, 6))
    geom = ConvGeometry(padding=1)
    pooled = sum_pool3d(x, (3, 2, 2), geom)
    ones = np.ones((1, 3, 2, 2))
    for t in range(pooled.shape[0]):
        np.testing.assert_allclose(
            pooled[t : t + 1], conv(x[t : t + 3], ones, geom), rtol=0, atol=1e-12
        )


def test_sum_pool3d_unit_window_is_identity():
    x = random_tensor(8, (3, 4, 5))
    np.testing.assert_array_equal(sum_pool3d(x, (1, 1, 1)), x)


def test_sum_pool3d_rejects_bad_windows():
    x = random_tensor(9, (3, 4, 4))
    with pytest.raises(ShapeError):
        sum_pool3d(x, (4, 1, 1))  # channel window larger than input
    with pytest.raises(ShapeError):
        sum_pool3d(x, (0, 1, 1))


def test_sum_pool3d_rejects_non_integer_windows():
    # A float window is not truncated and a bool is not a window; a NumPy
    # integer is one.
    x = random_tensor(9, (3, 4, 4))
    for dims in [(2.9, 1, 1), (1, True, 1), (1, 1, "2")]:
        with pytest.raises(ShapeError, match="^pool dim must be an integer"):
            sum_pool3d(x, dims)
    np.testing.assert_array_equal(sum_pool3d(x, (np.int64(2), 1, 1)), sum_pool3d(x, (2, 1, 1)))


@pytest.mark.parametrize("pool_dims", [(1, 2, 2), (3, 2, 1), (5, 3, 3)])
def test_sum_pool3d_batch_equals_stacked_samples(pool_dims):
    # A C x H x W x B batch pools each sample, bit for bit.
    x = random_tensor(11, (6, 7, 7, 4))
    geom = ConvGeometry(stride=(1, 2), padding=1, dilation=(2, 1))
    want = np.stack([sum_pool3d(x[..., i], pool_dims, geom) for i in range(4)], axis=-1)
    np.testing.assert_array_equal(sum_pool3d(x, pool_dims, geom), want)


@pytest.mark.parametrize("shape", [(4, 4), (1, 2, 3, 4, 4)])
def test_sum_pool3d_rejects_other_ranks(shape):
    with pytest.raises(ShapeError, match="rank"):
        sum_pool3d(np.zeros(shape), (1, 1, 1))


def band_loops(L, l):
    # Column i holds the all-ones window of length L-l+1 starting at row i.
    band = np.zeros((L, l))
    for i in range(l):
        for r in range(i, i + L - l + 1):
            band[r, i] = 1.0
    return band


def test_window_spread_of_identity_is_the_band():
    for L in range(1, 9):
        for l in range(1, L + 1):
            np.testing.assert_array_equal(window_spread(np.eye(l), L - l + 1, 0), band_loops(L, l))


@pytest.mark.parametrize("shape,axis", [((9,), 0), ((5, 8, 3), 1), ((4, 3, 7), -1), ((6, 2, 4), 0)])
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_window_pair_is_adjoint(shape, axis, k):
    # <window_sum(x), g> == <x, window_spread(g)>
    if k > shape[axis]:
        return
    x = random_tensor(16, shape)
    g_shape = list(shape)
    g_shape[axis] -= k - 1
    g = random_tensor(17, g_shape)
    lhs = np.sum(window_sum(x, k, axis) * g)
    rhs = np.sum(x * window_spread(g, k, axis))
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def _index(ndim, axis, i):
    # The index tuple selecting entry i along axis.
    idx = [slice(None)] * ndim
    idx[axis] = i
    return tuple(idx)


# Windows of up to 4 entries take the slice-add path, longer ones the running
# sums, so k = 1..7 crosses the cutoff on both sides.
@pytest.mark.parametrize("dilation", [1, 2, 3])
@pytest.mark.parametrize("stride", [1, 2, 3])
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 7])
def test_window_sum_matches_loop_reference(k, stride, dilation):
    cases = [((20, 3, 2), 0), ((3, 20, 2), 1), ((3, 2, 20), -1), ((2, 3, 20, 4), 2)]
    for shape, axis in cases:
        x = random_tensor(18, shape)
        m = (20 - dilation * (k - 1) - 1) // stride + 1
        want_shape = list(shape)
        want_shape[axis] = m
        want = np.zeros(want_shape)
        for i in range(m):
            for j in range(k):
                want[_index(x.ndim, axis, i)] += x[_index(x.ndim, axis, i * stride + j * dilation)]
        got = window_sum(x, k, axis, stride, dilation)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 7])
@pytest.mark.parametrize("axis", [1, -1])
def test_window_spread_matches_loop_reference(k, axis):
    # The transposed input makes the moved axis a non-contiguous view.
    x = np.array(random_tensor(20, (4, 6, 3))).transpose(2, 1, 0)
    l = x.shape[axis]
    want_shape = list(x.shape)
    want_shape[axis] = l + k - 1
    want = np.zeros(want_shape)
    for r in range(l):
        for j in range(k):
            want[_index(x.ndim, axis, r + j)] += x[_index(x.ndim, axis, r)]
    got = window_spread(x, k, axis)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    # A C-ordered input gives a C-ordered result, which later reshapes of a
    # reconstructed kernel stack take without a copy.
    assert window_spread(np.ascontiguousarray(x), k, axis).flags.c_contiguous


def _memory_order(a, shape):
    # a's axes from the largest stride to the smallest, leaving out the axes
    # of extent 1 in shape, whose strides say nothing about the layout.
    order = np.argsort(a.strides, kind="stable")[::-1]
    return [int(ax) for ax in order if shape[ax] > 1]


def _laid_out(layout):
    # A (6, 7, 8) input that is C-ordered, F-ordered or a strided view.
    if layout == "C":
        return np.array(random_tensor(54, (6, 7, 8)))
    if layout == "F":
        return np.asfortranarray(random_tensor(54, (6, 7, 8)))
    return np.array(random_tensor(54, (7, 16, 6))).transpose(2, 0, 1)[:, :, ::2]


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("layout", ["C", "F", "strided"])
def test_window_pair_matches_moveaxis_reference(layout, k):
    # Along axis 0 both functions run as they did when every axis was moved
    # there first; along any other axis they must give the same bits, laid
    # out the same way in memory, and for k > 1 a result apart from x.
    x = _laid_out(layout)
    assert x.flags.c_contiguous == (layout == "C") and x.flags.f_contiguous == (layout == "F")
    calls = {
        "sum": lambda a, ax: window_sum(a, k, ax),
        "spread": lambda a, ax: window_spread(a, k, ax),
        "sum-stride2": lambda a, ax: window_sum(a, k, ax, stride=2),
    }
    for axis in (0, 1, 2, -1, -2, -3):
        for name, call in calls.items():
            got = call(x, axis)
            want = np.moveaxis(call(np.moveaxis(x, axis, 0), 0), 0, axis)
            assert got.shape == want.shape
            np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
            assert got.strides == want.strides
            if k > 1:
                assert not np.shares_memory(got, x)
                if name != "sum-stride2":
                    assert _memory_order(got, got.shape) == _memory_order(x, got.shape)


@pytest.mark.parametrize(
    "call,error,match",
    [
        (lambda x: window_sum(x, 0, 0), ShapeError, "k=0"),
        (lambda x: window_sum(x, -2, 0), ShapeError, "k=-2"),
        (lambda x: window_sum(x, 4, 0), ShapeError, "k=4"),
        (lambda x: window_sum(x, 5, 0), ShapeError, "k=5"),
        (lambda x: window_sum(x, 2, 0, dilation=3), ShapeError, "k=2"),
        (lambda x: window_sum(x, 2, 0, stride=0), GeometryError, "stride=0"),
        (lambda x: window_sum(x, 2, 0, dilation=0), GeometryError, "dilation=0"),
        (lambda x: window_spread(x, 0, 0), ShapeError, "k=0"),
        (lambda x: window_spread(x, -1, 0), ShapeError, "k=-1"),
    ],
    ids=[
        "sum-k0", "sum-k-2", "sum-k-one-too-long", "sum-k-too-long",
        "sum-dilated-too-long", "sum-stride0", "sum-dilation0", "spread-k0", "spread-k-1",
    ],
)
def test_window_pair_rejects_bad_windows(call, error, match):
    with pytest.raises(error, match=match):
        call(np.ones(3))


@pytest.mark.parametrize("k", [2, 961])
def test_window_sum_running_sums_stay_accurate_at_fixture_scale(k):
    # The widest channel axis in the fixtures has 1920 channels. Large, nearly
    # equal inputs are the worst case for cancellation between running sums.
    x = 1e4 + (np.array(random_tensor(19, (1920, 3))) + 1.0) / 2.0
    want = np.lib.stride_tricks.sliding_window_view(x, k, axis=0).sum(axis=-1)
    got = window_sum(x, k, 0)
    assert np.max(np.abs(got - want) / want) <= 1e-12


def cumsum_window_reference(x, k, axis, dilation=1):
    # window_sum's running-sum path with one np.cumsum per residue class of
    # the dilation, whatever the row layout or length.
    x = np.moveaxis(np.asarray(x), axis, 0)
    d = dilation
    sums = np.zeros((len(x) + d,) + x.shape[1:])
    for r in range(d):
        sums[d + r :: d] = np.cumsum(x[r::d], axis=0)
    return np.moveaxis(sums[d * k :] - sums[: len(x) - d * (k - 1)], 0, axis)


@pytest.mark.parametrize(
    "shape,perm,k,axis,dilation,plane_by_plane",
    [
        ((144, 56, 56), None, 73, 0, 1, True),
        ((40, _PLANE_SUM_MIN_SIZE - 1), None, 9, 0, 1, False),
        ((40, _PLANE_SUM_MIN_SIZE), None, 9, 0, 1, True),
        ((60, 24, 24), None, 7, 0, 2, False),
        ((4, 40, 16, 16), None, 13, -3, 1, False),
        # A (B, C, H, W) view of channel-major memory, as an einsum may return.
        ((40, 4, 16, 16), (1, 0, 2, 3), 13, -3, 1, True),
    ],
    ids=[
        "long-rows", "just-below-cutoff", "at-cutoff", "dilation2", "batched",
        "batched-channel-major",
    ],
)
def test_window_sum_running_sum_paths_are_bit_identical_to_cumsum(
    shape, perm, k, axis, dilation, plane_by_plane, monkeypatch
):
    x = random_tensor(43, shape)
    if perm is not None:
        x = x.transpose(perm)
    want = cumsum_window_reference(x, k, axis, dilation)
    calls = []
    cumsum = np.cumsum
    monkeypatch.setattr(tensor.np, "cumsum", lambda *a, **kw: calls.append(1) or cumsum(*a, **kw))
    got = window_sum(x, k, axis, dilation=dilation)
    np.testing.assert_array_equal(got, want)
    assert (not calls) == plane_by_plane


def test_linear_identity_and_hand_values():
    x = random_tensor(10, (3,))
    np.testing.assert_array_equal(linear(np.eye(3), x), x)
    np.testing.assert_array_equal(linear([[1, 2], [3, 4]], [1, 1]), [3.0, 7.0])


def test_linear_matches_pointwise_conv():
    w = random_tensor(11, (8, 16))
    x = random_tensor(12, (16,))
    via_conv = conv(x[:, None, None], w[:, :, None, None])[:, 0, 0]
    np.testing.assert_allclose(linear(w, x), via_conv, rtol=1e-12)


def test_linear_shape_errors():
    with pytest.raises(ShapeError):
        linear(random_tensor(1, (3, 4)), random_tensor(2, (5,)))
    with pytest.raises(ShapeError):
        linear(random_tensor(1, (3, 4)), random_tensor(2, (4, 1)))


def splitmix_reference(seed, count):
    # Big-int reimplementation straight from the documented recipe; shares no
    # code with the library.
    mask = (1 << 64) - 1
    out = []
    for i in range(1, count + 1):
        v = ((seed & mask) + i * 0x9E3779B97F4A7C15) & mask
        v = ((v ^ (v >> 30)) * 0xBF58476D1CE4E5B9) & mask
        v = ((v ^ (v >> 27)) * 0x94D049BB133111EB) & mask
        v ^= v >> 31
        out.append(2.0 * ((v >> 11) * 2.0**-53) - 1.0)
    return out


# Frozen from splitmix_reference(0, 4) so any drift in either implementation
# trips the suite.
SEED0_2X2 = [
    float.fromhex("0x1.8882a0e5ec772p-1"),
    float.fromhex("-0x1.18761955e46a0p-3"),
    float.fromhex("-0x1.e4ee8b9dffdb0p-1"),
    float.fromhex("0x1.e22ee2a1c9320p-1"),
]


def test_random_tensor_frozen_sequence():
    got = random_tensor(0, (2, 2)).reshape(-1)
    assert list(got) == SEED0_2X2
    assert splitmix_reference(0, 4) == SEED0_2X2


@pytest.mark.parametrize("seed", [0, 1, 7, 2**63, -5])
def test_random_tensor_matches_reference(seed):
    got = random_tensor(seed, (3, 5)).reshape(-1)
    assert list(got) == splitmix_reference(seed, 15)


def test_random_tensor_deterministic_and_distinct():
    a = random_tensor(42, (4, 4))
    b = random_tensor(42, (4, 4))
    c = random_tensor(43, (4, 4))
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_random_tensor_range_and_immutability():
    x = random_tensor(5, (1000,))
    assert np.all(x >= -1.0) and np.all(x < 1.0)
    assert not x.flags.writeable
    with pytest.raises(ValueError):
        x[0] = 0.0


def test_random_tensor_rejects_bad_shapes():
    with pytest.raises(ShapeError):
        random_tensor(0, ())
    with pytest.raises(ShapeError):
        random_tensor(0, (3, 0))


def test_random_tensor_rejects_non_integer_extents():
    # A float extent is not truncated and a bool is not an extent; NumPy
    # integers draw the same bits as ints.
    for shape in [(2.7,), (2, True), (2.0, 3)]:
        with pytest.raises(ShapeError, match="^extent must be an integer"):
            random_tensor(0, shape)
    np.testing.assert_array_equal(
        random_tensor(0, (np.int64(2), np.int32(3))), random_tensor(0, (2, 3))
    )


@pytest.mark.parametrize("shape", [(2**32 + 1, 2**32), (2**40 + 1,)])
def test_random_tensor_refuses_too_many_entries_before_allocating(shape):
    # np.prod((2**32 + 1, 2**32)) wraps to 2**32 in int64, so a count taken
    # with it would start a 34 GB draw; the exact count is over 2**40.
    tracemalloc.start()
    try:
        with pytest.raises(ShapeError):
            random_tensor(0, shape)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


@pytest.mark.parametrize("seed", [0, 7, 2**63 + 5, 2**64 - 1, -3])
def test_random_tensor_blocks_keep_the_one_pass_bits(seed):
    n = 3 * _DRAW_BLOCK + 7  # three full blocks and a short one
    got = random_tensor(seed, (n,))
    assert got.tobytes() == one_pass_random_tensor(seed, (n,)).tobytes()
    want = splitmix_reference(seed, n)
    for i in (_DRAW_BLOCK - 1, _DRAW_BLOCK, _DRAW_BLOCK + 1, n - 1):
        assert got[i] == want[i]


def test_random_tensor_traced_peak_is_its_output_plus_two_blocks():
    # The one-pass draw held about five full-size uint64 temporaries and
    # peaked at 48.2 MB for this 9.6 MB draw.
    random_tensor(5, (4,))
    tracemalloc.start()
    try:
        out = random_tensor(5, (96, 112, 112))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= out.nbytes + 1e6


@pytest.mark.parametrize("shape", [(1,), (2, 3), (2, 3, 4), (1, 1, 1, 1, 5)])
def test_container_round_trip_bit_exact(tmp_path, shape):
    x = random_tensor(sum(shape), shape)
    p = tmp_path / "t.stcv"
    write_tensor(p, x)
    back = read_tensor(p)
    assert back.shape == x.shape
    assert back.tobytes() == x.tobytes()
    assert not back.flags.writeable


def test_container_special_values_survive(tmp_path):
    x = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 2.0**-1074])
    p = tmp_path / "t.stcv"
    write_tensor(p, x)
    assert read_tensor(p).tobytes() == x.tobytes()


def test_container_header_layout(tmp_path):
    p = tmp_path / "t.stcv"
    write_tensor(p, np.arange(6, dtype=np.float64).reshape(2, 3))
    raw = p.read_bytes()
    assert raw[:4] == b"STCV"
    assert raw[4:16] == bytes.fromhex("01000000 02000000 02000000".replace(" ", ""))
    assert raw[16:20] == (3).to_bytes(4, "little")
    assert len(raw) == 20 + 8 * 6


def test_container_bad_magic(tmp_path):
    p = tmp_path / "t.stcv"
    p.write_bytes(b"NOPE" + bytes(16))
    with pytest.raises(ContainerError, match="magic"):
        read_tensor(p)


def test_container_truncated_payload(tmp_path):
    p = tmp_path / "t.stcv"
    write_tensor(p, np.zeros((2, 3)))
    raw = p.read_bytes()
    p.write_bytes(raw[: 20 + 8 * 5])  # five of six values
    with pytest.raises(ContainerError, match="truncated payload"):
        read_tensor(p)


def test_container_trailing_bytes(tmp_path):
    p = tmp_path / "t.stcv"
    write_tensor(p, np.zeros((2,)))
    p.write_bytes(p.read_bytes() + b"\x00")
    with pytest.raises(ContainerError, match="trailing"):
        read_tensor(p)


@pytest.mark.parametrize(
    "header,message",
    [(b"NOPE", "magic"), (b"STCV" + (1).to_bytes(4, "little") * 3, "trailing")],
    ids=["bad-magic", "one-element-header"],
)
def test_container_rejected_before_the_payload_is_read(tmp_path, header, message):
    # A 64 MB sparse file whose header alone condemns it.
    p = tmp_path / "big.stcv"
    with open(p, "wb") as f:
        f.write(header)
        f.truncate(64 << 20)
    tracemalloc.start()
    try:
        with pytest.raises(ContainerError, match=message):
            read_tensor(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


def test_container_bad_rank_and_version(tmp_path):
    p = tmp_path / "t.stcv"
    p.write_bytes(b"STCV" + struct_pack_u32(1, 0))
    with pytest.raises(ContainerError, match="rank"):
        read_tensor(p)
    p.write_bytes(b"STCV" + struct_pack_u32(1, 33) + bytes(4 * 33))
    with pytest.raises(ContainerError, match="rank"):
        read_tensor(p)
    p.write_bytes(b"STCV" + struct_pack_u32(2, 1) + struct_pack_u32(1) + bytes(8))
    with pytest.raises(ContainerError, match="version"):
        read_tensor(p)


def test_container_extent_overflow(tmp_path):
    p = tmp_path / "t.stcv"
    p.write_bytes(b"STCV" + struct_pack_u32(1, 3) + struct_pack_u32(2**20, 2**20, 2**20))
    with pytest.raises(ContainerError, match="overflow"):
        read_tensor(p)


def test_write_takes_no_copy_of_the_payload(tmp_path):
    # 1,000,000 float64 entries: 8 MB that a bytes copy of the array would
    # allocate. The file holds the same bytes as that copy.
    x = np.array(random_tensor(5, (1000, 1000)))
    p = tmp_path / "t.stcv"
    tracemalloc.start()
    try:
        write_tensor(p, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert p.read_bytes()[-x.nbytes :] == x.tobytes()
    np.testing.assert_array_equal(read_tensor(p), x)


def test_write_rejects_unsupported_rank(tmp_path):
    with pytest.raises(ShapeError):
        write_tensor(tmp_path / "t.stcv", np.zeros((1,) * 33))


def struct_pack_u32(*values):
    return b"".join(int(v).to_bytes(4, "little") for v in values)


@settings(max_examples=50, deadline=None)
@given(
    c_in=st.integers(1, 3),
    c_out=st.integers(1, 3),
    k=st.integers(1, 3),
    h=st.integers(3, 7),
    w=st.integers(3, 7),
    stride=st.integers(1, 2),
    pad=st.integers(0, 2),
    dil=st.integers(1, 2),
    seed=st.integers(0, 2**32),
)
def test_conv_property_matches_loops(c_in, c_out, k, h, w, stride, pad, dil, seed):
    if h + 2 * pad < dil * (k - 1) + 1 or w + 2 * pad < dil * (k - 1) + 1:
        return
    geom = ConvGeometry(stride=stride, padding=pad, dilation=dil)
    x = random_tensor(seed, (c_in, h, w))
    kernel = random_tensor(seed + 1, (c_out, c_in, k, k))
    np.testing.assert_allclose(
        conv(x, kernel, geom), conv_loops(x, kernel, geom), rtol=0, atol=1e-12
    )


@settings(max_examples=50, deadline=None)
@given(
    c_in=st.integers(1, 4),
    kc=st.integers(1, 4),
    kh=st.integers(1, 3),
    h=st.integers(3, 7),
    pad=st.integers(0, 1),
    seed=st.integers(0, 2**32),
)
def test_pool_property_matches_loops(c_in, kc, kh, h, pad, seed):
    if kc > c_in or h + 2 * pad < kh:
        return
    geom = ConvGeometry(padding=pad)
    x = random_tensor(seed, (c_in, h, h))
    np.testing.assert_allclose(
        sum_pool3d(x, (kc, kh, kh), geom),
        pool_loops(x, (kc, kh, kh), geom),
        rtol=0,
        atol=1e-12,
    )


@settings(max_examples=30, deadline=None)
@given(
    shape=st.lists(st.integers(1, 5), min_size=1, max_size=4),
    seed=st.integers(0, 2**32),
)
def test_container_round_trip_property(tmp_path_factory, shape, seed):
    p = tmp_path_factory.mktemp("rt") / "t.stcv"
    x = random_tensor(seed, shape)
    write_tensor(p, x)
    assert read_tensor(p).tobytes() == x.tobytes()


def valid_container(tmp_path, shape, seed):
    p = tmp_path / "valid.stcv"
    write_tensor(p, random_tensor(seed, shape))
    return p.read_bytes()


def read_or_container_error(path, raw):
    path.write_bytes(raw)
    try:
        read_tensor(path)
    except ContainerError:
        pass


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    raw=st.binary(max_size=64),
    header=st.one_of(
        st.just(b""),
        st.tuples(st.sampled_from([1, 2, 2**32 - 1]), st.integers(0, 40)).map(
            lambda vr: b"STCV" + struct_pack_u32(*vr)
        ),
    ),
)
def test_read_tensor_fuzz_arbitrary_bytes(tmp_path, header, raw):
    read_or_container_error(tmp_path / "fuzz.stcv", header + raw)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    shape=st.lists(st.integers(1, 4), min_size=1, max_size=3),
    cut=st.integers(0, 200),
    flips=st.lists(st.tuples(st.integers(0, 200), st.integers(0, 7)), max_size=3),
)
def test_read_tensor_fuzz_damaged_containers(tmp_path, shape, cut, flips):
    raw = bytearray(valid_container(tmp_path, shape, 20))
    for pos, bit in flips:
        raw[pos % len(raw)] ^= 1 << bit
    read_or_container_error(tmp_path / "fuzz.stcv", bytes(raw[: len(raw) - cut % len(raw)]))
