import dataclasses
import hashlib
import json
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import structconv
from structconv.analyzer import parse_network_spec
from structconv.composite import CompositeKernel, check_linear_independence, compose_kernel
from structconv.structured import (
    ConfigError,
    DecomposedLayer,
    ResidualError,
    SidecarError,
    StructuredConfig,
    StructureMatrix,
    block_alphas,
    decompose,
    decomposed_layer,
    forward_decomposed,
    load_decomposed_layer,
    project,
    reconstruct,
    save_decomposed_layer,
    worst_kernel_residual,
)
from structconv import structured
from structconv.structured import (
    _projection,
    _row_squares,
    _worst_block_residual,
)
from structconv.tensor import ConvGeometry, GeometryError, ShapeError, conv, linear, random_tensor, write_tensor
from references import (
    dense_projector,
    fixture_path,
    loop_structure_matrix,
    rel_err,
    structured_basis,
    svd_pinv,
)


# The three dense forms, each from the library operator that replaces it: A
# from the cuboid basis (reconstruct of an identity), pinv(A) from the
# coefficients of an identity, and P from the row projection of an identity.
def basis_matrix(cfg):
    return structured_basis(cfg).elements.reshape(cfg.basis_size, -1).T


def pinv_of(cfg):
    return block_alphas(np.eye(cfg.C * cfg.N**2), cfg).T


def projector_of(cfg):
    return StructureMatrix(cfg).project_rows(np.eye(cfg.C * cfg.N**2)).T


# Flat (C-order) one-positions of each column of A for cfg (1,3,1,2): the
# 2x2 patch at offset (j,k) covers these four cells of the 3x3 grid.
A_132_COLUMNS = [(0, 1, 3, 4), (1, 2, 4, 5), (3, 4, 6, 7), (4, 5, 7, 8)]


def test_structure_matrix_1312_literal():
    cfg = StructuredConfig(C=1, N=3, c=1, n=2)
    want = np.zeros((9, 4))
    for col, rows in enumerate(A_132_COLUMNS):
        for r in rows:
            want[r, col] = 1.0
    np.testing.assert_array_equal(basis_matrix(cfg), want)
    np.testing.assert_allclose(pinv_of(cfg) @ want, np.eye(4), atol=1e-10)


def test_pinv_matches_manual_svd():
    for cfg in (StructuredConfig(1, 3, 1, 2), StructuredConfig(4, 3, 2, 2)):
        want = svd_pinv(loop_structure_matrix(cfg))
        np.testing.assert_allclose(pinv_of(cfg), want, atol=1e-12)


def test_structure_matrix_4322_column_sums():
    A = basis_matrix(StructuredConfig(C=4, N=3, c=2, n=2))
    assert A.shape == (36, 8)
    np.testing.assert_array_equal(A.sum(axis=0), np.full(8, 12.0))


def test_identity_config_gives_identity_matrix():
    cfg = StructuredConfig(C=2, N=3, c=2, n=3)
    np.testing.assert_array_equal(basis_matrix(cfg), np.eye(18))
    np.testing.assert_allclose(projector_of(cfg), np.eye(18), atol=1e-12)


@pytest.mark.parametrize(
    "cfg",
    [
        StructuredConfig(1, 3, 1, 2),
        StructuredConfig(4, 3, 2, 2),
        StructuredConfig(3, 5, 1, 5),
        StructuredConfig(8, 1, 3, 1),
        StructuredConfig(5, 4, 5, 2),
    ],
)
def test_projector_algebra(cfg):
    p = projector_of(cfg)
    np.testing.assert_allclose(pinv_of(cfg) @ basis_matrix(cfg), np.eye(cfg.basis_size), atol=1e-10)
    np.testing.assert_allclose(p, p.T, atol=1e-10)
    np.testing.assert_allclose(p @ p, p, atol=1e-10)


def test_kronecker_structure_matrix_matches_loop_reference():
    # Every config with C <= 8 and N <= 5, which includes each band's edge
    # cases: window 1 (c = C or n = N, the identity) and window L (c = 1 or
    # n = 1, one coefficient per axis, so c = n = 1 projects onto the mean).
    for C in range(1, 9):
        for N in range(1, 6):
            for c in range(1, C + 1):
                for n in range(1, N + 1):
                    cfg = StructuredConfig(C, N, c, n)
                    want = loop_structure_matrix(cfg)
                    np.testing.assert_array_equal(basis_matrix(cfg), want)
                    pinv = np.linalg.pinv(want)
                    proj = want @ pinv
                    np.testing.assert_allclose(pinv_of(cfg), pinv, rtol=0, atol=1e-12)
                    np.testing.assert_allclose(projector_of(cfg), proj, rtol=0, atol=1e-12)
                    # The matrix-free operators on random rows, one of them zero.
                    flat = np.array(random_tensor(C * 100 + N * 10 + c + n, (3, C * N * N)))
                    flat[1] = 0.0
                    np.testing.assert_allclose(
                        block_alphas(flat, cfg), flat @ pinv.T, rtol=0, atol=1e-12
                    )
                    res = [
                        np.linalg.norm(v - proj @ v) / np.linalg.norm(v) if v.any() else 0.0
                        for v in flat
                    ]
                    for v, r in zip(flat, res):
                        assert abs(_worst_block_residual(v[np.newaxis], cfg)[1] - r) <= 1e-12
                        w_hat, got = project(v.reshape(C, N, N), cfg)
                        np.testing.assert_allclose(w_hat.reshape(-1), proj @ v, rtol=0, atol=1e-12)
                        assert abs(got - r) <= 1e-12
                        if cfg.basis_size == 1:
                            mean = np.full_like(w_hat, v.mean())
                            np.testing.assert_allclose(w_hat, mean, rtol=0, atol=1e-12)
                        if (c, n) == (C, N):
                            np.testing.assert_array_equal(w_hat.reshape(-1), v)
                    idx, worst, alphas = _worst_block_residual(flat, cfg)
                    np.testing.assert_allclose(alphas, flat @ pinv.T, rtol=0, atol=1e-12)
                    if max(res) > 0.0:
                        assert idx == int(np.argmax(res)) and abs(worst - max(res)) <= 1e-12
                    else:
                        assert (idx, worst) == (-1, 0.0)


def test_band_pinv_at_fixture_scale():
    # struct_effnet's largest band, 1920 x 960, against the SVD pseudoinverse.
    cfg = StructuredConfig(C=1920, N=1, c=960, n=1)
    A = loop_structure_matrix(cfg)
    want = np.linalg.pinv(A)
    pinv = pinv_of(cfg)
    assert np.abs(pinv - want).max() <= 1e-10 * np.abs(want).max()
    np.testing.assert_allclose(pinv @ A, np.eye(cfg.basis_size), rtol=0, atol=1e-10)
    alphas = np.array(random_tensor(29, (8, cfg.c, 1, 1)))
    dense = reconstruct(alphas, cfg)
    got = reconstruct(block_alphas(dense.reshape(8, -1), cfg).reshape(alphas.shape), cfg)
    assert rel_err(got, dense) <= 1e-10


def test_matrix_free_operators_at_fixture_scale():
    # Exactly structured kernels give back their coefficients and a residual
    # at rounding level: struct_effnet's largest band, 1920 x 960, and every
    # layer of struct_effnet.
    cfg = StructuredConfig(C=1920, N=1, c=960, n=1)
    alphas = np.array(random_tensor(30, (8, cfg.c, 1, 1)))
    dense = reconstruct(alphas, cfg)
    got = block_alphas(dense.reshape(8, -1), cfg).reshape(alphas.shape)
    assert np.abs(got - alphas).max() <= 1e-12 * np.abs(alphas).max()
    effnet = fixture_path("struct_effnet.json")
    for spec in parse_network_spec(effnet):
        cfg = spec.cfg
        w = reconstruct(random_tensor(spec.index, (spec.cout, cfg.c, cfg.n, cfg.n)), cfg)
        assert worst_kernel_residual(w, cfg) <= 1e-14, spec.index


def test_decompose_builds_no_dense_structure_matrix(monkeypatch):
    # struct_effnet's (320, 1920, 1, 1) pwconv: 4.9 MB of weights, against the
    # 29.5 MB its projector's one factor would take. decompose reads neither
    # factor.
    cfg = StructuredConfig(C=1920, N=1, c=960, n=1)
    w = reconstruct(random_tensor(31, (320, cfg.c, 1, 1)), cfg)
    forms = ("channel_projector", "spatial_projector")
    built = []
    with monkeypatch.context() as m:
        for name in forms:
            m.setattr(StructureMatrix, name, property(lambda sm, name=name: built.append(name)))
        tracemalloc.start()
        try:
            layer, _ = decompose(w, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak <= 2 * w.nbytes
    assert built == []  # no factor evaluated
    assert rel_err(reconstruct(layer.alpha, cfg), w) <= 1e-12
    sm = StructureMatrix(StructuredConfig(4, 3, 2, 2))
    for name in forms:  # each built on first use, once, read-only
        assert name not in vars(sm)
        assert getattr(sm, name) is getattr(sm, name)
        assert isinstance(vars(sm)[name], np.ndarray) and not vars(sm)[name].flags.writeable


def test_structure_matrix_holds_no_dense_form():
    # Only the config is stored, so building one for struct_effnet's widest
    # band, whose one factor would take 29.5 MB, allocates next to nothing.
    cfg = StructuredConfig(1920, 1, 960, 1)
    tracemalloc.start()
    try:
        sm = StructureMatrix(cfg)
        size = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert size < 64 * 1024
    for name in ("A", "pinv", "projector"):
        assert not hasattr(sm, name)
    assert vars(sm) == {"cfg": cfg}


def _toy_and_mv2b_single_factor_configs():
    # The toy student's dwconv and linear configs and mv2_b's pwconv configs:
    # each has one band, so its one factor is the whole projector.
    from structconv.cli import default_toy_model_spec
    from structconv.training import ToyModel

    toy = [l.cfg for l in ToyModel(default_toy_model_spec(), seed=0).structured_layers]
    toy = [cfg for cfg in toy if cfg.C == 1 or cfg.N == 1]
    mv2_b = fixture_path("struct_mv2_b.json")
    pw = [spec.cfg for spec in parse_network_spec(mv2_b) if spec.kind == "pwconv"]
    return sorted(set(toy + pw), key=lambda cfg: (cfg.C, cfg.N, cfg.c, cfg.n))


def test_single_factor_row_projection_is_the_dense_projection_bit_for_bit():
    # With C = 1 or N = 1 the row projection is one GEMM with the sweep's
    # projection of an identity, the dense projector's construction.
    cfgs = _toy_and_mv2b_single_factor_configs()
    assert {cfg.C == 1 for cfg in cfgs} == {True, False}
    for i, cfg in enumerate(cfgs):
        d = cfg.C * cfg.N**2
        flat = np.array(random_tensor(40 + i, (5, d)))
        want = flat @ _worst_block_residual(np.eye(d), cfg, keep="P")[2]
        np.testing.assert_array_equal(StructureMatrix(cfg).project_rows(flat), want, str(cfg))


def test_row_projection_is_a_new_array():
    # Also for the identity config, which has no factor and copies.
    for cfg in (StructuredConfig(2, 3, 2, 3), StructuredConfig(4, 3, 2, 2)):
        flat = np.array(random_tensor(41, (3, cfg.C * cfg.N**2)))
        got = StructureMatrix(cfg).project_rows(flat)
        assert got.shape == flat.shape and not np.may_share_memory(got, flat)
        np.testing.assert_allclose(got, flat @ dense_projector(cfg).T, rtol=0, atol=1e-12)


def test_structure_matrix_is_cached():
    # The benchmark's cached lookup name, read the way the per-kind names are.
    cached = getattr(structured, "_".join(("structure", "matrix")))
    cfg = StructuredConfig(4, 3, 2, 2)
    sm = cached(cfg)
    assert type(sm) is StructureMatrix and sm.cfg == cfg
    assert cached(StructuredConfig(4, 3, 2, 2)) is sm
    cached.cache_clear()
    assert cached.cache_info().currsize == 0


def test_basis_full_rank_sweep():
    # Every generated basis must be linearly independent. Exact integer rank
    # for small configs, floating rank for the rest of the C,N <= 8 grid.
    for C in range(1, 9):
        for N in range(1, 9):
            for c in range(1, C + 1):
                for n in range(1, N + 1):
                    cfg = StructuredConfig(C, N, c, n)
                    basis = structured_basis(cfg)
                    flat = basis.elements.reshape(basis.size, -1)
                    assert np.linalg.matrix_rank(flat) == cfg.basis_size, cfg
                    if C <= 4 and N <= 4:
                        assert check_linear_independence(basis) == cfg.basis_size


def test_generate_basis_1312_patches():
    basis = structured_basis(StructuredConfig(1, 3, 1, 2))
    assert basis.size == 4
    for m, rows in enumerate(A_132_COLUMNS):
        np.testing.assert_array_equal(
            basis.elements[m].reshape(-1), np.isin(np.arange(9), rows).astype(float)
        )


def test_generate_basis_identity_config_is_one_hot():
    basis = structured_basis(StructuredConfig(2, 2, 2, 2))
    np.testing.assert_array_equal(basis.elements.reshape(8, 8), np.eye(8))


def test_config_validation():
    with pytest.raises(ConfigError):
        StructuredConfig(C=2, N=3, c=3, n=2)
    with pytest.raises(ConfigError):
        StructuredConfig(C=2, N=3, c=0, n=2)
    with pytest.raises(ConfigError):
        StructuredConfig(C=2, N=3, c=1, n=4)
    with pytest.raises(ConfigError):
        StructuredConfig(C=0, N=3, c=1, n=1)


def test_config_takes_numpy_integers_as_ints(tmp_path):
    # NumPy integers are stored as ints, so a layer built on them still
    # writes its sidecar JSON; floats, bools and strings raise.
    cfg = StructuredConfig(np.int64(3), 3, np.int32(1), np.int64(1))
    assert cfg == StructuredConfig(3, 3, 1, 1)
    assert all(type(v) is int for v in dataclasses.astuple(cfg))
    layer, _ = decompose(reconstruct(random_tensor(2, (2, 1, 1, 1)), cfg), cfg)
    save_decomposed_layer(tmp_path, "layer", layer)
    assert load_decomposed_layer(tmp_path / "layer.json").cfg == cfg
    for bad in (3.0, True, "3"):
        with pytest.raises(ConfigError, match="^C must be an integer"):
            StructuredConfig(bad, 3, 1, 1)


def test_config_derived_quantities():
    cfg = StructuredConfig(C=4, N=3, c=2, n=2)
    assert cfg.basis_size == 8
    assert cfg.pool_dims == (3, 2, 2)
    assert cfg.compression_ratio == 36 // 8 or float(cfg.compression_ratio) == 4.5
    from fractions import Fraction

    assert cfg.compression_ratio == Fraction(36, 8)


def test_project_structured_input_is_fixed_point():
    cfg = StructuredConfig(4, 3, 2, 2)
    basis = structured_basis(cfg)
    alpha = random_tensor(1, (8,))
    w = compose_kernel(CompositeKernel(basis, alpha))
    w_hat, residual = project(w, cfg)
    assert residual <= 1e-12
    np.testing.assert_allclose(w_hat, w, atol=1e-12)


def test_project_corner_one_hot_matches_dense_projector():
    cfg = StructuredConfig(1, 3, 1, 2)
    w = np.zeros((1, 3, 3))
    w[0, 0, 0] = 1.0
    w_hat, residual = project(w, cfg)
    dense = (np.eye(9) - dense_projector(cfg)) @ w.reshape(-1)
    assert residual == pytest.approx(np.linalg.norm(dense), abs=1e-12)
    np.testing.assert_allclose(w_hat.reshape(-1), w.reshape(-1) - dense, atol=1e-12)


def test_project_is_idempotent_and_lands_in_subspace():
    cfg = StructuredConfig(3, 3, 2, 2)
    w = random_tensor(2, (3, 3, 3))
    w_hat, _ = project(w, cfg)
    w_hat2, residual2 = project(w_hat, cfg)
    assert residual2 <= 1e-10
    np.testing.assert_allclose(w_hat2, w_hat, atol=1e-12)


def test_project_zero_kernel():
    w_hat, residual = project(np.zeros((1, 3, 3)), StructuredConfig(1, 3, 1, 2))
    assert residual == 0.0
    np.testing.assert_array_equal(w_hat, np.zeros((1, 3, 3)))


def test_extract_alpha_recovers_coefficients():
    cfg = StructuredConfig(4, 3, 2, 2)
    alpha0 = random_tensor(3, (2, 2, 2))
    w = reconstruct(alpha0, cfg)
    np.testing.assert_allclose(
        block_alphas(w.reshape(1, -1), cfg).reshape(alpha0.shape), alpha0, atol=1e-10
    )


def test_extract_alpha_identity_config():
    cfg = StructuredConfig(2, 3, 2, 3)
    w = random_tensor(4, (2, 3, 3))
    np.testing.assert_allclose(
        block_alphas(w.reshape(1, -1), cfg).reshape(w.shape), w, atol=1e-12
    )


def test_extract_alpha_unstructured_matches_normal_equations():
    cfg = StructuredConfig(3, 3, 2, 2)
    w = random_tensor(5, (3, 3, 3))
    A = loop_structure_matrix(cfg)
    want = np.linalg.solve(A.T @ A, A.T @ w.reshape(-1))
    np.testing.assert_allclose(block_alphas(w.reshape(1, -1), cfg)[0], want, atol=1e-10)


def test_reconstruct_single_coefficient_is_first_cuboid():
    cfg = StructuredConfig(4, 3, 2, 2)
    alpha = np.zeros((2, 2, 2))
    alpha[0, 0, 0] = 1.0
    basis = structured_basis(cfg)
    np.testing.assert_array_equal(reconstruct(alpha, cfg), basis.elements[0])


def test_reconstruct_all_ones_overlap_counts():
    got = reconstruct(np.ones((1, 2, 2)), StructuredConfig(1, 3, 1, 2))
    np.testing.assert_array_equal(got, [[[1, 2, 1], [2, 4, 2], [1, 2, 1]]])


def test_reconstruct_matches_matrix_path():
    cfg = StructuredConfig(5, 4, 3, 2)
    alpha = random_tensor(6, (3, 2, 2))
    want = (loop_structure_matrix(cfg) @ alpha.reshape(-1)).reshape(5, 4, 4)
    np.testing.assert_allclose(reconstruct(alpha, cfg), want, atol=1e-12)


def test_extract_reconstruct_round_trip():
    cfg = StructuredConfig(4, 5, 2, 3)
    alpha = random_tensor(7, (2, 3, 3))
    np.testing.assert_allclose(
        block_alphas(reconstruct(alpha, cfg).reshape(1, -1), cfg).reshape(alpha.shape),
        alpha,
        atol=1e-10,
    )


def test_reconstruct_takes_any_stack():
    # A (3, 4) stack of coefficients gives each kernel's own bits; (B, c, H, W)
    # maps give the bits they gave when reconstruct took one kernel and a
    # private helper took stacks (sha256 of the C-order bytes).
    cfg = StructuredConfig(5, 4, 2, 2)
    alphas = np.array(random_tensor(91, (3, 4, 2, 2, 2)))
    got = reconstruct(alphas, cfg)
    assert got.shape == (3, 4, 5, 4, 4)
    for i in range(3):
        for j in range(4):
            assert reconstruct(alphas[i, j], cfg).tobytes() == got[i, j].tobytes()
    x = random_tensor(72, (3, 2, 7, 6))
    for cfg, shape, digest in [
        (StructuredConfig(5, 4, 2, 2), (3, 5, 9, 8),
         "44a547862956b184213a5a2c2c6335ddcca436e0880a4ea25b15490d4e51d8be"),
        (StructuredConfig(4, 7, 2, 2), (3, 4, 12, 11),
         "7c52a0093bf03b31400f95a34ea3e572a80e9e6c4b68c36b54ebb9b2c35fc2cf"),
        (StructuredConfig(2, 3, 2, 3), (3, 2, 7, 6),
         "1edf6b6ce82e8f67078ddc607f49b833b602764f9172474846691cf39071cbcb"),
    ]:
        out = reconstruct(x, cfg)
        assert out.shape == shape and hashlib.sha256(out.tobytes()).hexdigest() == digest
    assert not np.may_share_memory(reconstruct(x, StructuredConfig(2, 3, 2, 3)), x)
    for bad in (np.zeros((3, 3, 2, 2)), np.zeros((2, 2))):
        with pytest.raises(ShapeError, match="alpha shape"):
            reconstruct(bad, StructuredConfig(5, 4, 2, 2))


@pytest.mark.parametrize("stride,pad,dil", [(1, 1, 1), (2, 1, 1), (1, 2, 2), (2, 0, 1)])
def test_conv_decomposition_equivalence(stride, pad, dil):
    cfg = StructuredConfig(4, 3, 2, 2)
    alphas = random_tensor(8, (6, 2, 2, 2))
    w = reconstruct(alphas, cfg)
    geom = ConvGeometry(stride=stride, padding=pad, dilation=dil)
    layer, _ = decompose(w, cfg, geom)
    x = random_tensor(9, (4, 9, 9))
    assert rel_err(forward_decomposed(x, layer), conv(x, w, geom)) <= 1e-10


def test_conv_decomposition_asymmetric_geometry():
    cfg = StructuredConfig(3, 3, 1, 2)
    w = reconstruct(random_tensor(10, (4, 1, 2, 2)), cfg)
    geom = ConvGeometry(stride=(2, 1), padding=(1, 2), dilation=(1, 2))
    layer, _ = decompose(w, cfg, geom)
    x = random_tensor(11, (3, 10, 11))
    assert rel_err(forward_decomposed(x, layer), conv(x, w, geom)) <= 1e-10


def test_conv_decomposition_with_bias():
    cfg = StructuredConfig(2, 3, 1, 2)
    w = reconstruct(random_tensor(12, (3, 1, 2, 2)), cfg)
    bias = random_tensor(13, (3,))
    geom = ConvGeometry(padding=1)
    layer, _ = decompose(w, cfg, geom, bias=bias)
    x = random_tensor(14, (2, 6, 6))
    want = conv(x, w, geom) + bias[:, None, None]
    assert rel_err(forward_decomposed(x, layer), want) <= 1e-10


def test_conv_decomposition_identity_config():
    cfg = StructuredConfig(3, 3, 3, 3)
    w = random_tensor(15, (4, 3, 3, 3))  # every kernel is trivially structured
    layer, _ = decompose(w, cfg, ConvGeometry(padding=1))
    assert layer.cfg.pool_dims == (1, 1, 1)
    np.testing.assert_allclose(layer.alpha, w, atol=1e-10)
    x = random_tensor(16, (3, 5, 5))
    assert rel_err(forward_decomposed(x, layer), conv(x, w, ConvGeometry(padding=1))) <= 1e-10


def test_decomposed_layer_shares_one_pool():
    cfg = StructuredConfig(4, 3, 2, 2)
    w = reconstruct(random_tensor(17, (7, 2, 2, 2)), cfg)
    layer, _ = decompose(w, cfg)
    assert layer.kind == "conv"
    assert layer.cfg.pool_dims == (3, 2, 2)
    assert layer.alpha.shape == (7, 2, 2, 2)
    assert layer.small_geom.padding == (0, 0)


def test_decompose_zero_input_zero_output():
    cfg = StructuredConfig(2, 3, 1, 2)
    w = reconstruct(random_tensor(18, (3, 1, 2, 2)), cfg)
    layer, _ = decompose(w, cfg, ConvGeometry(padding=1))
    out = forward_decomposed(np.zeros((2, 5, 5)), layer)
    np.testing.assert_array_equal(out, np.zeros_like(out))


def test_decompose_rejects_unstructured_weights():
    cfg = StructuredConfig(4, 3, 2, 2)
    w = np.array(random_tensor(19, (3, 4, 3, 3)))  # generic, not structured
    with pytest.raises(ResidualError, match="channel"):
        decompose(w, cfg, residual_tol=1e-6)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_residual_error_names_the_kernel_and_its_residual():
    cfg = StructuredConfig(4, 3, 2, 2)
    w = reconstruct(random_tensor(90, (5, 2, 2, 2)), cfg)
    w[3, 0, 0, 0] += 0.5
    want = worst_kernel_residual(w, cfg)
    assert want > 1e-3
    with pytest.raises(ResidualError, match=f"output channel 3 has residual {want:.3e}") as info:
        decompose(w, cfg)
    assert (info.value.kernel, info.value.residual) == (3, want)
    layer, residual = decompose(w, cfg, residual_tol=1.0)
    assert residual == want and layer.kind == "conv"
    w[1, 0, 1, 1] = np.nan
    with pytest.raises(ResidualError) as info:
        decompose(w, cfg, residual_tol=np.inf)
    assert info.value.kernel == 1 and np.isnan(info.value.residual)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("kind", ["conv", "dwconv", "linear"])
def test_decompose_rejects_non_finite_weights(kind):
    if kind == "conv":
        w = reconstruct(random_tensor(30, (3, 2, 2, 2)), StructuredConfig(4, 3, 2, 2))
        w[1, 0, 0, 0] = np.nan
        call = lambda: decompose(w, StructuredConfig(4, 3, 2, 2))
    elif kind == "dwconv":
        w = reconstruct(random_tensor(31, (3, 1, 2, 2)), StructuredConfig(1, 3, 1, 2))
        w[1, 0, 1, 1] = np.inf
        call = lambda: decompose(w, StructuredConfig(1, 3, 1, 2), ConvGeometry(groups=3))
    else:
        w = reconstruct(random_tensor(32, (3, 2, 1, 1)), StructuredConfig(5, 1, 2, 1))
        w = w.reshape(3, 5)
        w[1, 2] = np.nan
        call = lambda: decompose(w, StructuredConfig(5, 1, 2, 1))
    with pytest.raises(ResidualError, match="1 has residual nan"):
        call()


def test_decompose_rejects_grouped_geometry():
    cfg = StructuredConfig(2, 3, 1, 2)
    w = reconstruct(random_tensor(20, (4, 1, 2, 2)), cfg)
    with pytest.raises(ValueError):
        decompose(w, cfg, ConvGeometry(groups=2))


@pytest.mark.parametrize(
    "kind, groups",
    [("conv", 2), ("dwconv", 2), ("dwconv", 5)],
    ids=["conv-groups-2", "dwconv-groups-2", "dwconv-groups-5"],
)
def test_decompose_rejects_groups_other_than_one_or_outputs(kind, groups):
    # A conv takes groups = 1 only; a depthwise layer (C = 1) takes groups = 1
    # or one group per output channel.
    cfg = StructuredConfig(2, 3, 1, 2) if kind == "conv" else StructuredConfig(1, 3, 1, 2)
    w = reconstruct(random_tensor(20, (4, 1, 2, 2)), cfg)
    with pytest.raises(ShapeError):
        decompose(w, cfg, ConvGeometry(groups=groups))


@pytest.mark.parametrize(
    "geom",
    [ConvGeometry(stride=2), ConvGeometry(padding=1), ConvGeometry(dilation=2), ConvGeometry(groups=3)],
    ids=["stride", "padding", "dilation", "groups"],
)
def test_decompose_rejects_linear_with_geometry(geom):
    cfg = StructuredConfig(C=6, N=1, c=3, n=1)
    w = reconstruct(random_tensor(40, (3, 3, 1, 1)), cfg).reshape(3, 6)
    with pytest.raises(GeometryError, match="linear layer"):
        decompose(w, cfg, geom)


def test_decomposed_layer_picks_class_and_splits_geometry():
    geom = ConvGeometry(stride=2, padding=1, dilation=2)
    conv_layer = decomposed_layer(np.zeros((4, 2, 2, 2)), StructuredConfig(3, 3, 2, 2), geom)
    assert conv_layer.kind == "conv"
    assert conv_layer.pool_geom == ConvGeometry(padding=1, dilation=2)
    assert conv_layer.small_geom == ConvGeometry(stride=2, dilation=2)
    dw_geom = ConvGeometry(stride=2, padding=1, dilation=2, groups=4)
    dw = decomposed_layer(np.zeros((4, 1, 2, 2)), StructuredConfig(1, 3, 1, 2), dw_geom)
    assert dw.kind == "dwconv" and dw.geom.groups == 4
    assert dw.pool_geom == conv_layer.pool_geom
    assert dw.small_geom == ConvGeometry(stride=2, dilation=2, groups=4)
    lin = decomposed_layer(np.zeros((3, 2)), StructuredConfig(5, 1, 2, 1))
    assert lin.kind == "linear" and lin.cfg.pool_dims[0] == 4
    assert (lin.pool_geom, lin.small_geom) == (None, None)
    with pytest.raises(ShapeError, match="bias shape"):
        decomposed_layer(np.zeros((3, 2)), StructuredConfig(5, 1, 2, 1), bias=np.zeros(2))


def test_decomposed_layer_stores_only_what_defines_it():
    assert [f.name for f in dataclasses.fields(DecomposedLayer)] == ["cfg", "alpha", "geom", "bias"]


@pytest.mark.parametrize("groups", [1, 4], ids=["conv", "dwconv"])
def test_replaced_geometry_carries_its_split_and_kind(groups):
    # kind and the pool/small-conv split are read from geom, so a layer
    # rebuilt with another geom cannot run a stale split.
    cfg = StructuredConfig(3, 3, 2, 2) if groups == 1 else StructuredConfig(1, 3, 1, 2)
    alphas = np.array(random_tensor(92, (4, cfg.c, 2, 2)))
    layer = decomposed_layer(alphas, cfg, ConvGeometry(groups=groups))
    assert layer.pool_geom == ConvGeometry() and layer.small_geom == ConvGeometry(groups=groups)
    geom = ConvGeometry(stride=2, padding=1)
    moved = dataclasses.replace(layer, geom=geom)
    assert moved.kind == "conv"
    assert moved.pool_geom == ConvGeometry(padding=1)
    assert moved.small_geom == ConvGeometry(stride=2)
    x = random_tensor(93, (cfg.C, 7, 7))
    want = conv(x, reconstruct(alphas, cfg), geom)
    np.testing.assert_allclose(forward_decomposed(x, moved), want, rtol=1e-12, atol=1e-12)


def test_decomposed_layers_compare_and_hash_by_identity():
    cfg = StructuredConfig(3, 3, 2, 2)
    alphas = np.array(random_tensor(90, (4, 2, 2, 2)))
    a = decomposed_layer(alphas, cfg, bias=random_tensor(91, (4,)))
    twin = decomposed_layer(alphas.copy(), cfg, bias=a.bias.copy())
    assert a == a
    assert a != twin
    assert len({a, twin}) == 2


def test_worst_block_residual_matches_per_kernel_loop():
    cfg = StructuredConfig(4, 3, 2, 2)
    proj = dense_projector(cfg)
    flat = reconstruct(random_tensor(25, (6, 2, 2, 2)), cfg).reshape(6, -1)
    assert _worst_block_residual(flat, cfg)[1] < 1e-14
    flat[1] += np.array(random_tensor(26, (36,))) * 1e-3
    flat[4] += np.array(random_tensor(27, (36,))) * 1e-2
    flat[2] = 0.0
    want = [np.linalg.norm(v - proj @ v) / np.linalg.norm(v) if v.any() else 0.0 for v in flat]
    idx, res, _ = _worst_block_residual(flat, cfg)
    assert idx == 4 == int(np.argmax(want))
    assert abs(res - want[4]) <= 1e-12 * want[4]
    assert _worst_block_residual(np.zeros((3, 36)), cfg)[:2] == (-1, 0.0)
    assert _worst_block_residual(np.zeros((0, 36)), cfg)[:2] == (-1, 0.0)
    assert _worst_block_residual(np.zeros((0, 36)), cfg)[2].shape == (0, 8)
    assert block_alphas(np.zeros((0, 36)), cfg).shape == (0, 8)


def test_sweep_matches_the_separate_residual_and_solve():
    # Every config with C <= 8 and N <= 5 on random unstructured kernels. The
    # one sweep's coefficients equal block_alphas bit for bit, and its
    # residuals, with or without the coefficients, equal those of a full
    # projection divided by the kernel norms, bit for bit.
    for C in range(1, 9):
        for N in range(1, 6):
            for c in range(1, C + 1):
                for n in range(1, N + 1):
                    cfg = StructuredConfig(C, N, c, n)
                    flat = np.array(random_tensor(C * 1000 + N * 100 + c * 10 + n, (3, C * N * N)))
                    _, _, alphas = _worst_block_residual(flat, cfg)
                    np.testing.assert_array_equal(alphas, block_alphas(flat, cfg))
                    assert not np.may_share_memory(alphas, flat)
                    for v in flat:
                        v = v[np.newaxis]
                        resid = _projection(v.reshape(1, C, N, N), cfg)[1]
                        ref = resid / np.sqrt(_row_squares(v))
                        idx, got, _ = _worst_block_residual(v, cfg)
                        assert (got == ref[0]) if ref[0] > 0.0 else ((idx, got) == (-1, 0.0))
                        assert _worst_block_residual(v, cfg, keep=None) == (idx, got, None)


SWEEP_CFG = StructuredConfig(4, 3, 2, 2)
SWEEP_KERNEL = np.array(random_tensor(34, (4, 3, 3)))
OPERATORS = {
    "project": lambda: project(SWEEP_KERNEL, SWEEP_CFG),
    "block_alphas": lambda: block_alphas(SWEEP_KERNEL.reshape(1, -1), SWEEP_CFG),
    "worst_kernel_residual": lambda: worst_kernel_residual(SWEEP_KERNEL[None], SWEEP_CFG),
    "channel_projector": lambda: StructureMatrix(SWEEP_CFG).channel_projector,
    "spatial_projector": lambda: StructureMatrix(SWEEP_CFG).spatial_projector,
}


@pytest.mark.parametrize("name", sorted(OPERATORS))
def test_every_operator_is_one_sweep(monkeypatch, name):
    # Each structure operator reaches _projection once, inside one
    # _worst_block_residual call, which keeps what the operator returns.
    sweep, projection = structured._worst_block_residual, structured._projection
    calls = []

    def spy_sweep(*args, **kwargs):
        calls.append("sweep")
        return sweep(*args, **kwargs)

    def spy_projection(*args, **kwargs):
        assert calls == ["sweep"], calls
        calls.append("projection")
        return projection(*args, **kwargs)

    monkeypatch.setattr(structured, "_worst_block_residual", spy_sweep)
    monkeypatch.setattr(structured, "_projection", spy_projection)
    OPERATORS[name]()
    assert calls == ["sweep", "projection"]


def test_zero_kernels_take_no_rescale(monkeypatch):
    # A zero kernel is exactly structured as it stands; only a nonzero kernel
    # whose squared norm underflows is rescaled, which squares its rows again.
    cfg = StructuredConfig(C=6, N=1, c=3, n=1)
    flat = np.array(random_tensor(16, (4, 6)))
    row_squares = structured._row_squares
    calls = []

    def count(a):
        calls.append(len(a))
        return row_squares(a)

    monkeypatch.setattr(structured, "_row_squares", count)
    want = _worst_block_residual(flat, cfg)
    plain = list(calls)
    flat[2] = 0.0
    calls.clear()
    got = _worst_block_residual(flat, cfg)
    assert calls == plain
    np.testing.assert_array_equal(got[2][[0, 1, 3]], want[2][[0, 1, 3]])
    assert not got[2][2].any()
    flat[2, 0] = 1e-170
    calls.clear()
    _worst_block_residual(flat, cfg)
    assert calls == plain[:1] + [1] + plain[1:]


@pytest.mark.parametrize("scale", [1e200, 1e-170])
def test_decompose_conv_layer_residual_is_scale_free(scale):
    # Per-kernel squared norms that overflow or underflow: the residual is
    # that of the unit-scale kernels, and the coefficients are scaled with them.
    cfg = StructuredConfig(C=6, N=1, c=3, n=1)
    w = np.array(random_tensor(13, (4, 6, 1, 1)))
    want = worst_kernel_residual(w, cfg)
    assert want > 1e-3
    assert abs(worst_kernel_residual(w * scale, cfg) - want) <= 1e-12 * want
    with pytest.raises(ResidualError, match=f"{want:.3e}"):
        decompose(w * scale, cfg)
    alphas = np.array(random_tensor(14, (4, 3, 1, 1)))
    layer, _ = decompose(reconstruct(alphas, cfg) * scale, cfg)
    np.testing.assert_allclose(layer.alpha, alphas * scale, rtol=1e-12, atol=0)


@pytest.mark.parametrize("scale", [1e200, 1e-170, 1e-200, 1e-310])
def test_project_is_scale_free(scale):
    # A squared norm that overflows (1e200) or underflows (1e-170 and below,
    # subnormal entries at 1e-310): the projection scales with the kernel and
    # the residual is that of the unit-scale kernel, neither NaN nor 0.
    cfg = StructuredConfig(C=3, N=3, c=2, n=2)
    w = np.array(random_tensor(18, (3, 3, 3)))
    want_hat, want = project(w, cfg)
    assert want > 1e-3
    w_hat, got = project(w * scale, cfg)
    assert abs(got - want) <= 1e-12 * want
    np.testing.assert_allclose(w_hat / scale, want_hat, rtol=0, atol=1e-12 * np.abs(want_hat).max())


@pytest.mark.parametrize("cfg, want", [
    (StructuredConfig(6, 1, 3, 1), [4]),
    (StructuredConfig(4, 3, 2, 2), [3, 2, 2, 2, 2]),
])
def test_decompose_conv_layer_shares_the_first_class_residual(monkeypatch, cfg, want):
    # The norms take one class residual per band; the coefficients reuse the
    # first and take one per later band, on the coefficients so far. No
    # block_alphas call.
    class_residual = structured._class_residual
    bands = []

    def count_bands(x, k, axis):
        bands.append(k)
        return class_residual(x, k, axis)

    def no_second_solve(flat, cfg):
        raise AssertionError("block_alphas called")

    monkeypatch.setattr(structured, "_class_residual", count_bands)
    monkeypatch.setattr(structured, "block_alphas", no_second_solve)
    alphas = np.array(random_tensor(15, (5, cfg.c, cfg.n, cfg.n)))
    layer, _ = decompose(reconstruct(alphas, cfg), cfg)
    assert bands == want
    np.testing.assert_allclose(layer.alpha, alphas, rtol=0, atol=1e-12)


def test_worst_kernel_residual_reports_max():
    cfg = StructuredConfig(4, 3, 2, 2)
    good = reconstruct(random_tensor(21, (3, 2, 2, 2)), cfg)
    assert worst_kernel_residual(good, cfg) <= 1e-12
    spoiled = good.copy()
    spoiled[1, 0, 0, 0] += 0.5
    r = worst_kernel_residual(spoiled, cfg)
    assert r > 1e-3


def test_depthwise_decomposition_equivalence():
    n = 2
    cfg = StructuredConfig(1, 3, 1, n)
    alphas = random_tensor(22, (6, 1, n, n))
    w = reconstruct(alphas, cfg)
    geom = ConvGeometry(stride=2, padding=1)
    layer, _ = decompose(w, cfg, ConvGeometry(stride=2, padding=1, groups=6))
    x = random_tensor(23, (6, 9, 9))
    want = conv(x, w, ConvGeometry(stride=2, padding=1, groups=6))
    assert rel_err(forward_decomposed(x, layer), want) <= 1e-10


def test_depthwise_decomposition_with_bias():
    cfg = StructuredConfig(1, 3, 1, 2)
    w = reconstruct(random_tensor(24, (4, 1, 2, 2)), cfg)
    bias = random_tensor(25, (4,))
    layer, _ = decompose(w, cfg, ConvGeometry(padding=1, groups=4), bias=bias)
    x = random_tensor(26, (4, 6, 6))
    want = conv(x, w, ConvGeometry(padding=1, groups=4)) + bias[:, None, None]
    assert rel_err(forward_decomposed(x, layer), want) <= 1e-10


def test_depthwise_forward_rejects_a_batch():
    # The forward takes one C x H x W map; a batch and a map with the wrong
    # channel count are refused.
    cfg = StructuredConfig(1, 3, 1, 2)
    w = reconstruct(random_tensor(50, (4, 1, 2, 2)), cfg)
    layer, _ = decompose(w, cfg, ConvGeometry(padding=1, groups=4),
                                 bias=random_tensor(51, (4,)))
    x = random_tensor(52, (4, 6, 6, 2))
    assert forward_decomposed(x[..., 0], layer).shape == (4, 6, 6)
    with pytest.raises(ShapeError, match="got rank 4"):
        forward_decomposed(x, layer)
    with pytest.raises(ShapeError, match="input has 3 channels, layer expects 4"):
        forward_decomposed(random_tensor(53, (3, 6, 6)), layer)


@pytest.mark.parametrize(
    "cfg,groups,geom",
    [
        (StructuredConfig(1, 3, 1, 3), 4, ConvGeometry(stride=2, padding=1)),
        (StructuredConfig(1, 3, 1, 3), 4, ConvGeometry(padding=(2, 1), dilation=2)),
        (StructuredConfig(3, 3, 3, 3), 1, ConvGeometry(stride=(1, 2), padding=1)),
    ],
    ids=["dwconv-stride2", "dwconv-dilation2", "conv"],
)
@pytest.mark.parametrize("batch", [None, 2], ids=["map", "batch"])
def test_identity_pool_is_skipped_and_equals_the_dense_conv(cfg, groups, geom, batch, monkeypatch):
    # With n = N and c = C every pool window is 1: the conv pads in the
    # pool's stead, with the dense conv's bits and no sum_pool3d call.
    assert cfg.pool_dims == (1, 1, 1)
    geom = ConvGeometry(geom.stride, geom.padding, geom.dilation, groups)
    alphas = random_tensor(60, (4, cfg.c, 3, 3))
    layer = decomposed_layer(alphas, cfg, geom, bias=random_tensor(61, (4,)))
    x = random_tensor(62, (4 if groups > 1 else 3, 9, 8, batch or 1))
    x = x if batch else x[..., 0]

    def no_pool(*args, **kwargs):
        raise AssertionError("an identity pool called sum_pool3d")

    monkeypatch.setattr(structconv.structured, "sum_pool3d", no_pool)
    if batch:
        # Both paths refuse a C x H x W x B batch.
        for run in (lambda: conv(x, alphas, geom), lambda: forward_decomposed(x, layer)):
            with pytest.raises(ShapeError, match="got rank 4"):
                run()
        return
    want = conv(x, alphas, geom) + layer.bias[:, None, None]
    np.testing.assert_array_equal(forward_decomposed(x, layer), want)


def test_depthwise_rejects_bad_shapes():
    with pytest.raises(ShapeError):
        decompose(
            random_tensor(27, (4, 2, 3, 3)), StructuredConfig(1, 3, 1, 2), ConvGeometry(groups=4)
        )


def test_linear_decomposition_r_equals_q():
    w = random_tensor(28, (3, 5))
    layer, _ = decompose(w, StructuredConfig(5, 1, 5, 1))
    assert layer.cfg.pool_dims[0] == 1
    np.testing.assert_allclose(layer.alpha, w, atol=1e-10)
    x = random_tensor(29, (5,))
    np.testing.assert_allclose(forward_decomposed(x, layer), linear(w, x), atol=1e-12)


def test_linear_decomposition_structured_rows():
    p_dim, q_dim, r_dim = 3, 4, 2
    cfg = StructuredConfig(C=q_dim, N=1, c=r_dim, n=1)
    alpha_rows = random_tensor(30, (p_dim, r_dim, 1, 1))
    w = reconstruct(alpha_rows, cfg).reshape(p_dim, q_dim)
    layer, _ = decompose(w, cfg)
    assert layer.cfg.pool_dims[0] == q_dim - r_dim + 1
    x = random_tensor(31, (q_dim,))
    got = forward_decomposed(x, layer)
    assert rel_err(got, linear(w, x)) <= 1e-10


def test_linear_all_ones_edge_windows():
    # All-ones rows live in the 1D structured span only for R=1 (one window
    # covering everything) and R=Q (identity); intermediate R makes the
    # overlapping windows double-count interior entries.
    w = np.ones((3, 6))
    for r_dim in (1, 6):
        layer, _ = decompose(w, StructuredConfig(6, 1, r_dim, 1))
        x = random_tensor(32 + r_dim, (6,))
        assert rel_err(forward_decomposed(x, layer), linear(w, x)) <= 1e-10
    with pytest.raises(ResidualError):
        decompose(w, StructuredConfig(6, 1, 3, 1), residual_tol=1e-6)


def test_linear_decomposition_with_bias():
    cfg = StructuredConfig(C=6, N=1, c=3, n=1)
    w = reconstruct(random_tensor(40, (2, 3, 1, 1)), cfg).reshape(2, 6)
    bias = random_tensor(41, (2,))
    layer, _ = decompose(w, cfg, bias=bias)
    x = random_tensor(42, (6,))
    np.testing.assert_allclose(
        forward_decomposed(x, layer), linear(w, x) + bias, atol=1e-10
    )


def test_linear_rejects_unstructured_rows():
    w = np.array(random_tensor(43, (3, 6)))
    with pytest.raises(ResidualError):
        decompose(w, StructuredConfig(6, 1, 2, 1), residual_tol=1e-6)


@pytest.mark.parametrize("kind", ["conv", "dwconv", "linear"])
def test_sidecar_round_trip(tmp_path, kind):
    if kind == "conv":
        cfg = StructuredConfig(3, 3, 2, 2)
        w = reconstruct(random_tensor(50, (4, 2, 2, 2)), cfg)
        layer, _ = decompose(w, cfg, ConvGeometry(stride=2, padding=1),
                                     bias=random_tensor(51, (4,)))
        x = random_tensor(52, (3, 7, 7))
    elif kind == "dwconv":
        cfg = StructuredConfig(1, 3, 1, 2)
        w = reconstruct(random_tensor(53, (5, 1, 2, 2)), cfg)
        layer, _ = decompose(w, cfg, ConvGeometry(padding=1, groups=5))
        x = random_tensor(54, (5, 6, 6))
    else:
        cfg = StructuredConfig(C=8, N=1, c=4, n=1)
        w = reconstruct(random_tensor(55, (3, 4, 1, 1)), cfg).reshape(3, 8)
        layer, _ = decompose(w, cfg, bias=random_tensor(56, (3,)))
        x = random_tensor(57, (8,))
    save_decomposed_layer(tmp_path, "layer", layer)
    back = load_decomposed_layer(tmp_path / "layer.json")
    np.testing.assert_array_equal(forward_decomposed(x, back), forward_decomposed(x, layer))


@pytest.mark.parametrize("name", ["Conv", "Depthwise", "Linear"])
def test_compatibility_constructors_build_the_one_layer(name):
    # The per-kind constructors, given the keywords the benchmark passes,
    # build the layer decomposed_layer builds, field by field.
    build = getattr(structured, f"Decomposed{name}Layer")
    if name == "Linear":
        cfg, geom = StructuredConfig(8, 1, 4, 1), ConvGeometry()
        alphas = np.array(random_tensor(80, (3, 4)))
        got = build(in_features=8, R=4, small=alphas)
        assert getattr(got, "small") is got.alpha
    else:
        groups = 5 if name == "Depthwise" else 1
        cfg = StructuredConfig(1, 3, 1, 2) if groups > 1 else StructuredConfig(3, 3, 2, 2)
        geom = ConvGeometry(stride=2, padding=(1, 2), dilation=(1, 2), groups=groups)
        alphas = np.array(random_tensor(80, (5, cfg.c, 2, 2)))
        parts = dict(
            cfg=cfg,
            pool_dims=cfg.pool_dims,
            pool_geom=ConvGeometry(stride=1, padding=geom.padding, dilation=geom.dilation),
            alpha=alphas,
            small_geom=ConvGeometry(stride=geom.stride, padding=0, dilation=geom.dilation),
        )
        got = build(channels=groups, **parts) if groups > 1 else build(**parts)
    want = decomposed_layer(alphas, cfg, geom)
    assert type(got) is DecomposedLayer
    for field in dataclasses.fields(DecomposedLayer):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if isinstance(a, np.ndarray):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        else:
            assert a == b, field.name
    # The derived kind and split, which are not fields.
    for attr in ("kind", "pool_geom", "small_geom"):
        assert getattr(got, attr) == getattr(want, attr), attr


_GEOM_JSON = {"stride": [1, 1], "padding": [0, 0], "dilation": [1, 1]}
# Sidecars as the per-kind layer classes wrote them, by kind: (sidecar
# without its file fields, alpha shape, kind of the loaded layer).
_OLD_SIDECARS = {
    "conv": (
        {
            "kind": "conv",
            "config": {"C": 3, "N": 3, "c": 2, "n": 2},
            "pool_dims": [2, 2, 2],
            "pool_geom": {"stride": [1, 1], "padding": [1, 1], "dilation": [1, 2]},
            "small_geom": {"stride": [2, 2], "padding": [0, 0], "dilation": [1, 2]},
        },
        (4, 2, 2, 2),
        "conv",
    ),
    "pwconv": (
        {
            "kind": "conv",
            "config": {"C": 6, "N": 1, "c": 3, "n": 1},
            "pool_dims": [4, 1, 1],
            "pool_geom": _GEOM_JSON,
            "small_geom": _GEOM_JSON,
        },
        (4, 3, 1, 1),
        "conv",
    ),
    "dwconv": (
        {
            "kind": "dwconv",
            "channels": 5,
            "config": {"C": 1, "N": 3, "c": 1, "n": 2},
            "pool_dims": [1, 2, 2],
            "pool_geom": dict(_GEOM_JSON, padding=[1, 1]),
            "small_geom": _GEOM_JSON,
        },
        (5, 1, 2, 2),
        "dwconv",
    ),
    "linear": ({"kind": "linear", "in_features": 8, "R": 4}, (3, 4), "linear"),
}


@pytest.mark.parametrize("bias", [False, True], ids=["no-bias", "bias"])
@pytest.mark.parametrize("name", list(_OLD_SIDECARS))
def test_old_sidecars_load_and_save_byte_identically(tmp_path, name, bias):
    doc, shape, kind = _OLD_SIDECARS[name]
    src, dst = tmp_path / "src", tmp_path / "dst"
    src.mkdir()
    doc = dict(doc, alpha_file="layer_alpha.stcv", bias_file="layer_bias.stcv" if bias else None)
    (src / "layer.json").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    write_tensor(src / "layer_alpha.stcv", random_tensor(70, shape))
    if bias:
        write_tensor(src / "layer_bias.stcv", random_tensor(71, shape[:1]))
    layer = load_decomposed_layer(src / "layer.json")
    assert type(layer) is DecomposedLayer and layer.kind == kind
    assert save_decomposed_layer(dst, "layer", layer) == doc
    assert sorted(os.listdir(dst)) == sorted(os.listdir(src))
    for f in os.listdir(src):
        assert (dst / f).read_bytes() == (src / f).read_bytes(), f


def _saved_layer(tmp_path, kind):
    if kind == "linear":
        w = reconstruct(random_tensor(60, (3, 4, 1, 1)), StructuredConfig(8, 1, 4, 1))
        layer, _ = decompose(
            w.reshape(3, 8), StructuredConfig(8, 1, 4, 1), bias=random_tensor(61, (3,))
        )
    elif kind == "dwconv":
        w = reconstruct(random_tensor(64, (5, 1, 2, 2)), StructuredConfig(1, 3, 1, 2))
        layer, _ = decompose(
            w, StructuredConfig(1, 3, 1, 2), ConvGeometry(groups=5), bias=random_tensor(65, (5,))
        )
    else:
        cfg = StructuredConfig(3, 3, 2, 2)
        w = reconstruct(random_tensor(62, (4, 2, 2, 2)), cfg)
        layer, _ = decompose(w, cfg, ConvGeometry(padding=1), bias=random_tensor(63, (4,)))
    sidecar = save_decomposed_layer(tmp_path, "layer", layer)
    return tmp_path / "layer.json", sidecar


def _rewrite(path, sidecar, **changes):
    path.write_text(json.dumps(dict(sidecar, **changes)), encoding="utf-8")


@pytest.mark.parametrize("kind", ["conv", "linear"])
def test_load_rejects_alpha_shape_mismatch(tmp_path, kind):
    path, sidecar = _saved_layer(tmp_path, kind)
    write_tensor(tmp_path / sidecar["alpha_file"], np.zeros((3, 5) if kind == "linear" else (4, 2, 2, 1)))
    with pytest.raises(ShapeError, match="alpha shape"):
        load_decomposed_layer(path)


def test_load_rejects_depthwise_channel_mismatch(tmp_path):
    path, sidecar = _saved_layer(tmp_path, "dwconv")
    _rewrite(path, sidecar, channels=6)
    with pytest.raises(ShapeError, match="alpha shape"):
        load_decomposed_layer(path)


@pytest.mark.parametrize("kind", ["conv", "linear"])
def test_load_rejects_bias_shape_mismatch(tmp_path, kind):
    path, sidecar = _saved_layer(tmp_path, kind)
    write_tensor(tmp_path / sidecar["bias_file"], np.zeros(7))
    with pytest.raises(ShapeError, match="bias shape"):
        load_decomposed_layer(path)


def test_load_rejects_pool_dims_mismatch(tmp_path):
    path, sidecar = _saved_layer(tmp_path, "conv")
    _rewrite(path, sidecar, pool_dims=[1, 2, 2])
    with pytest.raises(ShapeError, match="pool_dims"):
        load_decomposed_layer(path)


@pytest.mark.parametrize(
    "change",
    [
        lambda s: dict(s, pool_geom=dict(s["pool_geom"], stride=[2, 2])),
        lambda s: dict(s, small_geom=dict(s["small_geom"], padding=[1, 0])),
        lambda s: dict(s, small_geom=dict(s["small_geom"], dilation=[2, 2])),
    ],
    ids=["pool-stride", "small-padding", "dilation-mismatch"],
)
@pytest.mark.parametrize("kind", ["conv", "dwconv"])
def test_load_rejects_inconsistent_geometry(tmp_path, kind, change):
    # No dense layer splits into a strided pool, a padded small kernel or two
    # dilations.
    path, sidecar = _saved_layer(tmp_path, kind)
    path.write_text(json.dumps(change(sidecar)), encoding="utf-8")
    with pytest.raises(SidecarError, match="do not split one layer's geometry"):
        load_decomposed_layer(path)


def test_one_channel_depthwise_round_trips_as_conv(tmp_path):
    cfg = StructuredConfig(1, 3, 1, 2)
    w = reconstruct(random_tensor(66, (1, 1, 2, 2)), cfg)
    geom = ConvGeometry(stride=2, padding=1, groups=1)
    layer, _ = decompose(w, cfg, geom, bias=random_tensor(67, (1,)))
    assert save_decomposed_layer(tmp_path, "layer", layer)["kind"] == "conv"
    back = load_decomposed_layer(tmp_path / "layer.json")
    x = random_tensor(68, (1, 7, 7))
    want = conv(x, w, geom) + layer.bias[:, None, None]
    np.testing.assert_array_equal(forward_decomposed(x, back), forward_decomposed(x, layer))
    assert rel_err(forward_decomposed(x, back), want) <= 1e-10


@pytest.mark.parametrize("field", ["alpha_file", "bias_file"])
def test_load_rejects_files_outside_sidecar_directory(tmp_path, field):
    inner = tmp_path / "inner"
    path, sidecar = _saved_layer(inner, "conv")
    os.replace(inner / sidecar[field], tmp_path / sidecar[field])
    _rewrite(path, sidecar, **{field: os.path.join("..", sidecar[field])})
    with pytest.raises(ValueError, match="outside the sidecar directory"):
        load_decomposed_layer(path)
    _rewrite(path, sidecar, **{field: str(tmp_path / sidecar[field])})
    with pytest.raises(ValueError, match="outside the sidecar directory"):
        load_decomposed_layer(path)


def _without(sidecar, field):
    return {k: v for k, v in sidecar.items() if k != field}


@pytest.mark.parametrize(
    "kind, malform, field",
    [
        ("conv", lambda s: [s], "JSON object"),
        ("conv", lambda s: {"kind": "conv"}, "missing field 'config'"),
        ("conv", lambda s: _without(s, "config"), "missing field 'config'"),
        ("conv", lambda s: _without(s, "pool_geom"), "missing field 'pool_geom'"),
        ("conv", lambda s: dict(s, config=[1, 2]), "'config' must be an object"),
        ("conv", lambda s: dict(s, pool_dims=5), "'pool_dims' must be a list"),
        ("dwconv", lambda s: dict(s, channels="2"), "'channels' must be a positive integer"),
        ("conv", lambda s: dict(s, alpha_file="gone.stcv"), "'alpha_file' names 'gone.stcv'"),
    ],
    ids=[
        "json-array", "kind-only", "no-config", "no-pool-geom", "config-list",
        "pool-dims-int", "channels-string", "alpha-file-missing",
    ],
)
def test_load_rejects_malformed_sidecar(tmp_path, kind, malform, field):
    path, sidecar = _saved_layer(tmp_path, kind)
    path.write_text(json.dumps(malform(sidecar)), encoding="utf-8")
    with pytest.raises(SidecarError, match=field):
        load_decomposed_layer(path)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: (
        st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3)
    ),
    max_leaves=8,
)
SIDECAR_FIELDS = (
    "kind", "config", "pool_dims", "pool_geom", "small_geom", "channels", "in_features", "R",
    "alpha_file", "bias_file",
)
# Near-valid values reach the checks past the first malformed field.
NEAR_VALID = (
    st.integers(-1, 5)
    | st.lists(st.integers(-1, 3), max_size=4)
    | st.sampled_from(["conv", "dwconv", "linear", "layer_alpha.stcv", "layer_bias.stcv", ""])
    | st.dictionaries(
        st.sampled_from(["C", "N", "c", "n", "stride", "padding", "dilation"]),
        st.integers(-1, 4) | st.lists(st.integers(-1, 3), max_size=3) | JSON_VALUES,
        max_size=7,
    )
)


@settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    kind=st.sampled_from(["conv", "dwconv", "linear"]),
    changes=st.dictionaries(st.sampled_from(SIDECAR_FIELDS), NEAR_VALID | JSON_VALUES, max_size=3),
    dropped=st.sets(st.sampled_from(SIDECAR_FIELDS), max_size=2),
    whole=st.none() | JSON_VALUES,
)
def test_load_decomposed_layer_fuzz(tmp_path, kind, changes, dropped, whole):
    # Only the ValueError family (SidecarError, ShapeError, ConfigError,
    # ContainerError, ...) may escape; KeyError, TypeError and OSError may not.
    path, sidecar = _saved_layer(tmp_path, kind)
    doc = {k: v for k, v in dict(sidecar, **changes).items() if k not in dropped}
    path.write_text(json.dumps(doc if whole is None else whole), encoding="utf-8")
    try:
        load_decomposed_layer(path)
    except ValueError:
        pass


@settings(max_examples=40, deadline=None)
@given(
    C=st.integers(1, 4),
    N=st.integers(1, 4),
    data=st.data(),
)
def test_equivalence_property(C, N, data):
    c = data.draw(st.integers(1, C))
    n = data.draw(st.integers(1, N))
    stride = data.draw(st.integers(1, 2))
    pad = data.draw(st.integers(0, 2))
    dil = data.draw(st.integers(1, 2))
    seed = data.draw(st.integers(0, 2**32))
    cfg = StructuredConfig(C, N, c, n)
    cout = data.draw(st.integers(1, 3))
    w = reconstruct(random_tensor(seed, (cout, c, n, n)), cfg)
    geom = ConvGeometry(stride=stride, padding=pad, dilation=dil)
    h = N * dil + 4
    x = random_tensor(seed + 1, (C, h, h))
    layer, _ = decompose(w, cfg, geom)
    assert rel_err(forward_decomposed(x, layer), conv(x, w, geom)) <= 1e-10
