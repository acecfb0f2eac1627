import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from structconv.composite import (
    BasisError,
    CompositeBasis,
    CompositeKernel,
    check_linear_independence,
    compose_kernel,
    conv_composite,
    count_composite_ops,
    load_basis,
    save_basis,
)
from structconv.structured import StructuredConfig, generate_structured_basis
from structconv.tensor import ConvGeometry, ShapeError, conv, random_tensor


def shifted_patch_basis():
    # Four 2x2 all-ones patches at every offset inside a 1x3x3 grid.
    elems = np.zeros((4, 1, 3, 3))
    for m, (i, j) in enumerate([(0, 0), (0, 1), (1, 0), (1, 1)]):
        elems[m, 0, i : i + 2, j : j + 2] = 1.0
    return CompositeBasis(elems)


def one_hot_basis(c, n):
    elems = np.eye(c * n * n).reshape(c * n * n, c, n, n)
    return CompositeBasis(elems)


def test_one_hot_basis_has_full_rank():
    basis = one_hot_basis(2, 3)
    assert check_linear_independence(basis) == 18 == basis.size


def test_duplicate_elements_rank_collapses():
    b = shifted_patch_basis()
    dup = CompositeBasis(np.concatenate([b.elements[:1], b.elements[:1]]))
    assert check_linear_independence(dup) == 1


def test_shifted_patch_basis_rank_four():
    assert check_linear_independence(shifted_patch_basis()) == 4


def test_rank_agrees_with_floating_point_rank():
    # Same answer from an entirely different algorithm.
    for basis in (shifted_patch_basis(), one_hot_basis(1, 3), one_hot_basis(2, 2)):
        flat = basis.elements.reshape(basis.size, -1)
        assert check_linear_independence(basis) == np.linalg.matrix_rank(flat)


def test_structured_basis_rank_is_full():
    basis = generate_structured_basis(StructuredConfig(C=4, N=3, c=2, n=2))
    assert basis.size == 8
    assert check_linear_independence(basis) == 8


def test_compose_zero_alphas():
    k = CompositeKernel(shifted_patch_basis(), np.zeros(4))
    np.testing.assert_array_equal(compose_kernel(k), np.zeros((1, 3, 3)))


def test_compose_one_hot_recovers_kernel():
    w0 = random_tensor(3, (2, 3, 3))
    k = CompositeKernel(one_hot_basis(2, 3), w0.reshape(-1))
    np.testing.assert_array_equal(compose_kernel(k), w0)


def test_compose_overlap_counts():
    k = CompositeKernel(shifted_patch_basis(), np.ones(4))
    np.testing.assert_array_equal(
        compose_kernel(k), [[[1, 2, 1], [2, 4, 2], [1, 2, 1]]]
    )


@pytest.mark.parametrize(
    "geom",
    [ConvGeometry(), ConvGeometry(stride=2, padding=1), ConvGeometry(dilation=2, padding=2)],
)
def test_conv_composite_matches_composed_conv(geom):
    basis = shifted_patch_basis()
    alphas = random_tensor(9, (4,))
    k = CompositeKernel(basis, alphas)
    x = random_tensor(10, (1, 5, 5))
    got = conv_composite(x, k, geom)
    want = conv(x, compose_kernel(k)[np.newaxis], geom)[0]
    np.testing.assert_allclose(got, want, atol=1e-10 * (1 + np.abs(want).max()))


def test_conv_composite_one_hot_is_plain_conv():
    basis = one_hot_basis(2, 3)
    w0 = random_tensor(4, (2, 3, 3))
    k = CompositeKernel(basis, w0.reshape(-1))
    x = random_tensor(5, (2, 6, 6))
    want = conv(x, w0[np.newaxis])[0]
    np.testing.assert_allclose(conv_composite(x, k), want, rtol=1e-12)


def test_conv_composite_on_a_batch_is_its_samples():
    # The support sums keep the batch axis and drop only the output channel.
    basis = generate_structured_basis(StructuredConfig(C=3, N=3, c=2, n=2))
    k = CompositeKernel(basis, random_tensor(11, (basis.size,)))
    x = random_tensor(12, (2, 3, 6, 6))
    got = conv_composite(x, k)
    want = conv(x, compose_kernel(k)[np.newaxis])[:, 0]
    assert got.shape == want.shape == (2, 4, 4)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * (1 + np.abs(want).max()))
    np.testing.assert_array_equal(got, np.stack([conv_composite(xi, k) for xi in x]))


def test_conv_composite_zero_alphas_zero_output():
    k = CompositeKernel(shifted_patch_basis(), np.zeros(4))
    x = random_tensor(6, (1, 4, 4))
    np.testing.assert_array_equal(conv_composite(x, k), np.zeros((2, 2)))


def test_count_ops_shifted_patches():
    assert count_composite_ops(shifted_patch_basis()) == {
        "mults_per_output": 4,
        "adds_per_output": 15,
    }


def test_count_ops_one_hot_is_dense_cost():
    assert count_composite_ops(one_hot_basis(1, 3)) == {
        "mults_per_output": 9,
        "adds_per_output": 8,
    }


def test_count_ops_structured_cuboids():
    basis = generate_structured_basis(StructuredConfig(C=4, N=3, c=2, n=2))
    counts = count_composite_ops(basis)
    assert counts == {"mults_per_output": 8, "adds_per_output": 95}
    assert all(int(b.sum()) == 12 for b in basis.elements)


def composite_one_output_instrumented(x, kernel):
    # Scalar evaluation of one full-support output location, counting every
    # multiply and two-operand add.
    mults = adds = 0
    total = None
    for m in range(kernel.basis.size):
        support = np.argwhere(kernel.basis.elements[m] == 1.0)
        acc = x[tuple(support[0])]
        for idx in support[1:]:
            acc = acc + x[tuple(idx)]
            adds += 1
        term = kernel.alphas[m] * acc
        mults += 1
        if total is None:
            total = term
        else:
            total = total + term
            adds += 1
    return total, mults, adds


@pytest.mark.parametrize("make", [shifted_patch_basis, lambda: one_hot_basis(2, 2)])
def test_instrumented_costs_match_reported(make):
    basis = make()
    alphas = random_tensor(12, (basis.size,))
    k = CompositeKernel(basis, alphas)
    c, n = basis.kernel_shape[0], basis.kernel_shape[1]
    x = random_tensor(13, (c, n, n))
    value, mults, adds = composite_one_output_instrumented(x, k)
    counts = count_composite_ops(basis)
    assert mults == counts["mults_per_output"]
    assert adds == counts["adds_per_output"]
    want = conv(x, compose_kernel(k)[np.newaxis])[0, 0, 0]
    assert abs(value - want) <= 1e-10 * (1 + abs(want))


def test_basis_rejects_non_binary_entries():
    bad = np.full((1, 1, 2, 2), 0.5)
    with pytest.raises(BasisError, match="0 or 1"):
        CompositeBasis(bad)


def test_basis_rejects_empty_and_bad_rank():
    with pytest.raises(BasisError):
        CompositeBasis(np.zeros((0, 1, 3, 3)))
    with pytest.raises(BasisError):
        CompositeBasis(np.zeros((2, 3, 3)))


def test_kernel_rejects_alpha_length_mismatch():
    with pytest.raises(ShapeError):
        CompositeKernel(shifted_patch_basis(), np.ones(5))


def test_basis_elements_immutable():
    b = shifted_patch_basis()
    with pytest.raises(ValueError):
        b.elements[0, 0, 0, 0] = 0.0


def test_basis_round_trip(tmp_path):
    b = shifted_patch_basis()
    p = tmp_path / "basis.stcv"
    save_basis(p, b)
    back = load_basis(p)
    np.testing.assert_array_equal(back.elements, b.elements)
    assert back.size == 4


@settings(max_examples=40, deadline=None)
@given(
    m=st.integers(1, 6),
    c=st.integers(1, 2),
    n=st.integers(1, 3),
    seed=st.integers(0, 2**32),
)
def test_integer_rank_property(m, c, n, seed):
    bits = (random_tensor(seed, (m, c, n, n)) > 0).astype(np.float64)
    try:
        basis = CompositeBasis(bits)
    except BasisError:
        return
    flat = basis.elements.reshape(m, -1)
    assert check_linear_independence(basis) == np.linalg.matrix_rank(flat)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32), stride=st.integers(1, 2), pad=st.integers(0, 1))
def test_conv_composite_property(seed, stride, pad):
    basis = shifted_patch_basis()
    k = CompositeKernel(basis, random_tensor(seed, (4,)))
    x = random_tensor(seed + 1, (1, 6, 6))
    geom = ConvGeometry(stride=stride, padding=pad)
    want = conv(x, compose_kernel(k)[np.newaxis], geom)[0]
    got = conv_composite(x, k, geom)
    assert np.all(np.abs(got - want) <= 1e-10 * (1 + np.abs(want)))
