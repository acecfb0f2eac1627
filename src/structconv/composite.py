"""Composite kernels: linear combinations of binary basis tensors.

A composite kernel over a C x N x N grid is W = sum_m alpha_m * B_m where each
B_m is a binary (0/1) tensor and the B_m are linearly independent. Convolving
with W then only needs one multiplication per basis element per output: first
sum the input under each B_m's support, then scale and accumulate. The op
counts for that evaluation strategy are what count_composite_ops reports.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import ConvGeometry, ShapeError, conv


class BasisError(ValueError):
    """Basis tensors violate the binary/shape/independence contract."""


@dataclass(frozen=True)
class CompositeBasis:
    """Stack of M binary basis tensors, shape (M, C, N_h, N_w)."""

    elements: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.elements, dtype=np.float64)
        if e.ndim != 4:
            raise BasisError(f"basis stack must be rank 4 (M x C x N x N), got rank {e.ndim}")
        if e.shape[0] < 1:
            raise BasisError("basis must contain at least one element")
        if not np.all((e == 0.0) | (e == 1.0)):
            raise BasisError("basis entries must be 0 or 1")
        e = e.copy()
        e.flags.writeable = False
        object.__setattr__(self, "elements", e)

    @property
    def size(self) -> int:
        return self.elements.shape[0]

    @property
    def kernel_shape(self) -> tuple[int, int, int]:
        return self.elements.shape[1:]


@dataclass(frozen=True)
class CompositeKernel:
    basis: CompositeBasis
    alphas: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.alphas, dtype=np.float64)
        if a.shape != (self.basis.size,):
            raise ShapeError(
                f"need {self.basis.size} coefficients for this basis, got shape {a.shape}"
            )
        a = a.copy()
        a.flags.writeable = False
        object.__setattr__(self, "alphas", a)


def _integer_rank(matrix) -> int:
    # Exact rank over the rationals via fraction-free elimination on Python
    # ints. Entries here are 0/1 so everything stays exact and small.
    rows = [[int(v) for v in row] for row in matrix]
    if not rows:
        return 0
    m, ncols = len(rows), len(rows[0])
    rank = 0
    for col in range(ncols):
        piv = next((r for r in range(rank, m) if rows[r][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        prow = rows[rank]
        pval = prow[col]
        for r in range(rank + 1, m):
            rv = rows[r][col]
            if rv != 0:
                rows[r] = [pval * a - rv * b for a, b in zip(rows[r], prow)]
        rank += 1
        if rank == m:
            break
    return rank


def check_linear_independence(basis: CompositeBasis) -> int:
    """Exact rank of the basis (elements flattened to rows of a 0/1 matrix).

    Computed with integer Gaussian elimination, so the answer carries no
    floating-point tolerance. A valid basis has rank == size.
    """
    flat = basis.elements.reshape(basis.size, -1)
    return _integer_rank(flat)


def compose_kernel(kernel: CompositeKernel) -> np.ndarray:
    """Materialize the dense kernel sum_m alpha_m * B_m."""
    return np.einsum("m,mcij->cij", kernel.alphas, kernel.basis.elements)


def conv_composite(x, kernel: CompositeKernel, geom: ConvGeometry = ConvGeometry()):
    """Convolve one C x H x W map via the composite evaluation: per-support
    sums, then scale.

    Each basis element's support sum is evaluated independently (no sharing
    across elements) and results accumulate in ascending element order; that
    fixed order makes the rounding, and therefore the output bytes,
    reproducible.
    """
    out = None
    for m in range(kernel.basis.size):
        support_sum = conv(x, kernel.basis.elements[m][np.newaxis], geom)[0]
        term = kernel.alphas[m] * support_sum
        out = term if out is None else out + term
    return out


def count_composite_ops(basis: CompositeBasis) -> dict[str, int]:
    """Per-output-element op counts of the composite evaluation.

    One multiplication per basis element; summing element m's support takes
    popcount(B_m) - 1 adds, accumulating the M scaled sums takes M - 1 more,
    for sum_m popcount(B_m) - 1 adds total.
    """
    supports = [int(np.count_nonzero(b)) for b in basis.elements]
    return {
        "mults_per_output": basis.size,
        "adds_per_output": sum(supports) - 1,
    }
