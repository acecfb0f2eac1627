"""Dense references for the structure operators, built in the tests from the
definitions and independent of the library's matrix-free route, the seeded
generator as one vectorized pass, without blocks, and the helpers that more
than one test module shares."""

import os

import numpy as np

import structconv
from structconv.training import layer_residual


def fixture_path(name):
    # A fixture shipped inside the package.
    return os.path.join(os.path.dirname(structconv.__file__), "fixtures", name)


def rel_err(got, want):
    # Max absolute error over the larger of 1 and want's max magnitude.
    return float(np.max(np.abs(got - want)) / max(1.0, np.max(np.abs(want))))


def central_difference_grad(w, sm, h=1e-5):
    # The gradient of layer_residual(w, sm), entry by entry.
    w = np.asarray(w, dtype=np.float64)
    g = np.zeros_like(w)
    it = np.nditer(w, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        wp, wm = w.copy(), w.copy()
        wp[idx] += h
        wm[idx] -= h
        g[idx] = (layer_residual(wp, sm) - layer_residual(wm, sm)) / (2 * h)
    return g


def svd_pinv(a):
    # Pseudoinverse assembled by hand from a full SVD.
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    inv = np.where(s > 1e-12 * s[0], 1.0 / np.where(s > 0, s, 1.0), 0.0)
    return vt.T @ np.diag(inv) @ u.T


def loop_structure_matrix(cfg):
    # A built cuboid by cuboid: column (i, j, k) is the all-ones block with
    # low corner (i, j, k), flattened channel-major.
    wc, wn = cfg.C - cfg.c + 1, cfg.N - cfg.n + 1
    A = np.zeros((cfg.C, cfg.N, cfg.N, cfg.basis_size))
    m = 0
    for i in range(cfg.c):
        for j in range(cfg.n):
            for k in range(cfg.n):
                A[i : i + wc, j : j + wn, k : k + wn, m] = 1.0
                m += 1
    return A.reshape(-1, cfg.basis_size)


def dense_projector(cfg):
    # The orthogonal projector onto A's column span, A @ pinv(A).
    A = loop_structure_matrix(cfg)
    return A @ svd_pinv(A)


def one_pass_random_tensor(seed, shape):
    # SplitMix64 over all counters 1..n at once, with full-size temporaries:
    # the generator before it was blocked.
    golden = np.uint64(0x9E3779B97F4A7C15)
    mix1, mix2 = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)
    idx = np.arange(1, int(np.prod(shape)) + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        v = np.uint64(seed & 0xFFFFFFFFFFFFFFFF) + idx * golden
        v = (v ^ (v >> np.uint64(30))) * mix1
        v = (v ^ (v >> np.uint64(27))) * mix2
        v = v ^ (v >> np.uint64(31))
    u = (v >> np.uint64(11)).astype(np.float64) * 2.0**-53
    return (2.0 * u - 1.0).reshape(shape)
