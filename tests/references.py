"""Dense references for the structure operators, built in the tests from the
definitions and independent of the library's matrix-free route."""

import numpy as np


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
