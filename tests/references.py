"""Dense references for the structure operators, built in the tests from the
definitions and independent of the library's matrix-free route, the seeded
generator as one vectorized pass, without blocks, the one loop conv and loop
pool, with the instrumented op counter built on them, and the helpers that
more than one test module shares."""

import os

import numpy as np

import structconv
from structconv.composite import CompositeBasis
from structconv.structured import reconstruct
from structconv.tensor import ConvGeometry, random_tensor
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


def _padded(x, geom, kh, kw):
    # x zero-padded by geom, and the output extents of a kh x kw window on it.
    c_in, h, w = x.shape
    (sh, sw), (ph, pw), (dh, dw) = geom.stride, geom.padding, geom.dilation
    xp = np.zeros((c_in, h + 2 * ph, w + 2 * pw))
    xp[:, ph : ph + h, pw : pw + w] = x
    ho = (h + 2 * ph - dh * (kh - 1) - 1) // sh + 1
    wo = (w + 2 * pw - dw * (kw - 1) - 1) // sw + 1
    return xp, ho, wo


def conv_loops(x, kernel, geom, counter=None):
    # Independent reference: nothing vectorized, every index written out.
    # Each output is its K taps' sum from the first term, so counter, a
    # {"mults", "adds"} dict if given, gains K multiplies and K - 1 adds per
    # output, zero padding's included.
    c_out, c_k, kh, kw = kernel.shape
    (sh, sw), _, (dh, dw) = geom.stride, geom.padding, geom.dilation
    xp, ho, wo = _padded(x, geom, kh, kw)
    y = np.zeros((c_out, ho, wo))
    per_g_out = c_out // geom.groups
    mults = adds = 0
    for o in range(c_out):
        base = (o // per_g_out) * c_k
        for i in range(ho):
            for j in range(wo):
                acc = None
                for ck in range(c_k):
                    for u in range(kh):
                        for v in range(kw):
                            term = xp[base + ck, i * sh + u * dh, j * sw + v * dw] * kernel[o, ck, u, v]
                            mults += 1
                            if acc is None:
                                acc = term
                            else:
                                acc += term
                                adds += 1
                y[o, i, j] = acc
    if counter is not None:
        counter["mults"] += mults
        counter["adds"] += adds
    return y


def pool_loops(x, pool_dims, geom, counter=None):
    # The sum pool as conv_loops sums: a K-entry window takes K - 1 adds.
    kc, kh, kw = pool_dims
    (sh, sw), _, (dh, dw) = geom.stride, geom.padding, geom.dilation
    xp, ho, wo = _padded(x, geom, kh, kw)
    y = np.zeros((x.shape[0] - kc + 1, ho, wo))
    adds = 0
    for t in range(x.shape[0] - kc + 1):
        for i in range(ho):
            for j in range(wo):
                acc = None
                for ck in range(kc):
                    for u in range(kh):
                        for v in range(kw):
                            term = xp[t + ck, i * sh + u * dh, j * sw + v * dw]
                            if acc is None:
                                acc = term
                            else:
                                acc += term
                                adds += 1
                y[t, i, j] = acc
    if counter is not None:
        counter["adds"] += adds
    return y


MAX_INSTRUMENTED = 10**6


def count_ops_instrumented(spec, seed=0):
    """Run a layer's dense and pooled paths through the counted loop pair on
    seeded structured weights and one seeded input, check that they agree
    within 1e-10, and return {"direct": ..., "decomposed": ...} tallies of
    {"mults", "adds"}. Guarded to small layers; layer_costs counts real ones.
    A depthwise layer runs as one grouped conv, a linear layer as a conv on
    its (cin, 1, 1) map."""
    (h, w), (ho, wo) = spec.in_hw, spec.out_hw
    work = spec.cout * spec.cin * spec.k * spec.k * max(h * w, ho * wo)
    if work > MAX_INSTRUMENTED:
        raise ValueError(f"problem too large to instrument ({work} > {MAX_INSTRUMENTED})")
    cfg, geom = spec.cfg, spec.geom
    alphas = random_tensor(seed, (spec.cout, cfg.c, cfg.n, cfg.n))
    channels = spec.cout if spec.kind == "dwconv" else spec.cin
    x = random_tensor(seed + 1, (channels, h, w))
    direct, decomposed = {"mults": 0, "adds": 0}, {"mults": 0, "adds": 0}
    y_direct = conv_loops(x, reconstruct(alphas, cfg), geom, direct)
    pool_geom = ConvGeometry(padding=geom.padding, dilation=geom.dilation)
    pooled = pool_loops(x, cfg.pool_dims, pool_geom, decomposed)
    small_geom = ConvGeometry(geom.stride, 0, geom.dilation, geom.groups)
    y_decomp = conv_loops(pooled, alphas, small_geom, decomposed)
    err = rel_err(y_decomp, y_direct)
    if err > 1e-10:
        raise RuntimeError(f"instrumented paths disagree (relative error {err:.3e})")
    return {"direct": direct, "decomposed": decomposed}


def structured_basis(cfg):
    # The c*n*n shifted all-ones cuboids in lexicographic (i, j, k) order:
    # the library's reconstruct of an identity.
    eye = np.eye(cfg.basis_size).reshape(-1, cfg.c, cfg.n, cfg.n)
    return CompositeBasis(reconstruct(eye, cfg))
