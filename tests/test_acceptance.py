"""End-to-end acceptance suite: one test per shipped guarantee.

Each test measures the quantity it guards, prints a single PASS/FAIL line
(visible with `pytest tests/test_acceptance.py -v -s`), and enforces the
stated tolerance and runtime budget.
"""

import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np

import structconv
from structconv.analyzer import (
    LayerSpec,
    NetworkSpecError,
    aggregate,
    count_ops_instrumented,
    layer_costs,
    parse_network_spec,
)
from structconv.composite import count_composite_ops
from structconv.structured import (
    StructuredConfig,
    decompose_conv_layer,
    forward_decomposed,
    forward_decomposed_linear,
    generate_structured_basis,
    load_decomposed_layer,
    reconstruct,
    save_decomposed_layer,
    structure_matrix,
    _reconstruct_stack,
)
from structconv.tensor import (
    ConvGeometry,
    conv,
    linear,
    random_tensor,
    read_tensor,
    write_tensor,
)
from structconv.training import (
    TrainingConfig,
    layer_residual,
    make_toy_dataset,
    sr_grad,
    train,
)
from structconv.cli import default_toy_model_spec

SWEEP_CONFIGS = [
    StructuredConfig(C, N, c, n)
    for C in (1, 3, 4, 8)
    for N in (1, 3, 5)
    for c in range(1, C + 1)
    for n in range(1, N + 1)
]
GEOMETRIES = [(s, p, d) for s in (1, 2) for p in (0, 1, 2) for d in (1, 2)]


def report(name, ok, detail):
    line = f"{name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def fixture_path(name):
    return os.path.join(os.path.dirname(structconv.__file__), "fixtures", name)


def rel_err(got, want):
    return float(np.max(np.abs(got - want)) / max(1.0, np.max(np.abs(want))))


def min_input_hw(n_kernel, stride, pad, dilation):
    # Smallest extent the geometry accepts, plus one stride of margin.
    base = dilation * (n_kernel - 1) + 1 - 2 * pad
    return max(base, 1) + stride


def test_acceptance_1_conv_decomposition_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    case = 0
    for cfg in SWEEP_CONFIGS:
        for s, p, d in GEOMETRIES:
            geom = ConvGeometry(stride=s, padding=p, dilation=d)
            hw = min_input_hw(cfg.N, s, p, d)
            for trial in range(5):
                seed = 7919 * case + trial
                alphas = np.array(random_tensor(seed, (3, cfg.c, cfg.n, cfg.n)))
                dense = _reconstruct_stack(alphas, cfg)
                layer = decompose_conv_layer(dense, cfg, geom)
                x = random_tensor(seed + 1, (cfg.C, hw, hw))
                worst = max(worst, rel_err(forward_decomposed(x, layer), conv(x, dense, geom)))
            case += 1
    elapsed = time.perf_counter() - t0
    report(
        "acceptance 1 conv equivalence",
        worst <= 1e-10 and elapsed < 60.0,
        f"{case} sweep cases x 5 seeds, max rel error {worst:.3e} <= 1e-10, {elapsed:.1f}s < 60s",
    )


def test_acceptance_2_linear_decomposition_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    cases = 0
    for q in range(1, 33):
        for r in range(1, q + 1):
            cfg = StructuredConfig(C=q, N=1, c=r, n=1)
            for p in range(1, 33):
                seed = 104729 * q + 491 * r + p
                rows = np.array(random_tensor(seed, (p, r, 1, 1)))
                dense = _reconstruct_stack(rows, cfg).reshape(p, q)
                layer = decompose_conv_layer(dense, cfg)
                x = random_tensor(seed + 1, (q,))
                worst = max(worst, rel_err(forward_decomposed_linear(x, layer), linear(dense, x)))
                cases += 1
    elapsed = time.perf_counter() - t0
    report(
        "acceptance 2 linear equivalence",
        worst <= 1e-10 and elapsed < 10.0,
        f"{cases} (P,Q,R) cases, max rel error {worst:.3e} <= 1e-10, {elapsed:.1f}s < 10s",
    )


def test_acceptance_3_projector_algebra():
    worst = 0.0
    for i, cfg in enumerate(SWEEP_CONFIGS):
        sm = structure_matrix(cfg)
        proj = sm.A @ sm.pinv
        worst = max(worst, float(np.max(np.abs(sm.pinv @ sm.A - np.eye(sm.A.shape[1])))))
        worst = max(worst, float(np.max(np.abs(proj @ proj - proj))))
        alpha = random_tensor(31 * i, (cfg.c, cfg.n, cfg.n))
        w = reconstruct(alpha, cfg).reshape(-1)
        worst = max(worst, float(np.max(np.abs(proj @ w - w))))
    report(
        "acceptance 3 projector algebra",
        worst <= 1e-10,
        f"{len(SWEEP_CONFIGS)} configs, max deviation {worst:.3e} <= 1e-10",
    )


def test_acceptance_4_cost_model_exact_and_amortized():
    t0 = time.perf_counter()
    checked = 0

    def check(spec):
        nonlocal checked
        r = layer_costs(spec)
        counts = count_ops_instrumented(spec, seed=13)
        assert counts["direct"] == {"mults": r.mults_before, "adds": r.adds_before}, spec
        assert counts["decomposed"] == {"mults": r.mults_after, "adds": r.adds_after}, spec
        checked += 1

    for cin in (1, 2, 4):
        for k in (1, 2, 3):
            for c in range(1, cin + 1):
                for n in range(1, k + 1):
                    for cout in (1, 2):
                        for s, p, d in ((1, 0, 1), (1, 1, 2), (2, 0, 1), (2, 1, 1), (1, 0, 2), (2, 1, 2)):
                            spec = LayerSpec(
                                index=1, kind="conv", cout=cout, cin=cin, k=k, c=c, n=n,
                                stride=s, pad=p, dilation=d, in_h=5, in_w=5,
                            )
                            try:
                                spec.out_hw
                            except NetworkSpecError:
                                continue
                            check(spec)
    for ch in (1, 4):
        for k, n in ((2, 1), (3, 2), (3, 3)):
            check(LayerSpec(index=1, kind="dwconv", cout=ch, cin=1, k=k, c=1, n=n,
                            stride=1, pad=1, in_h=5, in_w=5))
    for q, r in ((1, 1), (6, 3), (9, 9)):
        check(LayerSpec(index=1, kind="linear", cout=4, cin=q, k=1, c=r, n=1))

    # The pooled map is shared by all output channels, so adds per output
    # approach c*n*n - 1 as the channel count grows.
    per_output = {}
    for cout in (1, 16, 256):
        r = layer_costs(LayerSpec(index=1, kind="conv", cout=cout, cin=1, k=3, c=1, n=2,
                                  stride=1, pad=1, dilation=1, in_h=8, in_w=8))
        per_output[cout] = r.adds_after / (cout * r.out_h * r.out_w)
    check(LayerSpec(index=1, kind="conv", cout=16, cin=1, k=3, c=1, n=2,
                    stride=1, pad=1, dilation=1, in_h=8, in_w=8))
    floor = 3
    amortized = per_output[1] > per_output[16] > per_output[256] and per_output[256] <= floor * 1.02
    elapsed = time.perf_counter() - t0
    report(
        "acceptance 4 cost model",
        amortized and elapsed < 60.0,
        f"{checked} specs counted exactly; adds/output at 256 channels "
        f"{per_output[256]:.4f} within 2% of {floor}, {elapsed:.1f}s < 60s",
    )


def test_acceptance_5_reference_network_totals():
    t0 = time.perf_counter()
    layers = parse_network_spec(fixture_path("struct_mv2_a.json"))
    net = aggregate(layer_costs(s) for s in layers)
    before_ok = abs(net.params_before - 3.50e6) <= 0.05 * 3.50e6
    after_ok = abs(net.params_after - 2.62e6) <= 0.05 * 2.62e6
    ratios_ok = all(
        rep.mult_ratio == Fraction(spec.c * spec.n * spec.n, spec.cin * spec.k * spec.k)
        for spec, rep in zip(layers, net.layers)
        if spec.kind in ("conv", "pwconv")
    )
    elapsed = time.perf_counter() - t0
    report(
        "acceptance 5 reference network totals",
        before_ok and after_ok and ratios_ok and elapsed < 5.0,
        f"params {net.params_before} -> {net.params_after} (targets 3.50e6/2.62e6 "
        f"within 5%), conv mult ratios exact, {elapsed:.1f}s < 5s",
    )


def test_acceptance_6_composite_patch_costs():
    basis = generate_structured_basis(StructuredConfig(C=1, N=3, c=1, n=2))
    counts = count_composite_ops(basis)
    dense_adds = 1 * 3 * 3 - 1
    ok = counts == {"mults_per_output": 4, "adds_per_output": 15} and counts["adds_per_output"] > dense_adds
    report(
        "acceptance 6 composite patch costs",
        ok,
        f"4 shifted 2x2 patches -> {counts['mults_per_output']} mults, "
        f"{counts['adds_per_output']} adds per output (dense needs {dense_adds} adds)",
    )


def central_difference_grad(w, cfg, h=1e-5):
    g = np.zeros_like(w)
    it = np.nditer(w, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        wp, wm = w.copy(), w.copy()
        wp[idx] += h
        wm[idx] -= h
        g[idx] = (layer_residual(wp, cfg) - layer_residual(wm, cfg)) / (2 * h)
    return g


def test_acceptance_7_regularizer_gradient():
    t0 = time.perf_counter()
    cfgs = [
        StructuredConfig(1, 3, 1, 2), StructuredConfig(3, 3, 2, 2),
        StructuredConfig(4, 3, 2, 2), StructuredConfig(2, 5, 1, 3),
        StructuredConfig(8, 1, 4, 1), StructuredConfig(3, 4, 2, 3),
        StructuredConfig(4, 5, 2, 2), StructuredConfig(6, 3, 3, 2),
        StructuredConfig(2, 2, 1, 1), StructuredConfig(5, 3, 1, 3),
    ]
    worst = 0.0
    pairs = 0
    for trial in range(2):
        for i, cfg in enumerate(cfgs):
            w = np.array(random_tensor(5081 * trial + 97 * i, (2, cfg.C, cfg.N, cfg.N)))
            got = sr_grad(w, cfg)
            want = central_difference_grad(w, cfg)
            worst = max(worst, float(np.max(np.abs(got - want)) / np.max(np.abs(want))))
            pairs += 1
    elapsed = time.perf_counter() - t0
    report(
        "acceptance 7 regularizer gradient",
        worst <= 1e-4 and elapsed < 5.0,
        f"{pairs} random weight/config pairs, max rel error {worst:.3e} <= 1e-4, "
        f"{elapsed:.1f}s < 5s",
    )


def test_acceptance_8_training_scheme():
    t0 = time.perf_counter()
    spec = default_toy_model_spec()
    dataset = make_toy_dataset(3)

    def mean_final_residual(log):
        residuals = log.epochs[-1]["residuals"]
        return sum(residuals.values()) / len(residuals)

    finals = {}
    for lam in (0.0, 0.1, 1.0):
        cfg = TrainingConfig(lam=lam, epochs=30, seed=3, mode="regularized")
        _, log = train(spec, dataset, cfg)
        finals[lam] = (mean_final_residual(log), log)
    res_1, log_1 = finals[1.0]
    gap = abs(log_1.final_accuracy - log_1.final_accuracy_decomposed)
    monotone = finals[0.0][0] >= finals[0.1][0] >= finals[1.0][0]

    _, direct_log = train(spec, dataset, TrainingConfig(lam=0.0, epochs=30, seed=3, mode="direct"))
    direct_ok = all(
        r <= 1e-6 for rec in direct_log.epochs for r in rec["residuals"].values()
    )
    elapsed = time.perf_counter() - t0
    report(
        "acceptance 8 training scheme",
        res_1 < 0.05 and gap <= 0.02 and monotone and direct_ok and elapsed < 300.0,
        f"final residual at lambda 1.0 {res_1:.4f} < 0.05, accuracy gap {gap:.4f} <= 0.02, "
        f"residuals {finals[0.0][0]:.3f} >= {finals[0.1][0]:.3f} >= {res_1:.4f} monotone, "
        f"direct mode <= 1e-6 every epoch, {elapsed:.0f}s < 300s",
    )


def test_acceptance_9_round_trips_and_determinism(tmp_path):
    # Tensor container: bit-for-bit, including non-finite and denormal values.
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 1.8e308])
    arrays = [
        np.array(random_tensor(1, (3, 4, 5))),
        special.reshape(7, 1),
        np.array(random_tensor(2, (8,))),
    ]
    container_ok = True
    for i, arr in enumerate(arrays):
        path = str(tmp_path / f"t{i}.stcv")
        write_tensor(path, arr)
        back = read_tensor(path)
        container_ok &= back.shape == arr.shape and back.tobytes() == arr.tobytes()

    # Decomposed-layer files: coefficients survive bit-for-bit and the
    # reloaded layer reproduces the forward pass exactly.
    cfg = StructuredConfig(C=4, N=3, c=2, n=2)
    dense = _reconstruct_stack(np.array(random_tensor(3, (5, 2, 2, 2))), cfg)
    layer = decompose_conv_layer(dense, cfg, ConvGeometry(padding=1))
    save_decomposed_layer(str(tmp_path), "layer_rt", layer)
    reloaded = load_decomposed_layer(str(tmp_path / "layer_rt.json"))
    x = random_tensor(4, (4, 6, 6))
    layer_ok = (
        reloaded.alpha.tobytes() == layer.alpha.tobytes()
        and np.array_equal(forward_decomposed(x, reloaded), forward_decomposed(x, layer))
    )

    # CLI: identical seeds give byte-identical JSON; the shipped network
    # config verifies end to end.
    tiny = [
        {"kind": "conv", "cout": 4, "cin": 3, "k": 3, "c": 2, "n": 2, "stride": 2, "pad": 1},
        {"kind": "linear", "cout": 5, "cin": 4, "k": 1, "c": 2, "n": 1},
    ]
    cfg_path = tmp_path / "tiny.json"
    cfg_path.write_text(json.dumps(tiny), encoding="utf-8")
    runs = [
        subprocess.run(
            [sys.executable, "-m", "structconv", "verify", "--config", str(cfg_path),
             "--seed", "7", "--trials", "5", "--format", "json"],
            capture_output=True, text=True,
        )
        for _ in range(2)
    ]
    cli_ok = (
        runs[0].returncode == 0
        and runs[0].stdout == runs[1].stdout
        and json.loads(runs[0].stdout)["pass"] is True
    )
    fixture_run = subprocess.run(
        [sys.executable, "-m", "structconv", "verify", "--config",
         fixture_path("struct_mv2_a.json"), "--seed", "7", "--format", "json"],
        capture_output=True, text=True,
    )
    fixture_ok = (
        fixture_run.returncode == 0
        and json.loads(fixture_run.stdout)["max_rel_error"] <= 1e-10
    )
    report(
        "acceptance 9 round trips and determinism",
        container_ok and layer_ok and cli_ok and fixture_ok,
        "containers and layer files bit-exact, repeated CLI runs byte-identical, "
        "shipped network config verifies at seed 7",
    )
