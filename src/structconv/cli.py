"""Command-line surface: structconv {verify, analyze, decompose, train-toy}.

Exit codes: 0 success, 1 a check failed (equivalence, residual tolerance,
divergence), 2 usage/parse/config errors. Structured output goes to stdout
(a single JSON document with --format json, fixed-width text otherwise);
diagnostics go to stderr. Every source of randomness is seeded through flags,
so identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

import numpy as np

from . import analyzer, structured, tensor, training

_VERIFY_TOL = 1e-10


def _emit(args, payload, table_lines):
    if args.format == "json":
        sys.stdout.write(json.dumps(payload, sort_keys=True))
        sys.stdout.write("\n")
    else:
        for line in table_lines:
            sys.stdout.write(line + "\n")


def _verify_input_hw(spec):
    # Equivalence is independent of spatial extent, so keep inputs small:
    # the minimum valid extent for the geometry plus one stride of margin.
    base = spec.dilation * (spec.k - 1) + 1 - 2 * spec.pad
    return max(base, 1) + spec.stride


def _verify_layer(spec, seed, trials, corrupt):
    cfg, geom = spec.cfg, spec.geom
    worst = 0.0
    for t in range(trials):
        s = seed * 1000003 + spec.index * 7919 + t
        alphas = np.array(tensor.random_tensor(s, (spec.cout, cfg.c, cfg.n, cfg.n)))
        dense = structured._reconstruct_stack(alphas, cfg)
        if corrupt and t == 0:
            alphas[0, 0, 0, 0] += 1e-3
        if spec.kind == "linear":
            x = tensor.random_tensor(s + 500009, (spec.cin,))
            direct = tensor.linear(dense.reshape(spec.cout, spec.cin), x)
            alphas = alphas.reshape(spec.cout, spec.c)
        else:
            h = w = _verify_input_hw(spec)
            channels = spec.cout if spec.kind == "dwconv" else spec.cin
            x = tensor.random_tensor(s + 500009, (channels, h, w))
            direct = tensor.conv(x, dense, geom)
        pooled = structured.forward_decomposed(x, structured.decomposed_layer(alphas, cfg, geom))
        err = np.max(np.abs(direct - pooled)) / max(1.0, np.max(np.abs(direct)))
        worst = max(worst, float(err))
    return worst


def cmd_verify(args) -> int:
    if args.trials < 1:
        raise ValueError(f"--trials must be at least 1, got {args.trials}")
    layers = analyzer.parse_network_spec(args.config)
    errors = [
        _verify_layer(spec, args.seed, args.trials, args.corrupt_alpha and spec.index == 1)
        for spec in layers
    ]
    rows = [
        {"index": spec.index, "kind": spec.kind, "max_rel_error": err, "pass": err <= _VERIFY_TOL}
        for spec, err in zip(layers, errors)
    ]
    worst = max(errors)
    ok = worst <= _VERIFY_TOL
    payload = {
        "command": "verify",
        "seed": args.seed,
        "trials": args.trials,
        "tolerance": _VERIFY_TOL,
        "layers": rows,
        "max_rel_error": worst,
        "pass": ok,
    }
    lines = [f"{'layer':>5}  {'kind':<8}  {'max rel error':>14}  result"]
    for r in rows:
        lines.append(
            f"{r['index']:>5}  {r['kind']:<8}  {r['max_rel_error']:>14.3e}  "
            f"{'ok' if r['pass'] else 'FAIL'}"
        )
    lines.append(f"worst {worst:.3e} ({'ok' if ok else 'FAIL'} at tolerance {_VERIFY_TOL:.0e})")
    _emit(args, payload, lines)
    if not ok:
        print(f"verification failed: max relative error {worst:.3e}", file=sys.stderr)
        return 1
    return 0


def _ratio_fields(name, frac):
    return {name: float(frac), f"{name}_exact": f"{frac.numerator}/{frac.denominator}"}


def cmd_analyze(args) -> int:
    h, w = _parse_size(args.input_size)
    layers = analyzer.parse_network_spec(args.config, input_size=(h, w))
    reports = [analyzer.layer_costs(spec) for spec in layers]
    net = analyzer.aggregate(reports)
    payload = {
        "command": "analyze",
        "input_size": [h, w],
        "layers": [
            {
                "index": r.index,
                "kind": r.kind,
                "out_h": r.out_h,
                "out_w": r.out_w,
                "params_before": r.params_before,
                "params_after": r.params_after,
                "mults_before": r.mults_before,
                "mults_after": r.mults_after,
                "adds_before": r.adds_before,
                "adds_after": r.adds_after,
                **_ratio_fields("param_ratio", r.param_ratio),
                **_ratio_fields("mult_ratio", r.mult_ratio),
            }
            for r in net.layers
        ],
        "totals": {
            "params_before": net.params_before,
            "params_after": net.params_after,
            "mults_before": net.mults_before,
            "mults_after": net.mults_after,
            "adds_before": net.adds_before,
            "adds_after": net.adds_after,
            **_ratio_fields("param_ratio", net.param_ratio),
            **_ratio_fields("mult_ratio", net.mult_ratio),
            **_ratio_fields("add_ratio", net.add_ratio),
        },
    }
    head = (
        f"{'layer':>5}  {'kind':<8}  {'out':>9}  {'params':>22}  {'mults':>26}  {'adds':>26}"
    )
    lines = [head]
    for r in net.layers:
        lines.append(
            f"{r.index:>5}  {r.kind:<8}  {r.out_h:>4}x{r.out_w:<4}  "
            f"{r.params_before:>10} -> {r.params_after:<9}  "
            f"{r.mults_before:>12} -> {r.mults_after:<11}  "
            f"{r.adds_before:>12} -> {r.adds_after:<11}"
        )
    lines.append(
        f"totals  params {net.params_before} -> {net.params_after} "
        f"(x{1 / float(net.param_ratio):.2f} smaller), "
        f"mults {net.mults_before} -> {net.mults_after} "
        f"(x{1 / float(net.mult_ratio):.2f} fewer), "
        f"adds {net.adds_before} -> {net.adds_after}"
    )
    _emit(args, payload, lines)
    return 0


def _load_layer_weights(path, layers):
    if os.path.isdir(path):
        files = [os.path.join(path, f"layer_{s.index:03d}.stcv") for s in layers]
        missing = [f for f in files if not os.path.exists(f)]
        if missing:
            raise tensor.ContainerError(f"missing weight file {missing[0]}")
        return [tensor.read_tensor(f) for f in files]
    if len(layers) != 1:
        raise tensor.ShapeError(
            f"config has {len(layers)} layers; pass a directory of layer_NNN.stcv files"
        )
    return [tensor.read_tensor(path)]


def _expected_weight_shape(spec):
    # A depthwise layer has cin = 1, so it shares the conv layout.
    if spec.kind == "linear":
        return (spec.cout, spec.cin)
    return (spec.cout, spec.cin, spec.k, spec.k)


def _write_decomposed(out_dir, layers, weights):
    # cmd_decompose has checked every kernel's residual, so each layer is
    # built from its coefficients with no second check, and written before
    # the next is built. The layers are written into a temporary directory
    # beside out_dir and move into out_dir only once all of them exist, so a
    # failed command leaves no half-written output.
    parent = os.path.dirname(os.path.abspath(out_dir))
    os.makedirs(parent, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=".decompose-", dir=parent) as tmp:
        for spec, w in zip(layers, weights):
            cfg = spec.cfg
            alphas = structured.block_alphas(w.reshape(len(w), -1), cfg)
            if spec.kind != "linear":
                alphas = alphas.reshape(len(w), cfg.c, cfg.n, cfg.n)
            layer = structured.decomposed_layer(alphas, cfg, spec.geom)
            structured.save_decomposed_layer(tmp, f"layer_{spec.index:03d}", layer)
        os.makedirs(out_dir, exist_ok=True)
        for name in sorted(os.listdir(tmp)):
            os.replace(os.path.join(tmp, name), os.path.join(out_dir, name))


def cmd_decompose(args) -> int:
    if not (np.isfinite(args.tol) and args.tol >= 0.0):
        raise ValueError(f"--tol must be finite and >= 0, got {args.tol}")
    layers = analyzer.parse_network_spec(args.config)
    weights = _load_layer_weights(args.weights, layers)
    results = []
    worst = (None, 0.0)
    for spec, w in zip(layers, weights):
        expect = _expected_weight_shape(spec)
        if w.shape != expect:
            raise tensor.ShapeError(
                f"layer {spec.index}: weights shape {w.shape}, config says {expect}"
            )
        if not np.all(np.isfinite(w)):
            raise ValueError(f"layer {spec.index}: weights contain NaN or infinite values")
        residual = structured.worst_kernel_residual(w, spec.cfg)
        results.append({"index": spec.index, "kind": spec.kind, "residual": residual})
        if residual > worst[1]:
            worst = (spec.index, residual)
    ok = worst[1] <= args.tol
    if ok:
        _write_decomposed(args.out, layers, weights)
    payload = {
        "command": "decompose",
        "tolerance": args.tol,
        "out_dir": args.out,
        "layers": results,
        "worst_residual": worst[1],
        "worst_layer": worst[0],
        "pass": ok,
    }
    lines = [f"{'layer':>5}  {'kind':<8}  {'residual':>12}"]
    for r in results:
        lines.append(f"{r['index']:>5}  {r['kind']:<8}  {r['residual']:>12.3e}")
    if ok:
        lines.append(f"wrote {len(results)} layers to {args.out}")
    else:
        lines.append(f"no files written; worst layer {worst[0]} at residual {worst[1]:.3e}")
    _emit(args, payload, lines)
    if not ok:
        print(
            f"residual tolerance exceeded: layer {worst[0]} at {worst[1]:.3e} > {args.tol:.3e}",
            file=sys.stderr,
        )
        return 1
    return 0


def _check_log_path(path):
    # Checked before training, so that a bad path fails at once and not after
    # the last epoch.
    parent = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path):
        raise ValueError(f"--log {path} is a directory")
    if not os.path.isdir(parent):
        raise ValueError(f"--log directory {parent} does not exist")
    if not os.access(parent, os.W_OK):
        raise ValueError(f"--log directory {parent} is not writable")


def cmd_train_toy(args) -> int:
    lam = args.lam
    if lam is None:
        lam = 0.1 if args.mode == "regularized" else 0.0
    config = training.TrainingConfig(
        lam=lam,
        lr=args.lr,
        epochs=args.epochs,
        batch_size=args.batch_size,
        seed=args.seed,
        mode=args.mode,
    )
    if args.log:
        _check_log_path(args.log)
    dataset = training.make_toy_dataset(args.seed)
    model, log = training.train(default_toy_model_spec(), dataset, config)
    if args.log:
        training.save_train_log(args.log, log)
    final = log.epochs[-1]
    residuals = final["residuals"]
    mean_residual = sum(residuals.values()) / len(residuals)
    payload = {
        "command": "train_toy",
        "mode": config.mode,
        "lam": config.lam,
        "epochs": config.epochs,
        "seed": config.seed,
        "final_task_loss": final["task_loss"],
        "final_mean_residual": mean_residual,
        "accuracy": log.final_accuracy,
        "accuracy_decomposed": log.final_accuracy_decomposed,
    }
    lines = [
        f"mode {config.mode}, lambda {config.lam:g}, {config.epochs} epochs, seed {config.seed}",
        f"final task loss {final['task_loss']:.4f}, mean residual {mean_residual:.4f}",
        f"accuracy {log.final_accuracy:.4f} -> decomposed {log.final_accuracy_decomposed:.4f}",
    ]
    _emit(args, payload, lines)
    return 0


def default_toy_model_spec() -> training.ToyModelSpec:
    """The stock student: two structured convs, a structured depthwise stage,
    and a structured classifier head."""
    return training.ToyModelSpec(
        layers=(
            training.Conv(out_channels=8, kernel=3, c=2, n=2, stride=1, padding=1),
            training.Relu(),
            training.Conv(out_channels=16, kernel=3, c=4, n=2, stride=2, padding=1),
            training.Relu(),
            training.DepthwiseConv(kernel=3, n=2, stride=1, padding=1),
            training.Relu(),
            training.GlobalAvgPool(),
            training.Linear(out_features=4, R=8),
        ),
        input_shape=(3, 8, 8),
        num_classes=4,
    )


def _parse_size(text):
    parts = text.lower().split("x")
    if len(parts) != 2:
        raise ValueError(f"input size must look like 224x224, got {text!r}")
    return int(parts[0]), int(parts[1])


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="structconv",
        description="Structured convolution toolkit: verify, analyze, decompose, train-toy.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check pooled-path equivalence on a network config")
    p.add_argument("--config", required=True, help="network config JSON")
    p.add_argument("--seed", required=True, type=int, help="base seed for weights and inputs")
    p.add_argument("--trials", type=int, default=25, help="random trials per layer")
    p.add_argument("--format", choices=("json", "table"), default="table")
    p.add_argument("--corrupt-alpha", action="store_true", help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("analyze", help="exact op/param counts for a network config")
    p.add_argument("--config", required=True, help="network config JSON")
    p.add_argument("--input-size", default="224x224", help="input spatial size, HxW")
    p.add_argument("--format", choices=("json", "table"), default="table")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("decompose", help="project weights and write decomposed layers")
    p.add_argument("--weights", required=True, help=".stcv file (single layer) or directory of layer_NNN.stcv")
    p.add_argument("--config", required=True, help="network config JSON")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--tol", type=float, default=1e-6, help="residual tolerance")
    p.add_argument("--format", choices=("json", "table"), default="table")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("train-toy", help="train the toy model on the synthetic task")
    p.add_argument("--mode", choices=("regularized", "direct", "plain"), default="regularized")
    p.add_argument("--lambda", dest="lam", type=float, default=None, help="residual weight")
    p.add_argument("--epochs", type=int, default=30)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--lr", type=float, default=0.3)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--log", default=None, help="write per-epoch records (JSONL) here")
    p.add_argument("--format", choices=("json", "table"), default="table")
    p.set_defaults(func=cmd_train_toy)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (structured.ResidualError, training.DivergenceError) as e:
        print(f"check failed: {e}", file=sys.stderr)
        return 1
    except (
        analyzer.NetworkSpecError,
        structured.ConfigError,
        tensor.ContainerError,
        tensor.ShapeError,
        tensor.GeometryError,
        training.DegenerateWeightError,
        ValueError,
        OSError,
    ) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
