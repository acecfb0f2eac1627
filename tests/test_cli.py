import json
import os
import subprocess
import sys
import tempfile
import tracemalloc

import numpy as np
import pytest

from structconv import cli, structured, tensor, training
from structconv.analyzer import parse_network_spec
from structconv.structured import (
    StructuredConfig,
    forward_decomposed,
    load_decomposed_layer,
    reconstruct,
)
from structconv.tensor import ConvGeometry, conv, linear, random_tensor, write_tensor
from references import fixture_path

TINY_NET = [
    {"kind": "conv", "cout": 4, "cin": 3, "k": 3, "c": 2, "n": 2, "stride": 2, "pad": 1},
    {"kind": "dwconv", "cout": 4, "cin": 1, "k": 3, "c": 1, "n": 2, "pad": 1},
    {"kind": "pwconv", "cout": 6, "cin": 4, "k": 1, "c": 3, "n": 1},
    {"kind": "linear", "cout": 5, "cin": 6, "k": 1, "c": 2, "n": 1},
]


def run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "structconv", *argv], capture_output=True, text=True
    )


def write_config(tmp_path, layers=TINY_NET, name="net.json"):
    path = tmp_path / name
    path.write_text(json.dumps(layers), encoding="utf-8")
    return str(path)


def structured_weights(spec, seed):
    # Dense weights that are exactly structured, built from random coefficients.
    if spec["kind"] == "linear":
        cfg = StructuredConfig(C=spec["cin"], N=1, c=spec["c"], n=1)
        rows = np.array(random_tensor(seed, (spec["cout"], spec["c"], 1, 1)))
        return reconstruct(rows, cfg).reshape(spec["cout"], spec["cin"])
    if spec["kind"] == "dwconv":
        cfg = StructuredConfig(C=1, N=spec["k"], c=1, n=spec["n"])
        alphas = np.array(random_tensor(seed, (spec["cout"], 1, spec["n"], spec["n"])))
        return reconstruct(alphas, cfg)
    cfg = StructuredConfig(C=spec["cin"], N=spec["k"], c=spec["c"], n=spec["n"])
    alphas = np.array(random_tensor(seed, (spec["cout"], spec["c"], spec["n"], spec["n"])))
    return reconstruct(alphas, cfg)


def write_weight_dir(tmp_path, layers=TINY_NET, seed=5):
    wdir = tmp_path / "weights"
    wdir.mkdir()
    for i, spec in enumerate(layers, start=1):
        write_tensor(str(wdir / f"layer_{i:03d}.stcv"), structured_weights(spec, seed + i))
    return str(wdir)


# verify

def test_verify_passes_on_tiny_net(tmp_path):
    cfg = write_config(tmp_path)
    r = run_cli("verify", "--config", cfg, "--seed", "7", "--trials", "5",
                "--format", "json")
    assert r.returncode == 0, r.stderr
    payload = json.loads(r.stdout)
    assert payload["pass"] is True
    assert payload["max_rel_error"] <= 1e-10
    assert [row["index"] for row in payload["layers"]] == [1, 2, 3, 4]
    assert all(row["pass"] for row in payload["layers"])


def test_verify_corrupted_alpha_fails(tmp_path):
    cfg = write_config(tmp_path)
    r = run_cli("verify", "--config", cfg, "--seed", "7", "--trials", "5",
                "--format", "json", "--corrupt-alpha")
    assert r.returncode == 1
    assert "verification failed" in r.stderr
    payload = json.loads(r.stdout)
    assert payload["pass"] is False
    assert payload["layers"][0]["max_rel_error"] > 1e-10


def test_verify_constraint_violation_exits_2(tmp_path):
    bad = [dict(TINY_NET[0], c=5)]  # c exceeds cin
    cfg = write_config(tmp_path, bad)
    r = run_cli("verify", "--config", cfg, "--seed", "7")
    assert r.returncode == 2
    assert "layer 1" in r.stderr and "exceeds" in r.stderr
    assert r.stdout == ""


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_verify_rejects_trials_below_one(tmp_path, trials):
    cfg = write_config(tmp_path)
    r = run_cli("verify", "--config", cfg, "--seed", "7", "--trials", trials,
                "--format", "json")
    assert r.returncode == 2
    assert "--trials" in r.stderr
    assert r.stdout == ""


def test_verify_missing_config_exits_2(tmp_path):
    r = run_cli("verify", "--config", str(tmp_path / "nope.json"), "--seed", "7")
    assert r.returncode == 2
    assert "error:" in r.stderr


def test_verify_json_deterministic(tmp_path):
    cfg = write_config(tmp_path)
    runs = [run_cli("verify", "--config", cfg, "--seed", "11", "--trials", "3",
                    "--format", "json") for _ in range(2)]
    assert runs[0].stdout == runs[1].stdout
    json.loads(runs[0].stdout)  # a single valid document


# analyze

def test_analyze_fixture_totals():
    r = run_cli("analyze", "--config", fixture_path("struct_mv2_a.json"),
                "--input-size", "224x224", "--format", "json")
    assert r.returncode == 0, r.stderr
    payload = json.loads(r.stdout)
    totals = payload["totals"]
    assert totals["params_before"] == 3469760
    assert totals["params_after"] == 2586560
    assert abs(totals["params_after"] - 2.62e6) <= 0.05 * 2.62e6
    assert len(payload["layers"]) == 53


def test_analyze_identity_config_reports_unit_ratios(tmp_path):
    identity = [
        {"kind": "conv", "cout": 4, "cin": 3, "k": 3, "c": 3, "n": 3, "pad": 1},
        {"kind": "pwconv", "cout": 2, "cin": 4, "k": 1, "c": 4, "n": 1},
    ]
    cfg = write_config(tmp_path, identity)
    r = run_cli("analyze", "--config", cfg, "--input-size", "8x8", "--format", "json")
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    for row in payload["layers"] + [payload["totals"]]:
        assert row["param_ratio"] == 1.0
        assert row["param_ratio_exact"] == "1/1"
        assert row["mult_ratio"] == 1.0


def test_analyze_table_output(tmp_path):
    cfg = write_config(tmp_path)
    r = run_cli("analyze", "--config", cfg, "--input-size", "8x8")
    assert r.returncode == 0
    lines = r.stdout.strip().splitlines()
    assert len(lines) == len(TINY_NET) + 2  # header, one row per layer, totals
    assert lines[0].lstrip().startswith("layer")
    assert lines[-1].startswith("totals")


def test_analyze_json_deterministic(tmp_path):
    cfg = write_config(tmp_path)
    a = run_cli("analyze", "--config", cfg, "--input-size", "16x16", "--format", "json")
    b = run_cli("analyze", "--config", cfg, "--input-size", "16x16", "--format", "json")
    assert a.stdout == b.stdout


def test_analyze_bad_input_size_exits_2(tmp_path):
    cfg = write_config(tmp_path)
    r = run_cli("analyze", "--config", cfg, "--input-size", "224")
    assert r.returncode == 2
    assert "input size" in r.stderr


@pytest.mark.parametrize("size", ["224x", "2.5x3", "x224", "1x2x3"])
def test_analyze_non_integer_input_size_exits_2(tmp_path, size):
    cfg = write_config(tmp_path)
    r = run_cli("analyze", "--config", cfg, "--input-size", size)
    assert r.returncode == 2
    assert r.stderr == f"error: input size must look like 224x224, got {size!r}\n"


# decompose

def test_decompose_round_trip(tmp_path):
    cfg = write_config(tmp_path)
    wdir = write_weight_dir(tmp_path)
    out = tmp_path / "decomposed"
    r = run_cli("decompose", "--weights", wdir, "--config", cfg,
                "--out", str(out), "--format", "json")
    assert r.returncode == 0, r.stderr
    payload = json.loads(r.stdout)
    assert payload["pass"] is True
    assert payload["worst_residual"] <= 1e-10
    assert all((out / f"layer_{i:03d}.json").exists() for i in range(1, 5))

    # The written layers must reproduce the dense forward pass.
    for i, spec in enumerate(TINY_NET, start=1):
        dense = structured_weights(spec, 5 + i)
        layer = load_decomposed_layer(str(out / f"layer_{i:03d}.json"))
        if spec["kind"] == "linear":
            x = random_tensor(900 + i, (spec["cin"],))
            want = linear(dense, x)
            got = forward_decomposed(x, layer)
        elif spec["kind"] == "dwconv":
            x = random_tensor(900 + i, (spec["cout"], 6, 6))
            geom = ConvGeometry(stride=spec.get("stride", 1), padding=spec.get("pad", 0),
                                groups=spec["cout"])
            want = conv(x, dense, geom)
            got = forward_decomposed(x, layer)
        else:
            x = random_tensor(900 + i, (spec["cin"], 6, 6))
            geom = ConvGeometry(stride=spec.get("stride", 1), padding=spec.get("pad", 0))
            want = conv(x, dense, geom)
            got = forward_decomposed(x, layer)
        err = np.max(np.abs(want - got)) / max(1.0, np.max(np.abs(want)))
        assert err <= 1e-10


def test_decompose_single_file_mode(tmp_path):
    cfg = write_config(tmp_path, [TINY_NET[0]])
    wfile = tmp_path / "w.stcv"
    write_tensor(str(wfile), structured_weights(TINY_NET[0], 21))
    out = tmp_path / "out"
    r = run_cli("decompose", "--weights", str(wfile), "--config", cfg,
                "--out", str(out), "--format", "json")
    assert r.returncode == 0, r.stderr
    assert (out / "layer_001.json").exists()
    assert (out / "layer_001_alpha.stcv").exists()


def test_decompose_unstructured_weights_fail(tmp_path):
    cfg = write_config(tmp_path, [TINY_NET[0]])
    wfile = tmp_path / "w.stcv"
    write_tensor(str(wfile), np.array(random_tensor(3, (4, 3, 3, 3))))
    out = tmp_path / "out"
    r = run_cli("decompose", "--weights", str(wfile), "--config", cfg,
                "--out", str(out), "--format", "json")
    assert r.returncode == 1
    assert "residual tolerance exceeded" in r.stderr
    payload = json.loads(r.stdout)
    assert payload["pass"] is False
    assert payload["worst_layer"] == 1
    assert not out.exists() or not any(out.iterdir())  # nothing written


def test_decompose_non_finite_weights_exit_2(tmp_path):
    cfg = write_config(tmp_path)
    wdir = write_weight_dir(tmp_path)
    w = structured_weights(TINY_NET[2], 8)
    w[4, 1, 0, 0] = np.nan
    write_tensor(os.path.join(wdir, "layer_003.stcv"), w)
    out = tmp_path / "out"
    r = run_cli("decompose", "--weights", wdir, "--config", cfg,
                "--out", str(out), "--format", "json")
    assert r.returncode == 2
    assert "layer 3" in r.stderr
    assert r.stdout == ""
    assert not out.exists()


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1"])
def test_decompose_rejects_bad_tolerance(tmp_path, tol):
    cfg = write_config(tmp_path)
    wdir = write_weight_dir(tmp_path)
    out = tmp_path / "out"
    r = run_cli("decompose", "--weights", wdir, "--config", cfg,
                "--out", str(out), f"--tol={tol}", "--format", "json")
    assert r.returncode == 2
    assert "--tol" in r.stderr
    assert r.stdout == ""
    assert not out.exists()


def test_decompose_failed_write_leaves_no_output(tmp_path, monkeypatch, capsys):
    cfg = write_config(tmp_path)
    wdir = write_weight_dir(tmp_path)
    save = structured.save_decomposed_layer
    calls = []

    def failing_save(out_dir, name, layer):
        calls.append(name)
        if len(calls) == 3:
            raise OSError("disk full")
        return save(out_dir, name, layer)

    monkeypatch.setattr(structured, "save_decomposed_layer", failing_save)
    out = tmp_path / "out"
    rc = cli.main(["decompose", "--weights", wdir, "--config", cfg, "--out", str(out)])
    assert rc == 2
    assert "disk full" in capsys.readouterr().err
    assert len(calls) == 3
    assert not out.exists() or not any(out.iterdir())
    assert sorted(os.listdir(tmp_path)) == ["net.json", "weights"]


def test_decompose_evaluates_each_kernel_once(tmp_path, monkeypatch, capsys):
    # One read of each weight file, and one residual evaluation per layer,
    # over all of its kernels, which also gives the coefficients: one class
    # residual per band of each layer for the norms, the first band's shared
    # with the coefficients, one more per later band for the coefficients,
    # and no block_alphas call while the layers are built and written.
    cfg = write_config(tmp_path)
    wdir = write_weight_dir(tmp_path)
    read = tensor.read_tensor
    evaluate = structured._worst_block_residual
    class_residual = structured._class_residual
    reads, kernels, bands = [], [], []

    def spy_read(path):
        reads.append(path)
        return read(path)

    def spy(flat, cfg, *rest):
        kernels.append(len(flat))
        return evaluate(flat, cfg, *rest)

    def count_bands(x, k, axis):
        bands.append(k)
        return class_residual(x, k, axis)

    def no_second_solve(flat, cfg):
        raise AssertionError("block_alphas called")

    monkeypatch.setattr(tensor, "read_tensor", spy_read)
    monkeypatch.setattr(structured, "_worst_block_residual", spy)
    monkeypatch.setattr(structured, "_class_residual", count_bands)
    monkeypatch.setattr(structured, "block_alphas", no_second_solve)
    out = tmp_path / "out"
    rc = cli.main(["decompose", "--weights", wdir, "--config", cfg, "--out", str(out)])
    assert rc == 0, capsys.readouterr().err
    assert reads == [os.path.join(wdir, f"layer_{i:03d}.stcv") for i in range(1, len(TINY_NET) + 1)]
    assert kernels == [spec["cout"] for spec in TINY_NET]
    specs = parse_network_spec(cfg)
    assert len(bands) == sum(2 * len(structured._bands(spec.cfg)) - 1 for spec in specs) == 10
    assert all((out / f"layer_{i:03d}.json").exists() for i in range(1, len(TINY_NET) + 1))


def test_decompose_memory_holds_one_layer(tmp_path):
    # The tracemalloc peak of decompose over 8 equal layers stays near the
    # peak over one of them, and below the 8 layers' weights together, which
    # a command that reads every layer before it projects any exceeds.
    spec = {"kind": "pwconv", "cout": 256, "cin": 256, "k": 1, "c": 128, "n": 1}

    def peak(count):
        root = tmp_path / f"net{count}"
        root.mkdir()
        cfg = write_config(root, [spec] * count)
        wdir = write_weight_dir(root, [spec] * count)
        tracemalloc.start()
        try:
            rc = cli.main(["decompose", "--weights", wdir, "--config", cfg,
                           "--out", str(root / "out"), "--format", "json"])
            got = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 0
        return got

    weights = 256 * 256 * 8
    one, eight = peak(1), peak(8)
    assert one < 4 * weights
    assert eight <= one + weights // 4
    assert eight < 8 * weights


def _tree(path):
    return sorted(os.path.relpath(os.path.join(d, f), path)
                  for d, dirs, files in os.walk(path) for f in dirs + files)


def test_decompose_truncated_last_layer_leaves_nothing(tmp_path, capsys):
    # Layers 1 to 3 are decomposed and saved before layer 4 is read; its
    # truncated container still exits 2 with the container's own message and
    # leaves no output, no temporary directory and no created parent.
    cfg = write_config(tmp_path)
    wdir = write_weight_dir(tmp_path)
    last = os.path.join(wdir, "layer_004.stcv")
    with open(last, "rb") as f:
        data = f.read()
    with open(last, "wb") as f:
        f.write(data[:-8])
    with pytest.raises(tensor.ContainerError) as e:
        tensor.read_tensor(last)
    before = _tree(tmp_path)
    out = tmp_path / "made" / "by" / "out"
    rc = cli.main(["decompose", "--weights", wdir, "--config", cfg, "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err == f"error: {e.value}\n"
    assert captured.out == ""
    assert _tree(tmp_path) == before


def test_decompose_residual_failure_at_first_layer_reports_every_layer(tmp_path, monkeypatch, capsys):
    cfg = write_config(tmp_path)
    wdir = write_weight_dir(tmp_path)
    w = structured_weights(TINY_NET[0], 6)
    w[1, 0, 0, 0] += 0.5
    write_tensor(os.path.join(wdir, "layer_001.stcv"), w)
    saved = []
    monkeypatch.setattr(structured, "save_decomposed_layer", lambda *a: saved.append(a))
    before = _tree(tmp_path)
    rc = cli.main(["decompose", "--weights", wdir, "--config", cfg,
                   "--out", str(tmp_path / "out"), "--format", "json"])
    captured = capsys.readouterr()
    assert rc == 1
    payload = json.loads(captured.out)
    assert [r["index"] for r in payload["layers"]] == [1, 2, 3, 4]
    assert payload["layers"][0]["residual"] > 1e-3
    assert all(r["residual"] <= 1e-12 for r in payload["layers"][1:])
    assert (payload["pass"], payload["worst_layer"]) == (False, 1)
    assert "residual tolerance exceeded: layer 1" in captured.err
    assert saved == []
    assert _tree(tmp_path) == before


@pytest.mark.parametrize("failing", [None, 3])
def test_decompose_unwritable_staging_reports_every_residual(tmp_path, monkeypatch, capsys, failing):
    # The temporary directory is made at the first save. If it cannot be
    # made, the layers are still swept: a run with a failing layer reports
    # every residual and exits 1, and only a run in which every layer passes
    # reports the directory's error.
    cfg = write_config(tmp_path)
    wdir = write_weight_dir(tmp_path)
    if failing:
        w = structured_weights(TINY_NET[failing - 1], 6)
        w[0, 0, 0, 0] += 0.5
        write_tensor(os.path.join(wdir, f"layer_{failing:03d}.stcv"), w)

    def unwritable(*args, **kwargs):
        raise PermissionError(13, "Permission denied", str(tmp_path))

    monkeypatch.setattr(tempfile, "mkdtemp", unwritable)
    before = _tree(tmp_path)
    rc = cli.main(["decompose", "--weights", wdir, "--config", cfg,
                   "--out", str(tmp_path / "made" / "out"), "--format", "json"])
    captured = capsys.readouterr()
    assert _tree(tmp_path) == before
    if failing is None:
        assert rc == 2
        assert captured.err == f"error: [Errno 13] Permission denied: '{tmp_path}'\n"
        assert captured.out == ""
        return
    assert rc == 1
    payload = json.loads(captured.out)
    assert [r["index"] for r in payload["layers"]] == [1, 2, 3, 4]
    assert (payload["pass"], payload["worst_layer"]) == (False, 3)
    assert "residual tolerance exceeded: layer 3" in captured.err


def test_decompose_reports_the_earlier_layer_fault_first(tmp_path, capsys):
    # A missing file is found before any layer is read; of two faulty layers
    # that are both present, the earlier one is reported.
    cfg = write_config(tmp_path)
    wdir = write_weight_dir(tmp_path)
    write_tensor(os.path.join(wdir, "layer_002.stcv"), np.zeros((4, 1, 2, 2)))
    with open(os.path.join(wdir, "layer_003.stcv"), "wb") as f:
        f.write(b"STCV")
    out = str(tmp_path / "out")
    assert cli.main(["decompose", "--weights", wdir, "--config", cfg, "--out", out]) == 2
    assert "layer 2: weights shape (4, 1, 2, 2)" in capsys.readouterr().err
    os.remove(os.path.join(wdir, "layer_004.stcv"))
    assert cli.main(["decompose", "--weights", wdir, "--config", cfg, "--out", out]) == 2
    assert "missing weight file" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("scale", [1e200, 1e-170])
def test_decompose_residual_is_scale_free(tmp_path, scale):
    # Finite weights whose per-kernel squared norm overflows (1e200) or
    # underflows (1e-170) report the residual of the same weights at unit
    # scale: not NaN, which passed and printed an invalid JSON token, and
    # not 0.0.
    spec = TINY_NET[2]
    cfg = write_config(tmp_path, [spec])
    w = np.array(random_tensor(11, (spec["cout"], spec["cin"], 1, 1)))
    want = structured.worst_kernel_residual(w, StructuredConfig(C=4, N=1, c=3, n=1))
    assert want > 1e-3
    wfile = tmp_path / "w.stcv"
    write_tensor(str(wfile), w * scale)
    out = tmp_path / "out"
    r = run_cli("decompose", "--weights", str(wfile), "--config", cfg,
                "--out", str(out), "--format", "json")
    assert r.returncode == 1, r.stderr
    payload = json.loads(r.stdout, parse_constant=lambda c: pytest.fail(f"JSON token {c}"))
    assert payload["pass"] is False
    assert abs(payload["worst_residual"] - want) <= 1e-12 * want
    assert not out.exists()


def test_decompose_shape_mismatch_exits_2(tmp_path):
    cfg = write_config(tmp_path, [TINY_NET[0]])
    wfile = tmp_path / "w.stcv"
    write_tensor(str(wfile), np.zeros((2, 2, 3, 3)))
    r = run_cli("decompose", "--weights", str(wfile), "--config", cfg,
                "--out", str(tmp_path / "out"))
    assert r.returncode == 2
    assert "shape" in r.stderr


def test_decompose_missing_layer_file_exits_2(tmp_path):
    cfg = write_config(tmp_path)
    wdir = write_weight_dir(tmp_path)
    os.remove(os.path.join(wdir, "layer_002.stcv"))
    r = run_cli("decompose", "--weights", wdir, "--config", cfg,
                "--out", str(tmp_path / "out"))
    assert r.returncode == 2
    assert "layer_002.stcv" in r.stderr


# train-toy

def test_train_toy_smoke(tmp_path):
    log_path = tmp_path / "log.jsonl"
    r = run_cli("train-toy", "--mode", "plain", "--epochs", "2", "--seed", "0",
                "--log", str(log_path), "--format", "json")
    assert r.returncode == 0, r.stderr
    payload = json.loads(r.stdout)
    assert payload["command"] == "train_toy"
    assert payload["mode"] == "plain"
    assert payload["lam"] == 0.0
    assert payload["epochs"] == 2
    assert 0.0 <= payload["accuracy"] <= 1.0
    assert 0.0 <= payload["accuracy_decomposed"] <= 1.0
    lines = log_path.read_text(encoding="utf-8").strip().splitlines()
    assert len(lines) == 3  # two epochs plus the final record
    records = [json.loads(line) for line in lines]
    assert records[0]["epoch"] == 1
    assert "final" in records[-1]
    for rec in records[:-1]:
        assert sorted(rec["residuals"]) == [
            "layer_0_conv2d", "layer_2_conv2d", "layer_4_depthwiseconv2d", "layer_7_linear",
        ]


@pytest.mark.parametrize("where", ["missing-dir", "directory"])
def test_train_toy_bad_log_path_exits_2_before_training(tmp_path, monkeypatch, capsys, where):
    def no_training(*args, **kwargs):
        raise AssertionError("trained before the --log path was checked")

    monkeypatch.setattr(training, "make_toy_dataset", no_training)
    monkeypatch.setattr(training, "train", no_training)
    log = tmp_path / "no" / "such" / "x.jsonl" if where == "missing-dir" else tmp_path
    rc = cli.main(["train-toy", "--mode", "plain", "--epochs", "1", "--seed", "0",
                   "--log", str(log)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "--log" in err and str(log if where == "directory" else log.parent) in err


def test_train_toy_empty_log_path_exits_2_before_training(monkeypatch, capsys):
    def no_training(*args, **kwargs):
        raise AssertionError("trained before the --log path was checked")

    monkeypatch.setattr(training, "make_toy_dataset", no_training)
    monkeypatch.setattr(training, "train", no_training)
    rc = cli.main(["train-toy", "--mode", "plain", "--epochs", "1", "--seed", "0", "--log", ""])
    assert rc == 2
    assert "--log path is empty" in capsys.readouterr().err


def test_train_toy_rejects_lambda_in_plain_mode():
    r = run_cli("train-toy", "--mode", "plain", "--lambda", "0.5", "--epochs", "1",
                "--seed", "0")
    assert r.returncode == 2
    assert "lam" in r.stderr


def test_train_toy_rejects_non_finite_lr():
    r = run_cli("train-toy", "--mode", "plain", "--epochs", "1", "--seed", "0", "--lr", "nan")
    assert r.returncode == 2
    assert "lr" in r.stderr


def test_train_toy_divergence_exits_1():
    r = run_cli("train-toy", "--mode", "plain", "--epochs", "1", "--seed", "0",
                "--lr", "1e200")
    assert r.returncode == 1
    assert "check failed" in r.stderr


def test_usage_error_exits_2():
    r = run_cli("verify")  # --config and --seed are required
    assert r.returncode == 2
    r = run_cli("frobnicate")
    assert r.returncode == 2
