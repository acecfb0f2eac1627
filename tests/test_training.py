import gc
import json
import os
import tracemalloc
import weakref

import numpy as np
import pytest

from structconv import cli, training
from structconv.analyzer import NetworkSpecError, parse_network_spec
from structconv.structured import ResidualError, StructuredConfig, StructureMatrix
from structconv.structured import decompose, decomposed_layer, reconstruct
from structconv.structured import forward_decomposed
from structconv.tensor import ConvGeometry, conv, linear, random_tensor, sum_pool3d
from references import central_difference_grad, dense_projector
from structconv.training import (
    Conv,
    DegenerateWeightError,
    DepthwiseConv,
    DivergenceError,
    GlobalAvgPool,
    Linear,
    Relu,
    ToyModel,
    ToyModelSpec,
    TrainingConfig,
    TrainLog,
    _softmax_ce,
    decompose_model,
    evaluate,
    layer_residual,
    make_toy_dataset,
    save_train_log,
    sr_grad,
    sr_loss,
    train,
)


def dense_residual(w, cfg):
    # Straight from the definition with an explicitly assembled projector.
    d = cfg.C * cfg.N**2
    flat = np.asarray(w).reshape(-1, d)
    return np.linalg.norm(flat @ (np.eye(d) - dense_projector(cfg)).T) / np.linalg.norm(flat)


def test_residual_zero_for_structured():
    sm = StructureMatrix(StructuredConfig(4, 3, 2, 2))
    w = reconstruct(random_tensor(1, (5, 2, 2, 2)), sm.cfg)
    assert layer_residual(w, sm) <= 1e-12


def test_residual_one_hot_matches_dense_projector():
    sm = StructureMatrix(StructuredConfig(1, 3, 1, 2))
    w = np.zeros((1, 3, 3))
    w[0, 0, 0] = 1.0
    assert layer_residual(w, sm) == pytest.approx(dense_residual(w, sm.cfg), abs=1e-12)


def test_residual_scale_invariant():
    sm = StructureMatrix(StructuredConfig(3, 3, 2, 2))
    w = random_tensor(2, (4, 3, 3, 3))
    r1 = layer_residual(w, sm)
    assert layer_residual(np.array(w) * 37.5, sm) == pytest.approx(r1, rel=1e-12)
    assert 0.0 <= r1 <= 1.0


def test_residual_zero_norm_raises():
    with pytest.raises(DegenerateWeightError):
        layer_residual(np.zeros((1, 1, 3, 3)), StructureMatrix(StructuredConfig(1, 3, 1, 2)))


def test_sr_loss_sums_layers():
    sm_a = StructureMatrix(StructuredConfig(1, 3, 1, 2))
    sm_b = StructureMatrix(StructuredConfig(2, 3, 2, 2))
    wa = random_tensor(3, (2, 1, 3, 3))
    wb = random_tensor(4, (3, 2, 3, 3))
    total = sr_loss([(wa, sm_a), (wb, sm_b)])
    assert total == pytest.approx(
        layer_residual(wa, sm_a) + layer_residual(wb, sm_b), rel=1e-12
    )


def test_sr_loss_reads_only_weights():
    # The regularizer is a function of the weights alone; recomputing it
    # around unrelated work gives the identical value.
    sm = StructureMatrix(StructuredConfig(2, 3, 1, 2))
    w = random_tensor(5, (3, 2, 3, 3))
    before = sr_loss([(w, sm)])
    _ = random_tensor(99, (64,)).sum()
    assert sr_loss([(w, sm)]) == before


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sr_grad_matches_central_differences(seed):
    sm = StructureMatrix(StructuredConfig(2, 3, 1, 2))
    w = random_tensor(seed, (1, 2, 3, 3))
    got = sr_grad(w, sm)
    want = central_difference_grad(w, sm)
    denom = max(1.0, np.abs(want).max())
    assert np.abs(got - want).max() / denom <= 1e-4


def test_sr_grad_near_zero_for_structured():
    sm = StructureMatrix(StructuredConfig(4, 3, 2, 2))
    w = reconstruct(random_tensor(6, (3, 2, 2, 2)), sm.cfg)
    g = sr_grad(w, sm)
    # smoothed zero: scale set by sqrt(eps) = 1e-6
    assert np.linalg.norm(g) <= 1e-5


def test_sr_grad_orthogonal_to_weight():
    # Degree-0 homogeneity: moving along W itself cannot change the residual.
    sm = StructureMatrix(StructuredConfig(3, 3, 2, 2))
    w = random_tensor(7, (2, 3, 3, 3))
    g = sr_grad(w, sm)
    assert abs(float(np.sum(g * w))) <= 1e-10


def test_sr_grad_zero_norm_raises():
    with pytest.raises(DegenerateWeightError):
        sr_grad(np.zeros((1, 1, 3, 3)), StructureMatrix(StructuredConfig(1, 3, 1, 2)))


def test_dataset_deterministic():
    a = make_toy_dataset(5)
    b = make_toy_dataset(5)
    np.testing.assert_array_equal(a.train_x, b.train_x)
    np.testing.assert_array_equal(a.train_y, b.train_y)
    np.testing.assert_array_equal(a.test_y, b.test_y)
    assert a.seed == b.seed


def test_dataset_shapes_and_balance():
    ds = make_toy_dataset(0)
    assert ds.train_x.shape == (2048, 3, 8, 8)
    assert ds.test_x.shape == (512, 3, 8, 8)
    for y, total in ((ds.train_y, 2048), (ds.test_y, 512)):
        frac = np.bincount(y, minlength=4) / total
        assert np.all(frac >= 0.225) and np.all(frac <= 0.275)


def test_teacher_consistent_with_labels():
    ds = make_toy_dataset(1)
    pred = np.argmax(ds.teacher.forward(ds.test_x), axis=1)
    np.testing.assert_array_equal(pred, ds.test_y)
    accuracy = evaluate(ds.teacher, ds.test_x, ds.test_y)
    assert type(accuracy) is float and accuracy == 1.0


@pytest.mark.parametrize("seed", [3, 7101])
def test_labels_match_a_second_teacher_forward(seed):
    # The labels come from the calibrating forward plus the bias shift; a
    # second forward over the same batch with the shifted bias agrees.
    ds = make_toy_dataset(seed)
    x = np.concatenate([ds.train_x, ds.test_x])
    labels = np.argmax(ds.teacher.predict(x), axis=1)
    np.testing.assert_array_equal(labels, np.concatenate([ds.train_y, ds.test_y]))


@pytest.mark.parametrize("seed", [0, 1, 3, 7101])
def test_batched_teacher_logits_match_one_pass_over_the_pool(monkeypatch, seed):
    # make_toy_dataset labels the pool with predict, which runs it 256
    # samples at a time; the head bias it calibrates and every label rest on
    # these logits having the bits of one forward over the whole pool.
    ds = make_toy_dataset(seed)
    x = np.concatenate([ds.train_x, ds.test_x])
    first, slices = ds.teacher.layers[0], []
    real = first.forward

    def forward(h):
        slices.append(h.shape)
        return real(h)

    monkeypatch.setattr(first, "forward", forward)
    logits = ds.teacher.predict(x)
    assert slices == [(3, 8, 8, 256)] * 10
    assert logits.tobytes() == ds.teacher.forward(x).tobytes()


def test_untrained_model_near_chance():
    ds = make_toy_dataset(2)
    spec = ToyModelSpec(
        layers=(
            Conv(out_channels=4, kernel=3, c=2, n=2, stride=2, padding=1),
            Relu(),
            GlobalAvgPool(),
            Linear(out_features=4, R=4),
        ),
        input_shape=(3, 8, 8),
    )
    model = ToyModel(spec, seed=11)
    assert abs(evaluate(model, ds.test_x, ds.test_y) - 0.25) <= 0.1


def test_model_rejects_a_float_channel_count():
    # Each descriptor's counts reach LayerSpec, which rejects a float.
    spec = ToyModelSpec(layers=(Conv(out_channels=8.0, kernel=3, c=2, n=2),))
    with pytest.raises(NetworkSpecError, match="^layer 0: cout must be an integer, got 8.0$"):
        ToyModel(spec, seed=0)


TINY_SPEC = ToyModelSpec(
    layers=(
        Conv(out_channels=3, kernel=3, c=2, n=2, stride=2, padding=1),
        Relu(),
        DepthwiseConv(kernel=3, n=2, stride=1, padding=1),
        Relu(),
        GlobalAvgPool(),
        Linear(out_features=4, R=2),
    ),
    input_shape=(3, 6, 6),
)


def batch_loss(model, x, y):
    loss, _ = _softmax_ce(model.forward(x), y)
    return loss


def relu_masks(model):
    return [layer.mask.copy() for layer in model.layers if hasattr(layer, "mask")]


def masks_equal(a, b):
    return all(np.array_equal(m1, m2) for m1, m2 in zip(a, b))


@pytest.mark.parametrize("direct", [False, True])
def test_backward_matches_numeric_gradients(direct):
    model = ToyModel(TINY_SPEC, seed=3, direct=direct)
    x = np.array(random_tensor(8, (4, 3, 6, 6)))
    y = np.array([0, 1, 2, 3])
    model.zero_grads()
    logits = model.forward(x)
    _, dlogits = _softmax_ce(logits, y)
    model.backward(dlogits)
    base_masks = relu_masks(model)
    h = 1e-6
    checked = 0
    for layer in model.structured_layers:
        for param, grad in layer.params():
            flat = param.reshape(-1)
            gflat = grad.reshape(-1)
            for k in np.linspace(0, flat.size - 1, num=min(5, flat.size), dtype=int):
                orig = flat[k]
                flat[k] = orig + h
                up = batch_loss(model, x, y)
                up_masks = relu_masks(model)
                flat[k] = orig - h
                down = batch_loss(model, x, y)
                down_masks = relu_masks(model)
                flat[k] = orig
                if not (masks_equal(up_masks, base_masks) and masks_equal(down_masks, base_masks)):
                    continue  # perturbation crossed a relu kink; slope is one-sided there
                numeric = (up - down) / (2 * h)
                assert gflat[k] == pytest.approx(numeric, rel=1e-4, abs=1e-7)
                checked += 1
    assert checked >= 20  # the skip path must stay the exception


def pool3d_backward_loops(g, x_shape, dims, padding):
    # Every pooled output adds its gradient back to each input of its window.
    kc, kh, kw = dims
    b, cin, h, w = x_shape
    dxp = np.zeros((b, cin, h + 2 * padding, w + 2 * padding))
    for t in range(g.shape[1]):
        for i in range(g.shape[2]):
            for j in range(g.shape[3]):
                dxp[:, t : t + kc, i : i + kh, j : j + kw] += g[:, t, i, j][:, None, None, None]
    return dxp[:, :, padding : padding + h, padding : padding + w]


@pytest.mark.parametrize("dims,padding", [((2, 2, 2), 1), ((4, 1, 1), 0), ((1, 1, 1), 1)])
def test_pool3d_backward_matches_loop_reference(dims, padding):
    # Training's direct-mode backward spreads the pooled gradient with the
    # reconstruction, whose windows are a config's square pool_dims, and
    # crops the padding. The pooled map has c = cin - dims[0] + 1 channels.
    x_shape = (2, 5, 4, 6)
    b, cin, h, w = x_shape
    cfg = StructuredConfig(C=cin, N=dims[1], c=cin - dims[0] + 1, n=1)
    assert cfg.pool_dims == dims
    g_shape = (b, cin - dims[0] + 1, h + 2 * padding - dims[1] + 1, w + 2 * padding - dims[2] + 1)
    g = np.array(random_tensor(24, g_shape))
    np.testing.assert_allclose(
        reconstruct(g, cfg)[:, :, padding : padding + h, padding : padding + w],
        pool3d_backward_loops(g, x_shape, dims, padding),
        rtol=0,
        atol=1e-12,
    )


def test_input_gradient_matches_numeric():
    # ToyModel.backward never builds the data's gradient, so the layers'
    # backwards are chained here, on (C, H, W, B) gradients, down to the
    # first one's input gradient.
    model = ToyModel(TINY_SPEC, seed=4)
    x = np.array(random_tensor(9, (2, 3, 6, 6)))
    y = np.array([1, 3])
    logits = model.forward(x)
    _, dlogits = _softmax_ce(logits, y)
    dx = dlogits.T.reshape(4, 1, 1, 2)
    for layer in reversed(model.layers):
        dx = layer.backward(dx)
    dx = dx.transpose(3, 0, 1, 2)
    assert dx.shape == x.shape
    h = 1e-6
    for idx in [(0, 0, 0, 0), (1, 2, 5, 5), (0, 1, 3, 2)]:
        orig = x[idx]
        x[idx] = orig + h
        up = batch_loss(model, x, y)
        x[idx] = orig - h
        down = batch_loss(model, x, y)
        x[idx] = orig
        assert dx[idx] == pytest.approx((up - down) / (2 * h), rel=1e-4, abs=1e-7)


@pytest.mark.parametrize("mode", ["plain", "direct"])
def test_train_never_builds_the_first_layers_input_gradient(monkeypatch, mode):
    # Every input gradient of a structured layer goes through col2im or the
    # linear product's reshape, and in direct mode through reconstruct;
    # the spies record which layer's backward each scatter and spread ran in.
    ds = make_toy_dataset(4)
    running, backwards, scatters = [], [], []
    real_backward = training._Structured.backward

    def backward(self, g, **kwargs):
        running.append(self)
        try:
            dx = real_backward(self, g, **kwargs)
        finally:
            running.pop()
        backwards.append((self, dx is None))
        return dx

    def spy(real):
        def call(*args, **kwargs):
            if running:
                scatters.append(running[-1])
            return real(*args, **kwargs)
        return call

    monkeypatch.setattr(training._Structured, "backward", backward)
    monkeypatch.setattr(training, "col2im", spy(training.col2im))
    monkeypatch.setattr(training, "reconstruct", spy(training.reconstruct))
    small = training.ToyDataset(ds.train_x[:64], ds.train_y[:64], ds.test_x[:32], ds.test_y[:32],
                                ds.teacher, ds.seed)
    cfg = TrainingConfig(lam=0.0, lr=0.2, epochs=1, batch_size=32, seed=9, mode=mode)
    model, _ = train(TINY_SPEC, small, cfg)
    first, depthwise = model.layers[0], model.layers[2]
    assert {(layer, skipped) for layer, skipped in backwards} == {
        (first, True), (depthwise, False), (model.layers[-1], False)}
    assert first not in scatters
    assert depthwise in scatters  # the spies see the other layers' scatters


@pytest.mark.parametrize("mode", ["plain", "direct"])
def test_train_gathers_each_layers_columns_once_per_forward(monkeypatch, mode):
    # A structured layer's forward gathers its im2col columns once and its
    # backward reads them: no backward gathers, and only a backward other
    # than the first layer's scatters with col2im.
    ds = make_toy_dataset(4)
    running, forwards, calls = [], [], []

    def traced(name):
        real = getattr(training._Structured, name)

        def method(self, *args, **kwargs):
            if name == "forward":
                forwards.append(self)
            running.append((name, self))
            try:
                return real(self, *args, **kwargs)
            finally:
                running.pop()
        return method

    def spy(fn):
        real = getattr(training, fn)

        def call(*args, **kwargs):
            calls.append((fn,) + (running[-1] if running else (None, None)))
            return real(*args, **kwargs)
        return call

    for name in ("forward", "backward"):
        monkeypatch.setattr(training._Structured, name, traced(name))
    for fn in ("im2col", "col2im"):
        monkeypatch.setattr(training, fn, spy(fn))
    small = training.ToyDataset(ds.train_x[:64], ds.train_y[:64], ds.test_x[:32], ds.test_y[:32],
                                ds.teacher, ds.seed)
    cfg = TrainingConfig(lam=0.0, lr=0.2, epochs=1, batch_size=32, seed=9, mode=mode)
    model, _ = train(TINY_SPEC, small, cfg)
    gathers = [(where, layer) for fn, where, layer in calls if fn == "im2col"]
    scatters = [(where, layer) for fn, where, layer in calls if fn == "col2im"]
    assert len(forwards) > len(model.structured_layers)
    assert gathers == [("forward", layer) for layer in forwards]
    assert scatters and {where for where, _ in scatters} == {"backward"}
    assert model.layers[0] not in {layer for _, layer in scatters}


def test_columns_live_from_a_forward_to_its_backward():
    # A layer keeps its im2col columns for the backward that reads them, and
    # a forward that no backward follows keeps none.
    model = ToyModel(TINY_SPEC, seed=5)
    x = np.array(random_tensor(6, (4, 3, 6, 6)))
    layers = model.structured_layers
    model.forward(x)
    assert all(layer.cols is not None for layer in layers)
    model.backward(np.ones((4, 4)))
    assert all(layer.cols is None for layer in layers)
    np.testing.assert_array_equal(model.predict(x), model.forward(x))
    model.predict(x)
    assert all(layer.cols is None for layer in layers)


def test_short_training_runs_match_recorded_values():
    # Two epochs of the stock toy model on make_toy_dataset(3), seed 3, in
    # every mode. Accuracies must match exactly, task losses to 1e-12
    # relative: the backward may reorder a sum, never change what it sums.
    ds = make_toy_dataset(3)
    spec = cli.default_toy_model_spec()
    recorded = {
        ("regularized", 1.0): ([1.3988236539220218, 1.3922542838207086],
                               [0.212890625, 0.224609375], 0.224609375),
        ("direct", 0.0): ([11.312408935582354, 1.3880611567350591],
                          [0.25390625, 0.2265625], 0.2265625),
        ("plain", 0.0): ([1.3935854653148563, 1.3691632408254395],
                         [0.318359375, 0.251953125], 0.216796875),
    }
    for (mode, lam), (losses, accuracies, decomposed) in recorded.items():
        _, log = train(spec, ds, TrainingConfig(lam=lam, epochs=2, seed=3, mode=mode))
        assert [r["test_accuracy"] for r in log.epochs] == accuracies
        assert log.final_accuracy_decomposed == decomposed
        for rec, want in zip(log.epochs, losses):
            assert rec["task_loss"] == pytest.approx(want, rel=1e-12, abs=0)


def test_softmax_ce_values():
    logits = np.array([[0.0, 0.0], [10.0, -10.0]])
    labels = np.array([0, 0])
    loss, grad = _softmax_ce(logits, labels)
    want = (np.log(2.0) + np.log1p(np.exp(-20.0))) / 2
    assert loss == pytest.approx(want, rel=1e-12)
    assert grad.shape == (2, 2)


def small_dataset(seed=0, count=96):
    ds = make_toy_dataset(seed)
    return ds, ds.train_x[:count], ds.train_y[:count]


def clone_weights(model):
    return [param.copy() for layer in model.structured_layers for param, _ in layer.params()]


def test_plain_equals_regularized_lambda_zero():
    ds = make_toy_dataset(4)
    spec = TINY_SPEC
    cfg_plain = TrainingConfig(lam=0.0, lr=0.2, epochs=2, batch_size=32, seed=9, mode="plain")
    cfg_reg = TrainingConfig(lam=0.0, lr=0.2, epochs=2, batch_size=32, seed=9, mode="regularized")
    m1, _ = train(spec, ds, cfg_plain)
    m2, _ = train(spec, ds, cfg_reg)
    for w1, w2 in zip(clone_weights(m1), clone_weights(m2)):
        np.testing.assert_array_equal(w1, w2)


def test_training_is_deterministic():
    ds = make_toy_dataset(4)
    cfg = TrainingConfig(lam=0.1, lr=0.2, epochs=2, batch_size=32, seed=5, mode="regularized")
    m1, log1 = train(TINY_SPEC, ds, cfg)
    m2, log2 = train(TINY_SPEC, ds, cfg)
    for w1, w2 in zip(clone_weights(m1), clone_weights(m2)):
        np.testing.assert_array_equal(w1, w2)
    assert log1.epochs == log2.epochs


def test_direct_mode_residual_floor():
    ds = make_toy_dataset(4)
    cfg = TrainingConfig(lam=0.0, lr=0.2, epochs=3, batch_size=64, seed=6, mode="direct")
    _, log = train(TINY_SPEC, ds, cfg)
    for rec in log.epochs:
        assert max(rec["residuals"].values()) <= 1e-6


def test_regularized_drives_residual_down():
    ds = make_toy_dataset(4)
    base = dict(lr=0.2, epochs=3, batch_size=64, seed=6)
    _, log0 = train(TINY_SPEC, ds, TrainingConfig(lam=0.0, mode="plain", **base))
    _, log1 = train(TINY_SPEC, ds, TrainingConfig(lam=1.0, mode="regularized", **base))
    assert log1.epochs[-1]["sr_loss"] < log0.epochs[-1]["sr_loss"]


@pytest.mark.filterwarnings("ignore:invalid value encountered")
@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_divergence_guard():
    ds = make_toy_dataset(4)
    # One step at this rate overflows the weights; the next forward pass goes
    # non-finite and the loop must abort rather than log garbage.
    cfg = TrainingConfig(lam=0.0, lr=1e200, epochs=3, batch_size=64, seed=6, mode="plain")
    with pytest.raises(DivergenceError):
        train(TINY_SPEC, ds, cfg)


def test_training_config_validation():
    with pytest.raises(ValueError):
        TrainingConfig(lam=0.1, mode="plain")  # plain demands lam == 0
    with pytest.raises(ValueError):
        TrainingConfig(lam=0.1, mode="direct")
    with pytest.raises(ValueError):
        TrainingConfig(lam=-1.0, mode="regularized")
    with pytest.raises(ValueError):
        TrainingConfig(mode="warp")
    with pytest.raises(ValueError):
        TrainingConfig(lr=0.0, mode="plain", lam=0.0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            TrainingConfig(lam=bad, mode="regularized")
        with pytest.raises(ValueError):
            TrainingConfig(lr=bad, mode="plain", lam=0.0)
    with pytest.raises(ValueError):
        TrainingConfig(lr=-float("inf"), mode="plain", lam=0.0)
    TrainingConfig(lr=1e200, mode="plain", lam=0.0)  # finite: diverges, but is a valid config


def test_log_records_structure_and_serialization(tmp_path):
    ds = make_toy_dataset(4)
    cfg = TrainingConfig(lam=0.5, lr=0.2, epochs=2, batch_size=64, seed=7, mode="regularized")
    _, log = train(TINY_SPEC, ds, cfg)
    assert len(log.epochs) == 2
    for rec in log.epochs:
        assert np.isfinite(rec["task_loss"])
        assert np.isfinite(rec["sr_loss"])
        assert 0.0 <= rec["test_accuracy"] <= 1.0
        for r in rec["residuals"].values():
            assert 0.0 <= r <= 1.0
    p = tmp_path / "log.jsonl"
    save_train_log(p, log)
    lines = [json.loads(line) for line in p.read_text().splitlines()]
    assert len(lines) == 3  # two epochs + final summary
    assert lines[0]["epoch"] == 1
    assert "final" in lines[-1]
    assert lines[-1]["final"]["mode"] == "regularized"


def test_save_train_log_failure_keeps_the_old_file(tmp_path):
    path = tmp_path / "log.jsonl"
    path.write_text("old\n", encoding="utf-8")
    log = TrainLog(mode="plain", lam=0.0, epochs=[{"epoch": 1}, {"epoch": object()}])
    with pytest.raises(TypeError):
        save_train_log(path, log)
    assert path.read_text(encoding="utf-8") == "old\n"
    assert os.listdir(tmp_path) == ["log.jsonl"]


def test_train_evaluates_once_per_epoch_and_once_decomposed(monkeypatch):
    ds = make_toy_dataset(4)
    calls = []

    def spy(model, x, y):
        calls.append(model.direct)
        return evaluate(model, x, y)

    monkeypatch.setattr(training, "evaluate", spy)
    cfg = TrainingConfig(lam=0.0, lr=0.2, epochs=3, batch_size=64, seed=7, mode="plain")
    _, log = train(TINY_SPEC, ds, cfg)
    assert calls == [False, False, False, True]
    assert log.final_accuracy == log.epochs[-1]["test_accuracy"]


def test_toy_dataset_traced_peak_is_bounded():
    # The 3.9 MB pool is the generator's draw, not a copy of it, and the
    # teacher labels it in batches of 256 samples, so one batch's padded
    # input and im2col columns sit beside it: 8.6 MB. Copying the draw and
    # running the teacher on all 2,560 samples at once peaked at 24.1 MB,
    # and 39.0 MB when every layer also kept its gathered patches.
    tracemalloc.start()
    try:
        make_toy_dataset(1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12e6


def test_decompose_model_direct_round_trip():
    ds = make_toy_dataset(4)
    cfg = TrainingConfig(lam=0.0, lr=0.2, epochs=2, batch_size=64, seed=8, mode="direct")
    model, _ = train(TINY_SPEC, ds, cfg)
    twin = decompose_model(model)
    x = ds.test_x[:32]
    np.testing.assert_allclose(twin.forward(x), model.forward(x), rtol=0, atol=1e-10)


def test_decompose_model_rejects_unstructured():
    model = ToyModel(TINY_SPEC, seed=12)  # dense random init, not structured
    with pytest.raises(Exception) as info:
        decompose_model(model, residual_tol=1e-6)
    assert "layer" in str(info.value)


def test_decompose_model_gates_on_the_worst_kernel():
    # Three large structured kernels and one small unstructured one: the
    # whole layer is within the tolerance, the small kernel is not. The gate
    # is per kernel, as in structured.decompose.
    spec = ToyModelSpec(layers=(Conv(out_channels=4, kernel=3, c=2, n=2),), input_shape=(3, 5, 5))
    model = ToyModel(spec, seed=15)
    layer = model.layers[0]
    w = 1e3 * reconstruct(random_tensor(16, (4, 2, 2, 2)), layer.cfg)
    w[3] = 1e-3 * np.array(random_tensor(17, (3, 3, 3)))
    layer.w = w
    assert layer.residual() <= 1e-6
    with pytest.raises(ResidualError, match=r"output channel 3 has residual"):
        decompose(w, layer.cfg)
    with pytest.raises(ResidualError, match=r"layer 0 \(conv2d\) kernel 3 has residual") as info:
        decompose_model(model)
    assert info.value.kernel == 3 and info.value.residual > 1e-6
    twin = decompose_model(model, residual_tol=1.0)
    np.testing.assert_array_equal(
        twin.layers[0].w, decompose(w, layer.cfg, residual_tol=1.0)[0].alpha
    )


def test_projectors_die_with_their_model():
    # Each structured layer owns its StructureMatrix, so nothing outside the
    # model keeps the projector factors that one regularized step builds.
    def one_step():
        model = ToyModel(TINY_SPEC, seed=20)
        layers = model.structured_layers
        assert all(type(l.sm) is StructureMatrix and l.sm.cfg == l.cfg for l in layers)
        assert len({id(l.sm) for l in layers}) == len(layers)
        model.zero_grads()
        _, g = _softmax_ce(model.forward(np.array(random_tensor(21, (4, 3, 6, 6)))), np.arange(4))
        model.backward(g)
        for l in layers:
            l.gw += 0.1 * sr_grad(l.w, l.sm)
        model.step(0.1)
        return weakref.ref(layers[0].sm.channel_projector)

    projector = one_step()
    gc.collect()
    assert projector() is None


def test_sr_grad_at_512_channels_holds_only_the_factors():
    # A 512-channel 3x3 layer: its dense projector would hold 162 MiB. One
    # gradient stays within 4x the weight's bytes, and what it leaves behind
    # besides the gradient is the two factors, 512^2 + 9^2 doubles.
    cfg = StructuredConfig(512, 3, 256, 2)
    w = np.random.default_rng(22).standard_normal((512, 512, 3, 3))
    sm = StructureMatrix(cfg)
    tracemalloc.start()
    try:
        g = sr_grad(w, sm)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * w.nbytes
    factors = sm.channel_projector.nbytes + sm.spatial_projector.nbytes
    assert factors == 8 * (512**2 + 9**2)
    assert held - g.nbytes <= 4 * 2**20
    # Scaling W leaves its residual as it is, so the gradient is orthogonal to W.
    assert abs(np.vdot(g, w)) <= 1e-9 * np.linalg.norm(g) * np.linalg.norm(w)


def test_every_structured_forward_pools_once(monkeypatch):
    # Training pads and pools through tensor.sum_pool3d, one call per layer
    # forward, with windows of 1 in dense mode.
    calls = []

    def spy(x, pool_dims, geom):
        calls.append(tuple(pool_dims))
        return sum_pool3d(x, pool_dims, geom)

    monkeypatch.setattr(training, "sum_pool3d", spy)
    for direct in (False, True):
        model = ToyModel(TINY_SPEC, seed=18, direct=direct)
        calls.clear()
        model.forward(np.array(random_tensor(19, (4, 3, 6, 6))))
        want = [l.cfg.pool_dims if direct else (1, 1, 1) for l in model.structured_layers]
        assert calls == want


def test_decompose_model_projects_under_loose_tolerance():
    model = ToyModel(TINY_SPEC, seed=13)
    twin = decompose_model(model, residual_tol=1.0)
    x = np.array(random_tensor(14, (4, 3, 6, 6)))
    out = twin.forward(x)
    assert out.shape == (4, 4)
    assert np.all(np.isfinite(out))


@pytest.mark.parametrize("desc, message", [
    (Conv(out_channels=4, kernel=3, c=2, n=2, stride=0), "stride must be >= 1"),
    (Conv(out_channels=4, kernel=3, c=4, n=2), "c=4 exceeds input channels 3"),
    (Conv(out_channels=4, kernel=3, c=2, n=4), "n=4 exceeds kernel size 3"),
    (DepthwiseConv(kernel=3, n=2, stride=0), "stride must be >= 1"),
    (DepthwiseConv(kernel=3, n=4), "n=4 exceeds kernel size 3"),
    (Linear(out_features=4, R=4), "c=4 exceeds input channels 3"),
])
def test_model_build_rejects_a_bad_descriptor_by_its_layer(desc, message):
    # The descriptor's LayerSpec checks it when the model is built, and names
    # its position in spec.layers, as decompose_model's errors do.
    spec = ToyModelSpec(layers=(Relu(), desc), input_shape=(3, 6, 6))
    with pytest.raises(NetworkSpecError, match=f"^layer 1: {message}"):
        ToyModel(spec, seed=0)


def test_backward_of_a_model_without_parameters_does_nothing():
    model = ToyModel(ToyModelSpec(layers=(Relu(), GlobalAvgPool()), input_shape=(3, 2, 2)), seed=0)
    assert model.forward(np.array(random_tensor(34, (2, 3, 2, 2)))).shape == (2, 3)
    model.backward(np.ones((2, 3)))
    model.step(0.1)


def test_model_build_rejects_an_unknown_descriptor():
    with pytest.raises(TypeError, match="unknown layer descriptor"):
        ToyModel(ToyModelSpec(layers=(Relu(), "pool")), seed=0)


# The structured layers of three toy networks as network descriptions.
TOY_NETWORKS = {
    "student": (cli.default_toy_model_spec(), [
        {"kind": "conv", "cout": 8, "cin": 3, "k": 3, "c": 2, "n": 2, "stride": 1, "pad": 1},
        {"kind": "conv", "cout": 16, "cin": 8, "k": 3, "c": 4, "n": 2, "stride": 2, "pad": 1},
        {"kind": "dwconv", "cout": 16, "cin": 1, "k": 3, "c": 1, "n": 2, "stride": 1, "pad": 1},
        {"kind": "linear", "cout": 4, "cin": 16, "k": 1, "c": 8, "n": 1},
    ]),
    "teacher": (training._TEACHER_SPEC, [
        {"kind": "conv", "cout": 8, "cin": 3, "k": 3, "c": 3, "n": 3, "stride": 2, "pad": 1},
        {"kind": "conv", "cout": 8, "cin": 8, "k": 3, "c": 8, "n": 3, "stride": 2, "pad": 1},
        {"kind": "linear", "cout": 4, "cin": 8, "k": 1, "c": 8, "n": 1},
    ]),
    "tiny": (TINY_SPEC, [
        {"kind": "conv", "cout": 3, "cin": 3, "k": 3, "c": 2, "n": 2, "stride": 2, "pad": 1},
        {"kind": "dwconv", "cout": 3, "cin": 1, "k": 3, "c": 1, "n": 2, "stride": 1, "pad": 1},
        {"kind": "linear", "cout": 4, "cin": 3, "k": 1, "c": 2, "n": 1},
    ]),
}


@pytest.mark.parametrize("name", sorted(TOY_NETWORKS))
def test_structured_layers_take_the_analyzers_config_and_geometry(tmp_path, name):
    spec, network = TOY_NETWORKS[name]
    path = tmp_path / "net.json"
    path.write_text(json.dumps(network))
    want = parse_network_spec(path, spec.input_shape[1:])
    layers = ToyModel(spec, seed=0).structured_layers
    assert [(l.cfg, l.geom) for l in layers] == [(w.cfg, w.geom) for w in want]


def test_decompose_model_passes_each_layers_geometry(monkeypatch):
    # The stock student's depthwise layer decomposes as a depthwise layer,
    # one group per channel, and its linear head as a 1x1 conv.
    kinds = []

    def spy(weights, cfg, geom, **kwargs):
        out = decompose(weights, cfg, geom, **kwargs)
        kinds.append((out[0].kind, geom.groups))
        return out

    monkeypatch.setattr(training, "decompose", spy)
    decompose_model(ToyModel(cli.default_toy_model_spec(), seed=3), residual_tol=np.inf)
    assert kinds == [("conv", 1), ("conv", 1), ("dwconv", 16), ("conv", 1)]


# One model per structured kind: (spec, index of the layer under test,
# (C, H, W, B) input shape).
REFERENCE_LAYERS = {
    "conv": (ToyModelSpec(layers=(Conv(out_channels=5, kernel=3, c=2, n=2, stride=2, padding=1),),
                          input_shape=(3, 7, 7)), 0, (3, 7, 7, 3)),
    "depthwise": (ToyModelSpec(layers=(DepthwiseConv(kernel=3, n=2, stride=1, padding=1),),
                               input_shape=(4, 5, 5)), 0, (4, 5, 5, 3)),
    "linear": (ToyModelSpec(layers=(Linear(out_features=3, R=4),), input_shape=(6, 1, 1)),
               0, (6, 1, 1, 3)),
}


@pytest.mark.parametrize("direct", [False, True], ids=["dense", "direct"])
@pytest.mark.parametrize("kind", sorted(REFERENCE_LAYERS))
def test_layer_forward_matches_reference_ops(kind, direct):
    # The batched training forward equals tensor.conv / tensor.linear applied
    # sample by sample to the layer's effective (dense) weight, plus bias.
    spec, index, x_shape = REFERENCE_LAYERS[kind]
    layer = ToyModel(spec, seed=21, direct=direct).layers[index]
    layer.b = np.array(random_tensor(22, layer.b.shape))
    x = np.array(random_tensor(23, x_shape))
    got = layer.forward(x)
    w = layer.effective_weight()
    samples = [x[..., i] for i in range(x_shape[3])]
    if kind == "linear":
        w = w.reshape(w.shape[0], -1)
        want = [(linear(w, xi.reshape(-1)) + layer.b)[:, None, None] for xi in samples]
    else:
        desc = spec.layers[index]
        geom = ConvGeometry(stride=desc.stride, padding=desc.padding,
                            groups=x_shape[0] if kind == "depthwise" else 1)
        want = [conv(xi, w, geom) + layer.b[:, None, None] for xi in samples]
    want = np.stack(want, axis=-1)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-12


def einsum_reference(layer, x, g):
    """Forward, weight gradient and input gradient of a structured layer in
    the formulation training used before it ran through tensor.conv: the
    gathered K x K patches of the padded (or pooled) input, split into
    groups and contracted with np.einsum, and a scatter of every tap's share
    of the input gradient. x, g and the returned maps are (C, H, W, B)."""
    x, g = x.transpose(3, 0, 1, 2), g.transpose(3, 0, 1, 2)
    map_shape, p = x.shape, layer.geom.padding[0]
    if layer.direct:
        pool_geom = ConvGeometry(padding=p)
        x, p = np.stack([sum_pool3d(xi, layer.cfg.pool_dims, pool_geom) for xi in x]), 0
    b, cin, h, w = x.shape
    k, s, grp = layer.w.shape[-1], layer.geom.stride[0], layer.geom.groups
    ho, wo = (h + 2 * p - k) // s + 1, (w + 2 * p - k) // s + 1
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    rows = s * np.arange(ho)[:, None] + np.arange(k)[None, :]
    cols = s * np.arange(wo)[:, None] + np.arange(k)[None, :]
    patches = xp[:, :, rows[:, None, :, None], cols[None, :, None, :]]
    patches = patches.reshape(b, grp, cin // grp, ho, wo, k, k)
    wg = layer.w.reshape((grp, -1) + layer.w.shape[1:])
    out = np.einsum("bgchwuv,gocuv->bgohw", patches, wg).reshape(b, -1, ho, wo)
    out = out + layer.b[:, None, None]
    gg = g.reshape(b, grp, -1, ho, wo)
    gw = np.einsum("bgohw,bgchwuv->gocuv", gg, patches).reshape(layer.w.shape)
    taps = np.einsum("bgohw,gocuv->bgchwuv", gg, wg).reshape(b, cin, ho, wo, k, k)
    dxp = np.zeros((b, cin, h + 2 * p, w + 2 * p))
    for u in range(k):
        for v in range(k):
            dxp[:, :, u : u + s * ho : s, v : v + s * wo : s] += taps[..., u, v]
    dx = dxp[:, :, p : p + h, p : p + w]
    if layer.direct:
        dx = pool3d_backward_loops(dx, map_shape, layer.cfg.pool_dims, layer.geom.padding[0])
    return out.transpose(1, 2, 3, 0), gw, dx.transpose(1, 2, 3, 0)


# One layer per case: (descriptor, (C, H, W, B) input shape).
EINSUM_CASES = {
    "conv": (Conv(out_channels=5, kernel=3, c=2, n=2, stride=2, padding=1), (3, 7, 7, 3)),
    "conv-stride1": (Conv(out_channels=4, kernel=3, c=3, n=2, stride=1, padding=0), (4, 6, 5, 2)),
    "depthwise": (DepthwiseConv(kernel=3, n=2, stride=1, padding=1), (4, 5, 5, 3)),
    "depthwise-stride2": (DepthwiseConv(kernel=3, n=2, stride=2, padding=1), (5, 6, 7, 2)),
    "linear": (Linear(out_features=3, R=4), (6, 1, 1, 3)),
}


def einsum_case_layer(case, seed, direct):
    desc, x_shape = EINSUM_CASES[case]
    spec = ToyModelSpec(layers=(desc,), input_shape=(x_shape[0], 1, 1))
    return ToyModel(spec, seed=seed, direct=direct).layers[0], x_shape


@pytest.mark.parametrize("direct", [False, True], ids=["dense", "direct"])
@pytest.mark.parametrize("case", sorted(EINSUM_CASES))
def test_layer_matches_einsum_reference(case, direct):
    layer, x_shape = einsum_case_layer(case, 25, direct)
    layer.b = np.array(random_tensor(26, layer.b.shape))
    x = np.array(random_tensor(27, x_shape))
    out = layer.forward(x)
    g = np.array(random_tensor(28, out.shape))
    dx = layer.backward(g)
    want_out, want_gw, want_dx = einsum_reference(layer, x, g)
    for got, want in ((out, want_out), (layer.gw, want_gw), (dx, want_dx)):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12


@pytest.mark.parametrize("direct", [False, True], ids=["dense", "direct"])
@pytest.mark.parametrize("case", sorted(EINSUM_CASES))
def test_layer_forward_returns_its_output_array(case, direct):
    # A structured layer's forward returns its (C', H', W', B) output array
    # itself, not a transposed view of another layout, and its backward a
    # gradient of its input's (C, H, W, B) shape.
    layer, x_shape = einsum_case_layer(case, 29, direct)
    out = layer.forward(np.array(random_tensor(30, x_shape)))
    assert out.shape[0] == len(layer.w) and out.shape[3] == x_shape[3]
    assert out.flags.c_contiguous
    assert layer.backward(np.ones(out.shape)).shape == x_shape


@pytest.mark.parametrize("case", sorted(EINSUM_CASES))
def test_direct_forward_matches_forward_decomposed(case):
    # Training's decomposed math is inference's: a direct-mode layer's batch
    # forward equals structured.forward_decomposed, sample by sample, on the
    # decomposed layer built from the same alphas, geometry and bias.
    layer, x_shape = einsum_case_layer(case, 31, True)
    layer.b = np.array(random_tensor(32, layer.b.shape))
    x = np.array(random_tensor(33, x_shape))
    samples = [x[..., i] for i in range(x_shape[3])]
    if layer.name == "linear":
        decomposed = decomposed_layer(layer.w.reshape(len(layer.w), -1), layer.cfg, bias=layer.b)
        want = [forward_decomposed(xi.reshape(-1), decomposed)[:, None, None] for xi in samples]
    else:
        decomposed = decomposed_layer(layer.w, layer.cfg, layer.geom, layer.b)
        want = [forward_decomposed(xi, decomposed) for xi in samples]
    got = layer.forward(x)
    want = np.stack(want, axis=-1)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-12
