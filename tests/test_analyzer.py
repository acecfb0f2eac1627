import json
import os
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import structconv
from structconv.analyzer import (
    LayerSpec,
    NetworkSpecError,
    aggregate,
    count_ops_instrumented,
    generate_config,
    layer_costs,
    parse_network_spec,
)
from structconv.structured import StructuredConfig
from structconv.tensor import ConvGeometry


def fixture_path(name):
    return os.path.join(os.path.dirname(structconv.__file__), "fixtures", name)


def conv_spec(cout, cin, k, c, n, stride=1, pad=0, dilation=1, hw=5, kind="conv"):
    return LayerSpec(
        index=1, kind=kind, cout=cout, cin=cin, k=k, c=c, n=n,
        stride=stride, pad=pad, dilation=dilation, in_h=hw, in_w=hw,
    )


def assert_counts_match(spec):
    # The scalar evaluators tally every multiply and every add of a K-term
    # accumulation; the closed forms must agree to the integer.
    r = layer_costs(spec)
    got = count_ops_instrumented(spec, seed=11)
    want = {
        "direct": {"mults": r.mults_before, "adds": r.adds_before},
        "decomposed": {"mults": r.mults_after, "adds": r.adds_after},
    }
    assert got == want, f"counts diverge for {spec}"


# Hand-tallied case: 2x2x2 kernel, c=1, n=1, one output channel, 3x3 input.
# Pool sums all 8 kernel cells (7 adds) at each of 2x2 positions; the small
# conv is a single multiply per output.
def test_layer_costs_hand_conv():
    r = layer_costs(conv_spec(1, 2, 2, 1, 1, hw=3))
    assert (r.out_h, r.out_w) == (2, 2)
    assert (r.params_before, r.params_after) == (8, 1)
    assert (r.mults_before, r.mults_after) == (32, 4)
    assert (r.adds_before, r.adds_after) == (28, 28)
    assert r.param_ratio == Fraction(1, 8)
    assert r.mult_ratio == Fraction(1, 8)


# Hand-tallied case: rows of length 5 built from 2 coefficients. Pooling
# needs 2 windows of 4 entries (3 adds each); each of 3 outputs then costs
# 2 multiplies and 1 add.
def test_layer_costs_hand_linear():
    spec = LayerSpec(index=1, kind="linear", cout=3, cin=5, k=1, c=2, n=1)
    r = layer_costs(spec)
    assert (r.params_before, r.params_after) == (15, 6)
    assert (r.mults_before, r.mults_after) == (15, 6)
    assert (r.adds_before, r.adds_after) == (12, 9)
    assert_counts_match(spec)


# Hand-tallied case: 3 channels, 3x3 kernels shrunk to 2x2, 4x4 input, pad 1.
# Per channel: pool 5x5 map at 3 adds each, then 3 adds per 4x4 output.
def test_layer_costs_hand_depthwise():
    spec = LayerSpec(
        index=1, kind="dwconv", cout=3, cin=1, k=3, c=1, n=2,
        stride=1, pad=1, in_h=4, in_w=4,
    )
    r = layer_costs(spec)
    assert (r.out_h, r.out_w) == (4, 4)
    assert (r.params_before, r.params_after) == (27, 12)
    assert (r.mults_before, r.mults_after) == (432, 192)
    assert (r.adds_before, r.adds_after) == (384, 369)
    assert_counts_match(spec)


def test_mult_reduction_exactly_half():
    r = layer_costs(conv_spec(64, 64, 3, 32, 3, stride=1, pad=1, hw=56))
    assert r.mult_ratio == Fraction(1, 2)
    assert r.param_ratio == Fraction(1, 2)
    assert r.mults_after * 2 == r.mults_before


def test_identity_config_costs_unchanged():
    # c=C, n=N: the pool window is a single cell, so nothing is saved and
    # nothing is wasted.
    for spec in (conv_spec(5, 4, 3, 4, 3, pad=1), conv_spec(2, 6, 1, 6, 1, kind="pwconv")):
        r = layer_costs(spec)
        assert r.params_after == r.params_before
        assert r.mults_after == r.mults_before
        assert r.adds_after == r.adds_before


def test_ratios_are_exact_fractions():
    for cin, k, c, n in ((3, 3, 2, 2), (8, 5, 3, 4), (6, 1, 5, 1)):
        r = layer_costs(conv_spec(7, cin, k, c, n, pad=k // 2, hw=8))
        want = Fraction(c * n * n, cin * k * k)
        assert isinstance(r.mult_ratio, Fraction)
        assert r.mult_ratio == want
        assert r.param_ratio == want


# Exhaustive small sweeps: formula vs instrumented count, exact integer
# equality on both paths. Invalid output geometry is skipped.

def sweep_geometries():
    for stride in (1, 2):
        for pad in (0, 1):
            for dilation in (1, 2):
                yield stride, pad, dilation


def test_instrumented_matches_formula_conv_sweep():
    checked = 0
    for cin, k in ((1, 1), (1, 3), (2, 2), (3, 3)):
        for c in range(1, cin + 1):
            for n in range(1, k + 1):
                for cout in (1, 3):
                    for stride, pad, dilation in sweep_geometries():
                        spec = conv_spec(cout, cin, k, c, n, stride, pad, dilation, hw=5)
                        try:
                            spec.out_hw
                        except NetworkSpecError:
                            continue
                        assert_counts_match(spec)
                        checked += 1
    assert checked >= 200


def test_instrumented_matches_formula_depthwise_sweep():
    for ch in (1, 3):
        for k in (2, 3):
            for n in range(1, k + 1):
                for stride, pad, dilation in sweep_geometries():
                    spec = LayerSpec(
                        index=1, kind="dwconv", cout=ch, cin=1, k=k, c=1, n=n,
                        stride=stride, pad=pad, dilation=dilation, in_h=5, in_w=5,
                    )
                    try:
                        spec.out_hw
                    except NetworkSpecError:
                        continue
                    assert_counts_match(spec)


def test_instrumented_matches_formula_pointwise_sweep():
    for cin in (1, 4):
        for c in range(1, cin + 1):
            for cout in (1, 2):
                for stride, pad, _ in sweep_geometries():
                    assert_counts_match(
                        conv_spec(cout, cin, 1, c, 1, stride, pad, hw=4, kind="pwconv")
                    )


def test_instrumented_matches_formula_linear_sweep():
    for q in (1, 2, 5, 8):
        for r in range(1, q + 1):
            for p in (1, 3):
                assert_counts_match(
                    LayerSpec(index=1, kind="linear", cout=p, cin=q, k=1, c=r, n=1)
                )


def test_instrumented_unit_conv():
    counts = count_ops_instrumented(conv_spec(1, 1, 1, 1, 1, hw=1))
    assert counts["direct"] == {"mults": 1, "adds": 0}
    assert counts["decomposed"] == {"mults": 1, "adds": 0}


def test_instrumented_size_guard():
    big = conv_spec(64, 64, 3, 32, 3, pad=1, hw=32)
    with pytest.raises(ValueError, match="too large"):
        count_ops_instrumented(big)


def test_instrumented_size_guard_uses_the_map_the_layer_runs_on():
    # A linear layer runs on a 1x1 map whatever in_h and in_w say, so this
    # spec does 200 * 100 = 20,000 multiplications and is under the guard.
    spec = LayerSpec(index=1, kind="linear", cout=200, cin=100, k=1, c=40, n=1, in_h=8, in_w=8)
    assert_counts_match(spec)
    assert count_ops_instrumented(spec)["direct"]["mults"] == 20_000


def test_adds_per_output_amortized_over_channels():
    # The pooled map is built once and shared, so its add cost fades as the
    # output channel count grows; the per-output cost approaches c*n*n - 1.
    per_output = []
    for cout in (1, 16, 256):
        r = layer_costs(conv_spec(cout, 1, 3, 1, 2, pad=1, hw=8))
        per_output.append(r.adds_after / (cout * r.out_h * r.out_w))
    floor = 1 * 2 * 2 - 1
    assert per_output[0] > per_output[1] > per_output[2] > floor
    assert per_output[2] <= floor * 1.02
    assert_counts_match(conv_spec(16, 1, 3, 1, 2, pad=1, hw=8))


small_spec = st.tuples(
    st.integers(1, 6),  # cout
    st.integers(1, 6),  # cin
    st.integers(1, 4),  # k
    st.integers(1, 2),  # stride
    st.integers(0, 2),  # pad
    st.integers(1, 2),  # dilation
    st.integers(1, 9),  # in_hw
)


@given(small_spec, st.data())
@settings(max_examples=60, deadline=None)
def test_cost_model_never_grows(dims, data):
    cout, cin, k, stride, pad, dilation, hw = dims
    c = data.draw(st.integers(1, cin))
    n = data.draw(st.integers(1, k))
    spec = conv_spec(cout, cin, k, c, n, stride, pad, dilation, hw)
    try:
        spec.out_hw
    except NetworkSpecError:
        return
    r = layer_costs(spec)
    assert r.params_after <= r.params_before
    assert r.mults_after <= r.mults_before
    assert r.mult_ratio == r.param_ratio == Fraction(c * n * n, cin * k * k)


@given(
    st.integers(1, 2), st.integers(1, 3), st.integers(1, 3),
    st.integers(1, 2), st.integers(0, 1), st.integers(1, 2),
    st.data(),
)
@settings(max_examples=25, deadline=None)
def test_cost_model_matches_count_property(cout, cin, k, stride, pad, dilation, data):
    c = data.draw(st.integers(1, cin))
    n = data.draw(st.integers(1, k))
    spec = conv_spec(cout, cin, k, c, n, stride, pad, dilation, hw=4)
    try:
        spec.out_hw
    except NetworkSpecError:
        return
    assert_counts_match(spec)


# Spec validation.

def test_layer_spec_rejects_bad_fields():
    good = dict(index=1, kind="conv", cout=2, cin=2, k=3, c=1, n=2, in_h=5, in_w=5)
    bad = [
        dict(good, kind="deconv"),
        dict(good, cout=0),
        dict(good, stride=0),
        dict(good, pad=-1),
        dict(good, c=3),  # c > cin
        dict(good, n=4),  # n > k
        dict(good, kind="pwconv"),  # k != 1
        dict(good, kind="dwconv"),  # cin != 1
        dict(good, kind="dwconv", cin=1, c=2),  # c != 1
        dict(good, kind="linear"),  # k, n must be 1
        dict(good, kind="linear", k=1, n=1, c=1, stride=2),
    ]
    for fields in bad:
        with pytest.raises(NetworkSpecError):
            LayerSpec(**fields)


def test_layer_spec_geometry_error():
    spec = conv_spec(1, 1, 3, 1, 1, hw=1)  # kernel larger than padded input
    with pytest.raises(NetworkSpecError, match="layer 1"):
        spec.out_hw


# Network file parsing.

def write_net(tmp_path, layers):
    path = tmp_path / "net.json"
    path.write_text(json.dumps(layers), encoding="utf-8")
    return str(path)


def test_parse_propagates_spatial_sizes(tmp_path):
    path = write_net(tmp_path, [
        {"kind": "conv", "cout": 8, "cin": 3, "k": 3, "c": 2, "n": 2, "stride": 2, "pad": 1},
        {"kind": "dwconv", "cout": 8, "cin": 1, "k": 3, "c": 1, "n": 2, "pad": 1},
        {"kind": "pwconv", "cout": 4, "cin": 8, "k": 1, "c": 4, "n": 1},
        {"kind": "linear", "cout": 10, "cin": 4, "k": 1, "c": 2, "n": 1},
    ])
    layers = parse_network_spec(path, input_size=(8, 8))
    assert [s.index for s in layers] == [1, 2, 3, 4]
    assert (layers[0].in_h, layers[0].in_w) == (8, 8)
    assert layers[0].out_hw == (4, 4)
    assert (layers[1].in_h, layers[2].in_h) == (4, 4)
    assert (layers[3].in_h, layers[3].in_w) == (1, 1)


def test_parse_rejects_broken_inputs(tmp_path):
    with pytest.raises(NetworkSpecError, match="empty network"):
        parse_network_spec(write_net(tmp_path, []))
    with pytest.raises(NetworkSpecError, match="JSON array"):
        parse_network_spec(write_net(tmp_path, {"kind": "conv"}))
    path = tmp_path / "broken.json"
    path.write_text('[\n{"kind": "conv"},\n}garbage\n]', encoding="utf-8")
    with pytest.raises(NetworkSpecError, match="line 3"):
        parse_network_spec(str(path))


def test_parse_rejects_bad_layer_objects(tmp_path):
    row = {"kind": "conv", "cout": 4, "cin": 3, "k": 3, "c": 2, "n": 2, "pad": 1}
    with pytest.raises(NetworkSpecError, match="unknown keys.*'weight'"):
        parse_network_spec(write_net(tmp_path, [dict(row, weight=1)]))
    missing = {k: v for k, v in row.items() if k != "c"}
    with pytest.raises(NetworkSpecError, match="missing key 'c'"):
        parse_network_spec(write_net(tmp_path, [missing]))
    with pytest.raises(NetworkSpecError, match="layer 1: c=5 exceeds"):
        parse_network_spec(write_net(tmp_path, [dict(row, c=5)]))
    with pytest.raises(NetworkSpecError, match="expected an object"):
        parse_network_spec(write_net(tmp_path, [row, 7]))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: (
        st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3)
    ),
    max_leaves=8,
)
LAYER_KEYS = ("kind", "cout", "cin", "k", "c", "n", "stride", "pad", "dilation")
# Well-typed layers with at most two fields dropped or replaced, so that the
# fuzz reaches the range, geometry and channel-chain checks past the type checks.
LAYER_OBJECTS = st.builds(
    lambda layer, changes, dropped: {
        k: v for k, v in dict(layer, **changes).items() if k not in dropped
    },
    st.fixed_dictionaries(
        {"kind": st.sampled_from(["conv", "pwconv", "dwconv", "linear"])}
        | {key: st.integers(1, 9) for key in ("cout", "cin", "k", "c", "n")},
        optional={key: st.integers(0, 3) for key in ("stride", "pad", "dilation")},
    ),
    st.dictionaries(st.sampled_from(LAYER_KEYS) | st.text(max_size=4), JSON_VALUES, max_size=2),
    st.sets(st.sampled_from(LAYER_KEYS), max_size=2),
)


@settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(doc=st.lists(LAYER_OBJECTS, max_size=4) | JSON_VALUES)
def test_parse_network_spec_fuzz(tmp_path, doc):
    try:
        parse_network_spec(write_net(tmp_path, doc), input_size=(8, 8))
    except NetworkSpecError:
        pass


@pytest.mark.parametrize(
    "field, value",
    [("k", 3.9), ("k", 3.0), ("cout", True), ("stride", "2"), ("pad", None), ("n", [2])],
)
def test_parse_rejects_non_integer_fields(tmp_path, field, value):
    row = {"kind": "conv", "cout": 4, "cin": 3, "k": 3, "c": 2, "n": 2, "pad": 1}
    with pytest.raises(NetworkSpecError, match=f"layer 1: {field} must be an integer"):
        parse_network_spec(write_net(tmp_path, [dict(row, **{field: value})]))


@pytest.mark.parametrize(
    "kind, dims, want",
    [
        ("conv", dict(cout=4, cin=6, k=3, c=2, n=2, stride=2, pad=1),
         (StructuredConfig(6, 3, 2, 2), ConvGeometry(stride=2, padding=1))),
        ("pwconv", dict(cout=4, cin=6, k=1, c=3, n=1), (StructuredConfig(6, 1, 3, 1), ConvGeometry())),
        ("dwconv", dict(cout=6, cin=1, k=5, c=1, n=2, pad=2, dilation=2),
         (StructuredConfig(1, 5, 1, 2), ConvGeometry(padding=2, dilation=2, groups=6))),
        ("linear", dict(cout=4, cin=8, k=1, c=3, n=1), (StructuredConfig(8, 1, 3, 1), ConvGeometry())),
    ],
)
def test_layer_spec_cfg_per_kind(kind, dims, want):
    spec = LayerSpec(index=1, kind=kind, in_h=8, in_w=8, **dims)
    assert (spec.cfg, spec.geom) == want
    if kind == "dwconv":
        assert spec.cfg.pool_dims == (1, 4, 4)


def test_parse_checks_channel_chaining(tmp_path):
    rows = [
        {"kind": "conv", "cout": 8, "cin": 3, "k": 3, "c": 2, "n": 2, "pad": 1},
        {"kind": "pwconv", "cout": 4, "cin": 6, "k": 1, "c": 3, "n": 1},
    ]
    with pytest.raises(NetworkSpecError, match="layer 2: expects 6 .* produces 8"):
        parse_network_spec(write_net(tmp_path, rows), input_size=(8, 8))
    # Depthwise layers consume their own channel count.
    rows[1] = {"kind": "dwconv", "cout": 6, "cin": 1, "k": 3, "c": 1, "n": 2, "pad": 1}
    with pytest.raises(NetworkSpecError, match="layer 2"):
        parse_network_spec(write_net(tmp_path, rows), input_size=(8, 8))


def test_parse_rejects_bad_input_size(tmp_path):
    path = write_net(tmp_path, [
        {"kind": "conv", "cout": 4, "cin": 3, "k": 3, "c": 2, "n": 2, "pad": 1},
    ])
    with pytest.raises(NetworkSpecError, match="input size"):
        parse_network_spec(path, input_size=(0, 8))


# Shipped fixtures.

def test_fixture_mv2_a_contents():
    layers = parse_network_spec(fixture_path("struct_mv2_a.json"))
    assert len(layers) == 53
    head = layers[0]
    assert (head.kind, head.in_h, head.in_w) == ("conv", 224, 224)
    row51 = layers[50]
    assert (row51.kind, row51.cout, row51.cin, row51.c) == ("pwconv", 320, 960, 840)
    assert layer_costs(row51).params_after == 268800
    last = layers[-1]
    assert (last.kind, last.cout, last.cin, last.c) == ("linear", 1000, 1280, 640)


def test_fixture_mv2_b_compresses_spatially():
    layers = parse_network_spec(fixture_path("struct_mv2_b.json"))
    assert len(layers) == 53
    row17 = layers[16]
    assert (row17.kind, row17.cout, row17.k, row17.c, row17.n) == ("dwconv", 192, 3, 1, 2)
    assert layers[-1].c == 560


def test_fixture_effnet_contents():
    layers = parse_network_spec(fixture_path("struct_effnet.json"))
    assert len(layers) == 70
    assert (layers[-1].kind, layers[-1].cin, layers[-1].c) == ("linear", 1280, 480)


def test_fixture_mv2_a_totals():
    layers = parse_network_spec(fixture_path("struct_mv2_a.json"))
    net = aggregate(layer_costs(s) for s in layers)
    assert net.params_before == 3469760
    assert net.params_after == 2586560
    # Published totals also count batch-norm and bias terms; 5% absorbs them.
    assert abs(net.params_before - 3.50e6) <= 0.05 * 3.50e6
    assert abs(net.params_after - 2.62e6) <= 0.05 * 2.62e6
    assert net.mults_after < net.mults_before
    for spec, rep in zip(layers, net.layers):
        if spec.kind in ("conv", "pwconv"):
            assert rep.mult_ratio == Fraction(
                spec.c * spec.n * spec.n, spec.cin * spec.k * spec.k
            )


# Aggregation.

def test_aggregate_single_layer_is_identity():
    r = layer_costs(conv_spec(4, 3, 3, 2, 2, pad=1))
    net = aggregate([r])
    assert net.params_before == r.params_before
    assert net.adds_after == r.adds_after
    assert net.mult_ratio == r.mult_ratio


def test_aggregate_order_invariant():
    reports = [
        layer_costs(conv_spec(4, 3, 3, 2, 2, pad=1)),
        layer_costs(conv_spec(8, 4, 3, 1, 3, stride=2, pad=1, hw=8)),
        layer_costs(LayerSpec(index=3, kind="linear", cout=5, cin=9, k=1, c=4, n=1)),
    ]
    fwd = aggregate(reports)
    rev = aggregate(reports[::-1])
    assert (fwd.params_after, fwd.mults_after, fwd.adds_after) == (
        rev.params_after, rev.mults_after, rev.adds_after,
    )
    assert fwd.mult_ratio == rev.mult_ratio


def test_aggregate_rejects_empty():
    with pytest.raises(NetworkSpecError, match="no layers"):
        aggregate([])


# Config generation.

def test_generate_config_hits_round_targets():
    layers = [conv_spec(64, 64, 3, 1, 1, pad=1, hw=8)]
    (cfg,) = generate_config(layers, 2)
    assert (cfg["c"], cfg["n"]) == (32, 3)
    assert cfg["achieved_ratio"] == Fraction(2, 1)


def test_generate_config_depthwise_shrinks_kernel():
    layers = [LayerSpec(index=1, kind="dwconv", cout=16, cin=1, k=3, c=1, n=1,
                        pad=1, in_h=8, in_w=8)]
    (cfg,) = generate_config(layers, 2)
    assert (cfg["c"], cfg["n"]) == (1, 2)
    assert cfg["achieved_ratio"] == Fraction(9, 4)


def test_generate_config_unit_target_is_identity():
    layers = [
        conv_spec(8, 6, 3, 1, 1, pad=1, hw=8),
        LayerSpec(index=2, kind="dwconv", cout=8, cin=1, k=3, c=1, n=1, pad=1,
                  in_h=8, in_w=8),
        LayerSpec(index=3, kind="linear", cout=4, cin=8, k=1, c=1, n=1),
    ]
    cfgs = generate_config(layers, 1)
    assert [(c["c"], c["n"]) for c in cfgs] == [(6, 3), (1, 3), (8, 1)]
    assert all(c["achieved_ratio"] == 1 for c in cfgs)


def test_generate_config_rounds_half_up():
    (cfg,) = generate_config([conv_spec(2, 3, 3, 1, 1, pad=1, hw=8)], 2)
    assert cfg["c"] == 2
    assert cfg["achieved_ratio"] == Fraction(3, 2)


def test_generate_config_clamps_infeasible_target():
    layers = [conv_spec(2, 4, 3, 1, 1, pad=1, hw=8)]
    with pytest.warns(RuntimeWarning, match="clamping"):
        (cfg,) = generate_config(layers, 100)
    assert (cfg["c"], cfg["n"]) == (1, 1)
    assert cfg["achieved_ratio"] == Fraction(36, 1)


def test_generate_config_rejects_bad_ratio():
    with pytest.raises(ValueError, match="positive"):
        generate_config([conv_spec(2, 2, 3, 1, 1, pad=1)], 0)


def test_generate_config_feeds_back_into_costs():
    # Generated settings must be valid layer configs and land near target.
    layers = parse_network_spec(fixture_path("struct_mv2_a.json"))
    cfgs = generate_config(layers, 2)
    rebuilt = []
    for spec, cfg in zip(layers, cfgs):
        rebuilt.append(LayerSpec(
            index=spec.index, kind=spec.kind, cout=spec.cout, cin=spec.cin,
            k=spec.k, c=cfg["c"], n=cfg["n"], stride=spec.stride, pad=spec.pad,
            dilation=spec.dilation, in_h=spec.in_h, in_w=spec.in_w,
        ))
    net = aggregate(layer_costs(s) for s in rebuilt)
    ratio = net.params_before / net.params_after
    assert 1.5 <= ratio <= 2.5
