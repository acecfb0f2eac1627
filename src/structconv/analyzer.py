"""Analytic cost model for structured networks.

Counts are exact integers (multiplications, additions, parameters) for both
the dense evaluation of each layer and its pooled decomposition; ratios are
exact rationals. The tests check every count against loop evaluators that
tally each multiply and add as they run.

Layer kinds: "conv" (dense), "pwconv" (1x1 conv), "dwconv" (depthwise, one
kernel per channel, costed per channel since nothing is shared across them),
and "linear" (fully connected, structure parameter R carried in the c field).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .structured import StructuredConfig
from .tensor import ConvGeometry, GeometryError, _as_int, out_extent

_KINDS = ("conv", "pwconv", "dwconv", "linear")
# The exact integer counts that a CostReport and a NetworkCostReport share.
COUNT_FIELDS = (
    "params_before", "params_after", "mults_before", "mults_after", "adds_before", "adds_after",
)


class NetworkSpecError(ValueError):
    """Malformed or inconsistent network description."""


@dataclass(frozen=True)
class LayerSpec:
    """One layer's dims, structure config, geometry, and input spatial size."""

    index: int
    kind: str
    cout: int
    cin: int
    k: int
    c: int
    n: int
    stride: int = 1
    pad: int = 0
    dilation: int = 1
    in_h: int = 1
    in_w: int = 1

    def __post_init__(self):
        # Every integer field's type is checked before any range.
        for name in ("cout", "cin", "k", "c", "n", "stride", "pad", "dilation", "in_h", "in_w"):
            value = _as_int(getattr(self, name), f"layer {self.index}: {name}", NetworkSpecError)
            object.__setattr__(self, name, value)
        if self.kind not in _KINDS:
            raise NetworkSpecError(f"layer {self.index}: unknown kind {self.kind!r}")
        for name in ("cout", "cin", "k", "c", "n", "stride", "dilation", "in_h", "in_w"):
            if getattr(self, name) < 1:
                raise NetworkSpecError(
                    f"layer {self.index}: {name} must be >= 1, got {getattr(self, name)}"
                )
        if self.pad < 0:
            raise NetworkSpecError(f"layer {self.index}: pad must be >= 0, got {self.pad}")
        if self.kind == "pwconv" and self.k != 1:
            raise NetworkSpecError(f"layer {self.index}: pwconv requires k=1, got k={self.k}")
        if self.kind == "dwconv" and self.cin != 1:
            raise NetworkSpecError(
                f"layer {self.index}: dwconv uses cin=1 per channel, got cin={self.cin}"
            )
        if self.kind == "dwconv" and self.c != 1:
            raise NetworkSpecError(
                f"layer {self.index}: dwconv structure needs c=1, got c={self.c}"
            )
        if self.kind == "linear":
            if self.k != 1 or self.n != 1:
                raise NetworkSpecError(f"layer {self.index}: linear requires k=1 and n=1")
            if self.stride != 1 or self.pad != 0 or self.dilation != 1:
                raise NetworkSpecError(f"layer {self.index}: linear takes no geometry")
        if self.c > self.cin:
            raise NetworkSpecError(
                f"layer {self.index}: c={self.c} exceeds input channels {self.cin}"
            )
        if self.n > self.k:
            raise NetworkSpecError(f"layer {self.index}: n={self.n} exceeds kernel size {self.k}")

    @property
    def in_hw(self) -> tuple[int, int]:
        # A linear layer follows global pooling, so its map is 1x1.
        return (1, 1) if self.kind == "linear" else (self.in_h, self.in_w)

    @property
    def out_hw(self) -> tuple[int, int]:
        h, w = self.in_hw
        try:
            return (
                out_extent(h, self.k, self.stride, self.pad, self.dilation),
                out_extent(w, self.k, self.stride, self.pad, self.dilation),
            )
        except GeometryError as e:
            raise NetworkSpecError(f"layer {self.index}: {e}") from e

    @property
    def cfg(self) -> StructuredConfig:
        # Valid for every kind: dwconv has cin = c = 1, linear has k = n = 1.
        return StructuredConfig(C=self.cin, N=self.k, c=self.c, n=self.n)

    @property
    def geom(self) -> ConvGeometry:
        # A depthwise layer is the grouped case with one channel per group;
        # a linear layer's geometry is the default.
        groups = self.cout if self.kind == "dwconv" else 1
        return ConvGeometry(self.stride, self.pad, self.dilation, groups)


@dataclass(frozen=True)
class CostReport:
    index: int
    kind: str
    out_h: int
    out_w: int
    params_before: int
    params_after: int
    mults_before: int
    mults_after: int
    adds_before: int
    adds_after: int
    param_ratio: Fraction
    mult_ratio: Fraction


def layer_costs(spec: LayerSpec) -> CostReport:
    """Exact op/param counts for one layer, dense vs decomposed.

    One formula serves every kind: a linear layer is a conv with k = n = 1 on
    a 1x1 map. The decomposed add count has two parts: building the pooled
    planes (window size minus one adds per pooled element) and running the
    small kernel (c*n*n - 1 adds per output). A conv's c pooled planes are
    shared by every output channel; a depthwise layer pools its cout planes
    one by one.
    """
    ho, wo = spec.out_hw
    h, w = spec.in_hw
    # Each padded side loses the stride-1 pool window's dilated extent, less 1.
    shrink = spec.dilation * (spec.k - spec.n) - 2 * spec.pad
    pooled = (h - shrink) * (w - shrink)
    outputs = spec.cout * ho * wo
    dense = spec.cin * spec.k * spec.k
    small = spec.c * spec.n * spec.n
    pool_window = (spec.cin - spec.c + 1) * (spec.k - spec.n + 1) ** 2
    planes = spec.cout if spec.kind == "dwconv" else spec.c
    params_b = spec.cout * dense
    params_a = spec.cout * small
    mults_b = dense * outputs
    mults_a = small * outputs
    adds_b = (dense - 1) * outputs
    adds_a = (pool_window - 1) * planes * pooled + (small - 1) * outputs
    return CostReport(
        index=spec.index,
        kind=spec.kind,
        out_h=ho,
        out_w=wo,
        params_before=params_b,
        params_after=params_a,
        mults_before=mults_b,
        mults_after=mults_a,
        adds_before=adds_b,
        adds_after=adds_a,
        param_ratio=Fraction(params_a, params_b),
        mult_ratio=Fraction(mults_a, mults_b),
    )


@dataclass(frozen=True)
class NetworkCostReport:
    layers: tuple[CostReport, ...]
    params_before: int
    params_after: int
    mults_before: int
    mults_after: int
    adds_before: int
    adds_after: int
    param_ratio: Fraction
    mult_ratio: Fraction
    add_ratio: Fraction


def aggregate(reports) -> NetworkCostReport:
    """Network totals; a plain sum, so layer order does not matter."""
    reports = tuple(reports)
    if not reports:
        raise NetworkSpecError("no layers to aggregate")
    totals = {f: sum(getattr(r, f) for r in reports) for f in COUNT_FIELDS}
    return NetworkCostReport(
        layers=reports,
        **totals,
        param_ratio=Fraction(totals["params_after"], totals["params_before"]),
        mult_ratio=Fraction(totals["mults_after"], totals["mults_before"]),
        add_ratio=Fraction(totals["adds_after"], totals["adds_before"]),
    )


def parse_network_spec(path, input_size=(224, 224)) -> list[LayerSpec]:
    """Load a network description (JSON array of layer objects) and propagate
    spatial sizes layer to layer from the declared input size.

    Layer objects carry {kind, cout, cin, k, c, n} plus optional
    {stride, pad, dilation}. Channel chaining is checked: a layer's input
    channel count must match its predecessor's output. A linear layer is
    assumed to follow global pooling, so its spatial size is 1x1.
    """
    try:
        with open(path, encoding="utf-8") as f:
            raw = json.load(f)
    except json.JSONDecodeError as e:
        raise NetworkSpecError(f"parse error at line {e.lineno}: {e.msg}") from e
    if not isinstance(raw, list):
        raise NetworkSpecError("network description must be a JSON array of layers")
    if not raw:
        raise NetworkSpecError("empty network")
    h, w = (_as_int(v, "input size", NetworkSpecError) for v in input_size)
    if h < 1 or w < 1:
        raise NetworkSpecError(f"input size must be positive, got {input_size}")
    layers = []
    channels = None
    for i, obj in enumerate(raw, start=1):
        if not isinstance(obj, dict):
            raise NetworkSpecError(f"layer {i}: expected an object, got {type(obj).__name__}")
        unknown = set(obj) - {"kind", "cout", "cin", "k", "c", "n", "stride", "pad", "dilation"}
        if unknown:
            raise NetworkSpecError(f"layer {i}: unknown keys {sorted(unknown)}")
        missing = [key for key in ("kind", "cout", "cin", "k", "c", "n") if key not in obj]
        if missing:
            raise NetworkSpecError(f"layer {i}: missing key {missing[0]!r}")
        fields = {key: value for key, value in obj.items() if key != "kind"}
        linear = obj["kind"] == "linear"
        spec = LayerSpec(
            index=i, kind=obj["kind"], in_h=1 if linear else h, in_w=1 if linear else w, **fields
        )
        in_ch = spec.cout if spec.kind == "dwconv" else spec.cin
        if channels is not None and in_ch != channels:
            raise NetworkSpecError(
                f"layer {i}: expects {in_ch} input channels but layer {i - 1} "
                f"produces {channels}"
            )
        h, w = spec.out_hw
        channels = spec.cout
        layers.append(spec)
    return layers


def generate_config(layers, target_ratio) -> list[dict]:
    """Pick {c, n} per layer aiming at a target dense/structured param ratio.

    Standard, pointwise, and linear layers keep n = k and shrink c to
    max(1, round(cin * n^2 / (k^2 * ratio))); depthwise layers keep c = 1 and
    shrink n to the largest value with k^2/n^2 >= ratio. Halfway values round
    up. A target beyond cin * k^2 is unreachable; those layers clamp to
    {c=1, n=1} and a warning is emitted.
    """
    import warnings

    ratio = Fraction(target_ratio) if not isinstance(target_ratio, Fraction) else target_ratio
    if ratio <= 0:
        raise ValueError(f"target ratio must be positive, got {target_ratio}")
    out = []
    for spec in layers:
        if ratio > spec.cin * spec.k * spec.k:
            warnings.warn(
                f"layer {spec.index}: target ratio {float(ratio):g} exceeds the "
                f"maximum {spec.cin * spec.k * spec.k}; clamping to c=1, n=1",
                RuntimeWarning,
                stacklevel=2,
            )
            c, n = 1, 1
        elif spec.kind == "dwconv":
            c = 1
            n = next(
                (cand for cand in range(spec.k, 0, -1) if Fraction(spec.k**2, cand**2) >= ratio),
                1,
            )
        else:
            n = spec.k
            c = max(1, int(Fraction(spec.cin, 1) / ratio + Fraction(1, 2)))
            c = min(c, spec.cin)
        achieved = Fraction(spec.cin * spec.k * spec.k, c * n * n)
        out.append({"index": spec.index, "c": c, "n": n, "achieved_ratio": achieved})
    return out
