"""Tests for the benchmark harness on a tiny generated network.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import harness  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from structconv import structured, tensor  # noqa: E402

TINY_NET = [
    {"kind": "conv", "cout": 4, "cin": 3, "k": 3, "c": 2, "n": 2, "stride": 2, "pad": 1},
    {"kind": "dwconv", "cout": 4, "cin": 1, "k": 3, "c": 1, "n": 2, "pad": 1},
    {"kind": "pwconv", "cout": 6, "cin": 4, "k": 1, "c": 3, "n": 1},
    {"kind": "linear", "cout": 5, "cin": 6, "k": 1, "c": 2, "n": 1},
]


@pytest.fixture
def tiny(tmp_path):
    path = tmp_path / "net.json"
    path.write_text(json.dumps(TINY_NET), encoding="utf-8")
    return str(path)


def _params(name, config):
    return {
        "infer-mv2b": {"config": config, "input_size": (8, 8)},
        "verify-effnet": {"config": config, "trials": 1},
        "decompose-effnet": {"config": config},
        "train-toy": {"epochs": 1},
    }[name]


def _run(name, config, tmp_path, trace, **extra):
    return harness.run(name, 3, 0.0, trace, str(tmp_path / "work"), **_params(name, config), **extra)


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def test_benchmark_json_names_workloads_and_every_metric():
    spec = _benchmark_json()
    listed = [w["name"] for w in spec["workloads"]]
    assert listed == [name for name in workloads.WORKLOADS if name != "verify-effnet"]
    for key, table in (("end_to_end", harness.END_TO_END), ("per_layer", harness.PER_LAYER)):
        assert {m["name"]: (m["unit"], m["better"]) for m in spec[key]} == table


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_untraced_run_prints_every_end_to_end_metric(name, tiny, tmp_path):
    result, report = _run(name, tiny, tmp_path, trace=False)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        k: unit for k, (unit, _) in harness.END_TO_END.items()
    }
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert len(report["setup_s"]) == harness.SETUP_REPEATS
    assert report["environment"]["seed"] == 3


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_run_prints_every_per_layer_metric(name, tiny, tmp_path):
    result, report = _run(name, tiny, tmp_path, trace=True)
    assert result["correct"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        k: unit for k, (unit, _) in harness.PER_LAYER.items()
    }
    assert report["tracer"].spans
    # The wrappers are gone again, including the by-name imports.
    assert structured.conv is tensor.conv
    assert not hasattr(tensor.conv, "__wrapped__")


def test_traced_counts_match_the_analyzer(tiny, tmp_path):
    result, _ = _run("infer-mv2b", tiny, tmp_path, trace=True)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["tensor.conv.calls"] == 2 * len(TINY_NET) - 1  # dense and small convs, one linear
    assert m["tensor.sum_pool3d.calls"] == len(TINY_NET) - 1
    assert m["analyzer.mults_dense"] > m["analyzer.mults_decomposed"] > 0


def test_decompose_checks_every_kernel_twice(tiny, tmp_path):
    result, _ = _run("decompose-effnet", tiny, tmp_path, trace=True)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["structured.residual.evals_per_kernel"] == 2.0
    assert m["structured.structure_matrix.misses"] == len(TINY_NET)


def test_corrupt_verify_counts_as_failed(tiny, tmp_path):
    result, _ = _run("verify-effnet", tiny, tmp_path, trace=False, corrupt=True)
    assert result["attempted"] >= 1
    assert result["failed"] == result["attempted"]
    assert result["correct"] is False


def test_count_mismatch_stops_the_benchmark(tiny, tmp_path, monkeypatch):
    monkeypatch.setitem(workloads.PINNED_MULTS, "net.json", (1, 1))
    with pytest.raises(workloads.CountMismatch):
        workloads.checked_costs(tiny, (224, 224))


def test_self_time_subtracts_the_union_of_children_across_threads():
    spans = [
        tracing.Span(0, "root", 0.0, None, 0, 1, end=10.0),
        tracing.Span(1, "a", 1.0, 0, 0, 2, end=4.0),
        tracing.Span(2, "b", 2.0, 0, 0, 3, end=6.0),
        tracing.Span(3, "c", 2.5, 2, 0, 3, end=3.0),
    ]
    assert tracing.self_times(spans) == [5.0, 3.0, 3.5, 0.5]


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train-toy", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, env=env, timeout=60,
    )
    assert p.returncode != 0
    assert p.stdout == ""
