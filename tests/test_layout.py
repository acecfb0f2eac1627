"""Structural guards over src/, run with the rest of the tests.

Each guard reads a source tree and returns its violations, one
"path:line: text" entry each. A test asserts that the repository has none,
and a parametrized test plants one violation in a copy of src/ under
tmp_path and asserts that the guard names it.
"""

import ast
import pathlib
import re
import shutil

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _matching_lines(root, names, pattern, allowed=lambda path, i: False):
    # The lines of src/structconv/<name>, for each name, that match pattern
    # and are not allowed.
    bad = []
    for name in names:
        path = root / "src" / "structconv" / name
        bad += [
            f"{path.relative_to(root)}:{i}: {line.strip()}"
            for i, line in enumerate(path.read_text().splitlines(), 1)
            if re.search(pattern, line) and not allowed(path, i)
        ]
    return bad


def no_inverse_in_structured(root):
    # structured.py applies the structure operators matrix-free: residue-class
    # sums and the band recursion, so no inverse, solve or SVD.
    return _matching_lines(root, ["structured.py"], r"np\.linalg\.(inv|pinv|solve|lstsq|svd)")


def running_sums_only_in_window_pair(root):
    # tensor.window_sum and window_spread are the one all-ones window pair:
    # no other function in the package takes a running sum or a sliding
    # window view.
    src = root / "src" / "structconv"
    tensor, pair = src / "tensor.py", set()
    for node in ast.parse(tensor.read_text()).body:
        if isinstance(node, ast.FunctionDef) and node.name in ("window_sum", "window_spread"):
            pair.update(range(node.lineno, node.end_lineno + 1))
    names = sorted(p.relative_to(src).as_posix() for p in src.rglob("*.py"))
    return _matching_lines(root, names, r"cumsum|sliding_window_view",
                           lambda path, i: path == tensor and i in pair)


def no_einsum_in_conv_code(root):
    # tensor.conv and training run on matmul and shift-and-add.
    return _matching_lines(root, ["tensor.py", "training.py"], r"einsum")


def no_np_pad_in_conv_code(root):
    # tensor.zero_pad is the one padding helper: one copy into an array of
    # zeros.
    return _matching_lines(root, ["tensor.py", "training.py"], r"np\.pad\(")


def no_tap_loops_in_training(root):
    # training gathers and scatters kernel taps with tensor.im2col and
    # tensor.col2im, and walks no taps itself.
    return _matching_lines(root, ["training.py"], r"_tap_slices|np\.ndindex\(")


def no_per_sample_conv_in_training(root):
    # tensor.conv gathers one sample's columns, which the backward would
    # gather again: training builds the batch-last im2col columns once in
    # the forward.
    return _matching_lines(root, ["training.py"], r"\bconv\(")


def config_from_spec_and_one_sweep(root):
    # analyzer.LayerSpec maps a layer to its StructuredConfig, and
    # structured._worst_block_residual is the one sweep behind every structure
    # operator: _projection and _band_solve are called only inside it.
    bad = []
    for path in sorted((root / "src").rglob("*.py")):
        def walk(node, scope):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                    walk(child, scope + [child.name])
                    continue
                if isinstance(child, ast.Call):
                    name = getattr(child.func, "id", None) or getattr(child.func, "attr", None)
                    where = ".".join(scope)
                    if name == "StructuredConfig" and path.name != "structured.py" and (
                        path.name, where) != ("analyzer.py", "LayerSpec.cfg"):
                        bad.append(f"{path.relative_to(root)}:{child.lineno}: "
                                   f"StructuredConfig( in {where or 'module'}")
                    if name in ("_projection", "_band_solve") and (
                        path.name != "structured.py"
                        or where not in ("_projection", "_worst_block_residual")
                    ):
                        bad.append(f"{path.relative_to(root)}:{child.lineno}: "
                                   f"{name}( in {where or 'module'}")
                walk(child, scope)
        walk(ast.parse(path.read_text()), [])
    return bad


GUARDS = {
    "no_inverse_in_structured": no_inverse_in_structured,
    "config_from_spec_and_one_sweep": config_from_spec_and_one_sweep,
    "running_sums_only_in_window_pair": running_sums_only_in_window_pair,
    "no_einsum_in_conv_code": no_einsum_in_conv_code,
    "no_np_pad_in_conv_code": no_np_pad_in_conv_code,
    "no_tap_loops_in_training": no_tap_loops_in_training,
    "no_per_sample_conv_in_training": no_per_sample_conv_in_training,
}

# (guard, file under src/structconv, planted code, text the violation names)
PLANTED = {
    **{
        f"structured_{name}": (
            "no_inverse_in_structured", "structured.py",
            f"\n\ndef planted(a):\n    return np.linalg.{name}(a)\n", f"np.linalg.{name}(a)",
        )
        for name in ("inv", "pinv", "solve", "lstsq", "svd")
    },
    "config_in_cli": (
        "config_from_spec_and_one_sweep", "cli.py",
        "\n\ndef planted():\n    return StructuredConfig(1, 1, 1, 1)\n",
        "StructuredConfig( in planted",
    ),
    "config_in_analyzer_outside_layer_spec": (
        "config_from_spec_and_one_sweep", "analyzer.py",
        "\n\nPLANTED = StructuredConfig(1, 1, 1, 1)\n", "StructuredConfig( in module",
    ),
    "projection_outside_the_sweep": (
        "config_from_spec_and_one_sweep", "structured.py",
        "\n\ndef planted(x, cfg):\n    return _projection(x, cfg)\n", "_projection( in planted",
    ),
    "band_solve_outside_structured": (
        "config_from_spec_and_one_sweep", "training.py",
        "\n\ndef planted(x):\n    return structured._band_solve(x, 2, 1)\n",
        "_band_solve( in planted",
    ),
    "cumsum_in_tensor_outside_the_pair": (
        "running_sums_only_in_window_pair", "tensor.py",
        "\n\ndef planted(x):\n    return np.cumsum(x, axis=0)\n", "np.cumsum(x, axis=0)",
    ),
    "cumsum_in_structured": (
        "running_sums_only_in_window_pair", "structured.py",
        "\n\ndef planted(x):\n    return x.cumsum(axis=0)\n", "x.cumsum(axis=0)",
    ),
    "sliding_window_view_in_training": (
        "running_sums_only_in_window_pair", "training.py",
        "\n\ndef planted(x):\n    return np.lib.stride_tricks.sliding_window_view(x, 3)\n",
        "sliding_window_view(x, 3)",
    ),
    **{
        f"einsum_in_{name[:-3]}": (
            "no_einsum_in_conv_code", name,
            "\n\ndef planted(a, b):\n    return np.einsum('ij,jk->ik', a, b)\n", "np.einsum(",
        )
        for name in ("tensor.py", "training.py")
    },
    **{
        f"np_pad_in_{name[:-3]}": (
            "no_np_pad_in_conv_code", name,
            "\n\ndef planted(x):\n    return np.pad(x, 1)\n", "np.pad(x, 1)",
        )
        for name in ("tensor.py", "training.py")
    },
    "tap_slices_in_training": (
        "no_tap_loops_in_training", "training.py",
        "\n\ndef planted(x):\n    return x[tensor._tap_slices(0, 0, (2, 2), (1, 1), (1, 1))]\n",
        "tensor._tap_slices(",
    ),
    "ndindex_in_training": (
        "no_tap_loops_in_training", "training.py",
        "\n\ndef planted(x):\n    return [x[u, v] for u, v in np.ndindex(3, 3)]\n",
        "np.ndindex(3, 3)",
    ),
    "conv_in_training": (
        "no_per_sample_conv_in_training", "training.py",
        "\n\ndef planted(x, w):\n    return tensor.conv(x, w)\n", "tensor.conv(x, w)",
    ),
}


@pytest.mark.parametrize("guard", sorted(GUARDS))
def test_guard_passes_on_the_tree(guard):
    assert GUARDS[guard](ROOT) == []


@pytest.mark.parametrize("case", sorted(PLANTED))
def test_guard_fails_on_a_planted_violation(tmp_path, case):
    guard, name, code, names = PLANTED[case]
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    assert GUARDS[guard](tmp_path) == []
    with open(tmp_path / "src" / "structconv" / name, "a", encoding="utf-8") as f:
        f.write(code)
    bad = GUARDS[guard](tmp_path)
    assert len(bad) == 1 and bad[0].startswith(f"src/structconv/{name}:"), bad
    assert names in bad[0], bad
