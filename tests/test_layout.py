"""Structural guards over src/, tests/ and perfbench/, run with the rest of the tests.

This module is the one home of the repository's structural rules. Each guard
reads a source tree and returns its violations, one "path:line: text" entry
each. A test asserts that the repository has none, and a parametrized test
plants one violation in a copy of src/, tests/ and perfbench/ under tmp_path
and asserts that the guard names it. Three rules wait in the CI workflow until the
benchmark under perfbench/ moves onto public names (ROADMAP item 1): the
per-kind layer names, lru_cache, and the per-kind forward names, each kept
inside structured.py's compatibility block.

This file spells no name that a guard over tests/ forbids, so those guards
pass on it too: such a name is written as two adjacent string literals.
"""

import ast
import pathlib
import re
import shutil

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
STRUCTURED = "src/structconv/structured.py"
TENSOR = "src/structconv/tensor.py"
TRAINING = "src/structconv/training.py"


def _sources(root, *trees):
    # The .py files under each tree, as paths relative to root.
    return [
        p.relative_to(root).as_posix()
        for tree in trees
        for p in sorted((root / tree).rglob("*.py"))
    ]


def _function_lines(path, *names):
    # The line numbers of the named top-level functions of path.
    lines = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.FunctionDef) and node.name in names:
            lines.update(range(node.lineno, node.end_lineno + 1))
    return lines


def _matching_lines(root, names, pattern, allowed=lambda path, i: False):
    # The lines of root/<name>, for each name, that match pattern and are
    # not allowed.
    bad = []
    for name in names:
        path = root / name
        bad += [
            f"{name}:{i}: {line.strip()}"
            for i, line in enumerate(path.read_text().splitlines(), 1)
            if re.search(pattern, line) and not allowed(path, i)
        ]
    return bad


def _flagged_nodes(root, names, flag):
    # The syntax nodes of root/<name>, for each name, that flag(name, node,
    # scope) describes: it returns one text per violation at the node, and
    # scope is the dotted path of the enclosing functions and classes, or
    # "module".
    bad = []
    for name in names:
        def walk(node, scope):
            for child in ast.iter_child_nodes(node):
                where = ".".join(scope) or "module"
                bad.extend(f"{name}:{child.lineno}: {text}" for text in flag(name, child, where))
                if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                    walk(child, scope + [child.name])
                else:
                    walk(child, scope)
        walk(ast.parse((root / name).read_text()), [])
    return bad


def _called(node):
    # The name a call calls, bare or as an attribute, or None.
    if isinstance(node, ast.Call):
        return getattr(node.func, "id", None) or getattr(node.func, "attr", None)
    return None


def no_inverse_in_structured(root):
    # structured.py applies the structure operators matrix-free: residue-class
    # sums and the band recursion, so no inverse, solve or SVD.
    return _matching_lines(root, [STRUCTURED], r"np\.linalg\.(inv|pinv|solve|lstsq|svd)")


def running_sums_only_in_window_pair(root):
    # tensor.window_sum and window_spread are the one all-ones window pair:
    # no other function in the package takes a running sum or a sliding
    # window view.
    tensor = root / TENSOR
    pair = _function_lines(tensor, "window_sum", "window_spread")
    return _matching_lines(root, _sources(root, "src"), r"cumsum|sliding_window_view",
                           lambda path, i: path == tensor and i in pair)


def no_einsum_in_conv_code(root):
    # tensor.conv and training run on matmul and shift-and-add.
    return _matching_lines(root, [TENSOR, TRAINING], r"einsum")


def no_np_pad_in_conv_code(root):
    # tensor.zero_pad is the one padding helper: one copy into an array of
    # zeros.
    return _matching_lines(root, [TENSOR, TRAINING], r"np\.pad\(")


def no_tap_loops_in_training(root):
    # training gathers and scatters kernel taps with tensor.im2col and
    # tensor.col2im, and walks no taps itself.
    return _matching_lines(root, [TRAINING], r"_tap_slices|np\.ndindex\(")


def no_per_sample_conv_in_training(root):
    # tensor.conv gathers one sample's columns, which the backward would
    # gather again: training builds the batch-last im2col columns once in
    # the forward.
    return _matching_lines(root, [TRAINING], r"\bconv\(")


def training_pools_through_sum_pool3d(root):
    # training pads and pools in one tensor.sum_pool3d call per layer
    # forward, never through window_sum or zero_pad itself.
    return _matching_lines(root, [TRAINING], r"window_sum\(|zero_pad\(")


def zero_pad_takes_no_axis(root):
    # zero_pad always pads axes 1 and 2, the spatial axes of a map or of a
    # batch.
    def flag(name, node, where):
        if _called(node) == "zero_pad" and any(k.arg == "axis" for k in node.keywords):
            yield "zero_pad(..., axis=...)"
    return _flagged_nodes(root, _sources(root, "src"), flag)


def im2col_takes_one_layout(root):
    # im2col and col2im share one layout, a padded C x H x W x B map: conv
    # passes its one map as xp[..., None], so no flag picks the batch axis.
    return _matching_lines(root, _sources(root, "src", "tests"), "batch_" "last")


def layer_built_only_in_decomposed_layer(root):
    # structured.decomposed_layer checks the coefficient and bias shapes, and
    # is the one place that calls DecomposedLayer. (That the layer stores only
    # cfg, alpha, geom and bias is a test in test_structured.py.)
    structured = root / STRUCTURED
    body = _function_lines(structured, "decomposed_layer")
    return _matching_lines(root, _sources(root, "src", "tests"), r"\bDecomposedLayer\s*\(",
                           lambda path, i: path == structured and i in body)


def private_names_of_structured_only_in_it(root):
    # Other modules call decompose and reconstruct, and read no name of
    # structured that starts with an underscore.
    def flag(name, node, where):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "structured":
            names = [a.name for a in node.names]
        elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "structured":
            names = [node.attr]
        else:
            names = []
        return [f"structured.{n}" for n in names if n.startswith("_")]
    return _flagged_nodes(root, [n for n in _sources(root, "src/structconv") if n != STRUCTURED],
                          flag)


def config_from_spec_and_one_sweep(root):
    # analyzer.LayerSpec maps a layer to its StructuredConfig, and
    # structured._worst_block_residual is the one sweep behind every structure
    # operator: _projection and _band_solve are called only inside it.
    def flag(name, node, where):
        called, file = _called(node), pathlib.PurePath(name).name
        if called == "StructuredConfig" and file != "structured.py" and (
            file, where) != ("analyzer.py", "LayerSpec.cfg"):
            yield f"StructuredConfig( in {where}"
        if called in ("_projection", "_band_solve") and (
            file != "structured.py" or where not in ("_projection", "_worst_block_residual")
        ):
            yield f"{called}( in {where}"
    return _flagged_nodes(root, _sources(root, "src"), flag)


def batch_permuted_only_at_the_models_edge(root):
    # training's layers pass (C, H, W, B) maps. ToyModel's methods permute
    # the input batch and the logits, and the direct-mode branch of
    # _Structured.backward hands reconstruct its (B, C, H, W) view; no other
    # code in training.py moves the batch axis.
    perms, branch = (["1", "2", "3", "0"], ["3", "0", "1", "2"]), set()

    def flag(name, node, where):
        if (where == "_Structured.backward" and isinstance(node, ast.If)
                and ast.unparse(node.test) == "self.direct"):
            branch.update(range(node.lineno, node.end_lineno + 1))  # seen before its body
        if _called(node) == "transpose":
            args = [ast.unparse(a) for a in node.args]
            if args in perms and not where.startswith("ToyModel.") and node.lineno not in branch:
                yield f"transpose({', '.join(args)}) in {where}"
    return _flagged_nodes(root, [TRAINING], flag)


# The library API that README documents: a caller outside the package uses
# it, and nothing inside need call it. composite.py's names stay only while
# perfbench/tracing.py imports that module; the benchmark change that moves
# perfbench/ onto public names (ROADMAP item 1) removes them with it.
LIBRARY_API = {
    "project", "block_alphas", "worst_kernel_residual", "generate_config", "sr_loss",
    "check_linear_independence", "compose_kernel", "conv_composite", "count_composite_ops",
}


def public_names_reached_from_src_or_benchmark(root):
    # A public top-level function or class of src/ is a command's, training's
    # or the benchmark's, or the documented library API: some code in src/
    # or perfbench/ other than its own definition and the package's
    # re-export names it (perfbench/ also by the attribute string its tracer
    # patches). Code that only tests/ reach belongs in tests/.
    used = set()
    for name in _sources(root, "src", "perfbench"):
        if name == "src/structconv/__init__.py":
            continue
        for stmt in ast.parse((root / name).read_text()).body:
            refs = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    refs.add(node.id)
                elif isinstance(node, ast.Attribute):
                    refs.add(node.attr)
                elif isinstance(node, ast.alias):
                    refs.add(node.name)
                elif isinstance(node, ast.Constant) and name.startswith("perfbench/"):
                    refs.add(node.value)
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                refs.discard(stmt.name)
            used |= refs
    bad = []
    for name in _sources(root, "src"):
        for stmt in ast.parse((root / name).read_text()).body:
            if (isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and not stmt.name.startswith("_")
                    and stmt.name not in used and stmt.name not in LIBRARY_API):
                bad.append(f"{name}:{stmt.lineno}: {stmt.name}")
    return bad


GUARDS = {
    "no_inverse_in_structured": no_inverse_in_structured,
    "config_from_spec_and_one_sweep": config_from_spec_and_one_sweep,
    "running_sums_only_in_window_pair": running_sums_only_in_window_pair,
    "no_einsum_in_conv_code": no_einsum_in_conv_code,
    "no_np_pad_in_conv_code": no_np_pad_in_conv_code,
    "no_tap_loops_in_training": no_tap_loops_in_training,
    "no_per_sample_conv_in_training": no_per_sample_conv_in_training,
    "training_pools_through_sum_pool3d": training_pools_through_sum_pool3d,
    "zero_pad_takes_no_axis": zero_pad_takes_no_axis,
    "im2col_takes_one_layout": im2col_takes_one_layout,
    "layer_built_only_in_decomposed_layer": layer_built_only_in_decomposed_layer,
    "private_names_of_structured_only_in_it": private_names_of_structured_only_in_it,
    "batch_permuted_only_at_the_models_edge": batch_permuted_only_at_the_models_edge,
    "public_names_reached_from_src_or_benchmark": public_names_reached_from_src_or_benchmark,
}

# (guard, file relative to the repository root, planted code, text the
# violation names)
PLANTED = {
    **{
        f"structured_{name}": (
            "no_inverse_in_structured", STRUCTURED,
            f"\n\ndef planted(a):\n    return np.linalg.{name}(a)\n", f"np.linalg.{name}(a)",
        )
        for name in ("inv", "pinv", "solve", "lstsq", "svd")
    },
    "config_in_cli": (
        "config_from_spec_and_one_sweep", "src/structconv/cli.py",
        "\n\ndef planted():\n    return StructuredConfig(1, 1, 1, 1)\n",
        "StructuredConfig( in planted",
    ),
    "config_in_analyzer_outside_layer_spec": (
        "config_from_spec_and_one_sweep", "src/structconv/analyzer.py",
        "\n\nPLANTED = StructuredConfig(1, 1, 1, 1)\n", "StructuredConfig( in module",
    ),
    "projection_outside_the_sweep": (
        "config_from_spec_and_one_sweep", STRUCTURED,
        "\n\ndef planted(x, cfg):\n    return _projection(x, cfg)\n", "_projection( in planted",
    ),
    "band_solve_outside_structured": (
        "config_from_spec_and_one_sweep", TRAINING,
        "\n\ndef planted(x):\n    return structured._band_solve(x, 2, 1)\n",
        "_band_solve( in planted",
    ),
    "cumsum_in_tensor_outside_the_pair": (
        "running_sums_only_in_window_pair", TENSOR,
        "\n\ndef planted(x):\n    return np.cumsum(x, axis=0)\n", "np.cumsum(x, axis=0)",
    ),
    "cumsum_in_structured": (
        "running_sums_only_in_window_pair", STRUCTURED,
        "\n\ndef planted(x):\n    return x.cumsum(axis=0)\n", "x.cumsum(axis=0)",
    ),
    "sliding_window_view_in_training": (
        "running_sums_only_in_window_pair", TRAINING,
        "\n\ndef planted(x):\n    return np.lib.stride_tricks.sliding_window_view(x, 3)\n",
        "sliding_window_view(x, 3)",
    ),
    **{
        f"einsum_in_{pathlib.PurePath(name).stem}": (
            "no_einsum_in_conv_code", name,
            "\n\ndef planted(a, b):\n    return np.einsum('ij,jk->ik', a, b)\n", "np.einsum(",
        )
        for name in (TENSOR, TRAINING)
    },
    **{
        f"np_pad_in_{pathlib.PurePath(name).stem}": (
            "no_np_pad_in_conv_code", name,
            "\n\ndef planted(x):\n    return np.pad(x, 1)\n", "np.pad(x, 1)",
        )
        for name in (TENSOR, TRAINING)
    },
    "tap_slices_in_training": (
        "no_tap_loops_in_training", TRAINING,
        "\n\ndef planted(x):\n    return x[tensor._tap_slices(0, 0, (2, 2), (1, 1), (1, 1))]\n",
        "tensor._tap_slices(",
    ),
    "ndindex_in_training": (
        "no_tap_loops_in_training", TRAINING,
        "\n\ndef planted(x):\n    return [x[u, v] for u, v in np.ndindex(3, 3)]\n",
        "np.ndindex(3, 3)",
    ),
    "conv_in_training": (
        "no_per_sample_conv_in_training", TRAINING,
        "\n\ndef planted(x, w):\n    return tensor.conv(x, w)\n", "tensor.conv(x, w)",
    ),
    "window_sum_in_training": (
        "training_pools_through_sum_pool3d", TRAINING,
        "\n\ndef planted(x):\n    return tensor.window_sum(x, 2, 1)\n",
        "tensor.window_sum(x, 2, 1)",
    ),
    "zero_pad_in_training": (
        "training_pools_through_sum_pool3d", TRAINING,
        "\n\ndef planted(x):\n    return tensor.zero_pad(x, 1)\n", "tensor.zero_pad(x, 1)",
    ),
    "zero_pad_with_axis_in_tensor": (
        "zero_pad_takes_no_axis", TENSOR,
        "\n\ndef planted(x):\n    return zero_pad(x, 1, axis=0)\n", "zero_pad(..., axis=...)",
    ),
    "zero_pad_with_axis_in_structured": (
        "zero_pad_takes_no_axis", STRUCTURED,
        "\n\ndef planted(x):\n    return tensor.zero_pad(x, 1, axis=0)\n",
        "zero_pad(..., axis=...)",
    ),
    "layout_flag_in_tensor": (
        "im2col_takes_one_layout", TENSOR,
        "\n\ndef planted(xp, kh, kw):\n    return im2col(xp, kh, kw, batch_" "last=False)\n",
        "im2col(xp, kh, kw, batch_",
    ),
    "layout_flag_in_tests": (
        "im2col_takes_one_layout", "tests/test_tensor.py",
        "\n\ndef test_planted(xp):\n    assert im2col(xp, 3, 3, batch_" "last=True).ndim == 2\n",
        "im2col(xp, 3, 3, batch_",
    ),
    "decomposed_layer_in_cli": (
        "layer_built_only_in_decomposed_layer", "src/structconv/cli.py",
        "\n\ndef planted(cfg, alpha, geom):\n    return structured.DecomposedLayer"
        "(cfg, alpha, geom, None)\n",
        "(cfg, alpha, geom, None)",
    ),
    "decomposed_layer_in_tests": (
        "layer_built_only_in_decomposed_layer", "tests/test_structured.py",
        "\n\ndef test_planted(cfg, alpha):\n    assert DecomposedLayer"
        "(cfg, alpha, None, None).bias is None\n",
        "(cfg, alpha, None, None)",
    ),
    "layer_class_in_structured_outside_decomposed_layer": (
        "layer_built_only_in_decomposed_layer", STRUCTURED,
        "\n\ndef planted(cfg, alpha, geom):\n    return DecomposedLayer"
        "(cfg, alpha, geom, None)\n",
        "(cfg, alpha, geom, None)",
    ),
    "private_attribute_of_structured_in_cli": (
        "private_names_of_structured_only_in_it", "src/structconv/cli.py",
        "\n\ndef planted(cfg):\n    return structured._bands(cfg)\n", "structured._bands",
    ),
    "private_import_from_structured_in_training": (
        "private_names_of_structured_only_in_it", TRAINING,
        "\n\nfrom .structured import _bands\n", "structured._bands",
    ),
    "batch_permutation_in_a_layer": (
        "batch_permuted_only_at_the_models_edge", TRAINING,
        "\n\nclass _GlobalAvgPool:\n    def backward(self, g):\n"
        "        return g.transpose(3, 0, 1, 2)\n",
        "transpose(3, 0, 1, 2) in _GlobalAvgPool.backward",
    ),
    "batch_permutation_in_a_function": (
        "batch_permuted_only_at_the_models_edge", TRAINING,
        "\n\ndef planted(x):\n    if x.direct:\n        return x.transpose(1, 2, 3, 0)\n",
        "transpose(1, 2, 3, 0) in planted",
    ),
    "function_only_tests_reach": (
        "public_names_reached_from_src_or_benchmark", TENSOR,
        "\n\ndef planted_oracle(x):\n    return planted_oracle(x - 1) if x else 0\n",
        "planted_oracle",
    ),
    "class_only_tests_reach": (
        "public_names_reached_from_src_or_benchmark", "src/structconv/analyzer.py",
        "\n\nclass PlantedCounts:\n    pass\n", "PlantedCounts",
    ),
}


@pytest.mark.parametrize("guard", sorted(GUARDS))
def test_guard_passes_on_the_tree(guard):
    assert GUARDS[guard](ROOT) == []


@pytest.mark.parametrize("case", sorted(PLANTED))
def test_guard_fails_on_a_planted_violation(tmp_path, case):
    guard, name, code, names = PLANTED[case]
    for tree in ("src", "tests", "perfbench"):
        shutil.copytree(ROOT / tree, tmp_path / tree,
                        ignore=shutil.ignore_patterns("__pycache__", ".*", "out"))
    assert GUARDS[guard](tmp_path) == []
    with open(tmp_path / name, "a", encoding="utf-8") as f:
        f.write(code)
    bad = GUARDS[guard](tmp_path)
    assert len(bad) == 1 and bad[0].startswith(f"{name}:"), bad
    assert names in bad[0], bad
