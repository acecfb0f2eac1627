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


def no_inverse_in_structured(root):
    # structured.py applies the structure operators matrix-free: residue-class
    # sums and the band recursion, so no inverse, solve or SVD.
    path = root / "src" / "structconv" / "structured.py"
    return [
        f"{path.relative_to(root)}:{i}: {line.strip()}"
        for i, line in enumerate(path.read_text().splitlines(), 1)
        if re.search(r"np\.linalg\.(inv|pinv|solve|lstsq|svd)", line)
    ]


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
