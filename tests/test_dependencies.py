"""The package imports nothing but the standard library, numpy and scipy,
and defines no module-level function or class that nothing uses."""

import ast
import collections
import pathlib
import re
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "matmine"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "scipy", "matmine"}


def _imported_roots(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_imports_stay_within_stdlib_numpy_and_scipy(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert sorted(set(_imported_roots(tree)) - ALLOWED) == []


def test_every_module_level_function_and_class_is_used():
    # a name counts as used when it occurs in the Python sources of src/,
    # perfbench/ or scripts/ anywhere but on its own definition line; a use
    # in tests/ alone does not count, so code only tests call stays out of src/
    texts = [p.read_text(encoding="utf-8") for d in ("src", "perfbench", "scripts")
             for p in sorted((ROOT / d).rglob("*.py"))]
    words = collections.Counter(w for text in texts
                                for w in re.findall(r"[A-Za-z_]\w*", text))
    unused = []
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        for node in ast.parse(text, filename=str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                own = re.findall(rf"\b{node.name}\b", lines[node.lineno - 1])
                if words[node.name] == len(own):
                    unused.append(f"{path.name}:{node.lineno} {node.name}")
    assert unused == []
