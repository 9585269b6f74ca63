"""The library imports only numpy, the standard library and itself; scipy and
hypothesis are test dependencies."""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "mwkit"
ALLOWED = {"numpy"} | set(sys.stdlib_module_names)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_imports_only_numpy_and_the_standard_library(path):
    outside = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:  # not an import, or a relative import of mwkit
            continue
        outside += [m for m in modules if m.split(".")[0] not in ALLOWED]
    assert not outside, f"{path.name} imports {outside}"
