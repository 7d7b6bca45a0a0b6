"""Module boundaries and test tooling."""

import ast
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "limitcone").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_private_cross_module_imports(path):
    private = [
        f"line {node.lineno}: from {'.' * node.level}{node.module or ''} import {a.name}"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for a in node.names
        if a.name.startswith("_") and not a.name.endswith("__")  # dunders are public
    ]
    assert not private, private


def test_mistyped_marker_fails_collection(tmp_path):
    # a mistyped `slow` would otherwise let a long test into the fast suite
    shutil.copy(ROOT / "pyproject.toml", tmp_path)
    (tmp_path / "test_typo.py").write_text(
        "import pytest\n\n\n@pytest.mark.slwo\ndef test_x():\n    pass\n"
    )
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "test_typo.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "'slwo' not found" in proc.stdout
