"""Runtime dependencies stay numpy-only: scipy is installed alongside but is
not a declared dependency of the package."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "artdesc"


def _imported_modules(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_src_does_not_import_scipy():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        offenders += [f"{path.relative_to(SRC)}: {name}" for name in _imported_modules(tree)
                      if name == "scipy" or name.startswith("scipy.")]
    assert list(SRC.rglob("*.py")), "no sources found"
    assert offenders == []
