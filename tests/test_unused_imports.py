"""No module in ``src/repro`` keeps an import it never uses.

Deleting a function tends to orphan the imports only it needed.  Package
``__init__`` modules are skipped: their imports are the re-exports.  A
name counts as used when it is loaded anywhere in the module or appears
as a token in a string that is not a docstring (quoted annotations,
``__all__``).
"""

import ast
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
_TOKEN = re.compile(r"[A-Za-z_]\w*")


def _module_imports(tree: ast.Module):
    """(bound name, line) of each import in the module's top-level body,
    ``if TYPE_CHECKING:`` blocks included."""
    for top in tree.body:
        for node in top.body if isinstance(top, ast.If) else [top]:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    yield bound, node.lineno


def _used_names(tree: ast.Module) -> set[str]:
    docstrings = {
        id(node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
    }
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in docstrings
        ):
            used.update(_TOKEN.findall(node.value))
    return used


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used_names(tree)
    return [
        f"{path.relative_to(SRC.parent)}:{line}: {name}"
        for name, line in _module_imports(tree)
        if name not in used
    ]


@pytest.mark.parametrize(
    "path",
    sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py"),
    ids=lambda p: str(p.relative_to(SRC)),
)
def test_no_unused_module_imports(path):
    assert unused_imports(path) == []
