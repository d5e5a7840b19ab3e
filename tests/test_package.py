"""Package surface: every exported name resolves, and no module keeps a dead import."""
import ast
from pathlib import Path

import pytest

import hopfieldkit
import hopfieldkit.quantum

SRC = Path(hopfieldkit.__file__).parent
MODULES = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("package", [hopfieldkit, hopfieldkit.quantum],
                         ids=lambda p: p.__name__)
def test_every_exported_name_resolves_once(package):
    names = package.__all__
    assert sorted(n for n in set(names) if names.count(n) > 1) == []
    assert [n for n in names if not hasattr(package, n)] == []


def unused_imports(path: Path) -> list[str]:
    """Names bound by the module's top-level imports that the module never reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.relative_to(SRC).as_posix())
def test_module_has_no_unused_import(path):
    assert unused_imports(path) == []
