"""Package surface: every exported name resolves, no module keeps a dead import, and
the README's examples run."""
import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import hopfieldkit
import hopfieldkit.quantum

SRC = Path(hopfieldkit.__file__).parent
MODULES = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")
ROOT = Path(__file__).resolve().parents[1]


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


def readme_examples() -> dict[str, list[str]]:
    """The README's fenced python blocks that import hopfieldkit, by section heading."""
    examples, heading = {}, None
    text = (ROOT / "README.md").read_text()
    for match in re.finditer(r"^## ([^\n]+)$|^```python\n(.*?)^```", text, re.M | re.S):
        if match.group(1) is not None:
            heading = match.group(1)
        elif re.search(r"^(from|import) hopfieldkit", match.group(2), re.M):
            examples.setdefault(heading, []).append(match.group(2))
    return examples


def test_readme_examples_run(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    outputs = {}
    for heading, blocks in readme_examples().items():
        for block in blocks:
            proc = subprocess.run([sys.executable, "-c", block], cwd=tmp_path, env=env,
                                  capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, f"{heading}: {proc.stderr}"
            outputs[heading] = proc.stdout
    assert outputs["Library use"] == "[ 1.  1.  1. -1.] True\n"
