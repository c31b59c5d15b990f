"""Every name a library module imports is used in that module, and the
one runtime dependency is imported only where it is needed.

No linter ships with the project, so this parses each module with ``ast``:
an imported name that no other part of the module reads is dead weight.
"""
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import arknit

MODULES = sorted(p for p in Path(arknit.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name == "*" or alias.name == "annotations":
                    continue
                name = alias.asname or alias.name.partition(".")[0]
                imported.setdefault(name, node.lineno)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used |= {n.value.id for n in ast.walk(tree)
             if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_detects_an_unused_import():
    src = "from x import a, b\nimport c\nprint(a)\n"
    assert unused_imports(src) == [(1, "b"), (2, "c")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_sympy_is_not_loaded_by_import_or_a_plain_verb():
    code = ("import sys, arknit, arknit.cli\n"
            "code = arknit.cli.main(['quiver', '--quiver', "
            "'{\"preset\":\"line\"}'])\n"
            "assert code == 0, code\n"
            "assert 'sympy' not in sys.modules\n")
    src = str(Path(arknit.__file__).parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
