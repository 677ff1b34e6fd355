"""``src/`` reads no environment variable and no home directory, and
depends on no test code.

Everything the library computes must follow from its code and its
arguments: an input read from the environment or from a file under
``$HOME`` would change results without changing any cache key.  This scan
walks the AST of every module under ``src/`` and fails on ``os.environ``,
``os.getenv`` (and their ``from os import`` forms), ``Path.home()`` and
``expanduser``.

Oracles depend on ``src/``, never the reverse: a second scan fails on any
import of ``tests``, an oracle module (``tests/oracles/``, imported by bare
name), ``pytest`` or ``hypothesis``; and ``repro.nn`` exports only what
``src/`` itself uses, the composable tape ops living in
``tests/oracles/tape.py``.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import List

import pytest

import repro.nn

SRC = Path(__file__).resolve().parents[2] / "src"
ORACLES = Path(__file__).resolve().parents[1] / "oracles"

#: Top-level modules ``src/`` may not import.
_TEST_MODULES = ({"tests", "oracles", "pytest", "hypothesis"}
                 | {path.stem for path in ORACLES.glob("*.py")})

#: Attributes whose mere use reads the environment or the home directory.
_FORBIDDEN_ATTRS = {"environ", "environb", "getenv", "getenvb", "expanduser"}


def _dotted(node: ast.AST) -> str:
    """``a.b.c`` for a Name / Attribute chain, else ``""``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return f"{base}.{node.attr}" if base else ""
    return ""


def violations(source: str, filename: str = "<src>") -> List[str]:
    """``file:line: what`` for every environment or home-directory read."""
    found = []
    for node in ast.walk(ast.parse(source, filename)):
        what = None
        if isinstance(node, ast.Attribute) and node.attr in _FORBIDDEN_ATTRS:
            what = _dotted(node) or node.attr
        elif (isinstance(node, ast.Attribute) and node.attr == "home"
              and _dotted(node.value).split(".")[-1] == "Path"):
            what = _dotted(node)
        elif isinstance(node, ast.ImportFrom) and node.module in ("os", "os.path"):
            names = {a.name for a in node.names} & _FORBIDDEN_ATTRS
            if names:
                what = f"from {node.module} import {', '.join(sorted(names))}"
        if what:
            found.append(f"{filename}:{node.lineno}: {what}")
    return found


def test_src_reads_no_environment_and_no_home_directory():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        found += violations(path.read_text(encoding="utf-8"),
                            str(path.relative_to(SRC)))
    assert found == []


@pytest.mark.parametrize("snippet", [
    "import os\nx = os.environ.get('A')",
    "import os\nx = os.environ['A']",
    "import os\nx = os.getenv('A')",
    "from os import environ",
    "from os import getenv as g",
    "from pathlib import Path\np = Path.home()",
    "import pathlib\np = pathlib.Path.home() / '.cache'",
    "import os.path\np = os.path.expanduser('~/x')",
    "from pathlib import Path\np = Path('~/x').expanduser()",
])
def test_scan_flags_each_form(snippet):
    assert violations(snippet) != []


def test_scan_passes_innocent_code():
    assert violations("import os\nos.replace('a', 'b')\nhome = 1\n"
                      "x = {'environment': home}") == []


def imported_test_code(source: str, filename: str = "<src>") -> List[str]:
    """``file:line: module`` for every import of test code."""
    found = []
    for node in ast.walk(ast.parse(source, filename)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            modules = [node.module]
        else:
            continue
        found += [f"{filename}:{node.lineno}: {module}" for module in modules
                  if module.split(".")[0] in _TEST_MODULES]
    return found


def test_src_imports_no_test_code():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        found += imported_test_code(path.read_text(encoding="utf-8"),
                              str(path.relative_to(SRC)))
    assert found == []


@pytest.mark.parametrize("snippet", [
    "import pytest", "from hypothesis import given", "import tests.conftest",
    "from tests.oracles import tape", "import oracles.tape",
    "from tape import Tensor", "import ppo_reference as ref",
])
def test_import_scan_flags_each_form(snippet):
    assert imported_test_code(snippet) != []


def test_import_scan_passes_src_imports():
    assert imported_test_code("from . import tensor\nfrom .tensor import Tensor\n"
                        "import numpy as np\nfrom repro.nn import Tensor") == []


def _nn_names_read(tree: ast.Module, in_nn: bool) -> set:
    """Names a module reads that are ``repro.nn``'s: imported from it, or,
    inside the package, defined at top level or imported from a sibling."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if (in_nn and node.level == 1) or module.startswith("repro.nn") \
                    or (node.level == 2 and module.startswith("nn")):
                names |= {alias.asname or alias.name for alias in node.names}
    if in_nn:
        names |= {node.name for node in tree.body
                  if isinstance(node, (ast.ClassDef, ast.FunctionDef))}
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and node.id in names}


def test_repro_nn_exports_only_what_src_uses():
    """Each ``repro.nn.__all__`` name is read somewhere in ``src/`` besides
    the package's ``__init__``; ``SGD`` is the one exception, kept because
    the benchmark's tracer patches ``SGD.step`` by name."""
    nn = SRC / "repro" / "nn"
    used = set()
    for path in SRC.rglob("*.py"):
        if path != nn / "__init__.py":
            used |= _nn_names_read(ast.parse(path.read_text(encoding="utf-8")),
                                   path.parent == nn)
    assert sorted(set(repro.nn.__all__) - used) == ["SGD"]
