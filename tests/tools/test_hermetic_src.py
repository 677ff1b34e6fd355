"""``src/`` reads no environment variable and no home directory.

Everything the library computes must follow from its code and its
arguments: an input read from the environment or from a file under
``$HOME`` would change results without changing any cache key.  This scan
walks the AST of every module under ``src/`` and fails on ``os.environ``,
``os.getenv`` (and their ``from os import`` forms), ``Path.home()`` and
``expanduser``.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import List

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"

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
