"""``tools/check_docs.py --docstrings`` and ``--roadmap-pointers``: what
a path on the command line means, and that a path it cannot read fails the
gate instead of passing it unchecked."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]

_SPEC = importlib.util.spec_from_file_location(
    "check_docs", REPO_ROOT / "tools" / "check_docs.py")
CHECK_DOCS = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(CHECK_DOCS)

UNDOCUMENTED = '"""A module."""\n\n\ndef public():\n    pass\n'
DOCUMENTED = '"""A module."""\n\n\ndef public():\n    """Documented."""\n'


def test_a_missing_path_fails(capsys):
    missing = REPO_ROOT / "src" / "repro" / "does_not_exist"
    assert CHECK_DOCS.main(["--docstrings", str(missing)]) == 1
    assert "does_not_exist" in capsys.readouterr().err


def test_a_python_file_is_checked_as_itself(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text(UNDOCUMENTED)
    assert CHECK_DOCS.main(["--docstrings", str(bad)]) == 1
    assert "public function public has no docstring" \
        in capsys.readouterr().err
    good = tmp_path / "good.py"
    good.write_text(DOCUMENTED)
    assert CHECK_DOCS.main(["--docstrings", str(good)]) == 0


def test_a_file_that_is_not_python_fails(tmp_path):
    notes = tmp_path / "notes.txt"
    notes.write_text("not a module")
    assert CHECK_DOCS.check_docstrings([notes]) == [
        f"{notes}: no such package directory or .py file"]


def test_a_package_directory_is_checked_below(tmp_path):
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "bad.py").write_text(UNDOCUMENTED)
    (tmp_path / "good.py").write_text(DOCUMENTED)
    problems = CHECK_DOCS.check_docstrings([tmp_path])
    assert len(problems) == 1 and "bad.py" in problems[0]


def test_the_rule_base_and_match_engine_are_documented():
    rules = REPO_ROOT / "src" / "repro" / "rules"
    assert CHECK_DOCS.check_docstrings(
        [rules / "base.py", rules / "incremental.py"]) == []


#: Spelled in pieces so this file does not trip the check it tests.
ROADMAP = "ROAD" + "MAP"


@pytest.mark.parametrize("pointer", [
    f"{ROADMAP} item 3", f"{ROADMAP} items 1 and 2", f"{ROADMAP} 7(e)",
    f"{ROADMAP}\nitem 4"])
def test_a_numbered_roadmap_pointer_fails(pointer, tmp_path, capsys):
    (tmp_path / "notes.md").write_text(f"intro\nsee {pointer} for more\n")
    assert CHECK_DOCS.main(["--roadmap-pointers", str(tmp_path)]) == 1
    assert "notes.md:2: numbered ROADMAP pointer" in capsys.readouterr().err


def test_a_named_direction_and_other_files_pass(tmp_path):
    (tmp_path / "ok.py").write_text(
        f'"""See the {ROADMAP}\'s delta-execution direction."""\n')
    (tmp_path / "data.txt").write_text(f"{ROADMAP} item 3\n")
    assert CHECK_DOCS.check_roadmap_pointers([tmp_path]) == []


def test_a_missing_path_fails_the_pointer_check(tmp_path):
    missing = tmp_path / "gone"
    assert CHECK_DOCS.check_roadmap_pointers([missing]) == [
        f"{missing}: no such file or directory"]
