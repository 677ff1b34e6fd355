"""Documentation gates, mirrored in CI's docs job.

Four checks: every relative link/anchor in README + ``docs/`` resolves,
every public symbol in ``repro.service``, ``repro.cost``, ``repro.search``,
``repro.rl`` and ``repro.exec`` carries a docstring, no code, test or doc
points at a ROADMAP item by its number, and the cookbook's fenced doctest
examples actually execute.
"""

from __future__ import annotations

import doctest
import importlib.util
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]


def _load_checker():
    spec = importlib.util.spec_from_file_location(
        "check_docs", REPO_ROOT / "tools" / "check_docs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_markdown_links_resolve():
    checker = _load_checker()
    problems = checker.check_links(checker.default_doc_files())
    assert problems == [], "\n".join(problems)


def test_no_numbered_roadmap_pointers():
    checker = _load_checker()
    problems = checker.check_roadmap_pointers(
        [REPO_ROOT / path for path in checker.ROADMAP_POINTER_PATHS])
    assert problems == [], "\n".join(problems)


def test_docs_suite_exists():
    for name in ("architecture.md", "service.md", "extending.md"):
        assert (REPO_ROOT / "docs" / name).exists(), f"docs/{name} missing"


def test_service_public_api_is_documented():
    checker = _load_checker()
    problems = checker.check_docstrings(
        [REPO_ROOT / "src" / "repro" / "service"])
    assert problems == [], "\n".join(problems)


def test_cost_and_search_public_api_is_documented():
    checker = _load_checker()
    problems = checker.check_docstrings(
        [REPO_ROOT / "src" / "repro" / package
         for package in ("cost", "search")])
    assert problems == [], "\n".join(problems)


def test_rl_public_api_is_documented():
    checker = _load_checker()
    problems = checker.check_docstrings([REPO_ROOT / "src" / "repro" / "rl"])
    assert problems == [], "\n".join(problems)


def test_exec_public_api_is_documented():
    checker = _load_checker()
    problems = checker.check_docstrings([REPO_ROOT / "src" / "repro" / "exec"])
    assert problems == [], "\n".join(problems)


def test_extending_cookbook_doctests():
    path = REPO_ROOT / "docs" / "extending.md"
    results = doctest.testfile(str(path), module_relative=False,
                               optionflags=doctest.ELLIPSIS)
    assert results.attempted > 0, "cookbook lost its doctest examples"
    assert results.failed == 0, \
        f"{results.failed}/{results.attempted} cookbook doctests failed " \
        f"(run: PYTHONPATH=src python -m doctest docs/extending.md -v)"
