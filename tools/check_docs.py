#!/usr/bin/env python3
"""Documentation checks run by CI (and by ``tests/docs/test_docs.py``).

Two checks, selected by flag:

``--links [FILES...]``
    Validate every relative markdown link in the given files (default:
    ``README.md`` + ``docs/**/*.md``): the target file must exist, and a
    ``#fragment`` must match a heading in the target (GitHub slug rules).
    External ``http(s)``/``mailto`` links are not fetched.

``--docstrings [PATHS...]``
    Fail on public symbols without docstrings (default:
    ``src/repro/service``): module docstrings, public module-level
    classes/functions, and public methods (anything whose name does not
    start with ``_``).  A path is a package directory (every ``.py`` file
    below it) or one ``.py`` file; a path that does not exist is a problem,
    so a typo cannot switch the gate off.

Exit code 0 when clean, 1 with a per-problem report otherwise.
"""

from __future__ import annotations

import argparse
import ast
import re
import sys
from pathlib import Path
from typing import Iterable, List

REPO_ROOT = Path(__file__).resolve().parents[1]

#: ``[text](target)`` — markdown inline links (images share the syntax).
_LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
_HEADING_RE = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)
_CODE_FENCE_RE = re.compile(r"```.*?```", re.DOTALL)


def github_slug(heading: str) -> str:
    """GitHub's anchor slug for a heading (sans duplicate suffixes)."""
    text = heading.strip().lower()
    text = re.sub(r"[`*_]", "", text)           # inline formatting
    text = re.sub(r"[^\w\- ]", "", text)        # punctuation
    return text.replace(" ", "-")


def heading_slugs(markdown: str) -> List[str]:
    """Every anchor a markdown document exposes, duplicates suffixed."""
    slugs: List[str] = []
    seen: dict = {}
    without_code = _CODE_FENCE_RE.sub("", markdown)
    for match in _HEADING_RE.finditer(without_code):
        slug = github_slug(match.group(1))
        count = seen.get(slug, 0)
        seen[slug] = count + 1
        slugs.append(slug if count == 0 else f"{slug}-{count}")
    return slugs


def check_links(files: Iterable[Path]) -> List[str]:
    """Return a problem line per broken relative link / anchor."""
    problems: List[str] = []
    for path in files:
        text = path.read_text()
        # Links inside code fences are examples, not navigation.
        checkable = _CODE_FENCE_RE.sub("", text)
        for match in _LINK_RE.finditer(checkable):
            target = match.group(1)
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            ref, _, fragment = target.partition("#")
            if ref:
                resolved = (path.parent / ref).resolve()
                if not resolved.exists():
                    problems.append(f"{path}: broken link -> {target}")
                    continue
            else:
                resolved = path
            if fragment:
                if resolved.suffix != ".md":
                    continue
                slugs = heading_slugs(resolved.read_text())
                if fragment not in slugs:
                    problems.append(
                        f"{path}: broken anchor -> {target} "
                        f"(no heading slug {fragment!r} in {resolved.name})")
    return problems


def _missing_docstrings(tree: ast.Module, path: Path) -> List[str]:
    problems: List[str] = []
    if ast.get_docstring(tree) is None:
        problems.append(f"{path}: module has no docstring")

    def visit(body, prefix: str) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                if node.name.startswith("_"):
                    continue
                if ast.get_docstring(node) is None:
                    kind = ("class" if isinstance(node, ast.ClassDef)
                            else "function")
                    problems.append(
                        f"{path}:{node.lineno}: public {kind} "
                        f"{prefix}{node.name} has no docstring")
                if isinstance(node, ast.ClassDef):
                    visit(node.body, f"{prefix}{node.name}.")

    visit(tree.body, "")
    return problems


def check_docstrings(paths: Iterable[Path]) -> List[str]:
    """Return a problem line per undocumented public symbol in the given
    package directories and ``.py`` files, and one per path that is
    neither."""
    problems: List[str] = []
    for package in paths:
        if package.is_file() and package.suffix == ".py":
            files = [package]
        elif package.is_dir():
            files = sorted(package.rglob("*.py"))
        else:
            problems.append(f"{package}: no such package directory or "
                            f".py file")
            continue
        for path in files:
            tree = ast.parse(path.read_text(), filename=str(path))
            problems.extend(_missing_docstrings(tree, path))
    return problems


def default_doc_files() -> List[Path]:
    """README plus everything under docs/."""
    files = [REPO_ROOT / "README.md"]
    files.extend(sorted((REPO_ROOT / "docs").rglob("*.md")))
    return [f for f in files if f.exists()]


def main(argv: List[str] = None) -> int:
    """CLI entry point; returns the exit code."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--links", action="store_true",
                        help="check relative markdown links and anchors")
    parser.add_argument("--docstrings", action="store_true",
                        help="check docstring coverage of public symbols")
    parser.add_argument("paths", nargs="*",
                        help="files (--links) or package dirs and .py files "
                             "(--docstrings)")
    args = parser.parse_args(argv)
    if not args.links and not args.docstrings:
        parser.error("pass --links and/or --docstrings")

    problems: List[str] = []
    if args.links:
        files = ([Path(p) for p in args.paths] if args.paths
                 else default_doc_files())
        problems.extend(check_links(files))
    if args.docstrings:
        packages = ([Path(p) for p in args.paths] if args.paths
                    else [REPO_ROOT / "src" / "repro" / "service"])
        problems.extend(check_docstrings(packages))

    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        print(f"{len(problems)} documentation problem(s)", file=sys.stderr)
        return 1
    print("docs ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
