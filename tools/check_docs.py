#!/usr/bin/env python3
"""Documentation checks run by CI (and by ``tests/docs/test_docs.py``).

Three checks, selected by flag:

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

``--roadmap-pointers [PATHS...]``
    Fail on a pointer into ROADMAP.md by item number (``ROADMAP item N``,
    ``ROADMAP N(x)``) in any ``.py`` or ``.md`` file under the given paths
    (default: ``src/``, ``tests/``, ``docs/``, ``benchmarks/``, ``tools/``
    and ``README.md``).  Items are renumbered at every re-anchor, so such a
    pointer goes stale; name the direction instead.

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
#: ``ROADMAP item N``, ``ROADMAP items N``, ``ROADMAP N(x)`` with ``N`` a
#: number, across a line break too.
_ROADMAP_POINTER_RE = re.compile(
    r"\bROADMAP\s+(?:items?\s+)?\d+(?:\([a-z]\))?")
#: Where ``--roadmap-pointers`` looks by default.  ``xbench/`` is left out:
#: it is the benchmark harness, which a change claiming a gain must leave
#: as it is, and its README still cites two items by number (lines 222 and
#: 310); they go with the next change to the benchmark.
ROADMAP_POINTER_PATHS = ("src", "tests", "docs", "benchmarks", "tools",
                         "README.md")


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


def check_roadmap_pointers(paths: Iterable[Path]) -> List[str]:
    """Return a problem line per numbered ROADMAP pointer in the ``.py``
    and ``.md`` files at or under ``paths``, and one per path that does
    not exist."""
    problems: List[str] = []
    for root in paths:
        if root.is_file():
            files = [root]
        elif root.is_dir():
            files = sorted(path for path in root.rglob("*")
                           if path.suffix in (".py", ".md"))
        else:
            problems.append(f"{root}: no such file or directory")
            continue
        for path in files:
            text = path.read_text()
            for match in _ROADMAP_POINTER_RE.finditer(text):
                line = text.count("\n", 0, match.start()) + 1
                pointer = " ".join(match.group(0).split())
                problems.append(
                    f"{path}:{line}: numbered ROADMAP pointer "
                    f"{pointer!r}; name the direction instead")
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
    parser.add_argument("--roadmap-pointers", action="store_true",
                        help="refuse pointers to ROADMAP items by number")
    parser.add_argument("paths", nargs="*",
                        help="files (--links), package dirs and .py files "
                             "(--docstrings) or files and dirs "
                             "(--roadmap-pointers)")
    args = parser.parse_args(argv)
    if not (args.links or args.docstrings or args.roadmap_pointers):
        parser.error("pass --links, --docstrings and/or --roadmap-pointers")

    problems: List[str] = []
    if args.links:
        files = ([Path(p) for p in args.paths] if args.paths
                 else default_doc_files())
        problems.extend(check_links(files))
    if args.docstrings:
        packages = ([Path(p) for p in args.paths] if args.paths
                    else [REPO_ROOT / "src" / "repro" / "service"])
        problems.extend(check_docstrings(packages))
    if args.roadmap_pointers:
        roots = ([Path(p) for p in args.paths] if args.paths
                 else [REPO_ROOT / p for p in ROADMAP_POINTER_PATHS])
        problems.extend(check_roadmap_pointers(roots))

    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        print(f"{len(problems)} documentation problem(s)", file=sys.stderr)
        return 1
    print("docs ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
