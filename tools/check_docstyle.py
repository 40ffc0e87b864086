#!/usr/bin/env python
"""Docstring style gate for the engine/serve public API (CI-enforced).

An AST-based, zero-dependency substitute for ``pydocstyle``/``ruff`` D-rules
(the offline toolchain this repo targets has neither). Scoped to the
packages whose docstrings the serving stack's users read:

* ``src/repro/api/``, ``src/repro/engine/``, ``src/repro/serve/`` and
  ``src/repro/cluster/`` (every module), and
* ``src/repro/core/paged_index.py`` (the shared index base) and
  ``src/repro/codec.py`` (the in-flight array encoding).

Rules enforced:

* every module has a docstring (``pydocstyle`` D100/D104);
* every public class, function, method and property has a docstring
  (D101-D103; dunders and ``_private`` names are exempt);
* the summary paragraph starts with an uppercase letter and ends with
  terminal punctuation (D403/D415, relaxed to the paragraph rather than
  the first physical line);
* the batch-API methods named in ``REQUIRED_SECTIONS`` document their
  ``Parameters`` / ``Returns`` sections (numpydoc style).

Run: ``python tools/check_docstyle.py`` — prints one line per violation
and exits non-zero if any exist. Wired into CI next to the test suite.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Iterator, List, Tuple

REPO = Path(__file__).resolve().parent.parent

#: Files/directories whose public API the gate covers.
TARGETS = (
    "src/repro/api",
    "src/repro/cluster",
    "src/repro/engine",
    "src/repro/net",
    "src/repro/obs",
    "src/repro/serve",
    "src/repro/wal",
    "src/repro/core/paged_index.py",
    "src/repro/codec.py",
)

#: Batch-API entry points that must carry numpydoc sections wherever they
#: are defined in the target files.
REQUIRED_SECTIONS = {
    "get_batch": ("Parameters", "Returns"),
    "range_batch": ("Parameters", "Returns"),
    "insert_batch": ("Parameters",),
    "delete_batch": ("Parameters", "Returns"),
    "open_engine": ("Parameters", "Returns"),
    "open_server": ("Parameters", "Returns"),
    "residency_report": ("Returns",),
    "to_state": ("Returns",),
    "from_state": ("Parameters", "Returns"),
    "split_sorted": ("Returns",),
    "split_ranges": ("Returns",),
    "gather_points": ("Parameters", "Returns"),
    "stitch_ranges": ("Parameters", "Returns"),
}

#: Terminal punctuation accepted at the end of a summary paragraph.
_SUMMARY_ENDINGS = (".", ":", "?", "!", "::")


def iter_target_files() -> Iterator[Path]:
    """Yield every Python file covered by the gate, sorted for stable output."""
    for target in TARGETS:
        path = REPO / target
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        else:
            yield path


def _is_public(name: str) -> bool:
    return not name.startswith("_")


def _summary_paragraph(doc: str) -> str:
    """The docstring's first paragraph (up to the first blank line)."""
    lines: List[str] = []
    for line in doc.strip().splitlines():
        if not line.strip():
            break
        lines.append(line.strip())
    return " ".join(lines)


def _check_docstring(
    path: Path, name: str, node: ast.AST, doc: str | None
) -> Iterator[Tuple[Path, int, str]]:
    lineno = getattr(node, "lineno", 1)
    if not doc or not doc.strip():
        yield path, lineno, f"{name}: missing docstring"
        return
    summary = _summary_paragraph(doc)
    # Only letters can violate the capitalization rule — a summary may
    # legitimately open with ``code``, a digit, or punctuation (matching
    # pydocstyle D403's capitalizable-word scope).
    if summary[0].isalpha() and not summary[0].isupper():
        yield path, lineno, (
            f"{name}: summary should start with an uppercase letter "
            f"({summary[:40]!r}...)"
        )
    if not summary.endswith(_SUMMARY_ENDINGS):
        yield path, lineno, (
            f"{name}: summary paragraph should end with terminal "
            f"punctuation (got ...{summary[-30:]!r})"
        )
    base = name.rsplit(".", 1)[-1]
    for section in REQUIRED_SECTIONS.get(base, ()):
        if section not in doc:
            yield path, lineno, (
                f"{name}: batch-API docstring must document a "
                f"'{section}' section"
            )


def check_file(path: Path) -> List[Tuple[Path, int, str]]:
    """All violations in one file as ``(path, line, message)`` tuples."""
    tree = ast.parse(path.read_text(), filename=str(path))
    violations = list(_check_docstring(path, "module", tree, ast.get_docstring(tree)))

    def walk(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                if _is_public(child.name):
                    violations.extend(
                        _check_docstring(
                            path,
                            f"{prefix}{child.name}",
                            child,
                            ast.get_docstring(child),
                        )
                    )
                walk(child, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                dunder = child.name.startswith("__") and child.name.endswith("__")
                if _is_public(child.name) and not dunder:
                    # Property setters document themselves on the getter.
                    is_setter = any(
                        isinstance(d, ast.Attribute) and d.attr == "setter"
                        for d in child.decorator_list
                    )
                    doc = ast.get_docstring(child)
                    if not (is_setter and not doc):
                        violations.extend(
                            _check_docstring(
                                path, f"{prefix}{child.name}", child, doc
                            )
                        )

    walk(tree, "")
    return violations


def main() -> int:
    """Check every target file; print violations; return an exit code."""
    all_violations: List[Tuple[Path, int, str]] = []
    n_files = 0
    for path in iter_target_files():
        n_files += 1
        all_violations.extend(check_file(path))
    if all_violations:
        for path, lineno, message in all_violations:
            print(f"{path.relative_to(REPO)}:{lineno}: {message}")
        print(f"docstyle: {len(all_violations)} violation(s) in {n_files} files")
        return 1
    print(f"docstyle: OK ({n_files} files checked)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
