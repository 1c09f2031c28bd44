"""Docs lint: dead relative links, phantom metric and span names, and
example imports that do not resolve.

Four checks, all cheap enough for every CI run:

* every relative markdown link in the repository's ``*.md`` files must
  point at a file or directory that exists (anchors are stripped;
  external ``http(s)``/``mailto`` links are not checked);
* every ``repro_*`` metric name mentioned in ``docs/OBSERVABILITY.md``
  must be registered somewhere under ``src/`` — the catalog documents
  the code, so a name with no producer is either a typo or a stale row
  left behind by a refactor.  Prometheus exposition suffixes
  (``_bucket``/``_sum``/``_count``) resolve to their histogram's base
  name;
* every backticked span name in the first column of the
  ``| span | parent | attributes |`` tables of ``docs/OBSERVABILITY.md``
  must appear as a string literal (``"name"`` or ``'name'``) under
  ``src/`` — a span the code no longer opens is a stale row;
* every ``import`` / ``from`` line in the ```` ```python ```` blocks of
  ``README.md``, ``DESIGN.md`` and ``docs/*.md`` is executed and must
  resolve — an example that imports a deleted name teaches an API that
  no longer exists.

Run from the repository root::

    PYTHONPATH=src python scripts/check_docs.py
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

#: [text](target) — excludes images by allowing them (same syntax)
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

METRIC_RE = re.compile(r"\brepro(?:_[a-z][a-z0-9]*)+\b")

#: exposition-only suffixes a histogram grows in scrape output
DERIVED_SUFFIXES = ("_bucket", "_sum", "_count")

SPAN_TABLE_HEADER = "| span | parent | attributes |"

BACKTICKED_RE = re.compile(r"`([^`]+)`")

PYTHON_BLOCK_RE = re.compile(r"^```python\n(.*?)^```", re.S | re.M)

IMPORT_LINE_RE = re.compile(r"\s*(?:import|from)\s")


def markdown_files(root: Path) -> list[Path]:
    return sorted(
        path
        for path in root.rglob("*.md")
        if ".git" not in path.parts and ".venv" not in path.parts
    )


def check_links(root: Path) -> list[str]:
    problems = []
    for path in markdown_files(root):
        text = path.read_text(encoding="utf-8")
        for match in LINK_RE.finditer(text):
            target = match.group(1)
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            relative = target.split("#", 1)[0]
            if not relative:
                continue
            resolved = (path.parent / relative).resolve()
            if not resolved.exists():
                problems.append(
                    f"{path.relative_to(root)}: dead link -> {target}"
                )
    return problems


def source_metric_text(root: Path) -> str:
    chunks = []
    for path in sorted((root / "src").rglob("*.py")):
        chunks.append(path.read_text(encoding="utf-8"))
    return "\n".join(chunks)


def check_metrics(root: Path) -> list[str]:
    catalog = root / "docs" / "OBSERVABILITY.md"
    if not catalog.exists():
        return [f"{catalog.relative_to(root)}: missing"]
    source = source_metric_text(root)
    problems = []
    for name in sorted(set(METRIC_RE.findall(catalog.read_text()))):
        candidates = [name] + [
            name[: -len(suffix)]
            for suffix in DERIVED_SUFFIXES
            if name.endswith(suffix)
        ]
        if not any(candidate in source for candidate in candidates):
            problems.append(
                f"docs/OBSERVABILITY.md: metric {name!r} is not "
                "registered anywhere under src/"
            )
    return problems


def documented_spans(catalog: str) -> list[str]:
    """The backticked names in the first column of every span table."""
    names = []
    in_table = False
    for line in catalog.splitlines():
        line = line.strip()
        if line == SPAN_TABLE_HEADER:
            in_table = True
            continue
        if not in_table or not line.startswith("|"):
            in_table = False
            continue
        first = line.split("|")[1]
        names.extend(BACKTICKED_RE.findall(first))
    return names


def check_spans(root: Path) -> list[str]:
    catalog = root / "docs" / "OBSERVABILITY.md"
    if not catalog.exists():
        return [f"{catalog.relative_to(root)}: missing"]
    source = source_metric_text(root)
    return [
        f"docs/OBSERVABILITY.md: span {name!r} is not a string literal "
        "anywhere under src/"
        for name in sorted(set(documented_spans(catalog.read_text())))
        if f'"{name}"' not in source and f"'{name}'" not in source
    ]


def example_imports(root: Path) -> list[tuple[str, int, str]]:
    """``(file, line number, statement)`` for every import line in the
    python blocks of README.md, DESIGN.md and docs/*.md; a parenthesised
    import is joined up to its closing parenthesis."""
    paths = [root / "README.md", root / "DESIGN.md"]
    paths += sorted((root / "docs").glob("*.md"))
    found = []
    for path in paths:
        if not path.exists():
            continue
        text = path.read_text(encoding="utf-8")
        for block in PYTHON_BLOCK_RE.finditer(text):
            first = text.count("\n", 0, block.start(1)) + 1
            lines = block.group(1).splitlines()
            for index, line in enumerate(lines):
                if not IMPORT_LINE_RE.match(line):
                    continue
                statement = line.strip()
                following = iter(lines[index + 1 :])
                while "(" in statement and ")" not in statement:
                    statement += " " + next(following, ")").strip()
                found.append(
                    (str(path.relative_to(root)), first + index, statement)
                )
    return found


def check_imports(root: Path) -> list[str]:
    source = str(root / "src")
    if source not in sys.path:
        sys.path.insert(0, source)
    problems = []
    for name, line, statement in example_imports(root):
        try:
            exec(compile(statement, f"{name}:{line}", "exec"), {})
        except Exception as exc:  # any failure to import is the finding
            problems.append(
                f"{name}:{line}: {statement!r} does not resolve "
                f"({type(exc).__name__}: {exc})"
            )
    return problems


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    problems = (
        check_links(root)
        + check_metrics(root)
        + check_spans(root)
        + check_imports(root)
    )
    for problem in problems:
        print(f"DOCS LINT: {problem}")
    if problems:
        return 1
    files = len(markdown_files(root))
    imports = len(example_imports(root))
    print(
        f"docs lint ok ({files} markdown files, "
        f"{imports} example imports checked)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
