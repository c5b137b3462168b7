"""Static checks on ``src/`` that need only the standard library.

``make lint`` runs ruff where it is installed and this module where it is
not; tier-1 runs it everywhere.  Three rules:

* no module imports a name it never uses — a name counts as used when it
  appears as a name anywhere in the module, including inside a string
  that parses as an expression (a quoted annotation, an ``__all__``
  entry);
* no comment or docstring cites a ROADMAP item by number: the roadmap is
  renumbered as items land, so such a citation goes stale silently;
* ``src/`` has exactly :data:`SRC_LINES` physical lines.  A change that
  grows ``src/`` raises the number and says why in ``CHANGES.md``; one
  that shrinks it lowers the number, so the next growth starts from the
  smaller size.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

_ROADMAP_CITATION = re.compile(r"ROADMAP(?:\.md)?(?:'s)?\s+items?\b")

#: Physical lines of every ``*.py`` file under ``src/`` — blank, comment
#: and docstring lines included.
SRC_LINES = 23281


def _names_in_string(text: str) -> set[str]:
    """The names a string mentions when it parses as one expression."""
    try:
        tree = ast.parse(text.strip(), mode="eval")
    except SyntaxError:
        return set()
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def unused_imports(source: str) -> list[tuple[int, str]]:
    """``(line, bound name)`` of every import whose name nothing reads."""
    tree = ast.parse(source)
    bound: list[tuple[int, str]] = []
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.extend(
                (node.lineno, alias.asname or alias.name.partition(".")[0])
                for alias in node.names
            )
        elif isinstance(node, ast.ImportFrom):
            if node.module != "__future__":
                bound.extend(
                    (node.lineno, alias.asname or alias.name)
                    for alias in node.names
                    if alias.name != "*"
                )
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used |= _names_in_string(node.value)
    return [(line, name) for line, name in bound if name not in used]


def findings(root: Path) -> list[str]:
    """``path:line: message`` for every rule broken under ``root``."""
    found = []
    for path in sorted(root.rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        where = path.relative_to(root)
        found.extend(
            f"{where}:{line}: unused import {name!r}"
            for line, name in unused_imports(source)
        )
        found.extend(
            f"{where}:{source.count(chr(10), 0, match.start()) + 1}: "
            f"cites {match.group(0)!r}"
            for match in _ROADMAP_CITATION.finditer(source)
        )
    return found


def physical_lines(root: Path) -> int:
    """Lines of every ``*.py`` file under ``root``, as ``wc -l`` counts
    them plus one for a last line without a newline."""
    return sum(
        len(path.read_bytes().splitlines()) for path in root.rglob("*.py")
    )


def test_src_is_clean():
    assert findings(SRC) == []


def test_src_has_its_pinned_line_count():
    lines = physical_lines(SRC)
    assert lines == SRC_LINES, (
        f"src/ has {lines} lines, pinned at {SRC_LINES}: set SRC_LINES to "
        f"{lines} in tests/test_code_budget.py, and if src/ grew, say why "
        f"in CHANGES.md"
    )


def test_the_line_count_takes_in_a_planted_file(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (tmp_path / "top.py").write_text('"""Doc."""\n\n# note\nx = 1\n')
    (package / "planted.py").write_text("y = 2\nz = 3")  # no last newline
    (package / "notes.txt").write_text("not python\n")
    assert physical_lines(tmp_path) == 6


def test_the_check_names_a_planted_unused_import(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "planted.py").write_text(
        "from __future__ import annotations\n"
        "\n"
        "import json\n"
        "import os.path\n"
        "import typing\n"
        "from dataclasses import dataclass, field\n"
        "\n"
        "if typing.TYPE_CHECKING:\n"
        "    from collections.abc import Sequence\n"
        "\n"
        '__all__ = ["Row"]\n'
        "\n"
        "\n"
        "@dataclass\n"
        "class Row:\n"
        '    items: "Sequence[int]"\n'
        "\n"
        "    def path(self) -> str:\n"
        "        return os.path.join('a', 'b')\n",
        encoding="utf-8",
    )
    assert findings(tmp_path) == [
        "pkg/planted.py:3: unused import 'json'",
        "pkg/planted.py:6: unused import 'field'",
    ]


def test_the_check_names_a_roadmap_citation(tmp_path):
    (tmp_path / "cited.py").write_text(
        '"""Docstring."""\n'
        "\n"
        "# Remove with ROADMAP item 1's benchmark change.\n",
        encoding="utf-8",
    )
    assert findings(tmp_path) == [
        "cited.py:3: cites 'ROADMAP item'"
    ]
