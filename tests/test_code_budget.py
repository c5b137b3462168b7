"""Static checks on ``src/`` that need only the standard library.

``make lint`` runs ruff where it is installed and this module where it is
not; tier-1 runs it everywhere.  Six rules:

* no module imports a name it never uses — a name counts as used when it
  appears as a name anywhere in the module, including inside a string
  that parses as an expression (a quoted annotation, an ``__all__``
  entry);
* no function binds a local it never reads — a read in any scope nested
  in the function (a comprehension, a closure, a class body) counts;
* no code reads a name that neither its module, a ``global`` declaration
  nor the builtins bind.  Both scope rules come from :mod:`symtable` and
  exempt names that start with ``_``;
* no comment or docstring cites a ROADMAP item by number: the roadmap is
  renumbered as items land, so such a citation goes stale silently;
* every function, class and method under ``src/`` has a referent under
  ``src/`` — code that names it — or is public by a package's export
  table (``_EXPORTS``, or a package ``__init__``'s ``__all__``), or is in
  :data:`KEPT` with the reason a caller outside ``src/`` needs it; what
  only tests reach belongs in ``tests/``;
* ``src/`` has exactly :data:`SRC_LINES` physical lines.  A change that
  grows ``src/`` raises the number and says why in ``CHANGES.md``; one
  that shrinks it lowers the number, so the next growth starts from the
  smaller size.
"""

from __future__ import annotations

import ast
import builtins
import re
import symtable
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

_ROADMAP_CITATION = re.compile(r"ROADMAP(?:\.md)?(?:'s)?\s+items?\b")

#: Physical lines of every ``*.py`` file under ``src/`` — blank, comment
#: and docstring lines included.
SRC_LINES = 19952


#: Definitions with no referent under ``src/`` that stay there anyway,
#: each with the caller outside ``src/`` that needs it.
KEPT: dict[str, str] = {
    "_Connection.connection_made": "asyncio.Protocol callback",
    "_Connection.data_received": "asyncio.Protocol callback",
    "_Connection.eof_received": "asyncio.Protocol callback",
    "_Connection.connection_lost": "asyncio.Protocol callback",
    "RouteComparison.margin_over": "examples/fraud_detection.py",
    "RouteComparison.as_table": "examples/paper_walkthrough.py",
    "RoutingStats.hit_rate": "examples/logistics_dispatch.py",
    "RoutingTable.registered": "examples/logistics_dispatch.py",
    "StalenessAudit.compliant": "examples/logistics_dispatch.py",
    "Histogram.quantile": "benchmarks/serve_request_cost.py",
    # Accessors of exported classes that a tier-1 test pins by name.
    "MeanCI.overlaps": "test_reporting_charts_replication::"
                       "test_overlap_detection",
    "Replica.staleness_at": "test_federation_catalog::"
                            "test_replica_freshness_and_staleness",
    "Site.is_local": "test_federation_runtime::test_local_flag",
    "TraceChecker.assert_clean": "test_obs_checker::"
                                 "test_assert_clean_raises_with_listing",
    "WallProfiler.scope": "test_obs_profile (manual timing scopes)",
    "OutageTimeline.downtime_before": "test_faults::test_downtime_before",
    "Process.is_alive": "test_sim_process::test_is_alive_tracks_completion",
    "DSSQuery.with_rates": "test_workload::test_with_rates_and_value_copy",
    "DSSQuery.table_set": "test_workload::test_table_set",
    "Workload.tables_touched": "test_workload::test_tables_touched",
}


def _names_in_string(text: str) -> set[str]:
    """The names a string mentions when it parses as one expression."""
    try:
        tree = ast.parse(text.strip(), mode="eval")
    except SyntaxError:
        return set()
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def _referents(tree: ast.AST) -> set[str]:
    """Every name a module's code mentions: names, attribute names, and
    both inside strings that parse as an expression (a quoted annotation,
    a ``"module.Class.method"`` boundary) — except ``__all__`` entries,
    which name a definition without using it."""
    listed = {
        id(element)
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        and any(getattr(t, "id", None) == "__all__" for t in node.targets)
        for element in ast.walk(node.value)
    }
    found: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in listed):
            try:
                parsed = ast.parse(node.value.strip(), mode="eval")
            except SyntaxError:
                continue
            found |= {
                getattr(sub, "id", None) or getattr(sub, "attr", None)
                for sub in ast.walk(parsed)
                if isinstance(sub, (ast.Name, ast.Attribute))
            }
    return found


def _exported(path: Path, tree: ast.Module) -> set[str]:
    """Names a package publishes: its ``_EXPORTS`` keys, and its
    ``__init__``'s ``__all__``."""
    names: set[str] = set()
    for node in tree.body:
        if not isinstance(node, ast.Assign):
            continue
        target = getattr(node.targets[0], "id", None)
        if target == "_EXPORTS" or (
            target == "__all__" and path.name == "__init__.py"
        ):
            names |= {
                element.value for element in ast.walk(node.value)
                if isinstance(element, ast.Constant)
                and isinstance(element.value, str)
            }
    return names


def unreferenced_definitions(
    root: Path, kept: dict[str, str] = KEPT
) -> list[str]:
    """``path:line: name (lines)`` of every module-level function or class
    and every non-dunder method under ``root`` that nothing under ``root``
    names, no export table lists and ``kept`` does not hold."""
    definitions = []
    referents: set[str] = set()
    exported: set[str] = set()
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        referents |= _referents(tree)
        exported |= _exported(path, tree)
        for node in tree.body:
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            definitions.append((path, node, node.name))
            if isinstance(node, ast.ClassDef):
                definitions.extend(
                    (path, method, f"{node.name}.{method.name}")
                    for method in node.body
                    if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not (method.name.startswith("__")
                             and method.name.endswith("__"))
                )
    return [
        f"{path.relative_to(root)}:{node.lineno}: {qualified} "
        f"({node.end_lineno - node.lineno + 1} lines)"
        for path, node, qualified in definitions
        if node.name not in referents
        and node.name not in exported
        and qualified not in kept
    ]


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


#: Names every module can read without binding them.
_ALWAYS_BOUND = frozenset(dir(builtins)) | {"__file__", "__path__"}


def _scopes(table: symtable.SymbolTable):
    """``table`` and every scope nested in it, depth first."""
    yield table
    for child in table.get_children():
        yield from _scopes(child)


def _read_below(table: symtable.SymbolTable, name: str) -> bool:
    """Whether a scope nested in ``table`` reads ``table``'s ``name``."""
    for child in table.get_children():
        if name in child.get_identifiers():
            symbol = child.lookup(name)
            if symbol.is_free() and (
                symbol.is_referenced() or _read_below(child, name)
            ):
                return True
    return False


def scope_findings(source: str, filename: str) -> list[tuple[int, str]]:
    """``(line of the scope, message)`` for every unused local and every
    undefined name; names that start with ``_`` are exempt."""
    module = symtable.symtable(source, filename, "exec")
    scopes = list(_scopes(module))
    bound = set(_ALWAYS_BOUND)
    for table in scopes:
        for symbol in table.get_symbols():
            if symbol.is_local() if table is module else (
                symbol.is_declared_global() and symbol.is_assigned()
            ):
                bound.add(symbol.get_name())
    found = []
    for table in scopes:
        for symbol in table.get_symbols():
            name = symbol.get_name()
            if name.startswith("_"):
                continue
            if (table.get_type() == "function" and symbol.is_local()
                    and not symbol.is_parameter()
                    and not symbol.is_referenced()
                    and not _read_below(table, name)):
                found.append((
                    table.get_lineno(),
                    f"{table.get_name()}() never reads local {name!r}",
                ))
            elif (symbol.is_referenced() and symbol.is_global()
                  and name not in bound):
                found.append((table.get_lineno(), f"undefined name {name!r}"))
    return sorted(found)


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
        found.extend(
            f"{where}:{line}: {message}"
            for line, message in scope_findings(source, str(path))
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


def test_every_src_definition_has_a_referent():
    assert unreferenced_definitions(SRC) == []


def test_kept_definitions_exist_and_are_unreferenced():
    """A :data:`KEPT` entry that gains a referent, or whose definition
    went, is stale."""
    unreferenced = {
        line.split(": ")[1].split(" (")[0]
        for line in unreferenced_definitions(SRC, kept={})
    }
    assert set(KEPT) <= unreferenced


def test_the_referent_rule_names_planted_definitions(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text(
        '__all__ = ["public"]\n_EXPORTS = {"Lazy": "planted"}\n',
        encoding="utf-8",
    )
    (package / "planted.py").write_text(
        '"""Planted."""\n'
        "\n"
        '__all__ = ["orphan", "Lazy"]\n'
        "\n"
        "\n"
        "def public():\n"
        "    return Used().run()\n"
        "\n"
        "\n"
        "def orphan():\n"
        "    return 1\n"
        "\n"
        "\n"
        "class Used:\n"
        "    def run(self):\n"
        "        return self._helper()\n"
        "\n"
        "    def _helper(self):\n"
        "        return 'Lazy.kind'\n"
        "\n"
        "    def idle(self):\n"
        "        return None\n"
        "\n"
        "    def __repr__(self):\n"
        "        return 'Used()'\n"
        "\n"
        "\n"
        "class Lazy:\n"
        "    def kind(self):\n"
        "        return 'annotated'\n",
        encoding="utf-8",
    )
    assert unreferenced_definitions(tmp_path) == [
        "pkg/planted.py:10: orphan (2 lines)",
        "pkg/planted.py:21: Used.idle (2 lines)",
    ]


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


def test_the_scope_check_names_a_planted_local_and_name(tmp_path):
    (tmp_path / "scoped.py").write_text(
        '"""Planted."""\n'
        "\n"
        "COUNT = 0\n"
        "\n"
        "\n"
        "def bump(rows):\n"
        "    global COUNT, TOTAL\n"
        "    COUNT += 1\n"
        "    TOTAL = len(rows)\n"
        "    scale = 2\n"
        "    offset = 1\n"
        "    spare = 3\n"
        "    _ignored = 4\n"
        "    for _index, row in enumerate(rows):\n"
        "        pass\n"
        "    doubled = [value * scale for value in rows]\n"
        "\n"
        "    def shift():\n"
        "        return offset\n"
        "\n"
        "    return doubled, shift, TOTAL, missing\n",
        encoding="utf-8",
    )
    assert findings(tmp_path) == [
        "scoped.py:6: bump() never reads local 'row'",
        "scoped.py:6: bump() never reads local 'spare'",
        "scoped.py:6: undefined name 'missing'",
    ]
