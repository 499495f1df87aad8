"""Parsed source modules, shared by the lint rules and the graph analyzer.

A :class:`SourceModule` is one parsed file: its AST, its ``# wpl: noqa``
suppression map, its intraproject import edges, and the one name map
both analyzers resolve Python names through.  A :class:`Project` is every
module of one package tree plus the project import graph.

Module naming is rooted at the *package directory* handed to
:meth:`Project.load` — scanning ``src/repro`` yields modules named
``repro``, ``repro.core.queues``, ...; scanning a fixture tree
``tests/fixtures/graph/lock_cycle/repro`` yields the same shape of names,
which is what lets the violation fixtures exercise the layer contract
without living inside the real package.
"""

from __future__ import annotations

import ast
import re
import tokenize
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Set

#: ``# wpl: noqa`` / ``# wpl: noqa=WPL001,WPLG02`` (codes case-insensitive).
_NOQA_RE = re.compile(
    r"#\s*wpl:\s*noqa(?:\s*=\s*(?P<codes>[A-Za-z0-9]+(?:\s*,\s*[A-Za-z0-9]+)*))?",
)


def _collect_noqa(text: str) -> Dict[int, Optional[Set[str]]]:
    """Map line numbers to the rule codes suppressed there (``None`` = all).

    Uses the tokenizer (not a per-line regex) so the directive is only
    honoured inside real comments, never inside string literals.
    """
    out: Dict[int, Optional[Set[str]]] = {}
    lines = iter(text.splitlines(keepends=True))
    try:
        tokens = list(tokenize.generate_tokens(lambda: next(lines, "")))
    except tokenize.TokenError:
        return out
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        match = _NOQA_RE.search(token.string)
        if match is None:
            continue
        codes = match.group("codes")
        # One comment per line, so one directive per line.
        out[token.start[0]] = (
            None if codes is None else {code.strip().upper() for code in codes.split(",")}
        )
    return out


class ImportEdge:
    """One intraproject import: ``src`` imports ``dst``.

    ``typecheck_only`` marks imports inside ``if TYPE_CHECKING:`` blocks —
    they do not exist at runtime, so the layering contract ignores them.
    ``deferred`` marks function-level imports (a runtime edge, but one
    that was usually placed there deliberately to break an import cycle —
    the report says so).  ``stmt`` is the import statement.
    """

    __slots__ = ("src", "dst", "stmt", "typecheck_only", "deferred")

    def __init__(
        self,
        src: str,
        dst: str,
        stmt: ast.stmt,
        typecheck_only: bool,
        deferred: bool,
    ) -> None:
        self.src = src
        self.dst = dst
        self.stmt = stmt
        self.typecheck_only = typecheck_only
        self.deferred = deferred

    @property
    def line(self) -> int:
        return self.stmt.lineno

    def __repr__(self) -> str:
        flags = []
        if self.typecheck_only:
            flags.append("typecheck")
        if self.deferred:
            flags.append("deferred")
        suffix = f" [{','.join(flags)}]" if flags else ""
        return f"ImportEdge({self.src} -> {self.dst}{suffix})"


class ExternalImport:
    """One name a non-project import binds: ``local`` stands for ``target``.

    ``import time as t`` binds ``t`` to ``time``; ``from time import sleep
    as nap`` binds ``nap`` to ``time.sleep``.  ``stmt`` is the import
    statement, where findings about the import itself are anchored.
    """

    __slots__ = ("local", "target", "stmt")

    def __init__(self, local: str, target: str, stmt: ast.stmt) -> None:
        self.local = local
        self.target = target
        self.stmt = stmt

    def __repr__(self) -> str:
        return f"ExternalImport({self.local} = {self.target})"


class SourceModule:
    """One parsed module: AST, suppressions, import edges, name map."""

    def __init__(
        self, name: str, path: Path, tree: ast.Module, text: str, root_name: str
    ) -> None:
        self.name = name
        self.path = path
        self.tree = tree
        self.text = text
        #: line -> suppressed codes (``None`` = all).
        self.noqa = _collect_noqa(text)
        self.imports: List[ImportEdge] = []
        #: ``name in this module -> fully dotted target`` (module, class,
        #: or function qname) built from module-level project imports.
        self.bindings: Dict[str, str] = {}
        #: Every name a non-project import binds, in source order.
        self.external_imports: List[ExternalImport] = []
        #: Local name -> dotted non-project target (``time``,
        #: ``threading.Lock``, ``queue.SimpleQueue``); the last binding wins.
        self.external: Dict[str, str] = {}
        _collect_imports(self, root_name)

    @classmethod
    def parse(cls, path: Path, name: str, root_name: str) -> "SourceModule":
        """Read and parse one file (raises :class:`SyntaxError`)."""
        text = path.read_text(encoding="utf-8")
        return cls(name, path, ast.parse(text, filename=str(path)), text, root_name)

    @property
    def package(self) -> str:
        """The dotted package this module lives in (for relative imports)."""
        if self.path.name == "__init__.py":
            return self.name
        return self.name.rpartition(".")[0]

    def external_name(self, node: ast.expr) -> Optional[str]:
        """The non-project dotted name ``node`` spells, through this
        module's imports: ``t.sleep`` -> ``time.sleep`` after ``import
        time as t``, ``Thread`` -> ``threading.Thread`` after ``from
        threading import Thread``.  ``None`` for anything else."""
        if isinstance(node, ast.Name):
            return self.external.get(node.id)
        if isinstance(node, ast.Attribute):
            base = self.external_name(node.value)
            if base is not None:
                return f"{base}.{node.attr}"
        return None

    def suppressed(self, line: int, code: str) -> bool:
        """Is ``code`` silenced on ``line`` by a ``# wpl: noqa`` comment?"""
        if line not in self.noqa:
            return False
        codes = self.noqa[line]
        return codes is None or code.upper() in codes

    # -- path roles (lint rules scope themselves by where the file lives) ----

    def in_package(self, name: str) -> bool:
        """True when a path component equals ``name`` (e.g. ``core``)."""
        return name in self.path.parts

    def is_core(self) -> bool:
        """Part of :mod:`repro.core`."""
        return self.in_package("core")

    def is_benchmark(self) -> bool:
        """A benchmark driver (``benchmarks/`` dir or ``bench_*.py``)."""
        return self.in_package("benchmarks") or self.path.name.startswith("bench_")

    def __repr__(self) -> str:
        return f"SourceModule({self.name})"


def _module_name(root: Path, path: Path, root_name: str) -> str:
    rel = path.relative_to(root)
    parts = list(rel.parts)
    if parts[-1] == "__init__.py":
        parts = parts[:-1]
    else:
        parts[-1] = parts[-1][: -len(".py")]
    return ".".join([root_name] + parts)


class Project:
    """All modules of one package tree plus the project import graph."""

    def __init__(self, root: Path, root_name: str) -> None:
        self.root = root
        self.root_name = root_name
        self.modules: Dict[str, SourceModule] = {}
        #: Modules that failed to parse: path -> error message.
        self.parse_errors: Dict[Path, str] = {}

    @classmethod
    def load(cls, root: Path, root_name: Optional[str] = None) -> "Project":
        """Parse every ``*.py`` under ``root`` (a package directory)."""
        root = Path(root).resolve()
        project = cls(root, root_name or root.name)
        for path in sorted(root.rglob("*.py")):
            name = _module_name(root, path, project.root_name)
            try:
                module = SourceModule.parse(path, name, project.root_name)
            except SyntaxError as exc:
                project.parse_errors[path] = exc.msg or "syntax error"
                continue
            project.modules[name] = module
        return project

    # -- lookups -------------------------------------------------------------

    def owns(self, dotted: str) -> bool:
        """Is ``dotted`` inside this project's package?"""
        return dotted == self.root_name or dotted.startswith(self.root_name + ".")

    def import_edges(self) -> Iterator[ImportEdge]:
        for name in sorted(self.modules):
            for edge in self.modules[name].imports:
                yield edge

    def relpath(self, path: Path) -> str:
        """``path`` relative to the package root's parent — the stable,
        checkout-independent path used in fingerprints and reports."""
        try:
            return str(
                Path(self.root.name) / path.resolve().relative_to(self.root)
            )
        except ValueError:
            return str(path)

    def __repr__(self) -> str:
        return f"Project({self.root_name}, modules={len(self.modules)})"


def _is_typecheck_test(node: ast.expr) -> bool:
    if isinstance(node, ast.Name):
        return node.id == "TYPE_CHECKING"
    return isinstance(node, ast.Attribute) and node.attr == "TYPE_CHECKING"


def _collect_imports(module: SourceModule, root_name: str) -> None:
    """Record the module's import edges, project bindings and external names."""

    def owned(dotted: str) -> bool:
        return dotted == root_name or dotted.startswith(root_name + ".")

    def resolve_from(node: ast.ImportFrom) -> Optional[str]:
        if node.level == 0:
            return node.module
        # Relative import: walk up from the module's own package.
        base = module.package.split(".")
        hops = node.level - 1
        if hops >= len(base):
            return None
        anchor = base[: len(base) - hops]
        if node.module:
            anchor.append(node.module)
        return ".".join(anchor)

    def external(local: str, target: str, stmt: ast.stmt) -> None:
        module.external_imports.append(ExternalImport(local, target, stmt))
        if local != "*":
            module.external[local] = target

    def walk(stmts: Sequence[ast.stmt], typecheck: bool, deferred: bool) -> None:
        for stmt in stmts:
            if isinstance(stmt, ast.Import):
                for alias in stmt.names:
                    # ``import a.b`` binds ``a``; ``import a.b as c`` binds a.b.
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else local
                    if not owned(alias.name):
                        external(local, target, stmt)
                        continue
                    module.imports.append(
                        ImportEdge(module.name, alias.name, stmt, typecheck, deferred)
                    )
                    if not deferred:
                        module.bindings[local] = target
            elif isinstance(stmt, ast.ImportFrom):
                source = resolve_from(stmt)
                if source is None:
                    continue
                if not owned(source):
                    for alias in stmt.names:
                        external(alias.asname or alias.name, f"{source}.{alias.name}", stmt)
                    continue
                module.imports.append(
                    ImportEdge(module.name, source, stmt, typecheck, deferred)
                )
                if not deferred:
                    for alias in stmt.names:
                        if alias.name != "*":
                            module.bindings[alias.asname or alias.name] = (
                                f"{source}.{alias.name}"
                            )
            elif isinstance(stmt, ast.If):
                branch_typecheck = typecheck or _is_typecheck_test(stmt.test)
                walk(stmt.body, branch_typecheck, deferred)
                walk(stmt.orelse, typecheck, deferred)
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                walk(stmt.body, typecheck, True)
            elif isinstance(stmt, ast.ClassDef):
                walk(stmt.body, typecheck, deferred)
            else:
                for field in ("body", "orelse", "finalbody"):
                    block = getattr(stmt, field, None)
                    if block:
                        walk(block, typecheck, deferred)
                for handler in getattr(stmt, "handlers", []) or []:
                    walk(handler.body, typecheck, deferred)

    walk(module.tree.body, False, False)
