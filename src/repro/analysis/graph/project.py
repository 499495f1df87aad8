"""Project loading for the whole-program analyzer.

A :class:`Project` is the parsed view of one Python package tree: every
module's AST, its dotted module name, its intraproject import edges, and
its ``# wpl: noqa`` suppression map (shared with the lint engine, so the
suppression syntax is identical across both analyzers).

Module naming is rooted at the *package directory* handed to
:meth:`Project.load` — scanning ``src/repro`` yields modules named
``repro``, ``repro.core.queues``, ...; scanning a fixture tree
``tests/fixtures/graph/lock_cycle/repro`` yields the same shape of names,
which is what lets the violation fixtures exercise the layer contract
without living inside the real package.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Set

from repro.analysis.lint.engine import _collect_noqa


class ImportEdge:
    """One intraproject import: ``src`` imports ``dst``.

    ``typecheck_only`` marks imports inside ``if TYPE_CHECKING:`` blocks —
    they do not exist at runtime, so the layering contract ignores them.
    ``deferred`` marks function-level imports (a runtime edge, but one
    that was usually placed there deliberately to break an import cycle —
    the report says so).
    """

    __slots__ = ("src", "dst", "line", "col", "typecheck_only", "deferred")

    def __init__(
        self,
        src: str,
        dst: str,
        line: int,
        col: int,
        typecheck_only: bool,
        deferred: bool,
    ) -> None:
        self.src = src
        self.dst = dst
        self.line = line
        self.col = col
        self.typecheck_only = typecheck_only
        self.deferred = deferred

    def __repr__(self) -> str:
        flags = []
        if self.typecheck_only:
            flags.append("typecheck")
        if self.deferred:
            flags.append("deferred")
        suffix = f" [{','.join(flags)}]" if flags else ""
        return f"ImportEdge({self.src} -> {self.dst}{suffix})"


class SourceModule:
    """One parsed module: AST, names, suppressions, import edges."""

    def __init__(self, name: str, path: Path, tree: ast.Module, text: str) -> None:
        self.name = name
        self.path = path
        self.tree = tree
        self.text = text
        #: line -> suppressed codes (``None`` = all), lint-engine syntax.
        self.noqa = _collect_noqa(text)
        self.imports: List[ImportEdge] = []
        #: ``name in this module -> fully dotted target`` (module, class,
        #: or function qname) built from import statements.
        self.bindings: Dict[str, str] = {}
        #: Local aliases of the ``threading`` module (usually {"threading"}).
        self.threading_aliases: Set[str] = set()
        #: ``from threading import Lock as L`` -> {"L": "Lock"}.
        self.threading_names: Dict[str, str] = {}
        #: Non-project ``import X [as Y]`` aliases -> dotted module (os,
        #: time, queue, ...) — the blocking-call catalog keys off these.
        self.ext_modules: Dict[str, str] = {}

    @property
    def package(self) -> str:
        """The dotted package this module lives in (for relative imports)."""
        if self.path.name == "__init__.py":
            return self.name
        return self.name.rpartition(".")[0]

    def suppressed(self, line: int, code: str) -> bool:
        """Is ``code`` silenced on ``line`` by a ``# wpl: noqa`` comment?"""
        if line not in self.noqa:
            return False
        codes = self.noqa[line]
        return codes is None or code.upper() in codes

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
            text = path.read_text(encoding="utf-8")
            try:
                tree = ast.parse(text, filename=str(path))
            except SyntaxError as exc:
                project.parse_errors[path] = exc.msg or "syntax error"
                continue
            name = _module_name(root, path, project.root_name)
            module = SourceModule(name, path, tree, text)
            _collect_imports(module, project.root_name)
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
    """Record intraproject import edges and the module's name bindings."""

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

    def walk(stmts: Sequence[ast.stmt], typecheck: bool, deferred: bool) -> None:
        for stmt in stmts:
            if isinstance(stmt, ast.Import):
                for alias in stmt.names:
                    if alias.name == "threading":
                        module.threading_aliases.add(alias.asname or alias.name)
                    if alias.name == root_name or alias.name.startswith(
                        root_name + "."
                    ):
                        module.imports.append(
                            ImportEdge(
                                module.name,
                                alias.name,
                                stmt.lineno,
                                stmt.col_offset,
                                typecheck,
                                deferred,
                            )
                        )
                        if not deferred:
                            bound = alias.asname or alias.name.split(".")[0]
                            target = alias.name if alias.asname else alias.name.split(".")[0]
                            module.bindings[bound] = target
                    else:
                        module.ext_modules[alias.asname or alias.name.split(".")[0]] = (
                            alias.name
                        )
            elif isinstance(stmt, ast.ImportFrom):
                target = resolve_from(stmt)
                if target is not None and (
                    target == root_name or target.startswith(root_name + ".")
                ):
                    module.imports.append(
                        ImportEdge(
                            module.name,
                            target,
                            stmt.lineno,
                            stmt.col_offset,
                            typecheck,
                            deferred,
                        )
                    )
                    if not deferred:
                        for alias in stmt.names:
                            if alias.name == "*":
                                continue
                            module.bindings[alias.asname or alias.name] = (
                                f"{target}.{alias.name}"
                            )
                elif target == "threading":
                    # ``from threading import Lock [as L]`` — record the
                    # local names so lock classification can resolve bare
                    # ``Lock()`` / ``Condition()`` constructor calls.
                    for alias in stmt.names:
                        if alias.name != "*":
                            module.threading_names[alias.asname or alias.name] = (
                                alias.name
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
