"""Symbol tables, type inference, and call resolution.

This module turns a :class:`~repro.analysis.graph.project.Project` into
the naming layer the lock analysis runs on:

- :class:`Symbols` — every class and function in the project (including
  nested closures, qnamed ``outer.<locals>.inner``), base-class links,
  per-class attribute sources, and lock-attribute classification
  (``self._lock = threading.Lock()`` and friends, including
  ``Condition(self._lock)`` aliasing and locks received via annotated
  constructor parameters);
- :class:`Resolver` — candidate-set expression typing (``self.attr`` via
  ``__init__`` assignments and annotations, locals via constructor calls,
  call results via return annotations or config overrides) and call
  resolution (``self.m()`` with base-class lookup *and* subclass
  dispatch, module-alias calls, sibling closures, configured callback
  bindings).

Everything is a deliberate over-approximation: a call site resolves to
the set of methods it *could* reach, which is the right direction for a
deadlock analysis — missing an edge hides a deadlock, an extra edge at
worst costs a baseline entry.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.analysis.graph.config import GraphConfig
from repro.analysis.graph.project import Project, SourceModule

#: Type marker for values produced by ``open(...)``.
FILE_HANDLE = "<file>"
#: Prefix for non-project (stdlib) classes: ``ext:threading.Thread``.
EXT = "ext:"

_LOCK_CTORS = {
    "Lock": "lock",
    "RLock": "rlock",
    "Condition": "condition",
    "Semaphore": "semaphore",
    "BoundedSemaphore": "semaphore",
}

_EMPTY: FrozenSet[str] = frozenset()


class LockId:
    """Stable identity of one lock: a class attribute or a local.

    ``name`` is the fingerprint-stable identity — the *defining* class's
    qname plus attribute (``repro.core.queues.MatchQueue._lock``) so a
    lock inherited or aliased through a Condition unifies with its
    definition; locals use ``<func qname>.<local name>``.
    """

    __slots__ = ("name", "kind")

    def __init__(self, name: str, kind: str) -> None:
        self.name = name
        self.kind = kind

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LockId) and other.name == self.name

    def __hash__(self) -> int:
        return hash(self.name)

    def __repr__(self) -> str:
        return f"LockId({self.name}, {self.kind})"


class LockAttr:
    """Classification of one class attribute as a lock."""

    __slots__ = ("kind", "alias_attr", "owner")

    def __init__(self, kind: str, alias_attr: Optional[str], owner: str) -> None:
        self.kind = kind
        self.alias_attr = alias_attr  # Condition(self.X) aliases attr X
        self.owner = owner  # defining class qname


class FunctionInfo:
    """One function/method/closure definition."""

    __slots__ = (
        "qname",
        "module",
        "node",
        "owner",
        "parent",
        "nested",
        "param_annotations",
        "return_annotation",
    )

    def __init__(
        self,
        qname: str,
        module: SourceModule,
        node: ast.AST,
        owner: Optional[str],
        parent: Optional["FunctionInfo"],
    ) -> None:
        self.qname = qname
        self.module = module
        self.node = node
        self.owner = owner  # enclosing class qname, if a method/closure of one
        self.parent = parent  # enclosing FunctionInfo for closures
        self.nested: Dict[str, "FunctionInfo"] = {}
        args = node.args
        self.param_annotations: Dict[str, Optional[ast.expr]] = {}
        for arg in (
            list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        ):
            self.param_annotations[arg.arg] = arg.annotation
        self.return_annotation: Optional[ast.expr] = node.returns

    def __repr__(self) -> str:
        return f"FunctionInfo({self.qname})"


class ClassInfo:
    """One class definition with attribute and lock knowledge."""

    __slots__ = (
        "qname",
        "module",
        "node",
        "base_exprs",
        "bases",
        "methods",
        "attr_sources",
        "attr_annotations",
        "lock_attrs",
    )

    def __init__(self, qname: str, module: SourceModule, node: ast.ClassDef) -> None:
        self.qname = qname
        self.module = module
        self.node = node
        self.base_exprs: List[ast.expr] = list(node.bases)
        self.bases: List[str] = []  # resolved project-class qnames
        self.methods: Dict[str, FunctionInfo] = {}
        #: attr -> [(method, value expr)] from ``self.attr = expr``.
        self.attr_sources: Dict[str, List[Tuple[FunctionInfo, ast.expr]]] = {}
        #: attr -> annotation expr (``self.attr: T`` or class-level).
        self.attr_annotations: Dict[str, ast.expr] = {}
        self.lock_attrs: Dict[str, LockAttr] = {}

    def __repr__(self) -> str:
        return f"ClassInfo({self.qname})"


class CallResolution:
    """Everything the analyzer wants to know about one call site."""

    __slots__ = (
        "targets",
        "receiver_types",
        "method_name",
        "ext_callable",
        "result_types",
        "via_callback",
    )

    def __init__(self) -> None:
        self.targets: Set[str] = set()  # project function qnames
        self.receiver_types: FrozenSet[str] = _EMPTY
        self.method_name: Optional[str] = None
        self.ext_callable: Optional[str] = None  # "time.sleep", "os.replace"
        self.result_types: FrozenSet[str] = _EMPTY
        self.via_callback = False  # resolved through config callback_bindings


class Symbols:
    """All classes/functions of a project plus hierarchy indexes."""

    def __init__(self, project: Project) -> None:
        self.project = project
        self.classes: Dict[str, ClassInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self.subclasses: Dict[str, Set[str]] = {}
        for name in sorted(project.modules):
            self._scan_module(project.modules[name])
        self._resolve_bases()
        self._classify_locks()

    # -- construction --------------------------------------------------------

    def _scan_module(self, module: SourceModule) -> None:
        for stmt in module.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._scan_function(module, stmt, f"{module.name}.{stmt.name}", None, None)
            elif isinstance(stmt, ast.ClassDef):
                self._scan_class(module, stmt)

    def _scan_class(self, module: SourceModule, node: ast.ClassDef) -> None:
        qname = f"{module.name}.{node.name}"
        info = ClassInfo(qname, module, node)
        self.classes[qname] = info
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                method = self._scan_function(
                    module, stmt, f"{qname}.{stmt.name}", qname, None
                )
                info.methods[stmt.name] = method
            elif isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                info.attr_annotations.setdefault(stmt.target.id, stmt.annotation)

    def _scan_function(
        self,
        module: SourceModule,
        node: ast.AST,
        qname: str,
        owner: Optional[str],
        parent: Optional[FunctionInfo],
    ) -> FunctionInfo:
        info = FunctionInfo(qname, module, node, owner, parent)
        self.functions[qname] = info
        for child in _direct_functions(node):
            nested = self._scan_function(
                module,
                child,
                f"{qname}.<locals>.{child.name}",
                owner,
                info,
            )
            info.nested[child.name] = nested
        return info

    def _resolve_bases(self) -> None:
        for info in self.classes.values():
            for base in info.base_exprs:
                resolved = self._resolve_dotted(info.module, base)
                if resolved and resolved in self.classes:
                    info.bases.append(resolved)
                    self.subclasses.setdefault(resolved, set()).add(info.qname)

    def _resolve_dotted(
        self, module: SourceModule, node: ast.expr
    ) -> Optional[str]:
        """Resolve ``Name`` / ``alias.Attr`` to a dotted project name."""
        if isinstance(node, ast.Name):
            local = f"{module.name}.{node.id}"
            if local in self.classes or local in self.functions:
                return local
            return module.bindings.get(node.id)
        if isinstance(node, ast.Attribute):
            base = self._resolve_dotted(module, node.value)
            if base is not None:
                return f"{base}.{node.attr}"
        return None

    # -- lock classification -------------------------------------------------

    def _classify_locks(self) -> None:
        for info in self.classes.values():
            for method in info.methods.values():
                for stmt in ast.walk(method.node):
                    target_attr: Optional[str] = None
                    value: Optional[ast.expr] = None
                    annotation: Optional[ast.expr] = None
                    if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                        target, value = stmt.targets[0], stmt.value
                        if _is_self_attr(target):
                            target_attr = target.attr
                    elif isinstance(stmt, ast.AnnAssign):
                        if _is_self_attr(stmt.target):
                            target_attr = stmt.target.attr
                            value = stmt.value
                            annotation = stmt.annotation
                    if target_attr is None:
                        continue
                    if annotation is not None:
                        info.attr_annotations.setdefault(target_attr, annotation)
                    if value is not None:
                        info.attr_sources.setdefault(target_attr, []).append(
                            (method, value)
                        )
                        lock = self._lock_from_value(info, method, value)
                        if lock is not None:
                            info.lock_attrs.setdefault(target_attr, lock)

    def _lock_from_value(
        self, info: ClassInfo, method: FunctionInfo, value: ast.expr
    ) -> Optional[LockAttr]:
        """Classify ``self.X = <value>`` as a lock, if it is one."""
        kind = lock_ctor_kind(method.module, value)
        if kind is not None:
            alias_attr = None
            if kind == "condition" and isinstance(value, ast.Call) and value.args:
                first = value.args[0]
                if _is_self_attr(first):
                    alias_attr = first.attr
            return LockAttr(kind, alias_attr, info.qname)
        # ``self._lock = lock`` where the parameter is annotated as a
        # threading lock (metrics instruments receive stripe locks).
        if isinstance(value, ast.Name):
            annotation = method.param_annotations.get(value.id)
            param_kind = _annotation_lock_kind(annotation)
            if param_kind is not None:
                return LockAttr(param_kind, None, info.qname)
        return None

    # -- hierarchy lookups ---------------------------------------------------

    def mro(self, qname: str) -> List[str]:
        """BFS linearization over project-resolved bases."""
        out: List[str] = []
        queue = [qname]
        while queue:
            current = queue.pop(0)
            if current in out:
                continue
            out.append(current)
            info = self.classes.get(current)
            if info is not None:
                queue.extend(info.bases)
        return out

    def method_impl(self, cls: str, name: str) -> Optional[FunctionInfo]:
        for candidate in self.mro(cls):
            info = self.classes.get(candidate)
            if info is not None and name in info.methods:
                return info.methods[name]
        return None

    def transitive_subclasses(self, cls: str) -> Set[str]:
        out: Set[str] = set()
        queue = [cls]
        while queue:
            for sub in self.subclasses.get(queue.pop(), ()):
                if sub not in out:
                    out.add(sub)
                    queue.append(sub)
        return out

    def dispatch(self, cls: str, name: str) -> Set[str]:
        """All implementations a ``<cls instance>.name()`` call may hit."""
        targets: Set[str] = set()
        impl = self.method_impl(cls, name)
        if impl is not None:
            targets.add(impl.qname)
        for sub in self.transitive_subclasses(cls):
            info = self.classes.get(sub)
            if info is not None and name in info.methods:
                targets.add(info.methods[name].qname)
        return targets

    def lock_attr(self, cls: str, attr: str) -> Optional[LockAttr]:
        """Look up a lock attribute through the base-class chain,
        following Condition→lock aliases to the underlying lock."""
        for candidate in self.mro(cls):
            info = self.classes.get(candidate)
            if info is None or attr not in info.lock_attrs:
                continue
            lock = info.lock_attrs[attr]
            if lock.alias_attr is not None and lock.alias_attr != attr:
                aliased = self.lock_attr(cls, lock.alias_attr)
                if aliased is not None:
                    return aliased
            return lock
        return None


def _direct_functions(node: ast.AST) -> List[ast.AST]:
    """Function defs nested directly in ``node``'s body blocks (not in
    further nested functions)."""
    out: List[ast.AST] = []
    stack: List[ast.AST] = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop(0)
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out.append(child)
            continue  # don't descend — its own scan handles deeper defs
        if isinstance(child, ast.Lambda):
            continue
        stack.extend(ast.iter_child_nodes(child))
    return out


def _ordered_stmts(node: ast.AST):
    """All statements in ``node``'s body in source order, descending into
    compound statements but not into nested function/class scopes."""
    stack = list(reversed(getattr(node, "body", [])))
    while stack:
        stmt = stack.pop()
        yield stmt
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        blocks = [getattr(stmt, "finalbody", [])]
        for handler in getattr(stmt, "handlers", []) or []:
            blocks.append(handler.body)
        blocks.append(getattr(stmt, "orelse", []))
        blocks.append(getattr(stmt, "body", []))
        for block in blocks:
            if isinstance(block, list):
                stack.extend(reversed(block))


def _is_self_attr(node: ast.expr) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    )


def lock_ctor_kind(module: SourceModule, value: ast.expr) -> Optional[str]:
    """``threading.Lock()`` / bare imported ``Condition(...)`` → kind."""
    if not isinstance(value, ast.Call):
        return None
    source, _, ctor = (module.external_name(value.func) or "").rpartition(".")
    return _LOCK_CTORS.get(ctor) if source == "threading" else None


def _annotation_lock_kind(annotation: Optional[ast.expr]) -> Optional[str]:
    """Does this annotation name a threading lock type?"""
    if annotation is None:
        return None
    for node in ast.walk(annotation):
        if isinstance(node, ast.Attribute) and node.attr in _LOCK_CTORS:
            return _LOCK_CTORS[node.attr]
        if isinstance(node, ast.Name) and node.id in _LOCK_CTORS:
            return _LOCK_CTORS[node.id]
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            for ctor, kind in _LOCK_CTORS.items():
                if ctor in node.value:
                    return kind
    return None


class Resolver:
    """Expression typing and call resolution over a :class:`Symbols`."""

    def __init__(self, symbols: Symbols, config: GraphConfig) -> None:
        self.symbols = symbols
        self.config = config
        self._attr_cache: Dict[Tuple[str, str], FrozenSet[str]] = {}
        self._attr_in_progress: Set[Tuple[str, str]] = set()
        self._env_cache: Dict[str, Dict[str, FrozenSet[str]]] = {}

    # -- annotations ---------------------------------------------------------

    def annotation_types(
        self, module: SourceModule, node: Optional[ast.expr]
    ) -> FrozenSet[str]:
        if node is None:
            return _EMPTY
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                parsed = ast.parse(node.value, mode="eval").body
            except SyntaxError:
                return _EMPTY
            return self.annotation_types(module, parsed)
        if isinstance(node, ast.Subscript):
            head = self._annotation_head(module, node.value)
            if head in ("Optional", "Union", "List", "Sequence", "Iterable",
                        "Iterator", "Tuple", "Set", "FrozenSet", "Type",
                        "ClassVar", "Final", "Annotated"):
                return self._slice_types(module, node.slice)
            # Generic project class: ``MetricFamily[Counter]`` → the family.
            return self.annotation_types(module, node.value)
        if isinstance(node, (ast.Name, ast.Attribute)):
            resolved = self.symbols._resolve_dotted(module, node)
            if resolved is not None and resolved in self.symbols.classes:
                return frozenset({resolved})
            external = module.external_name(node)
            return frozenset({EXT + external}) if external is not None else _EMPTY
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
            # PEP 604 unions: ``X | None``.
            return self.annotation_types(module, node.left) | self.annotation_types(
                module, node.right
            )
        return _EMPTY

    def _annotation_head(self, module: SourceModule, node: ast.expr) -> str:
        if isinstance(node, ast.Name):
            return node.id
        if isinstance(node, ast.Attribute):
            return node.attr
        return ""

    def _slice_types(self, module: SourceModule, node: ast.expr) -> FrozenSet[str]:
        if isinstance(node, ast.Tuple):
            out: Set[str] = set()
            for element in node.elts:
                out |= self.annotation_types(module, element)
            return frozenset(out)
        return self.annotation_types(module, node)

    # -- attribute types -----------------------------------------------------

    def attr_types(self, cls: str, attr: str) -> FrozenSet[str]:
        key = (cls, attr)
        if key in self._attr_cache:
            return self._attr_cache[key]
        if key in self._attr_in_progress:
            return _EMPTY  # recursion (mutually-typed attributes)
        # A result computed while another attribute is mid-resolution may
        # have seen that attribute as empty through the recursion guard —
        # return it, but do not cache the possibly-partial answer.
        tainted = bool(self._attr_in_progress)
        self._attr_in_progress.add(key)
        try:
            out: Set[str] = set()
            for candidate in self.symbols.mro(cls):
                info = self.symbols.classes.get(candidate)
                if info is None:
                    continue
                annotation = info.attr_annotations.get(attr)
                if annotation is not None:
                    out |= self.annotation_types(info.module, annotation)
                for method, value in info.attr_sources.get(attr, ()):
                    out |= self.expr_types(method, value, self.method_env(method))
                if annotation is not None or attr in info.attr_sources:
                    break  # nearest definition wins, like runtime lookup
            result = frozenset(out)
        finally:
            self._attr_in_progress.discard(key)
        if not tainted:
            self._attr_cache[key] = result
        return result

    def method_env(self, func: FunctionInfo) -> Dict[str, FrozenSet[str]]:
        """Local-variable types of ``func``'s body, in source order —
        lets ``self.attr = <expr using locals>`` sources resolve (e.g.
        ``registry = self.obs.registry`` before the instrument attrs)."""
        cached = self._env_cache.get(func.qname)
        if cached is not None:
            return cached
        # Same taint rule as attr_types: an env built while an attribute
        # is mid-resolution may contain guard-empty results (e.g.
        # ``registry = self.obs.registry`` while typing ``obs``), so it
        # must not be cached.
        tainted = bool(self._attr_in_progress)
        self._env_cache[func.qname] = {}  # recursion guard
        env: Dict[str, FrozenSet[str]] = {}
        for stmt in _ordered_stmts(func.node):
            if (
                isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
            ):
                env[stmt.targets[0].id] = self.expr_types(func, stmt.value, env)
            elif isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                env[stmt.target.id] = self.annotation_types(
                    func.module, stmt.annotation
                )
        if tainted:
            del self._env_cache[func.qname]
        else:
            self._env_cache[func.qname] = env
        return env

    # -- expressions ---------------------------------------------------------

    def expr_types(
        self,
        func: FunctionInfo,
        node: ast.expr,
        env: Dict[str, FrozenSet[str]],
    ) -> FrozenSet[str]:
        if isinstance(node, ast.Name):
            if node.id == "self" and func.owner is not None:
                return frozenset({func.owner})
            if node.id in env:
                return env[node.id]
            annotation = func.param_annotations.get(node.id)
            if annotation is not None:
                return self.annotation_types(func.module, annotation)
            # Closure parameter/local of an enclosing scope: best effort
            # through the enclosing function's annotations.
            parent = func.parent
            while parent is not None:
                annotation = parent.param_annotations.get(node.id)
                if annotation is not None:
                    return self.annotation_types(parent.module, annotation)
                parent = parent.parent
            return _EMPTY
        if isinstance(node, ast.Attribute):
            receivers = self.expr_types(func, node.value, env)
            out: Set[str] = set()
            for receiver in receivers:
                if receiver in self.symbols.classes:
                    out |= self.attr_types(receiver, node.attr)
            return frozenset(out)
        if isinstance(node, ast.Call):
            return self.resolve_call(func, node, env).result_types
        if isinstance(node, ast.IfExp):
            return self.expr_types(func, node.body, env) | self.expr_types(
                func, node.orelse, env
            )
        if isinstance(node, ast.BoolOp):
            out = set()
            for value in node.values:
                out |= self.expr_types(func, value, env)
            return frozenset(out)
        if isinstance(node, ast.Await):
            return self.expr_types(func, node.value, env)
        if isinstance(node, ast.NamedExpr):
            return self.expr_types(func, node.value, env)
        return _EMPTY

    # -- call resolution -----------------------------------------------------

    def resolve_call(
        self,
        func: FunctionInfo,
        call: ast.Call,
        env: Dict[str, FrozenSet[str]],
    ) -> CallResolution:
        res = CallResolution()
        target = call.func
        if isinstance(target, ast.Name):
            self._resolve_name_call(func, target.id, res)
            return res
        if isinstance(target, ast.Attribute):
            self._resolve_attr_call(func, target, env, res)
            return res
        # Anything else (call of a call, subscript, lambda) — opaque.
        return res

    def _resolve_name_call(
        self, func: FunctionInfo, name: str, res: CallResolution
    ) -> None:
        # 1. Sibling/enclosing closures (nearest scope wins).
        scope: Optional[FunctionInfo] = func
        while scope is not None:
            if name in scope.nested:
                res.targets.add(scope.nested[name].qname)
                res.result_types = self._return_types(scope.nested[name])
                return
            scope = scope.parent
        module = func.module
        # 2. super() — typed as the owner's bases for the following attr.
        if name == "super" and func.owner is not None:
            info = self.symbols.classes.get(func.owner)
            if info is not None:
                res.result_types = frozenset(info.bases)
            return
        # 3. open() and other builtins.
        if name == "open":
            res.ext_callable = "open"
            res.result_types = frozenset({FILE_HANDLE})
            return
        # 4. Module-local / imported project symbols.
        resolved = self.symbols._resolve_dotted(module, ast.Name(id=name))
        if resolved is not None:
            self._add_dotted_target(resolved, res)
            return
        # 5. Names from-imported from other modules (``from threading
        #    import Thread``, ``from os import replace``).
        external = module.external.get(name)
        if external is not None:
            res.ext_callable = external
            res.result_types = frozenset({EXT + external})

    def _add_dotted_target(self, dotted: str, res: CallResolution) -> None:
        symbols = self.symbols
        if dotted in symbols.classes:
            ctor = symbols.method_impl(dotted, "__init__")
            if ctor is not None:
                res.targets.add(ctor.qname)
            res.result_types = frozenset({dotted})
            return
        if dotted in symbols.functions:
            info = symbols.functions[dotted]
            res.targets.add(dotted)
            res.result_types = self._return_types(info)

    def _resolve_attr_call(
        self,
        func: FunctionInfo,
        target: ast.Attribute,
        env: Dict[str, FrozenSet[str]],
        res: CallResolution,
    ) -> None:
        module = func.module
        res.method_name = target.attr
        value = target.value
        # Module-alias calls: threading.X(), time.sleep(), os.replace(),
        # and project-module functions (reporting.write_results(...)).
        if isinstance(value, ast.Name):
            external = module.external_name(target)
            if external is not None and value.id not in env:
                res.ext_callable = external
                res.result_types = frozenset({EXT + external})
                return
            bound = self.symbols._resolve_dotted(module, value)
            if bound is not None and bound in self.symbols.project.modules:
                self._add_dotted_target(f"{bound}.{target.attr}", res)
                if res.targets or res.result_types:
                    return
            if bound is not None and bound in self.symbols.classes:
                # Class-name call: classmethod/staticmethod dispatch.
                impl = self.symbols.method_impl(bound, target.attr)
                if impl is not None:
                    res.targets.add(impl.qname)
                    res.result_types = self._return_types(impl)
                    return
        # Instance method call through candidate receiver types.
        receivers = self.expr_types(func, value, env)
        res.receiver_types = receivers
        results: Set[str] = set()
        for receiver in receivers:
            if receiver in self.symbols.classes:
                targets = self.symbols.dispatch(receiver, target.attr)
                if not targets:
                    bindings = self._callback_targets(receiver, target.attr)
                    if bindings:
                        res.via_callback = True
                        targets = bindings
                res.targets |= targets
                for qname in targets:
                    info = self.symbols.functions.get(qname)
                    if info is not None:
                        results |= self._return_types(info)
            elif receiver.startswith(EXT) or receiver == FILE_HANDLE:
                res.ext_callable = f"{receiver}.{target.attr}"
        res.result_types = frozenset(results)

    def _callback_targets(self, cls: str, attr: str) -> Set[str]:
        """Config-bound callable attributes, looked up through bases."""
        out: Set[str] = set()
        for candidate in self.symbols.mro(cls):
            bound = self.config.callback_bindings.get(f"{candidate}.{attr}")
            if bound:
                out |= {t for t in bound if t in self.symbols.functions}
        return out

    def _return_types(self, info: FunctionInfo) -> FrozenSet[str]:
        override = self.config.return_types.get(info.qname)
        if override is not None:
            return frozenset(t for t in override if t in self.symbols.classes)
        return self.annotation_types(info.module, info.return_annotation)

    # -- locks ---------------------------------------------------------------

    def lock_for(
        self,
        func: FunctionInfo,
        node: ast.expr,
        env: Dict[str, FrozenSet[str]],
        lock_env: Dict[str, LockId],
    ) -> Optional[LockId]:
        """The lock identity of ``node`` in a ``with``/acquire context."""
        if isinstance(node, ast.Name):
            if node.id in lock_env:
                return lock_env[node.id]
            # A lock captured from an enclosing closure scope is named by
            # the enclosing function; the locks walker seeds lock_env for
            # nested functions, so a miss here means "not a lock".
            return None
        if isinstance(node, ast.Attribute):
            receivers = self.expr_types(func, node.value, env)
            for receiver in receivers:
                if receiver not in self.symbols.classes:
                    continue
                lock = self.symbols.lock_attr(receiver, node.attr)
                if lock is not None:
                    # lock_attr() already followed Condition→lock aliases,
                    # so owner/kind describe the underlying lock.
                    name = f"{lock.owner}.{self._defining_attr(lock, node.attr)}"
                    return LockId(name, lock.kind)
        return None

    def _defining_attr(self, lock: LockAttr, attr: str) -> str:
        """The attribute name on the defining class for this lock."""
        info = self.symbols.classes.get(lock.owner)
        if info is None:
            return attr
        for name, candidate in info.lock_attrs.items():
            if candidate is lock:
                return name
        return attr

    def local_lock(
        self, func: FunctionInfo, name: str, value: ast.expr,
        env: Dict[str, FrozenSet[str]], lock_env: Dict[str, LockId],
    ) -> Optional[LockId]:
        """Classify ``name = <value>`` as a local lock binding."""
        kind = lock_ctor_kind(func.module, value)
        if kind is not None:
            if kind == "condition" and isinstance(value, ast.Call) and value.args:
                aliased = self.lock_for(func, value.args[0], env, lock_env)
                if aliased is not None:
                    return aliased
            return LockId(f"{func.qname}.<{name}>", kind)
        # Re-binding an existing lock object: ``lock = self._lock``.
        if isinstance(value, (ast.Attribute, ast.Name)):
            return self.lock_for(func, value, env, lock_env)
        return None
