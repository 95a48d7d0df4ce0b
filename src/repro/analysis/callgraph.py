"""Conservative project call graph for gclint's interprocedural rules.

Resolution is purely syntactic — the analyzed tree is never imported.
A call edge exists only when the target is *provably* a project
function: ``self.method()``, a module-level function (directly or via a
``from repro.x import f`` alias), ``module_alias.func()``,
``ClassName.method()``, ``super().method()``, or a method on an
attribute/local whose class could be inferred.

Attribute types are inferred from three signals, all common in this
codebase:

* constructor assignment — ``self.window = WindowManager(capacity)``;
* parameter annotation — ``def __init__(self, store: GraphStore)``
  followed by ``self.store = store``;
* return annotation of a project factory —
  ``self.cache = CacheManager.from_config(...)`` with
  ``def from_config(...) -> "CacheManager"``.

Unresolvable calls (a callback stored on an attribute, values
threaded through untyped returns) simply produce no edge.  Rules
built on the graph must treat a missing edge as "unknown", not "safe" —
the lock-state analysis does this by keeping must-information empty
across unresolved boundaries.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analysis.core import ParsedModule, dotted_name

__all__ = ["ProjectGraph", "FunctionInfo", "ClassInfo", "build_project_graph",
           "module_key"]


def module_key(relpath: str) -> str:
    """Dotted module path for a file path, with any ``src/`` prefix and
    trailing ``__init__`` stripped: ``src/repro/cache/manager.py`` →
    ``repro.cache.manager``."""
    parts = list(relpath.replace("\\", "/").split("/"))
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    if parts and parts[-1] == "__init__":
        parts.pop()
    if "src" in parts:
        parts = parts[parts.index("src") + 1:]
    return ".".join(p for p in parts if p)


@dataclass
class FunctionInfo:
    """One function or method definition."""

    qualname: str                    # module.key [+ .Class] + .name
    name: str
    module: ParsedModule
    node: ast.FunctionDef | ast.AsyncFunctionDef
    class_name: str | None = None    # immediate enclosing class qualname
    #: resolved targets per contained ast.Call, keyed by id(call node)
    call_targets: dict[int, tuple[str, ...]] = field(default_factory=dict)
    #: local variable name -> inferred class qualname
    local_types: dict[str, str] = field(default_factory=dict)


@dataclass
class ClassInfo:
    qualname: str
    name: str
    module: ParsedModule
    node: ast.ClassDef
    base_names: list[str] = field(default_factory=list)   # as written
    bases: list[str] = field(default_factory=list)        # resolved qualnames
    methods: dict[str, str] = field(default_factory=dict)  # name -> func qualname
    attr_types: dict[str, str] = field(default_factory=dict)


@dataclass
class _ModuleInfo:
    module: ParsedModule
    key: str
    imports: dict[str, str] = field(default_factory=dict)  # alias -> dotted
    classes: dict[str, str] = field(default_factory=dict)  # name -> qualname
    functions: dict[str, str] = field(default_factory=dict)


class ProjectGraph:
    """Functions, classes and resolved call edges for a module set."""

    def __init__(self) -> None:
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        self._modules: dict[str, _ModuleInfo] = {}       # by relpath
        self._modules_by_key: dict[str, _ModuleInfo] = {}
        self._classes_by_name: dict[str, list[str]] = {}
        #: caller qualname -> [(callee qualname, call lineno)]
        self.edges: dict[str, list[tuple[str, int]]] = {}
        #: callee qualname -> [(caller qualname, id(call node), lineno)]
        self.callers: dict[str, list[tuple[str, int, int]]] = {}

    # -- queries -----------------------------------------------------------

    def function(self, qualname: str) -> FunctionInfo | None:
        return self.functions.get(qualname)

    def class_of(self, func: FunctionInfo) -> ClassInfo | None:
        if func.class_name is None:
            return None
        return self.classes.get(func.class_name)

    def mro_method(self, class_qualname: str, method: str,
                   _seen: frozenset[str] = frozenset()) -> str | None:
        """Resolve ``method`` on a class, walking project base classes."""
        info = self.classes.get(class_qualname)
        if info is None or class_qualname in _seen:
            return None
        if method in info.methods:
            return info.methods[method]
        seen = _seen | {class_qualname}
        for base in info.bases:
            found = self.mro_method(base, method, seen)
            if found is not None:
                return found
        return None

    def subclasses_of(self, class_qualname: str) -> list[str]:
        out: list[str] = []
        pending = [class_qualname]
        seen = {class_qualname}
        while pending:
            current = pending.pop()
            for qualname, info in self.classes.items():
                if current in info.bases and qualname not in seen:
                    seen.add(qualname)
                    out.append(qualname)
                    pending.append(qualname)
        return sorted(out)

    def attr_type(self, class_qualname: str, attr: str,
                  _seen: frozenset[str] = frozenset()) -> str | None:
        info = self.classes.get(class_qualname)
        if info is None or class_qualname in _seen:
            return None
        if attr in info.attr_types:
            return info.attr_types[attr]
        seen = _seen | {class_qualname}
        for base in info.bases:
            found = self.attr_type(base, attr, seen)
            if found is not None:
                return found
        return None

    def resolve_class_name(self, name: str, from_relpath: str) -> str | None:
        """Pick the project class called ``name`` nearest to the
        referring module: the one sharing the longest path prefix
        with it."""
        candidates = self._classes_by_name.get(name, [])
        if not candidates:
            return None
        if len(candidates) == 1:
            return candidates[0]
        ref_parts = from_relpath.replace("\\", "/").split("/")

        def proximity(qualname: str) -> tuple[int, str]:
            parts = self.classes[qualname].module.relpath.split("/")
            common = 0
            for a, b in zip(ref_parts, parts):
                if a != b:
                    break
                common += 1
            return (-common, qualname)

        return min(candidates, key=proximity)

    # -- construction ------------------------------------------------------

    def _resolve_in_module(self, mod: _ModuleInfo, name: str) -> str | None:
        """A bare name → dotted target (class/function qualname or
        imported module path)."""
        if name in mod.classes:
            return mod.classes[name]
        if name in mod.functions:
            return mod.functions[name]
        if name in mod.imports:
            return mod.imports[name]
        return None

    def _annotation_type(self, mod: _ModuleInfo,
                         ann: ast.expr | None) -> str | None:
        """Resolve a type annotation to a class qualname (or dotted
        external name such as ``threading.Lock``)."""
        if ann is None:
            return None
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            try:
                ann = ast.parse(ann.value, mode="eval").body
            except SyntaxError:
                return None
        if isinstance(ann, ast.BinOp) and isinstance(ann.op, ast.BitOr):
            # ``Lock | None`` — prefer the non-None side.
            for side in (ann.left, ann.right):
                if not (isinstance(side, ast.Constant) and side.value is None):
                    resolved = self._annotation_type(mod, side)
                    if resolved is not None:
                        return resolved
            return None
        if isinstance(ann, ast.Subscript):
            base = dotted_name(ann.value) or ""
            if base.split(".")[-1] in {"Optional", "Final", "ClassVar"}:
                return self._annotation_type(mod, ann.slice)
            return None
        dotted = dotted_name(ann)
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")
        resolved = self._resolve_in_module(mod, head)
        if resolved is None:
            # Not imported and not local: keep externals like
            # ``threading.Lock`` verbatim, drop unknown bare names unless
            # a project class matches by name.
            if rest:
                return dotted
            return self.resolve_class_name(dotted, mod.module.relpath)
        full = resolved + ("." + rest if rest else "")
        if full in self.classes or full in self.functions:
            return full
        # Not a project symbol: keep the dotted external name (useful for
        # recognizing ``threading.Lock``-typed attributes), unless a
        # project class matches the tail by name.
        tail = full.split(".")[-1]
        return self.resolve_class_name(tail, mod.module.relpath) or full

    def _value_type(self, mod: _ModuleInfo, func: FunctionInfo | None,
                    cls: ClassInfo | None, value: ast.expr,
                    param_types: dict[str, str]) -> str | None:
        """Infer the class of an assigned expression."""
        if isinstance(value, ast.IfExp):
            return (self._value_type(mod, func, cls, value.body, param_types)
                    or self._value_type(mod, func, cls, value.orelse,
                                        param_types))
        if isinstance(value, ast.Name):
            if func is not None and value.id in func.local_types:
                return func.local_types[value.id]
            return param_types.get(value.id)
        if isinstance(value, ast.Attribute):
            dotted = dotted_name(value)
            if dotted and dotted.startswith("self.") and cls is not None:
                parts = dotted.split(".")[1:]
                current: str | None = cls.qualname
                for part in parts:
                    if current is None:
                        return None
                    current = self.attr_type(current, part)
                return current
            return None
        if not isinstance(value, ast.Call):
            return None
        target = value.func
        dotted = dotted_name(target)
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")
        resolved = self._resolve_in_module(mod, head)
        full = (resolved + ("." + rest if rest else "")) if resolved else None
        if full is None and not rest:
            full = self.resolve_class_name(head, mod.module.relpath)
        if full is None:
            return None
        if full in self.classes:
            return full
        if full in self.functions:
            fn = self.functions[full]
            return self._annotation_type(
                self._modules[fn.module.relpath], fn.node.returns)
        # ``ClassName.from_config(...)`` — classmethod factory.
        if rest and resolved in self.classes:
            method = self.mro_method(resolved, rest)
            if method is not None:
                fn = self.functions[method]
                inferred = self._annotation_type(
                    self._modules[fn.module.relpath], fn.node.returns)
                return inferred or resolved
        return None

    def _build_module_index(self, modules: list[ParsedModule]) -> None:
        for module in modules:
            key = module_key(module.relpath)
            mod = _ModuleInfo(module=module, key=key)
            self._modules[module.relpath] = mod
            for stmt in ast.walk(module.tree):
                if isinstance(stmt, ast.Import):
                    for alias in stmt.names:
                        mod.imports[alias.asname or alias.name.split(".")[0]] \
                            = alias.name
                elif isinstance(stmt, ast.ImportFrom):
                    if stmt.level:
                        base_parts = key.split(".")
                        base_parts = base_parts[:len(base_parts) - stmt.level]
                        base = ".".join(base_parts)
                        source = base + ("." + stmt.module if stmt.module
                                         else "")
                    else:
                        source = stmt.module or ""
                    for alias in stmt.names:
                        if alias.name == "*":
                            continue
                        mod.imports[alias.asname or alias.name] = (
                            f"{source}.{alias.name}" if source else alias.name)
        self._modules_by_key = {mod.key: mod
                                for mod in self._modules.values()}

    def _collect_defs(self, modules: list[ParsedModule]) -> None:
        for module in modules:
            mod = self._modules[module.relpath]
            for stmt in module.tree.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualname = f"{mod.key}.{stmt.name}"
                    self.functions[qualname] = FunctionInfo(
                        qualname=qualname, name=stmt.name, module=module,
                        node=stmt)
                    mod.functions[stmt.name] = qualname
                elif isinstance(stmt, ast.ClassDef):
                    cls_qual = f"{mod.key}.{stmt.name}"
                    info = ClassInfo(qualname=cls_qual, name=stmt.name,
                                     module=module, node=stmt)
                    for base in stmt.bases:
                        base_dotted = dotted_name(base)
                        if base_dotted:
                            info.base_names.append(base_dotted)
                    for item in stmt.body:
                        if isinstance(item, (ast.FunctionDef,
                                             ast.AsyncFunctionDef)):
                            method_qual = f"{cls_qual}.{item.name}"
                            self.functions[method_qual] = FunctionInfo(
                                qualname=method_qual, name=item.name,
                                module=module, node=item,
                                class_name=cls_qual)
                            info.methods[item.name] = method_qual
                    self.classes[cls_qual] = info
                    mod.classes[stmt.name] = cls_qual
        for qualname, info in self.classes.items():
            self._classes_by_name.setdefault(info.name, []).append(qualname)
        for names in self._classes_by_name.values():
            names.sort()

    def _resolve_bases(self) -> None:
        for info in self.classes.values():
            mod = self._modules[info.module.relpath]
            for base_dotted in info.base_names:
                head, _, rest = base_dotted.partition(".")
                resolved = self._resolve_in_module(mod, head)
                full = (resolved + ("." + rest if rest else "")
                        if resolved else None)
                if full is None and not rest:
                    full = self.resolve_class_name(head, info.module.relpath)
                if full and full in self.classes:
                    info.bases.append(full)

    def _param_types(self, mod: _ModuleInfo,
                     node: ast.FunctionDef | ast.AsyncFunctionDef
                     ) -> dict[str, str]:
        out: dict[str, str] = {}
        args = list(node.args.posonlyargs) + list(node.args.args) \
            + list(node.args.kwonlyargs)
        for arg in args:
            inferred = self._annotation_type(mod, arg.annotation)
            if inferred is not None:
                out[arg.arg] = inferred
        return out

    def _infer_locals(self, func: FunctionInfo) -> None:
        """``x = ClassName(...)`` / ``x = self.attr`` local typing; a
        name assigned two different types is dropped (conservative)."""
        mod = self._modules[func.module.relpath]
        cls = self.class_of(func)
        params = self._param_types(mod, func.node)
        conflicted: set[str] = set()
        for stmt in _own_statements(func.node):
            if not isinstance(stmt, ast.Assign) or len(stmt.targets) != 1:
                continue
            target = stmt.targets[0]
            if not isinstance(target, ast.Name):
                continue
            inferred = self._value_type(mod, func, cls, stmt.value, params)
            if inferred is None:
                continue
            if target.id in func.local_types \
                    and func.local_types[target.id] != inferred:
                conflicted.add(target.id)
                continue
            func.local_types[target.id] = inferred
        for name in conflicted:
            func.local_types.pop(name, None)
        for name, inferred in params.items():
            func.local_types.setdefault(name, inferred)

    def _infer_attr_types(self) -> None:
        """Populate ``ClassInfo.attr_types`` from class-body annotations
        and ``self.x = ...`` assignments in methods."""
        for info in self.classes.values():
            mod = self._modules[info.module.relpath]
            for item in info.node.body:
                if isinstance(item, ast.AnnAssign) \
                        and isinstance(item.target, ast.Name):
                    inferred = self._annotation_type(mod, item.annotation)
                    if inferred is not None:
                        info.attr_types.setdefault(item.target.id, inferred)
        for info in self.classes.values():
            mod = self._modules[info.module.relpath]
            for method_qual in info.methods.values():
                func = self.functions[method_qual]
                for stmt in _own_statements(func.node):
                    targets: list[ast.expr] = []
                    value: ast.expr | None = None
                    if isinstance(stmt, ast.Assign):
                        targets, value = stmt.targets, stmt.value
                    elif isinstance(stmt, ast.AnnAssign) and stmt.value:
                        targets, value = [stmt.target], stmt.value
                    if value is None:
                        continue
                    for target in targets:
                        if not (isinstance(target, ast.Attribute)
                                and isinstance(target.value, ast.Name)
                                and target.value.id == "self"):
                            continue
                        ann = stmt.annotation \
                            if isinstance(stmt, ast.AnnAssign) else None
                        inferred = self._annotation_type(mod, ann) \
                            or self._value_type(
                                mod, func, info, value,
                                self._param_types(mod, func.node))
                        if inferred is None:
                            continue
                        existing = info.attr_types.get(target.attr)
                        if existing is not None and existing != inferred:
                            continue
                        info.attr_types[target.attr] = inferred

    def _method_targets(self, cls_qual: str, method: str) -> list[str]:
        """A method plus every subclass override — a ``self.m()`` or
        typed-receiver call may dispatch to any of them."""
        out: list[str] = []
        base = self.mro_method(cls_qual, method)
        if base is not None:
            out.append(base)
        for sub in self.subclasses_of(cls_qual):
            override = self.classes[sub].methods.get(method)
            if override is not None and override not in out:
                out.append(override)
        return out

    def _resolve_call(self, func: FunctionInfo,
                      call: ast.Call) -> list[str]:
        mod = self._modules[func.module.relpath]
        cls = self.class_of(func)
        target = call.func
        # super().m()
        if (isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Call)
                and isinstance(target.value.func, ast.Name)
                and target.value.func.id == "super"
                and cls is not None):
            out: list[str] = []
            for base in cls.bases:
                found = self.mro_method(base, target.attr)
                if found is not None:
                    out.append(found)
                    break
            return out
        if isinstance(target, ast.Name):
            resolved = self._resolve_in_module(mod, target.id)
            if resolved is None:
                return []
            if resolved in self.functions:
                return [resolved]
            if resolved in self.classes:
                init = self.mro_method(resolved, "__init__")
                return [init] if init else []
            return []
        if not isinstance(target, ast.Attribute):
            return []
        dotted = dotted_name(target)
        if dotted is None:
            return []
        parts = dotted.split(".")
        root, chain, method = parts[0], parts[1:-1], parts[-1]
        # Resolve the receiver chain to a class qualname.
        receiver: str | None = None
        if root == "self" and cls is not None:
            receiver = cls.qualname
        elif root in func.local_types:
            receiver = func.local_types[root]
        else:
            resolved = self._resolve_in_module(mod, root)
            if resolved is not None:
                if resolved in self.classes and not chain:
                    # ClassName.method(...)
                    found = self.mro_method(resolved, method)
                    return [found] if found else []
                candidate = resolved + "".join(
                    "." + part for part in chain + [method])
                if candidate in self.functions:
                    # module_alias.func(...)
                    return [candidate]
            return []
        for attr in chain:
            if receiver is None:
                return []
            receiver = self.attr_type(receiver, attr)
        if receiver is None or receiver not in self.classes:
            return []
        return self._method_targets(receiver, method)

    def _build_edges(self) -> None:
        for qualname in sorted(self.functions):
            func = self.functions[qualname]
            self.edges.setdefault(qualname, [])
            for call in _own_calls(func.node):
                targets = self._resolve_call(func, call)
                if not targets:
                    continue
                func.call_targets[id(call)] = tuple(targets)
                for callee in targets:
                    self.edges[qualname].append((callee, call.lineno))
                    self.callers.setdefault(callee, []).append(
                        (qualname, id(call), call.lineno))


def _own_statements(node: ast.FunctionDef | ast.AsyncFunctionDef
                    ) -> list[ast.stmt]:
    """Every statement in the function body, excluding nested
    ``def``/``class`` bodies (different execution context)."""
    out: list[ast.stmt] = []
    pending: list[ast.stmt] = list(node.body)
    while pending:
        stmt = pending.pop(0)
        out.append(stmt)
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            continue
        pending.extend(child for child in ast.iter_child_nodes(stmt)
                       if isinstance(child, ast.stmt))
    return out


def _own_calls(node: ast.FunctionDef | ast.AsyncFunctionDef
               ) -> list[ast.Call]:
    """Calls lexically in the function, excluding nested defs/lambdas."""
    out: list[ast.Call] = []
    pending: list[ast.AST] = list(node.body)
    while pending:
        item = pending.pop(0)
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef, ast.Lambda)):
            continue
        if isinstance(item, ast.Call):
            out.append(item)
        pending.extend(ast.iter_child_nodes(item))
    return out


def build_project_graph(modules: list[ParsedModule]) -> ProjectGraph:
    graph = ProjectGraph()
    graph._build_module_index(modules)
    graph._collect_defs(modules)
    graph._resolve_bases()
    # Locals and attribute types feed each other (``lock = Lock()``
    # then ``self.lock = lock``; ``x = self.attr`` the other way) — two
    # rounds reach the common cases' fixpoint.
    for _ in range(2):
        for qualname in sorted(graph.functions):
            graph._infer_locals(graph.functions[qualname])
        graph._infer_attr_types()
    graph._build_edges()
    return graph

