"""Pass 1 — the whole-program project model.

One :func:`extract_model` run per file turns an AST into a plain-data
summary: the symbols a module defines, what it imports under which
alias, every call a function makes with just enough argument shape
retained, the wall-clock/randomness sinks it touches, the
module-level state it reads or writes, and the timer/worker
registration sites the whole-program rules care about.

:class:`ProjectModel` stitches the per-file summaries together:
name resolution through aliased imports, method resolution through
``self``/class attribution and annotated locals, ``functools.partial``
unwrapping, and from those an approximate call graph. The graph is
deliberately conservative — an attribute call whose receiver type
cannot be inferred produces *no* edge rather than a guessed one — so
interprocedural rules (DET007–DET010) under-approximate instead of
drowning the gate in false positives.
"""

from __future__ import annotations

import ast
from typing import Any, Dict, Iterator, List, Optional, Sequence, Set, Tuple

#: ``random`` module functions that draw from the process-global RNG.
from repro.lint.rules import GLOBAL_RANDOM_FUNCS, WALL_CLOCK_TIME_FUNCS

WALL_CLOCK_DATETIME_FUNCS = frozenset({"now", "today", "utcnow"})

#: Constructors whose result is module-level mutable state when bound
#: at module scope.
_MUTABLE_CONSTRUCTORS = frozenset(
    {"Counter", "OrderedDict", "defaultdict", "deque", "dict", "list", "set"}
)

#: Methods that mutate their receiver in place.
MUTATING_METHODS = frozenset(
    {
        "add", "append", "appendleft", "clear", "discard", "extend",
        "insert", "pop", "popitem", "popleft", "remove", "setdefault",
        "sort", "update",
    }
)

#: Attribute-call names treated as timer registration (the callback
#: argument is positional index 1: ``schedule(delay, callback, *args)``).
SCHEDULE_METHOD_NAMES = frozenset({"schedule", "schedule_at"})

#: Call names treated as process-pool fan-out (worker at index 0).
PARALLEL_MAP_NAMES = frozenset({"parallel_map"})


def module_for_path(path: str) -> Optional[str]:
    """Dotted module for a source path, anchored at the ``repro``
    package (``src/repro/sim/engine.py`` -> ``repro.sim.engine``).
    None for paths outside the package."""
    if not path.endswith(".py"):
        return None
    parts = path[:-3].replace("\\", "/").split("/")
    if "repro" not in parts:
        return None
    anchored = parts[parts.index("repro"):]
    if anchored and anchored[-1] == "__init__":
        anchored = anchored[:-1]
    return ".".join(anchored)


def _dotted(node: ast.AST) -> Optional[List[str]]:
    """``a.b.c`` as ``["a", "b", "c"]``; None when the root is not a
    plain name."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return parts
    return None


def _annotation_name(node: Optional[ast.AST]) -> Optional[str]:
    """The class name an annotation denotes (``Simulator``,
    ``"Simulator"``, ``module.Simulator``, ``Optional[Simulator]``)."""
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value.strip().split("[")[0].split(".")[-1] or None
    if isinstance(node, ast.Subscript):
        # Optional[X] / List[X]: a container annotation does not name
        # the receiver's class, except Optional which wraps it.
        base = _annotation_name(node.value)
        if base == "Optional":
            return _annotation_name(node.slice)
        return None
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def summarize_callable(node: ast.AST) -> Dict[str, Any]:
    """A tiny serializable summary of an expression in callable
    position (schedule callbacks, parallel_map workers, call args)."""
    if isinstance(node, ast.Lambda):
        return {"type": "lambda", "lineno": node.lineno}
    if isinstance(node, ast.Name):
        return {"type": "name", "name": node.id, "lineno": node.lineno}
    if isinstance(node, ast.Attribute):
        parts = _dotted(node)
        return {
            "type": "attr",
            "parts": parts,
            "attr": node.attr,
            "lineno": node.lineno,
        }
    if isinstance(node, ast.Call):
        func = node.func
        name = (
            func.id
            if isinstance(func, ast.Name)
            else func.attr if isinstance(func, ast.Attribute) else ""
        )
        if name == "partial":
            inner = (
                summarize_callable(node.args[0])
                if node.args
                else {"type": "other"}
            )
            return {"type": "partial", "inner": inner, "lineno": node.lineno}
        return {"type": "call", "name": name, "lineno": node.lineno}
    return {"type": "other"}


class _FunctionCollector(ast.NodeVisitor):
    """Collects one top-level function's (or method's) facts.

    Nested functions and lambdas are folded into their enclosing
    top-level function: their calls and sinks belong to the parent for
    taint purposes, and their names feed closure detection (DET008)."""

    def __init__(self, extractor: "_ModuleExtractor", record: Dict[str, Any]):
        self.extractor = extractor
        self.record = record
        self._seen_ifs: Set[int] = set()

    # -- scope bookkeeping -------------------------------------------

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._nested_def(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._nested_def(node)

    def _nested_def(self, node: ast.AST) -> None:
        self.record["nested"].append(node.name)  # type: ignore[attr-defined]
        self.generic_visit(node)

    # -- assignments: local types, lambda names, global writes -------

    def visit_Global(self, node: ast.Global) -> None:
        for name in node.names:
            self.record["global_decls"].append(name)

    def visit_Assign(self, node: ast.Assign) -> None:
        self._record_assignment(node.targets, node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.target is not None:
            ann = _annotation_name(node.annotation)
            if ann and isinstance(node.target, ast.Name):
                self.record["local_types"][node.target.id] = ann
        if node.value is not None:
            self._record_assignment([node.target], node.value)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if isinstance(node.target, ast.Name):
            self._note_store(node.target.id, node.lineno, "augmented assign")
        self.generic_visit(node)

    def _record_assignment(
        self, targets: Sequence[ast.AST], value: ast.AST
    ) -> None:
        summary = summarize_callable(value)
        for target in targets:
            if isinstance(target, ast.Name):
                self._note_store(target.id, target.lineno, "assignment")
                if summary["type"] == "lambda" or (
                    summary["type"] == "name"
                    and summary["name"] in self.record["nested"]
                ):
                    self.record["lambda_names"].append(target.id)
                if (
                    isinstance(value, ast.Call)
                    and isinstance(value.func, ast.Name)
                ):
                    self.record["local_types"][target.id] = value.func.id
            elif isinstance(target, (ast.Subscript,)):
                inner = target.value
                if isinstance(inner, ast.Name):
                    self._note_store(
                        inner.id, target.lineno, "item assignment"
                    )
            elif isinstance(target, ast.Attribute):
                if (
                    isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    if summary["type"] == "lambda":
                        self.record["self_lambda_attrs"].append(target.attr)
                    if (
                        isinstance(value, ast.Call)
                        and isinstance(value.func, ast.Name)
                    ):
                        self.record["self_attr_types"][target.attr] = (
                            value.func.id
                        )

    def _note_store(self, name: str, lineno: int, how: str) -> None:
        self.record["stores"].append(
            {"name": name, "lineno": lineno, "how": how}
        )

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load):
            self.record["loads"].add(node.id)
        self.generic_visit(node)

    # -- calls -------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        self._record_call(node)
        self.generic_visit(node)

    def _record_call(self, node: ast.Call) -> None:
        func = node.func
        call: Dict[str, Any] = {"lineno": node.lineno, "col": node.col_offset}
        if isinstance(func, ast.Name):
            call["kind"] = "name"
            call["name"] = func.id
        elif isinstance(func, ast.Attribute):
            parts = _dotted(func)
            call["kind"] = "attr"
            call["attr"] = func.attr
            call["parts"] = parts
        else:
            return
        call["args"] = [summarize_callable(a) for a in node.args]
        call["kwargs"] = {
            kw.arg: summarize_callable(kw.value)
            for kw in node.keywords
            if kw.arg is not None
        }
        self.record["calls"].append(call)

        # Timer registration: <recv>.schedule(delay, callback, *args)
        if (
            call["kind"] == "attr"
            and call["attr"] in SCHEDULE_METHOD_NAMES
            and len(node.args) >= 2
        ):
            self.record["schedule_sites"].append(
                {
                    "lineno": node.lineno,
                    "col": node.col_offset,
                    "callback": summarize_callable(node.args[1]),
                }
            )
            self._note_forward(node.args[1])
        # Pool fan-out: parallel_map(worker, items, ...)
        name = call.get("name") or call.get("attr")
        if name in PARALLEL_MAP_NAMES and len(node.args) >= 1:
            self.record["parallel_map_sites"].append(
                {
                    "lineno": node.lineno,
                    "col": node.col_offset,
                    "worker": summarize_callable(node.args[0]),
                }
            )
        # Sinks: process-global randomness and wall-clock reads.
        self._record_sinks(node, func)
        # isinstance(...) tests feed dispatch-chain discovery.
        if (
            isinstance(func, ast.Name)
            and func.id == "isinstance"
            and len(node.args) == 2
        ):
            names = self._class_names(node.args[1])
            if names:
                self.record["isinstance_tests"].append(
                    {"lineno": node.lineno, "names": names}
                )

    def _note_forward(self, callback: ast.AST) -> None:
        """A parameter passed straight through as a schedule callback
        makes this function a timer-registering wrapper."""
        if isinstance(callback, ast.Name):
            params = self.record["params"]
            if callback.id in params:
                index = params.index(callback.id)
                if index not in self.record["forward_params"]:
                    self.record["forward_params"].append(index)

    @staticmethod
    def _class_names(node: ast.AST) -> List[str]:
        nodes = node.elts if isinstance(node, ast.Tuple) else [node]
        names = []
        for item in nodes:
            if isinstance(item, ast.Name):
                names.append(item.id)
            elif isinstance(item, ast.Attribute):
                names.append(item.attr)
        return names

    def _record_sinks(self, node: ast.Call, func: ast.AST) -> None:
        detail = None
        kind = None
        if isinstance(func, ast.Attribute):
            parts = _dotted(func)
            root = parts[0] if parts else None
            if root == "random" and func.attr in GLOBAL_RANDOM_FUNCS:
                kind, detail = "random", f"random.{func.attr}"
            elif root == "time" and func.attr in WALL_CLOCK_TIME_FUNCS:
                kind, detail = "wallclock", f"time.{func.attr}"
            elif (
                root in ("datetime", "date")
                and func.attr in WALL_CLOCK_DATETIME_FUNCS
            ):
                kind, detail = "wallclock", f"{root}.{func.attr}"
        elif isinstance(func, ast.Name):
            imported = self.extractor.imports.get(func.id)
            if imported in {
                f"random.{n}" for n in GLOBAL_RANDOM_FUNCS
            }:
                kind, detail = "random", imported
            elif imported in {
                f"time.{n}" for n in WALL_CLOCK_TIME_FUNCS
            }:
                kind, detail = "wallclock", imported
        if kind is not None:
            self.record["sinks"].append(
                {"kind": kind, "detail": detail, "lineno": node.lineno}
            )

    # -- dispatch chains ---------------------------------------------

    def visit_If(self, node: ast.If) -> None:
        if id(node) not in self._seen_ifs:
            chain: List[Dict[str, Any]] = []
            current: Optional[ast.If] = node
            while isinstance(current, ast.If):
                self._seen_ifs.add(id(current))
                chain.append(self._branch_tests(current.test))
                nxt = current.orelse
                current = (
                    nxt[0]
                    if len(nxt) == 1 and isinstance(nxt[0], ast.If)
                    else None
                )
            isinstance_branches = [
                b["isinstance"] for b in chain if b["isinstance"]
            ]
            kind_values: List[str] = []
            kind_attrs: Set[str] = set()
            for branch in chain:
                for attr, values in branch["kinds"]:
                    kind_attrs.add(attr)
                    kind_values.extend(values)
            if len(isinstance_branches) >= 2:
                self.record["dispatch_chains"].append(
                    {"lineno": node.lineno, "tests": isinstance_branches}
                )
            if kind_values:
                for attr in sorted(kind_attrs):
                    self.record["kind_tests"].append(
                        {
                            "lineno": node.lineno,
                            "attr": attr,
                            "values": sorted(set(kind_values)),
                        }
                    )
        self.generic_visit(node)

    def _branch_tests(self, test: ast.AST) -> Dict[str, Any]:
        """isinstance class names and ``x.kind == "lit"`` literals in
        one branch condition."""
        result: Dict[str, Any] = {"isinstance": [], "kinds": []}
        for node in ast.walk(test):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance"
                and len(node.args) == 2
            ):
                result["isinstance"].extend(self._class_names(node.args[1]))
            elif isinstance(node, ast.Compare):
                found = self._kind_compare(node)
                if found is not None:
                    result["kinds"].append(found)
        return result

    @staticmethod
    def _kind_compare(
        node: ast.Compare,
    ) -> Optional[Tuple[str, List[str]]]:
        """``<expr>.kind ==/!=/in/not-in <string literals>``."""
        left = node.left
        if not (isinstance(left, ast.Attribute) and left.attr == "kind"):
            return None
        if len(node.ops) != 1 or not isinstance(
            node.ops[0], (ast.Eq, ast.NotEq, ast.In, ast.NotIn)
        ):
            return None
        comparator = node.comparators[0]
        literals: List[str] = []
        candidates = (
            comparator.elts
            if isinstance(comparator, (ast.Tuple, ast.List, ast.Set))
            else [comparator]
        )
        for item in candidates:
            if isinstance(item, ast.Constant) and isinstance(item.value, str):
                literals.append(item.value)
        return ("kind", literals) if literals else None


class _ModuleExtractor:
    """Walks one module, producing the plain-data file model."""

    def __init__(self, tree: ast.Module, path: str, source: str):
        self.tree = tree
        self.path = path
        self.module = module_for_path(path)
        self.imports: Dict[str, str] = {}
        self.functions: Dict[str, Dict[str, Any]] = {}
        self.classes: Dict[str, Dict[str, Any]] = {}
        self.globals: Dict[str, Dict[str, Any]] = {}

    def extract(self) -> Dict[str, Any]:
        self._collect_imports()
        self._collect_top_level()
        return {
            "path": self.path,
            "module": self.module,
            "imports": self.imports,
            "functions": self.functions,
            "classes": self.classes,
            "globals": self.globals,
        }

    def _collect_imports(self) -> None:
        package = ""
        if self.module:
            package = (
                self.module
                if self.path.endswith("__init__.py")
                else self.module.rsplit(".", 1)[0]
                if "." in self.module
                else ""
            )
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    target = (
                        alias.name if alias.asname else alias.name.split(".")[0]
                    )
                    self.imports[bound] = target
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level and package:
                    parts = package.split(".")
                    parts = parts[: len(parts) - (node.level - 1)]
                    base = ".".join(parts + ([base] if base else []))
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    bound = alias.asname or alias.name
                    self.imports[bound] = (
                        f"{base}.{alias.name}" if base else alias.name
                    )

    def _collect_top_level(self) -> None:
        for node in self.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._collect_function(node, qual_prefix="")
            elif isinstance(node, ast.ClassDef):
                self._collect_class(node)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                self._collect_global(node)

    def _collect_global(self, node: ast.AST) -> None:
        value = getattr(node, "value", None)
        mutable = self._is_mutable_value(value)
        targets = (
            node.targets
            if isinstance(node, ast.Assign)
            else [node.target]
            if isinstance(node, ast.AnnAssign)
            else []
        )
        for target in targets:
            if isinstance(target, ast.Name):
                self.globals[target.id] = {
                    "mutable": mutable,
                    "lineno": node.lineno,
                }

    @staticmethod
    def _is_mutable_value(value: Optional[ast.AST]) -> bool:
        if value is None:
            return False
        if isinstance(value, (ast.Dict, ast.List, ast.Set)):
            return True
        if isinstance(value, ast.Call):
            func = value.func
            name = (
                func.id
                if isinstance(func, ast.Name)
                else func.attr if isinstance(func, ast.Attribute) else ""
            )
            return name in _MUTABLE_CONSTRUCTORS
        return False

    def _collect_class(self, cls: ast.ClassDef) -> None:
        info: Dict[str, Any] = {
            "lineno": cls.lineno,
            "bases": [
                name
                for base in cls.bases
                for name in [self._base_name(base)]
                if name
            ],
            "methods": [],
            "attr_types": {},
            "attr_lambdas": [],
        }
        self.classes[cls.name] = info
        for node in cls.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info["methods"].append(node.name)
                record = self._collect_function(
                    node, qual_prefix=f"{cls.name}."
                )
                info["attr_types"].update(record.pop("self_attr_types"))
                info["attr_lambdas"].extend(record.pop("self_lambda_attrs"))
            elif isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name
            ):
                ann = _annotation_name(node.annotation)
                if ann:
                    info["attr_types"][node.target.id] = ann

    @staticmethod
    def _base_name(node: ast.AST) -> Optional[str]:
        if isinstance(node, ast.Name):
            return node.id
        if isinstance(node, ast.Attribute):
            return node.attr
        return None

    def _collect_function(
        self, node: ast.AST, qual_prefix: str
    ) -> Dict[str, Any]:
        args = node.args
        params = [a.arg for a in args.posonlyargs + args.args]
        record: Dict[str, Any] = {
            "name": f"{qual_prefix}{node.name}",
            "lineno": node.lineno,
            "end_lineno": getattr(node, "end_lineno", node.lineno),
            "params": params,
            "param_types": {},
            "calls": [],
            "sinks": [],
            "schedule_sites": [],
            "parallel_map_sites": [],
            "stores": [],
            "loads": set(),
            "global_decls": [],
            "nested": [],
            "lambda_names": [],
            "local_types": {},
            "self_attr_types": {},
            "self_lambda_attrs": [],
            "isinstance_tests": [],
            "dispatch_chains": [],
            "kind_tests": [],
            "forward_params": [],
        }
        for arg in args.posonlyargs + args.args + args.kwonlyargs:
            ann = _annotation_name(arg.annotation)
            if ann:
                record["param_types"][arg.arg] = ann
                record["local_types"][arg.arg] = ann
        collector = _FunctionCollector(self, record)
        for child in ast.iter_child_nodes(node):
            if child is not args and not isinstance(child, ast.expr_context):
                collector.visit(child)
        record["loads"] = sorted(record["loads"])
        self.functions[record["name"]] = record
        return record


def extract_model(tree: ast.Module, path: str, source: str) -> Dict[str, Any]:
    """The plain-data whole-program summary of one parsed module."""
    return _ModuleExtractor(tree, path, source).extract()


# ----------------------------------------------------------------------
# The linked project model


class ProjectModel:
    """Cross-module view over per-file models.

    ``files`` maps path -> file model. Lookup helpers resolve names
    through imports to ``module:Class.method``-style qualified
    function keys, and :attr:`edges` holds the approximate call graph
    as ``(caller_key, callee_key, lineno)`` triples.
    """

    def __init__(self, files: Dict[str, Dict[str, Any]]):
        self.files = dict(sorted(files.items()))
        #: module -> file model (None-module files are unreachable by
        #: cross-module resolution but still carry local facts).
        self.modules: Dict[str, Dict[str, Any]] = {}
        for model in self.files.values():
            if model.get("module"):
                self.modules[model["module"]] = model
        #: qualified function key "module:Class.method" -> record
        self.functions: Dict[str, Dict[str, Any]] = {}
        for module, model in self.modules.items():
            for fname, record in model["functions"].items():
                self.functions[f"{module}:{fname}"] = record
        self.edges: List[Tuple[str, str, int]] = []
        self._callers: Dict[str, List[Tuple[str, int]]] = {}
        self._callees: Dict[str, List[Tuple[str, int]]] = {}
        self._link()

    # -- name resolution ---------------------------------------------

    def resolve_symbol(
        self, module: str, name: str
    ) -> Optional[Tuple[str, str]]:
        """Resolve ``name`` in ``module`` scope to ``(module, symbol)``.

        The symbol may be a function, class, or global of the target
        module; ``None`` when it leaves the modelled project."""
        model = self.modules.get(module)
        if model is None:
            return None
        if (
            name in model["functions"]
            or name in model["classes"]
            or name in model["globals"]
        ):
            return (module, name)
        target = model["imports"].get(name)
        if target is None:
            return None
        # "pkg.mod.symbol" -> longest module prefix we model.
        if target in self.modules:
            return (target, "")
        if "." in target:
            mod, _, symbol = target.rpartition(".")
            while mod:
                if mod in self.modules:
                    resolved = self.modules[mod]
                    rest = target[len(mod) + 1:]
                    head = rest.split(".")[0]
                    if (
                        head in resolved["functions"]
                        or head in resolved["classes"]
                        or head in resolved["globals"]
                    ):
                        return (mod, rest)
                    return (mod, rest) if rest else (mod, "")
                mod = mod.rpartition(".")[0]
        return None

    def resolve_class(
        self, module: str, name: str
    ) -> Optional[Tuple[str, Dict[str, Any]]]:
        """Resolve a class name in ``module`` scope to
        ``(defining_module, class_info)``."""
        found = self.resolve_symbol(module, name)
        if found is None:
            return None
        mod, symbol = found
        info = self.modules[mod]["classes"].get(symbol.split(".")[0])
        if info is None:
            return None
        return (mod, info)

    def class_name_of(
        self, module: str, name: str
    ) -> Optional[Tuple[str, str]]:
        """Like :meth:`resolve_class` but returns the class name."""
        found = self.resolve_symbol(module, name)
        if found is None:
            return None
        mod, symbol = found
        head = symbol.split(".")[0]
        if head in self.modules[mod]["classes"]:
            return (mod, head)
        return None

    def method_key(
        self, module: str, class_name: str, method: str
    ) -> Optional[str]:
        """``module:Class.method`` for ``method``, walking base classes
        (within the project) when the class doesn't define it."""
        seen: Set[Tuple[str, str]] = set()
        queue: List[Tuple[str, str]] = [(module, class_name)]
        while queue:
            mod, cname = queue.pop(0)
            if (mod, cname) in seen:
                continue
            seen.add((mod, cname))
            model = self.modules.get(mod)
            if model is None:
                continue
            info = model["classes"].get(cname)
            if info is None:
                resolved = self.class_name_of(mod, cname)
                if resolved is None:
                    continue
                mod, cname = resolved
                info = self.modules[mod]["classes"][cname]
                if (mod, cname) in seen:
                    continue
                seen.add((mod, cname))
            if method in info["methods"]:
                return f"{mod}:{cname}.{method}"
            for base in info["bases"]:
                queue.append((mod, base))
        return None

    def function_key(self, module: str, name: str) -> Optional[str]:
        """``module:func`` for a plain function name in scope."""
        found = self.resolve_symbol(module, name)
        if found is None:
            return None
        mod, symbol = found
        if symbol in self.modules[mod]["functions"]:
            return f"{mod}:{symbol}"
        # Class instantiation: treat as __init__ when modelled.
        if symbol.split(".")[0] in self.modules[mod]["classes"]:
            key = self.method_key(mod, symbol.split(".")[0], "__init__")
            return key
        return None

    # -- callable-summary resolution ---------------------------------

    def resolve_callable_summary(
        self,
        summary: Dict[str, Any],
        module: str,
        record: Dict[str, Any],
        owner_class: Optional[str],
    ) -> Optional[str]:
        """The function key a callable-shaped argument refers to, or
        None when it cannot be pinned down."""
        if summary["type"] == "partial":
            return self.resolve_callable_summary(
                summary["inner"], module, record, owner_class
            )
        if summary["type"] == "name":
            return self.function_key(module, summary["name"])
        if summary["type"] == "attr":
            parts = summary.get("parts")
            if not parts:
                return None
            return self._resolve_attr_parts(
                parts, module, record, owner_class
            )
        return None

    def _resolve_attr_parts(
        self,
        parts: List[str],
        module: str,
        record: Dict[str, Any],
        owner_class: Optional[str],
    ) -> Optional[str]:
        root = parts[0]
        if root == "self" and owner_class is not None:
            if len(parts) == 2:
                return self.method_key(module, owner_class, parts[1])
            if len(parts) == 3:
                info = self.modules[module]["classes"].get(owner_class)
                attr_type = (info or {}).get("attr_types", {}).get(parts[1])
                if attr_type:
                    resolved = self.class_name_of(module, attr_type)
                    if resolved:
                        return self.method_key(
                            resolved[0], resolved[1], parts[2]
                        )
            return None
        if len(parts) == 2:
            # module alias . func, or Class.method, or var.method
            target = self.function_key(module, ".".join(parts))
            if target:
                return target
            found = self.resolve_symbol(module, root)
            if found is not None:
                mod, symbol = found
                if symbol == "":
                    return self.function_key(mod, parts[1])
                if symbol in self.modules[mod]["classes"]:
                    return self.method_key(mod, symbol, parts[1])
            var_type = record.get("local_types", {}).get(root)
            if var_type:
                resolved = self.class_name_of(module, var_type)
                if resolved:
                    return self.method_key(resolved[0], resolved[1], parts[1])
        if len(parts) >= 3:
            # pkg.mod.func through a package import.
            target = self.function_key(module, ".".join(parts))
            if target:
                return target
            found = self.resolve_symbol(module, root)
            if found is not None and found[1] == "":
                sub = ".".join([found[0]] + parts[1:-1])
                if sub in self.modules:
                    if parts[-1] in self.modules[sub]["functions"]:
                        return f"{sub}:{parts[-1]}"
        return None

    # -- call graph ---------------------------------------------------

    def _link(self) -> None:
        for key, record in self.functions.items():
            module = key.split(":")[0]
            owner_class = (
                record["name"].rsplit(".", 1)[0]
                if "." in record["name"]
                else None
            )
            for call in record["calls"]:
                callee = self._resolve_call(call, module, record, owner_class)
                if callee is not None:
                    self._add_edge(key, callee, call["lineno"])
                # Callable-shaped arguments count as references (a
                # bound method passed into a timer or pool is a use).
                for arg in list(call.get("args", ())) + list(
                    call.get("kwargs", {}).values()
                ):
                    if arg["type"] in ("name", "attr", "partial"):
                        ref = self.resolve_callable_summary(
                            arg, module, record, owner_class
                        )
                        if ref is not None:
                            self._add_edge(key, ref, call["lineno"])

    def _resolve_call(
        self,
        call: Dict[str, Any],
        module: str,
        record: Dict[str, Any],
        owner_class: Optional[str],
    ) -> Optional[str]:
        if call["kind"] == "name":
            return self.function_key(module, call["name"])
        parts = call.get("parts")
        if parts:
            return self._resolve_attr_parts(parts, module, record, owner_class)
        return None

    def _add_edge(self, caller: str, callee: str, lineno: int) -> None:
        self.edges.append((caller, callee, lineno))
        self._callees.setdefault(caller, []).append((callee, lineno))
        self._callers.setdefault(callee, []).append((caller, lineno))

    def callees_of(self, key: str) -> List[Tuple[str, int]]:
        return self._callees.get(key, [])

    def callers_of(self, key: str) -> List[Tuple[str, int]]:
        return self._callers.get(key, [])

    def reachable_from(self, key: str) -> Iterator[str]:
        """Functions reachable from ``key`` (excluding itself unless
        recursive), in deterministic BFS order."""
        seen: Set[str] = set()
        queue = [c for c, _ in self.callees_of(key)]
        while queue:
            current = queue.pop(0)
            if current in seen:
                continue
            seen.add(current)
            yield current
            queue.extend(c for c, _ in self.callees_of(current))
