#!/usr/bin/env python
"""Reachability census: which definitions in ``src/`` production reaches.

The census reads the AST of every module under ``src/``, ``perfbench/``,
``scripts/``, ``benchmarks/``, ``examples/`` and ``tests/`` into two
relations, ``defines`` (module -> function, class, method or module
constant) and ``refers`` (definition -> what its code names), and takes
the transitive closure of ``refers`` (CrocoPat's relational calculus,
Beyer & Noack) from three root sets in turn:

1. production: the ``repro.cli`` commands, the service daemon, its HTTP
   routes and the fleet runner, all of ``perfbench/`` (it imports and
   wraps entry points by name) and every ``@register``ed stage or
   workload;
2. plus every module under ``benchmarks/``, ``examples/`` and ``scripts/``;
3. plus every module under ``tests/``.

A ``src/`` definition outside the first closure is reported as
bench/example-only, test-only or never referenced.  The report also lists
the fields and attributes that production writes but never reads.

Usage::

    python scripts/census.py            # print the report
    python scripts/census.py --check    # exit 1 on an unlisted finding

``--check`` fails on a test-only or never-referenced definition that
``scripts/census_allowlist.txt`` does not name, on an allowlist line
without a reason that names a non-test user or a ROADMAP item, and on an
allowlist line naming what is no longer a finding.

Without type inference, names resolve as follows:

- A bare name resolves through its module's definitions and imports.
  ``from pkg import Name`` on a package that does not bind ``Name`` (a
  PEP 562 name table) resolves to the submodule defining it; the table
  and ``__all__`` lists are re-exports, not uses.
- ``x.attr`` reaches every method named ``attr`` of every reachable
  class, and counts only where it occurs in reachable code.
- A string that is an identifier or a dotted name (``getattr(obj,
  "name")``), and each ``.name`` inside any other string (generated code
  such as ``"st.uninit_read"``), counts as a use of that name.  An
  f-string (or a ``"head" + name`` sum) passed as a call's second
  argument, the name position of ``getattr(owner, f"run_level{n}")``
  and of perfbench's ``wrap(owner, ...)``, reaches every name starting
  with its literal head.  Docstrings do not count.
- Annotations count, as documentation tools read: a ``Protocol`` or a
  type alias named only in annotations is used.
- A reachable class's dunder methods are reachable, and so is every
  method of a class whose base lies outside the scanned tree (the base
  may call any of them, as ``http.server`` calls ``do_GET``).
"""

from __future__ import annotations

import argparse
import ast
import re
import sys
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

#: Scanned top-level directories and the root set each one's code joins
#: (``src/`` code is reached, never a root by itself).
TREES = {"src": None, "perfbench": "production", "scripts": "bench",
         "benchmarks": "bench", "examples": "bench", "tests": "test"}

#: Production entry points besides ``perfbench/`` and registered classes.
PRODUCTION_ROOTS = (
    "repro.__main__:<module>",
    "repro.cli:main",
    "repro.service.daemon:CampaignService",
    "repro.service.http:ServiceRequestHandler",
    "repro.fleet.runner:RunnerAgent",
)

#: Class decorators that register a class in a registry production reads.
REGISTER_DECORATORS = {"register", "register_workload"}

#: External bases that call no method of a subclass.
INERT_BASES = {"object", "Exception", "ValueError", "RuntimeError",
               "KeyError", "TypeError", "Enum", "IntEnum", "Protocol",
               "Generic", "NamedTuple"}

#: Names assigned at module level that re-export rather than use.
REEXPORT_NAMES = {"__all__", "__slots__"}

#: Calls whose ``self`` argument reads every field of the instance.
ALL_FIELD_READERS = {"asdict", "astuple", "fields", "vars"}

ALLOWLIST = Path("scripts") / "census_allowlist.txt"

_DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*\Z")
_MEMBER = re.compile(r"\.([A-Za-z_]\w*)")
_HEAD = re.compile(r"[A-Za-z_]\w*\Z")
_ROADMAP_ITEM = re.compile(r"ROADMAP item \d+")
_USER_PATH = re.compile(r"[\w.-]+/[\w./-]+|[\w-]+\.py\b")

REPORTED_KINDS = ("function", "class", "method", "constant")


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


@dataclass
class Node:
    """One definition and what its code refers to."""

    id: str
    path: str
    line: int
    kind: str  # module | function | class | method | constant
    module: str
    owner: str = ""  # the class of a method
    #: Names loaded, as dotted chains resolved after every module is read.
    chains: set = field(default_factory=set)
    attrs: set = field(default_factory=set)  # member names used
    strings: set = field(default_factory=set)  # names used by string
    prefixes: set = field(default_factory=set)  # f-string name heads
    modules: set = field(default_factory=set)  # modules imported
    refs: set = field(default_factory=set)  # resolved node ids
    #: ``self.name = ...`` stores: name -> line.
    self_writes: dict = field(default_factory=dict)
    reads_all_fields: bool = False


class _Collector(ast.NodeVisitor):
    """Collects what one definition's code refers to into ``node``."""

    def __init__(self, node: Node, census: "Census", skip_strings: bool):
        self.node = node
        self.census = census
        self.skip_strings = skip_strings

    def body(self, statements) -> None:
        for stmt in statements:
            if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant) \
                    and isinstance(stmt.value.value, str):
                continue  # a docstring
            self.visit(stmt)

    def visit_FunctionDef(self, fn) -> None:
        for decorator in fn.decorator_list:
            self.visit(decorator)
        self._arguments(fn.args)
        if fn.returns is not None:
            self.visit(fn.returns)
        self.body(fn.body)

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Lambda(self, fn) -> None:
        self._arguments(fn.args)
        self.visit(fn.body)

    def _arguments(self, args: ast.arguments) -> None:
        for default in (*args.defaults, *args.kw_defaults):
            if default is not None:
                self.visit(default)
        for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                    args.vararg, args.kwarg):
            if arg is not None and arg.annotation is not None:
                self.visit(arg.annotation)

    def visit_ClassDef(self, cls) -> None:
        for expr in (*cls.decorator_list, *cls.bases, *cls.keywords):
            self.visit(expr)
        self.body(cls.body)

    def visit_Import(self, stmt) -> None:
        for alias in stmt.names:
            self.node.modules.add(self.census.absolute(self.node.module, alias.name))

    def visit_ImportFrom(self, stmt) -> None:
        base = self.census.import_base(self.node.module, stmt)
        for alias in stmt.names:
            self.node.refs |= self.census.resolve_from(base, alias.name)
        self.node.modules.add(base)

    def visit_Name(self, name) -> None:
        if isinstance(name.ctx, ast.Load):
            self.node.chains.add((name.id,))

    def visit_Attribute(self, attr) -> None:
        if not isinstance(attr.ctx, ast.Load):
            if isinstance(attr.value, ast.Name) and attr.value.id == "self":
                self.node.self_writes.setdefault(attr.attr, attr.lineno)
            else:
                self.visit(attr.value)
            return
        parts = [attr.attr]
        value = attr.value
        while isinstance(value, ast.Attribute):
            parts.append(value.attr)
            value = value.value
        if isinstance(value, ast.Name):
            parts.append(value.id)
            self.node.chains.add(tuple(reversed(parts)))
        else:
            self.node.attrs.update(parts)
            self.visit(value)

    def visit_Call(self, call) -> None:
        func = call.func
        name = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else "")
        if name in ALL_FIELD_READERS and call.args \
                and isinstance(call.args[0], ast.Name) and call.args[0].id == "self":
            self.node.reads_all_fields = True
        if len(call.args) >= 2:
            head = _name_head(call.args[1])
            if head:
                self.node.prefixes.add(head)
        self.generic_visit(call)

    def visit_Constant(self, const) -> None:
        if isinstance(const.value, str) and not self.skip_strings:
            self.node.strings.update(_string_names(const.value))

    def visit_JoinedStr(self, joined) -> None:
        for part in joined.values:
            self.visit(part)


def _name_head(expr) -> str:
    """The literal head of a computed name: ``f"run_level{n}"`` -> ``run_level``."""
    if isinstance(expr, ast.JoinedStr) and expr.values:
        first = expr.values[0]
    elif isinstance(expr, ast.BinOp) and isinstance(expr.op, ast.Add):
        first = expr.left
    else:
        return ""
    if isinstance(first, ast.Constant) and isinstance(first.value, str) \
            and _HEAD.match(first.value):
        return first.value
    return ""


def _string_names(text: str) -> set:
    """The names a string constant uses."""
    if _DOTTED.match(text):
        return set(text.split("."))
    return set(_MEMBER.findall(text))


class Census:
    """The ``defines``/``refers`` relations of one tree and their closures."""

    def __init__(self, root: Path):
        self.root = Path(root)
        self.nodes: dict[str, Node] = {}
        self.modules: dict[str, str] = {}  # module name -> its tree
        self.paths: dict[str, str] = {}  # module name -> file, from the root
        #: module -> name -> node id (module-level definitions)
        self.defs: dict[str, dict[str, str]] = defaultdict(dict)
        #: module -> name -> (module, attribute or None)
        self.imports: dict[str, dict[str, tuple]] = defaultdict(dict)
        self.members: dict[str, dict[str, str]] = defaultdict(dict)
        self.member_index: dict[str, list[str]] = defaultdict(list)
        self.toplevel_index: dict[str, list[str]] = defaultdict(list)
        #: class id -> field name -> line of its class-level assignment
        self.class_fields: dict[str, dict[str, int]] = defaultdict(dict)
        self.open_classes: set[str] = set()  # classes with a calling base
        self.roots: dict[str, set[str]] = defaultdict(set)
        self._trees: list[tuple[str, ast.Module]] = []
        self._read()
        for module, parsed in self._trees:
            self._scan_module(module, parsed)
        for node in self.nodes.values():
            group = self._group(node.module)
            if group:
                self.roots[group].add(node.id)
        self.roots["production"].update(PRODUCTION_ROOTS)
        for node in self.nodes.values():
            self._resolve(node)
        self.reached = {}
        reached: set[str] = set()
        for group in ("production", "bench", "test"):
            reached = self._closure(reached, self.roots[group])
            self.reached[group] = reached

    # -- reading ------------------------------------------------------------------

    def _read(self) -> None:
        for tree in TREES:
            base = self.root / tree
            if not base.is_dir():
                continue
            for path in sorted(base.rglob("*.py")):
                rel = path.relative_to(base)
                parts = list(rel.with_suffix("").parts)
                if parts[-1] == "__init__":
                    parts.pop()
                dotted = ".".join(parts)
                module = dotted if tree == "src" else f"{tree}/{dotted}"
                self.modules[module] = tree
                self.paths[module] = str(path.relative_to(self.root))
                parsed = ast.parse(path.read_text(), str(path))
                self._trees.append((module, parsed))
                self._bind_module(module, parsed)

    def _bind_module(self, module: str, parsed: ast.Module) -> None:
        """Record the module's top-level bindings (definitions, imports)."""
        for stmt in _module_statements(parsed.body):
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                self.defs[module][stmt.name] = f"{module}:{stmt.name}"
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                for name in _target_names(stmt):
                    self.defs[module][name] = f"{module}:{name}"
            elif isinstance(stmt, ast.Import):
                for alias in stmt.names:
                    target = self.absolute(module, alias.name)
                    if alias.asname:
                        self.imports[module][alias.asname] = (target, None)
                    else:
                        head = alias.name.split(".")[0]
                        self.imports[module][head] = (self.absolute(module, head), None)
            elif isinstance(stmt, ast.ImportFrom):
                base = self.import_base(module, stmt)
                for alias in stmt.names:
                    self.imports[module][alias.asname or alias.name] = (base, alias.name)

    def absolute(self, module: str, name: str) -> str:
        """The module ``import name`` in ``module`` loads: a module of the
        importer's own tree (``from oracles import ...`` in ``tests/``)
        before one of ``src/``."""
        if "/" in module:
            local = f"{module.split('/')[0]}/{name}"
            if local in self.modules or local.split(".")[0] in self.modules:
                return local
        return name

    def import_base(self, module: str, stmt: ast.ImportFrom) -> str:
        """The absolute module an ``ImportFrom`` in ``module`` names."""
        if not stmt.level:
            return self.absolute(module, stmt.module or "")
        package = module.split(".")
        if not self._is_package(module):
            package = package[:-1]
        package = package[:len(package) - stmt.level + 1]
        return ".".join(package + ([stmt.module] if stmt.module else []))

    def _is_package(self, module: str) -> bool:
        prefix = module + "."
        return any(other.startswith(prefix) for other in self.modules)

    def _node(self, module: str, qualname: str, kind: str, line: int,
              owner: str = "") -> Node:
        node_id = f"{module}:{qualname}"
        node = self.nodes.get(node_id)
        if node is None:
            node = self.nodes[node_id] = Node(node_id, self.paths[module], line,
                                              kind, module, owner)
            if kind != "module":
                node.refs.add(f"{module}:<module>")
            # Only src/ is reached by name; the rest are roots.
            name = qualname.rsplit(".", 1)[-1]
            if self.modules[module] == "src" and kind == "method":
                self.member_index[name].append(node_id)
            elif self.modules[module] == "src" and kind != "module":
                self.toplevel_index[name].append(node_id)
        return node

    def _group(self, module: str):
        """The root set all code of ``module`` joins (None for ``src/``)."""
        tree = self.modules[module]
        if tree == "perfbench" and module.split("/")[-1].startswith("test_"):
            return "test"  # perfbench's own tests are tests
        return TREES[tree]

    def _scan_module(self, module: str, parsed: ast.Module) -> None:
        module_node = self._node(module, "<module>", "module", 1)
        name_table = "__getattr__" in self.defs[module]
        collect = _Collector(module_node, self, skip_strings=False)
        for stmt in _module_statements(parsed.body, collect):
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                node = self._node(module, stmt.name, "function", stmt.lineno)
                _Collector(node, self, skip_strings=False).visit(stmt)
                if _is_dunder(stmt.name):
                    module_node.refs.add(node.id)
            elif isinstance(stmt, ast.ClassDef):
                self._scan_class(module, stmt)
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                names = _target_names(stmt)
                skip = name_table or bool(names & REEXPORT_NAMES)
                for name in names:
                    node = self._node(module, name, "constant", stmt.lineno)
                    if _is_dunder(name):
                        module_node.refs.add(node.id)  # module metadata
                    if stmt.value is not None and not names & REEXPORT_NAMES:
                        _Collector(node, self, skip).visit(stmt.value)
                if not names:
                    collect.visit(stmt)
            elif isinstance(stmt, ast.Import):
                module_node.modules.update(self.absolute(module, alias.name)
                                           for alias in stmt.names)
            elif isinstance(stmt, ast.ImportFrom):
                base = self.import_base(module, stmt)
                module_node.modules.add(base)
                for alias in stmt.names:
                    if f"{base}.{alias.name}" in self.modules:
                        module_node.modules.add(f"{base}.{alias.name}")
            else:
                collect.visit(stmt)

    def _scan_class(self, module: str, cls: ast.ClassDef) -> None:
        node = self._node(module, cls.name, "class", cls.lineno)
        collect = _Collector(node, self, skip_strings=False)
        for expr in (*cls.decorator_list, *cls.bases, *cls.keywords):
            collect.visit(expr)
        if any(_expr_name(d) in REGISTER_DECORATORS for d in cls.decorator_list):
            self.roots["production"].add(node.id)
        if any(self._calling_base(module, base) for base in cls.bases):
            self.open_classes.add(node.id)
        for stmt in cls.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                method = self._node(module, f"{cls.name}.{stmt.name}", "method",
                                    stmt.lineno, owner=node.id)
                _Collector(method, self, skip_strings=False).visit(stmt)
                self.members[node.id][stmt.name] = method.id
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                names = _target_names(stmt)
                for name in names:
                    self.class_fields[node.id].setdefault(name, stmt.lineno)
                if stmt.value is not None:
                    _Collector(node, self, skip_strings=bool(
                        names & REEXPORT_NAMES)).visit(stmt.value)
            elif not (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)):
                collect.visit(stmt)

    def _calling_base(self, module: str, base) -> bool:
        name = _expr_name(base)
        if not name or name in INERT_BASES:
            return False
        return not self._walk_chain(module, _chain(base) or (name,))[0]

    # -- resolution -------------------------------------------------------------

    def resolve_from(self, base: str, name: str, seen=None) -> set:
        """Node ids ``from base import name`` binds (empty if external)."""
        if f"{base}.{name}" in self.modules:
            return {f"{base}.{name}:<module>"}
        if base not in self.modules:
            return set()
        seen = seen or set()
        if (base, name) in seen:
            return set()
        seen.add((base, name))
        if name in self.defs[base]:
            return {self.defs[base][name]}
        if name in self.imports[base]:
            target, attr = self.imports[base][name]
            if attr is None:
                return {f"{target}:<module>"} if target in self.modules else set()
            return self.resolve_from(target, attr, seen)
        # A PEP 562 name table: the submodule defining the name.
        prefix = base + "."
        return {self.defs[mod][name] for mod in self.modules
                if mod.startswith(prefix) and name in self.defs[mod]}

    def _walk_chain(self, module: str, chain: tuple) -> tuple[set, list]:
        """Node ids the leading names of ``chain`` resolve to, and the
        rest, which are member names."""
        head = chain[0]
        if head in self.defs[module]:
            targets = {self.defs[module][head]}
        elif head in self.imports[module]:
            target, attr = self.imports[module][head]
            if attr is None:
                targets = {f"{target}:<module>"} if target in self.modules else set()
            else:
                targets = self.resolve_from(target, attr)
        else:
            return set(), list(chain[1:])
        rest = list(chain[1:])
        resolved = set(targets)
        while rest and len(targets) == 1:
            (target,) = targets
            if not target.endswith(":<module>"):
                break
            mod = target[:-len(":<module>")]
            found = self.resolve_from(mod, rest[0])
            if not found:
                break
            resolved |= found
            targets = found
            rest.pop(0)
        return resolved, rest

    def _resolve(self, node: Node) -> None:
        for chain in node.chains:
            targets, rest = self._walk_chain(node.module, chain)
            node.refs |= targets
            node.attrs.update(rest)
        for module in node.modules:
            parts = module.split(".")
            for i in range(1, len(parts) + 1):
                name = ".".join(parts[:i])
                if name in self.modules:
                    node.refs.add(f"{name}:<module>")

    # -- closure ----------------------------------------------------------------

    def _closure(self, start: set, roots: set) -> set:
        reached = set(start)
        attrs = {name for node_id in start for name in self._names(node_id)}
        prefixes = {p for node_id in start for p in self.nodes[node_id].prefixes}
        todo = [r for r in roots if r in self.nodes and r not in reached]
        reached.update(todo)

        def reach(node_id: str) -> None:
            if node_id in self.nodes and node_id not in reached:
                reached.add(node_id)
                todo.append(node_id)

        def live(name: str) -> bool:
            return name in attrs or _is_dunder(name) or any(
                name.startswith(p) for p in prefixes)

        while todo:
            node = self.nodes[todo.pop()]
            for ref in node.refs:
                reach(ref)
            for name in self._names(node.id) - attrs:
                attrs.add(name)
                for member in self.member_index.get(name, ()):
                    if self.nodes[member].owner in reached:
                        reach(member)
            for name in node.strings:
                for top in self.toplevel_index.get(name, ()):
                    reach(top)
            for prefix in node.prefixes - prefixes:
                prefixes.add(prefix)
                for name, members in self.member_index.items():
                    if name.startswith(prefix):
                        for member in members:
                            if self.nodes[member].owner in reached:
                                reach(member)
                for name, tops in self.toplevel_index.items():
                    if name.startswith(prefix):
                        for top in tops:
                            reach(top)
            if node.kind == "class":
                open_class = node.id in self.open_classes
                for name, member in self.members[node.id].items():
                    if open_class or live(name):
                        reach(member)
        return reached

    def _names(self, node_id: str) -> set:
        node = self.nodes[node_id]
        return node.attrs | node.strings

    # -- findings ---------------------------------------------------------------

    def findings(self) -> dict[str, list[Node]]:
        """Unreached ``src/`` definitions, by the first root set reaching them."""
        out = {"bench/example-only": [], "test-only": [], "never referenced": []}
        for node in self.nodes.values():
            if self.modules[node.module] != "src" or node.kind not in REPORTED_KINDS:
                continue
            if node.id in self.reached["production"]:
                continue
            if node.id in self.reached["bench"]:
                out["bench/example-only"].append(node)
            elif node.id in self.reached["test"]:
                out["test-only"].append(node)
            else:
                out["never referenced"].append(node)
        for nodes in out.values():
            nodes.sort(key=lambda n: (n.path, n.line))
        return out

    def write_only(self) -> list[tuple[str, str, int]]:
        """``(class id, field, line)`` for each field production writes but
        never reads."""
        production = self.reached["production"]
        reads: set[str] = set()
        for node_id in production:
            reads |= self._names(node_id)
        out = []
        for class_id in sorted(c for c in self.members.keys() | self.class_fields.keys()
                               if c in production and self.modules[
                                   self.nodes[c].module] == "src"):
            methods = [self.nodes[m] for m in self.members[class_id].values()
                       if m in production]
            if class_id in self.open_classes or any(
                    m.reads_all_fields for m in methods):
                continue  # its base, or a generic reader, reads every field
            written = dict(self.class_fields[class_id])
            for method in methods:
                for name, line in method.self_writes.items():
                    written.setdefault(name, line)
            for name, line in sorted(written.items(), key=lambda item: item[1]):
                if name in reads or _is_dunder(name) or name in self.members[class_id]:
                    continue
                out.append((class_id, name, line))
        return out


def _module_statements(body, collect: _Collector | None = None):
    """Top-level statements, looking inside module-level ``if``/``try``."""
    for stmt in body:
        if isinstance(stmt, ast.If):
            if collect is not None:
                collect.visit(stmt.test)
            yield from _module_statements(stmt.body, collect)
            yield from _module_statements(stmt.orelse, collect)
        elif isinstance(stmt, ast.Try):
            yield from _module_statements(stmt.body, collect)
            for handler in stmt.handlers:
                yield from _module_statements(handler.body, collect)
            yield from _module_statements(stmt.orelse, collect)
            yield from _module_statements(stmt.finalbody, collect)
        elif isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant) \
                and isinstance(stmt.value.value, str):
            continue  # a docstring
        else:
            yield stmt


def _target_names(stmt) -> set:
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
    names = set()
    for target in targets:
        for leaf in ast.walk(target):
            if isinstance(leaf, ast.Name):
                names.add(leaf.id)
    return names


def _expr_name(expr) -> str:
    """The last name of a decorator or base: ``a.b(c)`` -> ``b``."""
    if isinstance(expr, ast.Call):
        expr = expr.func
    if isinstance(expr, ast.Subscript):
        expr = expr.value
    if isinstance(expr, ast.Attribute):
        return expr.attr
    if isinstance(expr, ast.Name):
        return expr.id
    return ""


def _chain(expr) -> tuple:
    parts = []
    while isinstance(expr, ast.Attribute):
        parts.append(expr.attr)
        expr = expr.value
    if isinstance(expr, ast.Name):
        parts.append(expr.id)
        return tuple(reversed(parts))
    return ()


def read_allowlist(path: Path) -> tuple[dict[str, str], list[str]]:
    """``{definition: reason}`` from ``path``, and its malformed lines.

    One entry a line: the definition as the report prints it, then the
    reason it stays.  Blank lines and lines starting with ``#`` are
    skipped.
    """
    entries: dict[str, str] = {}
    problems: list[str] = []
    if not path.exists():
        return entries, problems
    for number, raw in enumerate(path.read_text().splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        name, _, reason = line.partition(" ")
        reason = reason.strip()
        where = f"{path.name}:{number}: {name}"
        if not reason:
            problems.append(f"{where}: no reason")
        elif not (_ROADMAP_ITEM.search(reason) or any(
                not user.startswith("tests") for user in _USER_PATH.findall(reason))):
            problems.append(f"{where}: the reason names neither a non-test "
                            f"user (a path outside tests/) nor a ROADMAP item")
        entries[name] = reason
    return entries, problems


def check(census: Census, allowlist: dict[str, str]) -> list[str]:
    """Why ``--check`` fails: unlisted findings and stale allowlist lines."""
    findings = census.findings()
    failing = {node.id: (kind, node)
               for kind in ("test-only", "never referenced")
               for node in findings[kind]}
    problems = [f"{node.path}:{node.line}: {node_id} is {kind}: delete it, "
                f"or name it in {ALLOWLIST} with the reason it stays"
                for node_id, (kind, node) in failing.items()
                if node_id not in allowlist]
    problems += [f"{ALLOWLIST}: {name} is no longer a test-only or "
                 f"never-referenced definition: remove its line"
                 for name in allowlist if name not in failing]
    return problems


def report(census: Census, allowlist: dict[str, str]) -> str:
    src = [n for n in census.nodes.values()
           if census.modules[n.module] == "src" and n.kind in REPORTED_KINDS]
    reached = sum(n.id in census.reached["production"] for n in src)
    lines = [f"census of src/: {len(src)} definitions, {reached} reached by "
             f"production"]
    for kind, nodes in census.findings().items():
        lines.append(f"{kind} ({len(nodes)}):")
        for node in nodes:
            mark = "  [allowlisted]" if node.id in allowlist else ""
            lines.append(f"  {node.path}:{node.line}  {node.id}{mark}")
    fields = census.write_only()
    lines.append(f"written by production, never read ({len(fields)}):")
    for class_id, name, line in fields:
        path = census.nodes[class_id].path
        lines.append(f"  {path}:{line}  {class_id}.{name}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="exit 1 on a test-only or never-referenced "
                             "definition the allowlist does not name")
    parser.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parent.parent,
                        help="the repository to census (default: this one)")
    args = parser.parse_args(argv)
    census = Census(args.root)
    allowlist, problems = read_allowlist(args.root / ALLOWLIST)
    print(report(census, allowlist))
    if not args.check:
        return 0
    problems += check(census, allowlist)
    for problem in problems:
        print(f"census: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
