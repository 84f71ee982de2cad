"""reprolint: the AST engine behind ``repro lint``.

One parse per file, two passes: a pre-scan indexes imports, set-typed
symbols (names annotated ``Set[...]`` or assigned set
literals/constructors) and the module's generator functions, then a
single visitor emits findings for the rules in
:mod:`repro.analysis.rules`.  Every rule sees one file at a time.

Findings are suppressed by a ``# reprolint: disable=REPxxx`` comment on
the offending line (comma-separate several IDs, or ``disable=all``).
Per-rule path allowlists live on the :class:`~repro.analysis.rules.Rule`
itself, so ``repro lint --list-rules`` shows them.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass
from dataclasses import field as dataclass_field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Set

from repro.analysis.rules import RULES, SIM_SCOPE_DIRS, Severity

_SUPPRESS_RE = re.compile(r"#\s*reprolint:\s*disable=([A-Za-z0-9_,\s]+)")

#: dotted call targets that read the host clock
_WALLCLOCK = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.clock_gettime",
        "time.localtime",
        "time.gmtime",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: methods in this repo that return sets (directory/membership queries)
_SET_RETURNING = frozenset(
    {"holders", "files_of", "known_nodes", "_neighbors", "keys",
     "difference", "union", "intersection", "symmetric_difference"}
)

#: method names whose call inside a loop body counts as an effect:
#: message sends, event scheduling, and membership/state mutation.
_EFFECT_METHODS = frozenset(
    {
        "send", "multicast", "datagram", "control_send", "control_broadcast",
        "schedule", "process", "succeed", "fail", "timeout", "put",
        "force_put", "emit", "mark", "inject", "repair",
        "kill", "start", "stop", "crash", "revive", "publish",
        "add", "discard", "remove", "pop", "update", "clear",
        "append", "extend", "setdefault", "inc", "dec", "set",
        "drop_node", "replace_node",
    }
)

_SCHEDULERS = frozenset({"timeout", "schedule", "succeed", "fail"})

#: span-opening methods on a SpanRecorder-ish receiver; binding one of
#: these marks the enclosing function as span-aware (REP013 scope)
_SPAN_OPENERS = frozenset({"start", "root", "event", "probe_root"})


@dataclass(frozen=True)
class Finding:
    """One lint finding."""

    rule: str
    severity: Severity
    path: str
    line: int
    col: int
    message: str

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "severity": str(self.severity),
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }

    def __str__(self) -> str:
        return (f"{self.path}:{self.line}:{self.col}: "
                f"{self.rule} [{self.severity}] {self.message}")


@dataclass
class LintResult:
    """Findings plus scan bookkeeping for the reporters."""

    findings: List[Finding]
    files_scanned: int
    suppressed: int = 0
    #: path -> line -> rule ids declared in ``# reprolint: disable=`` comments
    declared_suppressions: Dict[str, Dict[int, Set[str]]] = \
        dataclass_field(default_factory=dict)
    #: path -> line -> ids that actually dropped a finding ("ALL" included)
    used_suppressions: Dict[str, Dict[int, Set[str]]] = \
        dataclass_field(default_factory=dict)

    @property
    def errors(self) -> List[Finding]:
        return [f for f in self.findings if f.severity is Severity.ERROR]

    @property
    def warnings(self) -> List[Finding]:
        return [f for f in self.findings if f.severity is Severity.WARNING]

    @property
    def ok(self) -> bool:
        return not self.errors

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for f in self.findings:
            out[f.rule] = out.get(f.rule, 0) + 1
        return out


# ---------------------------------------------------------------------------
# helpers


def _dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for an Attribute/Name chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return ".".join(parts)
    return None


def _is_zero_or_negative_literal(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)) \
            and not isinstance(node.value, bool):
        return "zero" if node.value == 0 else None
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub) \
            and isinstance(node.operand, ast.Constant) \
            and isinstance(node.operand.value, (int, float)):
        return "negative"
    return None


def _suppressions(source: str) -> Dict[int, Set[str]]:
    """Map line number -> rule ids suppressed by a comment on that line.

    Only real ``#`` comments count — a ``reprolint: disable=`` example
    quoted inside a docstring is documentation, not a suppression.  Ids
    may be comma- and/or whitespace-separated; a ``--`` (or any other
    non-id character) ends the id list, so justification prose can
    follow: ``# reprolint: disable=REP005 -- the loop body is pure``.
    """
    out: Dict[int, Set[str]] = {}
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return out
    for tok in tokens:
        if tok.type != tokenize.COMMENT:
            continue
        m = _SUPPRESS_RE.search(tok.string)
        if m:
            ids = {t.strip().upper()
                   for t in re.split(r"[,\s]+", m.group(1)) if t.strip()}
            out.setdefault(tok.start[0], set()).update(ids)
    return out


def path_is_sim_scope(path: str) -> bool:
    """True if ``path`` lives under a simulation-reachable package dir."""
    parts = Path(path).parts
    if "repro" in parts:
        rest = parts[parts.index("repro") + 1:]
        return bool(rest) and rest[0] in SIM_SCOPE_DIRS
    return any(p in SIM_SCOPE_DIRS for p in parts)


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)

#: nodes that open a scope of their own inside a function or module
_NESTED_SCOPES = _FUNCTIONS + (ast.ClassDef,)


def _function_nodes(tree: ast.Module) -> Iterator[ast.AST]:
    for node in ast.walk(tree):
        if isinstance(node, _FUNCTIONS):
            yield node


def _own_statements(scope: ast.AST) -> Iterator[ast.AST]:
    """Walk a function's (or module's) own code: every node of its body
    except what a nested ``def``, ``async def`` or ``class`` holds."""
    stack = [n for n in getattr(scope, "body", [])
             if not isinstance(n, _NESTED_SCOPES)]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(child for child in ast.iter_child_nodes(node)
                     if not isinstance(child, _NESTED_SCOPES))


def _generator_names(body: Sequence[ast.stmt]) -> Set[str]:
    """Names of the functions defined in ``body`` whose own code yields
    (a nested def's yield does not make its parent a generator)."""
    return {node.name for node in body
            if isinstance(node, _FUNCTIONS)
            and any(isinstance(n, (ast.Yield, ast.YieldFrom))
                    for n in _own_statements(node))}


def _is_span_scope(func: ast.AST) -> bool:
    """True if ``func`` participates in causal tracing (REP013 scope).

    Span-aware means: it takes a ``ctx`` parameter, or it binds the
    result of a span-opening call (``<...span...>.start/root/event/
    probe_root``).  Bare ``event()`` expression statements don't qualify
    — emitting an annotation on a caller-owned span doesn't make the
    function responsible for propagating context.
    """
    args = func.args
    for arg in (args.posonlyargs + args.args + args.kwonlyargs):
        if arg.arg == "ctx":
            return True
    for node in _own_statements(func):
        if not isinstance(node, (ast.Assign, ast.AnnAssign)):
            continue
        value = node.value
        if isinstance(value, ast.Call) \
                and isinstance(value.func, ast.Attribute) \
                and value.func.attr in _SPAN_OPENERS:
            dotted = _dotted_name(value.func.value)
            if dotted is not None and "span" in dotted.lower():
                return True
    return False


class _ModuleIndex:
    """Pre-scan: import aliases, set-typed symbols and generators.

    Set-typed *names* are tracked per enclosing function (a name bound to
    a list in one method must not inherit set-ness from a sibling);
    ``self.<attr>`` symbols are tracked module-wide, since attributes are
    shared state across methods.  ``generators`` names the module's
    top-level generator functions (REP011).
    """

    #: scope key for module-level bindings
    MODULE_SCOPE = 0

    def __init__(self, tree: ast.Module) -> None:
        self.imports: Dict[str, str] = {}
        self.set_attrs: Set[str] = set()
        self.func_sets: Dict[int, Set[str]] = {self.MODULE_SCOPE: set()}
        self.generators = _generator_names(tree.body)

        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        self.imports[alias.asname] = alias.name
                    else:
                        head = alias.name.split(".")[0]
                        self.imports[head] = head
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                for alias in node.names:
                    self.imports[alias.asname or alias.name] = \
                        f"{node.module}.{alias.name}"
            elif isinstance(node, ast.AnnAssign) \
                    and self._is_set_annotation(node.annotation) \
                    and isinstance(node.target, ast.Attribute) \
                    and isinstance(node.target.value, ast.Name) \
                    and node.target.value.id == "self":
                self.set_attrs.add(node.target.attr)
            elif isinstance(node, ast.Assign) and self._is_set_expr(node.value):
                for target in node.targets:
                    if isinstance(target, ast.Attribute) \
                            and isinstance(target.value, ast.Name) \
                            and target.value.id == "self":
                        self.set_attrs.add(target.attr)

        scopes = [(self.MODULE_SCOPE, tree)] + \
            [(id(fn), fn) for fn in _function_nodes(tree)]
        for key, scope in scopes:
            names = self.func_sets.setdefault(key, set())
            if isinstance(scope, _FUNCTIONS):
                args = scope.args
                for arg in (args.posonlyargs + args.args + args.kwonlyargs):
                    if arg.annotation is not None \
                            and self._is_set_annotation(arg.annotation):
                        names.add(arg.arg)
            statements = list(_own_statements(scope))
            for node in statements:
                if isinstance(node, ast.AnnAssign) \
                        and self._is_set_annotation(node.annotation) \
                        and isinstance(node.target, ast.Name):
                    names.add(node.target.id)
            # Set algebra over known symbols (``others = self.view - {x}``)
            # propagates unorderedness; two sweeps reach the chains this
            # codebase actually contains.
            for _ in range(2):
                for node in statements:
                    if isinstance(node, ast.Assign) \
                            and self._derives_set(node.value, names):
                        for target in node.targets:
                            if isinstance(target, ast.Name):
                                names.add(target.id)

    def _derives_set(self, value: ast.AST, names: Set[str]) -> bool:
        if self._is_set_expr(value):
            return True
        if isinstance(value, ast.BinOp) and isinstance(
                value.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)):
            return (self._derives_set(value.left, names)
                    or self._derives_set(value.right, names))
        if isinstance(value, ast.Call) and isinstance(value.func, ast.Attribute):
            return value.func.attr in _SET_RETURNING
        if isinstance(value, ast.Name):
            return value.id in names
        if isinstance(value, ast.Attribute) and isinstance(value.value, ast.Name) \
                and value.value.id == "self":
            return value.attr in self.set_attrs
        return False

    @staticmethod
    def _is_set_annotation(ann: ast.AST) -> bool:
        text = ast.unparse(ann) if hasattr(ast, "unparse") else ""
        return bool(re.match(r"(typing\.)?(Set|FrozenSet|set|frozenset)\b", text))

    @staticmethod
    def _is_set_expr(value: ast.AST) -> bool:
        if isinstance(value, (ast.Set, ast.SetComp)):
            return True
        return (isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)
                and value.func.id in ("set", "frozenset"))

    def resolve(self, dotted: str) -> Optional[str]:
        """Map the head of ``dotted`` through the import table.

        Returns None when the head is not an imported name — the caller
        must not match module-level rules against local variables.
        """
        head, _, rest = dotted.partition(".")
        base = self.imports.get(head)
        if base is None:
            return None
        return f"{base}.{rest}" if rest else base


class _Visitor(ast.NodeVisitor):
    """Single-pass finding emitter; see the rule registry for semantics."""

    def __init__(self, path: str, index: _ModuleIndex, is_sim: bool) -> None:
        self.path = path
        self.index = index
        self.is_sim = is_sim
        self.findings: List[Finding] = []
        self._scope: List[int] = [_ModuleIndex.MODULE_SCOPE]
        self._span_scope: List[bool] = [False]
        #: generator methods of each enclosing class, innermost last
        self._class_generators: List[Set[str]] = []

    def _scope_names(self) -> Set[str]:
        out: Set[str] = set()
        for key in self._scope:
            out |= self.index.func_sets.get(key, set())
        return out

    # -- plumbing --------------------------------------------------------
    def _emit(self, rule_id: str, node: ast.AST, message: str,
              severity: Optional[Severity] = None) -> None:
        rule = RULES[rule_id]
        if rule.sim_only and not self.is_sim:
            return
        posix = Path(self.path).as_posix()
        if any(posix.endswith(sfx) for sfx in rule.allowlist):
            return
        self.findings.append(
            Finding(
                rule=rule_id,
                severity=severity or rule.severity,
                path=self.path,
                line=getattr(node, "lineno", 0),
                col=getattr(node, "col_offset", 0),
                message=message,
            )
        )

    # -- unordered-expression classification (REP004/REP005) -------------
    def _is_unordered(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name):
                if node.func.id in ("set", "frozenset"):
                    return True
                # list()/tuple() materialize their argument's order
                if node.func.id in ("list", "tuple") and node.args:
                    return self._is_unordered(node.args[0])
                return False
            if isinstance(node.func, ast.Attribute):
                if node.func.attr in _SET_RETURNING:
                    return True
                # dict.pop(key, set()) / dict.get(key, set()): the default
                # betrays the stored value type
                if node.func.attr in ("pop", "get") and len(node.args) == 2 \
                        and self._is_unordered(node.args[1]):
                    return True
            return False
        if isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)):
            return self._is_unordered(node.left) or self._is_unordered(node.right)
        if isinstance(node, ast.Name):
            return node.id in self._scope_names()
        if isinstance(node, ast.Attribute) \
                and isinstance(node.value, ast.Name) and node.value.id == "self":
            return node.attr in self.index.set_attrs
        return False

    @staticmethod
    def _loop_effects(body: Sequence[ast.stmt]) -> Optional[str]:
        for stmt in body:
            for node in ast.walk(stmt):
                if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) \
                        else [node.target]
                    for t in targets:
                        if isinstance(t, (ast.Attribute, ast.Subscript)):
                            return "mutates state"
                elif isinstance(node, ast.Delete):
                    return "mutates state"
                elif isinstance(node, (ast.Yield, ast.YieldFrom, ast.Await)):
                    return "yields to the scheduler"
                elif isinstance(node, ast.Call) \
                        and isinstance(node.func, ast.Attribute):
                    attr = node.func.attr
                    if attr in _EFFECT_METHODS:
                        return f"calls .{attr}()"
                    # A private method invoked on self from inside the loop
                    # almost always sends or mutates in this codebase;
                    # treat it as an effect (suppress where provably pure).
                    if attr.startswith("_") \
                            and isinstance(node.func.value, ast.Name) \
                            and node.func.value.id == "self":
                        return f"calls self.{attr}()"
        return None

    # -- calls: REP001, REP002, REP004, REP005(min/max), REP007 ----------
    def visit_Call(self, node: ast.Call) -> None:
        dotted = _dotted_name(node.func)
        resolved = self.index.resolve(dotted) if dotted else None
        if resolved in _WALLCLOCK:
            self._emit("REP001", node,
                       f"{resolved}() reads the host clock; simulated code "
                       "must use Environment.now")
        elif resolved is not None and (
                resolved == "random" or resolved.startswith("random.")
                or resolved.startswith("numpy.random.")):
            self._emit("REP002", node,
                       f"{resolved}() bypasses the named-stream registry; "
                       "draw from RngRegistry.stream(name) instead")

        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in ("emit", "mark"):
            for value in list(node.args) + [kw.value for kw in node.keywords]:
                if self._is_unordered(value):
                    self._emit("REP004", value,
                               "trace payload is an unordered set; wrap it "
                               "in sorted(...) so digests are stable")
                elif isinstance(value, ast.Call) \
                        and isinstance(value.func, ast.Name) \
                        and value.func.id in ("id", "repr", "hex"):
                    self._emit("REP004", value,
                               f"trace payload uses {value.func.id}(); "
                               "identity-based values differ across runs")

        if isinstance(func, ast.Name) and func.id in ("min", "max") \
                and node.args and any(kw.arg == "key" for kw in node.keywords) \
                and self._is_unordered(node.args[0]):
            self._emit("REP005", node,
                       f"{func.id}(..., key=...) over an unordered set "
                       "breaks ties by hash order; sort the candidates first",
                       severity=Severity.WARNING)

        attr = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else None)
        if attr in _SCHEDULERS:
            delay = None
            if attr == "timeout" and node.args:
                delay = node.args[0]
            elif attr == "schedule" and len(node.args) > 1:
                delay = node.args[1]
            for kw in node.keywords:
                if kw.arg == "delay":
                    delay = kw.value
            if delay is not None:
                verdict = _is_zero_or_negative_literal(delay)
                if verdict == "negative":
                    self._emit("REP007", node,
                               f"negative literal delay in {attr}() raises "
                               "at runtime", severity=Severity.ERROR)
                elif verdict == "zero":
                    self._emit("REP007", node,
                               f"literal-zero delay in {attr}() schedules a "
                               "same-instant event; make the intended "
                               "ordering explicit")

        # REP013: span-aware code must thread ctx through every hop.  A
        # **kwargs splat may carry ctx, so it counts as passing it.
        if self._span_scope[-1] and attr == "Message" \
                and not any(kw.arg == "ctx" or kw.arg is None
                            for kw in node.keywords):
            self._emit("REP013", node,
                       "Message built without ctx= in span-aware "
                       "code; the trace loses this hop — pass "
                       "ctx=... (ctx=None for untraced traffic)")
        self.generic_visit(node)

    # -- REP011 ----------------------------------------------------------
    def visit_Expr(self, node: ast.Expr) -> None:
        call = node.value
        if isinstance(call, ast.Call):
            func = call.func
            name: Optional[str] = None
            if isinstance(func, ast.Name) and func.id in self.index.generators:
                name = func.id
            elif isinstance(func, ast.Attribute) \
                    and isinstance(func.value, ast.Name) \
                    and func.value.id == "self" and self._class_generators \
                    and func.attr in self._class_generators[-1]:
                name = f"self.{func.attr}"
            if name is not None:
                self._emit("REP011", call,
                           f"generator {name}() called as a bare statement: "
                           "its body never runs — wrap it in "
                           "env.process(...) or yield from")
        self.generic_visit(node)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._class_generators.append(_generator_names(node.body))
        self.generic_visit(node)
        self._class_generators.pop()

    # -- REP003 ----------------------------------------------------------
    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        broad = node.type is None
        if isinstance(node.type, ast.Name):
            broad = node.type.id in ("Exception", "BaseException")
        elif isinstance(node.type, ast.Tuple):
            broad = any(isinstance(e, ast.Name)
                        and e.id in ("Exception", "BaseException")
                        for e in node.type.elts)
        if broad:
            reraises = any(isinstance(n, ast.Raise)
                           for stmt in node.body for n in ast.walk(stmt))
            uses_name = node.name is not None and any(
                isinstance(n, ast.Name) and n.id == node.name
                for stmt in node.body for n in ast.walk(stmt))
            if not reraises and not uses_name:
                what = "bare except" if node.type is None else \
                    f"except {ast.unparse(node.type)}"
                self._emit("REP003", node,
                           f"{what} discards the exception; injected faults "
                           "must not vanish silently — narrow it, use the "
                           "bound exception, or re-raise")
        self.generic_visit(node)

    # -- REP005 ----------------------------------------------------------
    def visit_For(self, node: ast.For) -> None:
        if self._is_unordered(node.iter):
            effect = self._loop_effects(node.body)
            if effect is not None:
                self._emit("REP005", node,
                           "loop over an unordered set "
                           f"{effect}; iterate sorted(...) so event order "
                           "is seed-deterministic")
        self.generic_visit(node)

    def visit_ListComp(self, node: ast.ListComp) -> None:
        for gen in node.generators:
            if self._is_unordered(gen.iter):
                self._emit("REP005", node,
                           "list built from an unordered set; downstream "
                           "tie-breaking/indexing inherits hash order — "
                           "build it from sorted(...)",
                           severity=Severity.WARNING)
                break
        self.generic_visit(node)

    # -- REP006 ----------------------------------------------------------
    def _check_defaults(self, node) -> None:
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None]
        for default in defaults:
            mutable = isinstance(default, (
                ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp,
                ast.SetComp))
            if isinstance(default, ast.Call) \
                    and isinstance(default.func, ast.Name) \
                    and default.func.id in ("list", "dict", "set", "bytearray"):
                mutable = True
            if mutable:
                self._emit("REP006", default,
                           f"mutable default argument in {node.name}(); "
                           "defaults are shared across every call — "
                           "use None and allocate inside")

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_defaults(node)
        self._scope.append(id(node))
        self._span_scope.append(_is_span_scope(node))
        self.generic_visit(node)
        self._span_scope.pop()
        self._scope.pop()

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_defaults(node)
        self._scope.append(id(node))
        self._span_scope.append(_is_span_scope(node))
        self.generic_visit(node)
        self._span_scope.pop()
        self._scope.pop()


# ---------------------------------------------------------------------------
# entry points


def lint_source(source: str, path: str,
                is_sim: Optional[bool] = None) -> LintResult:
    """Lint one module's source text.

    ``is_sim`` overrides the path-based scope classification (the fixture
    tests use this; production callers let the path decide).
    """
    tree = ast.parse(source, filename=path)
    index = _ModuleIndex(tree)
    sim = path_is_sim_scope(path) if is_sim is None else is_sim
    visitor = _Visitor(path, index, sim)
    visitor.visit(tree)
    suppress = _suppressions(source)
    kept: List[Finding] = []
    used: Dict[int, Set[str]] = {}
    dropped = 0
    for finding in visitor.findings:
        ids = suppress.get(finding.line, set())
        if finding.rule in ids:
            used.setdefault(finding.line, set()).add(finding.rule)
            dropped += 1
        elif "ALL" in ids:
            used.setdefault(finding.line, set()).add("ALL")
            dropped += 1
        else:
            kept.append(finding)
    kept.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return LintResult(findings=kept, files_scanned=1, suppressed=dropped,
                      declared_suppressions={path: suppress} if suppress else {},
                      used_suppressions={path: used} if used else {})


def lint_file(path: str, is_sim: Optional[bool] = None) -> LintResult:
    text = Path(path).read_text(encoding="utf-8")
    return lint_source(text, path, is_sim=is_sim)


def iter_python_files(paths: Sequence[str]) -> List[str]:
    out: List[str] = []
    for p in paths:
        path = Path(p)
        if path.is_dir():
            out.extend(str(f) for f in sorted(path.rglob("*.py"))
                       if "__pycache__" not in f.parts)
        elif path.suffix == ".py":
            out.append(str(path))
    return out


def lint_paths(paths: Sequence[str]) -> LintResult:
    """Lint every ``*.py`` under ``paths`` (files or directories)."""
    findings: List[Finding] = []
    suppressed = 0
    declared: Dict[str, Dict[int, Set[str]]] = {}
    used: Dict[str, Dict[int, Set[str]]] = {}
    files = iter_python_files(paths)
    for f in files:
        result = lint_file(f)
        findings.extend(result.findings)
        suppressed += result.suppressed
        declared.update(result.declared_suppressions)
        used.update(result.used_suppressions)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return LintResult(findings=findings, files_scanned=len(files),
                      suppressed=suppressed,
                      declared_suppressions=declared,
                      used_suppressions=used)


def audit_suppressions(
    declared: Dict[str, Dict[int, Set[str]]],
    used: Dict[str, Dict[int, Set[str]]],
) -> List[Finding]:
    """REP016: ``# reprolint: disable=`` comments that suppress nothing.

    ``used`` is what the engine actually dropped.  Unknown rule ids are
    reported too: they suppress nothing by construction (a typo, or a
    retired rule).
    """
    findings: List[Finding] = []
    for path in sorted(declared):
        for line in sorted(declared[path]):
            ids = declared[path][line]
            used_here = used.get(path, {}).get(line, set())
            for rid in sorted(ids):
                if rid in used_here:
                    continue
                if rid == "ALL":
                    if used_here:
                        continue
                    message = ("'disable=all' on this line suppresses no "
                               "finding; delete the stale comment")
                elif rid not in RULES:
                    message = (f"unknown rule id '{rid}' in suppression "
                               "comment; it suppresses nothing (typo?)")
                else:
                    message = (f"suppression of {rid} no longer matches any "
                               "finding; delete the stale comment")
                findings.append(Finding(
                    rule="REP016", severity=RULES["REP016"].severity,
                    path=path, line=line, col=0, message=message,
                ))
    return findings
