"""Static race analysis: shared-state effects and REP014/REP015.

The kernel's FIFO tie-break among same-``(time, priority)`` events is a
*convention*: nothing in the happens-before relation orders two events
scheduled for the same instant by different processes.  Code whose
results depend on that accidental order is racy — it will silently
change behaviour under any scheduler refactor (calendar queues, lazy
heaps, batched emission) and under the overlapping-fault campaigns that
pile concurrent writers onto membership and cache state.

The analysis extends the flow call graph with a read/write *effect
analysis*: for every function, the set of ``(class, attribute)`` keys it
lexically reads and mutates; effects propagate interprocedurally over
*synchronous* call edges (spawn edges — a generator handed to
``env.process(...)`` — are concurrency edges and cut propagation).
Process roots are the spawn targets.  Two rules fire:

* **REP014** — the same attribute is written lexically inside two or
  more *distinct* process-generator bodies.  Writes inside a generator
  body are interleaving-exposed relative to that generator's own yields;
  with no ordering edge between distinct processes, the final value is
  schedule-dependent.
* **REP015** — a read-modify-write torn across a ``yield``: a local is
  bound from a shared attribute, the generator yields (another
  same-instant process can interleave), then the attribute is written
  back from that stale local.  The classic lost-update race.

The findings surface through ``repro lint --flow`` (REP014/REP015 and the
``races`` summary); ``repro sanitize --vary tiebreak`` checks the same
property at runtime (:mod:`repro.analysis.differential`).
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.callgraph import (
    CallGraph,
    FunctionInfo,
    _annotation_name,
)
from repro.analysis.lint import Finding
from repro.analysis.rules import RULES

#: ``(class qualname, attribute name)`` — one piece of shared state
AttrKey = Tuple[str, str]

#: container methods whose call on an attribute mutates it in place
_MUTATORS = frozenset(
    {"add", "discard", "remove", "pop", "popleft", "update", "clear",
     "append", "extend", "insert", "setdefault", "appendleft"}
)


# ---------------------------------------------------------------------------
# effect analysis


@dataclass(frozen=True)
class AccessSite:
    """One lexical read or write of a shared attribute."""

    key: AttrKey
    kind: str  # "read" | "write"
    path: str
    line: int


@dataclass
class EffectAnalysis:
    """Per-function lexical read/write sets and transitive write sets."""

    #: function qualname -> keys it lexically reads / writes
    own_reads: Dict[str, Set[AttrKey]] = field(default_factory=dict)
    own_writes: Dict[str, Set[AttrKey]] = field(default_factory=dict)
    #: per-function access sites, source order
    sites: Dict[str, List[AccessSite]] = field(default_factory=dict)
    #: synchronous call edges (spawn + ``__init__`` edges removed)
    sync_edges: Dict[str, Set[str]] = field(default_factory=dict)
    #: process roots: generator qualnames handed to env.process()/Process()
    roots: Set[str] = field(default_factory=set)
    #: functions reachable from any root over sync edges (roots included)
    process_connected: Set[str] = field(default_factory=set)
    #: transitive write sets over sync edges
    closure_writes: Dict[str, Set[AttrKey]] = field(default_factory=dict)


def _param_types(fn: FunctionInfo, graph: CallGraph) -> Dict[str, str]:
    """Parameter name -> class qualname, via unique-name annotation match."""
    out: Dict[str, str] = {}
    args = getattr(fn.node, "args", None)
    if args is None:
        return out
    for arg in args.posonlyargs + args.args + args.kwonlyargs:
        name = _annotation_name(arg.annotation)
        if name is None:
            continue
        quals = graph.class_by_name.get(name, [])
        if len(quals) == 1:
            out[arg.arg] = quals[0]
    return out


def _own_class(fn: FunctionInfo, graph: CallGraph) -> Optional[str]:
    if fn.class_name is None:
        return None
    qual = fn.qualname.rsplit(".", 1)[0]
    return qual if qual in graph.classes else None


def _attr_key(expr: ast.Attribute, fn: FunctionInfo, graph: CallGraph,
              ptypes: Dict[str, str]) -> Optional[AttrKey]:
    """Resolve ``<base>.<attr>`` to a ``(class, attr)`` key, or None.

    Handles ``self.x`` (the enclosing class), annotated-parameter bases
    (``shared.x`` where ``shared: Shared``), and one typed hop through a
    ``self`` attribute (``self.cache.x`` via the inferred attr types).
    """
    base = expr.value
    cls: Optional[str] = None
    if isinstance(base, ast.Name):
        if base.id == "self":
            cls = _own_class(fn, graph)
        else:
            cls = ptypes.get(base.id)
    elif isinstance(base, ast.Attribute) and isinstance(base.value, ast.Name) \
            and base.value.id == "self":
        own = _own_class(fn, graph)
        if own is not None:
            cls = graph.classes[own].attr_types.get(base.attr)
    if cls is None or cls not in graph.classes:
        return None
    return (cls, expr.attr)


def _own_nodes(func_node: ast.AST) -> Iterator[ast.AST]:
    stack = list(getattr(func_node, "body", []))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _collect_accesses(fn: FunctionInfo, graph: CallGraph) -> List[AccessSite]:
    """All lexical shared-attribute reads and writes in one function."""
    ptypes = _param_types(fn, graph)
    sites: List[AccessSite] = []

    def add(key: Optional[AttrKey], kind: str, node: ast.AST) -> None:
        if key is None:
            return
        sites.append(AccessSite(key=key, kind=kind, path=fn.path,
                                line=getattr(node, "lineno", 0)))

    for node in _own_nodes(fn.node):
        if isinstance(node, ast.Attribute):
            if isinstance(node.ctx, ast.Store):
                add(_attr_key(node, fn, graph, ptypes), "write", node)
            elif isinstance(node.ctx, ast.Load):
                parent = getattr(node, "_cg_parent", None)
                # ``self.s.add(x)`` / ``self.d[k] = v``: the Load of the
                # attribute is really an in-place mutation of its value.
                if isinstance(parent, ast.Attribute) \
                        and parent.value is node \
                        and isinstance(getattr(parent, "_cg_parent", None),
                                       ast.Call) \
                        and parent._cg_parent.func is parent \
                        and parent.attr in _MUTATORS:  # type: ignore[attr-defined]
                    add(_attr_key(node, fn, graph, ptypes), "write", node)
                    continue
                if isinstance(parent, ast.Subscript) \
                        and parent.value is node \
                        and isinstance(parent.ctx, (ast.Store, ast.Del)):
                    add(_attr_key(node, fn, graph, ptypes), "write", node)
                    continue
                add(_attr_key(node, fn, graph, ptypes), "read", node)
        elif isinstance(node, ast.AugAssign) \
                and isinstance(node.target, ast.Attribute):
            # ``self.x += 1``: read and write, atomic within one callback
            key = _attr_key(node.target, fn, graph, ptypes)
            add(key, "read", node)
            add(key, "write", node)
    sites.sort(key=lambda s: s.line)
    return sites


def _spawn_parent(node: ast.AST) -> Optional[ast.Call]:
    """The ``.process(...)``/``Process(...)`` call this node is an
    argument of, if any (climbing through keyword/starred wrappers)."""
    parent = getattr(node, "_cg_parent", None)
    while isinstance(parent, (ast.keyword, ast.Starred)):
        parent = getattr(parent, "_cg_parent", None)
    if not isinstance(parent, ast.Call) or parent.func is node:
        return None
    func = parent.func
    if isinstance(func, ast.Attribute) and func.attr == "process":
        return parent
    if isinstance(func, ast.Name) and func.id == "Process":
        return parent
    return None


def compute_effects(graph: CallGraph) -> EffectAnalysis:
    """Lexical effects, spawn/sync edge split, roots, and closures."""
    eff = EffectAnalysis()
    for qual, fn in graph.functions.items():
        sites = _collect_accesses(fn, graph)
        eff.sites[qual] = sites
        eff.own_reads[qual] = {s.key for s in sites if s.kind == "read"}
        eff.own_writes[qual] = {s.key for s in sites if s.kind == "write"}

    for site in graph.call_sites:
        callee = graph.functions.get(site.callee)
        if callee is None:
            continue
        if callee.is_generator and _spawn_parent(site.node) is not None:
            eff.roots.add(site.callee)
            continue  # concurrency edge: no synchronous propagation
        if site.callee.endswith(".__init__"):
            # constructor writes initialise a *fresh* object; they are not
            # mutations of state shared with other processes
            continue
        eff.sync_edges.setdefault(site.caller, set()).add(site.callee)

    # reachability from roots over sync edges
    seen: Set[str] = set(eff.roots)
    frontier = list(eff.roots)
    while frontier:
        nxt: List[str] = []
        for qual in frontier:
            for callee in eff.sync_edges.get(qual, ()):
                if callee not in seen:
                    seen.add(callee)
                    nxt.append(callee)
        frontier = nxt
    eff.process_connected = seen

    # transitive write closures (fixpoint; sets only grow)
    eff.closure_writes = {q: set(w) for q, w in eff.own_writes.items()}
    changed = True
    while changed:
        changed = False
        for caller, callees in eff.sync_edges.items():
            writes = eff.closure_writes.setdefault(caller, set())
            for callee in callees:
                src = eff.closure_writes.get(callee)
                if src and not src <= writes:
                    writes |= src
                    changed = True
    return eff


# ---------------------------------------------------------------------------
# rules


def _key_label(key: AttrKey) -> str:
    cls, attr = key
    return f"{cls.rsplit('.', 1)[-1]}.{attr}"


def _writer_generators(eff: EffectAnalysis, graph: CallGraph
                       ) -> Dict[AttrKey, List[Tuple[str, AccessSite]]]:
    """key -> [(generator qualname, first write site)] for every
    process-connected generator that writes the key *lexically*."""
    out: Dict[AttrKey, List[Tuple[str, AccessSite]]] = {}
    for qual in sorted(eff.process_connected):
        fn = graph.functions.get(qual)
        if fn is None or not fn.is_generator:
            continue
        first: Dict[AttrKey, AccessSite] = {}
        for site in eff.sites.get(qual, []):
            if site.kind == "write" and site.key not in first:
                first[site.key] = site
        for key, site in first.items():
            out.setdefault(key, []).append((qual, site))
    return out


def _rep014_findings(eff: EffectAnalysis, graph: CallGraph,
                     writers: Dict[AttrKey, List[Tuple[str, AccessSite]]]
                     ) -> List[Finding]:
    findings: List[Finding] = []
    for key in sorted(writers):
        entries = writers[key]
        if len({q for q, _ in entries}) < 2:
            continue
        entries = sorted(entries, key=lambda e: (e[1].path, e[1].line))
        head = entries[0][1]
        others = ", ".join(
            f"{q.rsplit('.', 1)[-1]}() at {os.path.basename(s.path)}:{s.line}"
            for q, s in entries)
        findings.append(Finding(
            rule="REP014", severity=RULES["REP014"].severity,
            path=head.path, line=head.line, col=0,
            message=(f"attribute '{_key_label(key)}' is written by "
                     f"{len(entries)} distinct process generators with no "
                     f"ordering edge ({others}): the final value depends on "
                     "same-instant tie-break order"),
        ))
    return findings


@dataclass(frozen=True)
class _TornRMW:
    key: AttrKey
    read_line: int
    yield_line: int
    write_line: int
    local: str


def _torn_rmws(fn: FunctionInfo, graph: CallGraph) -> List[_TornRMW]:
    """``v = <shared>; ... yield ...; <shared> = f(v)`` patterns."""
    ptypes = _param_types(fn, graph)
    binds: List[Tuple[str, AttrKey, int]] = []  # (local, key, line)
    yields: List[int] = []
    writes: List[Tuple[AttrKey, int, Set[str]]] = []  # (key, line, names read)
    for node in _own_nodes(fn.node):
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            yields.append(getattr(node, "lineno", 0))
        elif isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
            if isinstance(target, ast.Name):
                for sub in ast.walk(value):
                    if isinstance(sub, ast.Attribute) \
                            and isinstance(sub.ctx, ast.Load):
                        key = _attr_key(sub, fn, graph, ptypes)
                        if key is not None:
                            binds.append((target.id, key, node.lineno))
            elif isinstance(target, ast.Attribute):
                key = _attr_key(target, fn, graph, ptypes)
                if key is not None:
                    names = {n.id for n in ast.walk(value)
                             if isinstance(n, ast.Name)
                             and isinstance(n.ctx, ast.Load)}
                    writes.append((key, node.lineno, names))
    out: List[_TornRMW] = []
    for key, wline, names in writes:
        for local, bkey, bline in binds:
            if bkey != key or local not in names or bline >= wline:
                continue
            torn = next((y for y in yields if bline < y <= wline), None)
            if torn is not None:
                out.append(_TornRMW(key=key, read_line=bline,
                                    yield_line=torn, write_line=wline,
                                    local=local))
                break
    return out


def _rep015_findings(eff: EffectAnalysis, graph: CallGraph,
                     writers: Dict[AttrKey, List[Tuple[str, AccessSite]]]
                     ) -> List[Finding]:
    findings: List[Finding] = []
    for qual in sorted(eff.process_connected):
        fn = graph.functions.get(qual)
        if fn is None or not fn.is_generator:
            continue
        for rmw in _torn_rmws(fn, graph):
            # only *shared* state can be interleaved: some other generator
            # must touch the key lexically, or another root's closure
            # must write it
            shared = any(
                q != qual and (rmw.key in eff.own_reads.get(q, set())
                               or rmw.key in eff.own_writes.get(q, set()))
                for q in eff.process_connected
                if graph.functions.get(q) is not None
                and graph.functions[q].is_generator
            ) or any(
                rmw.key in eff.closure_writes.get(root, set())
                for root in eff.roots
                if qual not in ({root} | eff.sync_edges.get(root, set()))
                and qual not in _closure_funcs(eff, root)
            )
            if not shared:
                continue
            findings.append(Finding(
                rule="REP015", severity=RULES["REP015"].severity,
                path=fn.path, line=rmw.write_line, col=0,
                message=(f"read-modify-write of '{_key_label(rmw.key)}' is "
                         f"torn across the yield at line {rmw.yield_line}: "
                         f"'{rmw.local}' read at line {rmw.read_line} is "
                         "stale when written back — another same-instant "
                         "process can interleave and its update is lost"),
            ))
    return findings


def _closure_funcs(eff: EffectAnalysis, start: str) -> Set[str]:
    seen = {start}
    frontier = [start]
    while frontier:
        nxt: List[str] = []
        for qual in frontier:
            for callee in eff.sync_edges.get(qual, ()):
                if callee not in seen:
                    seen.add(callee)
                    nxt.append(callee)
        frontier = nxt
    return seen


@dataclass
class RaceAnalysis:
    """Effects, findings, and a JSON summary."""

    effects: EffectAnalysis
    findings: List[Finding]
    #: key -> writer generator qualnames (the REP014 evidence)
    shared_writes: Dict[AttrKey, Tuple[str, ...]]

    def to_dict(self) -> dict:
        return {
            "roots": len(self.effects.roots),
            "process_connected": len(self.effects.process_connected),
            "shared_writes": {
                _key_label(k): list(v)
                for k, v in sorted(self.shared_writes.items())
            },
            "rep014": sum(1 for f in self.findings if f.rule == "REP014"),
            "rep015": sum(1 for f in self.findings if f.rule == "REP015"),
        }


def analyze_races(graph: CallGraph) -> RaceAnalysis:
    """Effect analysis + REP014/REP015 findings."""
    eff = compute_effects(graph)
    writers = _writer_generators(eff, graph)
    findings = _rep014_findings(eff, graph, writers)
    findings.extend(_rep015_findings(eff, graph, writers))
    shared = {
        key: tuple(sorted({q for q, _ in entries}))
        for key, entries in writers.items()
        if len({q for q, _ in entries}) >= 2
    }
    return RaceAnalysis(effects=eff, findings=findings, shared_writes=shared)
