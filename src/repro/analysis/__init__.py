"""Repo-native static analysis and runtime determinism checking.

The availability numbers this repository produces (AT/AA, the 7-stage
templates, the error budgets) are only evidence if the simulator is
bit-reproducible and the fault-handling code never silently swallows or
reorders events.  This package makes those invariants machine-checked:

``reprolint`` (:mod:`repro.analysis.lint`)
    An AST-based lint pass with repo-specific rules (REP001..REP007,
    REP013) covering wall-clock use, unregistered RNGs, swallowed
    exceptions, unsafe trace payloads, unordered-iteration hazards,
    mutable default arguments, suspicious scheduler delays, and trace
    contexts dropped on the floor in span-aware code.

flow analysis (:mod:`repro.analysis.flow`, :mod:`repro.analysis.callgraph`)
    A whole-program pass over the module/call graph: interprocedural
    sim-scope propagation for REP001/REP002, message-protocol
    consistency (REP008..REP010 — kinds sent but never handled, dead
    handler branches, undispatched droppables), and lost-generator
    detection (REP011..REP012).

differential runner (:mod:`repro.analysis.differential`)
    One run fingerprint, and one runner that repeats a cell under a
    varied hash seed, tie-break order, obs mode or worker pool and
    reports the first divergence from that variant's contract.

All are wired into the CLI as ``repro lint`` (``--flow`` for the
whole-program pass) and ``repro sanitize``.
"""

from repro.analysis.callgraph import CallGraph, build_callgraph
from repro.analysis.flow import FlowResult, analyze_flow
from repro.analysis.lint import Finding, LintResult, lint_paths, lint_source
from repro.analysis.report import render_json, render_text
from repro.analysis.rules import RULES, Rule, Severity

__all__ = [
    "CallGraph",
    "Finding",
    "FlowResult",
    "LintResult",
    "RULES",
    "Rule",
    "Severity",
    "analyze_flow",
    "build_callgraph",
    "lint_paths",
    "lint_source",
    "render_json",
    "render_text",
]
