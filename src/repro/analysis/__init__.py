"""Repo-native static analysis and runtime determinism checking.

The availability numbers this repository produces (AT/AA, the 7-stage
templates, the error budgets) are only evidence if the simulator is
bit-reproducible and the fault-handling code never silently swallows or
reorders events.  This package makes those invariants machine-checked:

``reprolint`` (:mod:`repro.analysis.lint`)
    An AST-based lint pass, one file at a time, with repo-specific rules
    (REP001..REP007, REP011, REP013, REP016) covering wall-clock use,
    unregistered RNGs, swallowed exceptions, unsafe trace payloads,
    unordered-iteration hazards, mutable default arguments, suspicious
    scheduler delays, generators called as bare statements, trace
    contexts dropped on the floor in span-aware code, and stale
    suppression comments.

differential runner (:mod:`repro.analysis.differential`)
    One run fingerprint, and one runner that repeats a cell under a
    varied hash seed, tie-break order, obs mode or worker pool and
    reports the first divergence from that variant's contract.  The
    ``tiebreak`` variant is the race check: a result that depends on
    the same-instant order diverges there.

Guarantees about the message protocol live in the simulator itself:
every dispatcher raises on a kind it has no branch for.  Both checks
are wired into the CLI as ``repro lint`` and ``repro sanitize``.
"""

from repro.analysis.lint import Finding, LintResult, lint_paths, lint_source
from repro.analysis.report import render_json, render_text
from repro.analysis.rules import RULES, Rule, Severity

__all__ = [
    "Finding",
    "LintResult",
    "RULES",
    "Rule",
    "Severity",
    "lint_paths",
    "lint_source",
    "render_json",
    "render_text",
]
