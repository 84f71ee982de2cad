"""The reprolint rule registry: IDs, severities, and documentation.

Each rule guards one way the measurement pipeline can silently lose its
integrity.  The engine (:mod:`repro.analysis.lint`) implements the
detection; this module is the single source of truth for what each rule
means, so the reporters, the docs, and ``repro lint --list-rules`` never
drift apart.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Tuple


class Severity(enum.Enum):
    """Finding severity.  ``ERROR`` findings fail the lint gate."""

    ERROR = "error"
    WARNING = "warning"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Rule:
    """One reprolint rule."""

    id: str
    name: str
    severity: Severity
    summary: str
    rationale: str
    #: repo-relative path suffixes exempt from this rule (e.g. the RNG
    #: factory itself is the one legitimate ``default_rng`` call site).
    allowlist: Tuple[str, ...] = field(default=())
    #: True if the rule only applies to simulation-reachable code (a
    #: module under one of :data:`SIM_SCOPE_DIRS`).
    sim_only: bool = False


RULES: Dict[str, Rule] = {
    r.id: r
    for r in (
        Rule(
            id="REP001",
            name="no-wallclock",
            severity=Severity.ERROR,
            summary="wall-clock call in simulation-reachable code",
            rationale=(
                "Simulated components must read time from Environment.now. "
                "A time.time()/datetime.now() call couples results to the "
                "host clock, so two runs of the same seed diverge and the "
                "fitted stage boundaries stop being reproducible."
            ),
            allowlist=(
                # The parallel executor's wall-clock reads time the
                # *real* worker processes (speedup accounting) — they
                # never touch simulated time or per-run results.
                "parallel/executor.py",
                "parallel/worker.py",
                # These time the *host*: TimingProfiler brackets callback
                # batches with perf_counter, and provenance stamps record
                # a timestamp.  Neither flows into simulated time or any
                # fingerprinted stream (`sanitize --vary obs` pins that).
                "obs/kernelprof.py",
                "obs/perf.py",
            ),
            sim_only=True,
        ),
        Rule(
            id="REP002",
            name="unregistered-rng",
            severity=Severity.ERROR,
            summary="RNG not drawn from RngRegistry.stream()",
            rationale=(
                "Every stochastic element draws from a named stream so that "
                "adding a consumer never perturbs the draws of existing "
                "ones.  The global random module or an ad-hoc "
                "default_rng() silently breaks that isolation and the "
                "cross-version comparisons with it."
            ),
            allowlist=(
                "sim/rng.py",  # the registry itself
                # Workload seed plumbing: takes an explicit derived seed
                # at the boundary and owns no simulation state.
                "workload/tracefile.py",
            ),
            sim_only=True,
        ),
        Rule(
            id="REP003",
            name="swallowed-exception",
            severity=Severity.ERROR,
            summary="bare/broad except that discards the exception",
            rationale=(
                "Fault-handling code that catches everything and drops it "
                "converts injected faults into silent no-ops; the campaign "
                "then under-counts unavailability.  Catch the narrow "
                "exception, or use the bound name / re-raise."
            ),
        ),
        Rule(
            id="REP004",
            name="unsafe-trace-payload",
            severity=Severity.ERROR,
            summary="trace/marker payload with unordered or identity-based value",
            rationale=(
                "Trace events are digested for determinism checks and "
                "replayed from JSON; a raw set (iteration order) or id()- "
                "derived value in the payload makes equal runs hash "
                "differently.  Pass sorted() lists or plain literals."
            ),
        ),
        Rule(
            id="REP005",
            name="unordered-iteration",
            severity=Severity.ERROR,
            summary="iteration over an unordered set in an effectful loop",
            rationale=(
                "A loop over a set that sends messages, schedules events, "
                "or mutates membership makes event order depend on hash "
                "iteration order.  Iterate sorted(...) so delivery order "
                "is a function of the seed alone."
            ),
            sim_only=True,
        ),
        Rule(
            id="REP006",
            name="mutable-default-arg",
            severity=Severity.ERROR,
            summary="mutable default argument",
            rationale=(
                "A shared mutable default leaks state between worlds built "
                "in the same process; campaign N's results then depend on "
                "campaigns 1..N-1 having run."
            ),
        ),
        Rule(
            id="REP007",
            name="suspicious-delay",
            severity=Severity.WARNING,
            summary="negative or literal-zero schedule()/timeout() delay",
            rationale=(
                "Negative delays raise at runtime deep inside a campaign; "
                "literal-zero delays schedule same-instant events whose "
                "relative order is easy to get wrong — make the intended "
                "ordering explicit (priority or a real delay)."
            ),
            sim_only=True,
        ),
        Rule(
            id="REP011",
            name="lost-generator",
            severity=Severity.ERROR,
            summary="generator function called as a bare statement",
            rationale=(
                "Calling a sim-process generator without yield from / "
                "env.process(...) creates the generator object and throws "
                "it away: the protocol step never executes, yet the code "
                "reads as if it did, and the scheduler cannot detect it.  "
                "Only generators defined in the same module are seen: a "
                "module-level one called by name, or a method of the "
                "enclosing class called through self."
            ),
        ),
        Rule(
            id="REP013",
            name="trace-context-loss",
            severity=Severity.ERROR,
            summary="message built without trace context in span-aware code",
            rationale=(
                "Causal tracing threads a ctx through every hop of a "
                "request's path, and a message is the only carrier that "
                "crosses nodes.  Code that already handles spans (takes a "
                "ctx parameter or opens spans) but constructs a Message "
                "without passing ctx= silently cuts the trace: downstream "
                "spans vanish, and the critical-path / blame reports "
                "under-attribute that hop.  Pass ctx=... explicitly "
                "(ctx=None is fine for genuinely untraced traffic)."
            ),
            sim_only=True,
        ),
        Rule(
            id="REP016",
            name="unused-suppression",
            severity=Severity.WARNING,
            summary="# reprolint: disable= comment suppresses nothing",
            rationale=(
                "A suppression that no longer matches any finding is stale "
                "documentation: the violation it justified was fixed or "
                "moved, and the comment now silently licenses a future "
                "regression on that line.  Delete it (or fix the rule id "
                "if it was misspelled)."
            ),
        ),
    )
}

#: Top-level package directories whose code runs inside the simulation,
#: or is called from it: ``core/`` drives campaigns, ``obs/`` records
#: from inside simulated components, ``parallel/`` runs the cells.
SIM_SCOPE_DIRS = frozenset(
    {
        "core",
        "obs",
        "parallel",
        "sim",
        "press",
        "ha",
        "net",
        "faults",
        "workload",
        "hardware",
        "bookstore",
        "auction",
        "experiments",
    }
)
