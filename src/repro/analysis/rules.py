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
    #: True if the rule only applies to simulation-reachable code
    #: (sim/press/ha/net/faults/workload/hardware/bookstore/auction).
    sim_only: bool = False
    #: True if the rule needs the whole-program call graph
    #: (:mod:`repro.analysis.flow`); these only fire under ``lint --flow``.
    flow: bool = False


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
                # The parallel executor is reachable from sim scope via
                # Sweep.run(jobs=N)'s call edge, but its wall-clock reads
                # time the *real* worker processes (speedup accounting)
                # and its one os.environ read is the worker-bootstrap
                # PYTHONHASHSEED pin check — neither touches simulated
                # time or per-run results.
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
                # Workload seed plumbing: these take an explicit derived
                # seed at the boundary and own no simulation state.
                "workload/stats.py",
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
            id="REP008",
            name="unhandled-kind",
            severity=Severity.ERROR,
            summary="message kind sent but matched by no receiver branch",
            rationale=(
                "A Message(kind=...) with no handler branch anywhere is "
                "silently dropped at dispatch — indistinguishable from a "
                "real network fault, so it corrupts the availability "
                "numbers instead of failing loudly.  This is exactly the "
                "implicit-cooperation failure mode the paper measures."
            ),
            flow=True,
        ),
        Rule(
            id="REP009",
            name="dead-handler",
            severity=Severity.WARNING,
            summary="handler branch for a kind that is never sent",
            rationale=(
                "A dispatch branch comparing against a kind no sender "
                "constructs is dead protocol: either the sender was "
                "removed and the branch should go, or the kind string is "
                "misspelled on one side."
            ),
            flow=True,
        ),
        Rule(
            id="REP010",
            name="undispatched-droppable",
            severity=Severity.ERROR,
            summary="kind declared droppable but absent from any dispatch branch",
            rationale=(
                "Droppable kinds may be shed under overload, but they "
                "must still have a real handler for the normal path.  A "
                "droppable kind with no dispatch branch is *always* "
                "dropped, which under-counts the work the protocol was "
                "meant to do."
            ),
            flow=True,
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
                "reads as if it did.  The scheduler cannot detect this; "
                "only whole-program analysis can."
            ),
            flow=True,
        ),
        Rule(
            id="REP012",
            name="orphan-event",
            severity=Severity.WARNING,
            summary="Event created but never yielded, succeeded, or referenced",
            rationale=(
                "An Event that is constructed and never used again can "
                "never fire its callbacks or wake a waiter — usually a "
                "refactoring leftover where the succeed()/yield moved "
                "but the construction stayed."
            ),
            flow=True,
        ),
        Rule(
            id="REP013",
            name="trace-context-loss",
            severity=Severity.ERROR,
            summary="message built or process spawned without trace context "
                    "in span-aware code",
            rationale=(
                "Causal tracing threads a ctx through every hop of a "
                "request's path.  Code that already handles spans (takes a "
                "ctx parameter or opens spans) but constructs a Message or "
                "spawns an env.process without passing ctx= silently cuts "
                "the trace: downstream spans re-root or vanish, and the "
                "critical-path / blame reports under-attribute that hop. "
                "Pass ctx=... explicitly (ctx=None is fine for genuinely "
                "untraced traffic)."
            ),
            sim_only=True,
        ),
        Rule(
            id="REP014",
            name="unordered-shared-write",
            severity=Severity.WARNING,
            summary="attribute written by two process generators with no "
                    "ordering edge",
            rationale=(
                "Two distinct process generators that both write the same "
                "attribute of the same class race whenever they run at the "
                "same instant: the kernel's FIFO tie-break is a convention, "
                "not a causal ordering, so the final value silently depends "
                "on schedule order — and flips under any scheduler refactor "
                "or overlapping-fault campaign.  Order the writers with an "
                "explicit event/priority edge, or make the state per-process."
            ),
            sim_only=True,
            flow=True,
        ),
        Rule(
            id="REP015",
            name="torn-read-modify-write",
            severity=Severity.ERROR,
            summary="read-modify-write of shared state torn across a yield",
            rationale=(
                "A generator that reads shared state into a local, yields, "
                "and writes the modified local back has a lost-update race: "
                "another same-instant process can interleave at the yield, "
                "and its update is overwritten by the stale value.  Re-read "
                "after the yield, or do the whole read-modify-write "
                "synchronously (DES callbacks are atomic between yields)."
            ),
            sim_only=True,
            flow=True,
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

#: Top-level package directories whose code runs inside the simulation.
SIM_SCOPE_DIRS = frozenset(
    {
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
