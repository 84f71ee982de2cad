"""Reporters for reprolint results: human text and machine JSON."""

from __future__ import annotations

import json
from typing import IO, Optional

from repro.analysis.flow import FlowResult
from repro.analysis.lint import LintResult
from repro.analysis.rules import RULES

#: layout version of the JSON document
REPORT_SCHEMA_VERSION = 4


def render_text(result: LintResult, verbose: bool = False,
                flow: Optional[FlowResult] = None) -> str:
    """One line per finding plus a summary, pyflakes-style."""
    lines = [str(f) for f in result.findings]
    if verbose:
        for f in result.findings:
            rule = RULES[f.rule]
            lines.append(f"    {rule.name}: {rule.rationale}")
    counts = result.counts()
    by_rule = ", ".join(f"{rid}:{n}" for rid, n in sorted(counts.items()))
    lines.append(
        f"{len(result.errors)} error(s), {len(result.warnings)} warning(s) "
        f"in {result.files_scanned} file(s)"
        + (f" [{by_rule}]" if by_rule else "")
        + (f"; {result.suppressed} suppressed" if result.suppressed else "")
    )
    if flow is not None:
        lines.append(
            f"flow: {len(flow.sim_reachable)} sim-reachable function(s) from "
            f"{len(flow.sim_seeds)} seed(s); "
            f"{len(flow.newly_covered)} beyond the path heuristic; "
            f"{len(flow.sent)} kind(s) sent, {len(flow.handled)} handled, "
            f"{flow.dynamic_sends} dynamic send(s)"
        )
        if verbose and flow.newly_covered:
            lines.append("flow: newly covered by propagation:")
            lines.extend(f"    {qual}" for qual in flow.newly_covered)
    return "\n".join(lines)


def render_json(result: LintResult, flow: Optional[FlowResult] = None) -> dict:
    """Stable JSON document (uploaded as a CI artifact)."""
    doc = {
        "schema": REPORT_SCHEMA_VERSION,
        "ok": result.ok,
        "files_scanned": result.files_scanned,
        "errors": len(result.errors),
        "warnings": len(result.warnings),
        "suppressed": result.suppressed,
        "counts": result.counts(),
        "findings": [f.to_dict() for f in result.findings],
        "suppression_audit": {
            "declared": sum(len(ids) for by_line in
                            result.declared_suppressions.values()
                            for ids in by_line.values()),
            "unused": sum(1 for f in result.findings if f.rule == "REP016"),
        },
    }
    if flow is not None:
        doc["flow"] = flow.to_dict()
    return doc


def write_json(result: LintResult, fp: IO[str],
               flow: Optional[FlowResult] = None) -> None:
    json.dump(render_json(result, flow), fp, indent=2, sort_keys=True)
    fp.write("\n")


def render_rules(rule_id: Optional[str] = None) -> str:
    """``repro lint --list-rules`` output: the registry, documented."""
    lines = []
    for rid in sorted(RULES):
        if rule_id is not None and rid != rule_id:
            continue
        rule = RULES[rid]
        scope = "sim-reachable code" if rule.sim_only else "all code"
        if rule.flow:
            scope += ", --flow only"
        lines.append(f"{rule.id} {rule.name} [{rule.severity}] ({scope})")
        lines.append(f"    {rule.summary}")
        lines.append(f"    {rule.rationale}")
        if rule.allowlist:
            lines.append(f"    allowlisted: {', '.join(rule.allowlist)}")
    return "\n".join(lines)
