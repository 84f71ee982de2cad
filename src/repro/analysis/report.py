"""Reporters for reprolint results: human text and machine JSON."""

from __future__ import annotations

import json
from typing import IO, Optional

from repro.analysis.lint import LintResult
from repro.analysis.rules import RULES

#: layout version of the JSON document
REPORT_SCHEMA_VERSION = 4


def render_text(result: LintResult, verbose: bool = False) -> str:
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
    return "\n".join(lines)


def render_json(result: LintResult) -> dict:
    """Stable JSON document (uploaded as a CI artifact)."""
    return {
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


def write_json(result: LintResult, fp: IO[str]) -> None:
    json.dump(render_json(result), fp, indent=2, sort_keys=True)
    fp.write("\n")


def render_rules(rule_id: Optional[str] = None) -> str:
    """``repro lint --list-rules`` output: the registry, documented."""
    lines = []
    for rid in sorted(RULES):
        if rule_id is not None and rid != rule_id:
            continue
        rule = RULES[rid]
        scope = "sim-reachable code" if rule.sim_only else "all code"
        lines.append(f"{rule.id} {rule.name} [{rule.severity}] ({scope})")
        lines.append(f"    {rule.summary}")
        lines.append(f"    {rule.rationale}")
        if rule.allowlist:
            lines.append(f"    allowlisted: {', '.join(rule.allowlist)}")
    return "\n".join(lines)
