"""Docs cross-reference checker (``repro lint --docs``).

Documentation rots faster than code: a renamed file, a retired CLI
subcommand, or a renumbered lint rule silently turns README examples
into lies.  This pass makes the docs layer self-verifying — every
*checkable* reference in the markdown corpus (``README.md``, ``ARTIFACTS.md``,
``DESIGN.md``, ``EXPERIMENTS.md``, ``docs/*.md``) is resolved against the tree:

* **file paths** in inline code spans, fenced command lines, and
  markdown link targets must exist — resolved against the repo root,
  the referencing document's directory, and ``src``/``src/repro`` (so
  ``press/server.py`` and ``src/repro/press/server.py`` both resolve;
  a pytest id ``path::test`` resolves its path).
  Paths under ``results/`` are generated at run time and are skipped;
  placeholder tokens (``<version>``, globs, ``$VAR``) are skipped.
* **CLI subcommands** — ``repro X`` / ``python -m repro X`` — must be
  registered in :func:`repro.cli.build_parser`.
* **make targets** — ``make X`` — must exist in the ``Makefile``.
* **``BENCH_*.json`` documents** must exist under ``benchmarks/``
  (unless explicitly referenced under ``results/``, where bench runs
  write their regenerated copies).
* **rule ids** (``REP001``...) must exist in the reprolint registry.

Findings are errors: a stale reference either gets fixed or the doc
gets corrected.  CI runs this as a blocking job, and the
``docs-check`` artifact in ``repro reproduce-all`` records the report
in the manifest.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

#: documents scanned by default (relative to the repo root)
DOC_GLOBS: Tuple[str, ...] = ("README.md", "ARTIFACTS.md", "DESIGN.md",
                              "EXPERIMENTS.md", "docs/*.md")

#: report layout version (the ``docs-check`` artifact)
DOCCHECK_SCHEMA = 1

_INLINE_CODE = re.compile(r"`([^`\n]+)`")
_LINK_TARGET = re.compile(r"\[[^\]]*\]\(([^)\s#]+)[^)]*\)")
_FENCE = re.compile(r"^\s*(```|~~~)")
_CLI = re.compile(
    r"(?<!from )(?:python3? -m repro|(?<![\w./`-])repro)"
    r"\s+(?:--?[\w-]+\s+)*([a-z][a-z0-9-]*)")
_MAKE = re.compile(r"(?<![\w./-])make\s+([a-z][A-Za-z0-9_-]+)")
_BENCH = re.compile(r"\bBENCH_[A-Za-z_]+\.json\b")
_RULE_ID = re.compile(r"\bREP\d{3}\b")
_PATHLIKE = re.compile(r"^[\w.\-]+(?:/[\w.\-]+)+/?$|^[\w.\-]+/$")

#: extensions a bare token must carry to be treated as a file reference
_FILE_EXTENSIONS = (".py", ".md", ".json", ".jsonl", ".yml", ".yaml",
                    ".toml", ".cff", ".sh", ".txt", ".csv", ".ini", ".cfg")

#: tokens containing any of these are templates/globs, not references
_PLACEHOLDER_CHARS = ("<", ">", "*", "{", "}", "$", "|")


@dataclass(frozen=True)
class DocFinding:
    """One stale reference."""

    doc: str
    line: int
    category: str  # path | cli | make | bench | rule | link
    token: str
    message: str

    def to_dict(self) -> Dict[str, object]:
        return {"doc": self.doc, "line": self.line,
                "category": self.category,
                "token": self.token, "message": self.message}


@dataclass
class DocCheckResult:
    """Outcome of one docs sweep."""

    docs_scanned: int = 0
    refs_checked: int = 0
    findings: List[DocFinding] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": DOCCHECK_SCHEMA,
            "ok": self.ok,
            "docs_scanned": self.docs_scanned,
            "refs_checked": self.refs_checked,
            "findings": [f.to_dict() for f in sorted(
                self.findings, key=lambda f: (f.doc, f.line, f.token))],
        }


def _make_targets(root: Path) -> Set[str]:
    makefile = root / "Makefile"
    targets: Set[str] = set()
    if not makefile.exists():
        return targets
    for line in makefile.read_text(encoding="utf-8").splitlines():
        match = re.match(r"^([A-Za-z][\w-]*)\s*:", line)
        if match:
            targets.add(match.group(1))
    return targets


def _cli_subcommands() -> Set[str]:
    import argparse

    from repro.cli import build_parser

    parser = build_parser()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return {str(choice) for choice in action.choices or ()}
    return set()


def _rule_ids() -> Set[str]:
    from repro.analysis.rules import RULES

    return set(RULES)


def _iter_reference_lines(text: str) -> Iterator[Tuple[int, str, bool]]:
    """(line number, text to scan, in_fence) for every line; inline code
    spans are extracted outside fences, whole lines inside fences."""
    in_fence = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        if _FENCE.match(line):
            in_fence = not in_fence
            continue
        yield lineno, line, in_fence


def _is_pathlike(token: str) -> bool:
    if any(ch in token for ch in _PLACEHOLDER_CHARS) or "://" in token:
        return False
    if not _PATHLIKE.match(token):
        return False
    return token.endswith("/") or token.endswith(_FILE_EXTENSIONS)


def _resolve(token: str, root: Path, doc_dir: Path) -> bool:
    candidates = (root / token, doc_dir / token,
                  root / "src" / token, root / "src" / "repro" / token)
    return any(c.exists() for c in candidates)


class _DocScanner:
    """One sweep over one markdown document."""

    def __init__(self, root: Path, doc: Path, subcommands: Set[str],
                 targets: Set[str], rules: Set[str],
                 result: DocCheckResult) -> None:
        self.root = root
        self.doc = doc
        self.rel = str(doc.relative_to(root))
        self.subcommands = subcommands
        self.targets = targets
        self.rules = rules
        self.result = result

    def _finding(self, line: int, category: str, token: str,
                 message: str) -> None:
        self.result.findings.append(DocFinding(
            doc=self.rel, line=line, category=category, token=token,
            message=message))

    def _check_path(self, line: int, token: str,
                    category: str = "path") -> None:
        token = token.split("::")[0].rstrip(".,;:")
        if not _is_pathlike(token):
            return
        if token.startswith("results/") or token.startswith("/"):
            return  # run-time outputs / absolute paths are not committed
        self.result.refs_checked += 1
        if not _resolve(token, self.root, self.doc.parent):
            self._finding(line, category, token,
                          f"referenced path {token!r} does not exist")

    def _check_commands(self, line: int, text: str) -> None:
        for match in _CLI.finditer(text):
            sub = match.group(1)
            self.result.refs_checked += 1
            if sub not in self.subcommands:
                self._finding(line, "cli", sub,
                              f"`repro {sub}` is not a CLI subcommand "
                              f"(have: {', '.join(sorted(self.subcommands))})")
        for match in _MAKE.finditer(text):
            target = match.group(1)
            self.result.refs_checked += 1
            if target not in self.targets:
                self._finding(line, "make", target,
                              f"`make {target}` is not a Makefile target")

    def _check_identifiers(self, line: int, text: str) -> None:
        """Bench documents and rule ids are unambiguous patterns —
        checked everywhere, prose included."""
        for match in _BENCH.finditer(text):
            name = match.group(0)
            # results/BENCH_*.json are regenerated copies; the committed
            # twin must still exist under benchmarks/
            self.result.refs_checked += 1
            if not (self.root / "benchmarks" / name).exists():
                self._finding(line, "bench", name,
                              f"{name} does not exist under benchmarks/")
        for match in _RULE_ID.finditer(text):
            rule = match.group(0)
            self.result.refs_checked += 1
            if rule not in self.rules:
                self._finding(line, "rule", rule,
                              f"{rule} is not a registered lint rule")

    def scan(self) -> None:
        text = self.doc.read_text(encoding="utf-8")
        for lineno, line, in_fence in _iter_reference_lines(text):
            self._check_identifiers(lineno, line)
            if in_fence:
                self._check_commands(lineno, line)
                for word in line.split():
                    self._check_path(lineno, word)
                continue
            for match in _LINK_TARGET.finditer(line):
                target = match.group(1)
                if "://" in target or target.startswith("mailto:"):
                    continue
                self.result.refs_checked += 1
                if not _resolve(target, self.root, self.doc.parent):
                    self._finding(lineno, "link", target,
                                  f"link target {target!r} does not exist")
            for match in _INLINE_CODE.finditer(line):
                span = match.group(1)
                self._check_commands(lineno, span)
                if " " not in span:
                    self._check_path(lineno, span)


def default_docs(root: Path) -> List[Path]:
    docs: List[Path] = []
    for pattern in DOC_GLOBS:
        docs.extend(sorted(root.glob(pattern)))
    return [d for d in docs if d.is_file()]


def check_docs(root: str = ".",
               docs: Optional[Sequence[str]] = None) -> DocCheckResult:
    """Sweep the markdown corpus; every finding is a stale reference."""
    root_path = Path(root).resolve()
    doc_paths = ([root_path / d for d in docs] if docs
                 else default_docs(root_path))
    result = DocCheckResult()
    subcommands = _cli_subcommands()
    targets = _make_targets(root_path)
    rules = _rule_ids()
    for doc in doc_paths:
        if not doc.exists():
            result.findings.append(DocFinding(
                doc=str(doc), line=0, category="path", token=str(doc),
                message=f"document {doc} does not exist"))
            continue
        result.docs_scanned += 1
        _DocScanner(root_path, doc, subcommands, targets, rules,
                    result).scan()
    return result


def format_doccheck(result: DocCheckResult) -> str:
    lines = [f"docs check: {result.docs_scanned} document(s), "
             f"{result.refs_checked} reference(s) verified"]
    for f in sorted(result.findings, key=lambda f: (f.doc, f.line, f.token)):
        lines.append(f"  {f.doc}:{f.line}: [{f.category}] {f.message}")
    lines.append("docs check PASSED" if result.ok else
                 f"docs check FAILED ({len(result.findings)} stale "
                 f"reference(s))")
    return "\n".join(lines)
