"""``simlint`` — static determinism / hot-path hygiene analysis for
the simulator (layer 1 of the ``simcheck`` tooling; layer 2 is the
runtime sanitizer in :mod:`repro.analysis.sanitizer`).

``lint_paths`` parses each file once and runs two passes over its
tree:

* the per-file checkers (RNG/wallclock hygiene, set iteration, float
  equality, ``__slots__`` hygiene);
* the **numpy hot-path** pass (:mod:`.numpy_checks`) — object
  dtypes, Python loops over arrays in hot-path classes, append in
  loops, float32/float64 mixing on accumulate paths.

Usage::

    from repro.analysis.simlint import lint_paths
    report = lint_paths(["src/repro", "benchmarks", "scripts"])
    for violation in report.violations:
        print(violation.render())

or from the CLI: ``repro lint [--json|--sarif] [--check] [paths ...]``.

See docs/ANALYSIS.md for the rule table (generated from
:data:`~.rules.RULES` by ``scripts/gen_rule_table.py``), suppression
syntax (``# simlint: disable=`` / ``disable-file=``) and the SARIF
export.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Sequence

import ast

from .checkers import (
    Directives,
    Violation,
    check_source,
    collect_comment_directives,
)
from .rules import RULES, RULES_BY_ID, Rule
from .sarif import report_to_sarif

__all__ = [
    "Directives",
    "LintReport",
    "Rule",
    "RULES",
    "RULES_BY_ID",
    "Violation",
    "check_source",
    "collect_comment_directives",
    "lint_file",
    "lint_paths",
    "report_to_sarif",
]


@dataclass
class LintReport:
    """Aggregate result of linting a set of paths."""

    violations: List[Violation] = field(default_factory=list)
    files_checked: int = 0
    parse_errors: List[str] = field(default_factory=list)
    #: Directive problems (unknown rule ids, misplaced disable-file):
    #: surfaced in output, never silently dropped, but advisory — they
    #: do not flip :attr:`ok`.
    warnings: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations and not self.parse_errors

    def counts_by_rule(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for violation in self.violations:
            counts[violation.rule] = counts.get(violation.rule, 0) + 1
        return counts

    def to_dict(self) -> Dict[str, object]:
        return {
            "files_checked": self.files_checked,
            "violations": [v.to_dict() for v in self.violations],
            "counts_by_rule": self.counts_by_rule(),
            "parse_errors": list(self.parse_errors),
            "warnings": list(self.warnings),
            "ok": self.ok,
        }

    def to_sarif(self) -> Dict[str, object]:
        return report_to_sarif(self)

    def render(self, summary_only: bool = False) -> str:
        lines: List[str] = []
        if not summary_only:
            lines.extend(v.render() for v in self.violations)
            lines.extend(self.parse_errors)
        lines.extend(self.warnings)
        counts = self.counts_by_rule()
        if counts:
            breakdown = ", ".join(
                f"{rule}={count}" for rule, count in sorted(counts.items())
            )
            lines.append(
                f"simlint: {len(self.violations)} violation(s) in "
                f"{self.files_checked} file(s) ({breakdown})"
            )
        else:
            lines.append(
                f"simlint: clean — {self.files_checked} file(s), "
                "0 violations"
            )
        return "\n".join(lines)


def _iter_python_files(paths: Sequence[Path]) -> Iterable[Path]:
    for path in paths:
        if path.is_dir():
            yield from sorted(
                p
                for p in path.rglob("*.py")
                if "__pycache__" not in p.parts
            )
        else:
            yield path


def lint_file(path: "Path | str") -> List[Violation]:
    """Lint a single file; returns its unsuppressed violations."""
    path = Path(path)
    source = path.read_text(encoding="utf-8")
    return check_source(source, str(path), path.as_posix())


def lint_paths(paths: Sequence["Path | str"]) -> LintReport:
    """Lint files and directories (recursively) into one report.

    Each file is parsed once; syntax errors land in the report's
    ``parse_errors``.
    """
    report = LintReport()
    for file_path in _iter_python_files([Path(p) for p in paths]):
        report.files_checked += 1
        try:
            source = file_path.read_text(encoding="utf-8")
            tree = ast.parse(source, filename=str(file_path))
        except SyntaxError as exc:
            report.parse_errors.append(
                f"{file_path}:{exc.lineno or 0}: parse-error: {exc.msg}"
            )
            continue
        report.violations.extend(
            check_source(
                source,
                str(file_path),
                file_path.as_posix(),
                tree=tree,
                warnings=report.warnings,
            )
        )
    report.violations.sort(key=lambda v: (v.path, v.line, v.col, v.rule))
    return report
