"""The lint rule engine: rule registry, noqa suppressions, reporting.

A *rule* inspects one parsed
:class:`~repro.analysis.graph.project.SourceModule` — the module type the
graph analyzer reads too — and yields :class:`Finding` objects.  The
engine owns everything around that: discovering files, parsing them
once, dispatching every registered rule, and dropping findings whose line
carries a matching suppression comment.

Suppression syntax (line-level, matching the repo's ``wpl`` rule codes)::

    self._start = time.perf_counter()  # wpl: noqa=WPL001
    risky()                            # wpl: noqa=WPL001,WPL004
    anything()                         # wpl: noqa

A bare ``# wpl: noqa`` silences every rule on that line; ``=CODE[,CODE]``
silences only the listed codes.  Suppressions are deliberately line-scoped
— a file-wide opt-out would defeat the point of the guard rules.
"""

from __future__ import annotations

import ast
import json
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set

from repro.analysis.graph.project import SourceModule

#: The package whose imports count as project imports (``WPL005`` reads
#: them); every other import lands in the module's external-name map.
ROOT_PACKAGE = "repro"


class Finding:
    """One lint violation at a specific source location."""

    __slots__ = ("code", "rule", "path", "line", "col", "message")

    def __init__(
        self, code: str, rule: str, path: Path, line: int, col: int, message: str
    ) -> None:
        self.code = code
        self.rule = rule
        self.path = path
        self.line = line
        self.col = col
        self.message = message

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly representation."""
        return {
            "code": self.code,
            "rule": self.rule,
            "path": str(self.path),
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }

    def __repr__(self) -> str:
        return f"Finding({self.code} {self.path}:{self.line}:{self.col})"


class Rule:
    """Base class: one named, coded check over a parsed module."""

    code = "WPL000"
    name = "abstract"
    description = ""

    def check(self, module: SourceModule) -> Iterator[Finding]:
        """Yield findings for ``module``."""
        raise NotImplementedError

    def finding(self, module: SourceModule, node: ast.AST, message: str) -> Finding:
        """Build a finding anchored at ``node``."""
        return Finding(
            code=self.code,
            rule=self.name,
            path=module.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.code})"


class LintEngine:
    """Registry of rules plus the run loop over files and directories."""

    def __init__(self, rules: Optional[Sequence[Rule]] = None) -> None:
        self.rules: List[Rule] = list(rules) if rules is not None else []
        seen: Set[str] = set()
        for rule in self.rules:
            if rule.code in seen:
                raise ValueError(f"duplicate rule code {rule.code}")
            seen.add(rule.code)

    def register(self, rule: Rule) -> None:
        """Add one rule; codes must stay unique."""
        if any(existing.code == rule.code for existing in self.rules):
            raise ValueError(f"duplicate rule code {rule.code}")
        self.rules.append(rule)

    # -- running ---------------------------------------------------------------

    def lint_module(self, module: SourceModule) -> List[Finding]:
        """All non-suppressed findings for one parsed module."""
        findings: List[Finding] = []
        for rule in self.rules:
            for finding in rule.check(module):
                if not module.suppressed(finding.line, finding.code):
                    findings.append(finding)
        findings.sort(key=lambda f: (str(f.path), f.line, f.col, f.code))
        return findings

    def lint_file(self, path: Path) -> List[Finding]:
        """Parse and lint one file; syntax errors become ``WPL900``."""
        try:
            module = SourceModule.parse(path, path.stem, ROOT_PACKAGE)
        except SyntaxError as exc:
            return [
                Finding(
                    code="WPL900",
                    rule="syntax-error",
                    path=path,
                    line=exc.lineno or 1,
                    col=exc.offset or 0,
                    message=f"cannot parse file: {exc.msg}",
                )
            ]
        return self.lint_module(module)

    def lint_paths(self, paths: Iterable[Path]) -> List[Finding]:
        """Lint files and (recursively) directories of ``*.py`` files.

        The merged list is re-sorted globally — per-file lists are already
        ordered, but callers may pass paths in any order and reports (and
        report diffs) should not depend on it."""
        findings: List[Finding] = []
        for path in paths:
            path = Path(path)
            if path.is_dir():
                for file in sorted(path.rglob("*.py")):
                    findings.extend(self.lint_file(file))
            else:
                findings.extend(self.lint_file(path))
        findings.sort(key=lambda f: (str(f.path), f.line, f.col, f.code))
        return findings


# -- output ---------------------------------------------------------------------


def format_human(findings: Sequence[Finding]) -> str:
    """``path:line:col  CODE  message`` lines plus a summary tail."""
    lines = [
        f"{finding.path}:{finding.line}:{finding.col}  {finding.code}  {finding.message}"
        for finding in findings
    ]
    noun = "finding" if len(findings) == 1 else "findings"
    lines.append(f"{len(findings)} {noun}")
    return "\n".join(lines)


def format_json(findings: Sequence[Finding]) -> str:
    """Machine-readable report (stable key order for diffing in CI)."""
    payload = {
        "findings": [finding.as_dict() for finding in findings],
        "count": len(findings),
    }
    return json.dumps(payload, indent=2, sort_keys=True)
