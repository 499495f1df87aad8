"""Custom AST lint: rule engine + the repo's ``WPL`` concurrency rules.

Quick use::

    from repro.analysis.lint import lint_paths, format_human

    findings = lint_paths(["src/repro"])
    print(format_human(findings))

The rule catalog (``WPL001``–``WPL010``) is in ``docs/static_analysis.md``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, List, Union

from repro.analysis.lint.engine import (
    Finding,
    LintEngine,
    Rule,
    format_human,
    format_json,
)
from repro.analysis.lint.rules import (
    BenchImportsPublicApiRule,
    EngineContractRule,
    NoBareThreadRule,
    NoWallclockInCoreRule,
    SharedStateGuardRule,
    default_rules,
)


def lint_paths(paths: Iterable[Union[str, Path]]) -> List[Finding]:
    """Lint files/directories with the default rule set."""
    return LintEngine(default_rules()).lint_paths(Path(p) for p in paths)


__all__ = [
    "Finding",
    "LintEngine",
    "Rule",
    "format_human",
    "format_json",
    "default_rules",
    "lint_paths",
    "SharedStateGuardRule",
    "NoBareThreadRule",
    "EngineContractRule",
    "NoWallclockInCoreRule",
    "BenchImportsPublicApiRule",
]
