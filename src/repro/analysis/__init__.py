"""Concurrency-safety analysis for the Whirlpool reproduction.

Whirlpool-M's correctness rests on a handful of mechanical disciplines —
every write to the shared top-k set / statistics / trace / queues happens
under that object's lock, threads are named daemons that the engine joins,
engine subclasses honour the :class:`~repro.core.base.EngineBase`
contract — and this package *verifies* them instead of trusting review:

- :mod:`repro.analysis.lint` — a custom AST rule engine with repo-specific
  rules (codes ``WPL001``–``WPL010``), line-level ``# wpl: noqa=CODE``
  suppressions, and human/JSON output;
- :mod:`repro.analysis.racecheck` — a runtime lock-coverage (lockset)
  race detector that instruments ``threading`` locks and the shared
  classes during a real Whirlpool-M run;
- ``python -m repro.analysis`` — the CI entry point: lints the source
  tree, runs a racecheck smoke over a generated biblio document, and
  exits non-zero on any finding.

See ``docs/static_analysis.md`` for the rule catalog.
"""

from repro.analysis.lint import (
    Finding,
    LintEngine,
    default_rules,
    format_human,
    format_json,
    lint_paths,
)
from repro.analysis.racecheck import RaceCheck, RaceFinding

__all__ = [
    "Finding",
    "LintEngine",
    "default_rules",
    "format_human",
    "format_json",
    "lint_paths",
    "RaceCheck",
    "RaceFinding",
]
