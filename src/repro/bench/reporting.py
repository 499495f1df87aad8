"""Markdown tables and result persistence for the benchmark harness.

Every paper artifact renders the rows/series the corresponding figure or
table reports as one markdown table, and persists its payload under
``bench_results/`` so EXPERIMENTS.md can be regenerated from artifacts.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Sequence, Tuple

RESULTS_DIR = os.environ.get("REPRO_RESULTS_DIR", "bench_results")


def format_table(headers: Sequence[str], rows: Sequence[Sequence]) -> str:
    """A markdown table: header line, delimiter line, one line per row.

    Float cells show four significant digits; any other cell its ``str``.
    """

    def cell(value) -> str:
        return f"{value:.4g}" if isinstance(value, float) else str(value)

    def line(cells: Sequence) -> str:
        return "| " + " | ".join(map(cell, cells)) + " |"

    return "\n".join([line(headers), "|" + "---|" * len(headers), *map(line, rows)])


def write_results(name: str, payload: Dict) -> str:
    """Persist one experiment's payload as JSON; returns the path."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.json")
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True, default=str)
    return path


def write_tables(tables: Sequence[Tuple[str, str]]) -> str:
    """(Re)write ``tables.md``: one ``## title`` section per rendered table."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, "tables.md")
    with open(path, "w") as handle:
        handle.write("\n".join(f"## {title}\n\n{table}\n" for title, table in tables))
    return path

