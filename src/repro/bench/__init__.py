"""Benchmark harness: workloads, parameters, experiment drivers and models.

One driver function per paper artifact (Figures 3, 5–11; Table 2) plus
the Whirlpool-M makespan model (:mod:`repro.bench.makespan`) and the
injected-latency index (:mod:`repro.bench.latency`) they run on.
``benchmarks/test_paper_artifacts.py`` holds the table of artifacts: each
entry names its driver, the table it renders and the shape claims it
asserts.

Scaling: the paper's documents are 1/10/50 Mb XMark files.  The drivers
default to documents scaled down by ``REPRO_BENCH_SCALE`` (default 0.02,
i.e. 20 Kb / 200 Kb / 1 Mb) so the whole suite runs in CI time; set
``REPRO_BENCH_SCALE=1.0`` to run at paper scale.  Every claim checked is a
*shape* claim (who wins, where crossovers fall), which reduced scale
preserves.
"""

from repro.bench.params import DEFAULTS, QUERIES, paper_doc_bytes
from repro.bench.workloads import get_database, get_engine, clear_cache
from repro.bench.reporting import format_table, write_results

__all__ = [
    "DEFAULTS",
    "QUERIES",
    "paper_doc_bytes",
    "get_database",
    "get_engine",
    "clear_cache",
    "format_table",
    "write_results",
]
