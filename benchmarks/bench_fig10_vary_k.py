"""Figure 10 — execution time as a function of k and query size.

Paper claims reproduced here (Section 6.3.5):

- execution time grows with k for every query (fewer matches prunable);
- execution time grows steeply with query size (Q1 < Q2 < Q3);
- Whirlpool-M's advantage over Whirlpool-S grows with k and query size.
"""

import pytest

from repro.bench.experiments import fig10_vary_k, run_whirlpool_s
from repro.bench.reporting import emit, fmt, format_table, write_results
from repro.bench.workloads import get_engine

K_VALUES = (3, 15, 75)


@pytest.fixture(scope="module")
def payload():
    return fig10_vary_k(k_values=K_VALUES)


def test_fig10_table(payload):
    rows = []
    for query, per_k in payload["series"].items():
        for k, entry in per_k.items():
            rows.append(
                [
                    query,
                    k,
                    fmt(entry["whirlpool_s_time"]),
                    fmt(entry["whirlpool_m_time"]),
                    entry["whirlpool_s_ops"],
                    entry["whirlpool_m_ops"],
                ]
            )
    emit(
        format_table(
            f"Figure 10 — execution time vs k (doc={payload['doc']})",
            ["query", "k", "W-S time", "W-M time", "W-S ops", "W-M ops"],
            rows,
        )
    )
    write_results("fig10_vary_k", payload)

    series = payload["series"]
    for query, per_k in series.items():
        # Work and time grow with k — strictly: fewer matches can be closed
        # as ties against a lower k-th score.  (Until ties were closed the
        # counts at k = 3 and k = 15 were equal on all three queries.)
        for metric in ("whirlpool_s_ops", "whirlpool_s_time"):
            values = [per_k[k][metric] for k in K_VALUES]
            assert values[0] < values[1] < values[2], f"{query}: {metric} should grow with k"
    # Query size ordering at the default k.
    assert (
        series["Q1"][15]["whirlpool_s_time"]
        <= series["Q2"][15]["whirlpool_s_time"]
        <= series["Q3"][15]["whirlpool_s_time"]
    )


def test_fig10_wm_can_do_fewer_operations(payload):
    """Section 6.3.5's counter-intuitive observation: although a sequential
    max-final-score engine minimizes operations for a *fixed* routing, the
    adaptive router reacts to the faster-growing parallel threshold, so
    Whirlpool-M can end up doing fewer server operations than Whirlpool-S."""
    series = payload["series"]
    wins = sum(
        1
        for query in series
        for k in K_VALUES
        if series[query][k]["whirlpool_m_ops"] < series[query][k]["whirlpool_s_ops"]
    )
    assert wins >= 1, "expected at least one configuration where W-M does fewer ops"


def test_fig10_wm_faster_than_ws_for_larger_queries(payload):
    # At 2 simulated processors, W-M's makespan beats sequential W-S for
    # the multi-server queries at every k.
    series = payload["series"]
    for query in ("Q2", "Q3"):
        for k in K_VALUES:
            entry = series[query][k]
            assert entry["whirlpool_m_time"] < entry["whirlpool_s_time"], (
                f"{query}, k={k}: W-M should be faster"
            )


def test_fig10_benchmark_k75(benchmark):
    engine = get_engine("Q2")

    def run():
        return run_whirlpool_s(engine, 75)

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert len(result.answers) > 0
