"""Adaptive vs static routing, live: watch min_alive beat fixed plans.

Sweeps every static server permutation for one query and compares the
best/median/worst static plans against the three adaptive routing
strategies (Section 6.1.4), on work (server operations) and modeled time —
the experiment behind the paper's Figures 5–7.

Run from the repository root::

    python examples/adaptive_routing_demo.py
"""

import itertools

from repro.bench.makespan import CostModel
from repro.core.engine import Engine
from repro.xmark.generator import generate_database
from repro.xmark.schema import XMarkConfig

QUERY = "//item[./description/parlist and ./mailbox/mail/text]"
K = 15


def main() -> None:
    database = generate_database(XMarkConfig(items=300, seed=7))
    engine = Engine(database, QUERY)
    cost = CostModel()  # the paper's 1.8 ms per join operation

    print(f"query: {QUERY}")
    print(f"servers: {engine.server_node_ids()} "
          f"({[n.tag for n in engine.pattern.non_root_nodes()]})\n")

    # Static sweep: all permutations (5 servers -> 120 plans, as in the
    # paper's Figure 6).
    print("sweeping all static plans ...")
    static = []
    for order in itertools.permutations(engine.server_node_ids()):
        result = engine.run(K, algorithm="whirlpool_s", routing="static",
                            static_order=list(order))
        static.append((result.stats.server_operations, order))
    static.sort()

    best_ops, best_order = static[0]
    median_ops, _ = static[len(static) // 2]
    worst_ops, worst_order = static[-1]
    print(f"  best static plan   {best_order}: {best_ops} ops "
          f"({cost.sequential_time(best_ops, 0):.2f} s modeled)")
    print(f"  median static plan: {median_ops} ops")
    print(f"  worst static plan  {worst_order}: {worst_ops} ops\n")

    print("adaptive routing strategies:")
    for routing in ("min_alive", "min_score", "max_score"):
        result = engine.run(K, algorithm="whirlpool_s", routing=routing)
        ops = result.stats.server_operations
        verdict = "beats" if ops <= best_ops else "vs"
        print(
            f"  {routing:<12}: {ops} ops "
            f"({cost.sequential_time(ops, 0):.2f} s modeled) "
            f"— {verdict} best static ({best_ops})"
        )

    print(
        "\nThe size-based router (min_alive_partial_matches) tracks the\n"
        "best static plan without knowing it in advance — and unlike any\n"
        "static plan, it keeps winning when the data distribution shifts."
    )


if __name__ == "__main__":
    main()
