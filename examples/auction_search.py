"""Auction-site search: the paper's XMark workload, engines compared.

Generates a synthetic auction document (the XMark subset the paper
evaluates on), runs the paper's three queries through all four evaluation
algorithms, and prints answers plus work/time statistics — a miniature of
the paper's Section 6 on your laptop.

Run from the repository root::

    python examples/auction_search.py
"""

import time

import repro
from repro.bench.makespan import CostModel, simulate
from repro.core.engine import Engine
from repro.xmark.generator import generate_database
from repro.xmark.schema import XMarkConfig
from repro.xmldb.serializer import document_size_bytes

QUERIES = {
    "Q1 (small)": "//item[./description/parlist]",
    "Q2 (medium)": "//item[./description/parlist and ./mailbox/mail/text]",
    "Q3 (large)": (
        "//item[./mailbox/mail/text[./bold and ./keyword]"
        " and ./name and ./incategory]"
    ),
}

ALGORITHMS = ("whirlpool_s", "whirlpool_m", "lockstep", "lockstep_noprun")


def main() -> None:
    print("generating auction data ...")
    database = generate_database(XMarkConfig(items=250, seed=2026))
    print(
        f"  {database.node_count()} nodes, "
        f"{document_size_bytes(database) / 1024:.0f} KiB, "
        f"{len(database.nodes_with_tag('item'))} items\n"
    )

    k = 10
    for label, query in QUERIES.items():
        print(f"=== {label}: {query} ===")
        engine = Engine(database, query)

        header = f"  {'algorithm':<17}{'ops':>8}{'created':>9}{'pruned':>8}{'wall s':>9}"
        print(header)
        reference_scores = None
        for algorithm in ALGORITHMS:
            start = time.perf_counter()
            result = engine.run(k, algorithm=algorithm)
            elapsed = time.perf_counter() - start
            stats = result.stats
            print(
                f"  {algorithm:<17}{stats.server_operations:>8}"
                f"{stats.partial_matches_created:>9}"
                f"{stats.partial_matches_pruned:>8}{elapsed:>9.3f}"
            )
            scores = [round(a.score, 6) for a in result.answers]
            if reference_scores is None:
                reference_scores = scores
            elif scores != reference_scores:
                raise AssertionError(f"{algorithm} disagreed on the top-{k}!")

        # The simulated multi-processor Whirlpool-M (deterministic).
        sim = simulate(engine.open(k, "whirlpool_m"), n_processors=4, cost_model=CostModel())
        print(
            f"  {'whirlpool_m @4cpu':<17}{sim.result.stats.server_operations:>8}"
            f"{sim.result.stats.partial_matches_created:>9}"
            f"{sim.result.stats.partial_matches_pruned:>8}"
            f"{sim.makespan:>8.3f}*"
        )
        print("  (* simulated makespan at the paper's 1.8 ms/op)\n")

        best = engine.run(3)
        print("  top-3 items:")
        for answer in best.answers:
            item_id = next(
                (c.value for c in answer.root_node.children if c.tag == "@id"),
                "?",
            )
            name = next(
                (c.value for c in answer.root_node.children if c.tag == "name"),
                "(unnamed)",
            )
            print(f"    score={answer.score:.3f}  {item_id:<8} {name}")
        print()


if __name__ == "__main__":
    main()
