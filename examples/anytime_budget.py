"""Anytime top-k: useful answers under an operation budget.

Adaptive, bound-driven evaluation degrades gracefully: interrupt it at any
point and the current top-k set plus a correctness bound is a meaningful
partial answer.  This example runs the same query under growing
``max_operations`` budgets and shows the answers converging to the exact
top-k — with the certificate (``pending_bound``) telling you how much
could still change.

Run from the repository root::

    python examples/anytime_budget.py
"""

from repro.core.engine import Engine
from repro.xmark.generator import generate_database
from repro.xmark.schema import XMarkConfig

QUERY = "//item[./mailbox/mail/text[./bold and ./keyword] and ./name and ./incategory]"
K = 5


def main() -> None:
    database = generate_database(XMarkConfig(items=200, seed=31))
    engine = Engine(database, QUERY)

    exact = engine.run(K, algorithm="whirlpool_s")
    print(f"query: {QUERY}")
    print(
        f"exact top-{K} (for reference): "
        f"{[round(a.score, 3) for a in exact.answers]} "
        f"after {exact.stats.server_operations} operations\n"
    )

    print(f"{'budget':>8}  {'final?':>6}  {'bound':>7}  answers (scores)")
    for budget in (10, 50, 150, 400, 1000, None):
        result = engine.run(K, algorithm="whirlpool_s", max_operations=budget)
        scores = [round(a.score, 3) for a in result.answers]
        label = "inf" if budget is None else str(budget)
        print(
            f"{label:>8}  {str(not result.degraded):>6}  "
            f"{result.pending_bound:>7.3f}  {scores}"
        )
        if not result.degraded and budget is not None:
            print(
                f"\nconverged at budget {label} "
                f"({result.stats.server_operations} operations actually used; "
                f"the top-k set closed the rest of the queue as ties)"
            )
            break


if __name__ == "__main__":
    main()
