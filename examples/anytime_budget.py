"""Anytime top-k: useful answers under an operation budget.

Adaptive, bound-driven evaluation degrades gracefully: interrupt it at any
point and the current top-k set plus a correctness bound is a meaningful
partial answer.  This example runs the same query under growing budgets
and shows the answers converging to the exact top-k — with the certificate
(`guarantee()`) telling you how much could still change.

Run from the repository root::

    python examples/anytime_budget.py
"""

from repro.core.anytime import anytime_topk
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
        outcome = anytime_topk(engine, k=K, max_operations=budget)
        scores = [round(a.score, 3) for a in outcome.answers]
        label = "inf" if budget is None else str(budget)
        print(
            f"{label:>8}  {str(outcome.is_final):>6}  "
            f"{outcome.guarantee():>7.3f}  {scores}"
        )
        if outcome.is_final and budget is not None:
            print(
                f"\nconverged at budget {label} "
                f"({outcome.operations_used} operations actually used; "
                f"the top-k set closed the rest of the queue as ties)"
            )
            break

    final = anytime_topk(engine, k=K)
    assert [round(a.score, 9) for a in final.answers] == [
        round(a.score, 9) for a in exact.answers
    ]
    print(
        f"\nunbudgeted anytime run: {final.operations_used} ops, the "
        f"{exact.stats.server_operations} of plain Whirlpool-S "
        f"(the early stop is every run's)"
    )


if __name__ == "__main__":
    main()
