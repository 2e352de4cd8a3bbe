"""The declarative query API: connect(), Query builders, and explain().

Builds a movie-ratings-style database, connects to it locally and sharded,
and runs the same declarative queries through both -- printing the
planner's ``explain()`` output for a PTIME distance (footrule: exact
min-cost assignment, Section 5.4) and an NP-hard one (Kendall tau: the
planner drops to pivot aggregation plus Monte-Carlo estimation with
CI-driven sample sizing, Section 5.5).  The closing section shows the
self-tuning layers: the cross-session result cache replaying a completed
answer, ``execute_many`` fusing a multi-depth batch into one rank-matrix
sweep, and ``explain()`` reporting the plan's operation-count estimate.

Run with ``PYTHONPATH=src python examples/query_api.py``.
"""

from __future__ import annotations

import repro
from repro import Query
from repro.workloads.scenarios import movie_rating_scenario

K = 5


def main() -> None:
    scenario = movie_rating_scenario()
    database = scenario.database
    print(f"scenario: {scenario.name} ({len(database)} movies)\n")

    # ------------------------------------------------------------------
    # One facade, every deployment.
    # ------------------------------------------------------------------
    connection = repro.connect(database)
    print(f"connected: {connection!r}\n")

    # ------------------------------------------------------------------
    # A PTIME distance: the planner picks the exact kernel.
    # ------------------------------------------------------------------
    footrule = Query.topk(k=K).distance("footrule")
    print("-- explain(footrule): PTIME, exact route " + "-" * 24)
    print(connection.explain(footrule))
    answer = connection.execute(footrule)
    print(
        f"\nanswer: {answer.answer}\n"
        f"expected footrule distance: {answer.expected_distance:.4f}\n"
        f"provenance: route={answer.plan.route}, "
        f"paper={answer.provenance()['paper']}, "
        f"elapsed={answer.elapsed * 1000:.2f}ms\n"
    )

    # ------------------------------------------------------------------
    # An NP-hard distance: the planner drops to Monte-Carlo estimation.
    # ------------------------------------------------------------------
    kendall = Query.topk(k=K).distance("kendall").sampled(2000)
    print("-- explain(kendall): NP-hard, sampling route " + "-" * 20)
    print(connection.explain(kendall))
    answer = connection.execute(kendall, rng=7)
    low, high = answer.confidence_interval(0.95)
    print(
        f"\nanswer: {answer.answer}\n"
        f"estimated Kendall distance: {answer.expected_distance:.3f} "
        f"(95% CI [{low:.3f}, {high:.3f}], "
        f"{answer.estimate.samples} samples)\n"
    )

    # Ask for a precision target instead of a sample count: the sampler
    # draws batches until the confidence interval is tight enough.
    precise = connection.execute(
        Query.topk(k=K).distance("kendall").epsilon(0.1), rng=7
    )
    print(
        f"epsilon=0.1 run: {precise.estimate.samples} samples, "
        f"CI half-width "
        f"{(lambda ci: (ci[1] - ci[0]) / 2)(precise.confidence_interval()):.3f}\n"
    )

    # ------------------------------------------------------------------
    # The same queries against a 4-shard deployment: identical answers,
    # merged exactly from per-shard partial statistics.
    # ------------------------------------------------------------------
    sharded = repro.connect(database, shards=4)
    print("-- sharded deployment " + "-" * 42)
    print(sharded.explain(footrule))
    sharded_answer = sharded.execute(footrule)
    local_answer = connection.execute(footrule)
    print(
        f"\nsharded answer == local answer: "
        f"{sharded_answer.value == local_answer.value}"
    )

    # Consensus worlds and baselines ride the same facade.
    world = connection.execute(Query.set_consensus())
    print(
        f"mean consensus world (Theorem 2): {len(world.answer)} "
        f"alternatives, expected distance {world.expected_distance:.3f}"
    )
    baseline = connection.execute(Query.ranking("global", K))
    print(f"Global-Top-{K} baseline: {baseline.value}")

    info = connection.cache_info()
    print(
        f"\nsession cache after the run: {info.hits} hits / "
        f"{info.misses} misses ({info.hit_rate:.0%} hit rate)"
    )

    # ------------------------------------------------------------------
    # Self-tuning: warm result cache, fused batches, cost estimates.
    # ------------------------------------------------------------------
    print("\n-- self-tuning planner " + "-" * 41)
    # Completed answers replay from the cross-session result cache while
    # the database (and backend) stay unchanged: the second execution is
    # the first one's QueryAnswer, served without planning or compute.
    warm = connection.execute(footrule)
    print(
        f"repeated footrule query: cached={warm.cached} "
        f"({connection.result_cache!r})"
    )

    # A batch wanting the rank-matrix artifact at several depths fuses
    # into one k_max sweep; the smaller depths are answered from exact
    # column-prefix slices of it.
    batch = [Query.membership(k) for k in (3, 5, 10)]
    answers = connection.execute_many(batch)
    print(
        "fused membership batch (k=3/5/10): "
        + ", ".join(f"{len(answer.value)} rows" for answer in answers)
    )

    # explain() estimates a plan's work as an operation count.
    est_line = next(
        line
        for line in connection.explain(footrule).splitlines()
        if "est. cost" in line
    )
    print(f"cost estimate: {est_line.strip()}")


if __name__ == "__main__":
    main()
