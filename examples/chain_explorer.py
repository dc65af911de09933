"""Exploring the compiled consistency-partition Markov chain.

The chain is the reproduction's analysis engine: this example compiles
one configuration's chain (interned states, sparse integer transitions)
and walks everything it can answer -- the reachable refinement lattice
(as a mermaid diagram you can paste into a renderer), exact
probabilities under both backends, the full distribution of the first
solving time, its quantiles and expectation -- and reports the
state-space size plus compile/query timings, which is where the
compiled engine earns its keep: compile once, query as often as you
like.

Run:  python examples/chain_explorer.py
"""

import time
from fractions import Fraction

from repro import RandomnessConfiguration, leader_election
from repro.chain import Query, clear_memo, compile_chain, run_queries
from repro.core import (
    ConsistencyChain,
    expected_solving_time,
    solving_time_distribution,
    solving_time_quantile,
)
from repro.viz import chain_to_mermaid, format_table, render_partition


def main() -> None:
    alpha = RandomnessConfiguration.from_group_sizes([1, 2])
    task = leader_election(alpha.n)

    clear_memo()  # time a genuinely cold compile
    started = time.perf_counter()
    compiled = compile_chain(alpha)
    compile_seconds = time.perf_counter() - started
    chain = ConsistencyChain(alpha)  # facade over the same compiled chain

    print(f"configuration: sizes {alpha.group_sizes} on the blackboard")
    print(
        f"compiled chain: {compiled.num_states} states, "
        f"{compiled.num_transitions} transitions, "
        f"compiled in {compile_seconds * 1e3:.2f} ms\n"
    )

    print("reachable consistency partitions:")
    for sid in range(compiled.num_states):
        blocks = [frozenset(b) for b in compiled.partition_of(sid)]
        solves = task.solvable_from_partition(blocks)
        print(
            f"  {render_partition(blocks):15s}"
            + ("  <- solves leader election" if solves else "")
        )

    print("\nmermaid diagram of the refinement lattice:\n")
    print(chain_to_mermaid(chain, task))

    print("\nexact first-solve time distribution:")
    started = time.perf_counter()
    dist = solving_time_distribution(compiled, task, 8)
    query_seconds = time.perf_counter() - started
    rows = [
        (t, str(p), f"{float(p):.5f}")
        for t, p in enumerate(dist, start=1)
    ]
    print(format_table(("t", "Pr[T = t]", "~"), rows))
    print(f"(exact 8-round series query: {query_seconds * 1e3:.2f} ms)")

    started = time.perf_counter()
    (float_series,) = run_queries(
        compiled, [Query.series(task, 8)], backend="float"
    )
    float_seconds = time.perf_counter() - started
    print(
        f"float backend agrees at t=8 within "
        f"{abs(float_series[-1] - float(sum(dist))):.2e} "
        f"({float_seconds * 1e3:.2f} ms)"
    )

    expected = expected_solving_time(compiled, task)
    print(f"\nE[T] = {expected} (~{float(expected):.4f})")
    for q in (Fraction(1, 2), Fraction(9, 10), Fraction(99, 100)):
        t = solving_time_quantile(compiled, task, q)
        print(f"Pr[S(t)] reaches {q} at t = {t}")


if __name__ == "__main__":
    main()
