"""Compiled chain engine vs the seed ``ConsistencyChain`` (ISSUE 2).

The seed implementation re-explored the reachable partition space from
scratch at every call site -- per task, per sweep point, per worker --
over tuple-of-frozenset states.  The compiled engine explores once per
``(alpha, ports)`` into interned integer states and answers every
further query (through :func:`~repro.chain.run_queries`) as a pass
over sparse transition arrays.

This benchmark times the canonical multi-task sweep (one configuration
queried for several tasks: exact series + exact limit each) on

* a faithful copy of the seed implementation (``SeedConsistencyChain``,
  kept verbatim below as the baseline), and
* the compiled engine, cold (including compilation) and warm.

It asserts (a) the exact backend reproduces the seed's ``Fraction``
results digit for digit, and (b) the compiled engine wins the sweep by
at least the 3x the acceptance criteria demand (in practice far more).

Runs standalone (``python benchmarks/bench_chain_engine.py``) or under
pytest-benchmark (``pytest benchmarks/ -o python_files='bench_*.py'
-o python_functions='bench_*'``).
"""

from __future__ import annotations

import itertools
import os
import time
from fractions import Fraction

from repro.chain import Query, clear_memo, compile_chain, run_queries
from repro.core import k_leader_election, leader_election, unique_ids
from repro.core.markov import canonical_state, single_block_state
from repro.randomness import RandomnessConfiguration

#: The multi-task sweep: one alpha, >= 3 tasks, series + limit each.
SHAPE = (1, 1, 1, 2, 2)
N = sum(SHAPE)
T_MAX = 10
TASKS = (
    ("leader", leader_election(N)),
    ("k-leader:2", k_leader_election(N, 2)),
    ("k-leader:3", k_leader_election(N, 3)),
    ("unique-ids", unique_ids(N)),
)
#: Acceptance floor from the ISSUE; the measured ratio is far higher on
#: quiet hardware.  CI smoke runs on noisy shared runners relax it via
#: CHAIN_BENCH_MIN_SPEEDUP (exactness is always asserted regardless).
REQUIRED_SPEEDUP = float(os.environ.get("CHAIN_BENCH_MIN_SPEEDUP", "3.0"))


class SeedConsistencyChain:
    """The seed implementation, kept verbatim as the baseline.

    (Blackboard slice only -- the sweep below needs no ports; the full
    seed class lives in git history at ``src/repro/core/markov.py``.)
    """

    def __init__(self, alpha: RandomnessConfiguration):
        self.alpha = alpha
        self._transition_cache: dict = {}

    def refine(self, state, source_bits):
        n = self.alpha.n
        label = {}
        for index, block in enumerate(state):
            for node in block:
                label[node] = index
        bits = [source_bits[self.alpha.source_of(i)] for i in range(n)]
        keys = [(label[i], bits[i]) for i in range(n)]
        blocks: dict = {}
        for node in range(n):
            blocks.setdefault(keys[node], []).append(node)
        return canonical_state(
            [frozenset(block) for block in blocks.values()]
        )

    def transitions(self, state):
        cached = self._transition_cache.get(state)
        if cached is not None:
            return cached
        k = self.alpha.k
        out: dict = {}
        weight = Fraction(1, 2 ** (k - 1)) if k > 1 else Fraction(1)
        for rest in itertools.product((0, 1), repeat=k - 1):
            nxt = self.refine(state, (0, *rest))
            out[nxt] = out.get(nxt, Fraction(0)) + weight
        self._transition_cache[state] = out
        return out

    def solving_probability_series(self, task, t_max):
        dist = {single_block_state(self.alpha.n): Fraction(1)}
        series = []
        for _ in range(t_max):
            nxt: dict = {}
            for state, prob in dist.items():
                for new_state, step in self.transitions(state).items():
                    nxt[new_state] = nxt.get(new_state, Fraction(0)) + prob * step
            dist = nxt
            series.append(
                sum(
                    (
                        prob
                        for state, prob in dist.items()
                        if task.solvable_from_partition(
                            [frozenset(b) for b in state]
                        )
                    ),
                    Fraction(0),
                )
            )
        return series

    def reachable_states(self):
        start = single_block_state(self.alpha.n)
        seen = {start}
        frontier = [start]
        while frontier:
            state = frontier.pop()
            for nxt in self.transitions(state):
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return seen

    def limit_solving_probability(self, task):
        states = sorted(self.reachable_states(), key=len, reverse=True)
        prob: dict = {}
        for state in states:
            if task.solvable_from_partition([frozenset(b) for b in state]):
                prob[state] = Fraction(1)
                continue
            moves = self.transitions(state)
            self_loop = moves.get(state, Fraction(0))
            if self_loop == 1:
                prob[state] = Fraction(0)
                continue
            total = Fraction(0)
            for nxt, step in moves.items():
                if nxt != state:
                    total += step * prob[nxt]
            prob[state] = total / (1 - self_loop)
        return prob[single_block_state(self.alpha.n)]


def seed_sweep() -> list:
    """The seed call-site pattern: a fresh chain per task query."""
    alpha = RandomnessConfiguration.from_group_sizes(SHAPE)
    results = []
    for _, task in TASKS:
        chain = SeedConsistencyChain(alpha)
        results.append(chain.solving_probability_series(task, T_MAX))
        results.append(chain.limit_solving_probability(task))
    return results


def compiled_sweep(*, cold: bool) -> list:
    """The compiled pattern: one compilation, then pure queries."""
    if cold:
        clear_memo()
    alpha = RandomnessConfiguration.from_group_sizes(SHAPE)
    chain = compile_chain(alpha)
    results = []
    for _, task in TASKS:
        results.extend(
            run_queries(chain, [Query.series(task, T_MAX), Query.limit(task)])
        )
    return results


def _best_of(fn, rounds: int = 3) -> tuple[float, list]:
    best = float("inf")
    value = None
    for _ in range(rounds):
        started = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - started)
    return best, value


def measure() -> dict:
    """Best-of-three timings plus the exactness/speedup verdicts."""
    seed_seconds, seed_values = _best_of(seed_sweep)
    cold_seconds, cold_values = _best_of(lambda: compiled_sweep(cold=True))
    warm_seconds, warm_values = _best_of(lambda: compiled_sweep(cold=False))
    assert seed_values == cold_values == warm_values, (
        "exact backend must reproduce the seed Fractions digit for digit"
    )
    return {
        "seed_seconds": seed_seconds,
        "cold_seconds": cold_seconds,
        "warm_seconds": warm_seconds,
        "speedup_cold": seed_seconds / cold_seconds,
        "speedup_warm": seed_seconds / warm_seconds,
    }


# ----------------------------------------------------------------------
# pytest-benchmark entry points
# ----------------------------------------------------------------------
def bench_chain_seed_baseline(benchmark):
    """Multi-task sweep on the seed implementation."""
    values = benchmark(seed_sweep)
    benchmark.extra_info["tasks"] = len(TASKS)
    assert values[1] == Fraction(1)  # leader on (1,1,1,2,2) solves


def bench_chain_compiled_cold(benchmark):
    """Same sweep, compiled engine, memo cleared every round."""
    values = benchmark(lambda: compiled_sweep(cold=True))
    benchmark.extra_info["tasks"] = len(TASKS)
    assert values == seed_sweep()


def bench_chain_compiled_warm(benchmark):
    """Same sweep on a warm memo (the steady-state sweep cost)."""
    compiled_sweep(cold=True)
    values = benchmark(lambda: compiled_sweep(cold=False))
    assert values == seed_sweep()


def bench_chain_speedup_verdict(benchmark):
    """The acceptance check: >= 3x over the seed on the multi-task sweep."""
    report = benchmark(measure)
    for key, value in report.items():
        benchmark.extra_info[key] = round(value, 6)
    assert report["speedup_cold"] >= REQUIRED_SPEEDUP, report
    assert report["speedup_warm"] >= REQUIRED_SPEEDUP, report


def main() -> int:
    report = measure()
    print(f"multi-task sweep: shape {SHAPE}, {len(TASKS)} tasks, "
          f"series t<={T_MAX} + exact limit each")
    print(f"  seed ConsistencyChain : {report['seed_seconds'] * 1e3:8.2f} ms")
    print(f"  compiled (cold memo)  : {report['cold_seconds'] * 1e3:8.2f} ms "
          f"({report['speedup_cold']:.1f}x)")
    print(f"  compiled (warm memo)  : {report['warm_seconds'] * 1e3:8.2f} ms "
          f"({report['speedup_warm']:.1f}x)")
    ok = (
        report["speedup_cold"] >= REQUIRED_SPEEDUP
        and report["speedup_warm"] >= REQUIRED_SPEEDUP
    )
    print(f"exact results identical to seed: yes; "
          f">= {REQUIRED_SPEEDUP:.0f}x required: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
