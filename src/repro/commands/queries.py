"""Chain queries and one-shot analyses: ``solve``, ``series``,
``expected-time``, ``protocol``, ``graphs`` and ``mermaid``."""

from __future__ import annotations

from ..cli import _make_ports, _make_task
from ..core.markov import ConsistencyChain
from ..randomness.configuration import RandomnessConfiguration
from ..viz import format_table


def _chain(args) -> tuple[RandomnessConfiguration, ConsistencyChain]:
    alpha = RandomnessConfiguration.from_group_sizes(args.sizes)
    backend = getattr(args, "backend", "exact")
    if args.model == "blackboard":
        return alpha, ConsistencyChain(alpha, backend=backend)
    ports = _make_ports(args.ports, args.sizes, args.seed)
    return alpha, ConsistencyChain(alpha, ports, backend=backend)


def cmd_solve(args) -> int:
    from ..chain import Query, run_queries

    alpha, chain = _chain(args)
    task = _make_task(args.task, alpha.n)
    limit = run_queries(
        chain.compiled, [Query.limit(task)], backend=chain.backend
    )[0]
    print(
        f"configuration: sizes {alpha.group_sizes} (n={alpha.n}, "
        f"k={alpha.k}, gcd={alpha.gcd})"
    )
    print(f"backend: {chain.backend}")
    print(f"model: {args.model}" + (
        f" ({args.ports} ports)" if args.model == "clique" else ""
    ))
    print(f"task: {task}")
    print(f"limit of Pr[S(t)]: {limit}")
    # The exact backend yields a true 0/1 Fraction; the float backend can
    # land within rounding error of 1.
    solvable = limit == 1 if chain.backend == "exact" else limit > 1 - 1e-9
    print("eventually solvable:", "YES" if solvable else "NO")
    return 0


def cmd_series(args) -> int:
    from ..chain import Query, run_queries

    alpha, chain = _chain(args)
    task = _make_task(args.task, alpha.n)
    series = run_queries(
        chain.compiled, [Query.series(task, args.t_max)],
        backend=chain.backend,
    )[0]
    rows = [
        (t, str(p), f"{float(p):.6f}")
        for t, p in enumerate(series, start=1)
    ]
    label = "exact" if chain.backend == "exact" else "float64"
    print(format_table(("t", f"Pr[S(t)] {label}", "~"), rows))
    return 0


def cmd_expected_time(args) -> int:
    from ..chain import Query, run_queries

    alpha, chain = _chain(args)
    task = _make_task(args.task, alpha.n)
    expected = run_queries(
        chain.compiled, [Query.expected_time(task)], backend=chain.backend
    )[0]
    if expected is None:
        print("expected time: infinite (task not eventually solvable)")
    else:
        print(f"expected rounds to a solving state: {expected} "
              f"(~{float(expected):.4f})")
    return 0


def cmd_protocol(args) -> int:
    from ..algorithms import (
        BlackboardLeaderNode,
        BlackboardNetwork,
        CliqueNetwork,
        EuclidLeaderNode,
    )

    alpha = RandomnessConfiguration.from_group_sizes(args.sizes)
    if args.model == "blackboard":
        network = BlackboardNetwork(
            alpha, lambda: BlackboardLeaderNode(k=args.k), seed=args.seed
        )
    else:
        ports = _make_ports(args.ports, args.sizes, args.seed)
        network = CliqueNetwork(
            alpha, ports, lambda: EuclidLeaderNode(k=args.k), seed=args.seed
        )
    result = network.run(max_rounds=args.max_rounds)
    if result.all_decided:
        print(
            f"elected {result.leaders()} in {result.rounds} rounds "
            f"(k={args.k})"
        )
        return 0
    print(f"no election within {args.max_rounds} rounds")
    return 1


def cmd_graphs(args) -> int:
    """Worst-case deterministic leader election on a graph family."""
    from ..core import (
        color_refinement_fixpoint,
        leader_election,
        worst_case_deterministic_solvable,
    )
    from ..models import GraphTopology
    from ..viz import render_partition

    name, _, arg = args.graph.partition(":")
    if name == "ring":
        topology = GraphTopology.ring(int(arg))
    elif name == "path":
        topology = GraphTopology.path(int(arg))
    elif name == "star":
        topology = GraphTopology.star(int(arg))
    elif name == "clique":
        topology = GraphTopology.complete(int(arg))
    elif name == "bipartite":
        m, n = (int(x) for x in arg.split(","))
        topology = GraphTopology.complete_bipartite(m, n)
    else:
        raise SystemExit(f"unknown graph {args.graph!r}")
    n = topology.n
    fixpoint = color_refinement_fixpoint(topology)
    print(f"graph: {args.graph} (n={n}, labelings={topology.labeling_count()})")
    print(
        "color-refinement fixpoint (canonical labeling):",
        render_partition([frozenset(b) for b in fixpoint]),
    )
    if topology.labeling_count() > args.labeling_limit:
        print(
            f"worst case skipped: {topology.labeling_count()} labelings "
            f"exceed --labeling-limit {args.labeling_limit}"
        )
        return 0
    verdict = worst_case_deterministic_solvable(
        topology, leader_election(n), limit=args.labeling_limit
    )
    print(
        "worst-case deterministic leader election:",
        "YES" if verdict else "NO",
    )
    return 0


def cmd_mermaid(args) -> int:
    """Print the consistency chain's refinement lattice as mermaid."""
    from ..viz import chain_to_mermaid

    alpha, chain = _chain(args)
    task = _make_task(args.task, alpha.n)
    print(chain_to_mermaid(chain, task, max_states=args.max_states))
    return 0

