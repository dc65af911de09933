"""The benchmark's workloads: which ``repro`` invocations make one
iteration, and how each invocation's output is checked.

Every workload is a closed loop of one client: the next CLI invocation
starts when the previous one has exited.  An iteration is the
workload's fixed sequence of invocations; ``run.py`` repeats iterations
for the run's duration.  A check that fails marks its invocation
failed, which is what ``failed`` (and so the error rate) counts.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import random
import shutil
from fractions import Fraction

HERE = pathlib.Path(__file__).resolve().parent

#: sha256 digests of outputs that are byte-stable at every seed.
EXPECTED = json.loads((HERE / "expected.json").read_text())

#: Workload name -> the one-line reason it is in the benchmark.
WHY = {
    "report": "the paper reproduction itself: exhaustive port enumeration, "
    "query kernels and protocol simulation; bypasses the pool and warehouse",
    "phase_diagram": "exact phase-diagram 9: quotient orbit canonicalization "
    "on 60 large chains; bypasses port enumeration",
    "warehouse_cold": "pooled exact and Monte-Carlo sweeps into a fresh "
    "warehouse, then a top-up: pool spawn/IPC, MC kernel and store writes",
    "warehouse_warm": "the same sweeps served from a warm warehouse memo, "
    "then a grouped query: the read path of the same layers",
    "oneshot": "one fresh-interpreter solve/series/expected-time/run/estimate "
    "query per iteration on n<=5 shapes, drawn by the seed: import dominates",
}


def sha256_file(path: pathlib.Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_records(run_dir: pathlib.Path) -> list[str]:
    """A run's records, canonically serialized, without ``elapsed``.

    ``elapsed`` is the job's measured duration, not a result; every
    other field must match byte for byte across routes.
    """
    lines = (run_dir / "records.jsonl").read_text().splitlines()
    records = []
    for line in lines:
        record = json.loads(line)
        record.pop("elapsed", None)
        records.append(json.dumps(record, sort_keys=True))
    return records


def sweep_ok(invocation, jobs: int) -> bool:
    return invocation.ok and (
        f"jobs: {jobs} total, {jobs} executed, 0 resumed" in invocation.stdout
    )


class Workload:
    """Base: ``prepare`` once per run, ``iteration`` in the timed loop,
    ``finish`` after it for checks too slow to repeat."""

    name = ""

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def prepare(self, bench) -> None:
        pass

    def iteration(self, bench, index: int, traced: bool) -> list:
        raise NotImplementedError

    def finish(self, bench, iterations: list[list]) -> None:
        pass


class Report(Workload):
    name = "report"

    def iteration(self, bench, index, traced):
        out = bench.fresh_dir(f"report-{index}")
        run = bench.invoke("report", ["report", str(out)], traced)
        run.check(
            "21/21 experiments pass" in run.stdout
            and (out / "experiments.json").is_file()
            and sha256_file(out / "experiments.json")
            == EXPECTED["report_experiments_json"]
        )
        return [run]


class PhaseDiagram(Workload):
    name = "phase_diagram"

    def iteration(self, bench, index, traced):
        run = bench.invoke("phase-diagram", ["phase-diagram", "9"], traced)
        run.check(
            hashlib.sha256(run.stdout.encode()).hexdigest()
            == EXPECTED["phase_diagram_9_stdout"]
        )
        return [run]


#: Exact sweep: every shape of n=7, both models, two port kinds.
EXACT_JOBS = 45
#: Monte-Carlo sweep: every shape of n=6 (default models and ports).
MC_JOBS = 22
MC_SAMPLES = 20000
TOPUP_SAMPLES = 40000


def sweep_argv(kind: str, run_dir, warehouse, master_seed: int,
               samples: int = MC_SAMPLES) -> list[str]:
    if kind == "exact":
        shape = ["--n", "7", "--models", "blackboard", "clique",
                 "--ports", "adversarial", "round-robin"]
    else:
        shape = ["--n", "6", "--kind", "sample", "--t", "6",
                 "--samples", str(samples)]
    return ["sweep", *shape, "--engine", "process", "--workers", "2",
            "--master-seed", str(master_seed), "--run-dir", str(run_dir),
            "--warehouse", str(warehouse)]


def master_seed_of(seed: int) -> int:
    return random.Random(f"warehouse:{seed}").randrange(1 << 31)


class WarehouseCold(Workload):
    """Fresh warehouse each iteration: exact and MC sweeps compute and
    write, then a top-up computes only the MC increment."""

    name = "warehouse_cold"

    def iteration(self, bench, index, traced):
        base = bench.fresh_dir(f"cold-{index}")
        warehouse = base / "warehouse"
        master = master_seed_of(self.seed)
        exact = bench.invoke(
            "sweep-exact-cold",
            sweep_argv("exact", base / "exact", warehouse, master), traced)
        exact.check(sweep_ok(exact, EXACT_JOBS))
        mc = bench.invoke(
            "sweep-mc-cold",
            sweep_argv("sample", base / "mc", warehouse, master), traced)
        mc.check(sweep_ok(mc, MC_JOBS))
        topup = bench.invoke(
            "sweep-mc-topup",
            sweep_argv("sample", base / "topup", warehouse, master,
                       TOPUP_SAMPLES), traced)
        topup.check(sweep_ok(topup, MC_JOBS))
        runs = [exact, mc, topup]
        for run, sub in zip(runs, ("exact", "mc", "topup")):
            if run.ok:
                run.records = read_records(base / sub)
        return runs

    def finish(self, bench, iterations):
        """Every iteration's records equal the first one's, and the
        first one's top-up obeys the merge law: each top-up cell's
        successes are the cold cell's plus samples [20000, 40000) of the
        same substream, recomputed in-process without the memo."""
        first = {run.label: run.records for run in iterations[0]}
        for runs in iterations[1:]:
            for run in runs:
                if first[run.label] is not None:
                    run.check(run.records == first[run.label])
        cold, topup = first["sweep-mc-cold"], first["sweep-mc-topup"]
        if cold is None or topup is None:
            return
        ok = merge_law_holds(
            [json.loads(r) for r in cold],
            [json.loads(r) for r in topup],
            master_seed_of(self.seed),
        )
        for runs in iterations:
            for run in runs:
                if run.label == "sweep-mc-topup":
                    run.check(ok)


def merge_law_holds(cold: list[dict], topup: list[dict], master_seed: int) -> bool:
    from repro.chain import configure_quotient
    from repro.randomness.configuration import RandomnessConfiguration
    from repro.runner.spec import RunSpec, derive_seed, make_ports, make_task
    from repro.sampling import sample_range

    configure_quotient("auto")
    if len(cold) != len(topup):
        return False
    for small, large in zip(cold, topup):
        spec = RunSpec.from_dict(large["spec"])
        if (
            RunSpec.from_dict(small["spec"]).stream_key != spec.stream_key
            or small["value"]["samples"] != MC_SAMPLES
            or large["value"]["samples"] != TOPUP_SAMPLES
        ):
            return False
        alpha = RandomnessConfiguration.from_group_sizes(spec.sizes)
        ports = make_ports(spec.ports, spec.sizes,
                           derive_seed(large["seed"], "ports"))
        stream = derive_seed(master_seed, "mc\x1f" + spec.stream_key)
        increment = sample_range(
            alpha, make_task(spec.task, alpha.n), spec.t, ports,
            stream_seed=stream, start=MC_SAMPLES, stop=TOPUP_SAMPLES,
            use_memo=False,
        )
        if large["value"]["successes"] != (
            small["value"]["successes"] + increment.successes
        ):
            return False
    return True


class WarehouseWarm(Workload):
    """Each iteration copies a warehouse the cold sweeps filled (set up
    once per run, untimed) and reruns the same sweeps against it, then
    queries it."""

    name = "warehouse_warm"

    def prepare(self, bench):
        base = bench.fresh_dir("warm-pristine")
        self.pristine = base / "warehouse"
        master = master_seed_of(self.seed)
        self.cold = {}
        for kind, jobs in (("exact", EXACT_JOBS), ("sample", MC_JOBS)):
            run = bench.invoke(
                f"prepare-{kind}",
                sweep_argv(kind, base / kind, self.pristine, master), False)
            if not sweep_ok(run, jobs):
                raise RuntimeError(f"warm warehouse set-up failed: {run.tail()}")
            self.cold[kind] = read_records(base / kind)
        self.expected_counts = group_counts(
            [json.loads(r) for rs in self.cold.values() for r in rs], 2)

    def iteration(self, bench, index, traced):
        base = bench.fresh_dir(f"warm-{index}")
        warehouse = base / "warehouse"
        shutil.copytree(self.pristine, warehouse)
        master = master_seed_of(self.seed)
        runs = []
        for kind, jobs in (("exact", EXACT_JOBS), ("sample", MC_JOBS)):
            run = bench.invoke(
                f"sweep-{kind}-warm",
                sweep_argv(kind, base / kind, warehouse, master), traced)
            run.check(
                sweep_ok(run, jobs)
                and read_records(base / kind) == self.cold[kind]
            )
            runs.append(run)
        query = bench.invoke(
            "results-query",
            ["results", "query", str(warehouse), "--group-by", "model,kind"],
            traced)
        query.check(parse_group_counts(query.stdout) == self.expected_counts)
        runs.append(query)
        return runs


def group_counts(records: list[dict], copies: int) -> dict:
    counts: dict = {}
    for record in records:
        key = (record["spec"]["model"], record["spec"]["kind"])
        counts[key] = counts.get(key, 0) + copies
    return counts


def parse_group_counts(stdout: str) -> dict:
    """``(model, kind) -> count`` from ``results query --group-by``."""
    counts = {}
    for line in stdout.splitlines():
        fields = line.split()
        if len(fields) == 3 and fields[2].isdigit():
            counts[(fields[0], fields[1])] = int(fields[2])
    return counts


#: One-shot queries on n <= 5 shapes; a run draws its sequence from here.
ONESHOT_POOL = (
    ("solve", "1,2"),
    ("solve", "2,2"),
    ("solve", "2,3", "--model", "clique"),
    ("solve", "2,2", "--model", "clique", "--ports", "round-robin"),
    ("solve", "1,2,2", "--model", "clique", "--ports", "round-robin"),
    ("solve", "1,4", "--task", "weak-sb"),
    ("solve", "1,1,3", "--task", "k-leader:2"),
    ("series", "1,2", "--t-max", "6"),
    ("series", "1,1,2", "--model", "clique", "--t-max", "5"),
    ("series", "1,3", "--task", "weak-sb", "--t-max", "6"),
    ("expected-time", "1,2"),
    ("expected-time", "1,4", "--model", "clique", "--ports", "round-robin"),
    ("expected-time", "1,1,1"),
    ("expected-time", "2,2", "--model", "clique"),
    ("run", "2,3", "--model", "clique", "--ports", "round-robin"),
    ("run", "1,2,2"),
    ("run", "1,1,3", "--model", "clique"),
    ("estimate", "1,2", "--t", "4", "--samples", "4000"),
    ("estimate", "1,1,2", "--model", "clique", "--t", "3", "--samples", "4000",
     "--seed", "3"),
    ("estimate", "1,1,1,1", "--t", "3", "--samples", "3000"),
)


class Oneshot(Workload):
    """One query per iteration, so the median iteration is the median
    query latency.  Queries come in rounds of one per command, so every
    seed runs the same mix of commands; the seed picks the shapes and
    the order."""

    name = "oneshot"

    def __init__(self, seed):
        super().__init__(seed)
        self.rng = random.Random(f"oneshot:{seed}")
        self.pending = []

    def iteration(self, bench, index, traced):
        if not self.pending:
            commands = sorted({query[0] for query in ONESHOT_POOL})
            self.pending = [
                list(self.rng.choice([q for q in ONESHOT_POOL
                                      if q[0] == command]))
                for command in commands
            ]
            self.rng.shuffle(self.pending)
        argv = self.pending.pop()
        return [bench.invoke(argv[0], argv, traced)]

    def finish(self, bench, iterations):
        """Recompute every answer in-process through ``run_queries``."""
        expected = {}
        for runs in iterations:
            for run in runs:
                key = tuple(run.argv)
                if key not in expected:
                    expected[key] = oneshot_answer(run.argv)
                run.check(parse_oneshot(run.argv[0], run.stdout) == expected[key])


def oneshot_answer(argv: list[str]):
    """The answer a one-shot query must print, computed in-process."""
    from repro.chain import Query, compile_chain, run_queries
    from repro.cli import build_parser
    from repro.randomness.configuration import RandomnessConfiguration
    from repro.runner.spec import make_ports, make_task

    args = build_parser().parse_args(argv)
    alpha = RandomnessConfiguration.from_group_sizes(args.sizes)
    task = make_task(args.task, alpha.n)
    ports = None
    if args.model == "clique":
        # Adversarial and round-robin ports ignore the seed.
        ports = make_ports(args.ports, args.sizes, 0)
    chain = compile_chain(alpha, ports)
    command = argv[0]
    if command in ("solve", "run"):
        return run_queries(chain, [Query.limit(task)])[0]
    if command == "series":
        return list(run_queries(chain, [Query.series(task, args.t_max)])[0])
    if command == "expected-time":
        return run_queries(chain, [Query.expected_time(task)])[0]
    from repro.analysis.montecarlo import estimate_solving_probability

    exact = run_queries(chain, [Query.probability(task, args.t)])[0]
    estimate = estimate_solving_probability(
        alpha, task, args.t, ports, samples=args.samples,
        confidence=args.confidence, seed=args.seed, method=args.method)
    if not estimate.low <= exact <= estimate.high:
        return "interval misses the exact value"
    return (estimate.successes, estimate.samples)


def parse_oneshot(command: str, stdout: str):
    """The answer a one-shot invocation printed (``None`` is an infinite
    expected time), or ``"unparsable"``."""
    try:
        if command == "solve":
            for line in stdout.splitlines():
                if line.startswith("limit of Pr[S(t)]: "):
                    return Fraction(line.split(": ", 1)[1])
        elif command == "series":
            rows = [line.split() for line in stdout.splitlines()[2:]]
            return [Fraction(row[1]) for row in rows if row]
        elif command == "expected-time":
            if "infinite" in stdout:
                return None
            text = stdout.split("solving state: ", 1)[1].split()[0]
            return Fraction(text)
        elif command == "run":
            return Fraction(json.loads(stdout)["value"]["limit"])
        elif command == "estimate":
            answer = json.loads(stdout)
            return (answer["successes"], answer["samples"])
    except (ValueError, KeyError, IndexError, ZeroDivisionError):
        pass
    return "unparsable"


WORKLOADS = {
    cls.name: cls
    for cls in (Report, PhaseDiagram, WarehouseCold, WarehouseWarm, Oneshot)
}
