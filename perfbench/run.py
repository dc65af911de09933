"""End-to-end benchmark of the ``repro`` CLI, with per-layer attribution.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload (see ``workloads.py``) is a single-client closed loop of
real CLI invocations, each a fresh interpreter started from this
process and timed from outside.  The loop repeats the workload's
iteration at least ``MIN_ITERATIONS`` times, and then while the next
iteration should end within ``--seconds``.

``--trace 0`` reports the end-to-end metrics, measured with tracing off:

* ``wall_s``: median over iterations of one iteration's invocations,
  back to back;
* ``setup_s``: median of several fresh ``import repro.cli`` +
  ``build_parser()`` interpreters;
* ``peak_rss_mb``: highest RSS of any process of the run, pool workers
  included (``wait4`` reports a child's peak over its reaped children).

``--trace 1`` alternates untraced iterations with iterations whose
invocations run under ``traced.py`` and reports the per-layer metrics:
span self times, counts, the import census of the ``cli`` layer, the
tracing overhead and the share of wall time no layer span covers.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` (invocations that exited non-zero or failed
their output check; ``failed / attempted`` is the error rate) and
``metrics``.  The lines before it are for people: run metadata (CPU
calibration time, versions, commit, seed), the import census's top-10
modules, the tail latency percentile and the layer table.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import shutil
import signal
import subprocess
import sys
import threading
import time
from statistics import median

from spans import fold_by_layer, fold_by_name, tail_percentile, unattributed_share
from workloads import WORKLOADS

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

#: Fresh interpreters timed for ``setup_s`` in every run.
SETUP_SAMPLES = 5
SETUP_CODE = "import repro.cli; repro.cli.build_parser()"

#: Wall-clock limit of a whole run; invocations still running then are
#: killed.
RUN_LIMIT_SECONDS = 160

#: Fewest untraced iterations a run makes, however long they take.
MIN_ITERATIONS = 5

#: Fixed CPU loop whose time (``calib_s``) tells a slow box from a slow
#: change; recorded with every run, never gated.
CALIBRATION_LOOPS = 2_000_000

#: Import-census modules reported as ``cli.import.<short>_s``.
CENSUS_MODULES = {
    "numpy": "numpy",
    "networkx": "networkx",
    "chain": "repro.chain",
    "core": "repro.core",
    "obs": "repro.obs",
}

#: The generators of ``repro.analysis.ALL_EXPERIMENTS``, in paper order.
EXPERIMENTS = (
    "figure1_protocol_complex",
    "figure2_realization_complex",
    "figure3_output_projection",
    "figure4_solvability_equivalence",
    "lemma_b1_equiprobability",
    "theorem41_blackboard",
    "theorem41_convergence",
    "theorem42_message_passing",
    "lemma43_divisibility",
    "algorithm1_matching",
    "euclid_protocol",
    "theoremC1_reduction",
    "extension_k_leader",
    "extension_task_zoo",
    "extension_expected_times",
    "extension_anonymous_graphs",
    "ring_labeling_census",
    "protocol_round_complexity",
    "worst_case_port_search",
    "symmetry_census",
    "convergence_rates",
)


class Invocation:
    """One CLI process: its argv, wall time, peak RSS, output, trace and
    (for workloads that compare them) its records; ``ok`` is false after
    a non-zero exit or a failed check."""

    def __init__(self, label, argv, returncode, wall, maxrss_kb, stdout,
                 stderr, trace=None):
        self.label = label
        self.argv = argv
        self.wall = wall
        self.maxrss_kb = maxrss_kb
        self.stdout = stdout
        self.stderr = stderr
        self.trace = trace
        self.records = None
        self.ok = returncode == 0

    def check(self, passed: bool) -> None:
        if not passed and self.ok:
            self.ok = False
            print(f"check failed: {self.label} {' '.join(self.argv)}",
                  file=sys.stderr)

    def tail(self) -> str:
        return (self.stdout + self.stderr)[-2000:]


class Bench:
    """Starts and times processes; owns the run's scratch directory."""

    def __init__(self, root: pathlib.Path, work: pathlib.Path) -> None:
        self.root = root
        self.work = work
        self.env = dict(os.environ)
        self.env.pop("REPRO_TRACE", None)
        self.env["PYTHONPATH"] = str(root / "src")
        self.env["TMPDIR"] = str(work / "tmp")
        (work / "tmp").mkdir(parents=True, exist_ok=True)
        self.deadline = time.perf_counter() + RUN_LIMIT_SECONDS
        self._count = 0

    def fresh_dir(self, name: str) -> pathlib.Path:
        path = self.work / name
        if path.exists():
            shutil.rmtree(path)
        path.mkdir(parents=True)
        return path

    def spawn(self, cmd: list[str]):
        """Run ``cmd`` to completion: ``(status, wall_s, maxrss_kb,
        stdout, stderr)``."""
        self._count += 1
        out_path = self.work / f"stdout-{self._count}"
        err_path = self.work / f"stderr-{self._count}"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.root, env=self.env,
                                    stdout=out, stderr=err,
                                    start_new_session=True)
            # A hung invocation is killed, with its pool workers, so
            # the run still ends in time; it then counts as failed.
            killer = threading.Timer(
                max(1.0, self.deadline - start),
                kill_group, (proc.pid,))
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        # Reaped by wait4 above; telling Popen keeps it from waiting again.
        proc.returncode = os.waitstatus_to_exitcode(status)
        stdout = out_path.read_text(errors="replace")
        stderr = err_path.read_text(errors="replace")
        out_path.unlink()
        err_path.unlink()
        return proc.returncode, wall, usage.ru_maxrss, stdout, stderr

    def invoke(self, label: str, argv: list[str], traced: bool) -> Invocation:
        """One ``repro`` invocation, plain or under ``traced.py``."""
        trace_path = self.work / "trace.json"
        trace_path.unlink(missing_ok=True)
        if traced:
            cmd = [sys.executable, str(HERE / "traced.py"), str(trace_path),
                   "--", *argv]
        else:
            cmd = [sys.executable, "-m", "repro", *argv]
        status, wall, rss, stdout, stderr = self.spawn(cmd)
        trace = None
        if traced and trace_path.is_file():
            trace = json.loads(trace_path.read_text())
            trace_path.unlink()
        run = Invocation(label, argv, status, wall, rss, stdout, stderr, trace)
        run.ok = run.ok and (trace is not None or not traced)
        if not run.ok:
            print(f"invocation failed ({status}): {label}\n{run.tail()}",
                  file=sys.stderr)
        return run

    def setup_time(self) -> float:
        """One fresh ``import repro.cli`` + ``build_parser()`` process."""
        status, wall, *_ = self.spawn([sys.executable, "-c", SETUP_CODE])
        if status != 0:
            raise RuntimeError("import repro.cli failed")
        return wall


def kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def calibrate() -> float:
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(CALIBRATION_LOOPS):
            total += i * i
        best = min(best, time.perf_counter() - start)
    return best


def git_commit(root: pathlib.Path) -> "str | None":
    """The checkout's commit, read from ``.git`` without running git."""
    head = root / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if not text.startswith("ref: "):
            return text
        ref = text[5:]
        path = root / ".git" / ref
        if path.is_file():
            return path.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_metadata(root: pathlib.Path, workload: str, seed: int) -> dict:
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(root),
        "calib_s": calibrate(),
    }


def import_census(bench: Bench, samples: int = 3) -> tuple[dict, list]:
    """``cli`` layer metrics from fresh ``-X importtime`` interpreters
    (median per module), plus the top-10 modules by self time."""
    code = ("import sys, repro.cli; repro.cli.build_parser(); "
            "print(len(sys.modules), int('networkx' in sys.modules))")
    cumulative: dict[str, list[float]] = {}
    own: dict[str, list[float]] = {}
    loaded = networkx = 0
    for _ in range(samples):
        status, _, _, stdout, stderr = bench.spawn(
            [sys.executable, "-X", "importtime", "-c", code])
        if status != 0:
            raise RuntimeError(f"import census failed:\n{stderr[-2000:]}")
        loaded, networkx = (int(x) for x in stdout.split())
        for line in stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            fields = line[len("import time:"):].split("|")
            if not fields[0].strip().isdigit():
                continue
            name = fields[2].strip()
            own.setdefault(name, []).append(int(fields[0]) / 1e6)
            cumulative.setdefault(name, []).append(int(fields[1]) / 1e6)
    metrics = {"cli.modules_loaded": loaded, "cli.networkx_loaded": networkx}
    for short, module in CENSUS_MODULES.items():
        metrics[f"cli.import.{short}_s"] = median(cumulative.get(module, [0.0]))
    top = sorted(((median(v), k) for k, v in own.items()), reverse=True)[:10]
    return metrics, [{"module": k, "self_s": v} for v, k in top]


def layer_metrics(invocations: list[Invocation]) -> dict:
    """Per-layer counts and self times of one traced iteration."""
    spans: dict[str, list] = {}
    counters: dict[str, int] = {}
    hist_sums: dict[str, float] = {}
    tallies: dict[str, float] = {}
    for invocation in invocations:
        trace = invocation.trace
        for name, (calls, own) in fold_by_name(trace["spans"]).items():
            entry = spans.setdefault(name, [0, 0.0])
            entry[0] += calls
            entry[1] += own
        metrics = trace["metrics"]
        for name, value in metrics.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + int(value)
        for name, hist in metrics.get("histograms", {}).items():
            hist_sums[name] = hist_sums.get(name, 0.0) + float(hist["sum"])
        for name, value in trace["tallies"].items():
            tallies[name] = tallies.get(name, 0.0) + value

    def calls(name):
        return spans.get(name, [0, 0.0])[0]

    def own(name):
        return spans.get(name, [0, 0.0])[1]

    def count(name):
        return counters.get(name, 0)

    def ratio(part, whole):
        return part / whole if whole else 0.0

    compile_calls = sum(
        count(f"chain.compile.{kind}")
        for kind in ("hit.memo", "hit.shm", "hit.disk", "miss", "unmemoized")
    )
    memo_hit, memo_miss = count("results.memo.hit"), count("results.memo.miss")
    out = {f"analysis.exp.{name}_s": own(f"analysis.exp.{name}")
           for name in EXPERIMENTS}
    out.update({
        "analysis.symmetry.self_s": own("analysis.symmetry"),
        "algorithms.network.runs": calls("algorithms.network"),
        "algorithms.network.self_s": own("algorithms.network"),
        "chain.compile.calls": compile_calls,
        "chain.compile.built": (count("chain.compile.miss")
                                + count("chain.compile.unmemoized")),
        "chain.compile.states": int(tallies.get("chain.compile.states", 0)),
        "chain.compile.memo_hit_ratio": ratio(count("chain.compile.hit.memo"),
                                              compile_calls),
        "chain.compile.self_s": own("chain.compile"),
        "chain.quotient.calls": count("chain.compile.quotient"),
        "chain.quotient.orbits": int(hist_sums.get("chain.quotient.orbits", 0)),
        "chain.quotient.full_states": int(
            hist_sums.get("chain.quotient.full_states", 0)),
        "chain.quotient.self_s": own("chain.quotient"),
        "chain.query.calls": calls("chain.query"),
        "chain.query.self_s": own("chain.query"),
        "runner.jobs": count("runner.jobs"),
        "runner.sweep.self_s": own("runner.sweep"),
        "runner.pool.first_result_s": tallies.get(
            "runner.pool.first_result_s", 0.0),
        "runner.pool.wait_s": own("runner.pool.wait"),
        "results.memo.hit": memo_hit,
        "results.memo.miss": memo_miss,
        "results.memo.hit_ratio": ratio(memo_hit, memo_hit + memo_miss),
        "results.ingest_s": own("results.ingest"),
        "results.ingest.rows": count("results.store.rows_ingested"),
        "results.query_s": own("results.query"),
        "sampling.blocks": count("mc.blocks"),
        "sampling.memo_hit": count("mc.memo.hit"),
        "sampling.kernel_s": own("sampling.kernel"),
    })
    return out


def iteration_wall(runs: list[Invocation]) -> float:
    return sum(run.wall for run in runs)


def measure(workload, bench: Bench, seconds: float, traced: bool):
    """The timed closed loop: ``(untraced iterations, traced iterations,
    set-up times)``.

    Untraced runs repeat iterations while the next one is expected to
    end within ``seconds``, and make at least ``MIN_ITERATIONS``; the
    ``SETUP_SAMPLES`` set-up times are taken between iterations, so
    they sample the same stretch of time.  Traced runs alternate
    untraced and traced iterations, at least one of each, and time no
    set-up.
    """
    untraced, traced_runs, setup = [], [], []
    if not traced:
        bench.setup_time()  # untimed: a fresh checkout compiles bytecode
        setup.append(bench.setup_time())
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        index = len(untraced) + len(traced_runs)
        if traced and len(untraced) > len(traced_runs):
            traced_runs.append(workload.iteration(bench, index, True))
        else:
            untraced.append(workload.iteration(bench, index, False))
        last = time.perf_counter() - began
        while not traced and len(setup) < min(len(untraced) + 1,
                                              SETUP_SAMPLES):
            setup.append(bench.setup_time())
        have_one = untraced and (traced_runs or not traced)
        enough = have_one and (traced or len(untraced) >= MIN_ITERATIONS)
        now = time.perf_counter()
        if enough and now - start + last > seconds or (
            have_one and now + 2 * last > bench.deadline
        ):
            while not traced and len(setup) < SETUP_SAMPLES:
                setup.append(bench.setup_time())
            return untraced, traced_runs, setup


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    # One directory per run, so runs sharing a checkout never collide.
    work = WORK / str(os.getpid())
    bench = Bench(ROOT, work)
    try:
        return run(args, bench)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it


def run(args, bench: Bench) -> int:
    meta = run_metadata(ROOT, args.workload, args.seed)
    print("run " + json.dumps(meta, sort_keys=True))
    workload = WORKLOADS[args.workload](args.seed)
    workload.prepare(bench)
    untraced, traced, setup = measure(workload, bench, args.seconds,
                                      bool(args.trace))
    workload.finish(bench, untraced + traced)

    invocations = [run for runs in untraced + traced for run in runs]
    failed = sum(not run.ok for run in invocations)
    latencies = [run.wall for runs in untraced for run in runs]
    tail = tail_percentile(latencies)
    print("iteration walls (s): "
          + " ".join(f"{iteration_wall(runs):.3f}" for runs in untraced))
    print(f"invocations: {len(invocations)} attempted, {failed} failed "
          f"(error rate {failed / len(invocations):.4f})")
    print(f"invocation latency: p50 {median(latencies):.4f}s over "
          f"{len(latencies)} samples; "
          + (f"p{tail[0]:g} {tail[1]:.4f}s" if tail
             else "no percentile has 10 samples beyond it"))
    if args.trace:
        metrics = per_layer_metrics(bench, untraced, traced)
    else:
        metrics = {
            "wall_s": median([iteration_wall(runs) for runs in untraced]),
            "setup_s": median(setup),
            "peak_rss_mb": max(run.maxrss_kb for run in invocations) / 1024.0,
        }
    result = {
        "correct": failed == 0,
        "attempted": len(invocations),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit_of(name)}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(result, sort_keys=True))
    return 0


def per_layer_metrics(bench: Bench, untraced: list, traced: list) -> dict:
    """Import census, per-layer counts and self times, and tracing
    health; prints the census's top-10 modules and the layer table."""
    metrics, top = import_census(bench)
    print("import census top-10 (self s): " + json.dumps(top))
    per_iteration = [layer_metrics(runs) for runs in traced]
    for name, value in per_iteration[0].items():
        if unit_of(name) == "s":
            metrics[name] = median([m[name] for m in per_iteration])
        else:
            metrics[name] = value
    metrics["trace.overhead_ratio"] = (
        median([iteration_wall(runs) for runs in traced])
        / median([iteration_wall(runs) for runs in untraced]))
    metrics["trace.unattributed_share"] = median([
        unattributed_share((run.wall, run.trace["spans"]) for run in runs)
        for runs in traced
    ])
    layers: dict[str, float] = {}
    for invocation in traced[0]:
        for layer, own in fold_by_layer(invocation.trace["spans"]).items():
            layers[layer] = layers.get(layer, 0.0) + own
    print("layer self time (s), first traced iteration: "
          + json.dumps(dict(sorted(layers.items()))))
    for name in sorted(metrics):
        print(f"  {name:46s} {metrics[name]}")
    return metrics


def unit_of(name: str) -> str:
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_share")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
