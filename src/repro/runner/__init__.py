"""repro.runner -- parallel experiment orchestration.

The runner is the package's vertical slice from *spec* to *report*:

* :mod:`repro.runner.spec` -- the declarative sweep grammar
  (:class:`RunSpec`, :class:`SweepSpec`) and the deterministic
  ``(master_seed, job_key)`` seed-derivation scheme;
* :mod:`repro.runner.engines` -- pluggable execution
  (:class:`SerialEngine`, :class:`ProcessPoolEngine`) with one contract:
  results come back in job order, identical for any worker count;
* :mod:`repro.runner.persistence` -- :class:`RunDirectory`, a JSONL
  stream of completed jobs that makes every sweep resumable;
* :mod:`repro.runner.sweep` -- :func:`run_sweep`, which wires the layers
  together and folds records into an
  :class:`~repro.analysis.result.ExperimentResult`;
* :mod:`repro.runner.worker` -- the picklable job executors that run
  inside pool workers.

Quickstart::

    from repro.runner import ProcessPoolEngine, SweepSpec, run_sweep

    sweep = SweepSpec.for_total_size(5, models=("blackboard", "clique"))
    outcome = run_sweep(
        sweep, engine=ProcessPoolEngine(workers=4), run_dir="runs/demo"
    )
    print(outcome.result().render())

See ``RUNNER.md`` at the repository root for the grammar, the seed
scheme, and the run-directory layout.
"""

from .. import _lazy

__getattr__, __dir__ = _lazy.exports(__name__, {
    ".engines": (
        "ENGINE_NAMES",
        "ExecutionEngine",
        "ProcessPoolEngine",
        "SerialEngine",
        "make_engine",
    ),
    ".persistence": ("RunDirectory",),
    ".spec": (
        "KINDS",
        "MODELS",
        "PORT_KINDS",
        "RunSpec",
        "SweepSpec",
        "derive_seed",
        "make_ports",
        "make_task",
        "parse_sizes",
    ),
    ".sweep": ("SweepOutcome", "aggregate_records", "run_sweep"),
    ".worker": ("execute_experiment", "execute_port_chunk", "execute_run"),
})

__all__ = [
    "ENGINE_NAMES",
    "KINDS",
    "MODELS",
    "PORT_KINDS",
    "ExecutionEngine",
    "ProcessPoolEngine",
    "RunDirectory",
    "RunSpec",
    "SerialEngine",
    "SweepOutcome",
    "SweepSpec",
    "aggregate_records",
    "derive_seed",
    "execute_experiment",
    "execute_port_chunk",
    "execute_run",
    "make_engine",
    "make_ports",
    "make_task",
    "parse_sizes",
    "run_sweep",
]
