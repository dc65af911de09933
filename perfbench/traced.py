"""Run one ``repro`` CLI invocation with layer spans recorded around it.

Usage (from the root of a checkout, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/traced.py TRACE.json -- <repro arguments ...>

The program's own code is not changed: after ``import repro.cli`` the
public entry point of each layer is replaced by a span-recording wrapper
in every loaded ``repro`` module that binds it (and in the defining
module, so later ``from ... import`` statements bind the wrapper too).
The program's own counters (``repro.obs``, the registry that
``--profile-out`` writes, folded over pool workers) are switched on and
read when the command returns.  Spans, tallies and counters are written
to ``TRACE.json`` once, at the end; the command's stdout is left alone.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

from spans import SpanRecorder

#: ``(module, function, span)``: layer entry points bound by name.
FUNCTION_TARGETS = (
    ("repro.chain.engine", "compile_chain", "chain.compile"),
    ("repro.chain.quotient", "compile_quotient", "chain.quotient"),
    ("repro.chain.batch", "run_queries", "chain.query"),
    ("repro.chain.multi", "run_group_queries", "chain.query"),
    ("repro.analysis.symmetry", "source_preserving_automorphisms",
     "analysis.symmetry"),
    ("repro.analysis.symmetry", "has_nontrivial_automorphism",
     "analysis.symmetry"),
    ("repro.analysis.report", "write_report", "analysis.report"),
    ("repro.runner.sweep", "run_sweep", "runner.sweep"),
    ("repro.sampling.kernel", "block_indicators", "sampling.kernel"),
)

#: ``(module, class, method, span)``: layer entry points reached
#: through an instance.
METHOD_TARGETS = (
    ("repro.algorithms.network", "_BaseNetwork", "run", "algorithms.network"),
    ("repro.results.store", "ResultsStore", "ingest_run_directory",
     "results.ingest"),
    ("repro.results.store", "ResultsStore", "ingest_jsonl", "results.ingest"),
    ("repro.results.store", "ResultsStore", "table", "results.query"),
    ("repro.results.query", "Table", "group_by", "results.query"),
    ("repro.results.memo", "QueryMemo", "lookup", "results.memo"),
    ("repro.results.memo", "QueryMemo", "record", "results.memo"),
)


def rebind(original, replacement) -> None:
    """Point every ``repro`` module attribute that is ``original`` at
    ``replacement``."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)


def timed_results(recorder: SpanRecorder, results, began: float):
    """Yield a pool's results, recording each blocking wait as a
    ``runner.pool.wait`` span and the delay to the first result."""
    first = True
    try:
        while True:
            index = recorder.open("runner.pool.wait")
            try:
                item = next(results)
            except StopIteration:
                return
            finally:
                recorder.close(index)
            if first:
                recorder.tallies["runner.pool.first_result_s"] += (
                    time.perf_counter() - began
                )
                first = False
            yield item
    finally:
        close = getattr(results, "close", None)
        if close is not None:
            close()


def install(recorder: SpanRecorder) -> None:
    """Wrap every layer entry point (see the target tables)."""
    for module_name, attr, span in FUNCTION_TARGETS:
        original = getattr(importlib.import_module(module_name), attr)
        rebind(original, recorder.wrap(span, original))
    for module_name, class_name, attr, span in METHOD_TARGETS:
        cls = getattr(importlib.import_module(module_name), class_name)
        setattr(cls, attr, recorder.wrap(span, cls.__dict__[attr]))

    engine = importlib.import_module("repro.chain.engine")
    build = engine._build_chain

    def counted_build(key, alpha):
        chain = build(key, alpha)
        recorder.tallies["chain.compile.states"] += chain.num_states
        return chain

    engine._build_chain = counted_build

    engines = importlib.import_module("repro.runner.engines")
    pool_map = engines.ProcessPoolEngine.map

    def traced_map(self, fn, payloads):
        began = time.perf_counter()
        return timed_results(recorder, iter(pool_map(self, fn, payloads)), began)

    engines.ProcessPoolEngine.map = traced_map

    analysis = importlib.import_module("repro.analysis")
    experiments = analysis.ALL_EXPERIMENTS
    rebind(
        experiments,
        tuple(
            recorder.wrap(f"analysis.exp.{generator.__name__}", generator)
            for generator in experiments
        ),
    )


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: traced.py TRACE.json -- <repro arguments ...>",
              file=sys.stderr)
        return 2
    out_path, args = argv[0], argv[2:]
    recorder = SpanRecorder()
    index = recorder.open("cli.import")
    import repro.cli

    recorder.close(index)
    install(recorder)
    from repro.obs import OBS, configure_tracing

    configure_tracing(True)
    index = recorder.open("cli.main")
    try:
        status = repro.cli.main(args)
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
        status = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    finally:
        recorder.close(index)
    sys.stdout.flush()
    document = {
        "spans": recorder.rows(),
        "tallies": dict(recorder.tallies),
        "metrics": OBS.metrics.snapshot(),
    }
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(document, handle)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
