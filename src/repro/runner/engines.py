"""Execution engines: serial and process-pool job mapping.

An engine maps a picklable worker function over a list of payloads and
yields the results **in payload order** -- the one contract the rest of
the runner relies on.  Because every job derives its own seed from the
sweep's master seed and its key (see :mod:`repro.runner.spec`), the
engines are interchangeable: ``SerialEngine`` and ``ProcessPoolEngine``
with any worker count produce identical results, differing only in
wall-clock time.

Results are yielded lazily so the persistence layer can append each
record to its JSONL log as soon as the engine hands it back.  With the
process pool that hand-back is per *chunk* in submission order (the
``Executor.map`` contract), so a killed sweep re-runs every finished job
not yet yielded in order -- typically around ``workers * chunksize``
jobs, but more if an early chunk straggles behind later ones.  Resumes
are always safe (jobs re-run; records never corrupt), just not always
minimal.
"""

from __future__ import annotations

import abc
import os
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Iterable, Iterator

from ..context import ENGINE_NAMES


class ExecutionEngine(abc.ABC):
    """Maps a worker function over payloads, preserving payload order."""

    #: Engine name as spelled on the CLI (``--engine``).
    name: str = "abstract"

    @abc.abstractmethod
    def map(
        self, fn: Callable[[dict], dict], payloads: Iterable[dict]
    ) -> Iterator[dict]:
        """Yield ``fn(payload)`` for each payload, in order."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class SerialEngine(ExecutionEngine):
    """In-process execution, one job at a time (the default path)."""

    name = "serial"

    def map(
        self, fn: Callable[[dict], dict], payloads: Iterable[dict]
    ) -> Iterator[dict]:
        """Yield ``fn(payload)`` lazily, in payload order."""
        return (fn(payload) for payload in payloads)


class ProcessPoolEngine(ExecutionEngine):
    """``concurrent.futures`` process-pool execution with chunked dispatch.

    ``workers`` defaults to ``os.cpu_count()``; ``chunksize`` defaults to
    roughly four chunks per worker so stragglers rebalance while keeping
    pickling overhead amortized.  Worker functions must be module-level
    (see :mod:`repro.runner.worker`) so they pickle by reference.
    """

    name = "process"

    def __init__(
        self,
        workers: int | None = None,
        chunksize: int | None = None,
    ):
        if workers is not None and workers < 1:
            raise ValueError("workers must be >= 1")
        if chunksize is not None and chunksize < 1:
            raise ValueError("chunksize must be >= 1")
        self.workers = workers or os.cpu_count() or 1
        self.chunksize = chunksize

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ProcessPoolEngine(workers={self.workers})"

    def map(
        self, fn: Callable[[dict], dict], payloads: Iterable[dict]
    ) -> Iterator[dict]:
        """Yield ``fn(payload)`` in payload order, computed on the pool.

        Sized inputs (lists/tuples) go through ``Executor.map`` with
        chunked dispatch.  Other iterables are *streamed*: payloads are
        submitted in a bounded window of ``workers * 4`` outstanding
        futures, so memory stays proportional to the window, not the
        full payload stream (callers like the worst-case port sweep
        generate far more payloads than fit in RAM).
        """
        if isinstance(payloads, (list, tuple)):
            payloads = list(payloads)
            if not payloads:
                return iter(())
            chunksize = self.chunksize or max(
                1, len(payloads) // (self.workers * 4)
            )

            def generate() -> Iterator[dict]:
                with ProcessPoolExecutor(max_workers=self.workers) as pool:
                    self._active = pool
                    try:
                        yield from pool.map(
                            fn, payloads, chunksize=chunksize
                        )
                    finally:
                        self._active = None

            return generate()
        return self._map_streaming(fn, payloads)

    def _map_streaming(
        self, fn: Callable[[dict], dict], payloads: Iterable[dict]
    ) -> Iterator[dict]:
        """Order-preserving map over an unsized stream, bounded backlog."""
        from collections import deque

        def generate() -> Iterator[dict]:
            backlog = self.workers * 4
            pending: deque = deque()
            with ProcessPoolExecutor(max_workers=self.workers) as pool:
                self._active = pool
                try:
                    for payload in payloads:
                        pending.append(pool.submit(fn, payload))
                        if len(pending) >= backlog:
                            yield pending.popleft().result()
                    while pending:
                        yield pending.popleft().result()
                finally:
                    self._active = None

        return generate()

    #: The executor currently draining a :meth:`map` call, if any
    #: (set by the map generators; :meth:`terminate` targets it).
    _active: "ProcessPoolExecutor | None" = None

    def terminate(self) -> bool:
        """Kill the live pool's worker processes; ``True`` if any died.

        The stall watchdog's ``cancel`` action: terminating the
        workers makes the in-flight ``map`` iterator raise
        ``BrokenProcessPool``, which
        :func:`repro.obs.live.monitored_map` catches to resubmit every
        job not yet yielded on a fresh pool.  Safe to call from the
        monitor thread while the main thread blocks inside ``map``;
        a no-op (``False``) when no map is in flight.
        """
        pool = self._active
        if pool is None:
            return False
        processes = list(getattr(pool, "_processes", {}).values())
        for process in processes:
            try:
                process.terminate()
            except OSError:  # pragma: no cover - already gone
                pass
        return bool(processes)


def make_engine(
    name: str,
    workers: int | None = None,
    chunksize: int | None = None,
) -> ExecutionEngine:
    """Build an engine from its CLI spelling (``serial`` or ``process``)."""
    if name == "serial":
        return SerialEngine()
    if name == "process":
        return ProcessPoolEngine(workers=workers, chunksize=chunksize)
    raise ValueError(f"unknown engine {name!r}")


__all__ = [
    "ENGINE_NAMES",
    "ExecutionEngine",
    "ProcessPoolEngine",
    "SerialEngine",
    "make_engine",
]
