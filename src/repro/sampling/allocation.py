"""Adaptive sampling of one mergeable MC cell.

Simulation-optimization discipline (PyMOSO's framing): spend increments
until the Wilson interval is narrow enough, never re-spending what a
previous round (or a previous *run*, through the memo) already bought.
Because cell estimates are range-extensions of one fixed substream, an
adaptive schedule reaching ``m`` samples is bit-identical to a single
``m``-sample run -- adaptivity changes only *when* you stop, not what
you measure.
"""

from __future__ import annotations

from typing import Mapping

from ..obs import OBS
from .estimator import MCEstimate, sample_range
from .kernel import BLOCK_SAMPLES

#: One substream block: the natural unit of both the first look and each
#: adaptive top-up (full blocks are what the memo can serve and store).
DEFAULT_INITIAL = BLOCK_SAMPLES
DEFAULT_INCREMENT = BLOCK_SAMPLES


def _extend(cell: Mapping, estimate: MCEstimate, by: int) -> MCEstimate:
    """Grow ``estimate`` by the next ``by`` samples of the cell's stream."""
    grown = sample_range(
        cell["alpha"],
        cell["task"],
        cell["t"],
        cell.get("ports"),
        stream_seed=cell["stream_seed"],
        start=estimate.samples,
        stop=estimate.samples + by,
        method=cell.get("method", "auto"),
        use_memo=cell.get("use_memo", True),
    )
    return estimate.merge(grown)


def _width(estimate: MCEstimate, confidence: float) -> float:
    low, high = estimate.interval(confidence)
    return high - low


def adaptive_cell_estimate(
    alpha,
    task,
    t: int,
    ports=None,
    *,
    stream_seed: int,
    target_width: float,
    confidence: float = 0.95,
    initial: int = DEFAULT_INITIAL,
    increment: int = DEFAULT_INCREMENT,
    max_samples: int = 64 * BLOCK_SAMPLES,
    method: str = "auto",
    use_memo: bool = True,
) -> MCEstimate:
    """Sample one cell until its interval is narrow enough (or the cap).

    Deterministic given the cell and the schedule parameters: stopping
    depends only on integer success counts, which are pure functions of
    the stream.
    """
    if not 0 < target_width < 1:
        raise ValueError("target_width must be in (0, 1)")
    if initial < 1 or increment < 1:
        raise ValueError("need positive initial and increment")
    cell = {
        "alpha": alpha,
        "task": task,
        "t": t,
        "ports": ports,
        "stream_seed": stream_seed,
        "method": method,
        "use_memo": use_memo,
    }
    estimate = _extend(cell, MCEstimate(0, 0), min(initial, max_samples))
    while (
        _width(estimate, confidence) > target_width
        and estimate.samples < max_samples
    ):
        if OBS.enabled:
            OBS.metrics.inc("mc.allocator.rounds")
        step = min(increment, max_samples - estimate.samples)
        estimate = _extend(cell, estimate, step)
    return estimate


__all__ = [
    "DEFAULT_INCREMENT",
    "DEFAULT_INITIAL",
    "adaptive_cell_estimate",
]
