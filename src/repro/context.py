"""The execution context: every process-wide switch in one frozen value.

A :class:`Context` says how this process computes -- quotient mode,
tracing, and the caches and side channels it reads and writes -- never
what.  :func:`current` reads the one module slot (a plain global, not a
``contextvar``: no engine runs jobs on threads); :func:`use` enters a
context for a ``with`` block and always restores the previous one.
Pool payloads carry a context whole and workers run each job under it.
Tiers with derived state re-sync it through :func:`on_enter` hooks.
See RUNNER.md, "Execution context".
"""

from __future__ import annotations

import contextlib
import dataclasses
import os

#: Valid quotient-compilation modes (see :func:`repro.chain.resolve_quotient`).
QUOTIENT_MODES = ("off", "auto", "on")


@dataclasses.dataclass(frozen=True)
class Context:
    """How this process computes; see the module docstring."""

    #: ``"off"`` compiles full chains, ``"on"`` always the quotient,
    #: ``"auto"`` the quotient when a nontrivial automorphism exists.
    quotient: str = "off"
    #: Span tracing and metric collection (``repro.obs``).
    trace: bool = False
    #: Directory of the on-disk compiled-chain cache.
    chain_cache: "str | None" = None
    #: Directory of the cross-run query memo (a warehouse's ``memo/``).
    results_memo: "str | None" = None
    #: Directory workers append live heartbeats to (``repro.obs.live``).
    heartbeat_dir: "str | None" = None
    #: Minimum seconds between two throttled heartbeats.
    heartbeat_interval: float = 1.0

    def __post_init__(self) -> None:
        if self.quotient not in QUOTIENT_MODES:
            raise ValueError(
                f"unknown quotient mode {self.quotient!r}; expected one "
                f"of {QUOTIENT_MODES}"
            )


_CURRENT = Context(trace=os.environ.get("REPRO_TRACE", "0") not in ("", "0"))
_HOOKS: list = []


def current() -> Context:
    """The active context."""
    return _CURRENT


def _activate(context: Context) -> None:
    global _CURRENT
    _CURRENT = context
    for hook in _HOOKS:
        hook(context)


@contextlib.contextmanager
def use(context: "Context | None" = None, **changes):
    """Run the ``with`` block under ``context`` (default: the active one)
    with ``changes`` applied, then restore the previous context."""
    previous = _CURRENT
    if changes:
        context = dataclasses.replace(context or previous, **changes)
    _activate(context or previous)
    try:
        yield _CURRENT
    finally:
        _activate(previous)


def update(**changes) -> Context:
    """Replace the active context by a copy with ``changes``; returns the
    previous context.  Inside a :func:`use` block the change lasts until
    the block exits."""
    previous = _CURRENT
    _activate(dataclasses.replace(previous, **changes))
    return previous


def on_enter(hook):
    """Call ``hook(context)`` now and whenever the active context changes."""
    _HOOKS.append(hook)
    hook(_CURRENT)
    return hook


__all__ = ["Context", "QUOTIENT_MODES", "current", "on_enter", "update", "use"]
