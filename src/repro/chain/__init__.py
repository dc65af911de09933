"""Compiled consistency-chain engine (interning, compilation, queries).

The package-level API:

* :func:`compile_chain` -- compile (or fetch memoized/cached) the chain
  of one ``(alpha, ports)`` configuration into a :class:`CompiledChain`
  (interned states, sparse integer transitions);
* :func:`run_queries` -- the one way a compiled chain answers a
  question: a list of :class:`Query` objects (probability, series,
  limit, expected time, Definition 3.3 verdict) answered in shared
  topologically-ordered passes under an exact ``Fraction`` backend or
  a numpy ``float64`` backend (``backend="exact" | "float"``), see
  :mod:`repro.chain.batch`; :func:`run_group_queries` maps it over
  many chains;
* :func:`disk_cache` -- persist compilations across worker processes
  and runs, in the active context's ``chain_cache`` directory.

``repro.core.markov`` keeps its historical API as a thin facade whose
every query is one :func:`run_queries` call; see ``CHAIN.md`` for the
design.
"""

from .. import _lazy

__getattr__, __dir__ = _lazy.exports(__name__, {
    ".backends": (
        "BACKENDS",
        "evolution_strategy",
        "transition_density",
        "validate_backend",
    ),
    ".batch": ("QUANTITIES", "Query", "QueryPlan", "run_queries"),
    ".cache": ("CacheEntry", "ChainDiskCache", "disk_cache"),
    ".engine": (
        "DEFAULT_DISTRIBUTION_CACHE_CAP",
        "DENSE_STATE_LIMIT",
        "MAX_NODES",
        "ChainKey",
        "CompiledChain",
        "back_port_tables",
        "chain_key",
        "clear_memo",
        "compile_chain",
        "memo_size",
        "neighbour_tables",
        "refine_labels",
        "set_distribution_cache_cap",
    ),
    ".multi": ("run_group_queries",),
    ".quotient": (
        "QUOTIENT_MODES",
        "QuotientChain",
        "automorphism_count",
        "automorphism_generators",
        "configure_quotient",
        "effective_chain_key",
        "is_chain_automorphism",
        "is_quotient_key",
        "quotient_key",
        "quotient_mode",
        "resolve_quotient",
    ),
    ".interning": (
        "LabelVector",
        "StateTable",
        "block_count",
        "block_sizes",
        "blocks_from_labels",
        "canonical_labels",
        "labels_from_blocks",
    ),
})

__all__ = [
    "BACKENDS",
    "CacheEntry",
    "ChainDiskCache",
    "ChainKey",
    "CompiledChain",
    "DEFAULT_DISTRIBUTION_CACHE_CAP",
    "DENSE_STATE_LIMIT",
    "LabelVector",
    "MAX_NODES",
    "QUANTITIES",
    "QUOTIENT_MODES",
    "Query",
    "QueryPlan",
    "QuotientChain",
    "StateTable",
    "automorphism_count",
    "automorphism_generators",
    "back_port_tables",
    "block_count",
    "block_sizes",
    "blocks_from_labels",
    "canonical_labels",
    "chain_key",
    "clear_memo",
    "compile_chain",
    "configure_quotient",
    "disk_cache",
    "effective_chain_key",
    "evolution_strategy",
    "is_chain_automorphism",
    "is_quotient_key",
    "labels_from_blocks",
    "memo_size",
    "neighbour_tables",
    "quotient_key",
    "quotient_mode",
    "refine_labels",
    "resolve_quotient",
    "run_group_queries",
    "run_queries",
    "set_distribution_cache_cap",
    "transition_density",
    "validate_backend",
]
