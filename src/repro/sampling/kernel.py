"""Vectorized Monte-Carlo kernel with counter-based substreams.

The sampling tier answers ``Pr[S(t) | alpha]`` where the exact chain
cannot reach, and the estimates must be *mergeable*: a memoized 10k-sample
cell plus a fresh 10k-sample increment combine into one 20k-sample
estimate.  Everything here follows from one discipline:

* Samples live in fixed blocks of :data:`BLOCK_SAMPLES` trials.  Block
  ``b`` of a stream is generated by a counter-based ``Philox`` generator
  keyed on ``(stream seed, b)`` -- no sequential RNG state crosses block
  boundaries, so any block is a pure function of its key.  Serial and
  process-pool execution therefore agree bit for bit at any worker
  count, and two runs over overlapping sample ranges agree on the
  overlap (the merge law the memo relies on).
* Source words are generated round-major (``(words, k, samples)`` then
  transposed), so a stream sampled at horizon ``t`` shares its first
  rounds with the same stream at any larger horizon.  Cells that share a
  stream but differ in ``t`` or task therefore share trials -- common
  random numbers, which make paired comparisons across sweep cells
  low-variance.

Two solvers decide whole blocks:

* ``bits`` -- draw source-bit matrices, intern knowledge classes by
  pairwise-equality refinement (bit-string grouping on the blackboard,
  per-round label refinement on the port-numbered clique), and decide
  solvability once per distinct class-size multiset, in numpy passes.
  Bit-exact equal to the per-trajectory scalar oracle on the same words.
* ``scalar`` -- the legacy per-trajectory Python loop over the *same*
  Philox words; kept as the test oracle and benchmark baseline.
"""

from __future__ import annotations

import hashlib

import numpy as np

from ..core.solvability import realization_solves
from ..core.tasks import SymmetryBreakingTask
from ..models.ports import PortAssignment
from ..randomness.configuration import RandomnessConfiguration

#: Samples per substream block.  Fixed forever: the block layout *is* the
#: stream identity (memo tokens and merge laws key on it), so changing it
#: would orphan every memoized MC cell.
BLOCK_SAMPLES = 1000

#: Methods accepted by :func:`block_indicators`.
METHODS = ("auto", "bits", "scalar")


def philox_key(stream_seed: int, block: int) -> np.ndarray:
    """The 128-bit ``Philox`` key of ``(stream, block)``.

    Hash-derived (as the runner's per-job seeds are), so adjacent blocks
    and adjacent streams are unrelated keys, not adjacent counters.
    """
    digest = hashlib.sha256(
        f"mc\x1f{stream_seed}\x1f{block}".encode()
    ).digest()
    return np.frombuffer(digest[:16], dtype=np.uint64).copy()


def words_needed(t: int) -> int:
    """64-bit words per source covering ``t`` rounds."""
    if t < 1:
        raise ValueError("need t >= 1")
    return (t + 63) // 64


def source_words(
    stream_seed: int, block: int, k: int, words: int
) -> np.ndarray:
    """Source randomness of one block: ``(BLOCK_SAMPLES, k, words)`` uint64.

    Generated round-major -- word index is the *slowest* axis -- so the
    array for ``words`` is a prefix extension of the array for any
    smaller word count on the same key.  Bit ``r`` of source ``j`` in
    sample ``s`` is ``(out[s, j, r // 64] >> (r % 64)) & 1``.
    """
    rng = np.random.Generator(np.random.Philox(key=philox_key(stream_seed, block)))
    raw = rng.integers(
        0, 2**64, size=(words, k, BLOCK_SAMPLES), dtype=np.uint64
    )
    return np.ascontiguousarray(raw.transpose(2, 1, 0))


def resolve_method(method: str) -> str:
    """Resolve ``"auto"`` (the bit-level solver covers every model)."""
    if method not in METHODS:
        raise ValueError(f"unknown sampling method {method!r}")
    return "bits" if method == "auto" else method


# ----------------------------------------------------------------------
# Bit-level solvers: knowledge partition per sample, batched
# ----------------------------------------------------------------------
def _verdicts_by_size_multiset(
    task: SymmetryBreakingTask, keys: np.ndarray
) -> np.ndarray:
    """Solvability per row of ``keys`` (descending-sorted class sizes,
    zero-padded), evaluating the task once per distinct multiset.

    Valid for every symmetric output complex -- the package contract --
    where solvability depends only on the multiset of knowledge-class
    sizes (see :meth:`SymmetryBreakingTask.solvable_from_sizes`).
    """
    distinct, inverse = np.unique(keys, axis=0, return_inverse=True)
    verdicts = np.fromiter(
        (
            task.solvable_from_sizes(int(s) for s in row if s)
            for row in distinct
        ),
        dtype=bool,
        count=len(distinct),
    )
    return verdicts[inverse.reshape(-1)]


def _size_multiset_keys(eq: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Per-sample class-size multisets from a pairwise-equality tensor.

    ``eq`` is ``(B, m, m)`` with ``eq[s, i, j]`` true when units ``i``
    and ``j`` are in the same knowledge class of sample ``s``;
    ``weights[j]`` is how many nodes unit ``j`` carries.  Rows are the
    class sizes sorted descending, zero-padded -- a canonical key.
    """
    m = eq.shape[1]
    labels = eq.argmax(axis=2)  # first equal unit = canonical label
    sizes = eq @ weights  # class size, repeated on every member
    keys = np.where(labels == np.arange(m), sizes, 0)
    keys.sort(axis=1)
    return keys[:, ::-1]


def _solve_blackboard(
    alpha: RandomnessConfiguration,
    task: SymmetryBreakingTask,
    t: int,
    words: np.ndarray,
) -> np.ndarray:
    """Blackboard solvability per sample.

    On the blackboard, knowledge equality is bit-string equality (proof
    of Theorem 4.1; :func:`repro.models.blackboard.bitstring_partition`),
    and node bit strings coincide exactly when their *sources* do -- so
    the partition is computed source-pairwise and weighted by group
    sizes, ``k x k`` instead of ``n x n``.
    """
    masked = words[:, :, : words_needed(t)]
    if t % 64:
        masked = masked.copy()
        masked[:, :, -1] &= np.uint64((1 << (t % 64)) - 1)
    eq = (masked[:, :, None, :] == masked[:, None, :, :]).all(axis=3)
    weights = np.asarray(alpha.group_sizes, dtype=np.int64)
    return _verdicts_by_size_multiset(task, _size_multiset_keys(eq, weights))


def _bit_planes(
    alpha: RandomnessConfiguration, words: np.ndarray, t: int
) -> np.ndarray:
    """Per-node round bits ``(B, n, t)`` (uint8) from source words."""
    rounds = np.arange(t)
    shifts = (rounds % 64).astype(np.uint64)
    planes = (words[:, :, rounds // 64] >> shifts) & np.uint64(1)
    return planes.astype(np.uint8)[:, list(alpha.assignment), :]


def _solve_clique(
    alpha: RandomnessConfiguration,
    task: SymmetryBreakingTask,
    ports: PortAssignment,
    t: int,
    words: np.ndarray,
) -> np.ndarray:
    """Port-numbered message-passing solvability per sample.

    Knowledge classes are refined round by round: two nodes stay equal
    iff their previous classes, their fresh bits, and the classes behind
    each of their ports (in port order) all agree -- the interner
    recursion of :class:`~repro.models.message_passing.MessagePassingModel`
    expressed as a pairwise-equality tensor, with first-occurrence
    ``argmax`` labels as the canonical class ids (no integer encoding,
    so no overflow at any ``n``).
    """
    n = alpha.n
    batch = words.shape[0]
    bits = _bit_planes(alpha, words, t)
    degrees = [len(ports.neighbours(node)) for node in range(n)]
    width = max(degrees)
    # Pad short rows with the node itself: padded positions then compare
    # the nodes' own labels, already part of the equality, so padding is
    # inert; nodes of unequal degree are separated by ``pair_ok``.
    nbr = np.fromiter(
        (
            ports.neighbours(node)[p] if p < degrees[node] else node
            for node in range(n)
            for p in range(width)
        ),
        dtype=np.int64,
        count=n * width,
    ).reshape(n, width)
    deg = np.asarray(degrees, dtype=np.int64)
    pair_ok = deg[:, None] == deg[None, :]
    labels = np.zeros((batch, n), dtype=np.int64)
    eq = np.broadcast_to(pair_ok, (batch, n, n))
    for r in range(t):
        label_eq = labels[:, :, None] == labels[:, None, :]
        plane = bits[:, :, r]
        bit_eq = plane[:, :, None] == plane[:, None, :]
        received = labels[:, nbr]  # (B, n, width)
        recv_eq = (
            received[:, :, None, :] == received[:, None, :, :]
        ).all(axis=3)
        eq = pair_ok & label_eq & bit_eq & recv_eq
        labels = eq.argmax(axis=2)
    weights = np.ones(n, dtype=np.int64)
    return _verdicts_by_size_multiset(task, _size_multiset_keys(eq, weights))


# ----------------------------------------------------------------------
# Scalar oracle
# ----------------------------------------------------------------------
def scalar_block_indicators(
    alpha: RandomnessConfiguration,
    task: SymmetryBreakingTask,
    t: int,
    ports: PortAssignment | None = None,
    *,
    stream_seed: int,
    block: int,
    count: int = BLOCK_SAMPLES,
) -> np.ndarray:
    """The per-trajectory scalar loop over the *same* Philox words.

    Bit-exact equal to ``method="bits"`` by construction; kept as the
    test oracle and the benchmark baseline for the vectorized kernel.
    """
    from ..core.probability import model_for

    words = source_words(stream_seed, block, alpha.k, words_needed(t))
    model = model_for(alpha, ports)
    out = np.zeros(count, dtype=bool)
    for s in range(count):
        source_bits = [
            tuple(
                int((words[s, j, r // 64] >> np.uint64(r % 64)) & np.uint64(1))
                for r in range(t)
            )
            for j in range(alpha.k)
        ]
        realization = tuple(
            source_bits[alpha.source_of(i)] for i in range(alpha.n)
        )
        out[s] = realization_solves(model, realization, task)
    return out


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def block_indicators(
    alpha: RandomnessConfiguration,
    task: SymmetryBreakingTask,
    t: int,
    ports: PortAssignment | None = None,
    *,
    stream_seed: int,
    block: int,
    method: str = "auto",
) -> np.ndarray:
    """Per-sample success indicators of one substream block.

    A pure function of ``(stream_seed, block)`` and the cell parameters:
    the foundation of the merge law, worker-count independence, and
    common random numbers across cells sharing a stream.
    """
    if t < 1:
        raise ValueError("need t >= 1")
    if resolve_method(method) == "scalar":
        return scalar_block_indicators(
            alpha, task, t, ports, stream_seed=stream_seed, block=block
        )
    words = source_words(stream_seed, block, alpha.k, words_needed(t))
    if ports is None:
        return _solve_blackboard(alpha, task, t, words)
    return _solve_clique(alpha, task, ports, t, words)


__all__ = [
    "BLOCK_SAMPLES",
    "METHODS",
    "block_indicators",
    "philox_key",
    "resolve_method",
    "scalar_block_indicators",
    "source_words",
    "words_needed",
]
