"""Shared-memory distribution of compiled chains to pool workers.

The disk cache (:mod:`repro.chain.cache`) removes *recompilation* across
processes, but every pool worker still pays a pickle load -- and a full
reconstruction of the per-state tuple tables -- per chain per process.
:class:`SharedChainStore` removes that too: the parent process places
each compiled chain's integer arrays into one
``multiprocessing.shared_memory`` segment and ships only a manifest of
``{key digest: segment name}`` in the worker payload.  Workers attach
zero-copy numpy views: the float backend reads the CSR transition
arrays straight out of the shared segment; exact-backend structures
(``Fraction`` weights, per-state tuples) are materialized lazily per
worker on first use.

Worker-side lookup reads the manifest from the active context's
``chain_shm`` field (:mod:`repro.context`; the runner ships it in the
job payload, next to the disk cache) and is consulted by
:func:`repro.chain.engine.compile_chain` after the process memo but
*before* the disk cache, so cache-warm chains are never re-read from
disk by workers.

Segment layout (version 2) -- everything int64 so views need no casts:

====================  =====================================================
``header[0:6]``       ``version, n, k, num_states, nnz, key_bytes``
``header[6:10]``      SHA-256 of the ``labels`` to ``cnt`` bytes below
``labels``            ``num_states * n`` label-vector entries, row-major
``indptr``            ``num_states + 1`` CSR row offsets
``dst``               ``nnz`` destination state ids
``cnt``               ``nnz`` integer counts out of ``2^(k-1)``
``key``               ``key_bytes`` of pickled structural chain key
====================  =====================================================

Attaching recomputes the digest and compares it with the header before
building a chain, so a damaged block (a flipped byte, a truncated or
foreign segment) is a counted miss (``chain.shm.load.miss``) and the
worker recompiles -- never a chain with the right key but different
transitions.

:meth:`SharedChainStore.publish_group` packs a whole *group* of chains
into **one** segment -- the per-chain blocks above laid back to back at
8-byte-aligned offsets -- so a sweep's entire chain family costs one
``shm_open`` per worker instead of one per chain.  Manifest entries for
grouped chains read ``"<segment name>@<byte offset>"``; plain entries
stay bare segment names, so old-style manifests keep working.  Worker
attachment caches the segment mapping by name (:func:`attach_chain`),
making every chain of a group after the first a pure pointer offset.
"""

from __future__ import annotations

import contextlib
import hashlib
import pickle

import numpy as np

from .. import context as _context
from ..obs import OBS
from .cache import key_digest
from .engine import ChainKey, CompiledChain

#: Bump when the segment layout changes; mismatches degrade to a miss.
LAYOUT_VERSION = 2

_HEADER_WORDS = 10
_DIGEST_WORDS = 4  # header[6:10]: SHA-256 of the array bytes
_WORD = 8  # bytes per int64/float64


@contextlib.contextmanager
def _untracked_attach():
    """Suppress resource_tracker registration while attaching (gh-82300).

    Before 3.13's ``track=False``, merely *attaching* a segment
    registers it with the (process-tree-wide) resource tracker as if
    this process owned it; the tracker would then double-account the
    publisher's own registration and complain -- or worse, unlink early.
    Only the publishing :class:`SharedChainStore` owns segments here.
    """
    try:
        from multiprocessing import resource_tracker
    except ImportError:  # pragma: no cover - multiprocessing always ships
        yield
        return
    original = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        yield
    finally:
        resource_tracker.register = original


def _segment_size(chain: CompiledChain, key_bytes: bytes) -> int:
    states, nnz = chain.num_states, chain.num_transitions
    words = (
        _HEADER_WORDS
        + states * chain.n
        + (states + 1)
        + 2 * nnz
    )
    return words * _WORD + len(key_bytes)


def _array_digest(buf, start: int, stop: int) -> bytes:
    """SHA-256 of ``buf[start:stop]`` (the slice view is released)."""
    with buf[start:stop] as view:
        return hashlib.sha256(view).digest()


def _write_chain(buf, offset: int, chain: CompiledChain, key_bytes: bytes) -> None:
    """Write one chain block (the version-2 layout) at ``offset``."""
    states, nnz = chain.num_states, chain.num_transitions
    header = np.ndarray(
        (_HEADER_WORDS,), dtype=np.int64, buffer=buf, offset=offset
    )
    header[:_HEADER_WORDS - _DIGEST_WORDS] = (
        LAYOUT_VERSION, chain.n, chain.k, states, nnz, len(key_bytes)
    )
    offset += _HEADER_WORDS * _WORD
    arrays_start = offset
    labels = np.ndarray(
        (states, chain.n), dtype=np.int64, buffer=buf, offset=offset
    )
    labels[:] = chain.labels
    offset += states * chain.n * _WORD
    indptr_src, dst_src, cnt_src = chain.csr()
    indptr = np.ndarray(
        (states + 1,), dtype=np.int64, buffer=buf, offset=offset
    )
    indptr[:] = indptr_src
    offset += (states + 1) * _WORD
    dst = np.ndarray((nnz,), dtype=np.int64, buffer=buf, offset=offset)
    dst[:] = dst_src
    offset += nnz * _WORD
    cnt = np.ndarray((nnz,), dtype=np.int64, buffer=buf, offset=offset)
    cnt[:] = cnt_src
    offset += nnz * _WORD
    header[_HEADER_WORDS - _DIGEST_WORDS:] = np.frombuffer(
        _array_digest(buf, arrays_start, offset), dtype=np.int64
    )
    buf[offset:offset + len(key_bytes)] = key_bytes
    # Writable views into the buffer must be dropped before close() can
    # ever succeed (exporting views pin the mmap).
    del header, labels, indptr, dst, cnt


class SharedChainStore:
    """Publisher side: one shared-memory segment per compiled chain.

    The store owns its segments: :meth:`close` (or exiting the context
    manager) closes and unlinks every one.  Unlinking while workers
    still hold mappings is safe on POSIX -- their views stay valid until
    the worker process exits; only the *name* disappears.
    """

    def __init__(self):
        self._segments: list = []
        self._manifest: dict[str, str] = {}

    def __len__(self) -> int:
        """How many chains this store has published (not segments)."""
        return len(self._manifest)

    @property
    def manifest(self) -> dict[str, str]:
        """``{key digest: segment locator}`` -- what worker payloads carry.

        A locator is a bare segment name, or ``"name@offset"`` for a
        chain packed into a group segment.
        """
        return dict(self._manifest)

    def publish(self, chain: CompiledChain) -> str:
        """Place ``chain``'s arrays in their own segment.

        Returns the chain's segment locator: the bare segment name for a
        fresh (or previously stand-alone) publish, or ``"name@offset"``
        when the chain already lives inside a group segment -- never a
        bare group-segment name, which would attach a *different*
        chain's block.  Idempotent per structural key within one store.
        """
        from multiprocessing.shared_memory import SharedMemory

        digest = key_digest(chain.key)
        existing = self._manifest.get(digest)
        if existing is not None:
            return existing
        key_bytes = pickle.dumps(chain.key, protocol=pickle.HIGHEST_PROTOCOL)
        shm = SharedMemory(create=True, size=_segment_size(chain, key_bytes))
        _write_chain(shm.buf, 0, chain, key_bytes)
        self._segments.append(shm)
        self._manifest[digest] = shm.name
        return shm.name

    def publish_group(self, chains) -> "str | None":
        """Pack every not-yet-published chain into **one** segment.

        One ``shm_open`` then covers the whole group on the worker side
        (chains within the segment differ only by byte offset).  Returns
        the segment name, or ``None`` when every chain was already
        published (nothing new to place).
        """
        from multiprocessing.shared_memory import SharedMemory

        fresh: list[tuple[CompiledChain, str, bytes, int]] = []
        seen: set[str] = set()
        total = 0
        for chain in chains:
            digest = key_digest(chain.key)
            if digest in self._manifest or digest in seen:
                continue
            seen.add(digest)
            key_bytes = pickle.dumps(
                chain.key, protocol=pickle.HIGHEST_PROTOCOL
            )
            fresh.append((chain, digest, key_bytes, total))
            size = _segment_size(chain, key_bytes)
            # Keep every block's int64 views 8-byte aligned.
            total += size + (-size) % _WORD
        if not fresh:
            return None
        shm = SharedMemory(create=True, size=total)
        for chain, digest, key_bytes, offset in fresh:
            _write_chain(shm.buf, offset, chain, key_bytes)
        self._segments.append(shm)
        for chain, digest, key_bytes, offset in fresh:
            self._manifest[digest] = f"{shm.name}@{offset}"
        return shm.name

    def close(self) -> None:
        """Close and unlink every published segment (idempotent)."""
        for shm in self._segments:
            try:
                shm.close()
            except OSError:
                pass
            try:
                shm.unlink()
            except (OSError, FileNotFoundError):
                pass
        self._segments.clear()
        self._manifest.clear()

    def __enter__(self) -> "SharedChainStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


#: Worker-side segment cache: attaching a group segment once serves
#: every chain packed inside it.  Entries are dropped (not closed --
#: attached chains pin their mapping via ``chain._shm``) whenever a
#: context with a different manifest is entered.
_ATTACHED: dict[str, "object"] = {}


def _segment(name: str):
    shm = _ATTACHED.get(name)
    if shm is None:
        from multiprocessing.shared_memory import SharedMemory

        with _untracked_attach():
            shm = SharedMemory(name=name)
        _ATTACHED[name] = shm
    return shm


def attach_chain(name: str, offset: int = 0) -> CompiledChain:
    """Attach the segment ``name`` and build a chain over its arrays.

    ``offset`` selects one chain block inside a group segment (0, the
    default, reads a single-chain segment).  The CSR transition arrays
    are zero-copy views into the segment (the mapping is pinned on the
    returned chain for its lifetime); the label tuples are rebuilt
    eagerly (they back the id table), and exact-backend structures stay
    lazy as usual.  Segment mappings are cached per name, so a group's
    second chain costs no ``shm_open``.  Raises ``ValueError`` when the
    layout version or the array digest does not match the header.
    """
    shm = _segment(name)
    header = np.ndarray(
        (_HEADER_WORDS,), dtype=np.int64, buffer=shm.buf, offset=offset
    )
    version, n, k, states, nnz, key_bytes = (
        int(x) for x in header[:_HEADER_WORDS - _DIGEST_WORDS]
    )
    if version != LAYOUT_VERSION:
        raise ValueError(f"unknown shared-chain layout version {version}")
    digest = header[_HEADER_WORDS - _DIGEST_WORDS:].tobytes()
    offset += _HEADER_WORDS * _WORD
    arrays_stop = offset + (states * n + states + 1 + 2 * nnz) * _WORD
    if _array_digest(shm.buf, offset, arrays_stop) != digest:
        raise ValueError("shared-chain arrays do not match their digest")
    labels_array = np.ndarray(
        (states, n), dtype=np.int64, buffer=shm.buf, offset=offset
    )
    offset += states * n * _WORD
    indptr = np.ndarray(
        (states + 1,), dtype=np.int64, buffer=shm.buf, offset=offset
    )
    offset += (states + 1) * _WORD
    dst = np.ndarray((nnz,), dtype=np.int64, buffer=shm.buf, offset=offset)
    offset += nnz * _WORD
    cnt = np.ndarray((nnz,), dtype=np.int64, buffer=shm.buf, offset=offset)
    offset += nnz * _WORD
    key = pickle.loads(bytes(shm.buf[offset:offset + key_bytes]))
    labels = tuple(
        tuple(int(value) for value in row) for row in labels_array
    )
    chain = CompiledChain(key, n, k, labels, csr=(indptr, dst, cnt))
    # Pin the mapping: the CSR views stay valid exactly as long as the
    # chain (and with it this SharedMemory object) is alive.
    chain._shm = shm
    return chain


# ----------------------------------------------------------------------
# Worker-side lookup (the manifest travels in the job payload's context)
# ----------------------------------------------------------------------
#: The manifest the cached segments in ``_ATTACHED`` were attached under.
_ATTACHED_FOR: dict[str, str] = {}


def _drop_stale_segments(context) -> None:
    global _ATTACHED_FOR
    manifest = context.chain_shm
    if manifest and manifest != _ATTACHED_FOR:
        _ATTACHED.clear()
        _ATTACHED_FOR = manifest


_context.on_enter(_drop_stale_segments)


def shared_chain(key: ChainKey) -> "CompiledChain | None":
    """The published chain for ``key``, or ``None``.

    Every failure mode -- segment gone, layout mismatch, damaged arrays,
    key-digest collision -- degrades to a counted miss
    (``chain.shm.load.miss``; the caller falls back to the disk cache or
    a recompile), never to wrong results: a hit's arrays match their
    content digest and its full structural key matches ``key``.
    """
    manifest = _context.current().chain_shm
    locator = manifest.get(key_digest(key)) if manifest else None
    if locator is None:
        return None
    name, _, offset = locator.partition("@")
    try:
        chain = attach_chain(name, int(offset) if offset else 0)
    except Exception:
        # Anything: segment gone (OSError), truncated/foreign buffer
        # (TypeError from the array views), bad layout or digest
        # (ValueError), garbage key bytes (arbitrary unpickling errors).
        # All of it must degrade to the disk-cache path, never kill the
        # job.
        chain = None
    if chain is None or chain.key != key:
        if OBS.enabled:
            OBS.metrics.inc("chain.shm.load.miss")
        return None
    return chain


__all__ = [
    "LAYOUT_VERSION",
    "SharedChainStore",
    "attach_chain",
    "shared_chain",
]
