"""The shared decide-only shard pool behind ``backend="shards"``.

This is the engine's one process backend.  It keeps one process-wide
:class:`~repro.shard.router.ShardRouter` (decide-only: no muxes) alive
across calls, so repeat batches hit workers whose acceptors are
already installed and warm — a per-batch fork would pay the fork, the
warmup and the compiled-acceptor rebuild on every call.

A persistent worker is forked *before* the batch exists, so nothing
can be inherited: the acceptor and the words must actually cross the
pipe.  Every acceptor ships as itself.  A machine compiled from a TBA
pickles as its automaton and its attributes, and the worker compiles
the automaton again (as a raw TBA is: the engine compiles it first);
timed words (in lists or :class:`~repro.words.batch.LassoBatch`
slices), strategies, machines over module-level programs, fault
wrappers around any of these, and
:class:`~repro.engine.verdict.DecisionReport` lists are plain data.
An acceptor that closes over a local function does not pickle:
:func:`language_spec` preflights this and raises
:class:`LanguageUnshippable` so the engine can judge such a batch
serially (and count why) instead of dying mid-batch.

:func:`run_chunks` is the executor ``decide_many(backend="shards")``
and ``decide_many_resilient`` share: it tries each chunk once, one
outstanding chunk per shard, with worker death detected as pipe EOF
and healed by respawn (the router keeps the pool at strength) and
deadlines enforced with a kill.  Failures come back as explicit
``(lo, hi, reason, detail)`` records for the caller's own recovery
ladder, and every reply carries the worker's metric delta so
child-side counts land in the parent registry.  The pool serves one
batch at a time.
"""

from __future__ import annotations

import math
import os
import pickle
import threading
import time
from collections import deque
from multiprocessing import connection as mp_connection
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from ..obs import hooks as _obs
from .router import ShardError, ShardRouter
from .wire import OP_DECIDE, OP_ERR, OP_REPLY, recv_frame, send_frame

__all__ = [
    "LanguageUnshippable",
    "language_spec",
    "strategy_spec",
    "shared_pool",
    "shutdown_pool",
    "plan_chunks",
    "run_chunks",
]


class LanguageUnshippable(RuntimeError):
    """The acceptor/strategy cannot cross a pipe to a persistent worker.

    ``reason`` is the short token the engine records in
    ``engine.backend_fallbacks{reason=...}``.
    """

    def __init__(self, reason: str, detail: str = ""):
        super().__init__(f"{reason}: {detail}" if detail else reason)
        self.reason = reason


_POOL: Optional[ShardRouter] = None
#: Held while the pool grows and for a whole :func:`run_chunks` batch:
#: two batches interleaving frames on one worker's pipe would each wait
#: for a reply the other one read.  Reentrant, because a batch grows
#: the pool under it.
_POOL_LOCK = threading.RLock()
#: Keeps every shipped acceptor alive so its ``id``-derived language key
#: can never be recycled for a different object (same discipline as the
#: engine's AcceptorCache anchors).
_ANCHORS: Dict[int, Any] = {}


def default_pool_size() -> int:
    return max(2, min(4, os.cpu_count() or 2))


def pool_is_warm() -> bool:
    """True when a shared pool is already running."""
    return _POOL is not None and not _POOL._closed


def _width(n_shards: int) -> int:
    """Shards the pool runs for a request of ``n_shards``: at least one,
    and no more than the cores (or two)."""
    return min(max(1, n_shards), max(2, os.cpu_count() or 2))


def shared_pool(n_shards: Optional[int] = None) -> ShardRouter:
    """The process-wide decide pool, grown (never shrunk) on demand."""
    global _POOL
    want = _width(n_shards if n_shards is not None else default_pool_size())
    with _POOL_LOCK:
        if _POOL is None or _POOL._closed:
            _POOL = ShardRouter(n_shards=want)
        elif _POOL.n_shards < want:
            _POOL.rebalance(want)
        return _POOL


def shutdown_pool() -> None:
    """Stop the shared pool (tests, or an explicit service drain)."""
    global _POOL
    with _POOL_LOCK:
        if _POOL is not None:
            _POOL.shutdown()
            _POOL = None
        _ANCHORS.clear()


def language_spec(acceptor: Any) -> Tuple[int, Any]:
    """``(key, acceptor)`` for shipping ``acceptor`` to workers; raises
    :class:`LanguageUnshippable` for closure-laden acceptors."""
    try:
        pickle.dumps(acceptor, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        raise LanguageUnshippable("unshippable-acceptor", repr(exc)) from exc
    key = id(acceptor)
    _ANCHORS[key] = acceptor
    return key, acceptor


def strategy_spec(strategy: Union[str, Any]) -> Any:
    """A pipe-safe strategy spec.

    Name strings pass through; a registry instance collapses back to
    its name (the worker resolves the same object); anything customized
    must pickle or the call falls back.
    """
    if isinstance(strategy, str):
        return strategy
    from ..engine.strategies import STRATEGIES

    name = getattr(strategy, "name", None)
    if name is not None and STRATEGIES.get(name) is strategy:
        return name
    try:
        pickle.dumps(strategy, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        raise LanguageUnshippable("unshippable-strategy", repr(exc)) from exc
    return strategy


def plan_chunks(
    n: int, workers: int, chunk_size: Optional[int]
) -> List[Tuple[int, int]]:
    """Split ``range(n)`` into contiguous ``(lo, hi)`` chunks of
    ``chunk_size`` words, or about four per shard ``workers`` gets."""
    size = chunk_size if chunk_size is not None else max(
        1, math.ceil(n / (_width(workers) * 4))
    )
    return [(lo, min(lo + size, n)) for lo in range(0, n, size)]


def run_chunks(
    spec: Tuple[int, Any],
    strat_spec: Any,
    words: Sequence[Any],
    chunks: List[Tuple[int, int]],
    *,
    horizon: int,
    seed: int,
    workers: int,
    deadline_at: Optional[float] = None,
) -> Tuple[Dict[int, Any], List[Tuple[int, int, str, Optional[str]]]]:
    """Try each decide chunk once over shard workers.

    Returns ``(slots, failures)``: ``slots`` maps word index to its
    report for every chunk that completed; ``failures`` lists
    ``(lo, hi, reason, detail)`` once for each chunk that did not
    (reasons: ``worker-death``, ``exception``, ``deadline``,
    ``unshippable``, ``no-workers``, and ``protocol`` for a reply of
    another opcode or with another number of reports than the chunk
    has words).  A dead worker is respawned before its chunk is filed,
    so the pool is back at strength for the next chunk and the next
    batch; no index appears in both returns.

    The call holds the pool for the whole batch, growing it to
    ``workers`` shards first.  A caller with a ``deadline_at`` waits for
    a batch in another thread no longer than that, and reports all its
    chunks as ``deadline`` if it never gets the pool.
    """
    wait = -1 if deadline_at is None else max(0.0, deadline_at - time.perf_counter())
    if not _POOL_LOCK.acquire(timeout=wait):
        return {}, [(lo, hi, "deadline", None) for lo, hi in chunks]
    try:
        router = shared_pool(workers)
        key, acceptor = spec
        use = router.shard_ids[: max(1, min(workers, router.n_shards))]
        idle = [router._shards[sid] for sid in use]
        busy: Dict[Any, Tuple[Any, Tuple[int, int]]] = {}
        queue = deque(chunks)
        slots: Dict[int, Any] = {}
        failures: List[Tuple[int, int, str, Optional[str]]] = []

        def died(shard: Any, chunk: Tuple[int, int], detail: str) -> None:
            shard.alive = False
            try:
                router.recover(shard.id)
            except Exception as exc:
                detail = f"{detail}; respawn failed: {exc!r}"
            else:
                idle.append(router._shards[shard.id])
            failures.append((*chunk, "worker-death", detail))

        def submit(shard: Any, chunk: Tuple[int, int]) -> None:
            lo, hi = chunk
            try:
                router.install_language(shard, key, acceptor)
                shard.seq += 1
                send_frame(
                    shard.conn,
                    OP_DECIDE,
                    shard.seq,
                    (key, lo, words[lo:hi], horizon, strat_spec, seed),
                )
            except (ShardError, BrokenPipeError, OSError) as exc:
                died(shard, chunk, repr(exc))
                return
            except Exception as exc:  # e.g. an unpicklable word mid-batch
                idle.append(shard)
                failures.append((lo, hi, "unshippable", repr(exc)))
                return
            busy[shard.conn] = (shard, chunk)

        while queue or busy:
            while queue and idle:
                submit(idle.pop(), queue.popleft())
            if not busy:
                while queue:  # every worker gone and none revivable
                    failures.append((*queue.popleft(), "no-workers", None))
                break
            timeout = None
            if deadline_at is not None:
                timeout = max(0.0, deadline_at - time.perf_counter())
            ready = mp_connection.wait(list(busy), timeout=timeout)
            if not ready:
                # Deadline: kill the stragglers (respawn keeps the pool at
                # strength for the next batch) and fail everything left.
                for shard, chunk in busy.values():
                    try:
                        router.recover(shard.id)
                    except Exception:  # pragma: no cover
                        pass
                    failures.append((*chunk, "deadline", None))
                busy.clear()
                while queue:
                    failures.append((*queue.popleft(), "deadline", None))
                break
            for conn in ready:
                shard, chunk = busy.pop(conn)
                try:
                    frame = recv_frame(conn)
                except (EOFError, OSError) as exc:
                    died(shard, chunk, repr(exc))
                    continue
                idle.append(shard)
                lo, hi = chunk
                if frame.op == OP_REPLY:
                    reports, delta = frame.payload
                    h = _obs.HOOKS
                    if h is not None and delta:
                        h.registry.merge(delta)
                    if len(reports) != hi - lo:
                        detail = f"{len(reports)} reports for {hi - lo} words"
                        failures.append((lo, hi, "protocol", detail))
                        continue
                    for i, report in enumerate(reports):
                        slots[lo + i] = report
                elif frame.op == OP_ERR:
                    failures.append((lo, hi, "exception", frame.payload))
                else:
                    failures.append((lo, hi, "protocol", f"opcode {frame.op}"))
        return slots, failures
    finally:
        _POOL_LOCK.release()
