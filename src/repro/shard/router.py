"""The shard router: consistent-hash placement over persistent workers.

A :class:`ShardRouter` looks like a :class:`~repro.stream.session.SessionMux`
from the outside — ``ingest`` / ``ingest_batch`` / ``verdicts`` /
``close_session`` / ``evict_idle`` / ``stats`` — but fans the work out
over ``n_shards`` long-lived forked workers, each hosting its own warm
mux (see :mod:`repro.shard.worker`).  The pieces:

* **Placement** — a session name maps to a shard through a
  :class:`~repro.shard.placement.HashRing` when the router first sees
  it; the router gives the session an id and keeps its shard in an
  id-indexed array, so a session never migrates implicitly and a batch
  is placed with one gather.
* **Columnar routing** — :meth:`ingest_batch` encodes a batch once, in
  one pass over its tuples, into session-id, symbol-id and time
  columns (:class:`~repro.shard.wire.EventBatch`), journals each
  shard's slice, and ships a shard's pending events as raw column
  frames once ``batch_events`` accumulate or on :meth:`flush`.  A name
  or a symbol crosses the pipe once per worker lifetime.  The worker
  ACKs each frame and the router caps un-ACKed frames at
  ``max_inflight`` (backpressure: a slow shard stalls its *own*
  senders instead of growing an unbounded pipe).
* **Durability** — each shard keeps the
  :class:`~repro.stream.checkpoint.Journal` of
  :class:`~repro.stream.supervisor.MuxSupervisor`: every event is
  journaled as columns when it is routed, and every close and eviction
  as a record in order; a per-shard :meth:`checkpoint` snapshots the
  worker's mux and truncates that journal, and a SIGKILLed shard
  (:meth:`crash`, or any detected death) comes back via :meth:`recover`
  or via :meth:`fail_over`, which re-places the dead shard's
  checkpointed sessions on the survivors.  Either way the journal is
  replayed through the front door; routing adds only the shard each
  record goes to.
* **Elasticity** — :meth:`rebalance` grows or shrinks the pool,
  migrating exactly the sessions whose ring placement changed
  (consistent hashing moves ~K/N of them) through the live-session
  extract/adopt path of :mod:`repro.stream.checkpoint`.
* **Metrics** — :meth:`sync_metrics` pulls each worker's registry
  delta and merges it into the parent registry, so child-side
  ``stream.*`` / ``kernel.*`` counts survive the process boundary;
  the router's own ``shard.*`` series (placement churn, queue depth,
  batch sizes, recovery latency) is documented in
  ``docs/observability.md``.

Ids stay bounded by live sessions: the id of a closed or evicted
session is reused once its shard's journal no longer names it, after
that shard's next checkpoint.

Error surfacing: ingest errors raised *inside* a worker (e.g. the
``reject`` drop policy, or a refused open under ``max_sessions``) come
back on the ACK and are raised as :class:`ShardError` at the next
synchronization point (:meth:`sync`, :meth:`verdicts`,
:meth:`checkpoint`, ...), not at the ``ingest`` call that routed the
event.  Deterministic recovery is guaranteed for non-raising policies
(the default ``drop-new``/``drop-old``), exactly like the
single-process supervisor.
"""

from __future__ import annotations

import os
import signal
import time
from collections import Counter
from itertools import repeat
from operator import itemgetter
from typing import Any, Callable, Dict, List, Optional

import multiprocessing as mp

import numpy as np

from ..obs import hooks as _obs
from ..stream.checkpoint import CLOSE, DRAIN, EVENTS, EVICT, REPORTS, Journal
from .placement import DEFAULT_REPLICAS, HashRing
from .wire import (
    DEFAULT_CHUNK_EVENTS,
    OP_ACK,
    OP_ADOPT,
    OP_CHECKPOINT,
    OP_ERR,
    OP_EVENTS,
    OP_EXTRACT,
    OP_INSTALL_LANG,
    OP_METRICS,
    OP_NEWEST,
    OP_RECORD,
    OP_REPLY,
    OP_RESTORE,
    OP_SHUTDOWN,
    OP_STATS,
    OP_VERDICTS,
    EventBatch,
    frame_batches,
    recv_frame,
    send_frame,
)
from .worker import worker_main

__all__ = ["ShardError", "ShardRouter"]

#: Session and symbol ids cross the pipe as int32.
_ID_LIMIT = 2**31


def _grown(column: Any, fill: Any) -> Any:
    """``column`` at twice its length (at least 16), padded with ``fill``."""
    out = np.full(max(16, 2 * len(column)), fill, dtype=column.dtype)
    out[: len(column)] = column
    return out


class ShardError(RuntimeError):
    """A shard died, rejected work, or answered out of protocol."""


class _Shard:
    """Parent-side handle for one worker process."""

    __slots__ = (
        "id", "num", "proc", "conn", "seq", "inflight", "journal", "unsent",
        "unsent_events", "retired", "syms_sent", "langs", "alive", "errors",
    )

    def __init__(self, shard_id: str, num: int, proc: Any, conn: Any):
        self.id = shard_id
        self.num = num               # the shard's code in the placement array
        self.proc = proc
        self.conn = conn
        self.seq = 0
        self.inflight = 0            # un-ACKed OP_EVENTS frames
        #: The last snapshot and the records since, in order: EVENTS
        #: column batches, CLOSE and EVICT records.
        self.journal = Journal()
        self.unsent = 0              # journal records from here on are unshipped events
        self.unsent_events = 0
        self.retired: List[int] = []  # ids closed or evicted since the checkpoint
        self.syms_sent = 0           # router symbols the worker has been sent
        self.langs: set = set()      # language keys installed in the worker
        self.alive = True
        self.errors: List[str] = []


class ShardRouter:
    """Mux-shaped front over a pool of persistent shard workers.

    Pass ``acceptor`` (plus optional ``mux_kwargs`` forwarded to each
    worker's :class:`~repro.stream.session.SessionMux`) for the stream
    path, or neither for a decide-only pool (the engine backends).
    Session names must be ``str`` (the hash ring places them) and
    symbols hashable (each is interned once).
    """

    def __init__(
        self,
        acceptor: Any = None,
        *,
        mux_factory: Optional[Callable[[], Any]] = None,
        n_shards: int = 2,
        mux_kwargs: Optional[Dict[str, Any]] = None,
        replicas: int = DEFAULT_REPLICAS,
        batch_events: int = 256,
        chunk_events: int = DEFAULT_CHUNK_EVENTS,
        max_inflight: int = 8,
        checkpoint_every: Optional[int] = None,
    ):
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        if acceptor is not None and mux_factory is not None:
            raise ValueError("pass at most one of acceptor / mux_factory")
        if max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {max_inflight}")
        if mux_factory is None and acceptor is not None:
            from ..stream.session import SessionMux

            kwargs = dict(mux_kwargs or {})
            mux_factory = lambda: SessionMux(acceptor, **kwargs)  # noqa: E731
        elif mux_kwargs:
            raise ValueError("mux_kwargs needs acceptor=...")
        self._mux_factory = mux_factory
        self.batch_events = batch_events
        self.chunk_events = chunk_events
        self.max_inflight = max_inflight
        self.checkpoint_every = checkpoint_every
        # fork: workers inherit the acceptor/factory closures directly —
        # no pickling of language artifacts, ever.
        self._ctx = mp.get_context("fork")
        self._next_id = 0
        self._shards: Dict[str, _Shard] = {}
        self._shard_of_num: List[str] = []
        self._ring = HashRing([], replicas=replicas)
        #: Sessions: name → id for live ones; id → name, kept while a
        #: journal may still name a retired id (``None`` once free).
        self._ids: Dict[str, int] = {}
        self._names: List[Optional[str]] = []
        self._free: List[int] = []
        #: id → shard num, and whether the id's name has been sent to
        #: the current worker of that shard.
        self._place = np.empty(0, dtype=np.int32)
        self._sent = np.empty(0, dtype=bool)
        self._sym_ids: Dict[Any, int] = {}
        self._symbols: List[Any] = []
        #: Lifetime counters of the shards that left the pool.
        self._left: Counter = Counter()
        self._closed = False
        for _ in range(n_shards):
            self._add_shard()

    # -- lifecycle plumbing ------------------------------------------------
    def _add_shard(self) -> _Shard:
        num = self._next_id
        shard_id = f"s{num}"
        self._next_id += 1
        self._shard_of_num.append(shard_id)
        shard = self._spawn(shard_id, num)
        self._ring.add(shard_id)
        return shard

    def _spawn(self, shard_id: str, num: int) -> _Shard:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(
            target=worker_main,
            args=(child_conn, shard_id, self._mux_factory),
            daemon=True,
            name=f"repro-shard-{shard_id}",
        )
        proc.start()
        child_conn.close()
        shard = _Shard(shard_id, num, proc, parent_conn)
        self._shards[shard_id] = shard
        # A fresh worker knows no names: each goes out again with the
        # session's next frame.
        self._sent[self._place == num] = False
        return shard

    @property
    def n_shards(self) -> int:
        return len(self._shards)

    @property
    def shard_ids(self) -> List[str]:
        return list(self._shards)

    @property
    def session_count(self) -> int:
        """Sessions the router has placed (parent-side view)."""
        return len(self._ids)

    def place_of(self, name: str) -> str:
        """The shard that owns (or would own) ``name``."""
        sid = self._ids.get(name)
        if sid is None:
            return self._ring.place(name)
        return self._shard_of_num[self._place[sid]]

    def __enter__(self) -> "ShardRouter":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.shutdown()

    # -- ids ---------------------------------------------------------------
    def _session_id(self, name: str) -> int:
        """The id of ``name``'s session, placed on the ring when new."""
        sid = self._ids.get(name)
        if sid is not None:
            return sid
        shard = self._shards[self._ring.place(name)]
        if self._free:
            sid = self._free.pop()
            self._names[sid] = name
        else:
            sid = len(self._names)
            if sid >= _ID_LIMIT:
                raise OverflowError(f"session id {sid} does not fit in int32")
            self._names.append(name)
            if sid >= len(self._place):
                self._place = _grown(self._place, -1)
                self._sent = _grown(self._sent, False)
        self._ids[name] = sid
        self._place[sid] = shard.num
        self._sent[sid] = False
        return sid

    def _symbol_id(self, symbol: Any) -> int:
        sid = self._sym_ids.get(symbol)
        if sid is None:
            sid = len(self._symbols)
            if sid >= _ID_LIMIT:
                raise OverflowError(f"symbol id {sid} does not fit in int32")
            self._sym_ids[symbol] = sid
            self._symbols.append(symbol)
        return sid

    def _retire(self, shard: _Shard, name: str) -> None:
        """A closed or evicted session's id waits for ``shard``'s next
        checkpoint before it is reused: the journal still names it."""
        sid = self._ids.pop(name, None)
        if sid is not None:
            shard.retired.append(sid)

    # -- low-level frame traffic ------------------------------------------
    def _count(self, name: str, n: float = 1, **labels: Any) -> None:
        h = _obs.HOOKS
        if h is not None:
            h.count(name, n, **labels)

    def _dead(self, shard: _Shard, why: str) -> ShardError:
        shard.alive = False
        return ShardError(
            f"shard {shard.id!r} died ({why}); recover() or fail_over() it"
        )

    def _recv(self, shard: _Shard) -> Any:
        try:
            return recv_frame(shard.conn)
        except (EOFError, OSError) as exc:
            raise self._dead(shard, repr(exc)) from exc

    def _recv_ack(self, shard: _Shard) -> None:
        frame = self._recv(shard)
        if frame.op != OP_ACK:
            raise ShardError(
                f"shard {shard.id!r}: expected ACK, got opcode {frame.op}"
            )
        shard.inflight -= 1
        status, detail = frame.payload
        if status == "err":
            shard.errors.append(detail)

    def _drain_acks(self, shard: _Shard, down_to: int = 0) -> None:
        while shard.inflight > down_to:
            self._recv_ack(shard)

    def _request(self, shard: _Shard, op: int, payload: Any) -> Any:
        """Send one synchronous request and wait for its reply.

        ACKs for earlier event frames are absorbed along the way (the
        worker answers strictly in order, so the matching reply is the
        first non-ACK frame).
        """
        if not shard.alive:
            raise self._dead(shard, "marked dead")
        shard.seq += 1
        seq = shard.seq
        try:
            send_frame(shard.conn, op, seq, payload)
        except (BrokenPipeError, OSError) as exc:
            raise self._dead(shard, repr(exc)) from exc
        while True:
            frame = self._recv(shard)
            if frame.op == OP_ACK:
                shard.inflight -= 1
                status, detail = frame.payload
                if status == "err":
                    shard.errors.append(detail)
                continue
            if frame.seq != seq:
                raise ShardError(
                    f"shard {shard.id!r}: reply seq {frame.seq} != {seq}"
                )
            if frame.op == OP_REPLY:
                return frame.payload
            if frame.op == OP_ERR:
                raise ShardError(f"shard {shard.id!r}: {frame.payload}")
            raise ShardError(f"shard {shard.id!r}: unexpected opcode {frame.op}")

    def _send_events(self, shard: _Shard, batch: EventBatch) -> None:
        """One OP_EVENTS frame, inside the ACK window, carrying the
        names and symbols the worker has not been sent yet."""
        self._drain_acks(shard, down_to=self.max_inflight - 1)
        names = symbols = ()
        sent = self._sent
        if not sent[batch.ids].all():
            fresh = list(dict.fromkeys(batch.ids[~sent[batch.ids]].tolist()))
            sent[fresh] = True
            names = [(sid, self._names[sid]) for sid in fresh]
        if shard.syms_sent < len(self._symbols):
            symbols = list(enumerate(self._symbols))[shard.syms_sent:]
            shard.syms_sent = len(self._symbols)
        shard.seq += 1
        try:
            send_frame(
                shard.conn, OP_EVENTS, shard.seq,
                EventBatch(batch.ids, batch.syms, batch.times, names, symbols),
            )
        except (BrokenPipeError, OSError) as exc:
            raise self._dead(shard, repr(exc)) from exc
        shard.inflight += 1
        h = _obs.HOOKS
        if h is not None:
            h.observe("shard.batch_size", len(batch))

    def _ship(self, shards: List[_Shard]) -> None:
        """Send the unsent events of the live ``shards`` in frames of at
        most ``chunk_events``, one frame per shard in turn so every
        worker starts at once; then checkpoint the shards that are due.

        A shard that dies on the way keeps its events in the journal
        for :meth:`recover` / :meth:`fail_over`; its error is raised
        once the other shards are served."""
        queues = []
        for shard in shards:
            if shard.unsent_events and shard.alive:
                records = shard.journal.records
                batches = [b for _op, b in records[shard.unsent:]]
                shard.unsent = len(records)
                shard.unsent_events = 0
                queues.append((shard, frame_batches(batches, self.chunk_events)))
        shipped = [shard for shard, _frames in queues]
        error: Optional[ShardError] = None
        while queues:
            more = []
            for shard, frames in queues:
                batch = next(frames, None)
                if batch is None:
                    continue
                try:
                    self._send_events(shard, batch)
                except ShardError as exc:
                    error = error or exc
                    continue
                more.append((shard, frames))
            queues = more
        if error is not None:
            raise error
        h = _obs.HOOKS
        for shard in shipped:
            if h is not None:
                h.gauge("shard.queue_depth", shard.inflight, shard=shard.id)
            if (
                self.checkpoint_every is not None
                and shard.journal.events >= self.checkpoint_every
            ):
                self._checkpoint_shard(shard)

    def _flush_shard(self, shard: _Shard) -> None:
        self._ship([shard])

    def _apply(self, shard: _Shard, op: str, payload: Any) -> Any:
        """Apply a lifecycle record on ``shard`` after every event
        routed to it so far, and journal it in order with them (an
        eviction with its victims, replayed by name)."""
        self._flush_shard(shard)
        result = self._request(shard, OP_RECORD, (op, payload))
        shard.journal.applied(op, payload, result)
        shard.unsent = len(shard.journal.records)
        return result

    def _raise_errors(self) -> None:
        errors: List[str] = []
        for shard in self._shards.values():
            if shard.errors:
                errors.extend(f"{shard.id}: {e}" for e in shard.errors)
                shard.errors = []
        if errors:
            raise ShardError("; ".join(errors))

    # -- ingestion ---------------------------------------------------------
    def ingest(self, name: str, symbol: Any, t: int) -> None:
        """Route one event to its session's shard (buffered)."""
        self.ingest_batch([(name, symbol, t)])

    def ingest_batch(self, events) -> None:
        """Route many ``(name, symbol, t)`` events (order kept per name).

        The batch is encoded once — one pass over the tuples — into
        session-id, symbol-id and time columns, placed with one gather
        on the id-indexed placement array, and journaled per shard.
        """
        if not isinstance(events, (list, tuple)):
            events = list(events)
        if not events:
            return
        names, symbols, times = zip(*events)
        n = len(names)
        ids = np.fromiter(map(self._ids.get, names, repeat(-1, n)), np.int32, n)
        if ids.min() < 0:
            ids = np.fromiter(map(self._session_id, names), np.int32, n)
        syms = np.fromiter(map(self._sym_ids.get, symbols, repeat(-1, n)), np.int32, n)
        if syms.min() < 0:
            syms = np.fromiter(map(self._symbol_id, symbols), np.int32, n)
        self._route(EventBatch(ids, syms, np.fromiter(times, np.int64, n)))

    def _route(self, batch: EventBatch) -> None:
        """Journal each shard's slice of ``batch`` (by the placement of
        its ids) and ship the shards with ``batch_events`` unsent."""
        dest = self._place[batch.ids]
        full = []
        for shard in self._shards.values():
            idx = np.flatnonzero(dest == shard.num)
            if not len(idx):
                continue
            part = batch if len(idx) == len(batch) else batch.take(idx)
            shard.journal.append(EVENTS, part, len(part))
            shard.unsent_events += len(part)
            if shard.unsent_events >= self.batch_events:
                full.append(shard)
        self._ship(full)

    def flush(self) -> None:
        """Ship every buffered event (without waiting for ACKs)."""
        self._ship(list(self._shards.values()))

    def sync(self) -> None:
        """Flush, wait until every live shard has ACKed everything, and
        raise any worker-side ingest errors collected since last sync."""
        self.flush()
        for shard in self._shards.values():
            if shard.alive:
                self._drain_acks(shard)
        self._raise_errors()

    # -- mux-shaped queries ------------------------------------------------
    def verdicts(self) -> Dict[str, Any]:
        """Current verdict-so-far of every session, across all shards."""
        self.sync()
        out: Dict[str, Any] = {}
        for shard in self._shards.values():
            out.update(self._request(shard, OP_VERDICTS, None))
        return out

    def stats(self) -> Dict[str, int]:
        """Aggregated mux counters across shards, with the lifetime
        counters of the shards that left the pool."""
        self.sync()
        total = dict(self._left)
        for shard in self._shards.values():
            for key, value in self._request(shard, OP_STATS, None).items():
                total[key] = total.get(key, 0) + value
        return total

    def close_session(self, name: str, horizon: Optional[int] = None) -> Any:
        """Close one session on its shard; returns its SessionReport."""
        shard = self._shards[self.place_of(name)]
        report = self._apply(shard, CLOSE, (name, horizon))
        self._retire(shard, name)
        return report

    def evict_idle(
        self, now: Optional[int] = None, idle_ttl: Optional[int] = None
    ) -> List[str]:
        """Run idle eviction on every shard; returns all evicted names.

        With ``now=None`` the newest :meth:`SessionMux.newest` of all
        shards is used, as one mux would: a shard holding only stale
        sessions still evicts them (each worker alone would take its
        own newest event for "now").
        """
        self.sync()
        if now is None:
            stamps = [self._request(s, OP_NEWEST, None) for s in self._shards.values()]
            now = max((t for t in stamps if t is not None), default=None)
        victims: List[str] = []
        for shard in self._shards.values():
            evicted = self._apply(shard, EVICT, (now, idle_ttl, None))
            for name in evicted:
                self._retire(shard, name)
            victims.extend(evicted)
        return victims

    def drain_evictions(self) -> List[Any]:
        """Hand over (and clear) every shard's eviction reports: the
        reports one mux would, shard by shard.  Each comes back from one
        drain, through ``recover``, ``fail_over`` and ``rebalance``."""
        self.sync()
        return [r for s in list(self._shards.values()) for r in self._apply(s, DRAIN, None)]

    # -- durability --------------------------------------------------------
    def _checkpoint_shard(self, shard: _Shard) -> None:
        self._drain_acks(shard)
        shard.journal = Journal(self._request(shard, OP_CHECKPOINT, None))
        shard.unsent = shard.unsent_events = 0
        # No journal names the retired ids any more: they are free.
        for sid in shard.retired:
            self._names[sid] = None
        self._free.extend(shard.retired)
        shard.retired = []
        self._count("shard.checkpoints", shard=shard.id)

    def checkpoint(self, shard_id: Optional[str] = None) -> None:
        """Snapshot shard muxes and truncate their journals (a no-op on
        a decide-only pool, which holds no session state)."""
        if self._mux_factory is None:
            return
        targets = (
            [self._shards[shard_id]]
            if shard_id is not None
            else list(self._shards.values())
        )
        for shard in targets:
            self._flush_shard(shard)
            self._checkpoint_shard(shard)

    def crash(self, shard_id: str) -> None:
        """SIGKILL one worker (fault injection; no goodbye, no flush)."""
        shard = self._shards[shard_id]
        if shard.proc.is_alive():
            os.kill(shard.proc.pid, signal.SIGKILL)
        shard.proc.join()
        shard.alive = False

    def _reap(self, shard: _Shard) -> None:
        if shard.proc.is_alive():
            shard.proc.terminate()
        shard.proc.join()
        try:
            shard.conn.close()
        except OSError:  # pragma: no cover
            pass

    def recover(self, shard_id: str) -> float:
        """SIGKILL (if alive) and respawn a shard; rebuild its state.

        Restore the last checkpoint into a fresh worker, then replay the
        journal (every event, close and eviction routed since that
        checkpoint) in original order through :meth:`_replay` —
        deterministic for non-raising drop policies, so the recovered
        shard's verdicts match an uninterrupted run verdict-for-verdict.
        A decide-pool shard has an empty journal: it is just respawned.
        Returns the recovery latency in seconds (also observed as
        ``shard.recovery_latency``).
        """
        old = self._shards[shard_id]
        t0 = time.perf_counter()
        if old.proc.is_alive():
            os.kill(old.proc.pid, signal.SIGKILL)
        self._reap(old)
        shard = self._spawn(shard_id, old.num)
        shard.journal = Journal(old.journal.snapshot)
        if shard.journal.snapshot is not None:
            self._request(shard, OP_RESTORE, shard.journal.snapshot)
        self._replay(old, shard)
        self._flush_shard(shard)
        self._drain_acks(shard)
        latency = time.perf_counter() - t0
        h = _obs.HOOKS
        if h is not None:
            h.count("shard.recoveries", mode="respawn")
            h.observe("shard.recovery_latency", latency)
        return latency

    def _replay(self, dead: _Shard, into: Optional[_Shard] = None) -> None:
        """Re-apply a dead shard's journal the way live traffic arrives;
        routing adds only the shard each record goes to: event columns
        through :meth:`_route`, other records through :meth:`_apply` on
        ``into`` (a respawn) or on the ring's shard for a close, each
        victim of an eviction, and each report drained or filed.

        The dead shard's retired ids are handed to the shards now placing
        them only afterwards: a checkpoint the replay itself triggers
        (``checkpoint_every``) must not free ids later records still name.
        """
        for op, payload in dead.journal.records:
            if op == EVENTS:
                self._route(payload)
                continue
            if into is not None:
                parts = {into.id: payload}
            elif op == CLOSE:
                parts = {self._ring.place(payload[0]): payload}
            elif op == EVICT:
                now, idle_ttl, names = payload
                parts = {k: (now, idle_ttl, g) for k, g in self._by_place(names).items()}
            else:  # DRAIN, REPORTS
                parts = self._by_place(payload, itemgetter("name"))
            for target_id, part in sorted(parts.items()):
                self._apply(self._shards[target_id], op, part)
        for sid in dead.retired:
            self._shards[self._shard_of_num[self._place[sid]]].retired.append(sid)

    def _by_place(self, items: Any, name: Callable[[Any], str] = str) -> Dict[str, List[Any]]:
        """``items`` grouped by the shard the ring places each name on."""
        groups: Dict[str, List[Any]] = {}
        for item in items:
            groups.setdefault(self._ring.place(name(item)), []).append(item)
        return groups

    def _leave(self, snapshot: Dict[str, Any]) -> None:
        """Keep the lifetime counters of a shard leaving the pool, from
        its last snapshot, and file its eviction reports on the shards
        the ring now places their names on."""
        counts = snapshot["counters"].items()
        self._left.update({k.removeprefix("sessions_"): v for k, v in counts})
        for target_id, part in sorted(
            self._by_place(snapshot["eviction_reports"], itemgetter("name")).items()
        ):
            self._apply(self._shards[target_id], REPORTS, part)

    def fail_over(self, shard_id: str) -> List[str]:
        """Retire a dead shard by re-placing its sessions on survivors.

        The dead shard's checkpointed sessions are adopted by the shards
        the shrunken ring now maps them to, and its journal is replayed
        through :meth:`_replay` (re-creating any session born after the
        checkpoint, and closing or evicting what was closed or evicted
        since); the adopting shards are then checkpointed.  Returns the
        names that moved.
        """
        if len(self._shards) < 2:
            raise ShardError("cannot fail over the only shard")
        dead = self._shards.pop(shard_id)
        t0 = time.perf_counter()
        self._reap(dead)
        self._ring.remove(shard_id)
        # Re-place every id on the dead shard, live or retired: its
        # journal still names the retired ones.
        for sid in np.flatnonzero(self._place[: len(self._names)] == dead.num).tolist():
            name = self._names[sid]
            if name is not None:
                self._place[sid] = self._shards[self._ring.place(name)].num
                self._sent[sid] = False
        groups: Dict[str, Dict[str, Any]] = {}
        snapshot = dead.journal.snapshot
        if snapshot is not None:
            # The replay counts what happened since, where it lands.
            self._leave(snapshot)
            for name, entry in snapshot["sessions"].items():
                groups.setdefault(self._ring.place(name), {})[name] = entry
        moved: List[str] = []
        for target_id, entries in sorted(groups.items()):
            target = self._shards[target_id]
            self._flush_shard(target)
            self._drain_acks(target)
            self._request(target, OP_ADOPT, entries)
            moved.extend(entries)
        self._replay(dead)
        self.sync()
        # Adopted sessions are in no snapshot or journal of their new
        # shard yet: checkpoint the adopters so a later crash of one of
        # them recovers them too.
        for target_id in sorted(groups):
            self._checkpoint_shard(self._shards[target_id])
        latency = time.perf_counter() - t0
        h = _obs.HOOKS
        if h is not None:
            h.count("shard.recoveries", mode="failover")
            h.observe("shard.recovery_latency", latency)
            h.count("shard.placement_moves", len(moved), cause="failover")
        return moved


    # -- elasticity --------------------------------------------------------
    def rebalance(self, n_shards: int) -> Dict[str, Any]:
        """Grow or shrink the pool to ``n_shards``, migrating only the
        sessions whose ring placement changed (~K/N of them).

        Live sessions move through the checkpoint extract/adopt path —
        monitor state intact, verdict history intact — and every shard is
        checkpointed afterwards so every journal matches its shard's new
        session set.  Returns a summary with the moved
        session names.
        """
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        self.sync()
        retiring: List[_Shard] = []
        while len(self._shards) < n_shards:
            self._add_shard()
        if len(self._shards) > n_shards:
            for shard_id in self.shard_ids[n_shards:]:
                shard = self._shards[shard_id]
                retiring.append(shard)
                self._ring.remove(shard_id)
        # Where does everything live now?
        moves: Dict[str, Dict[str, List[str]]] = {}
        for name in self._ids:
            old_id, new_id = self.place_of(name), self._ring.place(name)
            if new_id != old_id:
                moves.setdefault(old_id, {}).setdefault(new_id, []).append(name)
        moved: List[str] = []
        for old_id, by_target in sorted(moves.items()):
            source = self._shards[old_id]
            for new_id, names in sorted(by_target.items()):
                entries = self._request(source, OP_EXTRACT, names)
                if entries:
                    target = self._shards[new_id]
                    self._request(target, OP_ADOPT, entries)
                num = self._shards[new_id].num
                for name in names:
                    sid = self._ids[name]
                    self._place[sid] = num
                    self._sent[sid] = False
                moved.extend(entries)
        for shard in retiring:
            del self._shards[shard.id]
            for sid in shard.retired:
                self._names[sid] = None
            self._free.extend(shard.retired)
            snapshot = None
            try:
                if self._mux_factory is not None:  # its sessions moved away
                    snapshot = self._request(shard, OP_CHECKPOINT, None)
                delta = self._request(shard, OP_SHUTDOWN, None)
            except ShardError:
                pass
            else:
                self._merge_delta_result(delta)
            self._reap(shard)
            if snapshot is not None:
                self._leave(snapshot)
        # Re-checkpoint every shard so its journal/snapshot pair describes
        # the new layout: besides the moved sessions, the ring now sends a
        # reopened name where an older close or eviction in an untouched
        # shard's journal would no longer find it.
        self.checkpoint()
        self._count("shard.placement_moves", len(moved), cause="rebalance")
        return {"n_shards": len(self._shards), "moved": moved}

    # -- decide-path support (used by repro.shard.pool) --------------------
    def install_language(self, shard: _Shard, key: int, kind: str, payload: Any) -> None:
        if key not in shard.langs:
            self._request(shard, OP_INSTALL_LANG, (key, kind, payload))
            shard.langs.add(key)

    # -- metrics -----------------------------------------------------------
    def _merge_delta_result(self, delta: Any) -> None:
        h = _obs.HOOKS
        if h is not None and delta:
            h.registry.merge(delta)

    def sync_metrics(self) -> int:
        """Pull every worker's metric delta into the parent registry.

        Returns the number of metric entries merged.  Safe to call
        repeatedly: workers dump deltas, so nothing double-counts.
        """
        self.sync()
        merged = 0
        for shard in self._shards.values():
            delta = self._request(shard, OP_METRICS, None)
            self._merge_delta_result(delta)
            merged += len(delta)
        return merged

    def shutdown(self) -> None:
        """Flush, collect final metrics, and stop every worker."""
        if self._closed:
            return
        self._closed = True
        for shard in self._shards.values():
            if shard.alive:
                try:
                    self._flush_shard(shard)
                    self._drain_acks(shard)
                    delta = self._request(shard, OP_SHUTDOWN, None)
                    self._merge_delta_result(delta)
                except ShardError:
                    pass
            self._reap(shard)
        self._shards.clear()
        self._ids.clear()
