"""The long-lived shard worker: one process, one warm mux, warm caches.

A worker is forked once by the :class:`~repro.shard.router.ShardRouter`
and then serves frames until told to shut down (or killed — that case
is the router's per-shard recovery path).  Everything expensive lives
*here*, warm, for the worker's whole life:

* the :class:`~repro.stream.session.SessionMux` with its shared
  :class:`~repro.stream.monitor.TBAAnalysis` and
  :class:`~repro.stream.compiled.CompiledTBA` (built once at worker
  start, reused by every session and every recovery restore: a restore
  or an adoption reopens each session through the mux itself, so the
  worker never names a language and any mux the factory builds,
  ``monitor_factory`` ones included, checkpoints and recovers);
* the acceptors installed via ``OP_INSTALL_LANG``, each of which
  serves every later ``OP_DECIDE`` chunk without re-pickling; a machine
  compiled from a TBA arrives as itself and is compiled again, once,
  into the engine's :class:`~repro.engine.batch.AcceptorCache` as it
  unpickles;
* the worker's own :class:`~repro.obs.Instrumentation` — metrics
  recorded here (``stream.*``, ``kernel.*``, ``engine.*``) are shipped
  to the parent as :class:`~repro.obs.DeltaDumper` deltas riding on
  ``OP_METRICS`` / ``OP_DECIDE`` / ``OP_SHUTDOWN`` replies, so
  child-side counts surface in the parent registry instead of dying
  with the process.

Event frames arrive as columns (:class:`~repro.shard.wire.EventBatch`):
router session ids, router symbol ids and times.  The worker keeps the
router's names and symbols it has been sent (each arrives once per
worker lifetime) and maps router ids to its mux's ids with two gathers
per frame; the mux then runs the same wave code its own
:meth:`~repro.stream.session.SessionMux.ingest_batch` runs after
encoding (:meth:`~repro.stream.session.SessionMux.ingest_columns`).  A
router id is resolved by name on first use and its entry dropped
whenever the mux may hand its session's id to another session: a
close or an eviction (applied by
:func:`~repro.stream.checkpoint.apply_record`, as in the supervisor),
an extraction, a restore.

The loop is single-threaded and processes frames strictly in order —
which is what makes the router's journal replay deterministic: same
frame order in, same mux state out.  Any handler exception is caught
and reported (``OP_ERR`` for requests, an error ACK for event frames);
the worker itself keeps serving.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from ..engine.batch import _decide_chunk
from ..engine.strategies import get_strategy
from ..obs import DeltaDumper, Instrumentation
from ..obs import hooks as _obs_hooks
from .wire import (
    OP_ACK,
    OP_ADOPT,
    OP_CHECKPOINT,
    OP_DECIDE,
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
    recv_frame,
    send_frame,
)

__all__ = ["worker_main"]


class _Worker:
    def __init__(self, conn: Any, shard_id: str, mux_factory: Optional[Callable]):
        self.conn = conn
        self.shard_id = shard_id
        self._factory = mux_factory
        # The mux (and its per-language analysis/compiled artifacts) is
        # built once, here, at worker start — the warm state the whole
        # design exists to keep resident.
        self.mux = mux_factory() if mux_factory is not None else None
        self.langs: Dict[int, Any] = {}
        #: Router names and symbols by router id, and router id → mux id
        #: (``-1``: resolve by name / symbol at next use).
        self.names: List[Optional[str]] = []
        self.symbols: List[Any] = []
        self.ids = np.empty(0, dtype=np.intp)
        self.syms = np.empty(0, dtype=np.intp)
        # The worker always runs instrumented: its metrics only reach a
        # user if the parent pulls and merges them, and the cost of an
        # idle registry is nil.
        self.inst = _obs_hooks.install(Instrumentation())
        self.delta = DeltaDumper(self.inst.registry)
        # Labeled by shard so merged parent registries keep the shards
        # apart (unlabeled gauges from two workers would clobber).
        self._frames = self.inst.registry.counter(
            "shard.worker_frames", "frames served by a shard worker"
        ).labels(shard=shard_id)

    def _live_mux(self):
        if self.mux is None:
            raise RuntimeError(
                f"shard {self.shard_id!r} is decide-only (no mux configured)"
            )
        return self.mux

    # -- handlers ----------------------------------------------------------
    @staticmethod
    def _learn(table: List[Any], column: Any, pairs: Any) -> Any:
        """Record ``(router id, value)`` pairs; returns ``column`` grown
        to cover them, their entries reset for resolution."""
        for rid, value in pairs:
            if rid >= len(table):
                table.extend([None] * (rid + 1 - len(table)))
            table[rid] = value
        if len(column) < len(table):
            grown = np.full(2 * len(table), -1, dtype=np.intp)
            grown[: len(column)] = column
            column = grown
        column[[rid for rid, _value in pairs]] = -1
        return column

    def on_events(self, batch) -> Any:
        mux = self._live_mux()
        if batch.names:
            self.ids = self._learn(self.names, self.ids, batch.names)
        if batch.symbols:
            self.syms = self._learn(self.symbols, self.syms, batch.symbols)
        syms = self.syms[batch.syms]
        if syms.min() < 0:
            new = list(dict.fromkeys(batch.syms[syms < 0].tolist()))
            self.syms[new] = mux.symbol_ids([self.symbols[r] for r in new])
            syms = self.syms[batch.syms]
        rids, times = batch.ids, batch.times
        ids = self.ids[rids]
        refused = None
        if ids.min() < 0:
            new = list(dict.fromkeys(rids[ids < 0].tolist()))
            known, refused = mux.session_ids([self.names[r] for r in new])
            self.ids[new[: len(known)]] = known
            if refused is not None:
                # Exactly the events before the refused session's first.
                cut = int(np.argmax(rids == new[len(known)]))
                rids, syms, times = rids[:cut], syms[:cut], times[:cut]
            ids = self.ids[rids]
        mux.ingest_columns(ids, syms, times)
        if refused is not None:
            raise refused
        return len(batch)

    def on_verdicts(self, _payload) -> Dict[str, Any]:
        return self._live_mux().verdicts()

    def on_stats(self, _payload) -> Dict[str, int]:
        return self._live_mux().stats()

    def on_checkpoint(self, _payload) -> Dict[str, Any]:
        from ..stream.checkpoint import checkpoint_mux

        return checkpoint_mux(self._live_mux())

    def on_restore(self, snapshot) -> int:
        from ..stream.checkpoint import restore_mux

        self._live_mux()  # refuses on a decide-only shard
        self.mux = restore_mux(snapshot, self._factory())
        # A fresh mux numbers its sessions and symbols anew.
        self.ids.fill(-1)
        self.syms.fill(-1)
        return len(self.mux)

    def on_extract(self, names) -> Dict[str, Any]:
        from ..stream.checkpoint import extract_sessions

        self.ids.fill(-1)
        return extract_sessions(self._live_mux(), names)

    def on_adopt(self, entries) -> int:
        from ..stream.checkpoint import restore_sessions

        return len(restore_sessions(self._live_mux(), entries))

    def on_record(self, record) -> Any:
        from ..stream.checkpoint import CLOSE, apply_record

        mux = self._live_mux()
        op, payload = record
        if op == CLOSE:  # frees the closed session's mux id
            self.ids[self.ids == mux._ids.get(payload[0], -1)] = -1
        else:  # an eviction frees many
            self.ids.fill(-1)
        return apply_record(mux, op, payload)

    def on_newest(self, _payload) -> Any:
        return self._live_mux().newest()

    def on_install_lang(self, payload) -> bool:
        key, acceptor = payload
        self.langs[key] = acceptor
        return True

    def on_decide(self, payload) -> Any:
        lang_key, lo, words, horizon, strategy_spec, seed = payload
        acceptor = self.langs[lang_key]
        strat = get_strategy(strategy_spec)
        reports = _decide_chunk(acceptor, words, horizon, strat, seed, lo)
        return reports, self.delta.delta()

    def on_metrics(self, _payload) -> Any:
        if self.mux is not None:
            # sample the worker-side session level on the way out
            self.inst.registry.gauge(
                "shard.worker_sessions", "sessions resident on this shard"
            ).labels(shard=self.shard_id).set(len(self.mux))
        return self.delta.delta()

    # -- the loop ----------------------------------------------------------
    HANDLERS = {
        OP_EVENTS: on_events,
        OP_VERDICTS: on_verdicts,
        OP_STATS: on_stats,
        OP_CHECKPOINT: on_checkpoint,
        OP_RESTORE: on_restore,
        OP_EXTRACT: on_extract,
        OP_ADOPT: on_adopt,
        OP_RECORD: on_record,
        OP_NEWEST: on_newest,
        OP_INSTALL_LANG: on_install_lang,
        OP_DECIDE: on_decide,
        OP_METRICS: on_metrics,
    }

    def serve(self) -> None:
        while True:
            try:
                frame = recv_frame(self.conn)
            except (EOFError, OSError):
                return  # parent is gone; nothing left to serve
            self._frames.inc()
            op, seq, payload = frame
            if op == OP_SHUTDOWN:
                send_frame(self.conn, OP_REPLY, seq, self.on_metrics(None))
                return
            handler = self.HANDLERS.get(op)
            try:
                if handler is None:
                    raise ValueError(f"unknown opcode {op}")
                result = handler(self, payload)
            except Exception as exc:  # noqa: BLE001 — report, keep serving
                if op == OP_EVENTS:
                    send_frame(self.conn, OP_ACK, seq, ("err", repr(exc)))
                else:
                    send_frame(self.conn, OP_ERR, seq, repr(exc))
                continue
            if op == OP_EVENTS:
                send_frame(self.conn, OP_ACK, seq, ("ok", result))
            else:
                send_frame(self.conn, OP_REPLY, seq, result)


def worker_main(
    conn: Any, shard_id: str, mux_factory: Optional[Callable] = None
) -> None:
    """Entry point of a forked shard worker (runs until shutdown/EOF)."""
    worker = _Worker(conn, shard_id, mux_factory)
    try:
        worker.serve()
    finally:
        try:
            conn.close()
        except OSError:  # pragma: no cover
            pass
        # daemonized children must not run the parent's atexit hooks
        os._exit(0)
