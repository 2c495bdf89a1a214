"""Crash-recovering supervision of a :class:`~repro.stream.session.SessionMux`.

PR 3's checkpoints made mux state *serializable*; this module makes it
*survivable*.  A :class:`MuxSupervisor` is the in-process front door of
a live mux and keeps, at all times, enough durable state to rebuild it
in a :class:`~repro.stream.checkpoint.Journal`, the log each shard of
the shard router keeps too:

* a **checkpoint** — :func:`~repro.stream.checkpoint.checkpoint_mux`
  taken once ``checkpoint_every`` events were journaled since the last
  one (and on demand).  The snapshot carries each session's reorder
  buffer, so every event the mux has *accepted* — watermarked-and-
  applied or still buffered — is inside it;
* the **records** since: ``ingest`` and ``ingest_batch`` journal their
  events before they touch the mux, so a call that raises part-way
  replays to the same point; ``open``, ``close_session``,
  ``evict_idle`` and ``drain_evictions`` journal once the mux accepted
  them.  A change made directly on ``supervisor.mux`` is not journaled.

``crash()`` injects the failure (the live mux is gone — a dead host);
``recover()``, which the next call after a crash also runs, is
:func:`~repro.stream.checkpoint.restore_mux` into a fresh
``mux_factory()`` mux plus a replay of the records through
:func:`~repro.stream.checkpoint.apply_record`, as the shard worker
applies them.  The fresh mux reopens every checkpointed session itself,
on its own language or the session's private query, so the supervisor
never names a language.  The guarantee the fault suite pins: recovery
loses **zero verdicts for calls the supervisor accepted** — the
recovered mux agrees with an uninterrupted run, verdict for verdict.

Recovery itself is timed (the commit-protocol literature's point:
recovery must meet its own bounds): ``recover()`` runs under a
``stream.failover`` span and the wall-clock latency is returned, which
is what ``benchmarks/bench_resilience.py`` measures.

Observability: ``stream.failovers``, ``stream.supervisor_checkpoints``,
``stream.journal_depth`` (gauge, in events), and the ``stream.failover``
span.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional

from ..obs import hooks as _obs
from .checkpoint import CLOSE, DRAIN, EVENT, EVENTS, EVICT, OPEN, Journal, apply_record
from .checkpoint import checkpoint_mux, restore_mux
from .monitor import LateEventError, StreamVerdict
from .session import BackpressureError, SessionMux, SessionReport

__all__ = ["MuxSupervisor"]


class MuxSupervisor:
    """Checkpoint, crash, and restore a session mux with zero verdict loss.

    ``mux_factory`` builds an *empty* mux configured like the one being
    supervised (the acceptor and all policies are code, not data, so
    the factory — not the snapshot — carries them; machine-backed
    monitors must be built with ``keep_history=True`` to be
    checkpointable at all).
    """

    def __init__(
        self,
        mux_factory: Callable[[], SessionMux],
        *,
        checkpoint_every: int = 64,
    ):
        if checkpoint_every < 1:
            raise ValueError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        self._factory = mux_factory
        self.checkpoint_every = checkpoint_every
        self.mux: Optional[SessionMux] = mux_factory()
        self.checkpoints_taken = 0
        self.failovers = 0
        self.last_recovery_s: Optional[float] = None
        self.journal = Journal(checkpoint_mux(self.mux))

    # -- state ------------------------------------------------------------
    @property
    def crashed(self) -> bool:
        """True while the live mux is down (between crash and recover)."""
        return self.mux is None

    def _live(self) -> SessionMux:
        if self.mux is None:
            self.recover()
        assert self.mux is not None
        return self.mux

    # -- the front door ---------------------------------------------------
    def ingest(self, name: str, symbol: Any, t: int) -> StreamVerdict:
        """Feed one event through the supervisor (journaled, then muxed).

        The event is journaled *before* it touches the mux, so a crash
        at any point loses nothing the caller handed over; replay
        re-applies the same outcome (including deterministic drops and
        late-event handling) on the recovered mux.
        """
        mux = self._live()
        journal = self.journal
        journal.append(EVENT, (name, symbol, t), 1)
        try:
            return mux.ingest(name, symbol, t)
        finally:
            if journal.events >= self.checkpoint_every:
                self.checkpoint()

    def ingest_batch(self, events) -> int:
        """Feed many events as one journaled record (``mux.ingest_batch``)."""
        events = tuple(events)  # not the caller's list, which may change
        mux = self._live()
        self.journal.append(EVENTS, events, len(events))
        try:
            return mux.ingest_batch(events)
        finally:
            if self.journal.events >= self.checkpoint_every:
                self.checkpoint()

    def _apply(self, op: str, payload: Any) -> Any:
        result = apply_record(self._live(), op, payload)
        return self.journal.applied(op, payload, result)

    def open(self, name: str, query: Any = None) -> Any:
        """Open a session, on the mux's language or a private ``query``."""
        return self._apply(OPEN, (name, query))

    def close_session(self, name: str, horizon: Optional[int] = None) -> SessionReport:
        """Close one session; returns its SessionReport."""
        return self._apply(CLOSE, (name, horizon))

    def evict_idle(
        self, now: Optional[int] = None, idle_ttl: Optional[int] = None
    ) -> List[str]:
        """Idle eviction; the record keeps ``now`` (``mux.newest()`` if None)."""
        if now is None:
            now = self._live().newest()
        return self._apply(EVICT, (now, idle_ttl, None))

    def drain_evictions(self) -> List[SessionReport]:
        """Hand over (and clear) the eviction reports, for good."""
        return self._apply(DRAIN, None)

    # -- checkpointing ----------------------------------------------------
    def checkpoint(self) -> Dict[str, Any]:
        """Snapshot the live mux now; truncates the journal."""
        snapshot = checkpoint_mux(self._live())
        self.journal = Journal(snapshot)
        self.checkpoints_taken += 1
        h = _obs.HOOKS
        if h is not None:
            h.count("stream.supervisor_checkpoints")
            h.gauge("stream.journal_depth", 0)
        return snapshot

    # -- failure and recovery ---------------------------------------------
    def crash(self) -> None:
        """Inject the fault: the live mux (its host) is gone."""
        self.mux = None

    def recover(self) -> float:
        """Rebuild the mux from the latest checkpoint (+ journal replay).

        Returns the wall-clock recovery latency in seconds.  Safe to
        call on a healthy supervisor (it re-materializes the durable
        state — useful for drills).
        """
        start = time.perf_counter()
        h = _obs.HOOKS
        journal = self.journal

        def rebuild() -> None:
            fresh = restore_mux(journal.snapshot, self._factory())
            for op, payload in journal.records:
                try:
                    apply_record(fresh, op, payload)
                except (LateEventError, BackpressureError):
                    # the original call raised identically; the
                    # mutation (late/drop accounting) already happened
                    pass
            self.mux = fresh

        if h is None:
            rebuild()
        else:
            with h.span(
                "stream.failover",
                sessions=len(journal.snapshot["sessions"]),
                journal=journal.events,
            ):
                rebuild()
            h.count("stream.failovers")
            h.gauge("stream.journal_depth", journal.events)
        self.failovers += 1
        self.last_recovery_s = time.perf_counter() - start
        return self.last_recovery_s

    # -- passthrough ------------------------------------------------------
    def verdicts(self) -> Dict[str, StreamVerdict]:
        """Current verdict-so-far of every session on the live mux."""
        return self._live().verdicts()

    def stats(self) -> Dict[str, int]:
        """Mux counters plus the supervision ledger."""
        stats = dict(self._live().stats())
        stats.update(
            checkpoints=self.checkpoints_taken,
            failovers=self.failovers,
            journal_depth=self.journal.events,
        )
        return stats
