"""Crash-recovering supervision of a :class:`~repro.stream.session.SessionMux`.

PR 3's checkpoints made mux state *serializable*; this module makes it
*survivable*.  A :class:`MuxSupervisor` stands in front of a live mux
and maintains, at all times, enough durable state to rebuild it:

* a **checkpoint** — :func:`~repro.stream.checkpoint.checkpoint_mux`
  taken every ``checkpoint_every`` ingested events (and on demand).
  The snapshot carries each session's reorder buffer, so every event
  the mux has *accepted* — watermarked-and-applied or still buffered —
  is inside it;
* a **journal** — the ordered tail of events ingested since the last
  checkpoint.  Replaying it through a restored mux is deterministic
  (same order ⇒ same drops, same late-event outcomes, same verdicts),
  which closes the gap between the checkpoint and the crash.

``crash()`` injects the failure (the live mux is gone — a dead host);
``recover()`` rebuilds from ``mux_factory`` + latest checkpoint +
journal replay.  The factory's fresh mux reopens every checkpointed
session itself (:func:`~repro.stream.checkpoint.restore_mux`), on its
own language or the session's private query, so the supervisor never
names a language.  The guarantee the fault suite pins: recovery loses
**zero verdicts for events the supervisor accepted** — the recovered
mux agrees with an uninterrupted run, verdict for verdict.  With the
journal disabled (``journal=False``) the guarantee weakens to the
checkpoint boundary: nothing already checkpointed (in particular every
watermarked event) is lost, and nothing wrong is ever re-emitted,
because replay starts from a consistent snapshot rather than from
guesswork.

Recovery itself is timed (the commit-protocol literature's point:
recovery must meet its own bounds): ``recover()`` runs under a
``stream.failover`` span and the wall-clock latency is returned, which
is what ``benchmarks/bench_resilience.py`` measures.

Observability: ``stream.failovers``, ``stream.supervisor_checkpoints``,
``stream.journal_depth`` (gauge), and the ``stream.failover`` span.
``snapshot_path`` additionally persists each checkpoint as JSON via
:func:`~repro.stream.checkpoint.save_json` for process-restart
durability.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..obs import hooks as _obs
from .checkpoint import checkpoint_mux, restore_mux, save_json
from .monitor import LateEventError, StreamVerdict
from .session import BackpressureError, SessionMux

__all__ = ["MuxSupervisor", "CrashedError"]


class CrashedError(RuntimeError):
    """The supervised mux is down and auto-recovery is disabled."""


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
        journal: bool = True,
        auto_recover: bool = True,
        snapshot_path: Optional[str] = None,
    ):
        if checkpoint_every < 1:
            raise ValueError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        self._factory = mux_factory
        self.checkpoint_every = checkpoint_every
        self.journal_enabled = journal
        self.auto_recover = auto_recover
        self.snapshot_path = snapshot_path
        self.mux: Optional[SessionMux] = mux_factory()
        self.journal: List[Tuple[str, Any, int]] = []
        self.events_since_checkpoint = 0
        self.checkpoints_taken = 0
        self.failovers = 0
        self.last_recovery_s: Optional[float] = None
        self._snapshot = checkpoint_mux(self.mux)

    # -- state ------------------------------------------------------------
    @property
    def crashed(self) -> bool:
        """True while the live mux is down (between crash and recover)."""
        return self.mux is None

    def _live(self) -> SessionMux:
        if self.mux is None:
            if not self.auto_recover:
                raise CrashedError(
                    "supervised mux is down; call recover() (or enable "
                    "auto_recover)"
                )
            self.recover()
        assert self.mux is not None
        return self.mux

    # -- ingestion --------------------------------------------------------
    def ingest(self, name: str, symbol: Any, t: int) -> StreamVerdict:
        """Feed one event through the supervisor (journaled, then muxed).

        The event is journaled *before* it touches the mux, so a crash
        at any point loses nothing the caller handed over; replay
        re-applies the same outcome (including deterministic drops and
        late-event handling) on the recovered mux.
        """
        mux = self._live()
        if self.journal_enabled:
            self.journal.append((name, symbol, t))
        try:
            verdict = mux.ingest(name, symbol, t)
        finally:
            self.events_since_checkpoint += 1
            if self.events_since_checkpoint >= self.checkpoint_every:
                self.checkpoint()
        return verdict

    # -- checkpointing ----------------------------------------------------
    def checkpoint(self) -> Dict[str, Any]:
        """Snapshot the live mux now; truncates the journal."""
        mux = self._live()
        self._snapshot = checkpoint_mux(mux)
        self.journal.clear()
        self.events_since_checkpoint = 0
        self.checkpoints_taken += 1
        if self.snapshot_path is not None:
            save_json(self.snapshot_path, self._snapshot)
        h = _obs.HOOKS
        if h is not None:
            h.count("stream.supervisor_checkpoints")
            h.gauge("stream.journal_depth", 0)
        return self._snapshot

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

        def rebuild() -> None:
            fresh = restore_mux(self._snapshot, self._factory())
            for name, symbol, t in self.journal:
                try:
                    fresh.ingest(name, symbol, t)
                except (LateEventError, BackpressureError):
                    # the original ingest raised identically; the
                    # mutation (late/drop accounting) already happened
                    pass
            self.mux = fresh

        if h is None:
            rebuild()
        else:
            with h.span(
                "stream.failover",
                sessions=len(self._snapshot["sessions"]),
                journal=len(self.journal),
            ):
                rebuild()
            h.count("stream.failovers")
            h.gauge("stream.journal_depth", len(self.journal))
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
            journal_depth=len(self.journal),
            events_since_checkpoint=self.events_since_checkpoint,
        )
        return stats
