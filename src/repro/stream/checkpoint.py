"""Checkpoint/restore: sessions that survive a process restart.

A long-lived monitoring service must be able to drain, snapshot, and
resume without re-reading its streams from the beginning.  Monitor
state is tiny by construction, and this module turns it into plain
JSON-able dictionaries:

* :class:`~repro.stream.monitor.TBAMonitor` — a *direct* snapshot: the
  capped configuration set, previous timestamp, reorder buffer, and
  counters.  O(state), independent of how many events were ingested.
* :class:`~repro.stream.monitor.Monitor` — generator state is not
  serializable, so machine-backed monitors checkpoint by *replay*: the
  monitor must be built with ``keep_history=True``, the snapshot
  carries the released-event log, and restore re-applies it to a fresh
  machine.  O(events) but exact (the machine re-dispatches the same
  event sequence).
* :class:`~repro.stream.session.SessionMux` — per-session snapshots
  plus the mux counters.

Symbols, TBA states, and clock values cross the serialization boundary
as ``repr`` strings inverted by :func:`ast.literal_eval`, so streams
must use literal-evaluable symbols (strings, numbers, tuples — every
encoding in this repo qualifies).

Observability: ``stream.checkpoints`` counted with ``op=save|restore``.
"""

from __future__ import annotations

import ast
import json
from dataclasses import asdict
from typing import Any, Callable, Dict, List, Optional

from ..automata.timed import TimedBuchiAutomaton
from ..engine.verdict import DecisionReport, Verdict
from ..obs import hooks as _obs
from .monitor import Monitor, StreamVerdict, TBAAnalysis, TBAMonitor, analysis_for
from .session import SessionMux, SessionReport

__all__ = [
    "checkpoint",
    "restore",
    "checkpoint_mux",
    "restore_mux",
    "extract_sessions",
    "restore_sessions",
    "save_json",
    "load_json",
]

FORMAT_VERSION = 1


def _enc(value: Any) -> str:
    text = repr(value)
    try:
        roundtrip = ast.literal_eval(text)
    except (ValueError, SyntaxError):
        raise ValueError(
            f"symbol {value!r} is not literal-evaluable; checkpointing "
            "requires plain-data stream symbols"
        ) from None
    if roundtrip != value:
        raise ValueError(f"symbol {value!r} does not survive repr round-trip")
    return text


def _dec(text: str) -> Any:
    return ast.literal_eval(text)


def _base_state(monitor: Any) -> Dict[str, Any]:
    return {
        "verdict": monitor.verdict.value,
        "max_seen": monitor.max_seen,
        "lateness": monitor.lateness,
        "late_policy": monitor.late_policy,
        "events_ingested": monitor.events_ingested,
        "events_released": monitor.events_released,
        "late_events": monitor.late_events,
        "verdict_flips": monitor.verdict_flips,
        "seq": monitor._seq,
        "buffer": [[t, seq, _enc(sym)] for t, seq, sym in sorted(monitor._heap)],
    }


def _restore_base(monitor: Any, state: Dict[str, Any]) -> None:
    # ``events_released`` and ``seq`` are derived from the ingested
    # count and the buffer; the snapshot keeps them for readers.
    monitor.verdict = StreamVerdict(state["verdict"])
    monitor.max_seen = state["max_seen"]
    monitor.events_ingested = state["events_ingested"]
    monitor.late_events = state["late_events"]
    monitor.verdict_flips = state["verdict_flips"]
    monitor._heap = [(t, seq, _dec(sym)) for t, seq, sym in state["buffer"]]


def checkpoint(monitor: Any) -> Dict[str, Any]:
    """Snapshot one monitor into a JSON-able dictionary."""
    h = _obs.HOOKS
    if h is not None:
        h.count("stream.checkpoints", op="save")
    if hasattr(monitor, "query_verdicts"):
        # PlanMonitors carry per-channel occupancy books the TBA
        # snapshot format cannot express; snapshotting them as plain
        # TBAMonitors would silently lose the per-query verdicts.
        raise NotImplementedError(
            "checkpointing fused plan monitors is not supported; "
            "checkpoint the individual query monitors instead"
        )
    if isinstance(monitor, TBAMonitor):
        return {
            "version": FORMAT_VERSION,
            "kind": "tba",
            "state": dict(
                _base_state(monitor),
                configs=[
                    [_enc(state), list(vals)]
                    for state, vals in sorted(monitor.configs, key=repr)
                ],
                prev_t=monitor.prev_t,
                f_window=monitor.f_window,
                accept_visits=monitor.accept_visits,
                last_accept_time=monitor._last_accept_time,
                green_locked=monitor._green_locked,
            ),
        }
    if isinstance(monitor, Monitor):
        if not monitor.keep_history:
            raise ValueError(
                "machine-backed monitors checkpoint by replay; build the "
                "Monitor with keep_history=True"
            )
        return {
            "version": FORMAT_VERSION,
            "kind": "machine",
            "state": dict(
                _base_state(monitor),
                history=[[_enc(sym), t] for sym, t in monitor.history],
                f_window=monitor.f_window,
            ),
        }
    raise TypeError(f"cannot checkpoint {type(monitor).__name__}")


def restore(
    snapshot: Dict[str, Any],
    *,
    tba: Optional[TimedBuchiAutomaton] = None,
    acceptor: Any = None,
    analysis: Optional[TBAAnalysis] = None,
    compiled: Optional[bool] = None,
) -> Any:
    """Rebuild a monitor from a :func:`checkpoint` snapshot.

    The language artifact is *not* serialized (it is code): pass the
    same ``tba`` for a ``"tba"`` snapshot or the same ``acceptor`` for a
    ``"machine"`` one.  ``compiled`` picks the stepping path of the
    rebuilt :class:`TBAMonitor` exactly like the constructor argument —
    snapshots are path-neutral, so a monitor checkpointed on the
    interpreted path may be restored onto the compiled one and vice
    versa (the spec conformance harness cross-checks this).
    """
    if snapshot.get("version") != FORMAT_VERSION:
        raise ValueError(f"unsupported checkpoint version {snapshot.get('version')!r}")
    h = _obs.HOOKS
    if h is not None:
        h.count("stream.checkpoints", op="restore")
    state = snapshot["state"]
    kind = snapshot["kind"]
    if kind == "tba":
        if tba is None:
            raise ValueError("restoring a 'tba' snapshot needs tba=...")
        monitor = TBAMonitor(
            tba,
            analysis=analysis,
            lateness=state["lateness"],
            late_policy=state["late_policy"],
            f_window=state["f_window"],
            compiled=compiled,
        )
        monitor.configs = frozenset(
            (_dec(s), tuple(vals)) for s, vals in state["configs"]
        )
        monitor.prev_t = state["prev_t"]
        monitor.accept_visits = state["accept_visits"]
        monitor._last_accept_time = state["last_accept_time"]
        monitor._green_locked = state["green_locked"]
        _restore_base(monitor, state)
        return monitor
    if kind == "machine":
        if acceptor is None:
            raise ValueError("restoring a 'machine' snapshot needs acceptor=...")
        monitor = Monitor(
            acceptor,
            lateness=state["lateness"],
            late_policy=state["late_policy"],
            f_window=state["f_window"],
            keep_history=True,
        )
        # Replay the released-event log through the machine, then pin
        # the ingestion counters back to the snapshot's values (replay
        # re-counts releases and flips).
        for sym, t in state["history"]:
            monitor._advance(_dec(sym), t)
        _restore_base(monitor, state)
        return monitor
    raise ValueError(f"unknown checkpoint kind {kind!r}")


def _report_state(report: SessionReport) -> Dict[str, Any]:
    # Plain data: the verdict enums become their values.
    return json.loads(json.dumps(asdict(report), default=lambda e: e.value))


def _restore_report(state: Dict[str, Any]) -> SessionReport:
    d = state["decision"]
    qv = state["query_verdicts"]
    return SessionReport(**dict(
        state,
        verdict=StreamVerdict(state["verdict"]),
        decision=None if d is None else DecisionReport(**dict(d, verdict=Verdict(d["verdict"]))),
        query_verdicts=None if qv is None else {k: StreamVerdict(v) for k, v in qv.items()},
    ))


def _session_entry(mux: SessionMux, name: str, monitor: Any) -> Dict[str, Any]:
    return {
        "snapshot": checkpoint(monitor),
        "last_event_time": monitor.max_seen,
        "drops": mux._drops.get(name, 0),
    }


def checkpoint_mux(mux: SessionMux) -> Dict[str, Any]:
    """Snapshot a whole mux: every session, the mux counters, and the
    undrained eviction reports."""
    return {
        "version": FORMAT_VERSION,
        "kind": "mux",
        "counters": {
            "drops": mux.drops,
            "sessions_opened": mux.sessions_opened,
            "sessions_closed": mux.sessions_closed,
            "sessions_evicted": mux.sessions_evicted,
            "eviction_reports_dropped": mux.eviction_reports_dropped,
        },
        "eviction_reports": [_report_state(r) for r in mux.eviction_reports],
        "sessions": {
            name: _session_entry(mux, name, m) for name, m in mux._sessions.items()
        },
    }


def _restore_entries(
    mux: SessionMux,
    entries: Dict[str, Dict[str, Any]],
    tba: Optional[TimedBuchiAutomaton],
    acceptor: Any,
    compiled: Optional[bool],
) -> List[str]:
    # One analysis per language, shared by every restored session —
    # without this, each restore() re-derives it from scratch (the
    # one-build-per-language invariant is pinned by
    # tests/test_stream_compiled.py).
    analysis = analysis_for(tba) if tba is not None else None
    kw = dict(tba=tba, acceptor=acceptor, analysis=analysis, compiled=compiled)
    for name, entry in entries.items():
        if name in mux:
            raise ValueError(f"session {name!r} already live on this mux")
        mux._add(name, restore(entry["snapshot"], **kw))
        if entry["drops"]:
            mux._drops[name] = entry["drops"]
    h = _obs.HOOKS
    if entries and h is not None:
        h.gauge("stream.sessions_active", len(mux))
    return list(entries)


def restore_mux(
    snapshot: Dict[str, Any],
    mux: SessionMux,
    *,
    tba: Optional[TimedBuchiAutomaton] = None,
    acceptor: Any = None,
    compiled: Optional[bool] = None,
) -> SessionMux:
    """Repopulate a freshly-constructed mux from :func:`checkpoint_mux`.

    ``mux`` must be empty and configured like the one snapshotted (the
    configuration, like the acceptor, is code and is not serialized).
    Snapshots without eviction state restore it as empty.
    """
    if len(mux):
        raise ValueError("restore_mux needs an empty mux")
    if snapshot.get("kind") != "mux":
        raise ValueError(f"not a mux snapshot: kind={snapshot.get('kind')!r}")
    counters = snapshot["counters"]
    mux.drops = counters["drops"]
    mux.sessions_opened = counters["sessions_opened"]
    mux.sessions_closed = counters["sessions_closed"]
    mux.sessions_evicted = counters["sessions_evicted"]
    mux.eviction_reports_dropped = counters.get("eviction_reports_dropped", 0)
    mux.eviction_reports = [
        _restore_report(r) for r in snapshot.get("eviction_reports", [])
    ]
    _restore_entries(mux, snapshot["sessions"], tba, acceptor, compiled)
    return mux


def extract_sessions(mux: SessionMux, names) -> Dict[str, Dict[str, Any]]:
    """Snapshot-and-remove named sessions from a live mux (migration).

    Returns per-session entries shaped exactly like the values of
    ``checkpoint_mux(mux)["sessions"]``, so they can be re-homed into
    another mux with :func:`restore_sessions`.  Unknown names are
    skipped (a stale placement map must not wedge a rebalance).  The
    mux's lifetime counters are untouched: migration is *placement*
    churn, not session churn — the shard runtime counts it separately
    (``shard.placement_moves``).
    """
    entries: Dict[str, Dict[str, Any]] = {}
    for name in names:
        if name in mux:
            entries[name] = _session_entry(mux, name, mux.monitor(name))
            mux._drops.pop(name, None)
            mux._forget(name)
    h = _obs.HOOKS
    if entries and h is not None:
        h.gauge("stream.sessions_active", len(mux))
    return entries


def restore_sessions(
    mux: SessionMux,
    entries: Dict[str, Dict[str, Any]],
    *,
    tba: Optional[TimedBuchiAutomaton] = None,
    acceptor: Any = None,
    compiled: Optional[bool] = None,
) -> List[str]:
    """Re-home :func:`extract_sessions` entries into a live mux.

    The receiving mux may already hold sessions (unlike
    :func:`restore_mux`); a name collision raises rather than silently
    clobbering a live monitor.  Returns the restored names.
    """
    return _restore_entries(mux, entries, tba, acceptor, compiled)


def save_json(path: str, snapshot: Dict[str, Any]) -> None:
    """Write a snapshot to disk as JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(snapshot, fh, indent=2, sort_keys=True)


def load_json(path: str) -> Dict[str, Any]:
    """Read a snapshot back from disk."""
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
