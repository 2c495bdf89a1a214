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
  plus the mux counters; a session opened on a private query also
  carries the query's text (``Query.to_text()``, rendered at checkpoint
  time; a query with no text form refuses).  :func:`restore_mux` and
  :func:`restore_sessions` reopen each session through the receiving
  mux, as ``open`` would (a row on its table, its factory, or the
  session's own query), refuse a snapshot whose kind or monitor
  settings (``lateness``, ``late_policy``, ``f_window``) differ from
  that monitor's, and only then load the state; a refused session is
  taken out again.

Symbols, TBA states, and clock values cross the serialization boundary
as ``repr`` strings inverted by :func:`ast.literal_eval`, so streams
must use literal-evaluable symbols (strings, numbers, tuples — every
encoding in this repo qualifies).

A :class:`Journal` is a snapshot plus the ``(op, payload)`` records
since: ``EVENT``/``EVENTS`` in the front's own encoding, ``OPEN``
``(name, query)``, ``CLOSE`` ``(name, horizon)``, ``EVICT`` ``(now,
idle_ttl, victims)``, ``DRAIN`` with the reports it handed over, and
``REPORTS``, eviction reports filed from a shard that left the pool
(reports in their snapshot encoding).  Both recovering fronts
(supervisor, shard router) apply lifecycle records with
:func:`apply_record`.

Observability: ``stream.checkpoints`` counted with ``op=save|restore``.
"""

from __future__ import annotations

import ast
import json
from dataclasses import asdict
from typing import Any, Dict, List, Optional, Tuple

from ..automata.timed import TimedBuchiAutomaton
from ..engine.verdict import DecisionReport, Verdict
from ..obs import hooks as _obs
from .monitor import Monitor, StreamVerdict, TBAAnalysis, TBAMonitor
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
    "Journal",
    "apply_record",
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


def _kind(monitor: Any) -> Optional[str]:
    """The snapshot kind of a monitor (``"plan"`` never checkpoints)."""
    if hasattr(monitor, "query_verdicts"):
        return "plan"
    if isinstance(monitor, TBAMonitor):
        return "tba"
    if isinstance(monitor, Monitor):
        return "machine"
    return None


def checkpoint(monitor: Any) -> Dict[str, Any]:
    """Snapshot one monitor into a JSON-able dictionary."""
    h = _obs.HOOKS
    if h is not None:
        h.count("stream.checkpoints", op="save")
    kind = _kind(monitor)
    if kind == "plan":
        # PlanMonitors carry per-channel occupancy books the TBA
        # snapshot format cannot express; snapshotting them as plain
        # TBAMonitors would silently lose the per-query verdicts.
        raise NotImplementedError(
            "checkpointing fused plan monitors is not supported; "
            "checkpoint the individual query monitors instead"
        )
    if kind == "tba":
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
    if kind == "machine":
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


def _state(snapshot: Dict[str, Any]) -> Dict[str, Any]:
    if snapshot.get("version") != FORMAT_VERSION:
        raise ValueError(f"unsupported checkpoint version {snapshot.get('version')!r}")
    return snapshot["state"]


def _load(monitor: Any, snapshot: Dict[str, Any]) -> Any:
    """Load a :func:`checkpoint` snapshot into a fresh ``monitor``,
    refusing one whose kind or settings differ from the monitor's."""
    state = _state(snapshot)
    saved = (snapshot["kind"], state["lateness"], state["late_policy"], state["f_window"])
    built = (_kind(monitor), monitor.lateness, monitor.late_policy, monitor.f_window)
    if saved != built:
        raise ValueError(
            f"snapshot (kind, lateness, late_policy, f_window) {saved} does not "
            f"fit this mux's monitor {built}"
        )
    if state["buffer"] and not state["lateness"]:
        raise ValueError("snapshot buffers events, which lateness 0 never does")
    h = _obs.HOOKS
    if h is not None:
        h.count("stream.checkpoints", op="restore")
    if built[0] == "tba":
        monitor.configs = frozenset(
            (_dec(s), tuple(vals)) for s, vals in state["configs"]
        )
        monitor.prev_t = state["prev_t"]
        monitor.accept_visits = state["accept_visits"]
        monitor._last_accept_time = state["last_accept_time"]
        monitor._green_locked = state["green_locked"]
    else:
        # Replay the released-event log through the machine, then pin
        # the ingestion counters back to the snapshot's values (replay
        # re-counts releases and flips).
        for sym, t in state["history"]:
            monitor._advance(_dec(sym), t)
    _restore_base(monitor, state)
    return monitor


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
    state = _state(snapshot)
    settings = {k: state[k] for k in ("lateness", "late_policy", "f_window")}
    kind = snapshot["kind"]
    if kind == "tba":
        if tba is None:
            raise ValueError("restoring a 'tba' snapshot needs tba=...")
        monitor = TBAMonitor(tba, analysis=analysis, compiled=compiled, **settings)
    elif kind == "machine":
        if acceptor is None:
            raise ValueError("restoring a 'machine' snapshot needs acceptor=...")
        monitor = Monitor(acceptor, keep_history=True, **settings)
    else:
        raise ValueError(f"unknown checkpoint kind {kind!r}")
    return _load(monitor, snapshot)


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
    entry = {
        "snapshot": checkpoint(monitor),
        "last_event_time": monitor.max_seen,
        "drops": mux._drops.get(name, 0),
    }
    query = mux._queries.get(name)
    if query is not None:
        from ..query import as_query

        entry["query"] = as_query(query).to_text()
    return entry


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
            name: _session_entry(mux, name, mux._session(name)) for name in mux.active
        },
    }


def _restore_entries(mux: SessionMux, entries: Dict[str, Dict[str, Any]]) -> List[str]:
    # Each session reopens through the mux's own door (its artifacts, its
    # path); one its snapshot does not fit is taken out again.
    for name, entry in entries.items():
        if name in mux:
            raise ValueError(f"session {name!r} already live on this mux")
        mux._register([name], entry.get("query"))
        try:
            _load(mux._session(name), entry["snapshot"])
        except Exception:
            mux._forget(name)
            raise
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
) -> SessionMux:
    """Repopulate a freshly-constructed mux from :func:`checkpoint_mux`.

    ``mux`` must be empty and configured like the one snapshotted (the
    configuration, like the acceptor, is code and is not serialized);
    ``tba``, if given, must be its automaton.  Snapshots without
    eviction state restore it as empty.
    """
    if len(mux):
        raise ValueError("restore_mux needs an empty mux")
    if snapshot.get("kind") != "mux":
        raise ValueError(f"not a mux snapshot: kind={snapshot.get('kind')!r}")
    if tba is not None and tba is not mux.acceptor:
        raise ValueError("tba= is not this mux's automaton")
    counters = snapshot["counters"]
    mux.drops = counters["drops"]
    mux.sessions_opened = counters["sessions_opened"]
    mux.sessions_closed = counters["sessions_closed"]
    mux.sessions_evicted = counters["sessions_evicted"]
    mux.eviction_reports_dropped = counters.get("eviction_reports_dropped", 0)
    mux.eviction_reports = [
        _restore_report(r) for r in snapshot.get("eviction_reports", [])
    ]
    _restore_entries(mux, snapshot["sessions"])
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
            entries[name] = _session_entry(mux, name, mux._session(name))
            mux._drops.pop(name, None)
            mux._forget(name)
    h = _obs.HOOKS
    if entries and h is not None:
        h.gauge("stream.sessions_active", len(mux))
    return entries


def restore_sessions(mux: SessionMux, entries: Dict[str, Dict[str, Any]]) -> List[str]:
    """Re-home :func:`extract_sessions` entries into a live mux.

    The receiving mux may already hold sessions (unlike
    :func:`restore_mux`); a name collision raises rather than silently
    clobbering a live monitor.  Returns the restored names.
    """
    return _restore_entries(mux, entries)


def save_json(path: str, snapshot: Dict[str, Any]) -> None:
    """Write a snapshot to disk as JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(snapshot, fh, indent=2, sort_keys=True)


def load_json(path: str) -> Dict[str, Any]:
    """Read a snapshot back from disk."""
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


#: Journal record ops (payloads in the module docstring).
EVENT, EVENTS, OPEN, CLOSE, EVICT, DRAIN, REPORTS = (
    "event", "events", "open", "close", "evict", "drain", "reports",
)


class Journal:
    """A mux's last snapshot (``None`` before the first) and the
    records applied since, in order, with the events they carry."""

    __slots__ = ("snapshot", "records", "events")

    def __init__(self, snapshot: Optional[Dict[str, Any]] = None):
        self.snapshot = snapshot
        self.records: List[Tuple[str, Any]] = []
        self.events = 0

    def append(self, op: str, payload: Any, events: int) -> None:
        self.records.append((op, payload))
        self.events += events

    def applied(self, op: str, payload: Any, result: Any) -> Any:
        """Journal a lifecycle record the mux accepted with ``result``;
        an eviction keeps its victims, a drain the reports it handed
        over.  Returns ``result``."""
        if op == EVICT:
            payload = (payload[0], payload[1], result)
        elif op == DRAIN:
            payload = [_report_state(r) for r in result]
        self.records.append((op, payload))
        return result


def apply_record(mux: SessionMux, op: str, payload: Any) -> Any:
    """Apply one journal record to ``mux`` through the call that made
    it live; returns that call's result (an eviction's victims, a
    drain's reports)."""
    if op == EVENT:
        return mux.ingest(*payload)
    if op == EVENTS:
        return mux.ingest_batch(payload)
    if op == OPEN:
        return mux.open(*payload)
    if op == CLOSE:
        return mux.close(*payload)
    if op == EVICT:
        now, idle_ttl, victims = payload
        if victims is None:
            return mux.evict_idle(now, idle_ttl)
        mux._evict(victims, now)
        return victims
    if op == DRAIN:
        return mux.drain_evictions(
            None if payload is None else [_restore_report(r) for r in payload]
        )
    if op == REPORTS:
        return mux._file([_restore_report(r) for r in payload])
    raise ValueError(f"unknown journal record {op!r}")
