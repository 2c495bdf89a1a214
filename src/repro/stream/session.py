"""Multiplexing many live streams over shared compiled acceptors.

A service front-end does not monitor one stream; it monitors thousands
of named sessions against a handful of *languages*.  The
:class:`SessionMux` owns that fan-in: sessions are created on first
event, every session gets its own O(state) monitor, and the expensive
per-language artifacts are shared — one
:class:`~repro.stream.monitor.TBAAnalysis` **and one**
:class:`~repro.stream.compiled.CompiledTBA` per automaton (via the
engine's acceptor LRU and the analysis-attached compile cache — built
once per language, never per session), and one acceptor object per
machine-protocol language (each session's
:class:`~repro.stream.monitor.Monitor` builds only a private simulator
around the shared program).

Ingestion has two paths, verdict-identical by construction and pinned
so by ``tests/test_stream_compiled.py``:

* :meth:`SessionMux.ingest` — one event into one session, the scalar
  path every policy decision (late events, backpressure, drops) runs
  through.
* :meth:`SessionMux.ingest_batch` — many ``(name, symbol, t)`` events
  at once.  On a compiled table (any plain TBA or a fused plan) each
  session's monitor is a view onto one slot of a columnar
  :class:`~repro.stream.monitor.SlotTable`.  Few deep sessions run the
  table's scalar scan; otherwise the batch is encoded once into
  columns and handed to :meth:`SessionMux.ingest_columns`, where each
  wave of the batch is advanced by one vectorized judge kernel (a
  ``step_many`` gather plus numpy flag, verdict and counter updates).
  Everything else — machine-backed monitors, buffering sessions, late
  or out-of-order events — falls back to the scalar path, event order
  preserved per session.

The columns are integer ids: every session has an id while it is open
(:meth:`SessionMux.session_ids`; freed on close, eviction or
extraction and reused), an id-indexed column gives its slot on the
table (``-1`` off it), and symbols take the table's ``sym_index``
codes, any other symbol interned after them
(:meth:`SessionMux.symbol_ids`).  A shard worker
(:mod:`repro.shard.worker`) hands the router's columns to
:meth:`SessionMux.ingest_columns` directly, so both front-ends share
one wave path.

Boundedness is explicit, not accidental:

* ``buffer_limit`` caps each session's reorder buffer; an event that
  would overflow it triggers the ``drop_policy`` — ``"drop-new"``
  (discard the incoming event), ``"drop-old"`` (force-apply the oldest
  buffered event to make room; order-safe), or ``"reject"`` (raise
  :class:`BackpressureError` so the caller can shed load).
* ``max_sessions`` bounds the session table; opening past it raises
  :class:`BackpressureError`.
* ``evict_idle`` retires sessions whose newest event is older than
  ``idle_ttl`` (event time, so replay and live traffic age alike).
* ``max_eviction_reports`` caps the eviction-summary backlog when the
  caller never drains it (drop-oldest; the
  ``stream.eviction_reports_dropped`` counter says how many summaries
  were lost).

The front-end accepts :mod:`repro.query` directly: ``query=`` monitors
every session against one declarative query (text or a ``Q`` builder
query), ``plan=`` shares one fused :class:`~repro.query.plan.QueryPlan`
table across all sessions (each session gets a
:class:`~repro.query.plan.PlanMonitor` with per-query verdicts in its
:class:`SessionReport`), and ``open(name, query=...)`` pins a
session-private query.

Observability: ``stream.sessions`` (``op=opened|closed|evicted``), the
``stream.sessions_active`` gauge, and ``stream.drops`` (``policy=…``);
per-event metrics come from the monitors themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from operator import itemgetter
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from ..automata.timed import TimedBuchiAutomaton
from ..engine.verdict import DecisionReport, Verdict
from ..obs import hooks as _obs
from .compiled import compiled_for
from .monitor import Monitor, SlotTable, StreamVerdict, TBAMonitor, analysis_for

__all__ = ["BackpressureError", "SessionReport", "SessionMux"]

DROP_POLICIES = ("drop-new", "drop-old", "reject")

#: Fields of a ``(name, symbol, t)`` batch event.
_NAME, _SYMBOL, _TIME = itemgetter(0), itemgetter(1), itemgetter(2)


def _as_list(column: Any) -> List[Any]:
    """A column as a list of Python scalars."""
    return column.tolist() if hasattr(column, "tolist") else list(column)


class BackpressureError(RuntimeError):
    """The mux refused work under its explicit bounding policy."""


@dataclass
class SessionReport:
    """Lifecycle summary handed back when a session closes."""

    name: str
    verdict: StreamVerdict
    events_ingested: int
    events_released: int
    late_events: int
    drops: int
    verdict_flips: int
    decision: Optional[DecisionReport] = None
    #: Per-query verdicts when the session ran a fused
    #: :class:`~repro.query.plan.PlanMonitor` (None otherwise).
    query_verdicts: Optional[Dict[str, StreamVerdict]] = None


class SessionMux:
    """Route named event streams into per-session online monitors.

    ``acceptor`` is the shared language artifact: a
    :class:`~repro.automata.timed.TimedBuchiAutomaton` (sessions get
    :class:`TBAMonitor`\\ s over one cached analysis) or any
    machine-protocol acceptor (sessions get :class:`Monitor`\\ s around
    the shared program).  ``monitor_factory`` overrides the choice —
    any zero-argument callable returning a monitor.  ``query`` (text or
    a ``Q`` builder query; ``alphabet`` optionally widens its symbol
    set) compiles to a TBA and proceeds like an automaton acceptor;
    ``plan`` shares one :class:`~repro.query.plan.QueryPlan` —
    every session gets a :class:`~repro.query.plan.PlanMonitor` over
    the plan's one fused table, and session reports carry per-query
    verdicts.
    """

    def __init__(
        self,
        acceptor: Any = None,
        *,
        monitor_factory: Optional[Callable[[], Any]] = None,
        query: Any = None,
        plan: Any = None,
        alphabet: Optional[Any] = None,
        lateness: int = 0,
        late_policy: str = "drop",
        f_window: Optional[int] = None,
        buffer_limit: int = 64,
        drop_policy: str = "drop-new",
        max_sessions: Optional[int] = None,
        idle_ttl: Optional[int] = None,
        max_eviction_reports: Optional[int] = None,
        compiled: Optional[bool] = None,
    ):
        given = sum(
            x is not None for x in (acceptor, monitor_factory, query, plan)
        )
        if given != 1:
            raise ValueError(
                "pass exactly one of acceptor / monitor_factory / query / plan"
            )
        if query is not None:
            # Queries are pure front-end: lower to a TBA here and share
            # its artifacts exactly like an automaton acceptor.
            from ..query import as_query

            acceptor = as_query(query).tba(alphabet)
        elif alphabet is not None:
            raise ValueError("alphabet= only applies to query= muxes")
        if max_eviction_reports is not None and max_eviction_reports < 1:
            raise ValueError(
                f"max_eviction_reports must be >= 1, got {max_eviction_reports}"
            )
        if buffer_limit < 1:
            raise ValueError(f"buffer_limit must be >= 1, got {buffer_limit}")
        if drop_policy not in DROP_POLICIES:
            raise ValueError(
                f"drop_policy must be one of {DROP_POLICIES}, got {drop_policy!r}"
            )
        self.acceptor = acceptor
        self.plan = plan
        self.buffer_limit = buffer_limit
        self.drop_policy = drop_policy
        self.max_sessions = max_sessions
        self.idle_ttl = idle_ttl
        self.max_eviction_reports = max_eviction_reports
        self.drops = 0
        self.sessions_opened = 0
        self.sessions_closed = 0
        self.sessions_evicted = 0
        self.eviction_reports_dropped = 0
        #: Per-victim summaries from :meth:`evict_idle` (an evicted
        #: in-flight session must surface as UNDECIDED with evidence,
        #: never vanish silently); drain with :meth:`drain_evictions`.
        #: Bounded by ``max_eviction_reports`` (drop-oldest).
        self.eviction_reports: List[SessionReport] = []
        self._sessions: Dict[str, Any] = {}
        #: Per-session drop counts (absent until a session drops).
        self._drops: Dict[str, int] = {}
        #: The private query of each session opened with one.
        self._queries: Dict[str, Any] = {}
        #: Monitor knobs shared with per-session query overrides
        #: (``open(name, query=...)``).
        self._monitor_kw = dict(
            lateness=lateness,
            late_policy=late_policy,
            f_window=f_window,
            compiled=compiled,
        )
        #: The shared compiled table for batch stepping (None when the
        #: language is not a TBA or compilation is off).
        self._tba_compiled = None
        #: The columnar session table over ``_tba_compiled`` (on-time
        #: muxes only).
        self._table: Optional[SlotTable] = None
        #: Session ids: name → id, id → name (``None`` once freed), and
        #: the freed ids a new session takes first.
        self._ids: Dict[str, int] = {}
        self._names: List[Optional[str]] = []
        self._free_ids: List[int] = []
        #: id → slot on ``_table`` (``-1`` off the table); numpy, so a
        #: batch finds its slots with one gather.
        self._slot_of: Any = None
        if monitor_factory is not None:
            self._factory = monitor_factory
        elif plan is not None:
            # One fused table per plan: the plan already owns it and
            # its components' analyses; every session's PlanMonitor
            # steps that same table.
            if compiled is not False:
                self._tba_compiled = plan.compiled
            self._factory = lambda: plan.monitor(**self._monitor_kw)
        elif isinstance(acceptor, TimedBuchiAutomaton):
            # Both per-language artifacts are built exactly once here
            # and shared by every session (and by checkpoint restores).
            analysis = analysis_for(acceptor)
            if compiled is not False:
                self._tba_compiled = compiled_for(analysis)
            self._factory = lambda: TBAMonitor(
                acceptor, analysis=analysis, **self._monitor_kw
            )
        else:
            self._factory = lambda: Monitor(
                acceptor,
                lateness=lateness,
                late_policy=late_policy,
                f_window=f_window,
            )
        comp = self._tba_compiled
        if comp is not None and lateness == 0:
            self._table = SlotTable(
                comp, f_window, ledger=plan is not None, columnar=True
            )
            self._slot_of = np.empty(0, dtype=np.int32)
        #: Symbol ids: the table's ``sym_index`` codes, then every other
        #: symbol in order of arrival.
        self._symbols: List[Any] = []
        self._sym_ids: Dict[Any, int] = {}
        if self._table is not None:
            self._symbols, self._sym_ids = list(comp.symbols), dict(comp.sym_index)

    # -- session table -----------------------------------------------------
    def __len__(self) -> int:
        return len(self._sessions)

    def __contains__(self, name: str) -> bool:
        return name in self._sessions

    @property
    def active(self) -> List[str]:
        return list(self._sessions)

    def monitor(self, name: str) -> Any:
        """The named session's monitor (KeyError if unknown); a live
        view, so a handle taken earlier shows every later event."""
        return self._sessions[name]

    def open(self, name: str, query: Any = None) -> Any:
        """Create a session explicitly; returns its monitor.

        ``query`` (text or a ``Q`` builder query) pins a session-private
        query monitor — the session inherits the mux's lateness /
        ``f_window`` / compiled knobs but watches its own language.  Its
        compiled artifact differs from the shared one, so batch
        ingestion automatically routes its events down the scalar path.
        """
        if name in self._sessions:
            raise ValueError(f"session {name!r} already open")
        if self.max_sessions is not None and len(self._sessions) >= self.max_sessions:
            raise BackpressureError(
                f"session table full ({self.max_sessions}); close or evict first"
            )
        monitor = self._new_monitor(query)
        self._add(name, monitor, query)
        self.sessions_opened += 1
        h = _obs.HOOKS
        if h is not None:
            h.count("stream.sessions", op="opened")
            h.gauge("stream.sessions_active", len(self._sessions))
        return monitor

    def _new_monitor(self, query: Any = None) -> Any:
        """A fresh monitor from the mux's factory or on a private
        ``query``: the one door of :meth:`open` and every restore."""
        if query is None:
            return self._factory()
        from ..query import query_monitor

        return query_monitor(query, **self._monitor_kw)

    def _add(self, name: str, monitor: Any, query: Any = None) -> None:
        """Register a session under a free id; an on-time monitor over
        the shared compiled artifact moves its slot into the mux's table."""
        self._sessions[name] = monitor
        if query is not None:
            self._queries[name] = query
        if self._free_ids:
            sid = self._free_ids.pop()
            self._names[sid] = name
        else:
            sid = len(self._names)
            self._names.append(name)
        self._ids[name] = sid
        tab = self._table
        if tab is None:
            return
        if sid >= len(self._slot_of):
            grown = np.full(max(16, 2 * sid), -1, dtype=np.int32)
            grown[: len(self._slot_of)] = self._slot_of
            self._slot_of = grown
        slot = -1
        if (
            getattr(monitor, "_compiled", None) is tab.comp
            and monitor.lateness == 0
            and not monitor._heap
            and monitor.f_window == tab.f_window
            and monitor._ledger == (tab.svc is not None)
        ):
            monitor._slot = slot = tab.take(monitor._tab, monitor._slot)
            monitor._tab = tab
        self._slot_of[sid] = slot

    def _forget(self, name: str) -> Any:
        """Unregister a session and free its id; its monitor keeps its
        final state in a private one-slot table (handles outlive the
        session)."""
        monitor = self._sessions.pop(name)
        self._queries.pop(name, None)
        sid = self._ids.pop(name)
        self._names[sid] = None
        self._free_ids.append(sid)
        if self._table is not None:
            slot = int(self._slot_of[sid])
            self._slot_of[sid] = -1
            if slot >= 0:
                own = SlotTable(self._table.comp, self._table.f_window, monitor._ledger)
                monitor._slot, monitor._tab = own.take(self._table, slot), own
        return monitor

    # -- ingestion ---------------------------------------------------------
    def ingest(self, name: str, symbol: Any, t: int) -> StreamVerdict:
        """Feed one event into the named session (opened on demand)."""
        monitor = self._sessions.get(name)
        if monitor is None:
            monitor = self.open(name)
        if monitor.pending >= self.buffer_limit:
            if self.drop_policy == "reject":
                raise BackpressureError(
                    f"session {name!r} buffer full ({self.buffer_limit})"
                )
            h = _obs.HOOKS
            if h is not None:
                h.count("stream.drops", policy=self.drop_policy)
            self.drops += 1
            self._drops[name] = self._drops.get(name, 0) + 1
            if self.drop_policy == "drop-new":
                return monitor.verdict
            monitor.release_oldest()
        return monitor.ingest(symbol, t)

    def ingest_batch(self, events) -> int:
        """Feed many ``(name, symbol, t)`` events, vectorizing across
        the sessions on the mux's :class:`~repro.stream.monitor.SlotTable`.

        Each session's relative order is preserved.  Few deep sessions
        run their slices through the table's ``scan`` up to the first
        late event; otherwise the batch is encoded once into id columns
        and handed to :meth:`ingest_columns`.  Everything else —
        machine-backed monitors, buffering or late traffic, interpreter
        fallbacks — replays through :meth:`ingest` in batch order.
        Verdicts and counters equal a loop of :meth:`ingest`, refusals
        included: a session that cannot open raises
        :class:`BackpressureError` after exactly the events before its
        first one were applied.

        Returns the number of events advanced through a vectorized
        path (the rest went through :meth:`ingest`).
        """
        if not isinstance(events, (list, tuple)):
            events = list(events)
        if self._table is None or not events:
            for name, symbol, t in events:
                self.ingest(name, symbol, t)
            return 0
        # The deep arm is chosen from the names alone: encoding columns
        # first would cost the few-deep-sessions case more than it saves.
        names = list(map(_NAME, events))
        seen = set(names)
        deep = len(names) >= 8 * len(seen)
        refused = None
        unknown = not all(map(self._ids.__contains__, seen))
        del seen  # one hash slot per name: free it before the columns
        if unknown:
            ids, refused = self.session_ids(names)
            if refused is not None:
                events, names = events[: len(ids)], names[: len(ids)]
        if deep:
            vectorized = self._ingest_slices(events)
        elif events:
            n = len(names)
            sy = np.fromiter(
                map(self._sym_ids.get, map(_SYMBOL, events), repeat(-1, n)),
                dtype=np.intp,
                count=n,
            )
            if sy.min() < 0:
                sy = np.array(self.symbol_ids(list(map(_SYMBOL, events))), dtype=np.intp)
            vectorized = self.ingest_columns(
                np.fromiter(map(self._ids.__getitem__, names), dtype=np.intp, count=n),
                sy,
                np.fromiter(map(_TIME, events), dtype=np.int64, count=n),
            )
        else:
            vectorized = 0
        if refused is not None:
            raise refused
        return vectorized

    def session_ids(self, names) -> Tuple[List[int], Optional[BackpressureError]]:
        """The session id of every name, opening unknown sessions in
        order of first appearance.

        On a refused open, returns the ids of the names before the
        refused session's first appearance, with the refusal (the
        sessions opened before it stay open).
        """
        get = self._ids.get
        ids = list(map(get, names))
        if None in ids:
            for name in dict.fromkeys(n for n, i in zip(names, ids) if i is None):
                try:
                    self.open(name)
                except BackpressureError as exc:
                    return list(map(get, names[: names.index(name)])), exc
            ids = list(map(get, names))
        return ids, None

    def symbol_ids(self, symbols) -> List[int]:
        """Symbol ids: alphabet symbols take the table's ``sym_index``
        codes, any other symbol is interned after them."""
        ids = list(map(self._sym_ids.get, symbols))
        if None in ids:
            ids = list(map(self._symbol_id, symbols))
        return ids

    def _symbol_id(self, symbol: Any) -> int:
        sid = self._sym_ids.get(symbol)
        if sid is None:
            sid = self._sym_ids[symbol] = len(self._symbols)
            self._symbols.append(symbol)
        return sid

    def ingest_columns(self, ids, symbols, times) -> int:
        """Feed a batch given as columns: open sessions' ids
        (:meth:`session_ids`), symbol ids (:meth:`symbol_ids`) and
        times, as integer arrays.

        Wave ``k`` (the ``k``-th event of every on-time, in-order
        session on the table) is advanced by one ``step_wave`` kernel
        call; every other session's events replay through
        :meth:`ingest`, decoded to their names and symbols, in batch
        order.  Verdicts and counters equal a loop of :meth:`ingest`.
        Returns the number of events advanced by the kernel.
        """
        tab = self._table
        if tab is None or not tab.capacity:
            self._replay(ids, symbols, times)
            return 0
        ids = np.asarray(ids)
        tt = np.asarray(times, dtype=np.int64)
        n = len(ids)
        # Indexing with intp is several times faster than with int32.
        sl = self._slot_of[ids].astype(np.intp)
        # A slice rides the waves only if it is on time and in order:
        # each event at or after its predecessor in the session (or the
        # slot's max_seen), never negative.
        floor = np.maximum(tab.arrays["max_seen"].take(sl, mode="clip"), 0)
        rank = None
        s = np.sort(ids)
        if (s[1:] == s[:-1]).any():
            # Some session has several events: rank them by position.
            order = np.argsort(ids, kind="stable")
            s = ids[order]
            starts = np.flatnonzero(np.concatenate(([True], s[1:] != s[:-1])))
            rank = np.empty(n, dtype=np.intp)
            rank[order] = np.arange(n) - np.repeat(starts, np.diff(starts, append=n))
            prev = np.empty(n, dtype=np.int64)
            prev[order[1:]] = tt[order[:-1]]
            floor = np.where(rank == 0, floor, prev)
        scalar = (tt < floor) | (sl < 0)
        if scalar.any():
            scalar = np.isin(ids, ids[scalar])
        # Symbols off the alphabet all step through the unknown column.
        sy = np.minimum(symbols, tab.comp.n_symbols)
        waves = 1
        if rank is not None:
            on = rank[~scalar]
            waves = int(on.max()) + 1 if len(on) else 0
        vectorized = 0
        for k in range(waves):
            w = ~scalar if rank is None else (rank == k) & ~scalar
            if not w.all():
                w = np.flatnonzero(w)
            vectorized += tab.step_wave(sl[w], sy[w], tt[w])
        if vectorized < n:
            w = np.flatnonzero(scalar)
            self._replay(ids[w], np.asarray(symbols)[w], tt[w])
        return vectorized

    def _replay(self, ids, symbols, times) -> None:
        """Columns through the scalar path, decoded, in order."""
        names, syms = self._names, self._symbols
        for i, s, t in zip(_as_list(ids), _as_list(symbols), _as_list(times)):
            self.ingest(names[i], syms[s], t)

    def _ingest_slices(self, events) -> int:
        groups: Dict[str, List[Any]] = {}
        for name, symbol, t in events:
            g = groups.get(name)
            if g is None:
                g = groups[name] = []
            g.append((symbol, t))
        scan = self._table.scan
        ids, slot_of = self._ids, self._slot_of
        vectorized = 0
        for name, slice_ in groups.items():
            slot = int(slot_of[ids[name]])
            if slot >= 0:
                # The scan stops at the first late event; the scalar
                # path takes it and the rest of the slice.
                done = scan(slot, slice_)
                vectorized += done
                if done == len(slice_):
                    continue
                slice_ = slice_[done:]
            for symbol, t in slice_:
                self.ingest(name, symbol, t)
        return vectorized

    def verdicts(self) -> Dict[str, StreamVerdict]:
        """Current verdict-so-far of every open session."""
        return {name: m.verdict for name, m in self._sessions.items()}

    # -- lifecycle ---------------------------------------------------------
    def _report(self, name: str, monitor: Any, decision: Any) -> SessionReport:
        return SessionReport(
            name=name,
            verdict=monitor.verdict,
            events_ingested=monitor.events_ingested,
            events_released=monitor.events_released,
            late_events=monitor.late_events,
            drops=self._drops.pop(name, 0),
            verdict_flips=monitor.verdict_flips,
            decision=decision,
            query_verdicts=(
                monitor.query_verdicts()
                if hasattr(monitor, "query_verdicts")
                else None
            ),
        )

    def close(self, name: str, horizon: Optional[int] = None) -> SessionReport:
        """Flush and retire a session, returning its summary.

        With ``horizon`` given and a machine-backed monitor, the
        session is finished through :meth:`Monitor.finish` and the
        batch-equivalent :class:`~repro.engine.verdict.DecisionReport`
        rides along in ``decision``.
        """
        monitor = self._forget(name)
        decision: Optional[DecisionReport] = None
        if horizon is not None and hasattr(monitor, "finish"):
            decision = monitor.finish(horizon)
        else:
            monitor.flush()
        self.sessions_closed += 1
        h = _obs.HOOKS
        if h is not None:
            h.count("stream.sessions", op="closed")
            h.gauge("stream.sessions_active", len(self._sessions))
        return self._report(name, monitor, decision)

    def evict_idle(
        self, now: Optional[int] = None, idle_ttl: Optional[int] = None
    ) -> List[str]:
        """Retire sessions idle for more than ``idle_ttl`` event-time
        chronons; returns the evicted names.

        A session's last event time is its monitor's newest applied or
        buffered timestamp (``max_seen``).  Eviction is not a verdict: a
        session cut off mid-stream has
        seen only a prefix of its word, so unless its monitor had
        already absorbed (REJECTED, or green-locked ACCEPTING — states
        no further event can change), the summary filed in
        :attr:`eviction_reports` carries ``Verdict.UNDECIDED`` with the
        eviction circumstances in ``decision.evidence`` (reason, the
        monitor's verdict-so-far, buffered-event count, last event
        time).  Buffered out-of-order events are *not* flushed first —
        flushing would fabricate observations the watermark never
        released.
        """
        ttl = idle_ttl if idle_ttl is not None else self.idle_ttl
        if ttl is None:
            raise ValueError("no idle_ttl configured or passed")
        if now is None:
            now = self.newest()
            if now is None:
                return []
        last = {name: m.max_seen for name, m in self._sessions.items()}
        victims = [
            name for name, t in last.items() if t is None or now - t > ttl
        ]
        self._evict(victims, now)
        return victims

    def newest(self) -> Optional[int]:
        """The newest event time (``max_seen``) of any open session, or
        ``None``: what :meth:`evict_idle` takes for ``now`` by default."""
        stamps = [m.max_seen for m in self._sessions.values()]
        return max((t for t in stamps if t is not None), default=None)

    def _evict(self, victims: List[str], now: int) -> None:
        """Retire the named sessions as idle at ``now``, filing their
        eviction summaries (a journal replays an eviction through here)."""
        h = _obs.HOOKS
        for name in victims:
            monitor = self._forget(name)
            last = monitor.max_seen
            so_far = monitor.verdict
            final = (
                so_far.as_verdict()
                if getattr(monitor, "absorbed", False)
                else Verdict.UNDECIDED
            )
            decision = DecisionReport(
                verdict=final,
                f_count=getattr(monitor, "accept_visits", 0),
                decided_at=last,
                evidence={
                    "evicted": "idle",
                    "stream_verdict": so_far.value,
                    "pending": monitor.pending,
                    "last_event_time": last,
                    "now": now,
                },
                strategy="evicted",
            )
            self._file([self._report(name, monitor, decision)])
            self.sessions_evicted += 1
            if h is not None:
                h.count("stream.sessions", op="evicted")
        if victims and h is not None:
            h.gauge("stream.sessions_active", len(self._sessions))

    def _file(self, reports: List[SessionReport]) -> None:
        """Add eviction summaries to the backlog (a journal files a
        departed shard's summaries through here)."""
        self.eviction_reports.extend(reports)
        cap = self.max_eviction_reports
        if cap is not None and len(self.eviction_reports) > cap:
            # Drop-oldest: the backlog is a courtesy to callers who
            # drain it; an undrained mux must not grow without
            # bound (the same discipline as every other buffer
            # here).
            excess = len(self.eviction_reports) - cap
            del self.eviction_reports[:excess]
            self.eviction_reports_dropped += excess
            h = _obs.HOOKS
            if h is not None:
                h.count("stream.eviction_reports_dropped", excess)

    def drain_evictions(
        self, reports: Optional[List[SessionReport]] = None
    ) -> List[SessionReport]:
        """Hand over (and clear) the accumulated eviction summaries.

        ``reports`` hands over only the summaries equal to those listed,
        one each: how a journal replays a drain on a mux that may hold
        summaries the live drain never saw."""
        if reports is None:
            out, self.eviction_reports = self.eviction_reports, []
            return out
        out = []
        for report in reports:
            if report in self.eviction_reports:
                self.eviction_reports.remove(report)
                out.append(report)
        return out

    def stats(self) -> Dict[str, int]:
        """Aggregate counters (the bounded-memory demo's assertions)."""
        return {
            "active": len(self._sessions),
            "opened": self.sessions_opened,
            "closed": self.sessions_closed,
            "evicted": self.sessions_evicted,
            "eviction_reports_dropped": self.eviction_reports_dropped,
            "drops": self.drops,
            "pending_total": sum(m.pending for m in self._sessions.values()),
        }
