"""Multiplexing many live streams over shared compiled acceptors.

A service front-end does not monitor one stream; it monitors thousands
of named sessions against a handful of *languages*.  The
:class:`SessionMux` owns that fan-in: sessions are created on first
event, each keeps O(state) of its own, and the expensive
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
  session is one slot of a columnar
  :class:`~repro.stream.monitor.SlotTable`.  Few deep sessions run the
  table's scalar scan; otherwise the batch is encoded once into
  columns and handed to :meth:`SessionMux.ingest_columns`, where each
  wave of the batch is advanced by one vectorized judge kernel (a
  ``step_many`` gather plus numpy flag, verdict and counter updates).
  Everything else — machine-backed monitors, buffering sessions, late
  or out-of-order events — falls back to the scalar path, event order
  preserved per session.

Sessions are rows.  On a mux with a table (lateness 0, compilation on),
a session is its name, an id and its slot, whose columns hold its whole
state (late-event count included); :meth:`SessionMux.session_ids`, the
door every open goes through, opens all of a batch's new sessions in
one step: ids, and one allocation of slots that hold the judged initial
state.  A :class:`~repro.stream.monitor.TBAMonitor` or
:class:`~repro.query.plan.PlanMonitor` over a slot is a view made when
asked for: :meth:`SessionMux.open`'s result and
:meth:`SessionMux.monitor`'s are the session's live handle (the scalar
path makes one too when an event needs the monitor's policy), and every
other read — verdicts, eviction, close, checkpoint — goes through a
throwaway view.  Retiring a session frees its slot; only a session that
gave out a handle moves its final state to a private one-slot table,
where the handle keeps reading it.  Sessions off the table (a private
query, or a mux without one: ``lateness > 0``, machine acceptors,
``monitor_factory``, ``compiled=False``) keep monitor objects of their
own.

The columns are integer ids: every session has an id while it is open
(freed on close, eviction or extraction and reused), an id-indexed
column gives its slot on the table (``-1`` off it), and symbols take
the table's ``sym_index`` codes, any other symbol interned after them
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
from itertools import repeat, takewhile
from operator import itemgetter
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from ..automata.timed import TimedBuchiAutomaton
from ..engine.verdict import DecisionReport, Verdict
from ..obs import hooks as _obs
from .compiled import compiled_for
from .monitor import _VCODE, _VERDICTS, Monitor, SlotTable, StreamVerdict, TBAMonitor
from .monitor import _BaseMonitor, analysis_for

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
    :class:`~repro.automata.timed.TimedBuchiAutomaton` (sessions are
    slots of one table over one cached analysis, read through
    :class:`TBAMonitor` views) or any machine-protocol acceptor
    (sessions get :class:`Monitor`\\ s around the shared program).  ``monitor_factory`` overrides the choice —
    any zero-argument callable returning a monitor.  ``query`` (text or
    a ``Q`` builder query; ``alphabet`` optionally widens its symbol
    set) compiles to a TBA and proceeds like an automaton acceptor;
    ``plan`` shares one :class:`~repro.query.plan.QueryPlan` —
    every session is a slot of the plan's one fused table, read through
    :class:`~repro.query.plan.PlanMonitor` views, and session reports
    carry per-query verdicts.  Whether a session rides the table is
    decided once, when it opens.
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
        #: The monitor of every session off the table, and the live
        #: handle of each session on it that gave one out.
        self._monitors: Dict[str, Any] = {}
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
        #: Session ids, the session registry: name → id (in order of
        #: opening), id → name (``None`` once freed), and the freed ids
        #: a new session takes first.
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
            from ..query.plan import PlanMonitor

            if compiled is not False:
                self._tba_compiled = plan.compiled
            self._factory = lambda: plan.monitor(**self._monitor_kw)
            view = PlanMonitor, {"plan": plan}
        elif isinstance(acceptor, TimedBuchiAutomaton):
            # Both per-language artifacts are built exactly once here
            # and shared by every session (and by checkpoint restores).
            analysis = analysis_for(acceptor)
            if compiled is not False:
                self._tba_compiled = compiled_for(analysis)
            self._factory = lambda: TBAMonitor(
                acceptor, analysis=analysis, **self._monitor_kw
            )
            view = TBAMonitor, {"tba": acceptor, "analysis": analysis}
        else:
            self._factory = lambda: Monitor(
                acceptor,
                lateness=lateness,
                late_policy=late_policy,
                f_window=f_window,
            )
        #: Symbol ids: the table's ``sym_index`` codes, then every other
        #: symbol in order of arrival.
        self._symbols: List[Any] = []
        self._sym_ids: Dict[Any, int] = {}
        comp = self._tba_compiled
        if comp is not None and lateness == 0:
            self._table = SlotTable(
                comp, f_window, ledger=plan is not None, columnar=True
            )
            self._slot_of = np.empty(0, dtype=np.int32)
            self._symbols, self._sym_ids = list(comp.symbols), dict(comp.sym_index)
            # What every view of a row shares: the settings a monitor's
            # constructor would set (checked as it checks them), the table.
            cls, own = view
            self._proto = cls.__new__(cls)
            _BaseMonitor.__init__(self._proto, late_policy=late_policy)
            self._proto.__dict__.update(
                own, f_window=f_window, _compiled=comp, _tab=self._table
            )

    # -- session table -----------------------------------------------------
    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, name: str) -> bool:
        return name in self._ids

    @property
    def active(self) -> List[str]:
        return list(self._ids)

    def monitor(self, name: str) -> Any:
        """The named session's monitor (KeyError if unknown).  A session
        on the table gets a view of its row, made on first ask and kept:
        a live handle that shows every later event."""
        if name not in self._monitors:
            self._monitors[name] = self._session(name)
        return self._monitors[name]

    def _session(self, name: str) -> Any:
        """The named session's monitor or handle, else a throwaway view
        of its row (read it before the row is freed)."""
        monitor = self._monitors.get(name)
        if monitor is None:
            slot = int(self._slot_of[self._ids[name]])
            monitor = object.__new__(type(self._proto))
            monitor.__dict__ = dict(self._proto.__dict__, _slot=slot, _heap=[])
        return monitor

    def open(self, name: str, query: Any = None) -> Any:
        """Create a session explicitly; returns its monitor.

        ``query`` (text or a ``Q`` builder query) pins a session-private
        query monitor — the session inherits the mux's lateness /
        ``f_window`` / compiled knobs but watches its own language.  Its
        compiled artifact differs from the shared one, so batch
        ingestion automatically routes its events down the scalar path.
        """
        if name in self._ids:
            raise ValueError(f"session {name!r} already open")
        self._open([name], query)
        return self.monitor(name)

    def _open(self, names: List[str], query: Any = None) -> None:
        """Open new sessions in order (the one door of every open); past
        ``max_sessions``, open those that fit and refuse the next."""
        cap = self.max_sessions
        fit = names if cap is None else names[: max(cap - len(self._ids), 0)]
        if fit:
            self._register(fit, query)
            self.sessions_opened += len(fit)
            h = _obs.HOOKS
            if h is not None:
                h.count("stream.sessions", len(fit), op="opened")
                h.gauge("stream.sessions_active", len(self._ids))
        if len(fit) < len(names):
            raise BackpressureError(f"session table full ({cap}); close or evict first")

    def _register(self, names: List[str], query: Any = None) -> None:
        """Give new sessions free ids, and each a row on the table (its
        judged initial state, one allocation for all) or, off it, a
        monitor of its own: the mux's factory's, or one on a private
        ``query`` (the door of every open and restore).  The monitors
        are built first: one that fails registers nothing."""
        if query is not None:
            from ..query import query_monitor

            own = {n: query_monitor(query, **self._monitor_kw) for n in names}
            self._queries.update(dict.fromkeys(names, query))
        else:
            own = {n: self._factory() for n in names} if self._table is None else {}
        free, known = self._free_ids, self._names
        sids = [free.pop() for _ in range(min(len(names), len(free)))]
        sids += range(len(known), len(known) + len(names) - len(sids))
        known.extend([None] * (sids[-1] + 1 - len(known)))
        for sid, name in zip(sids, names):
            known[sid] = name
        self._ids.update(zip(names, sids))
        if self._table is not None:
            if len(known) > len(self._slot_of):
                self._slot_of = np.append(self._slot_of, np.full(len(known), -1, np.int32))
            self._slot_of[sids] = -1 if query is not None else self._table.alloc(len(names))
        self._monitors.update(own)

    def _forget(self, name: str) -> None:
        """Unregister a session and free its id and row; a handle given
        out keeps the row's final state in a private one-slot table."""
        monitor = self._monitors.pop(name, None)
        self._queries.pop(name, None)
        sid = self._ids.pop(name)
        self._names[sid] = None
        self._free_ids.append(sid)
        if self._table is not None:
            slot, self._slot_of[sid] = int(self._slot_of[sid]), -1
            if slot >= 0:
                if monitor is not None:
                    monitor._tab, monitor._slot = self._table.detach(slot), 0
                self._table.free(slot)

    # -- ingestion ---------------------------------------------------------
    def ingest(self, name: str, symbol: Any, t: int) -> StreamVerdict:
        """Feed one event into the named session (opened on demand)."""
        monitor = self._monitors.get(name)
        if monitor is None and name not in self._ids:
            self._open([name])
            monitor = self._monitors.get(name)
        if monitor is None:
            # A row without a handle: an on-time event of an
            # uninstrumented mux is one scan; anything else goes through
            # the session's handle, which stays.
            slot = int(self._slot_of[self._ids[name]])
            if _obs.HOOKS is None and self._table.scan(slot, ((symbol, t),)):
                return _VERDICTS[self._table.cols[_VCODE][slot]]
            monitor = self.monitor(name)
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
        order of first appearance, all in one step.

        On a refused open, returns the ids of the names before the
        refused session's first appearance, with the refusal (the
        sessions opened before it stay open).
        """
        ids = list(map(self._ids.get, names))
        if None in ids:
            try:
                self._open(list(dict.fromkeys(n for n, i in zip(names, ids) if i is None)))
            except BackpressureError as exc:
                return [self._ids[n] for n in takewhile(self._ids.__contains__, names)], exc
            ids = list(map(self._ids.get, names))
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
        return {name: self._session(name).verdict for name in self._ids}

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
        monitor = self._session(name)
        decision: Optional[DecisionReport] = None
        if horizon is not None and hasattr(monitor, "finish"):
            decision = monitor.finish(horizon)
        else:
            monitor.flush()
        report = self._report(name, monitor, decision)
        self._forget(name)
        self.sessions_closed += 1
        h = _obs.HOOKS
        if h is not None:
            h.count("stream.sessions", op="closed")
            h.gauge("stream.sessions_active", len(self._ids))
        return report

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
        last = {name: self._session(name).max_seen for name in self._ids}
        victims = [
            name for name, t in last.items() if t is None or now - t > ttl
        ]
        self._evict(victims, now)
        return victims

    def newest(self) -> Optional[int]:
        """The newest event time (``max_seen``) of any open session, or
        ``None``: what :meth:`evict_idle` takes for ``now`` by default."""
        stamps = [self._session(name).max_seen for name in self._ids]
        return max((t for t in stamps if t is not None), default=None)

    def _evict(self, victims: List[str], now: int) -> None:
        """Retire the named sessions as idle at ``now``, filing their
        eviction summaries (a journal replays an eviction through here)."""
        h = _obs.HOOKS
        for name in victims:
            monitor = self._session(name)
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
            self._forget(name)
            self.sessions_evicted += 1
            if h is not None:
                h.count("stream.sessions", op="evicted")
        if victims and h is not None:
            h.gauge("stream.sessions_active", len(self._ids))

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
            "active": len(self._ids),
            "opened": self.sessions_opened,
            "closed": self.sessions_closed,
            "evicted": self.sessions_evicted,
            "eviction_reports_dropped": self.eviction_reports_dropped,
            "drops": self.drops,
            # A row holds no buffer: only sessions with monitors can.
            "pending_total": sum(m.pending for m in self._monitors.values()),
        }
