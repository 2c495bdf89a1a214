"""Incremental online monitors over Definition 3.4 acceptors.

The engine judges words *offline*: :func:`repro.engine.decide` takes a
complete (lasso or long-prefix) timed word and renders one verdict.
The paper's acceptor, however, is an *online* device — it reads the
input tape as events arrive and emits f symbols as it goes.  This
module is the online side of that coin: a monitor ingests one
``(symbol, timestamp)`` event at a time and maintains a three-valued
verdict-so-far in the LTL₃ tradition (Bauer–Leucker–Schallhart):

* :data:`StreamVerdict.REJECTED` — no accepting continuation exists
  (safety violated / every run died).  Absorbing.
* :data:`StreamVerdict.ACCEPTING` — an accepting lasso is still
  reachable and the f-obligations are currently being met (an f /
  accepting configuration was seen within the monitor's ``f_window``),
  or — for deterministic TBAs — *every* continuation is accepting.
* :data:`StreamVerdict.INCONCLUSIVE` — neither of the above.

Two monitors share the ingestion machinery:

:class:`Monitor`
    Wraps any machine-protocol acceptor (a
    :class:`~repro.machine.rtalgorithm.RealTimeAlgorithm`, including
    the Section 4/5 worker/monitor harnesses and compiled TBAs).  It
    hosts the acceptor's program on a private push-driven
    :class:`~repro.machine.tape.InputTape` and pumps the simulator up
    to each event's timestamp, so the online run dispatches the *exact*
    event sequence the batch judge would — :meth:`Monitor.finish`
    replicates ``RealTimeAlgorithm._decide``'s tail and therefore
    agrees with ``engine.decide(strategy="lasso-exact")`` verbatim (the
    stream-vs-batch invariant of ``tests/test_stream_monitor.py``).

:class:`TBAMonitor`
    Steps a :class:`~repro.automata.timed.TimedBuchiAutomaton`'s capped
    configuration set directly, in O(state) per event, against a
    precomputed :class:`TBAAnalysis` of the finite configuration graph:
    ``live`` (can still reach an accepting cycle — its complement makes
    REJECTED exact, for nondeterministic TBAs too) and ``green``
    (deterministic TBAs: every continuation stays alive and accepts, so
    ACCEPTING becomes a guarantee rather than an observation).

    The TBA monitor has **two verdict-identical stepping paths**.  The
    *interpreted* path calls ``TimedBuchiAutomaton._step_configs`` per
    event (dict-built valuations, guard ASTs re-evaluated).  The
    *compiled* path (:mod:`repro.stream.compiled`, the default) steps a
    successor table over configuration sets, one per analysis, whose
    rows are made as traffic reaches them, so an event costs a couple
    of array lookups.  There the monitor is a view onto one slot of a
    :class:`SlotTable` (private, or a mux's shared one), whose scan and
    vectorized wave kernel own the judge rule.  ``compiled=False`` (or
    ``REPRO_STREAM_COMPILED=0``) runs the interpreter;
    ``tests/test_stream_compiled.py`` pins the paths
    verdict-stream-identical.  Cost model: ``docs/performance.md``.

Out-of-order tolerance: events are buffered in a small reorder heap
and applied only once the *watermark* (``max_seen − lateness``) passes
them, so events may arrive up to ``lateness`` chronons late.  An event
older than the watermark is *late*: policy ``"raise"`` (default)
raises :class:`LateEventError`, ``"drop"`` counts and discards it.

Observability (``docs/observability.md``): ``stream.events_ingested``
(``outcome=ok|late``), ``stream.events_released``,
``stream.watermark_lag``, and ``stream.verdict_flips`` (``to=…``).
"""

from __future__ import annotations

import heapq
from collections import deque
from enum import Enum
from typing import Any, Dict, FrozenSet, List, Optional, Set, Tuple

import numpy as np

from ..automata.timed import TimedBuchiAutomaton
from ..engine.batch import cached_acceptor
from ..engine.strategies import DEFAULT_HORIZON
from ..engine.verdict import DecisionReport, Verdict
from ..kernel.simulator import Simulator
from ..machine.rtalgorithm import ACCEPT_SYMBOL, Context, WorkingStorage
from ..machine.tape import InputTape, OutputTape
from ..obs import hooks as _obs
from .compiled import compiled_for

__all__ = [
    "StreamVerdict",
    "LateEventError",
    "Monitor",
    "TBAMonitor",
    "TBAAnalysis",
    "analysis_for",
]

Config = Tuple[Any, Tuple[int, ...]]


class StreamVerdict(Enum):
    """Three-valued verdict-so-far of an online monitor."""

    ACCEPTING = "accepting"
    REJECTED = "rejected"
    INCONCLUSIVE = "inconclusive"

    def as_verdict(self) -> Verdict:
        """Project onto the engine's batch vocabulary."""
        if self is StreamVerdict.ACCEPTING:
            return Verdict.ACCEPT
        if self is StreamVerdict.REJECTED:
            return Verdict.REJECT
        return Verdict.UNDECIDED


class LateEventError(ValueError):
    """An event arrived with a timestamp older than the watermark."""


class _BaseMonitor:
    """Watermark/reorder machinery shared by both monitor flavours.

    Subclasses hold the verdict state (``verdict``, ``max_seen``,
    ``events_ingested``, ``late_events``, ``verdict_flips``), implement
    :meth:`_advance` (apply one released event) and may override
    :attr:`absorbed` (the verdict can no longer change).
    """

    def __init__(self, *, lateness: int = 0, late_policy: str = "raise"):
        if lateness < 0:
            raise ValueError(f"lateness must be >= 0, got {lateness}")
        if late_policy not in ("raise", "drop"):
            raise ValueError(f"late_policy must be 'raise' or 'drop', got {late_policy!r}")
        self.lateness = lateness
        self.late_policy = late_policy
        self._heap: List[Tuple[int, int, Any]] = []

    @property
    def events_released(self) -> int:
        """Ingested events already applied (the rest sit in the heap)."""
        return self.events_ingested - len(self._heap)

    @property
    def _seq(self) -> int:
        """Arrival number of the next event (reorder-heap tie-break)."""
        return self.events_ingested

    # -- watermark ---------------------------------------------------------
    @property
    def watermark(self) -> Optional[int]:
        """Events at or below this timestamp have been applied (None
        before the first event)."""
        return None if self.max_seen is None else self.max_seen - self.lateness

    @property
    def pending(self) -> int:
        """Buffered events awaiting the watermark (the reorder heap)."""
        return len(self._heap)

    @property
    def absorbed(self) -> bool:
        """The verdict can no longer change; further events are no-ops."""
        return self.verdict is StreamVerdict.REJECTED

    # -- ingestion ---------------------------------------------------------
    def ingest(self, symbol: Any, t: int) -> StreamVerdict:
        """Feed one event; returns the verdict-so-far.

        Events with ``t`` within ``lateness`` of the newest timestamp
        may arrive out of order; older ones are late (policy applies).
        """
        if t < 0:
            raise ValueError(f"negative timestamp {t}")
        h = _obs.HOOKS
        # Each state field is read once: on a TBAMonitor it lives in a
        # slot-table column behind a property.
        ms = self.max_seen
        if ms is not None and t < ms - self.lateness:
            self.late_events += 1
            if h is not None:
                h.count("stream.events_ingested", outcome="late")
            if self.late_policy == "raise":
                raise LateEventError(
                    f"event at t={t} is older than the watermark "
                    f"{ms - self.lateness} (lateness={self.lateness})"
                )
            return self.verdict
        n = self.events_ingested
        self.events_ingested = n + 1
        if ms is None or t > ms:
            self.max_seen = ms = t
        if h is not None:
            h.count("stream.events_ingested", outcome="ok")
            h.observe("stream.watermark_lag", ms - t)
        if self._heap or t > ms - self.lateness:
            heapq.heappush(self._heap, (t, n, symbol))
            self._release(ms - self.lateness)
        else:
            # Nothing buffered and already under the watermark: the
            # heap would hand the event straight back.
            if h is not None:
                h.count("stream.events_released")
            self._advance(symbol, t)
        return self.verdict

    def _release(self, up_to: int) -> None:
        h = _obs.HOOKS
        while self._heap and self._heap[0][0] <= up_to:
            t, _seq, symbol = heapq.heappop(self._heap)
            if h is not None:
                h.count("stream.events_released")
            self._advance(symbol, t)

    def release_oldest(self) -> None:
        """Force-apply the earliest buffered event (backpressure relief).

        Order-safe: the heap minimum precedes everything still buffered,
        so releasing it early never reorders the applied sequence.
        """
        if not self._heap:
            return
        t, _seq, symbol = heapq.heappop(self._heap)
        h = _obs.HOOKS
        if h is not None:
            h.count("stream.events_released")
        self._advance(symbol, t)

    def ingest_many(self, events) -> StreamVerdict:
        """Feed a sequence of ``(symbol, t)`` events; returns the
        verdict-so-far.

        Semantically a loop of :meth:`ingest`; subclasses override it
        with batched fast paths (:class:`TBAMonitor` scans compiled
        transition tables without touching the reorder heap when no
        buffering is in play).
        """
        v = self.verdict
        for symbol, t in events:
            v = self.ingest(symbol, t)
        return v

    def flush(self) -> StreamVerdict:
        """Apply every buffered event regardless of the watermark."""
        while self._heap:
            self.release_oldest()
        return self.verdict

    # -- verdict bookkeeping ----------------------------------------------
    def _set_verdict(self, v: StreamVerdict) -> None:
        if v is self.verdict:
            return
        self.verdict = v
        self.verdict_flips += 1
        h = _obs.HOOKS
        if h is not None:
            h.count("stream.verdict_flips", to=v.value)

    def _advance(self, symbol: Any, t: int) -> None:
        raise NotImplementedError


class Monitor(_BaseMonitor):
    """Online driver of any machine-protocol acceptor.

    Builds a private :class:`~repro.kernel.simulator.Simulator` with a
    push-driven input tape, registers ``acceptor.program`` on it, and on
    each released event pushes the pair and pumps the simulator up to
    the event's timestamp — the batch judge's loop, sliced per event.
    Because the delivered event sequence is identical, the final
    verdict (after :meth:`finish`) matches
    ``engine.decide(acceptor, word, strategy="lasso-exact")`` exactly.

    Verdict-so-far between absorbing states: ACCEPTING while the
    acceptor's f-obligations are met — an f was written, within
    ``f_window`` chronons of the current event if a window is given —
    else INCONCLUSIVE.

    ``keep_history=True`` records released events so the monitor can be
    checkpointed by replay (:mod:`repro.stream.checkpoint`); generator
    state itself is not serializable.
    """

    def __init__(
        self,
        acceptor: Any,
        *,
        lateness: int = 0,
        late_policy: str = "raise",
        f_window: Optional[int] = None,
        keep_history: bool = False,
    ):
        super().__init__(lateness=lateness, late_policy=late_policy)
        self.verdict = StreamVerdict.INCONCLUSIVE
        self.max_seen: Optional[int] = None
        self.events_ingested = 0
        self.late_events = 0
        self.verdict_flips = 0
        self.acceptor = acceptor
        self.f_window = f_window
        self.keep_history = keep_history
        self.history: List[Tuple[Any, int]] = []
        self.f_count = 0
        self._f_cursor = 0
        self._last_f_time: Optional[int] = None
        self._decided_at: Optional[int] = None
        sim = Simulator()
        tape = InputTape(sim, None)
        out = OutputTape(sim)
        storage = WorkingStorage(limit=getattr(acceptor, "space_limit", None))
        self._ctx = Context(sim, tape, out, storage)
        sim.process(
            acceptor.program(self._ctx), name=getattr(acceptor, "name", "A")
        )

    @property
    def absorbed(self) -> bool:
        return self._ctx.verdict is not Verdict.UNDECIDED

    def _advance(self, symbol: Any, t: int) -> None:
        if self.keep_history:
            self.history.append((symbol, t))
        ctx = self._ctx
        if ctx.verdict is Verdict.UNDECIDED:
            ctx.input.push(symbol, t)
            # The batch judge's loop, bounded by this event's timestamp.
            while ctx.verdict is Verdict.UNDECIDED:
                nxt = ctx.sim.peek()
                if nxt is None or nxt > t:
                    break
                ctx.sim.step()
            if ctx.verdict is not Verdict.UNDECIDED and self._decided_at is None:
                self._decided_at = ctx.sim.now
        self._refresh(t)

    def _refresh(self, t: int) -> None:
        new = self._ctx.output.written_since(self._f_cursor)
        if new:
            self._f_cursor += len(new)
            for s, wt in new:
                if s == ACCEPT_SYMBOL:
                    self.f_count += 1
                    self._last_f_time = wt
        v = self._ctx.verdict
        if v is Verdict.ACCEPT:
            self._set_verdict(StreamVerdict.ACCEPTING)
        elif v is Verdict.REJECT:
            self._set_verdict(StreamVerdict.REJECTED)
        elif self._last_f_time is not None and (
            self.f_window is None or t - self._last_f_time <= self.f_window
        ):
            self._set_verdict(StreamVerdict.ACCEPTING)
        else:
            self._set_verdict(StreamVerdict.INCONCLUSIVE)

    def finish(self, horizon: int = DEFAULT_HORIZON) -> DecisionReport:
        """Close the stream and render the batch-equivalent report.

        Flushes the reorder buffer, runs any still-scheduled machine
        work up to ``horizon``, and — when an absorbing verdict was
        declared — lets it demonstrate itself for the same 16 chronons
        ``RealTimeAlgorithm._decide`` grants, so verdict, f-count and
        decision chronon all match the lasso-exact batch judgement.
        """
        self.flush()
        ctx = self._ctx
        while ctx.verdict is Verdict.UNDECIDED:
            nxt = ctx.sim.peek()
            if nxt is None or nxt > horizon:
                break
            ctx.sim.step()
        if ctx.verdict is not Verdict.UNDECIDED:
            if self._decided_at is None:
                self._decided_at = ctx.sim.now
            target = min(horizon, self._decided_at + 16)
            if target > ctx.sim.now:
                ctx.sim.run(until=target)
        self._refresh(self.max_seen if self.max_seen is not None else 0)
        return DecisionReport(
            verdict=ctx.verdict,
            f_count=ctx.output.count(ACCEPT_SYMBOL),
            horizon=horizon,
            space_peak=ctx.storage.peak,
            decided_at=self._decided_at,
            evidence={
                "events_released": self.events_released,
                "late_events": self.late_events,
                "verdict_flips": self.verdict_flips,
            },
        )


#: Verdict codes of the slot table's ``vcode`` column.
INC, ACC, REJ = 0, 1, 2
_VERDICTS = (
    StreamVerdict.INCONCLUSIVE,
    StreamVerdict.ACCEPTING,
    StreamVerdict.REJECTED,
)
_CODES = {v: code for code, v in enumerate(_VERDICTS)}


class SlotTable:
    """The state of many sessions, one slot each: a mux's rows, or the
    one slot of a standalone :class:`TBAMonitor`.

    :attr:`cols` holds the :attr:`COLUMNS` (``None`` times stored as
    ``-1``; ``lat`` is the last accepting visit, ``glock`` the green
    lock, ``vcode`` the verdict code, ``late`` the late-event count;
    ``ci`` is the row of the configuration set), so a slot is a
    session's whole state.  A table over a compiled artifact owns the
    judge rule in two layouts:
    :meth:`scan` (one slot, an event slice) and :meth:`step_wave` (many
    slots, one event each).  Both fill the successor cells they miss.
    Only a ``columnar`` table — a mux's shared one — runs the kernel:
    its columns are numpy arrays, read per slot through memoryviews.
    Other tables keep plain lists.  ``ledger`` tables also carry
    :class:`~repro.query.plan.PlanMonitor`'s occupancy ledger by slot
    (visit counts and last visit times per row), Python lists the scan
    writes directly and widens in place as rows are added.
    """

    COLUMNS = (
        ("ci", "int32"), ("prev_t", "int64"), ("max_seen", "int64"),
        ("lat", "int64"), ("glock", "bool"), ("vcode", "int8"),
        ("events", "int64"), ("visits", "int64"), ("flips", "int64"),
        ("late", "int64"),
    )
    #: Column positions in :attr:`cols`, by name.
    INDEX = {name: i for i, (name, _dtype) in enumerate(COLUMNS)}

    def __init__(self, comp: Any, f_window: Optional[int], ledger=False, columnar=False):
        self.comp = comp
        self.f_window = f_window
        self.arrays: Optional[Dict[str, Any]] = {} if columnar else None
        self.svc: Optional[Dict[int, Any]] = {} if ledger else None
        self.slt: Optional[Dict[int, Any]] = {} if ledger else None
        self.capacity = 0
        self._used = 0
        self._free: List[int] = []
        ci = v = 0
        glock = False
        if comp is not None:
            ci = comp.initial_index
            glock = comp.live_list[ci] and comp.green_list[ci]
            v = REJ if not comp.live_list[ci] else ACC if glock else INC
            #: What :meth:`scan` reads of the compiled artifact (the
            #: lists grow in place as rows are added).
            self._rule = (
                comp.table_list, comp.sym_index.get, comp.n_symbols, comp.gap_cap,
                comp.fill, comp.accepting_list, comp.live_list, comp.green_list,
            )
        #: What a new monitor starts from: the judged initial state.
        self._fresh = (ci, 0, -1, -1, glock, v, 0, 0, int(v != INC), 0)
        self.cols: List[Any] = [] if columnar else [[] for _ in self.COLUMNS]

    def _grow(self) -> None:
        """Make room for every used slot; new slots start fresh."""
        self.capacity = cap = max(self._used, 2 * self.capacity)
        self.cols = []
        for (name, dtype), value in zip(self.COLUMNS, self._fresh):
            col = np.full(cap, value, dtype=dtype)
            old = self.arrays.get(name)
            if old is not None:
                col[: len(old)] = old
            self.arrays[name] = col
            self.cols.append(memoryview(col))

    def alloc(self, n: int = 1) -> List[int]:
        """``n`` slots holding a fresh monitor's judged initial state,
        freed slots first (each one counts its initial verdict as a
        flip).  Growth fills new slots, so only reused ones are written."""
        free, fresh = self._free, self._fresh
        slots = [free.pop() for _ in range(min(n, len(free)))]
        for slot in slots:
            for col, value in zip(self.cols, fresh):
                col[slot] = value
        start, self._used = self._used, self._used + n - len(slots)
        slots.extend(range(start, self._used))
        if self.arrays is None:
            for col, value in zip(self.cols, fresh):
                col.extend([value] * (self._used - start))
        elif self._used > self.capacity:
            self._grow()
        if self.svc is not None:
            empty = list if self.comp is not None else dict
            for slot in slots:
                self.svc[slot], self.slt[slot] = empty(), empty()
        h = _obs.HOOKS
        if fresh[5] != INC and h is not None:
            h.count("stream.verdict_flips", n, to=_VERDICTS[fresh[5]].value)
        return slots

    def detach(self, slot: int) -> "SlotTable":
        """A private one-slot table holding ``slot``'s state: where a
        handle outlives its session once the slot is freed."""
        own = SlotTable(self.comp, self.f_window, self.svc is not None)
        own.cols, own._used = [[col[slot]] for col in self.cols], 1
        if self.svc is not None:
            own.svc, own.slt = {0: self.svc[slot]}, {0: self.slt[slot]}
        return own

    def free(self, slot: int) -> None:
        if self.svc is not None:
            del self.svc[slot], self.slt[slot]
        self._free.append(slot)

    def scan(self, slot: int, events: Any, counted: bool = True) -> int:
        """Apply ``(symbol, t)`` events to one slot, in order.

        Stops before the first event older than the slot's ``max_seen``
        (or negative) and returns how many it applied; the caller hands
        the rest to the scalar policy path.  ``counted=False`` applies
        events the reorder heap already counted and released.
        Rejection is absorbing: a rejected slot keeps counting events
        while its run state and ``prev_t`` stay frozen.
        """
        table, get, unknown, cap, fill, acc, live, green = self._rule
        fw = self.f_window
        CI, PT, MS, LAT, GL, VC, EV, VI, FL, _late = self.cols
        ci = CI[slot]
        pt = PT[slot]
        lat = LAT[slot]
        glock = GL[slot]
        v = VC[slot]
        visits = VI[slot]
        flips = FL[slot]
        svc = slt = None
        if self.svc is not None:
            svc = self.svc[slot]
            slt = self.slt[slot]
            rows = self.comp.sets
        wm = MS[slot] if counted else -1
        h = _obs.HOOKS
        R, A, I = REJ, ACC, INC
        applied = 0
        for symbol, t in events:
            if t < wm or t < 0:
                break
            applied += 1
            wm = t
            if v == R:
                continue
            gap = t - pt
            pt = t
            row = table[ci][get(symbol, unknown)]
            if gap > cap:
                gap = cap
            nxt = row[gap]
            ci = nxt if nxt >= 0 else fill(ci, get(symbol, unknown), gap)
            if svc is not None:
                try:
                    svc[ci] += 1
                except IndexError:  # a row made since the slot last grew
                    _widen(svc, slt, len(rows))
                    svc[ci] += 1
                slt[ci] = t
            if acc[ci]:
                visits += 1
                lat = t
            if not live[ci]:
                nv = R
            elif glock or green[ci]:
                glock = True
                nv = A
            elif lat >= 0 and (fw is None or t - lat <= fw):
                nv = A
            else:
                nv = I
            if nv != v:
                v = nv
                flips += 1
                if h is not None:
                    h.count("stream.verdict_flips", to=_VERDICTS[nv].value)
        CI[slot] = ci
        PT[slot] = pt
        LAT[slot] = lat
        GL[slot] = glock
        VC[slot] = v
        VI[slot] = visits
        FL[slot] = flips
        if counted and applied:
            MS[slot] = wm
            EV[slot] += applied
            if h is not None:
                h.count("stream.events_ingested", applied, outcome="ok")
                h.count("stream.events_released", applied)
                h.count("stream.compiled_steps", applied, path="bulk")
        return applied

    def step_wave(self, idx: Any, sym: Any, t: Any) -> int:
        """The vectorized judge kernel: one event for each of many slots.

        ``idx`` holds distinct slots, ``sym`` the events' symbol
        columns (``comp.sym_index``, unknown symbols at
        ``comp.n_symbols``) and ``t`` their on-time timestamps.  One
        :meth:`~repro.stream.compiled.CompiledTBA.step_many` gather
        advances every live slot; flags, verdicts and counters follow
        as array updates — the same rule :meth:`scan` applies per event.
        Returns the number of events applied.
        """
        a = self.arrays
        comp = self.comp
        total = len(idx)
        a["events"][idx] += 1
        a["max_seen"][idx] = t
        v = a["vcode"][idx]
        run = v != REJ
        if not run.all():
            idx, sym, t, v = idx[run], sym[run], t[run], v[run]
        if len(idx):
            ci = comp.step_many(a["ci"][idx], sym, t - a["prev_t"][idx])
            a["ci"][idx] = ci
            a["prev_t"][idx] = t
            accepting, live, green = comp.flag_arrays()
            hit = accepting[ci]
            a["visits"][idx] += hit
            lat = np.where(hit, t, a["lat"][idx])
            a["lat"][idx] = lat
            alive = live[ci]
            glock = a["glock"][idx] | (alive & green[ci])
            a["glock"][idx] = glock
            recent = lat >= 0
            if self.f_window is not None:
                recent &= t - lat <= self.f_window
            nv = np.where(alive, glock | recent, REJ)
            changed = nv != v
            a["vcode"][idx] = nv
            a["flips"][idx] += changed
            if self.svc is not None:
                rows = len(comp.sets)
                for s, c, tt in zip(idx.tolist(), ci.tolist(), t.tolist()):
                    svc, slt = self.svc[s], self.slt[s]
                    if c >= len(svc):
                        _widen(svc, slt, rows)
                    svc[c] += 1
                    slt[c] = tt
        h = _obs.HOOKS
        if h is not None:
            h.count("stream.events_ingested", total, outcome="ok")
            h.count("stream.events_released", total)
            if len(idx):
                h.count("stream.compiled_steps", len(idx), path="wave")
                # bincount, not unique: np.unique imports numpy.ma on
                # first use, megabytes in every instrumented shard worker.
                for code, n in enumerate(np.bincount(nv[changed], minlength=3).tolist()):
                    if n:
                        h.count("stream.verdict_flips", n, to=_VERDICTS[code].value)
        return total


_VCODE = SlotTable.INDEX["vcode"]


def _widen(svc: List[int], slt: List[Optional[int]], rows: int) -> None:
    """Grow one slot's ledger in place to cover ``rows`` rows."""
    if len(svc) < rows:
        svc.extend([0] * (rows - len(svc)))
        slt.extend([None] * (rows - len(slt)))


def _slot_column(name: str, none: bool = False) -> property:
    """A monitor attribute stored in its slot (``None`` as ``-1``)."""
    i = SlotTable.INDEX[name]

    def get(self: Any) -> Any:
        value = self._tab.cols[i][self._slot]
        return None if none and value < 0 else value

    def put(self: Any, value: Any) -> None:
        self._tab.cols[i][self._slot] = -1 if value is None else value

    return property(get, put)


class TBAAnalysis:
    """Liveness/guarantee sets over a TBA's capped configuration graph.

    Discrete time caps clock values at cmax+1 (see
    :mod:`repro.automata.timed`), so gap classes ``0..cmax+1`` exhaust
    all inter-arrival behaviours and the graph of configurations under
    every (symbol, gap-class) edge is finite.  On it we precompute:

    * ``live`` — configurations from which an accepting cycle is
      reachable.  A configuration set disjoint from ``live`` has *no*
      accepting continuation (exact for nondeterministic TBAs too:
      liveness is closed under predecessors, so REJECTED is absorbing).
    * ``green`` (deterministic stepping only) — configurations from
      which *every* infinite continuation stays alive and visits an
      accepting state infinitely often: totality under every (symbol,
      gap-class) as a greatest fixpoint, minus everything that can
      reach a cycle avoiding F.  A green configuration makes ACCEPTING
      a guarantee, not just an observation; ``green`` is closed under
      successors.

    ``deterministic`` is *semantic*: at most one successor per
    (configuration, symbol, gap-class), measured on the reachable graph
    during the BFS.  Guard-disjoint multi-edges (completed query-plan
    components are full of them) therefore still qualify for green
    guarantees.  The BFS keeps every successor set it computes in
    :attr:`cells`, which the totality fixpoint reads instead of
    stepping again.  :meth:`flags` reads the three flags of any
    configuration set.
    """

    def __init__(self, tba: TimedBuchiAutomaton):
        h = _obs.HOOKS
        if h is not None:
            # One build per language is the invariant the mux relies on
            # (tests/test_stream_compiled.py asserts on this counter).
            h.count("stream.analysis_builds")
        self.tba = tba
        self.symbols: List[Any] = sorted(tba.alphabet, key=repr)
        gaps = range(tba._cmax + 2)
        init = tba._initial_config()
        #: Each configuration's successor set per (symbol, gap class),
        #: symbol-major over :attr:`symbols`; equal sets are one object.
        self.cells: Dict[Config, Tuple[FrozenSet[Config], ...]] = {}
        distinct: Dict[FrozenSet[Config], FrozenSet[Config]] = {}
        adjacency: Dict[Config, Set[Config]] = {}
        universe: Set[Config] = {init}
        frontier = deque([init])
        deterministic = True
        while frontier:
            c = frontier.popleft()
            row = []
            for a in self.symbols:
                for g in gaps:
                    out = frozenset(tba._step_configs({c}, a, g))
                    if len(out) > 1:
                        deterministic = False
                    row.append(distinct.setdefault(out, out))
            self.cells[c] = tuple(row)
            adjacency[c] = succs = set().union(*row)
            for s in succs:
                if s not in universe:
                    universe.add(s)
                    frontier.append(s)
        self.universe: FrozenSet[Config] = frozenset(universe)
        self.adjacency = adjacency
        self.deterministic = deterministic
        self.accepting: FrozenSet[Config] = frozenset(
            c for c in universe if c[0] in tba.accepting
        )
        self.live: FrozenSet[Config] = self._live()
        self.green: FrozenSet[Config] = self._green() if deterministic else frozenset()

    def flags(self, members: FrozenSet[Config]) -> Tuple[bool, bool, bool]:
        """A configuration set's ``(accepting, live, green)`` flags:
        accepting or live if a member is, green if it is non-empty and
        inside :attr:`green` — the judge's reading of a set, on a table
        row or off it."""
        return (
            any(state in self.tba.accepting for state, _v in members),
            not members.isdisjoint(self.live),
            bool(members) and members <= self.green,
        )

    def _live(self) -> FrozenSet[Config]:
        """Configurations with an accepting continuation: the backward
        closure of the accepting configurations on a cycle."""
        reverse: Dict[Config, Set[Config]] = {c: set() for c in self.universe}
        for c, succs in self.adjacency.items():
            for s in succs:
                reverse[s].add(c)
        live = {c for c in self.accepting if self._on_cycle(c)}
        queue = deque(live)
        while queue:
            c = queue.popleft()
            for p in reverse[c]:
                if p not in live:
                    live.add(p)
                    queue.append(p)
        return frozenset(live)

    def _on_cycle(self, c: Config) -> bool:
        seen: Set[Config] = set()
        queue = deque(self.adjacency[c])
        while queue:
            d = queue.popleft()
            if d == c:
                return True
            if d in seen:
                continue
            seen.add(d)
            queue.extend(self.adjacency[d])
        return False

    def _green(self) -> FrozenSet[Config]:
        """Configurations whose *every* continuation accepts (the
        guarantee reading needs a unique run, so deterministic
        stepping only)."""
        # The greatest fixpoint of totality: every (symbol, gap class)
        # has a successor that itself stays total.
        cells = self.cells
        total = set(self.universe)
        changed = True
        while changed:
            changed = False
            for c in list(total):
                if not all(any(s in total for s in cell) for cell in cells[c]):
                    total.discard(c)
                    changed = True
        sub = {c: {s for s in self.adjacency[c] if s in total} for c in total}
        # Configurations with an infinite F-avoiding path: trim the
        # non-accepting induced subgraph down to nodes that still have a
        # non-accepting successor (leaves only paths into cycles).
        bad = total - self.accepting
        changed = True
        while changed:
            changed = False
            for c in list(bad):
                if not any(s in bad for s in sub[c]):
                    bad.discard(c)
                    changed = True
        # Anything that can reach such a path — through F or not — has a
        # rejecting continuation.
        reverse_sub: Dict[Config, Set[Config]] = {c: set() for c in total}
        for c, succs in sub.items():
            for s in succs:
                reverse_sub[s].add(c)
        unsafe = set(bad)
        queue = deque(bad)
        while queue:
            c = queue.popleft()
            for p in reverse_sub[c]:
                if p not in unsafe:
                    unsafe.add(p)
                    queue.append(p)
        return frozenset(total - unsafe)


def analysis_for(tba: TimedBuchiAutomaton) -> TBAAnalysis:
    """The cached :class:`TBAAnalysis` for one automaton (engine LRU)."""
    return cached_acceptor(
        ("stream-analysis", id(tba)), lambda: TBAAnalysis(tba), tba
    )


class TBAMonitor(_BaseMonitor):
    """Direct configuration-set monitor for a timed Büchi automaton.

    O(state) per event, on one of two verdict-identical paths chosen at
    construction:

    * **compiled** (the default) — the
      :class:`~repro.stream.compiled.CompiledTBA` table shared
      through the analysis: an event is one lookup in its table over
      configuration sets, deterministic or not, plus two flag reads
      for the judgement.  :meth:`ingest_many` additionally scans whole
      event slices in one tight loop when no reorder buffering is in
      play.
    * **interpreted** — ``_step_configs`` over the frozen configuration
      set, the oracle the compiled path is tested against, run under
      ``REPRO_STREAM_COMPILED=0`` or ``compiled=False``.

    The monitor is a thin view onto its slot of a :class:`SlotTable`,
    where ``verdict``, ``prev_t``, ``max_seen`` and the counters live:
    a standalone monitor owns a private list-backed one-slot table; a
    :class:`~repro.stream.session.SessionMux` session is a slot of the
    mux's shared table, and its monitor a view the mux makes when asked
    for (kept as the session's handle, or thrown away after a read).  The
    compiled path judges in :meth:`SlotTable.scan`, the interpreter in
    :meth:`_judge`.  Either way the whole mutable state is
    (configuration set, previous timestamp, reorder buffer, counters) —
    which is what makes :mod:`repro.stream.checkpoint` a constant-size
    snapshot; ``configs`` stays the canonical view (on the compiled
    path, the set of the slot's row).

    Verdict semantics: REJECTED exactly when no reachable configuration
    is ``live`` (no accepting continuation — exact even for
    nondeterministic TBAs); ACCEPTING when the configuration set is
    ``green`` (deterministic guarantee, absorbing) or an accepting
    configuration was visited within ``f_window`` of the current event
    (obligations met); INCONCLUSIVE otherwise.
    """

    #: Whether slots carry the per-configuration occupancy ledger.
    _ledger = False

    prev_t = _slot_column("prev_t")
    max_seen = _slot_column("max_seen", none=True)
    events_ingested = _slot_column("events")
    accept_visits = _slot_column("visits")
    verdict_flips = _slot_column("flips")
    late_events = _slot_column("late")
    _ci = _slot_column("ci")
    _last_accept_time = _slot_column("lat", none=True)
    _green_locked = _slot_column("glock")

    def __init__(
        self,
        tba: TimedBuchiAutomaton,
        *,
        analysis: Optional[TBAAnalysis] = None,
        lateness: int = 0,
        late_policy: str = "raise",
        f_window: Optional[int] = None,
        compiled: Optional[bool] = None,
    ):
        super().__init__(lateness=lateness, late_policy=late_policy)
        self.tba = tba
        self.analysis = analysis if analysis is not None else analysis_for(tba)
        self.f_window = f_window
        self._start(None if compiled is False else compiled_for(self.analysis), compiled)

    def _start(self, comp: Any, compiled: Optional[bool]) -> None:
        """Take a slot on ``comp``, or start the interpreter when it is
        ``None``."""
        if compiled is True and comp is None:
            raise ValueError("compiled stepping disabled (REPRO_STREAM_COMPILED=0)")
        self._compiled = comp
        self._tab = SlotTable(comp, self.f_window, self._ledger)
        (self._slot,) = self._tab.alloc()
        if comp is None:
            _acc, live, green = self._interpret_start()
            self._judge(0, live, green)

    @property
    def verdict(self) -> StreamVerdict:
        return _VERDICTS[self._tab.cols[_VCODE][self._slot]]

    @verdict.setter
    def verdict(self, value: StreamVerdict) -> None:
        self._tab.cols[_VCODE][self._slot] = _CODES[value]

    @property
    def compiled(self) -> bool:
        """Whether this monitor steps the compiled artifact."""
        return self._compiled is not None

    @property
    def configs(self) -> FrozenSet[Config]:
        """The reachable configuration set (its table row's set on the
        compiled path)."""
        comp = self._compiled
        if comp is None:
            return self._configs  # type: ignore[return-value]
        return comp.sets[self._ci]

    @configs.setter
    def configs(self, value) -> None:
        # On the compiled path a set that is not yet a row becomes one.
        comp = self._compiled
        if comp is None:
            self._configs = frozenset(value)
        else:
            self._ci = comp.row(frozenset(value))

    @property
    def absorbed(self) -> bool:
        return self.verdict is StreamVerdict.REJECTED or self._green_locked

    def ingest(self, symbol: Any, t: int) -> StreamVerdict:
        # An on-time event of an unbuffered, uninstrumented compiled
        # monitor goes straight to the scan; the generic path keeps the
        # late policy, the heap and the observations.
        tab = self._tab
        if tab.comp is None or self.lateness or self._heap or _obs.HOOKS is not None:
            return super().ingest(symbol, t)
        if tab.scan(self._slot, ((symbol, t),)):
            return self.verdict
        return super().ingest(symbol, t)

    def _advance(self, symbol: Any, t: int) -> None:
        if self._tab.comp is not None:
            self._tab.scan(self._slot, ((symbol, t),), counted=False)
            return
        if self.verdict is StreamVerdict.REJECTED:
            return
        gap = t - self.prev_t
        self.prev_t = t
        accepting, live, green = self._interpret(symbol, gap)
        if accepting:
            self.accept_visits += 1
            self._last_accept_time = t
        self._judge(t, live, green)

    def _interpret_start(self) -> Tuple[bool, bool, bool]:
        """Start the interpreter at the initial configuration; returns
        its flags."""
        self._configs = frozenset({self.tba._initial_config()})
        return self.analysis.flags(self._configs)

    def _interpret(self, symbol: Any, gap: int) -> Tuple[bool, bool, bool]:
        """The interpreter's step, one ``_step_configs`` call; returns
        the new set's flags."""
        self._configs = frozenset(self.tba._step_configs(self._configs, symbol, gap))
        return self.analysis.flags(self._configs)

    def ingest_many(self, events) -> StreamVerdict:
        """Batched ingest: one :meth:`SlotTable.scan` over the slice.

        Verdict- and counter-identical to looping :meth:`ingest`, minus
        the per-event ``stream.watermark_lag`` observations (identically
        zero here).  The scan needs the compiled path, ``lateness ==
        0`` and an empty reorder buffer (else the generic loop runs); a
        late or negative-timestamp event hands itself and the rest of
        the slice back to :meth:`ingest` for its policy.
        """
        if self._tab.comp is None or self.lateness or self._heap:
            return super().ingest_many(events)
        if not isinstance(events, (list, tuple)):
            events = list(events)
        applied = self._tab.scan(self._slot, events)
        for symbol, t in events[applied:]:
            self.ingest(symbol, t)
        return self.verdict

    def _judge(self, t: int, live: bool, green: bool) -> None:
        """The interpreter's judge of the flags of its new set (the
        compiled path judges in the slot table)."""
        if not live:
            self._set_verdict(StreamVerdict.REJECTED)
            return
        if green:
            self._green_locked = True
        if self._green_locked or (
            self._last_accept_time is not None
            and (self.f_window is None or t - self._last_accept_time <= self.f_window)
        ):
            self._set_verdict(StreamVerdict.ACCEPTING)
        else:
            self._set_verdict(StreamVerdict.INCONCLUSIVE)
