"""Tests for repro.stream.session — bounded multi-stream fan-in."""

import pytest

from repro.automata import TimedBuchiAutomaton, TimedTransition
from repro.engine import compiled_tba
from repro.kernel import Le
from repro.machine import RealTimeAlgorithm
from repro.obs import instrumented
from repro.stream import BackpressureError, SessionMux, StreamVerdict, TBAMonitor
from repro.stream.compiled import compilation_enabled
from repro.words import TimedWord


def bounded_gap_tba(bound=2):
    return TimedBuchiAutomaton(
        "a",
        ["s"],
        "s",
        [TimedTransition.make("s", "s", "a", resets=["x"], guard=Le("x", bound))],
        ["x"],
        ["s"],
    )


def make_parity_acceptor():
    def prog(ctx):
        n, _t = yield ctx.input.read()
        total = 0
        for _ in range(n):
            v, _t = yield ctx.input.read()
            total += v
        if total % 2 == 0:
            ctx.accept()
        else:
            ctx.reject()

    return RealTimeAlgorithm(prog)


def buffering_mux(**kwargs):
    """A mux whose sessions buffer everything (huge lateness), so the
    reorder heap fills deterministically for backpressure tests."""
    return SessionMux(bounded_gap_tba(), lateness=1_000, **kwargs)


class TestSessionTable:
    def test_sessions_open_on_first_event(self):
        mux = SessionMux(bounded_gap_tba())
        assert mux.ingest("alpha", "a", 1) is StreamVerdict.ACCEPTING
        assert "alpha" in mux
        assert len(mux) == 1
        assert isinstance(mux.monitor("alpha"), TBAMonitor)

    def test_explicit_open_rejects_duplicates(self):
        mux = SessionMux(bounded_gap_tba())
        mux.open("alpha")
        with pytest.raises(ValueError, match="already open"):
            mux.open("alpha")

    def test_max_sessions_backpressure(self):
        mux = SessionMux(bounded_gap_tba(), max_sessions=2)
        mux.open("a")
        mux.open("b")
        with pytest.raises(BackpressureError, match="session table full"):
            mux.open("c")
        mux.close("a")
        mux.open("c")  # room again after close
        assert sorted(mux.active) == ["b", "c"]

    @pytest.mark.parametrize("compiled", [None, False])
    @pytest.mark.parametrize("deep", [False, True])
    def test_refused_batch_applies_what_a_loop_of_ingest_would(self, compiled, deep):
        # A batch that reaches a session the table has no room for
        # applies exactly the events before that session's first one,
        # then raises — the same end state as a loop of ingest.
        if deep:  # enough events per session for the deep-slice arm
            events = [("a", "a", t) for t in range(1, 20)] + [("b", "a", 1)]
        else:
            events = [("a", "a", 1), ("b", "a", 1), ("a", "a", 2)]
        events += [("c", "a", 1), ("b", "a", 2), ("a", "a", 30)]
        batched = SessionMux(bounded_gap_tba(), max_sessions=2, compiled=compiled)
        looped = SessionMux(bounded_gap_tba(), max_sessions=2, compiled=compiled)
        with pytest.raises(BackpressureError, match="session table full"):
            batched.ingest_batch(events)
        with pytest.raises(BackpressureError, match="session table full"):
            for event in events:
                looped.ingest(*event)
        assert sorted(batched.active) == ["a", "b"]
        assert batched.stats() == looped.stats()
        assert batched.verdicts() == looped.verdicts()
        for name in ("a", "b"):
            b, s = batched.monitor(name), looped.monitor(name)
            assert (b.events_ingested, b.prev_t, b.accept_visits) == (
                s.events_ingested, s.prev_t, s.accept_visits
            )
        assert batched.monitor("a").events_ingested == (19 if deep else 2)
        assert batched.monitor("b").events_ingested == 1

    def test_sessions_share_one_analysis(self):
        mux = SessionMux(bounded_gap_tba())
        mux.open("a")
        mux.open("b")
        assert mux.monitor("a").analysis is mux.monitor("b").analysis

    def test_exactly_one_language_artifact_required(self):
        with pytest.raises(ValueError, match="exactly one"):
            SessionMux()
        with pytest.raises(ValueError, match="exactly one"):
            SessionMux(bounded_gap_tba(), monitor_factory=lambda: None)

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError, match="buffer_limit"):
            SessionMux(bounded_gap_tba(), buffer_limit=0)
        with pytest.raises(ValueError, match="drop_policy"):
            SessionMux(bounded_gap_tba(), drop_policy="spill")


class TestBackpressure:
    def fill(self, mux, name="s", n=4):
        for t in range(1, n + 1):
            mux.ingest(name, "a", t)
        return mux.monitor(name)

    def test_drop_new_discards_the_incoming_event(self):
        mux = buffering_mux(buffer_limit=4, drop_policy="drop-new")
        monitor = self.fill(mux)
        assert monitor.pending == 4
        v = mux.ingest("s", "a", 5)
        assert v is monitor.verdict
        assert monitor.pending == 4  # nothing new buffered
        assert mux.drops == 1
        assert mux.stats()["drops"] == 1

    def test_drop_old_force_applies_the_oldest(self):
        mux = buffering_mux(buffer_limit=4, drop_policy="drop-old")
        monitor = self.fill(mux)
        mux.ingest("s", "a", 5)
        assert monitor.pending == 4  # one out (applied), one in
        assert monitor.events_released == 1
        assert mux.drops == 1

    def test_reject_raises(self):
        mux = buffering_mux(buffer_limit=4, drop_policy="reject")
        self.fill(mux)
        with pytest.raises(BackpressureError, match="buffer full"):
            mux.ingest("s", "a", 5)

    def test_buffers_are_per_session(self):
        mux = buffering_mux(buffer_limit=4, drop_policy="reject")
        self.fill(mux, "one")
        # a second session has its own (empty) buffer
        mux.ingest("two", "a", 1)
        assert mux.monitor("two").pending == 1


class TestLifecycle:
    def test_close_reports_the_session_story(self):
        mux = SessionMux(bounded_gap_tba())
        mux.ingest("s", "a", 1)
        mux.ingest("s", "a", 2)
        report = mux.close("s")
        assert report.name == "s"
        assert report.verdict is StreamVerdict.ACCEPTING
        assert report.events_ingested == 2
        assert report.decision is None
        assert "s" not in mux
        assert mux.sessions_closed == 1

    def test_close_with_horizon_finishes_machine_monitors(self):
        mux = SessionMux(compiled_tba(bounded_gap_tba()))
        word = TimedWord.lasso([("a", 1), ("a", 10)], [("a", 11)], shift=1)
        for i in range(3):
            mux.ingest("s", *word[i])
        report = mux.close("s", horizon=400)
        assert report.decision is not None
        assert not report.decision.accepted  # the gap of 9 broke the bound

    def test_evict_idle_by_event_time(self):
        mux = SessionMux(bounded_gap_tba(), idle_ttl=50)
        mux.ingest("old", "a", 10)
        mux.ingest("new", "a", 100)
        victims = mux.evict_idle()
        assert victims == ["old"]
        assert mux.active == ["new"]
        assert mux.sessions_evicted == 1

    def test_evict_idle_explicit_now_and_ttl(self):
        mux = SessionMux(bounded_gap_tba())
        mux.ingest("s", "a", 10)
        assert mux.evict_idle(now=200, idle_ttl=100) == ["s"]
        with pytest.raises(ValueError, match="idle_ttl"):
            mux.evict_idle()

    def test_stats_shape(self):
        mux = buffering_mux(buffer_limit=8)
        mux.ingest("a", "a", 1)
        mux.ingest("b", "a", 1)
        mux.close("a")
        stats = mux.stats()
        assert stats == {
            "active": 1,
            "opened": 2,
            "closed": 1,
            "evicted": 0,
            "eviction_reports_dropped": 0,
            "drops": 0,
            "pending_total": 1,
        }


class TestMachineBackedSessions:
    def test_monitor_factory_override(self):
        mux = SessionMux(monitor_factory=lambda: TBAMonitor(bounded_gap_tba()))
        assert mux.ingest("s", "a", 1) is StreamVerdict.ACCEPTING

    def test_sessions_wrap_the_shared_program(self):
        acceptor = make_parity_acceptor()
        mux = SessionMux(acceptor)
        # two sessions, two verdicts, one acceptor object
        for name, member in [("yes", True), ("no", False)]:
            total_parity = 0 if member else 1
            syms = [1, 1]
            if sum(syms) % 2 != total_parity:
                syms[0] = 2
            mux.ingest(name, 2, 0)
            mux.ingest(name, syms[0], 1)
            mux.ingest(name, syms[1], 2)
            mux.ingest(name, "w", 3)
        assert mux.monitor("yes").acceptor is mux.monitor("no").acceptor
        assert mux.verdicts() == {
            "yes": StreamVerdict.ACCEPTING,
            "no": StreamVerdict.REJECTED,
        }


class TestSessionObservability:
    def test_lifecycle_counters_reach_obs(self):
        with instrumented() as inst:
            mux = SessionMux(bounded_gap_tba(), idle_ttl=10)
            mux.ingest("a", "a", 1)
            mux.ingest("b", "a", 100)
            mux.close("b")
            mux.evict_idle(now=100)
        counter = inst.registry.counter("stream.sessions")
        assert counter.labels(op="opened").value == 2
        assert counter.labels(op="closed").value == 1
        assert counter.labels(op="evicted").value == 1
        assert inst.registry.gauge("stream.sessions_active").value == 0
        assert inst.registry.gauge("stream.sessions_active").peak == 2

    @pytest.mark.parametrize("compiled", [None, False])
    def test_bulk_open_counts_like_a_loop_of_open(self, compiled):
        # An automaton ACCEPTING from its start (green at once), so each
        # open also counts its initial verdict as a flip.
        tba = TimedBuchiAutomaton(
            "a", ["s"], "s", [TimedTransition.make("s", "s", "a")], [], ["s"]
        )
        names = [f"s{i}" for i in range(5)]

        def counts(open_all):
            with instrumented() as inst:
                mux = SessionMux(tba, compiled=compiled)
                open_all(mux)
                assert set(mux.verdicts().values()) == {StreamVerdict.ACCEPTING}
            reg = inst.registry
            active = reg.gauge("stream.sessions_active")
            return (
                reg.counter("stream.sessions").labels(op="opened").value,
                reg.counter("stream.verdict_flips").labels(to="accepting").value,
                active.value,
                active.peak,
            )

        bulk = counts(lambda mux: mux.session_ids(names))
        assert bulk == counts(lambda mux: [mux.open(name) for name in names])
        assert bulk == (5, 5, 5, 5)

    def test_drop_counter_reaches_obs(self):
        with instrumented() as inst:
            mux = buffering_mux(buffer_limit=1, drop_policy="drop-new")
            mux.ingest("s", "a", 1)
            mux.ingest("s", "a", 2)
        assert (
            inst.registry.counter("stream.drops").labels(policy="drop-new").value
            == 1
        )


class TestEvictionReports:
    """Eviction is not a verdict: a mid-flight session must surface as
    UNDECIDED with its circumstances on record, never silently drop."""

    def test_mid_flight_eviction_is_undecided_with_evidence(self):
        from repro.engine import Verdict

        mux = SessionMux(bounded_gap_tba(), idle_ttl=50)
        mux.ingest("txn", "a", 1)
        mux.ingest("txn", "a", 2)  # in-bound gaps: ACCEPTING, not absorbed
        mux.ingest("fresh", "a", 100)
        assert mux.evict_idle() == ["txn"]
        (report,) = mux.eviction_reports
        assert report.name == "txn"
        assert report.verdict is StreamVerdict.ACCEPTING  # verdict-so-far
        decision = report.decision
        assert decision.verdict is Verdict.UNDECIDED  # but not a claim
        assert decision.strategy == "evicted"
        assert decision.evidence["evicted"] == "idle"
        assert decision.evidence["stream_verdict"] == "accepting"
        assert decision.evidence["last_event_time"] == 2
        assert decision.evidence["now"] == 100
        assert report.events_ingested == 2

    def test_absorbed_session_keeps_its_verdict(self):
        from repro.engine import Verdict

        mux = SessionMux(bounded_gap_tba(), idle_ttl=50)
        mux.ingest("dead", "a", 1)
        mux.ingest("dead", "a", 10)  # gap 9 breaks the bound: REJECTED
        assert mux.monitor("dead").absorbed
        mux.ingest("fresh", "a", 100)
        mux.evict_idle()
        (report,) = mux.drain_evictions()
        # REJECTED is absorbing — no continuation changes it, so the
        # eviction may keep the real verdict instead of UNDECIDED.
        assert report.verdict is StreamVerdict.REJECTED
        assert report.decision.verdict is Verdict.REJECT

    def test_close_after_evict_raises(self):
        mux = SessionMux(bounded_gap_tba(), idle_ttl=10)
        mux.ingest("gone", "a", 1)
        mux.ingest("fresh", "a", 100)
        mux.evict_idle()
        with pytest.raises(KeyError):
            mux.close("gone")
        # The session is genuinely retired, not resurrectable by close;
        # its story lives in the eviction report alone.
        assert [r.name for r in mux.eviction_reports] == ["gone"]

    def test_eviction_reports_capped_drop_oldest(self):
        # An undrained mux must not grow its report backlog without
        # bound: the cap drops the oldest summaries and counts them.
        mux = SessionMux(bounded_gap_tba(), idle_ttl=1, max_eviction_reports=3)
        for i in range(8):
            mux.ingest(f"s{i}", "a", 1)
        mux.evict_idle(now=1000)
        assert len(mux.eviction_reports) == 3
        assert [r.name for r in mux.eviction_reports] == ["s5", "s6", "s7"]
        assert mux.eviction_reports_dropped == 5
        assert mux.stats()["eviction_reports_dropped"] == 5
        # Uncapped muxes keep everything (and report zero drops).
        mux2 = SessionMux(bounded_gap_tba(), idle_ttl=1)
        for i in range(8):
            mux2.ingest(f"s{i}", "a", 1)
        mux2.evict_idle(now=1000)
        assert len(mux2.eviction_reports) == 8
        assert mux2.eviction_reports_dropped == 0
        with pytest.raises(ValueError, match="max_eviction_reports"):
            SessionMux(bounded_gap_tba(), max_eviction_reports=0)

    def test_drain_evictions_hands_over_and_clears(self):
        mux = SessionMux(bounded_gap_tba(), idle_ttl=10)
        mux.ingest("one", "a", 1)
        mux.ingest("fresh", "a", 100)
        mux.evict_idle()
        drained = mux.drain_evictions()
        assert [r.name for r in drained] == ["one"]
        assert mux.eviction_reports == []
        assert mux.drain_evictions() == []

    def test_buffered_events_are_not_flushed(self):
        from repro.engine import Verdict

        # A session with events parked in its reorder buffer: eviction
        # must not fabricate releases the watermark never authorized.
        mux = SessionMux(bounded_gap_tba(), lateness=1_000, idle_ttl=10)
        mux.ingest("held", "a", 1)
        mux.ingest("held", "a", 2)
        monitor = mux.monitor("held")
        assert monitor.pending == 2 and monitor.events_released == 0
        mux.ingest("fresh", "a", 5_000)
        mux.evict_idle()
        (report,) = mux.drain_evictions()
        assert report.decision.verdict is Verdict.UNDECIDED
        assert report.decision.evidence["pending"] == 2
        assert report.events_released == 0


# ---------------------------------------------------------------- columns


def test_symbol_off_the_alphabet_rejects_on_table_but_not_a_private_query():
    # Both sessions see "tick": the shared table has no such symbol (it
    # steps through the unknown column), the private query knows it,
    # so the columns must carry the symbol itself back to the scalar path.
    events = [("plain", "hb", 0), ("special", "tick", 0), ("plain", "tick", 2),
              ("special", "tick", 8), ("plain", "hb", 3)]
    batched = SessionMux(query="repeat(hb within 5)")
    batched.open("special", query="repeat(tick within 9)")
    # plain's events run on the table (none without compilation)
    assert batched.ingest_batch(events) == (3 if compilation_enabled() else 0)
    scalar = SessionMux(query="repeat(hb within 5)", compiled=False)
    scalar.open("special", query="repeat(tick within 9)")
    for e in events:
        scalar.ingest(*e)
    assert batched.verdicts() == scalar.verdicts() == {
        "plain": StreamVerdict.REJECTED,
        "special": StreamVerdict.ACCEPTING,
    }


def test_empty_and_generator_batches():
    events = [(f"s{i % 3}", "a", i // 3) for i in range(30)]
    mux = SessionMux(bounded_gap_tba())
    assert mux.ingest_batch([]) == 0
    assert mux.ingest_batch(iter([])) == 0
    assert mux.ingest_batch(e for e in events) == (30 if compilation_enabled() else 0)
    ref = SessionMux(bounded_gap_tba())
    for e in events:
        ref.ingest(*e)
    assert mux.verdicts() == ref.verdicts()


def test_rows_without_handles_are_reused(monkeypatch):
    """Sessions that never gave out a handle retire by freeing their
    rows, which the next sessions take: no private table is built and
    the table stays within twice the peak of live sessions."""
    from repro.stream.monitor import SlotTable

    built = []
    init = SlotTable.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(SlotTable, "__init__", counted)
    mux = SessionMux(bounded_gap_tba())
    for r in range(10):
        names = [f"r{r}-{i}" for i in range(1000)]
        mux.ingest_batch([(name, "a", 1) for name in names])
        for name in names:
            assert mux.close(name).verdict is StreamVerdict.ACCEPTING
    assert mux.stats()["opened"] == mux.stats()["closed"] == 10_000
    if mux._table is None:  # compilation off: monitors of their own
        return
    assert built == [mux._table]
    assert mux._table.capacity <= 2 * 1000


def test_session_ids_are_reused_and_the_slot_column_follows():
    mux = SessionMux(bounded_gap_tba())
    mux.ingest_batch([("a", "a", 1), ("b", "a", 1), ("c", "a", 1)])
    freed = mux._ids["b"]
    mux.close("b")
    mux.ingest_batch([("d", "a", 2), ("a", "a", 2)])
    assert mux._ids["d"] == freed and mux._names[freed] == "d"
    assert mux.session_ids(["a", "e"]) == ([mux._ids["a"], 3], None)
    if mux._table is not None:
        assert mux._table.arrays["events"][mux._slot_of[freed]] == 1
        mux.close("d")
        assert mux._slot_of[freed] == -1
