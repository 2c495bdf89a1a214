"""Tests for repro.stream.checkpoint — snapshot/resume round-trips."""

import json

import pytest

from repro.automata import TimedBuchiAutomaton, TimedTransition
from repro.kernel import Le
from repro.machine import RealTimeAlgorithm
from repro.stream import (
    Monitor,
    SessionMux,
    StreamVerdict,
    TBAMonitor,
    checkpoint,
    checkpoint_mux,
    load_json,
    restore,
    restore_mux,
    save_json,
)
from repro.stream.compiled import compilation_enabled


needs_compiled = pytest.mark.skipif(
    not compilation_enabled(),
    reason="compiled stepping disabled (REPRO_STREAM_COMPILED=0)",
)


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


def drive_both(a, b, events):
    for symbol, t in events:
        va = a.ingest(symbol, t)
        vb = b.ingest(symbol, t)
        assert va is vb


class TestTBASnapshots:
    def test_round_trip_resumes_identically(self):
        tba = bounded_gap_tba()
        original = TBAMonitor(tba, lateness=2)
        for t in (1, 2, 4):
            original.ingest("a", t)
        snap = checkpoint(original)
        resumed = restore(snap, tba=tba)
        assert resumed.verdict is original.verdict
        assert resumed.configs == original.configs
        assert resumed.prev_t == original.prev_t
        assert resumed.accept_visits == original.accept_visits
        assert resumed.events_ingested == original.events_ingested
        # the resumed monitor and the original agree on the future,
        # including the buffered tail and a later guard violation
        drive_both(original, resumed, [("a", 5), ("a", 6), ("a", 20)])
        # the gap of 14 rejects once the buffered tail is applied
        assert original.flush() is StreamVerdict.REJECTED
        assert resumed.flush() is StreamVerdict.REJECTED

    def test_snapshot_carries_the_reorder_buffer(self):
        tba = bounded_gap_tba(10)
        original = TBAMonitor(tba, lateness=5)
        original.ingest("a", 8)
        original.ingest("a", 6)  # buffered: watermark is 3
        assert original.pending == 2
        resumed = restore(checkpoint(original), tba=tba)
        assert resumed.pending == 2
        assert resumed.flush() is original.flush()
        assert resumed.prev_t == original.prev_t

    def test_snapshot_is_json_serializable(self):
        monitor = TBAMonitor(bounded_gap_tba())
        monitor.ingest("a", 1)
        text = json.dumps(checkpoint(monitor))
        assert "tba" in text

    def test_save_and_load_json(self, tmp_path):
        monitor = TBAMonitor(bounded_gap_tba())
        monitor.ingest("a", 1)
        path = str(tmp_path / "snap.json")
        save_json(path, checkpoint(monitor))
        resumed = restore(load_json(path), tba=bounded_gap_tba())
        assert resumed.verdict is monitor.verdict
        assert resumed.configs == monitor.configs

    def test_restore_requires_the_automaton(self):
        snap = checkpoint(TBAMonitor(bounded_gap_tba()))
        with pytest.raises(ValueError, match="needs tba"):
            restore(snap)


class TestMachineSnapshots:
    def events(self):
        return [(3, 0), (1, 1), (1, 2)]

    def test_round_trip_by_replay(self):
        original = Monitor(make_parity_acceptor(), keep_history=True)
        for symbol, t in self.events():
            original.ingest(symbol, t)
        snap = checkpoint(original)
        resumed = restore(snap, acceptor=make_parity_acceptor())
        assert resumed.verdict is original.verdict
        assert resumed.f_count == original.f_count
        assert resumed.events_released == original.events_released
        assert resumed.history == original.history
        # one more symbol decides the parity for both alike
        drive_both(original, resumed, [(1, 3)])
        assert original.verdict is resumed.verdict
        assert original.verdict is StreamVerdict.REJECTED  # 1+1+1 is odd

    def test_checkpoint_requires_history(self):
        monitor = Monitor(make_parity_acceptor())
        with pytest.raises(ValueError, match="keep_history"):
            checkpoint(monitor)

    def test_restore_requires_the_acceptor(self):
        monitor = Monitor(make_parity_acceptor(), keep_history=True)
        with pytest.raises(ValueError, match="needs acceptor"):
            restore(checkpoint(monitor))


class TestGuards:
    def test_non_literal_symbols_refuse_to_serialize(self):
        monitor = TBAMonitor(bounded_gap_tba(), lateness=100)
        monitor._heap.append((5, 0, object()))
        with pytest.raises(ValueError, match="literal-evaluable"):
            checkpoint(monitor)

    def test_unknown_version_rejected(self):
        snap = checkpoint(TBAMonitor(bounded_gap_tba()))
        snap["version"] = 99
        with pytest.raises(ValueError, match="version"):
            restore(snap, tba=bounded_gap_tba())

    def test_unknown_monitor_type_rejected(self):
        with pytest.raises(TypeError, match="cannot checkpoint"):
            checkpoint(object())


class TestMuxSnapshots:
    def test_round_trip_restores_every_session(self):
        tba = bounded_gap_tba()
        mux = SessionMux(tba, lateness=1)
        mux.ingest("alpha", "a", 1)
        mux.ingest("alpha", "a", 2)
        mux.ingest("beta", "a", 1)
        mux.ingest("beta", "a", 10)  # beta is doomed
        mux.ingest("beta", "a", 11)
        snap = checkpoint_mux(mux)
        fresh = SessionMux(tba, lateness=1)
        restored = restore_mux(snap, fresh, tba=tba)
        assert restored is fresh
        assert sorted(restored.active) == ["alpha", "beta"]
        assert restored.verdicts() == mux.verdicts()
        assert restored.verdicts()["beta"] is StreamVerdict.REJECTED
        assert restored.stats() == mux.stats()
        # the restored sessions keep monitoring
        assert restored.ingest("alpha", "a", 3) is mux.ingest("alpha", "a", 3)

    def test_restore_needs_an_empty_mux(self):
        tba = bounded_gap_tba()
        mux = SessionMux(tba)
        mux.ingest("s", "a", 1)
        snap = checkpoint_mux(mux)
        with pytest.raises(ValueError, match="empty mux"):
            restore_mux(snap, mux, tba=tba)

    def test_mux_snapshot_survives_json(self, tmp_path):
        tba = bounded_gap_tba()
        mux = SessionMux(tba)
        mux.ingest("s", "a", 1)
        path = str(tmp_path / "mux.json")
        save_json(path, checkpoint_mux(mux))
        restored = restore_mux(load_json(path), SessionMux(tba), tba=tba)
        assert restored.verdicts() == {"s": StreamVerdict.ACCEPTING}

    def test_eviction_state_survives_json_round_trip(self):
        tba = bounded_gap_tba()
        mux = SessionMux(tba, idle_ttl=1, max_eviction_reports=1)
        for i in range(3):
            mux.ingest(f"s{i}", "a", 1)
        mux.ingest("live", "a", 100)
        mux.evict_idle()
        assert mux.eviction_reports_dropped == 2
        snap = json.loads(json.dumps(checkpoint_mux(mux)))
        fresh = SessionMux(tba, idle_ttl=1, max_eviction_reports=1)
        restored = restore_mux(snap, fresh, tba=tba)
        assert restored.eviction_reports_dropped == 2
        assert restored.stats() == mux.stats()
        (report,) = restored.drain_evictions()
        assert report == mux.eviction_reports[0]
        assert report.name == "s2"
        assert report.decision.evidence["evicted"] == "idle"

    def test_snapshot_without_eviction_state_restores_it_empty(self):
        # The mux snapshot format before eviction state was carried:
        # two sessions (alpha live, beta rejected) after three evictions.
        snap = {
            "version": 1,
            "kind": "mux",
            "counters": {
                "drops": 0,
                "sessions_opened": 5,
                "sessions_closed": 0,
                "sessions_evicted": 3,
            },
            "sessions": {
                name: {
                    "snapshot": {
                        "version": 1,
                        "kind": "tba",
                        "state": dict(
                            state,
                            lateness=0,
                            late_policy="drop",
                            late_events=0,
                            events_released=state["events_ingested"],
                            seq=state["events_ingested"],
                            buffer=[],
                            f_window=None,
                            green_locked=False,
                        ),
                    },
                    "last_event_time": state["max_seen"],
                    "drops": 0,
                }
                for name, state in {
                    "alpha": dict(
                        verdict="accepting", max_seen=4, events_ingested=3,
                        verdict_flips=1, configs=[["'s'", [0]]], prev_t=4,
                        accept_visits=3, last_accept_time=4,
                    ),
                    "beta": dict(
                        verdict="rejected", max_seen=10, events_ingested=2,
                        verdict_flips=2, configs=[], prev_t=10,
                        accept_visits=1, last_accept_time=1,
                    ),
                }.items()
            },
        }
        tba = bounded_gap_tba(3)
        mux = restore_mux(snap, SessionMux(tba, late_policy="drop"), tba=tba)
        assert mux.eviction_reports_dropped == 0
        assert mux.drain_evictions() == []
        assert mux.stats()["evicted"] == 3
        assert mux.verdicts() == {
            "alpha": StreamVerdict.ACCEPTING,
            "beta": StreamVerdict.REJECTED,
        }
        mux.ingest_batch(
            [("alpha", "a", 6), ("beta", "a", 11), ("alpha", "a", 9), ("gamma", "a", 3)]
        )
        # What the same snapshot's mux reached when it wrote the snapshot
        # and ingested this batch itself.
        assert mux.verdicts() == {
            "alpha": StreamVerdict.ACCEPTING,
            "beta": StreamVerdict.REJECTED,
            "gamma": StreamVerdict.ACCEPTING,
        }
        assert {
            name: (m.events_ingested, m.prev_t, m.accept_visits, m.verdict_flips)
            for name, m in ((n, mux.monitor(n)) for n in mux.active)
        } == {"alpha": (5, 9, 5, 1), "beta": (3, 10, 1, 2), "gamma": (1, 3, 1, 1)}

    @needs_compiled
    def test_interpreted_restore_onto_compiled_mux_takes_batches(self):
        # A private-query session, saved from the interpreter and
        # restored onto a compiled mux, steps its own language off the
        # mux's table; a batch touching only it runs on the scalar path.
        tba = bounded_gap_tba()
        source = SessionMux(tba, compiled=False)
        source.open("s", query="repeat(a within 2)")
        source.ingest("s", "a", 1)
        snap = checkpoint_mux(source)
        mux = restore_mux(snap, SessionMux(tba), tba=tba)
        assert mux.monitor("s")._tab is not mux._table
        assert mux._slot_of[mux._ids["s"]] == -1
        assert mux.ingest_batch([("s", "a", 2), ("s", "a", 3)]) == 0
        source.ingest_batch([("s", "a", 2), ("s", "a", 3)])
        assert mux.verdicts() == source.verdicts() == {"s": StreamVerdict.ACCEPTING}
        assert mux.monitor("s").events_ingested == 3

    @pytest.mark.parametrize("move", ["mux", "sessions"])
    def test_late_events_of_a_session_without_a_handle_survive(self, move):
        # The late count lives in the session's row: a restored session
        # has no handle, and moving it on again carries the count.
        from repro.stream.checkpoint import extract_sessions, restore_sessions

        tba = bounded_gap_tba(3)
        source = SessionMux(tba, late_policy="drop")
        source.ingest_batch([("s", "a", 5), ("t", "a", 5)])
        source.ingest("s", "a", 2)  # late
        hops = [source, SessionMux(tba, late_policy="drop"), SessionMux(tba, late_policy="drop")]
        for here, there in zip(hops, hops[1:]):
            if move == "mux":
                restore_mux(checkpoint_mux(here), there)
            else:
                restore_sessions(there, extract_sessions(here, ["s", "t"]))
            if there._table is not None:
                assert not there._monitors
        assert [hops[-1].close(n).late_events for n in ("s", "t")] == [1, 0]

    def test_wrong_kind_rejected(self):
        snap = checkpoint(TBAMonitor(bounded_gap_tba()))
        with pytest.raises(ValueError, match="not a mux snapshot"):
            restore_mux(snap, SessionMux(bounded_gap_tba()), tba=bounded_gap_tba())


class TestRestoreThroughTheMux:
    """Restores reopen each session through the receiving mux: its
    factory, or the session's own query, and nothing else."""

    MUX_QUERY, OWN_QUERY = "repeat(a within 3)", "repeat(b within 2)"

    def test_private_query_session_survives_json_round_trip(self):
        events = [
            ("m", "a", 1), ("p", "b", 2), ("m", "a", 3), ("p", "b", 4),
            ("p", "b", 6), ("m", "a", 6),
            ("m", "a", 8), ("p", "b", 8), ("m", "a", 10), ("p", "b", 10),
        ]
        cut = 6
        whole, first = SessionMux(query=self.MUX_QUERY), SessionMux(query=self.MUX_QUERY)
        for mux in (whole, first):
            mux.open("p", query=self.OWN_QUERY)
            for e in events[:cut]:
                mux.ingest(*e)
        snap = json.loads(json.dumps(checkpoint_mux(first)))
        assert snap["sessions"]["p"]["query"] == self.OWN_QUERY
        assert "query" not in snap["sessions"]["m"]
        fresh = SessionMux(query=self.MUX_QUERY)
        second = restore_mux(snap, fresh, tba=fresh.acceptor)
        for e in events[cut:]:
            assert second.ingest(*e) is whole.ingest(*e), e
        assert second.verdicts() == whole.verdicts()
        assert whole.verdicts()["p"] is StreamVerdict.ACCEPTING
        # The restored session keeps its query for the next checkpoint.
        assert checkpoint_mux(second)["sessions"]["p"]["query"] == self.OWN_QUERY

    def test_query_text_is_rendered_at_checkpoint(self):
        from repro.query import Q

        mux = SessionMux(query=self.MUX_QUERY)
        mux.open("p", query=Q.event("b").within(2).repeat())
        assert checkpoint_mux(mux)["sessions"]["p"]["query"] == self.OWN_QUERY

    def test_private_query_without_text_form_refuses_to_checkpoint(self):
        from repro.query import Q

        mux = SessionMux(query=self.MUX_QUERY)
        mux.open("p", query=Q.event(("x", 1)).within(2).repeat())
        with pytest.raises(ValueError, match="no text form"):
            checkpoint_mux(mux)

    def test_other_lateness_is_refused(self):
        tba = bounded_gap_tba()
        source = SessionMux(tba, lateness=2)
        source.ingest("s", "a", 1)
        with pytest.raises(ValueError, match="lateness"):
            restore_mux(checkpoint_mux(source), SessionMux(tba), tba=tba)

    def test_buffered_events_under_lateness_zero_are_refused(self):
        # Lateness 0 never buffers, so such a snapshot was not written by
        # a monitor; no session may take it and drop its buffer.
        tba = bounded_gap_tba()
        source = SessionMux(tba)
        source.ingest("s", "a", 5)
        snap = checkpoint_mux(source)
        snap["sessions"]["s"]["snapshot"]["state"]["buffer"] = [[4, 1, "'a'"]]
        for target in (SessionMux(tba), SessionMux(tba, compiled=False)):
            with pytest.raises(ValueError, match="lateness 0"):
                restore_mux(snap, target)
            assert len(target) == 0
        with pytest.raises(ValueError, match="lateness 0"):
            restore(snap["sessions"]["s"]["snapshot"], tba=tba)

    def test_other_f_window_is_refused_by_restore_sessions(self):
        from repro.stream.checkpoint import extract_sessions, restore_sessions

        tba = bounded_gap_tba()
        source = SessionMux(tba, f_window=3)
        source.ingest("s", "a", 1)
        entries = extract_sessions(source, ["s"])
        with pytest.raises(ValueError, match="f_window"):
            restore_sessions(SessionMux(tba), entries)

    def test_other_kind_is_refused(self):
        source = SessionMux(bounded_gap_tba())
        source.ingest("s", "a", 1)
        machine_mux = SessionMux(
            monitor_factory=lambda: Monitor(
                make_parity_acceptor(), late_policy="drop", keep_history=True
            )
        )
        with pytest.raises(ValueError, match="kind"):
            restore_mux(checkpoint_mux(source), machine_mux)

    def test_plan_mux_refuses_checkpoint_and_restore(self):
        from repro.query import QueryPlan

        def plan_mux():
            return SessionMux(plan=QueryPlan({"q": self.MUX_QUERY}, ("a",)))

        live = plan_mux()
        live.ingest("s", "a", 1)
        with pytest.raises(NotImplementedError, match="plan monitors"):
            checkpoint_mux(live)
        source = SessionMux(query=self.MUX_QUERY)
        source.ingest("s", "a", 1)
        with pytest.raises(ValueError, match="plan"):
            restore_mux(checkpoint_mux(source), plan_mux())

    def test_tba_must_be_the_mux_automaton(self):
        source = SessionMux(bounded_gap_tba())
        source.ingest("s", "a", 1)
        snap = checkpoint_mux(source)
        with pytest.raises(ValueError, match="automaton"):
            restore_mux(snap, SessionMux(bounded_gap_tba()), tba=bounded_gap_tba())
        tba = bounded_gap_tba()
        assert restore_mux(snap, SessionMux(tba), tba=tba).verdicts() == source.verdicts()
