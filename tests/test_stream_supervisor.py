"""Failover tests for repro.stream.supervisor — the crash-recovering mux.

The pinned guarantee: a recovered mux re-emits no wrong verdicts and
loses none for calls the supervisor accepted — it agrees with an
uninterrupted run event for event, and every open, close, eviction and
drain made through the supervisor survives the crash.
"""

import random

import pytest

from repro.automata import TimedBuchiAutomaton, TimedTransition
from repro.kernel import Le
from repro.machine import RealTimeAlgorithm
from repro.obs import instrumented
from repro.stream import (
    BackpressureError,
    Monitor,
    MuxSupervisor,
    SessionMux,
    StreamVerdict,
    checkpoint_mux,
)


def bounded_gap_tba(bound=3):
    return TimedBuchiAutomaton(
        "a",
        ["s"],
        "s",
        [TimedTransition.make("s", "s", "a", resets=["x"], guard=Le("x", bound))],
        ["x"],
        ["s"],
    )


def traffic(sessions=10, events=400, seed=7):
    """Deterministic multi-session feed with rejecting gaps mixed in."""
    rng = random.Random(seed)
    clock = {f"s{i}": 0 for i in range(sessions)}
    out = []
    for _ in range(events):
        name = rng.choice(list(clock))
        clock[name] += rng.choice([1, 2, 3, 3, 5])  # gap 5 breaks the bound
        out.append((name, "a", clock[name]))
    return out


@pytest.fixture
def tba():
    return bounded_gap_tba()


@pytest.fixture
def factory(tba):
    return lambda: SessionMux(
        tba,
        lateness=2,
        late_policy="drop",
        buffer_limit=8,
        drop_policy="drop-old",
    )


class TestFailover:
    def test_crash_recovery_agrees_with_uninterrupted_run(self, tba, factory):
        events = traffic()
        reference = factory()
        for name, sym, t in events:
            reference.ingest(name, sym, t)

        supervisor = MuxSupervisor(factory, checkpoint_every=50)
        for k, (name, sym, t) in enumerate(events):
            if k in (137, 291):  # two mid-stream host losses
                supervisor.crash()
            supervisor.ingest(name, sym, t)  # auto-recovers

        assert supervisor.failovers == 2
        assert supervisor.verdicts() == reference.verdicts()
        assert supervisor.mux.stats()["drops"] == reference.stats()["drops"]

    def test_recovery_latency_is_measured(self, tba, factory):
        supervisor = MuxSupervisor(factory, checkpoint_every=50)
        for name, sym, t in traffic(events=120):
            supervisor.ingest(name, sym, t)
        supervisor.crash()
        latency = supervisor.recover()
        assert latency > 0
        assert supervisor.last_recovery_s == latency


class TestMachineBackedSessions:
    def test_machine_monitor_failover(self):
        def prog(ctx):
            total = 0
            for _ in range(3):
                v, _t = yield ctx.input.read()
                total += v
            if total % 2 == 0:
                ctx.accept()
            else:
                ctx.reject()

        acceptor = RealTimeAlgorithm(prog)
        factory = lambda: SessionMux(  # noqa: E731
            monitor_factory=lambda: Monitor(
                acceptor, lateness=1, late_policy="drop", keep_history=True
            )
        )
        events = [
            ("even", 1, 1), ("odd", 1, 1), ("even", 1, 2), ("odd", 1, 2),
            ("even", 2, 3), ("odd", 1, 3), ("even", 1, 5), ("odd", 1, 5),
        ]
        reference = factory()
        for name, sym, t in events:
            reference.ingest(name, sym, t)

        supervisor = MuxSupervisor(factory, checkpoint_every=3)
        for k, (name, sym, t) in enumerate(events):
            if k == 5:
                supervisor.crash()
            supervisor.ingest(name, sym, t)
        assert supervisor.failovers == 1
        assert supervisor.verdicts() == reference.verdicts()


class TestPrivateQuerySessions:
    def test_private_query_session_recovers_on_its_own_query(self):
        def factory():
            return SessionMux(query="repeat(a within 3)", late_policy="drop")

        events = [("m", "a", 1), ("p", "b", 2), ("p", "b", 4), ("m", "a", 4)]
        events += [("p", "b", t) for t in (6, 8, 10)] + [("m", "a", 7)]
        reference = factory()
        reference.open("p", query="repeat(b within 2)")
        for name, sym, t in events:
            reference.ingest(name, sym, t)

        supervisor = MuxSupervisor(factory, checkpoint_every=3)
        supervisor.mux.open("p", query="repeat(b within 2)")
        for k, (name, sym, t) in enumerate(events):
            if k == 4:
                supervisor.crash()
            supervisor.ingest(name, sym, t)
        assert supervisor.failovers == 1
        assert supervisor.verdicts() == reference.verdicts()
        assert supervisor.verdicts()["p"] is StreamVerdict.ACCEPTING


class TestSupervisorLedger:
    def test_checkpoint_cadence_and_journal_depth(self, tba, factory):
        supervisor = MuxSupervisor(factory, checkpoint_every=25)
        for name, sym, t in traffic(events=110):
            supervisor.ingest(name, sym, t)
        stats = supervisor.stats()
        assert stats["checkpoints"] == 4
        assert stats["journal_depth"] == 10
        assert stats["failovers"] == 0

    def test_validation(self, tba, factory):
        with pytest.raises(ValueError, match="checkpoint_every"):
            MuxSupervisor(factory, checkpoint_every=0)

    def test_failover_metrics(self, tba, factory):
        with instrumented() as inst:
            supervisor = MuxSupervisor(factory, checkpoint_every=30)
            for name, sym, t in traffic(events=90):
                supervisor.ingest(name, sym, t)
            supervisor.crash()
            supervisor.recover()
        assert inst.registry.counter("stream.failovers").value == 1
        assert (
            inst.registry.counter("stream.supervisor_checkpoints").value == 3
        )
        spans = [s.name for s in inst.spans.completed()]
        assert "stream.failover" in spans


class TestFrontDoor:
    """Every call through the supervisor survives a crash after the
    last checkpoint, and the recovered mux equals one uninterrupted mux."""

    @staticmethod
    def _recovered(supervisor):
        supervisor.crash()
        supervisor.recover()
        return supervisor.mux

    @staticmethod
    def _same(mux, ref):
        assert checkpoint_mux(mux) == checkpoint_mux(ref)
        assert mux.stats() == ref.stats()

    def test_close_after_checkpoint_stays_closed(self, factory):
        events = traffic(sessions=4, events=60)
        ref = factory()
        ref.ingest_batch(events)
        supervisor = MuxSupervisor(factory, checkpoint_every=10_000)
        supervisor.ingest_batch(events)
        supervisor.checkpoint()
        got, want = supervisor.close_session("s1"), ref.close("s1")
        assert got == want
        mux = self._recovered(supervisor)
        assert "s1" not in mux
        self._same(mux, ref)

    def test_eviction_after_checkpoint_stays_evicted(self, factory):
        ref = factory()
        supervisor = MuxSupervisor(factory, checkpoint_every=10_000)
        for sink in (ref, supervisor):
            sink.ingest("x", "a", 1)
            sink.ingest("y", "a", 2)
        supervisor.checkpoint()
        assert supervisor.evict_idle(now=50, idle_ttl=5) == ["x", "y"]
        ref.evict_idle(now=50, idle_ttl=5)
        mux = self._recovered(supervisor)
        assert (mux.stats()["active"], mux.stats()["evicted"]) == (0, 2)
        self._same(mux, ref)

    def test_private_query_open_after_checkpoint_keeps_its_query(self):
        def factory():
            return SessionMux(query="repeat(a within 3)", late_policy="drop")

        ref = factory()
        supervisor = MuxSupervisor(factory, checkpoint_every=10_000)
        supervisor.checkpoint()
        for sink in (ref, supervisor):
            sink.open("p", query="repeat(b within 2)")
            sink.ingest("p", "b", 2)
            sink.ingest("p", "b", 4)
        mux = self._recovered(supervisor)
        assert mux.verdicts()["p"] is StreamVerdict.ACCEPTING
        self._same(mux, ref)

    def test_drained_eviction_reports_stay_drained(self, factory):
        supervisor = MuxSupervisor(factory, checkpoint_every=10_000)
        supervisor.ingest("x", "a", 1)
        supervisor.checkpoint()
        supervisor.evict_idle(now=30, idle_ttl=5)
        assert [r.name for r in supervisor.drain_evictions()] == ["x"]
        mux = self._recovered(supervisor)
        assert mux.eviction_reports == []
        assert supervisor.drain_evictions() == []

    def test_batches_with_crashes_mid_feed_equal_one_mux(self, factory):
        events = traffic(events=400)
        ref = factory()
        ref.ingest_batch(events)
        supervisor = MuxSupervisor(factory, checkpoint_every=45)
        for k, lo in enumerate(range(0, len(events), 17)):
            if k in (5, 13, 19):
                supervisor.crash()
            supervisor.ingest_batch(events[lo:lo + 17])
        assert supervisor.failovers == 3
        self._same(supervisor.mux, ref)

    def test_batch_refused_part_way_recovers_to_the_live_state(self, tba):
        def factory():
            return SessionMux(tba, lateness=5, buffer_limit=3, drop_policy="reject")

        supervisor = MuxSupervisor(factory, checkpoint_every=10_000)
        supervisor.ingest_batch([("y", "a", 1), ("y", "a", 2)])
        supervisor.checkpoint()
        with pytest.raises(BackpressureError):
            supervisor.ingest_batch([("x", "a", t) for t in range(1, 9)] + [("y", "a", 3)])
        live = checkpoint_mux(supervisor.mux)
        assert live["sessions"]["x"]["snapshot"]["state"]["events_ingested"] == 3
        assert checkpoint_mux(self._recovered(supervisor)) == live
