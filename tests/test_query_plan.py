"""Tests for repro.query.plan — the fused multi-query product.

The load-bearing contract: a :class:`PlanMonitor`'s per-channel verdict
*streams* must be indistinguishable from running each query through its
own independent :class:`~repro.stream.monitor.TBAMonitor`, on both
stepping paths, per event — the conformance sweep fuzzes the same
property (``--gen query``), these tests pin the named edges.
"""

import random

import pytest

from repro.query import PlanMonitor, Q, QueryPlan
from repro.stream import StreamVerdict, TBAMonitor

QUERIES = {
    "fast": Q.event("req").then("rsp").within(3).repeat(),
    "slow": Q.event("req").then("rsp").within(8).repeat(),
    "hb": Q.event("req").within(8).once(),
}
ALPHA = ("req", "rsp")


def independent(compiled=None):
    return {
        name: TBAMonitor(q.tba(ALPHA), compiled=compiled)
        for name, q in QUERIES.items()
    }


# ---------------------------------------------------------- the plan


def test_plan_validates():
    with pytest.raises(ValueError, match="at least one"):
        QueryPlan({})
    with pytest.raises(ValueError, match="duplicate"):
        QueryPlan([("q", Q.event("a")), ("q", Q.event("b"))])
    with pytest.raises(ValueError, match="phase chains only"):
        QueryPlan({"bad": Q.event("a") | Q.event("b")})


def test_plan_accepts_text_queries():
    plan = QueryPlan({"hb": "repeat(hb within 5)"})
    assert plan.names == ("hb",)
    m = plan.monitor()
    m.ingest("hb", 0)
    assert m.query_verdicts()["hb"] is StreamVerdict.ACCEPTING


def test_plan_dedups_identical_specs():
    plan = QueryPlan(
        {"a1": Q.event("a").repeat(), "a2": "repeat(a)"}
    )
    assert plan.stats()["components"] == 1
    assert len(plan.names) == 2


def test_plan_stats_ledger():
    plan = QueryPlan(QUERIES, ALPHA)
    stats = plan.stats()
    assert stats["queries"] == 3
    assert stats["plan_configs"] == len(plan.analysis.universe)
    assert stats["sum_per_query_configs"] == sum(
        stats["per_query_configs"].values()
    )
    assert stats["config_ratio"] == pytest.approx(
        stats["plan_configs"] / stats["sum_per_query_configs"]
    )
    assert set(stats["sources"]) == set(QUERIES)


def test_plan_compiled_true_requires_tables():
    plan = QueryPlan(QUERIES, ALPHA)
    if plan.compiled is None:
        with pytest.raises(ValueError, match="compiled stepping unavailable"):
            QueryPlan(QUERIES, ALPHA, compiled=True)
    else:
        assert QueryPlan(QUERIES, ALPHA, compiled=True).compiled is not None
    assert QueryPlan(QUERIES, ALPHA, compiled=False).compiled is None


# ------------------------------------------- per-event verdict parity


def random_events(rng, n=60):
    events, t = [], 0
    for _ in range(n):
        events.append((rng.choice(ALPHA), t))
        t += rng.choice((0, 0, 1, 1, 2, 4, 9))
    return events


@pytest.mark.parametrize("compiled", [None, False])
@pytest.mark.parametrize("f_window", [None, 5])
def test_channel_streams_match_independent_monitors(compiled, f_window):
    rng = random.Random(20260808)
    plan = QueryPlan(QUERIES, ALPHA)
    for trial in range(10):
        pm = plan.monitor(compiled=compiled, f_window=f_window)
        singles = {
            name: TBAMonitor(q.tba(ALPHA), compiled=compiled, f_window=f_window)
            for name, q in QUERIES.items()
        }
        for s, t in random_events(rng):
            pm.ingest(s, t)
            want = {name: m.ingest(s, t) for name, m in singles.items()}
            assert pm.query_verdicts() == want, (trial, s, t)
        assert pm.channel_accept_visits() == {
            name: m.accept_visits for name, m in singles.items()
        }


def test_bulk_scan_matches_scalar_loop():
    rng = random.Random(7)
    plan = QueryPlan(QUERIES, ALPHA)
    events = random_events(rng, 300)
    scalar = plan.monitor()
    for s, t in events:
        scalar.ingest(s, t)
    bulk = plan.monitor()
    bulk.ingest_many(events)
    assert bulk.query_verdicts() == scalar.query_verdicts()
    assert bulk.channel_accept_visits() == scalar.channel_accept_visits()
    assert bulk.events_released == scalar.events_released


# ------------------------------------------------------------ verdicts


def test_headline_is_disjunction_and_channels_diverge():
    plan = QueryPlan(QUERIES, ALPHA)
    m = plan.monitor()
    m.ingest("req", 0)
    m.ingest("rsp", 5)  # misses "fast" (within 3), satisfies "slow"
    v = m.query_verdicts()
    assert v["fast"] is StreamVerdict.REJECTED
    assert v["slow"] is StreamVerdict.ACCEPTING
    assert v["hb"] is StreamVerdict.ACCEPTING
    assert m.verdict is not StreamVerdict.REJECTED  # some channel lives
    assert m.channel_verdict("fast") is StreamVerdict.REJECTED
    with pytest.raises(ValueError, match="no channel 'nope'"):
        m.channel_verdict("nope")


def test_all_channels_dead_rejects_headline():
    plan = QueryPlan(
        {
            "a": Q.event("req").then("rsp").within(2).repeat(),
            "b": Q.event("req").then("rsp").within(3).repeat(),
        },
        ALPHA,
    )
    m = plan.monitor()
    m.ingest("req", 0)
    m.ingest("rsp", 9)  # blows both windows
    assert m.verdict is StreamVerdict.REJECTED
    assert set(m.query_verdicts().values()) == {StreamVerdict.REJECTED}
    assert m.absorbed


def test_monitor_is_a_tba_monitor_with_custom_waves():
    # A PlanMonitor is a TBAMonitor whose waves carry extra bookkeeping:
    # a plan mux steps its sessions through the shared slot table's
    # wave kernel, which also writes each slot's occupancy ledger.
    # Handles taken before the batch are live views whose channels
    # match standalone PlanMonitors fed event by event.
    from repro.stream import SessionMux

    plan = QueryPlan(QUERIES, ALPHA)
    mux = SessionMux(plan=plan)
    handles = {f"s{i}": mux.open(f"s{i}") for i in range(24)}
    assert all(
        isinstance(m, PlanMonitor) and isinstance(m, TBAMonitor)
        for m in handles.values()
    )
    rng = random.Random(3)
    streams = {name: random_events(rng, 12) for name in handles}
    events = [
        (name, s, t) for k in range(12) for name, evs in streams.items()
        for s, t in [evs[k]]
    ]
    for lo in range(0, len(events), 48):  # two events a session: two waves
        mux.ingest_batch(events[lo : lo + 48])
    for name, evs in streams.items():
        alone = plan.monitor()
        for s, t in evs:
            alone.ingest(s, t)
        m = handles[name]
        assert m.query_verdicts() == alone.query_verdicts(), name
        assert m.channel_accept_visits() == alone.channel_accept_visits()
        assert (m.verdict, m.events_ingested, m.verdict_flips) == (
            alone.verdict, alone.events_ingested, alone.verdict_flips
        )


def test_checkpoint_refuses_plan_monitors():
    from repro.stream import checkpoint

    plan = QueryPlan(QUERIES, ALPHA)
    m = plan.monitor()
    m.ingest("req", 0)
    with pytest.raises(NotImplementedError, match="plan monitors"):
        checkpoint(m)
