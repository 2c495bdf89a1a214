"""Tests for the query front-end through SessionMux and the engine.

The tentpole's integration contract: ``SessionMux(query=...)``,
``SessionMux(plan=...)`` and ``open(name, query=...)`` just work, with
batch ingestion verdict-identical to the scalar path and per-query
verdicts riding along in every :class:`SessionReport`.
"""

import pytest

from repro.query import Q, QueryPlan
from repro.stream import SessionMux, StreamVerdict, TBAMonitor
from repro.stream.session import SessionReport

PLAN_QUERIES = {
    "fast": Q.event("req", 0, 5).then("rsp").within(3).repeat(),
    "slow": Q.event("req", 0, 5).then("rsp").within(8).repeat(),
}


def plan_events(sessions=4):
    """Per-session req/rsp rounds with widening response gaps (1, 3, 5,
    7 chronons), so the channels diverge across sessions."""
    events = []
    for s in range(sessions):
        t = 0
        for _ in range(6):
            events.append((f"s{s}", "req", t))
            events.append((f"s{s}", "rsp", t + 1 + 2 * s))
            t += 3 + 2 * s
    return events


# -------------------------------------------------------------- query=


def test_query_mux_monitors_text_queries():
    mux = SessionMux(query="repeat(hb within 5)")
    for i in range(4):
        mux.ingest("s1", "hb", 3 * i)
    assert mux.verdicts() == {"s1": StreamVerdict.ACCEPTING}
    report = mux.close("s1")
    assert report.verdict is StreamVerdict.ACCEPTING
    assert report.query_verdicts is None  # plain monitor: no channels


def test_query_mux_alphabet_widens_symbols():
    mux = SessionMux(query="repeat(hb within 5)", alphabet=("hb", "noise"))
    mux.ingest("s", "hb", 0)
    mux.ingest("s", "noise", 1)  # in-alphabet non-action: budget keeps running
    mux.ingest("s", "hb", 2)
    assert mux.verdicts()["s"] is StreamVerdict.ACCEPTING


def test_constructor_validation():
    with pytest.raises(ValueError, match="exactly one"):
        SessionMux(query="a", plan=QueryPlan({"a": Q.event("a")}))
    with pytest.raises(ValueError, match="exactly one"):
        SessionMux()
    with pytest.raises(ValueError, match="alphabet"):
        SessionMux(Q.event("a").tba(), alphabet=("a", "b"))


# --------------------------------------------------------------- plan=


def test_plan_mux_sessions_share_the_fused_artifacts():
    plan = QueryPlan(PLAN_QUERIES)
    mux = SessionMux(plan=plan)
    mux.open("a")
    mux.open("b")
    assert mux.monitor("a")._compiled is plan.compiled
    assert mux.monitor("b")._compiled is plan.compiled
    assert mux.monitor("a").plan is plan


def test_plan_mux_batch_matches_scalar_and_reports_channels():
    plan = QueryPlan(PLAN_QUERIES)
    events = plan_events()
    batch_mux = SessionMux(plan=plan)
    vectorized = batch_mux.ingest_batch(events)
    scalar_mux = SessionMux(plan=plan)
    for name, s, t in events:
        scalar_mux.ingest(name, s, t)
    if plan.compiled is not None:
        assert vectorized > 0
    names = sorted(batch_mux.active)
    assert names == sorted(scalar_mux.active)
    for name in names:
        assert (
            batch_mux.monitor(name).query_verdicts()
            == scalar_mux.monitor(name).query_verdicts()
        )
    # s0 keeps both obligations; later sessions outlive "fast".
    assert batch_mux.monitor("s0").query_verdicts() == {
        "fast": StreamVerdict.ACCEPTING,
        "slow": StreamVerdict.ACCEPTING,
    }
    report = batch_mux.close("s2")
    assert isinstance(report, SessionReport)
    assert report.query_verdicts == {
        "fast": StreamVerdict.REJECTED,
        "slow": StreamVerdict.ACCEPTING,
    }


def test_plan_mux_eviction_reports_carry_channels():
    plan = QueryPlan(PLAN_QUERIES)
    mux = SessionMux(plan=plan, idle_ttl=5)
    mux.ingest("gone", "req", 0)
    mux.ingest("gone", "rsp", 2)
    mux.ingest("fresh", "req", 100)
    assert mux.evict_idle() == ["gone"]
    (report,) = mux.drain_evictions()
    assert report.query_verdicts == {
        "fast": StreamVerdict.ACCEPTING,
        "slow": StreamVerdict.ACCEPTING,
    }


# ------------------------------------------------- per-session queries


def test_open_with_session_private_query():
    mux = SessionMux(query="repeat(hb within 5)")
    special = mux.open("special", query="once(job deadline 7 grace 2)")
    assert isinstance(special, TBAMonitor)
    mux.ingest("special", "job", 4)
    mux.ingest("plain", "hb", 0)
    assert mux.verdicts() == {
        "special": StreamVerdict.ACCEPTING,
        "plain": StreamVerdict.ACCEPTING,
    }
    with pytest.raises(ValueError, match="already open"):
        mux.open("special", query="a")
    # A private query that does not parse opens nothing.
    with pytest.raises(ValueError):
        mux.open("broken", query="repeat(")
    assert "broken" not in mux and sorted(mux.active) == ["plain", "special"]


def test_session_private_query_takes_scalar_batch_path():
    # A private query's compiled artifact differs from the shared one,
    # so ingest_batch must route its events through the scalar path —
    # and still land on the same verdicts.
    mux = SessionMux(query="repeat(hb within 5)")
    mux.open("special", query="repeat(tick within 9)")
    mux.ingest_batch(
        [("plain", "hb", 0), ("special", "tick", 0), ("plain", "hb", 3),
         ("special", "tick", 8)]
    )
    assert mux.verdicts() == {
        "plain": StreamVerdict.ACCEPTING,
        "special": StreamVerdict.ACCEPTING,
    }


def test_batch_of_only_private_sessions_takes_scalar_path():
    # No session of this batch is on the shared table, which has not
    # allocated a slot yet: the whole batch runs on the scalar path.
    mux = SessionMux(query="repeat(hb within 5)")
    mux.open("x", query="repeat(tick within 9)")
    assert mux.ingest_batch([("x", "tick", 0), ("x", "tick", 8)]) == 0
    assert mux.verdicts() == {"x": StreamVerdict.ACCEPTING}
    assert mux.monitor("x").events_ingested == 2
