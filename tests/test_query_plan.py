"""Tests for repro.query.plan — k queries fused over one stream.

The load-bearing contract: a :class:`PlanMonitor`'s per-channel verdict
*streams* must be indistinguishable from running each query through its
own independent :class:`~repro.stream.monitor.TBAMonitor`, on both
stepping paths, per event — the conformance sweep fuzzes the same
property (``--gen query``), these tests pin the named edges.
"""

import random
import sys
import threading
from itertools import product

import pytest

from repro.automata import TimedBuchiAutomaton, TimedTransition
from repro.obs import instrumented
from repro.query import PlanMonitor, Q, QueryPlan
from repro.spec.compile import _and_fold, _rename_clocks
from repro.stream import SessionMux, StreamVerdict, TBAMonitor
from repro.stream.monitor import TBAAnalysis

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
    assert stats["per_query_configs"] == {
        name: len(plan.analyses[c].universe)
        for name, c in zip(plan.names, plan.comp_of)
    }
    assert stats["sum_per_query_configs"] == sum(
        stats["per_query_configs"].values()
    )
    assert stats["config_ratio"] == pytest.approx(
        stats["plan_configs"] / stats["sum_per_query_configs"]
    )
    assert set(stats["sources"]) == set(QUERIES)
    # plan_configs counts the fused rows traffic made, trap excluded.
    if plan.compiled is None:
        assert stats["plan_configs"] == 0
    else:
        assert stats["plan_configs"] == 1  # the initial row
        m = plan.monitor()
        m.ingest("req", 0)
        m.ingest("rsp", 2)
        assert plan.stats()["plan_configs"] == len(plan.compiled.sets) - 1 == 3


def test_plan_compiled_true_requires_tables():
    plan = QueryPlan(QUERIES, ALPHA)
    if plan.compiled is None:
        with pytest.raises(ValueError, match="compiled stepping disabled for this plan"):
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


# ------------------------------------------------ built from components


def test_a_plan_builds_one_analysis_per_component():
    queries = {
        f"rsp-within-{w}": Q.event("req").within(2).then("rsp").within(w).repeat()
        for w in range(4, 11)
    }
    with instrumented() as inst:
        plan = QueryPlan(queries)
        mux = SessionMux(plan=plan)
        mux.ingest_batch([("s", "req", 1), ("s", "rsp", 3), ("s", "req", 4)])
        assert inst.registry.counter("stream.analysis_builds").value == 7
    assert len(plan.components) == len(plan.analyses) == 7


@pytest.mark.parametrize("compiled", [None, False])
def test_headline_green_locks_with_the_once_channel(compiled):
    # The headline is green iff some component is, and only hb — a
    # satisfied once in its accepting sink — ever is: the headline
    # locks on the very event that locks hb's own monitor.
    plan = QueryPlan(QUERIES, ALPHA)
    rng = random.Random(5)
    locked = 0
    for _trial in range(20):
        pm = plan.monitor(compiled=compiled)
        hb = TBAMonitor(QUERIES["hb"].tba(ALPHA), compiled=compiled)
        for s, t in random_events(rng, 30):
            pm.ingest(s, t)
            hb.ingest(s, t)
            assert pm._green_locked == hb._green_locked, (s, t)
        locked += hb._green_locked
        if hb._green_locked:
            assert pm.verdict is StreamVerdict.ACCEPTING
    assert locked > 0


def test_configs_agree_on_both_paths():
    plan = QueryPlan(QUERIES, ALPHA)
    rng = random.Random(9)
    for _trial in range(5):
        table, interpreter = plan.monitor(), plan.monitor(compiled=False)
        for s, t in random_events(rng, 80):
            table.ingest(s, t)
            interpreter.ingest(s, t)
            assert table.configs == interpreter.configs
            assert all(len(c) == len(plan.components) for c in table.configs)


def product_tba(components, alphabet):
    """The synchronous product of completed components, with the
    any-component accepting set: the automaton a plan once built and
    analysed as a whole, kept here as the oracle of its flag rules."""
    components = [_rename_clocks(c, f"q{i}.") for i, c in enumerate(components)]
    initial = tuple(c.initial for c in components)
    states, seen, transitions, frontier = [initial], {initial}, [], [initial]
    while frontier:
        svec = frontier.pop()
        for a in alphabet:
            combos = [()]
            for i, c in enumerate(components):
                combos = [x + (tr,) for x in combos for tr in c._by_source.get((svec[i], a), ())]
            for combo in combos:
                tvec = tuple(tr.target for tr in combo)
                if tvec not in seen:
                    seen.add(tvec)
                    states.append(tvec)
                    frontier.append(tvec)
                transitions.append(
                    TimedTransition(
                        svec,
                        tvec,
                        a,
                        frozenset().union(*(tr.resets for tr in combo)),
                        _and_fold(tr.guard for tr in combo),
                    )
                )
    accepting = [
        s for s in states if any(s[i] in c.accepting for i, c in enumerate(components))
    ]
    clocks = [x for c in components for x in c.clocks]
    return TimedBuchiAutomaton(alphabet, states, initial, transitions, clocks, accepting)


@pytest.mark.parametrize(
    "queries",
    [
        QUERIES,
        {
            "once-req": Q.event("req").within(2).once(),
            "once-rsp": Q.event("req").then("rsp").within(3).once(),
            "repeat": Q.event("req").within(2).then("rsp").within(4).repeat(),
        },
    ],
)
def test_headline_flags_factor_through_the_components(queries):
    # Over every configuration of the whole product, live and green
    # with the any-component accepting set are exactly "some
    # component's configuration is live / green" (a component reads
    # its clocks capped at its own cmax+1).
    plan = QueryPlan(queries, ALPHA)
    prod = product_tba(plan.components, plan.alphabet)
    whole = TBAAnalysis(prod)
    assert whole.deterministic and plan.deterministic
    where = {x: i for i, x in enumerate(prod.clocks)}
    greens = 0
    for state, vals in whole.universe:
        parts = [
            (state[i], tuple(c._cap(vals[where[f"q{i}.{x}"]]) for x in c.clocks))
            for i, c in enumerate(plan.components)
        ]
        flags = [an.flags(frozenset({p})) for an, p in zip(plan.analyses, parts)]
        config = (state, vals)
        assert (config in whole.live) == any(f[1] for f in flags)
        assert (config in whole.green) == any(f[2] for f in flags)
        greens += config in whole.green
    assert greens > 0


def assert_fused_cells_consistent(table):
    """Every fused row's set is the product of its components' sets, and
    every filled cell holds the row of what each component's
    interpreter makes of its set (the trap once one of them dies), in
    both layouts."""
    filled = 0
    width = table.gap_cap + 1
    for r, key in enumerate(table.keys):
        assert table.set_index[key] == r
        sets = [p.sets[k] for p, k in zip(table.parts, key)]
        assert table.sets[r] == (frozenset(product(*sets)) if key else frozenset())
        cells = table.table_list[r]
        assert cells[-1] == [table.trap] * width
        if table.table is not None:
            assert table.table[r].tolist() == cells
        for s, symbol in enumerate(table.symbols):
            for gap, nxt in enumerate(cells[s]):
                if nxt < 0:
                    continue
                filled += 1
                want = [
                    frozenset(p.tba._step_configs(m, symbol, gap))
                    for p, m in zip(table.parts, sets)
                ]
                if key and all(want):
                    got = [p.sets[k] for p, k in zip(table.parts, table.keys[nxt])]
                    assert got == want
                else:
                    assert nxt == table.trap
    return filled


def test_threads_feeding_plan_muxes_fill_consistent_cells():
    """Four threads feed four muxes over one plan while its fused and
    component tables are still making rows."""
    plan = QueryPlan(QUERIES, ALPHA)
    if plan.compiled is None:
        pytest.skip("compiled stepping disabled (REPRO_STREAM_COMPILED=0)")
    assert len(plan.compiled.sets) == 2  # the trap and the initial row
    rng = random.Random(11)
    streams = {f"s{i}": random_events(rng, 40) for i in range(40)}
    feed = [
        (name, s, t) for k in range(40) for name, evs in streams.items()
        for s, t in [evs[k]]
    ]
    muxes = [SessionMux(plan=plan) for _ in range(4)]
    errors = []

    def run(k):
        try:
            step = 7 * (k + 1)
            for lo in range(0, len(feed), step):
                muxes[k].ingest_batch(feed[lo : lo + step])
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    serial = SessionMux(plan=plan, compiled=False)
    for event in feed:
        serial.ingest(*event)
    for mux in muxes:
        for name in streams:
            m, want = mux.monitor(name), serial.monitor(name)
            assert m.query_verdicts() == want.query_verdicts(), name
            assert m.channel_accept_visits() == want.channel_accept_visits()
            assert (m.verdict, m.verdict_flips, m.accept_visits) == (
                want.verdict, want.verdict_flips, want.accept_visits
            )
    assert plan.compiled.table is not None
    assert assert_fused_cells_consistent(plan.compiled) > 0


def test_checkpoint_refuses_plan_monitors():
    from repro.stream import checkpoint

    plan = QueryPlan(QUERIES, ALPHA)
    m = plan.monitor()
    m.ingest("req", 0)
    with pytest.raises(NotImplementedError, match="plan monitors"):
        checkpoint(m)
