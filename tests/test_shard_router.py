"""Tests for repro.shard.router — the sharded mux front.

The load-bearing invariant everywhere: a ShardRouter over N workers
produces *exactly* the verdicts a single in-process SessionMux would,
through crashes, recoveries, fail-overs, and rebalances.
"""

import os
import random
import subprocess
import sys
import textwrap

import pytest

import repro

from repro.automata import TimedBuchiAutomaton, TimedTransition
from repro.kernel import Le
from repro.shard import HashRing, ShardError, ShardRouter
from repro.shard import router as router_mod
from repro.shard.wire import OP_EVENTS, EventBatch, frame_batches, pack_frame, unpack_frame
from repro.stream import SessionMux
from repro.stream.checkpoint import EVENTS


def bounded_gap_tba(bound=2):
    return TimedBuchiAutomaton(
        "a",
        ["s"],
        "s",
        [TimedTransition.make("s", "s", "a", resets=["x"], guard=Le("x", bound))],
        ["x"],
        ["s"],
    )


def traffic(sessions=30, events=1500, seed=11):
    """Mixed traffic: most gaps in-bound, some breaking the bound."""
    rng = random.Random(seed)
    clocks = {f"c-{i}": 0 for i in range(sessions)}
    out = []
    for _ in range(events):
        name = rng.choice(list(clocks))
        gap = rng.choice([1, 1, 1, 2, 2, 5])
        clocks[name] += gap
        out.append((name, "a", clocks[name]))
    return out


@pytest.fixture
def tba():
    return bounded_gap_tba()


def reference_verdicts(tba, events):
    mux = SessionMux(tba)
    for e in events:
        mux.ingest(*e)
    return mux.verdicts()


def test_verdicts_identical_to_single_mux(tba):
    events = traffic()
    with ShardRouter(tba, n_shards=3, batch_events=64) as router:
        router.ingest_batch(events)
        assert router.verdicts() == reference_verdicts(tba, events)
        stats = router.stats()
        assert stats["active"] == 30
        assert stats["opened"] == 30
        assert router.session_count == 30


def test_scalar_ingest_and_close_session(tba):
    events = traffic(sessions=6, events=200)
    ref = SessionMux(tba)
    with ShardRouter(tba, n_shards=2, batch_events=16) as router:
        for name, sym, t in events:
            router.ingest(name, sym, t)
            ref.ingest(name, sym, t)
        name = events[0][0]
        want = ref.close(name)
        got = router.close_session(name)
        assert (got.name, got.verdict, got.events_ingested) == (
            want.name, want.verdict, want.events_ingested
        )
        assert router.session_count == ref.stats()["active"]
        assert router.verdicts() == ref.verdicts()


def test_evict_idle_matches_mux(tba):
    events = [("hot", "a", t) for t in range(1, 40)] + [("cold", "a", 1)]
    ref = SessionMux(tba)
    for e in events:
        ref.ingest(*e)
    with ShardRouter(tba, n_shards=2) as router:
        router.ingest_batch(events)
        assert sorted(router.evict_idle(idle_ttl=10)) == sorted(
            ref.evict_idle(idle_ttl=10)
        )
        assert router.verdicts() == ref.verdicts()


def test_crash_then_recover_is_verdict_identical(tba):
    events = traffic(events=1200)
    head, tail = events[:700], events[700:]
    with ShardRouter(tba, n_shards=3, batch_events=50) as router:
        router.ingest_batch(head)
        router.checkpoint()
        router.ingest_batch(tail)
        victim = router.shard_ids[1]
        router.crash(victim)
        latency = router.recover(victim)
        assert latency >= 0
        assert router.verdicts() == reference_verdicts(tba, events)


def test_crash_without_checkpoint_replays_whole_journal(tba):
    events = traffic(events=400)
    with ShardRouter(tba, n_shards=2, batch_events=32) as router:
        router.ingest_batch(events)
        victim = router.shard_ids[0]
        router.crash(victim)
        router.recover(victim)
        assert router.verdicts() == reference_verdicts(tba, events)


def test_events_buffered_while_dead_are_replayed(tba):
    events = traffic(events=600)
    head, tail = events[:300], events[300:]
    with ShardRouter(tba, n_shards=2, batch_events=10_000) as router:
        router.ingest_batch(head)
        router.sync()
        victim = router.shard_ids[0]
        router.crash(victim)
        # These buffer parent-side for the dead shard (no flush raises).
        router.ingest_batch(tail)
        router.recover(victim)
        assert router.verdicts() == reference_verdicts(tba, events)


def test_fail_over_replaces_sessions_on_survivors(tba):
    events = traffic(events=1000)
    head, tail = events[:600], events[600:]
    with ShardRouter(tba, n_shards=3, batch_events=40) as router:
        router.ingest_batch(head)
        router.checkpoint()
        router.ingest_batch(tail)
        victim = router.shard_ids[0]
        router.crash(victim)
        router.fail_over(victim)
        assert victim not in router.shard_ids
        assert router.n_shards == 2
        assert router.verdicts() == reference_verdicts(tba, events)


def test_rebalance_grow_and_shrink_preserve_verdicts(tba):
    events = traffic(events=900)
    with ShardRouter(tba, n_shards=2, batch_events=64) as router:
        router.ingest_batch(events[:450])
        grown = router.rebalance(4)
        assert router.n_shards == 4
        # consistent hashing: growing 2 -> 4 moves roughly half, never all
        assert 0 < len(grown["moved"]) < router.session_count
        router.ingest_batch(events[450:])
        assert router.verdicts() == reference_verdicts(tba, events)
        shrunk = router.rebalance(2)
        assert router.n_shards == 2
        assert shrunk["moved"]
        assert router.verdicts() == reference_verdicts(tba, events)


def test_rebalance_then_crash_recovers_on_new_layout(tba):
    events = traffic(events=800)
    with ShardRouter(tba, n_shards=2, batch_events=64) as router:
        router.ingest_batch(events[:400])
        router.rebalance(3)
        router.ingest_batch(events[400:])
        victim = router.shard_ids[2]
        router.crash(victim)
        router.recover(victim)
        assert router.verdicts() == reference_verdicts(tba, events)


def test_reject_policy_errors_surface_at_sync(tba):
    with ShardRouter(
        tba,
        n_shards=2,
        batch_events=8,
        mux_kwargs={"buffer_limit": 1, "drop_policy": "reject", "lateness": 4},
    ) as router:
        # out-of-order events pile into the reorder buffer and overflow
        for i in range(12):
            router.ingest("s", "a", 10 - (i % 3))
        with pytest.raises(ShardError):
            router.sync()


def test_router_validates_configuration(tba):
    with pytest.raises(ValueError):
        ShardRouter(tba, n_shards=0)
    with pytest.raises(ValueError):
        ShardRouter(tba, mux_factory=lambda: None)
    with pytest.raises(ValueError):
        ShardRouter(mux_kwargs={"lateness": 1})
    with pytest.raises(ValueError):
        ShardRouter(tba, max_inflight=0)


def test_fail_over_refuses_last_shard(tba):
    with ShardRouter(tba, n_shards=1) as router:
        with pytest.raises(ShardError):
            router.fail_over(router.shard_ids[0])


def test_auto_checkpoint_bounds_the_journal(tba):
    events = traffic(events=600)
    with ShardRouter(
        tba, n_shards=2, batch_events=25, checkpoint_every=100
    ) as router:
        router.ingest_batch(events)
        router.sync()
        for shard in router._shards.values():
            journal = shard.journal
            journaled = sum(len(cols) for op, cols in journal.records if op == EVENTS)
            assert journaled == journal.events <= 200
            assert journal.snapshot is not None
        victim = router.shard_ids[1]
        router.crash(victim)
        router.recover(victim)
        assert router.verdicts() == reference_verdicts(tba, events)


# -- lifecycle records in the journal -------------------------------------


def _heal(router, shard_id, how):
    router.crash(shard_id)
    if how == "recover":
        router.recover(shard_id)
    else:
        router.fail_over(shard_id)


def _assert_like(router, ref):
    assert router.verdicts() == ref.verdicts()
    assert router.session_count == ref.stats()["active"]
    assert router.stats()["active"] == ref.stats()["active"]


@pytest.mark.parametrize("how", ["recover", "fail_over"])
def test_close_after_checkpoint_stays_closed_through_healing(tba, how):
    events = traffic(sessions=12, events=600)
    head, mid, tail = events[:200], events[200:400], events[400:]
    ref = SessionMux(tba)
    with ShardRouter(tba, n_shards=3, batch_events=16) as router:
        for part in (head, mid):
            router.ingest_batch(part)
            for e in part:
                ref.ingest(*e)
            if part is head:
                router.checkpoint()
        name = "c-3"
        owner = router.place_of(name)
        got, want = router.close_session(name), ref.close(name)
        assert (got.verdict, got.events_ingested) == (want.verdict, want.events_ingested)
        _heal(router, owner, how)
        _assert_like(router, ref)
        # The name comes back as a new session, as it does on one mux.
        router.ingest_batch(tail)
        for e in tail:
            ref.ingest(*e)
        _assert_like(router, ref)


@pytest.mark.parametrize("how", ["recover", "fail_over"])
def test_evict_after_checkpoint_stays_evicted_through_healing(tba, how):
    cold = [(f"cold-{i}", "a", 1 + i % 2) for i in range(6)]
    events = cold + traffic(sessions=12, events=400)
    head, tail = events[:150], events[150:]
    ref = SessionMux(tba)
    with ShardRouter(tba, n_shards=3, batch_events=16) as router:
        router.ingest_batch(head)
        for e in head:
            ref.ingest(*e)
        router.checkpoint()
        router.ingest_batch(tail)
        for e in tail:
            ref.ingest(*e)
        now = max(t for _n, _s, t in events)
        victims = router.evict_idle(now=now, idle_ttl=20)
        assert sorted(victims) == sorted(ref.evict_idle(now=now, idle_ttl=20))
        assert {f"cold-{i}" for i in range(6)} <= set(victims)
        for owner in {router.place_of(f"cold-{i}") for i in range(6)}:
            if owner in router.shard_ids and router.n_shards > 1:
                _heal(router, owner, how)
        _assert_like(router, ref)


def test_eviction_reports_drain_once_through_healing(tba):
    """Every eviction report comes back from exactly one drain, as from
    one mux, through recover, fail_over and rebalance.  Before each step
    a drain is journaled after the checkpoint and more reports wait
    undrained: a replayed drain takes only what the live one took."""
    ref = SessionMux(tba)
    with ShardRouter(tba, n_shards=3) as router:
        now = 0

        def idle_round(tag):
            nonlocal now
            now += 20
            events = [(f"{tag}-{i}", "a", now) for i in range(40)]
            events += [("hot", "a", now + k) for k in range(12)]
            router.ingest_batch(events)
            for e in events:
                ref.ingest(*e)
            assert sorted(router.evict_idle(idle_ttl=10)) == sorted(ref.evict_idle(idle_ttl=10))

        def drained():
            got, want = router.drain_evictions(), ref.drain_evictions()
            # The shards interleave: compare as multisets.
            assert sorted(got, key=repr) == sorted(want, key=repr)
            return len(got)

        idle_round("first")
        router.checkpoint()
        assert drained() == 40
        for step in ("recover", "fail_over", "rebalance"):
            idle_round(f"{step}-drained")
            assert drained() == 40
            idle_round(f"{step}-kept")
            if step == "rebalance":
                router.rebalance(1)
            else:
                victim = router.shard_ids[0]
                router.crash(victim)
                getattr(router, step)(victim)
            assert drained() == 40
            assert drained() == 0
        # Reports stay on the shard that filed them when the ring moves
        # their names: a respawn replays its drains on itself.
        idle_round("before-growth")
        router.rebalance(3)
        assert drained() == 40
        idle_round("after-growth")
        for victim in router.shard_ids:
            router.crash(victim)
            router.recover(victim)
        assert drained() == 40
        _assert_like(router, ref)


def test_reopen_after_rebalance_survives_fail_over_of_the_old_shard(tba):
    # x closes on s0, a rebalance moves the ring so x's next session
    # lands on the new s2 while s0 keeps its sessions; failing s0 over
    # must not replay x's old close onto the new session.
    two, three = HashRing(["s0", "s1"]), HashRing(["s0", "s1", "s2"])
    names = [f"k{i}" for i in range(200)]
    x = next(n for n in names if two.place(n) == "s0" and three.place(n) == "s2")
    stay = [n for n in names if two.place(n) == three.place(n)][:6]
    ref = SessionMux(tba)
    with ShardRouter(tba, n_shards=2, batch_events=4) as router:
        def feed(batch):
            router.ingest_batch(batch)
            for e in batch:
                ref.ingest(*e)

        feed([(n, "a", t) for t in (1, 2) for n in [x] + stay])
        router.checkpoint()
        router.close_session(x)
        ref.close(x)
        router.rebalance(3)
        feed([(n, "a", t) for t in (3, 4) for n in [x] + stay])
        assert router.place_of(x) == "s2"
        router.crash("s0")
        router.fail_over("s0")
        _assert_like(router, ref)


@pytest.mark.parametrize("seed", [0, 1, 2, 96])
def test_random_lifecycle_matches_a_single_mux(tba, seed):
    # Seeded runs of ingest, close, evict, checkpoint, crash+recover,
    # crash+fail_over and rebalance; seed 96 once replayed a fail_over
    # whose auto-checkpoints freed ids the replay still used.
    rng = random.Random(seed)
    ref = SessionMux(tba)
    clock = {}
    names = [f"n{i}" for i in range(rng.randint(3, 15))]
    with ShardRouter(
        tba, n_shards=rng.randint(2, 4), batch_events=rng.choice([1, 4, 16, 64]),
        chunk_events=rng.choice([3, 50, 512]), max_inflight=rng.choice([1, 8]),
        checkpoint_every=rng.choice([None, None, 30, 5]),
    ) as router:
        for _ in range(40):
            op = rng.random()
            if op < 0.55:
                batch = []
                for _ in range(rng.randint(0, 30)):
                    n = rng.choice(names)
                    clock[n] = clock.get(n, 0) + rng.choice([1, 1, 2, 3, 5])
                    batch.append((n, "a", clock[n]))
                router.ingest_batch(batch)
                for e in batch:
                    ref.ingest(*e)
            elif op < 0.65:
                if ref.active:
                    n = rng.choice(ref.active)
                    assert router.close_session(n).verdict == ref.close(n).verdict
            elif op < 0.72:
                now, ttl = max(clock.values(), default=0), rng.randint(1, 10)
                assert sorted(router.evict_idle(now=now, idle_ttl=ttl)) == sorted(
                    ref.evict_idle(now=now, idle_ttl=ttl)
                )
            elif op < 0.8:
                router.checkpoint()
            elif op < 0.88:
                _heal(router, rng.choice(router.shard_ids), "recover")
            elif op < 0.94 and router.n_shards > 1:
                _heal(router, rng.choice(router.shard_ids), "fail_over")
            else:
                router.rebalance(rng.randint(1, 4))
            _assert_like(router, ref)


def test_recover_whose_replay_checkpoints_after_a_close(tba):
    # The victim's journal holds events, a close and more events (the
    # reopened session among them) past checkpoint_every, unshipped; the
    # replay re-routes them and checkpoints on its own.
    ref = SessionMux(tba)
    with ShardRouter(
        tba, n_shards=2, batch_events=10_000, checkpoint_every=30
    ) as router:
        victim = router.place_of("x")
        names = ["x"] + [
            n for n in (f"c-{i}" for i in range(40)) if router.place_of(n) == victim
        ][:3]

        def feed(times):
            batch = [(n, "a", t) for t in times for n in names]
            router.ingest_batch(batch)
            for e in batch:
                ref.ingest(*e)

        feed(range(1, 6))
        assert router.close_session("x").verdict == ref.close("x").verdict
        feed(range(6, 16))
        journal = router._shards[victim].journal
        assert journal.snapshot is None and journal.events > 30
        router.crash(victim)
        router.recover(victim)
        _assert_like(router, ref)


def test_monitor_factory_muxes_checkpoint_and_recover(tba):
    from repro.stream import TBAMonitor

    events = traffic(events=600)
    head, tail = events[:300], events[300:]
    with ShardRouter(
        mux_factory=lambda: SessionMux(
            monitor_factory=lambda: TBAMonitor(tba, late_policy="drop")
        ),
        n_shards=2,
        batch_events=32,
    ) as router:
        router.ingest_batch(head)
        router.checkpoint()
        router.ingest_batch(tail)
        victim = router.shard_ids[0]
        router.crash(victim)
        router.recover(victim)
        assert router.verdicts() == reference_verdicts(tba, events)


def test_decide_only_router_rebalances_without_snapshots():
    with ShardRouter(n_shards=1) as router:
        assert router.rebalance(2) == {"n_shards": 2, "moved": []}


# -- the columnar path ---------------------------------------------------------


def test_unicode_names_and_non_str_symbols_round_trip():
    alphabet = [1, ("x", 2)]
    tba = TimedBuchiAutomaton(
        alphabet,
        ["s"],
        "s",
        [
            TimedTransition.make("s", "s", sym, resets=["x"], guard=Le("x", 2))
            for sym in alphabet
        ],
        ["x"],
        ["s"],
    )
    names = ["naïve", "сессия", "会话", "🛰️-7", "plain"]
    rng = random.Random(5)
    clock = dict.fromkeys(names, 0)
    events = []
    for _ in range(300):
        name = rng.choice(names)
        clock[name] += rng.choice([1, 1, 2, 3])
        sym = rng.choice(alphabet + [alphabet[0]] * 8 + ([("y",)] if name == "plain" else []))
        events.append((name, sym, clock[name]))
    ref = SessionMux(tba)
    for e in events:
        ref.ingest(*e)
    with ShardRouter(tba, n_shards=2, batch_events=8, chunk_events=5) as router:
        router.ingest_batch(events[:100])
        router.checkpoint()
        router.ingest_batch(events[100:])
        victim = router.place_of("会话")
        router.crash(victim)
        router.recover(victim)
        assert router.verdicts() == ref.verdicts()
        assert set(router.verdicts()) == set(names)


def test_refused_open_applies_the_prefix_and_surfaces_at_sync(tba):
    with ShardRouter(tba, n_shards=2, mux_kwargs={"max_sessions": 2}) as router:
        per_shard = {sid: [] for sid in router.shard_ids}
        i = 0
        while any(len(v) < 3 for v in per_shard.values()):
            name = f"m-{i}"
            i += 1
            owned = per_shard[router.place_of(name)]
            if len(owned) < 3:
                owned.append(name)
        a, b, extra = per_shard[router.shard_ids[0]]
        others = per_shard[router.shard_ids[1]][:2]
        admitted = [a, b] + others
        ref = SessionMux(tba)
        head = [(n, "a", t) for t in (1, 2) for n in admitted]
        router.ingest_batch(head)
        router.sync()
        # One frame for the first shard: a's event, then the refused
        # session, then b's event, which must not be applied.
        router.ingest_batch([(a, "a", 3), (extra, "a", 3), (b, "a", 9)])
        with pytest.raises(ShardError, match="session table full"):
            router.sync()
        for e in head + [(a, "a", 3)]:
            ref.ingest(*e)
        assert router.verdicts() == ref.verdicts()
        tail = [(n, "a", t) for t in (4, 5) for n in admitted]
        router.ingest_batch(tail)
        for e in tail:
            ref.ingest(*e)
        assert router.verdicts() == ref.verdicts()
        assert router.stats()["active"] == 4


def test_event_frames_carry_read_only_columns():
    import numpy as np

    batch = EventBatch(
        np.array([3, 1], np.int32), np.array([0, 2], np.int32),
        np.array([5, 2**40], np.int64), [(3, "ü")], [(2, ("x", 1))],
    )
    frame = unpack_frame(pack_frame(OP_EVENTS, 9, batch))
    got = frame.payload
    assert (frame.op, frame.seq, len(got)) == (OP_EVENTS, 9, 2)
    assert (got.ids.tolist(), got.syms.tolist(), got.times.tolist()) == (
        [3, 1], [0, 2], [5, 2**40]
    )
    assert (got.names, got.symbols) == ([(3, "ü")], [(2, ("x", 1))])
    assert not got.ids.flags.writeable and not got.times.flags.writeable
    merged = list(frame_batches([batch, batch, batch], 4))
    assert [len(b) for b in merged] == [4, 2]
    assert merged[0].ids.tolist() == [3, 1, 3, 1]


def test_empty_and_generator_batches(tba):
    events = traffic(sessions=5, events=100)
    with ShardRouter(tba, n_shards=2, batch_events=16) as router:
        router.ingest_batch([])
        router.ingest_batch(iter([]))
        router.ingest_batch(e for e in events)
        assert router.verdicts() == reference_verdicts(tba, events)


def test_ids_past_int32_raise_instead_of_wrapping(tba, monkeypatch):
    monkeypatch.setattr(router_mod, "_ID_LIMIT", 3)
    with ShardRouter(tba, n_shards=1) as router:
        router.ingest_batch([(f"s{i}", "a", 1) for i in range(3)])
        with pytest.raises(OverflowError, match="int32"):
            router.ingest_batch([("s3", "a", 1)])


def test_closed_ids_are_reused_after_a_checkpoint(tba):
    with ShardRouter(tba, n_shards=2, batch_events=4) as router:
        ref = SessionMux(tba)
        for round_ in range(4):
            events = [(f"r{round_}-{i}", "a", t) for t in (1, 2) for i in range(10)]
            router.ingest_batch(events)
            for e in events:
                ref.ingest(*e)
            for i in range(10):
                router.close_session(f"r{round_}-{i}")
                ref.close(f"r{round_}-{i}")
            router.checkpoint()
        assert len(router._names) == 10
        assert router.verdicts() == ref.verdicts() == {}


def test_worker_event_path_never_imports_numpy_ma():
    # np.unique imports numpy.ma: megabytes in every shard worker.  A
    # worker's frames of fanin traffic (duplicates, late events and
    # misses included) must not reach it.
    code = textwrap.dedent(
        """
        import random, sys
        import numpy as np
        from repro.query import as_query
        from repro.query.adapters import pq_query
        from repro.shard.wire import OP_EVENTS, EventBatch, pack_frame, unpack_frame
        from repro.shard.worker import _Worker
        from repro.stream import SessionMux

        tba = as_query(pq_query(6, 4)).tba()
        worker = _Worker(None, "s0", lambda: SessionMux(tba))
        rng = random.Random(3)
        timeline = []
        for i in range(300):
            t = 0
            for k in range(16):
                budget = 4 if k % 2 == 0 else 5
                t += budget + 2 if rng.random() < 0.01 else rng.randint(1, budget)
                timeline.append((t, i, "issue" if k % 2 == 0 else "answer"))
        timeline.sort()
        timeline[100] = (0, timeline[100][1], timeline[100][2])  # one late event
        names, syms = {}, {}
        for lo in range(0, len(timeline), 256):
            chunk = timeline[lo:lo + 256]
            new_names = [(names.setdefault(f"s{i}", len(names)), f"s{i}")
                         for _t, i, _s in chunk if f"s{i}" not in names]
            new_syms = [(syms.setdefault(s, len(syms)), s)
                        for _t, _i, s in chunk if s not in syms]
            batch = EventBatch(
                np.array([names[f"s{i}"] for _t, i, _s in chunk], np.int32),
                np.array([syms[s] for _t, _i, s in chunk], np.int32),
                np.array([t for t, _i, _s in chunk], np.int64),
                new_names, new_syms,
            )
            worker.on_events(unpack_frame(pack_frame(OP_EVENTS, 1, batch)).payload)
        assert "numpy.ma" not in sys.modules, "numpy.ma was imported"
        print(len(worker.mux))
        """
    )
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["300"]


def test_stats_keep_the_counters_of_shards_that_leave(tba):
    # fail_over and a shrinking rebalance retire shards; their lifetime
    # counters (opened, closed, ...) must stay in stats().
    events = [(f"n{i}", "a", t) for t in (1, 2) for i in range(12)]
    ref = SessionMux(tba)
    ref.ingest_batch(events)
    with ShardRouter(tba, n_shards=3, batch_events=4) as router:
        router.ingest_batch(events)
        router.close_session("n0")
        ref.close("n0")
        router.checkpoint()
        assert router.stats() == ref.stats()
        victim = router.shard_ids[1]
        router.crash(victim)
        router.fail_over(victim)
        assert router.stats() == ref.stats()
        router.rebalance(1)
        assert router.stats() == ref.stats()
        assert router.verdicts() == ref.verdicts()


def test_evict_idle_takes_now_from_open_sessions(tba):
    # x's newest event (t=30) leaves with its close: one mux then takes
    # "now" from y alone and evicts nothing.
    events = [("x", "a", t) for t in (1, 2, 3, 30)] + [("y", "a", 1)]
    ref = SessionMux(tba)
    ref.ingest_batch(events)
    with ShardRouter(tba, n_shards=2) as router:
        router.ingest_batch(events)
        router.close_session("x")
        ref.close("x")
        assert router.evict_idle(idle_ttl=10) == ref.evict_idle(idle_ttl=10) == []
        assert router.stats() == ref.stats()
