"""Shard runtime: stream scaling, session capacity, warm decide pool.

The paper's Section 6 parallel model trades communication cost against
parallel speedup; this module measures that trade for the shard
runtime of :mod:`repro.shard`:

* **stream scaling** — the same session traffic pushed through a
  ``ShardRouter`` at 1, 2, and 4 shards (events/sec, verdicts pinned
  identical to a single in-process ``SessionMux``);
* **session capacity** — a wide session table (100k sessions at full
  size) spread over 4 shards, the bounded-per-process-memory story;
* **decide: shards vs serial** — one large ``decide_many`` batch
  through both backends; the persistent pool's warm compiled acceptors
  must *beat* serial words/sec given real parallelism, and stay
  bit-identical to serial.

Rows land in the ``--bench-json`` capture (``BENCH_shards.json``; the
`shard-smoke` CI job asserts the shards rows exist).  Set
``REPRO_BENCH_QUICK=1`` for CI-sized parameters.
"""

import os
import random
import time

import pytest
from conftest import BENCH_QUICK, quick_sized

from repro.automata import TimedBuchiAutomaton, TimedTransition
from repro.engine import decide_many
from repro.kernel import Le
from repro.shard import ShardRouter, shared_pool, shutdown_pool
from repro.stream import SessionMux
from repro.words import TimedWord

N_SESSIONS = quick_sized(400, 40)
N_EVENTS = quick_sized(40_000, 2_000)
BIG_SESSIONS = quick_sized(100_000, 2_000)
N_WORDS = quick_sized(512, 64)
HORIZON = quick_sized(400, 200)


def bounded_gap_tba(bound=2):
    return TimedBuchiAutomaton(
        "a",
        ["s"],
        "s",
        [TimedTransition.make("s", "s", "a", resets=["x"], guard=Le("x", bound))],
        ["x"],
        ["s"],
    )


def traffic(sessions, events, seed=11):
    rng = random.Random(seed)
    clock = {f"s{i}": 0 for i in range(sessions)}
    names = list(clock)
    out = []
    for _ in range(events):
        name = rng.choice(names)
        clock[name] += rng.choice([1, 1, 2, 2, 5])
        out.append((name, "a", clock[name]))
    return out


def make_words(n):
    words = []
    for i in range(n):
        if i % 2 == 0:
            words.append(TimedWord.lasso([], [("a", 1)], shift=1))
        else:
            words.append(TimedWord.lasso([("a", 1), ("a", 6)], [("a", 7)], shift=1))
    return words


def test_stream_shard_scaling(once, report, bench_record):
    """1 -> 2 -> 4 shards over identical traffic, verdicts pinned."""
    tba = bounded_gap_tba()
    events = traffic(N_SESSIONS, N_EVENTS)
    reference = SessionMux(tba)
    t0 = time.perf_counter()
    reference.ingest_batch(events)
    single_s = time.perf_counter() - t0
    want = reference.verdicts()

    def sweep():
        rows = []
        for n_shards in (1, 2, 4):
            with ShardRouter(tba, n_shards=n_shards, batch_events=512) as router:
                t0 = time.perf_counter()
                router.ingest_batch(events)
                router.sync()
                elapsed = time.perf_counter() - t0
                assert router.verdicts() == want
            rows.append((n_shards, elapsed))
        return rows

    rows = once(sweep)
    single_eps = round(N_EVENTS / max(single_s, 1e-9), 1)
    bench_record(
        mode="stream-single-mux",
        sessions=N_SESSIONS,
        events=N_EVENTS,
        events_per_sec=single_eps,
    )
    report.add(shards=0, events=N_EVENTS, eps=single_eps, identical=True)
    for n_shards, elapsed in rows:
        eps = round(N_EVENTS / max(elapsed, 1e-9), 1)
        bench_record(
            mode=f"stream-shards:{n_shards}",
            shards=n_shards,
            sessions=N_SESSIONS,
            events=N_EVENTS,
            events_per_sec=eps,
        )
        report.add(shards=n_shards, events=N_EVENTS, eps=eps, identical=True)


def test_wide_session_table(once, report, bench_record):
    """100k concurrent sessions spread over 4 shards (full size)."""
    tba = bounded_gap_tba()
    # two in-bound events per session, session names interleaved
    events = []
    for t in (1, 2):
        events.extend((f"w{i}", "a", t) for i in range(BIG_SESSIONS))

    def run():
        with ShardRouter(tba, n_shards=4, batch_events=2048) as router:
            t0 = time.perf_counter()
            router.ingest_batch(events)
            router.sync()
            elapsed = time.perf_counter() - t0
            assert router.session_count == BIG_SESSIONS
            stats = router.stats()
            assert stats["active"] == BIG_SESSIONS
        return elapsed

    elapsed = once(run)
    eps = round(len(events) / max(elapsed, 1e-9), 1)
    bench_record(
        mode="stream-shards-wide",
        shards=4,
        sessions=BIG_SESSIONS,
        events=len(events),
        events_per_sec=eps,
    )
    report.add(sessions=BIG_SESSIONS, events=len(events), eps=eps)


def test_decide_shards_beats_serial(once, report, bench_record):
    """The warm pool must beat the serial loop given real parallelism."""
    shutdown_pool()
    tba = bounded_gap_tba()
    words = make_words(N_WORDS)
    kwargs = dict(horizon=HORIZON, strategy="f-rate", seed=7)
    shared_pool(4)  # spawn cost paid once, outside the timed region
    decide_many(tba, make_words(16), workers=4, backend="shards", **kwargs)

    def run():
        t0 = time.perf_counter()
        serial = decide_many(tba, words, backend="serial", **kwargs)
        t1 = time.perf_counter()
        shards = decide_many(tba, words, workers=4, backend="shards", **kwargs)
        t2 = time.perf_counter()
        assert shards == serial  # bit-identical under fan-out
        return t1 - t0, t2 - t1

    try:
        serial_s, shards_s = once(run)
    finally:
        shutdown_pool()
    serial_wps = round(N_WORDS / max(serial_s, 1e-9), 1)
    shards_wps = round(N_WORDS / max(shards_s, 1e-9), 1)
    cores = os.cpu_count() or 1
    bench_record(
        mode="decide-shards-vs-serial",
        words=N_WORDS,
        workers=4,
        cores=cores,
        serial_words_per_sec=serial_wps,
        shards_words_per_sec=shards_wps,
        shards_speedup=round(shards_wps / max(serial_wps, 1e-9), 2),
    )
    report.add(
        cores=cores,
        serial_wps=serial_wps,
        shards_wps=shards_wps,
        identical=True,
    )
    if not BENCH_QUICK:
        # The warm pool must beat the serial loop wherever there is real
        # parallelism to win (a single-core box can only show the pool's
        # overhead, not its speedup — the row records `cores` for that).
        if cores >= 2:
            assert shards_wps > serial_wps


def test_rebalance_cost(once, report, bench_record):
    """Elasticity price: grow 2->4 mid-stream, verdicts pinned."""
    tba = bounded_gap_tba()
    events = traffic(N_SESSIONS, N_EVENTS // 2)
    reference = SessionMux(tba)
    reference.ingest_batch(events + events_tail(events))
    want = reference.verdicts()

    def run():
        with ShardRouter(tba, n_shards=2, batch_events=512) as router:
            router.ingest_batch(events)
            t0 = time.perf_counter()
            summary = router.rebalance(4)
            elapsed = time.perf_counter() - t0
            router.ingest_batch(events_tail(events))
            assert router.verdicts() == want
        return elapsed, len(summary["moved"])

    elapsed, moved = once(run)
    bench_record(
        mode="stream-rebalance",
        sessions=N_SESSIONS,
        moved=moved,
        rebalance_ms=round(elapsed * 1000, 3),
    )
    report.add(moved=moved, rebalance_ms=round(elapsed * 1000, 3))


def events_tail(events):
    """A second traffic burst continuing each session's clock."""
    last = {}
    for name, _sym, t in events:
        last[name] = t
    return [(name, "a", last[name] + 1 + i % 2) for i, name in enumerate(sorted(last))]
