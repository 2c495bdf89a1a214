"""Online monitoring throughput: events/sec, fan-in, the ablation, and
what a session's lifecycle costs.

Four regimes over :mod:`repro.stream`, the first two measured on both
stepping paths so the compiled-vs-interpreted speedup is a committed
artifact (``docs/performance.md`` reads these rows):

* **single-session** — raw ingest throughput of one monitor:
  ``single-session-tba`` is the interpreted :class:`TBAMonitor`
  baseline (``compiled=False``, per-event dict stepping),
  ``single-session-tba-compiled`` the same events through the
  :class:`~repro.stream.compiled.CompiledTBA` bulk scan
  (``ingest_many``), and ``single-session-machine`` the machine-hosted
  :class:`Monitor` pumping a private simulator (the exact-agreement
  path, paying kernel events);
* **multiplexed** — one :class:`SessionMux` sustaining hundreds of
  concurrent sessions (the bounded-memory demo: per-session reorder
  buffers stay under ``buffer_limit``, the per-language analysis is
  shared): ``multiplexed`` replays the timestamp-ordered merge one
  event at a time into interpreted monitors, ``multiplexed-compiled``
  feeds the same merge in chunks through
  :meth:`~repro.stream.session.SessionMux.ingest_batch`;
* **online-vs-batch ablation** — ``engine.decide`` under
  ``"online-incremental"`` vs ``"lasso-exact"``: the per-event overhead
  the incremental path pays for never having to see the whole word;
* **session lifecycle** — what a session costs besides its events on a
  ``fanin`` mux (``pq_query(6, 4)``, the perfbench automaton): opening
  through ``ingest_batch`` and through ``open``, scalar ``ingest`` on
  batch-opened sessions, ``close``, ``evict_idle``,
  ``extract_sessions``, ``checkpoint_mux`` and ``restore_mux``, each
  per session (per event for ``ingest``), uninstrumented, the median of
  a few repetitions on fresh muxes; the verdicts are checked against a
  loop of ``open`` and ``ingest``.

Events/sec per regime land in the ``--bench-json`` capture
(``BENCH_stream.json`` in the repo root).  Set ``REPRO_BENCH_QUICK=1``
for CI-sized parameters (the stream-smoke CI job does).
"""

import statistics
import time

import pytest
from conftest import quick_sized

from repro.automata import TimedBuchiAutomaton, TimedTransition
from repro.engine import compiled_tba, decide
from repro.kernel import Le
from repro.obs import hooks
from repro.query import as_query, pq_query
from repro.stream import (
    Monitor,
    SessionMux,
    StreamVerdict,
    TBAMonitor,
    analysis_for,
    checkpoint,
    checkpoint_mux,
    compiled_for,
    replay_into_mux,
    restore,
    restore_mux,
)
from repro.stream.checkpoint import extract_sessions
from repro.words import TimedWord

N_EVENTS = quick_sized(2_000, 500)
N_SESSIONS = quick_sized(500, 200)
MUX_UNTIL = quick_sized(60, 30)
ABLATION_HORIZON = quick_sized(400, 200)
BUFFER_LIMIT = 16
LIFECYCLE_SESSIONS = quick_sized(2_000, 200)
LIFECYCLE_REPS = quick_sized(5, 3)
#: Scalar events per session after its batch-door open (in-budget gaps).
LIFECYCLE_EVENTS = [("answer", 3), ("issue", 5), ("answer", 8), ("issue", 10), ("answer", 12)]


def bounded_gap_tba(bound=2):
    """Deterministic TBA: every inter-arrival gap ≤ bound."""
    return TimedBuchiAutomaton(
        "a",
        ["s"],
        "s",
        [TimedTransition.make("s", "s", "a", resets=["x"], guard=Le("x", bound))],
        ["x"],
        ["s"],
    )


TBA = bounded_gap_tba()
ANALYSIS = analysis_for(TBA)
EVENTS = [("a", t) for t in range(1, N_EVENTS + 1)]


def steady_word():
    return TimedWord.lasso([], [("a", 1)], shift=1)


def stalling_word():
    return TimedWord.lasso([("a", 1), ("a", 10)], [("a", 11)], shift=1)


def test_single_session_tba_events_per_sec(benchmark, report, bench_record):
    """The interpreted baseline: per-event configuration stepping."""

    def ingest_all():
        monitor = TBAMonitor(TBA, analysis=ANALYSIS, compiled=False)
        for symbol, t in EVENTS:
            monitor.ingest(symbol, t)
        return monitor

    monitor = benchmark(ingest_all)
    assert monitor.verdict is StreamVerdict.ACCEPTING
    assert monitor.events_released == N_EVENTS
    eps = round(N_EVENTS / max(benchmark.stats.stats.mean, 1e-9), 1)
    bench_record(mode="single-session-tba", events=N_EVENTS, events_per_sec=eps)
    report.add(monitor="TBAMonitor", events=N_EVENTS, eps=eps)


def test_single_session_tba_compiled_events_per_sec(
    benchmark, report, bench_record
):
    """The compiled path: the same events through the bulk table scan."""
    if compiled_for(ANALYSIS) is None:
        pytest.skip("compiled stepping disabled (REPRO_STREAM_COMPILED=0)")

    def ingest_all():
        monitor = TBAMonitor(TBA, analysis=ANALYSIS, compiled=True)
        monitor.ingest_many(EVENTS)
        return monitor

    monitor = benchmark(ingest_all)
    assert monitor.verdict is StreamVerdict.ACCEPTING
    assert monitor.events_released == N_EVENTS
    eps = round(N_EVENTS / max(benchmark.stats.stats.mean, 1e-9), 1)
    bench_record(
        mode="single-session-tba-compiled", events=N_EVENTS, events_per_sec=eps
    )
    report.add(monitor="TBAMonitor[compiled]", events=N_EVENTS, eps=eps)


def test_single_session_machine_events_per_sec(benchmark, report, bench_record):
    """The exact-agreement path: a private simulator pumped per event."""
    acceptor = compiled_tba(TBA)

    def ingest_all():
        monitor = Monitor(acceptor)
        for symbol, t in EVENTS:
            monitor.ingest(symbol, t)
        return monitor

    monitor = benchmark(ingest_all)
    assert monitor.verdict is StreamVerdict.ACCEPTING
    assert monitor.f_count == N_EVENTS  # one f per accepting visit
    eps = round(N_EVENTS / max(benchmark.stats.stats.mean, 1e-9), 1)
    bench_record(mode="single-session-machine", events=N_EVENTS, events_per_sec=eps)
    report.add(monitor="Monitor", events=N_EVENTS, eps=eps)


def _fleet():
    return {
        f"s{i:04d}": stalling_word() if i % 10 == 9 else steady_word()
        for i in range(N_SESSIONS)
    }


def _check_and_record(mode, mux, verdicts, elapsed, report, bench_record):
    stats = mux.stats()
    rejected = sum(1 for v in verdicts.values() if v is StreamVerdict.REJECTED)
    monitors = [mux.monitor(name) for name in mux.active]
    events = sum(m.events_ingested for m in monitors)
    eps = round(events / max(elapsed, 1e-9), 1)
    # bounded memory: every session's reorder buffer under the limit,
    # session table exactly the fleet
    assert N_SESSIONS >= 200
    assert stats["active"] == N_SESSIONS
    assert all(m.pending <= BUFFER_LIMIT for m in monitors)
    assert rejected == N_SESSIONS // 10  # exactly the stalling streams
    bench_record(
        mode=mode,
        sessions=N_SESSIONS,
        events=events,
        events_per_sec=eps,
        pending_total=stats["pending_total"],
    )
    report.add(sessions=N_SESSIONS, events=events, eps=eps, rejected=rejected)


def test_mux_sustains_concurrent_sessions(once, report, bench_record):
    """The ≥200-session fan-in with bounded memory, timestamp-merged."""
    fleet = _fleet()

    def drive():
        mux = SessionMux(
            TBA,
            buffer_limit=BUFFER_LIMIT,
            drop_policy="drop-new",
            compiled=False,
        )
        t0 = time.perf_counter()
        verdicts = replay_into_mux(mux, fleet, until=MUX_UNTIL)
        return mux, verdicts, time.perf_counter() - t0

    mux, verdicts, elapsed = once(drive)
    _check_and_record(
        "multiplexed", mux, verdicts, elapsed, report, bench_record
    )


def test_mux_batched_compiled_sessions(once, report, bench_record):
    """The same fan-in, chunked through vectorized ``ingest_batch``."""
    if compiled_for(ANALYSIS) is None:
        pytest.skip("compiled stepping disabled (REPRO_STREAM_COMPILED=0)")
    fleet = _fleet()

    def drive():
        mux = SessionMux(
            TBA, buffer_limit=BUFFER_LIMIT, drop_policy="drop-new"
        )
        t0 = time.perf_counter()
        verdicts = replay_into_mux(mux, fleet, until=MUX_UNTIL, batch=4096)
        return mux, verdicts, time.perf_counter() - t0

    mux, verdicts, elapsed = once(drive)
    _check_and_record(
        "multiplexed-compiled", mux, verdicts, elapsed, report, bench_record
    )


@pytest.mark.parametrize("strategy", ["lasso-exact", "online-incremental"])
def test_online_vs_batch_ablation(benchmark, report, bench_record, strategy):
    """What the incremental path costs relative to the batch loop."""
    acceptor = compiled_tba(TBA)
    words = [steady_word() if i % 2 == 0 else stalling_word() for i in range(8)]

    def judge_all():
        return [
            decide(acceptor, w, horizon=ABLATION_HORIZON, strategy=strategy)
            for w in words
        ]

    reports = benchmark(judge_all)
    assert [r.accepted for r in reports] == [False] * 8  # REJECT or UNDECIDED
    assert [r.verdict.value for r in reports] == ["undecided", "reject"] * 4
    wps = round(len(words) / max(benchmark.stats.stats.mean, 1e-9), 1)
    bench_record(mode=f"ablation:{strategy}", words=len(words), words_per_sec=wps)
    report.add(strategy=strategy, horizon=ABLATION_HORIZON, wps=wps)


def test_checkpoint_round_trip_cost(benchmark, report, bench_record):
    """Snapshot+restore of a live TBA session (the O(state) claim)."""
    monitor = TBAMonitor(TBA, analysis=ANALYSIS)
    for symbol, t in EVENTS:
        monitor.ingest(symbol, t)

    def round_trip():
        return restore(checkpoint(monitor), tba=TBA, analysis=ANALYSIS)

    resumed = benchmark(round_trip)
    assert resumed.verdict is monitor.verdict
    assert resumed.configs == monitor.configs
    rps = round(1 / max(benchmark.stats.stats.mean, 1e-9), 1)
    bench_record(mode="checkpoint-round-trip", events_behind=N_EVENTS,
                 round_trips_per_sec=rps)
    report.add(events_behind=N_EVENTS, round_trips_per_sec=rps)


def session_lifecycle(n_sessions=LIFECYCLE_SESSIONS, reps=LIFECYCLE_REPS):
    """Per-session seconds of each lifecycle operation (per event for
    ``ingest``) on fresh ``fanin`` muxes, the median of ``reps``; and
    whether every verdict equals a loop of ``open`` and ``ingest``."""
    tba = as_query(pq_query(6, 4)).tba()
    names = [f"s{i:05d}" for i in range(n_sessions)]
    first = [(name, "issue", 1) for name in names]
    later = [(name, sym, t) for sym, t in LIFECYCLE_EVENTS for name in names]
    loop = SessionMux(tba)
    for name in names:
        loop.open(name)
    for event in first:
        loop.ingest(*event)
    want_first = loop.verdicts()
    for event in later:
        loop.ingest(*event)
    want = loop.verdicts()

    def opened():
        mux = SessionMux(tba)
        mux.ingest_batch(first)
        return mux

    def fed():
        return ingest_later(opened())

    def ingest_later(mux):
        for event in later:
            mux.ingest(*event)
        return mux

    def batch_open(mux):
        mux.ingest_batch(first)
        return mux

    def evict_all(mux):
        mux.evict_idle(now=10**6, idle_ttl=1)
        return {r.name: r.verdict for r in mux.drain_evictions()}

    def timed(prepare, op, per):
        """Median seconds of ``op`` per unit, and its last result."""
        times = []
        for _ in range(reps):
            state = prepare()
            t0 = time.perf_counter()
            out = op(state)
            times.append((time.perf_counter() - t0) / per)
        return statistics.median(times), out

    row, outs = {}, {}
    ops = {
        "batch_open": (lambda: SessionMux(tba), batch_open, n_sessions),
        "open": (lambda: SessionMux(tba), lambda m: [m.open(n) for n in names], n_sessions),
        "ingest": (opened, ingest_later, len(later)),
        "checkpoint_mux": (fed, checkpoint_mux, n_sessions),
        "close": (fed, lambda m: {n: m.close(n).verdict for n in names}, n_sessions),
        "evict_idle": (fed, evict_all, n_sessions),
        "extract_sessions": (fed, lambda m: extract_sessions(m, names), n_sessions),
    }
    for name, (prepare, op, per) in ops.items():
        row[name + "_s"], outs[name] = timed(prepare, op, per)
    snap = outs["checkpoint_mux"]
    row["restore_mux_s"], back = timed(
        lambda: SessionMux(tba), lambda m: restore_mux(snap, m), n_sessions
    )
    ok = (
        outs["batch_open"].verdicts() == want_first
        and outs["ingest"].verdicts() == back.verdicts() == want
        and outs["close"] == outs["evict_idle"] == want
        and list(outs["extract_sessions"]) == names
    )
    return row, ok


def test_session_lifecycle(once, report, bench_record):
    """What a session costs besides its events, per lifecycle door."""
    inst = hooks.uninstall()  # time the lifecycle, not the instrumentation
    try:
        row, ok = once(session_lifecycle)
    finally:
        if inst is not None:
            hooks.install(inst)
    assert ok, "a lifecycle path disagreed with a loop of open and ingest"
    us = {k[:-2] + "_us": round(v * 1e6, 3) for k, v in row.items()}
    bench_record(mode="session-lifecycle", sessions=LIFECYCLE_SESSIONS, **us)
    report.add(sessions=LIFECYCLE_SESSIONS, **us)
