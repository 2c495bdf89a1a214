"""Resilience layer: recovery latency and degraded-mode throughput.

Three fault regimes, timed:

* **mux failover** — a supervised `SessionMux` carrying hundreds of
  sessions is crashed mid-stream and rebuilt from its latest
  checkpoint plus journal replay; the row records the wall-clock
  recovery latency and pins agreement with an uninterrupted run;
* **kill recovery** — a `decide_many_resilient` sweep on the shard
  pool loses a SIGKILLed worker mid-chunk and still returns reports
  bit-identical to the serial path; the row separates clean-pool from
  faulted-pool throughput (the price of one respawn and retry);
* **degraded throughput** — transient worker exceptions force retries;
  words/sec with faults injected vs the clean pool;
* **shard kill recovery** — one worker of a loaded
  :class:`repro.shard.ShardRouter` is SIGKILLed and rebuilt from its
  per-shard checkpoint+journal; the row records the respawn+replay
  latency and pins verdict identity with an uninterrupted run.

Rows land in the ``--bench-json`` capture (``BENCH_resilience.json``;
the `resilience-smoke` CI job asserts the failover row).  Set
``REPRO_BENCH_QUICK=1`` for CI-sized parameters.
"""

import random
import time

from conftest import quick_sized

from repro.automata import TimedBuchiAutomaton, TimedTransition
from repro.engine import (
    CrashingAcceptor,
    FailingAcceptor,
    FileFuse,
    RetryPolicy,
    decide_many,
    decide_many_resilient,
)
from repro.kernel import Le
from repro.machine import RealTimeAlgorithm
from repro.stream import MuxSupervisor, SessionMux
from repro.words import TimedWord

N_SESSIONS = quick_sized(300, 50)
N_EVENTS = quick_sized(6_000, 1_000)
N_WORDS = quick_sized(48, 12)
HORIZON = quick_sized(2_000, 1_000)
FAST_RETRY = RetryPolicy(max_retries=3, backoff_base=0.005, backoff_cap=0.05)


def bounded_gap_tba(bound=3):
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
        clock[name] += rng.choice([1, 2, 3, 3, 5])
        out.append((name, "a", clock[name]))
    return out


def make_parity_word(n, member):
    total_parity = 0 if member else 1
    syms = [1] * n
    if sum(syms) % 2 != total_parity:
        syms[0] = 2
    pairs = [(n, 0)] + [(s, i + 1) for i, s in enumerate(syms)]
    return TimedWord.lasso(pairs, [("w", n + 2)], shift=1)


def parity(ctx):
    """Module-level, so the machine pickles into shard workers."""
    n, _t = yield ctx.input.read()
    total = 0
    for _ in range(n):
        v, _t = yield ctx.input.read()
        total += v
    if total % 2 == 0:
        ctx.accept()
    else:
        ctx.reject()


def make_parity_acceptor():
    return RealTimeAlgorithm(parity)


def parity_sweep(n_words):
    sizes = (4, 8, 16)
    return [
        make_parity_word(sizes[i % len(sizes)], i % 2 == 0)
        for i in range(n_words)
    ]


def test_mux_failover_recovery_latency(once, report, bench_record):
    """Crash a loaded supervised mux; time the checkpoint+journal rebuild."""
    tba = bounded_gap_tba()
    factory = lambda: SessionMux(  # noqa: E731
        tba, lateness=2, late_policy="drop", buffer_limit=16,
        drop_policy="drop-old",
    )
    events = traffic(N_SESSIONS, N_EVENTS)

    reference = factory()
    for name, sym, t in events:
        reference.ingest(name, sym, t)

    def run():
        # 256 does not divide either event count, so the crash lands
        # with a non-empty journal and recovery times a real replay
        supervisor = MuxSupervisor(factory, checkpoint_every=256)
        t0 = time.perf_counter()
        for name, sym, t in events:
            supervisor.ingest(name, sym, t)
        ingest_s = time.perf_counter() - t0
        journal_depth = supervisor.journal.events
        supervisor.crash()
        recovery_s = supervisor.recover()
        assert supervisor.verdicts() == reference.verdicts()
        return ingest_s, recovery_s, journal_depth

    ingest_s, recovery_s, journal_depth = once(run)
    eps = round(N_EVENTS / max(ingest_s, 1e-9), 1)
    bench_record(
        mode="failover",
        sessions=N_SESSIONS,
        events=N_EVENTS,
        journal_depth=journal_depth,
        recovery_ms=round(recovery_s * 1e3, 3),
        supervised_events_per_sec=eps,
        recovered=True,
    )
    report.add(
        sessions=N_SESSIONS,
        events=N_EVENTS,
        recovery_ms=round(recovery_s * 1e3, 3),
        events_per_sec=eps,
    )


def test_kill_recovery_bit_identical(once, report, bench_record, tmp_path):
    """One SIGKILLed worker: recovery cost vs the clean pool."""
    acceptor = make_parity_acceptor()
    words = parity_sweep(N_WORDS)
    serial = decide_many(acceptor, words, horizon=HORIZON, seed=5)

    def run():
        t0 = time.perf_counter()
        clean = decide_many_resilient(
            acceptor, words, horizon=HORIZON, workers=4, seed=5,
            retry=FAST_RETRY,
        )
        t1 = time.perf_counter()
        fuse = FileFuse(shots=1, path=str(tmp_path / "kill-fuse"))
        crashy = CrashingAcceptor(acceptor, fuse)
        faulted = decide_many_resilient(
            crashy, words, horizon=HORIZON, workers=4, seed=5,
            retry=FAST_RETRY,
        )
        t2 = time.perf_counter()
        assert clean.reports == serial
        assert faulted.reports == serial  # survived the kill, bit-identical
        assert faulted.worker_deaths == 1
        return t1 - t0, t2 - t1

    clean_s, faulted_s = once(run)
    bench_record(
        mode="kill-recovery",
        words=N_WORDS,
        workers=4,
        clean_words_per_sec=round(N_WORDS / max(clean_s, 1e-9), 1),
        faulted_words_per_sec=round(N_WORDS / max(faulted_s, 1e-9), 1),
        recovered=True,
    )
    report.add(
        clean_s=round(clean_s, 4),
        faulted_s=round(faulted_s, 4),
        identical=True,
    )


def test_degraded_mode_throughput(once, report, bench_record, tmp_path):
    """Transient exceptions: retried words/sec vs the clean pool."""
    acceptor = make_parity_acceptor()
    words = parity_sweep(N_WORDS)
    serial = decide_many(acceptor, words, horizon=HORIZON, seed=5)
    shots = quick_sized(6, 2)

    def run():
        t0 = time.perf_counter()
        clean = decide_many_resilient(
            acceptor, words, horizon=HORIZON, workers=4, seed=5,
            retry=FAST_RETRY,
        )
        t1 = time.perf_counter()
        fuse = FileFuse(shots=shots, path=str(tmp_path / "flaky-fuse"))
        flaky = FailingAcceptor(acceptor, fuse)
        degraded = decide_many_resilient(
            flaky, words, horizon=HORIZON, workers=4, seed=5,
            retry=FAST_RETRY,
        )
        t2 = time.perf_counter()
        assert clean.reports == serial
        assert degraded.reports == serial
        assert degraded.retries >= 1
        return t1 - t0, t2 - t1, None

    clean_s, degraded_s, _ = once(run)
    clean_wps = round(N_WORDS / max(clean_s, 1e-9), 1)
    degraded_wps = round(N_WORDS / max(degraded_s, 1e-9), 1)
    bench_record(
        mode="degraded-throughput",
        words=N_WORDS,
        workers=4,
        faults_injected=shots,
        clean_words_per_sec=clean_wps,
        degraded_words_per_sec=degraded_wps,
    )
    report.add(
        faults=shots, clean_wps=clean_wps, degraded_wps=degraded_wps
    )


def test_shard_kill_recovery_latency(once, report, bench_record):
    """SIGKILL one shard of a loaded ShardRouter; time respawn+replay.

    The per-shard analogue of the mux failover row: the dead worker is
    rebuilt from its last checkpoint plus its journal, and the rebuilt
    pool's verdicts must match an uninterrupted single-mux run
    verdict-for-verdict.
    """
    from repro.shard import ShardRouter

    tba = bounded_gap_tba()
    events = traffic(N_SESSIONS, N_EVENTS)
    reference = SessionMux(tba)
    reference.ingest_batch(events)
    split = (len(events) * 2) // 3

    def run():
        with ShardRouter(tba, n_shards=3, batch_events=128) as router:
            router.ingest_batch(events[:split])
            router.checkpoint()
            router.ingest_batch(events[split:])
            router.sync()
            victim = router.shard_ids[1]
            journal_depth = router._shards[victim].journal.events
            router.crash(victim)
            recovery_s = router.recover(victim)
            assert router.verdicts() == reference.verdicts()
        return recovery_s, journal_depth

    recovery_s, journal_depth = once(run)
    bench_record(
        mode="shard-kill-recovery",
        sessions=N_SESSIONS,
        events=N_EVENTS,
        shards=3,
        journal_depth=journal_depth,
        recovery_ms=round(recovery_s * 1e3, 3),
        recovered=True,
    )
    report.add(
        sessions=N_SESSIONS,
        events=N_EVENTS,
        journal_depth=journal_depth,
        recovery_ms=round(recovery_s * 1e3, 3),
    )
