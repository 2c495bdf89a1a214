"""Tests for the ``backend="shards"`` decide path.

The contract under test: the persistent shard pool returns reports
**bit-identical** to the serial loop (verdicts, f-counts, evidence),
stays warm across calls, falls back with a *recorded reason* when the
language cannot cross a pipe, and survives a SIGKILLed pool worker.
"""

import os
import signal
import threading

import pytest

from repro.automata import TimedBuchiAutomaton, TimedTransition
from repro.engine import decide_many, decide_many_resilient
from repro.kernel import Le
from repro.obs import instrumented
from repro.shard import pool as shard_pool
from repro.shard import shared_pool, shutdown_pool
from repro.shard.pool import pool_is_warm
from repro.words import LassoBatch, TimedWord


@pytest.fixture(autouse=True)
def fresh_pool():
    """Every test starts cold and leaves nothing resident."""
    shutdown_pool()
    yield
    shutdown_pool()


def bounded_gap_tba(bound=2):
    return TimedBuchiAutomaton(
        "a",
        ["s"],
        "s",
        [TimedTransition.make("s", "s", "a", resets=["x"], guard=Le("x", bound))],
        ["x"],
        ["s"],
    )


def make_words(n):
    words = []
    for i in range(n):
        if i % 2 == 0:
            words.append(TimedWord.lasso([], [("a", 1)], shift=1))
        else:
            words.append(TimedWord.lasso([("a", 1), ("a", 6)], [("a", 7)], shift=1))
    return words


def fingerprint(reports):
    return [(r.verdict, r.f_count, r.evidence) for r in reports]


class Unpicklable:
    """A valid acceptor whose closure cannot cross a pipe."""

    def __init__(self):
        from repro.engine.batch import compiled_tba

        base = compiled_tba(bounded_gap_tba())
        self._count = lambda word, horizon: base.count_f(word, horizon)

    def count_f(self, word, horizon):
        return self._count(word, horizon)


def test_shards_backend_is_bit_identical_to_serial():
    tba, words = bounded_gap_tba(), make_words(200)
    serial = decide_many(tba, words, horizon=300, backend="serial")
    sharded = decide_many(tba, words, horizon=300, workers=2, backend="shards")
    assert fingerprint(sharded) == fingerprint(serial)


def test_a_lasso_batch_judges_as_its_word_list():
    tba = bounded_gap_tba()
    words = make_words(40) + [
        TimedWord.lasso([("a", 1)], [("a", 2)], shift=0),  # frozen, accepted
        TimedWord.lasso([("a", 1)], [("a", 9)], shift=0),  # frozen, dies
        TimedWord.lasso([("a", 8)], [("a", 9)], shift=1),  # past the horizon
    ] * 4
    batch = LassoBatch.of(words)
    listed = [batch[i] for i in range(len(batch))]
    for kwargs in (dict(backend="serial"), dict(backend="shards", workers=2)):
        want = decide_many(tba, listed, horizon=7, **kwargs)
        assert decide_many(tba, batch, horizon=7, **kwargs) == want
        assert [r.evidence["index"] for r in want] == list(range(len(words)))
        resilient = decide_many_resilient(tba, batch, horizon=7, **kwargs)
        assert resilient.reports == want and resilient.clean


def test_second_call_reuses_the_warm_pool():
    tba, words = bounded_gap_tba(), make_words(80)
    decide_many(tba, words, horizon=200, workers=2, backend="shards")
    assert pool_is_warm()
    router = shared_pool()
    pids = {s.proc.pid for s in router._shards.values()}
    decide_many(tba, words, horizon=200, workers=2, backend="shards")
    assert {s.proc.pid for s in router._shards.values()} == pids


def test_pool_grows_past_two_shards_on_a_wider_machine(monkeypatch):
    # Growth goes through rebalance, which must not ask decide-only
    # workers for mux snapshots.
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    tba, words = bounded_gap_tba(), make_words(40)
    shared_pool(2)
    serial = decide_many(tba, words, horizon=200, backend="serial")
    sharded = decide_many(tba, words, horizon=200, workers=4, backend="shards")
    assert shared_pool().n_shards == 4
    assert fingerprint(sharded) == fingerprint(serial)


def test_a_short_decide_reply_is_judged_in_process(monkeypatch):
    # A worker whose decide reply drops its last report: the pool files
    # the chunk as a protocol failure instead of a KeyError, and the
    # chunk is judged in-process.  Patched before the pool forks.
    from repro.shard.wire import OP_DECIDE
    from repro.shard.worker import _Worker

    decide = _Worker.HANDLERS[OP_DECIDE]

    def short(self, payload):
        reports, delta = decide(self, payload)
        return reports[:-1], delta

    monkeypatch.setitem(_Worker.HANDLERS, OP_DECIDE, short)
    tba, words = bounded_gap_tba(), make_words(60)
    serial = decide_many(tba, words, horizon=200, backend="serial")
    with instrumented() as inst:
        sharded = decide_many(tba, words, horizon=200, workers=2, backend="shards")
    assert fingerprint(sharded) == fingerprint(serial)
    fallbacks = inst.registry.counter("engine.backend_fallbacks")
    assert fallbacks.labels(reason="shard-protocol").value > 0
    resilient = decide_many_resilient(tba, words, horizon=200, workers=2, backend="shards")
    assert fingerprint(resilient.reports) == fingerprint(serial)


def test_unshippable_acceptor_falls_back_with_recorded_reason():
    words = make_words(70)
    serial = decide_many(
        Unpicklable(), words, horizon=200, strategy="f-rate", backend="serial"
    )
    with instrumented() as inst:
        fell_back = decide_many(
            Unpicklable(),
            words,
            horizon=200,
            strategy="f-rate",
            workers=2,
            backend="shards",
        )
    assert fingerprint(fell_back) == fingerprint(serial)
    counter = inst.registry.counter("engine.backend_fallbacks")
    assert counter.labels(reason="unshippable-acceptor").value == 1
    assert not pool_is_warm()  # nothing was spun up for the fallback


def test_auto_is_serial_even_for_large_batches():
    # auto is the serial loop: it never fans out onto a warm pool, and
    # it never starts a cold one.
    tba, words = bounded_gap_tba(), make_words(300)
    serial = decide_many(tba, words, horizon=200, backend="serial")
    for warm in (False, True):
        if warm:
            shared_pool(2)
        with instrumented() as inst:
            auto = decide_many(tba, words, horizon=200, workers=2, backend="auto")
        batches = inst.registry.counter("engine.batches")
        assert batches.labels(mode="serial").value == 1
        assert batches.labels(mode="shards").value == 0
        assert fingerprint(auto) == fingerprint(serial)
        assert pool_is_warm() is warm


def test_invalid_backend_is_rejected():
    for backend in ("threads", "fork"):
        with pytest.raises(ValueError, match="backend"):
            decide_many(bounded_gap_tba(), make_words(4), backend=backend)
        with pytest.raises(ValueError, match="backend"):
            decide_many_resilient(bounded_gap_tba(), make_words(4), backend=backend)


def test_pool_survives_a_sigkilled_worker():
    tba, words = bounded_gap_tba(), make_words(200)
    serial = decide_many(tba, words, horizon=300, backend="serial")
    router = shared_pool(2)
    victim = router._shards[router.shard_ids[0]]
    os.kill(victim.proc.pid, signal.SIGKILL)
    victim.proc.join()
    sharded = decide_many(tba, words, horizon=300, workers=2, backend="shards")
    assert fingerprint(sharded) == fingerprint(serial)
    # the pool healed itself back to strength
    assert all(s.proc.is_alive() for s in router._shards.values())


def test_resilient_shards_backend_clean_run():
    tba, words = bounded_gap_tba(), make_words(150)
    serial = decide_many_resilient(tba, words, horizon=250, backend="serial")
    out = decide_many_resilient(
        tba, words, horizon=250, workers=2, backend="shards"
    )
    assert out.mode == "shards"
    assert out.clean
    assert fingerprint(out.reports) == fingerprint(serial.reports)


def test_resilient_shards_heals_sigkill_mid_ladder():
    tba, words = bounded_gap_tba(), make_words(150)
    serial = decide_many_resilient(tba, words, horizon=250, backend="serial")
    router = shared_pool(2)
    victim = router._shards[router.shard_ids[1]]
    os.kill(victim.proc.pid, signal.SIGKILL)
    victim.proc.join()
    out = decide_many_resilient(
        tba, words, horizon=250, workers=2, backend="shards"
    )
    assert out.mode == "shards"
    assert fingerprint(out.reports) == fingerprint(serial.reports)


def test_resilient_waiter_stops_at_its_deadline():
    # The pool serves one batch at a time; a caller queued behind
    # another batch gives up at its own deadline instead of waiting on.
    tba, words = bounded_gap_tba(), make_words(20)
    shared_pool(2)
    held, release = threading.Event(), threading.Event()

    def other_batch():
        with shard_pool._POOL_LOCK:
            held.set()
            release.wait(30)

    holder = threading.Thread(target=other_batch, daemon=True)
    holder.start()
    assert held.wait(30)
    try:
        out = decide_many_resilient(
            tba, words, horizon=250, workers=2, backend="shards", deadline_s=0.2
        )
    finally:
        release.set()
        holder.join(30)
    assert not holder.is_alive()
    assert out.mode == "shards" and out.deadline_missed
    assert out.elapsed_s < 5.0
    assert out.degraded_indices == list(range(len(words)))
    assert all(r.evidence["degraded"] == "deadline" for r in out.reports)
