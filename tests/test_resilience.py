"""Fault paths of the resilient decision fan-out (repro.engine.resilience).

The three pinned guarantees:

* a SIGKILLed shard-pool worker is survived and the batch stays
  bit-identical to the serial path;
* a deadline-budget expiry returns partial results with an explicit
  UNDECIDED (inconclusive) remainder instead of hanging;
* degradation is always *marked* — unmarked reports are serial-identical.
"""

import os
import time

import pytest

from repro.engine import (
    BatchOutcome,
    CrashingAcceptor,
    DegradePolicy,
    DelayingAcceptor,
    FailingAcceptor,
    FileFuse,
    InjectedFault,
    RetryPolicy,
    Verdict,
    decide_many,
    decide_many_resilient,
)
from repro.machine import RealTimeAlgorithm
from repro.obs import instrumented
from repro.shard import shutdown_pool
from repro.words import TimedWord

HORIZON = 2_000
FAST_RETRY = RetryPolicy(max_retries=2, backoff_base=0.005, backoff_cap=0.02)


def make_word(n, member):
    """E14 parity word: accept iff the n-symbol header sums even."""
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


def make_acceptor():
    return RealTimeAlgorithm(parity)


@pytest.fixture(autouse=True)
def fresh_pool():
    """Every test starts with a cold shard pool and leaves none behind."""
    shutdown_pool()
    yield
    shutdown_pool()


@pytest.fixture
def sweep():
    words = [make_word(n, m) for n in (4, 8, 16) for m in (True, False)]
    acceptor = make_acceptor()
    serial = decide_many(acceptor, words, horizon=HORIZON, seed=3)
    return acceptor, words, serial


def fuse(tmp_path, shots, name="fuse"):
    return FileFuse(shots=shots, path=str(tmp_path / name))


class TestCleanPath:
    def test_pool_matches_serial_bit_identical(self, sweep):
        acceptor, words, serial = sweep
        out = decide_many_resilient(
            acceptor, words, horizon=HORIZON, workers=4, seed=3
        )
        assert isinstance(out, BatchOutcome)
        assert out.reports == serial
        assert out.clean and out.mode == "shards"
        assert out.retries == 0 and out.worker_deaths == 0

    def test_serial_mode_matches_decide_many(self, sweep):
        acceptor, words, serial = sweep
        out = decide_many_resilient(acceptor, words, horizon=HORIZON, seed=3)
        assert out.reports == serial
        assert out.mode == "serial" and out.clean

    def test_validation(self, sweep):
        acceptor, words, _ = sweep
        with pytest.raises(ValueError, match="workers"):
            decide_many_resilient(acceptor, words, workers=0)
        with pytest.raises(ValueError, match="chunk_size"):
            decide_many_resilient(acceptor, words, workers=2, chunk_size=0)
        with pytest.raises(ValueError, match="deadline_s"):
            decide_many_resilient(acceptor, words, deadline_s=0)
        with pytest.raises(ValueError, match="max_retries"):
            RetryPolicy(max_retries=-1)


class TestWorkerDeath:
    def test_sigkilled_worker_recovers_bit_identical(self, sweep, tmp_path):
        acceptor, words, serial = sweep
        crashy = CrashingAcceptor(acceptor, fuse(tmp_path, shots=1))
        out = decide_many_resilient(
            crashy, words, horizon=HORIZON, workers=4, seed=3, retry=FAST_RETRY
        )
        assert out.worker_deaths == 1
        assert out.reports == serial  # bit-identical despite the kill
        assert out.clean

    def test_repeated_kills_still_converge(self, sweep, tmp_path):
        acceptor, words, serial = sweep
        crashy = CrashingAcceptor(acceptor, fuse(tmp_path, shots=3))
        out = decide_many_resilient(
            crashy, words, horizon=HORIZON, workers=4, seed=3,
            retry=RetryPolicy(max_retries=4, backoff_base=0.005,
                              backoff_cap=0.02),
        )
        assert out.worker_deaths == 3
        assert out.reports == serial

    def test_kill_exhaustion_rescued_by_serial_fallback(self, sweep, tmp_path):
        # more kills than retries: the parent-side serial fallback (which
        # the crash wrapper spares, in_children_only) still rescues the
        # chunk with unmarked, serial-identical reports
        acceptor, words, serial = sweep
        crashy = CrashingAcceptor(acceptor, fuse(tmp_path, shots=50))
        out = decide_many_resilient(
            crashy, words, horizon=HORIZON, workers=2, seed=3,
            retry=RetryPolicy(max_retries=1, backoff_base=0.005,
                              split_chunks=False),
        )
        assert out.reports == serial
        assert out.serial_fallbacks > 0
        assert out.clean  # serial fallback is not a degradation marker


class TestExceptionRetry:
    def test_transient_exception_retried_to_identity(self, sweep, tmp_path):
        acceptor, words, serial = sweep
        flaky = FailingAcceptor(acceptor, fuse(tmp_path, shots=2))
        out = decide_many_resilient(
            flaky, words, horizon=HORIZON, workers=4, seed=3, retry=FAST_RETRY
        )
        assert out.reports == serial
        assert out.retries >= 1

    def test_serial_path_retries_exceptions(self, sweep, tmp_path):
        acceptor, words, serial = sweep
        flaky = FailingAcceptor(acceptor, fuse(tmp_path, shots=1))
        out = decide_many_resilient(
            flaky, words, horizon=HORIZON, workers=1, seed=3, retry=FAST_RETRY
        )
        assert out.reports == serial
        assert out.retries == 1 and out.mode == "serial"

    def test_fuse_is_fork_safe_and_bounded(self, tmp_path):
        f = fuse(tmp_path, shots=2)
        assert f.pop() and f.pop() and not f.pop()
        assert f.spent == 2
        f.reset()
        assert f.pop()


class _DecideOnlyPoison(FailingAcceptor):
    """Fails the lasso-exact entry point for one word, in any process;
    count_f (the cheaper empirical strategy's entry point) still works."""

    def __init__(self, inner, poison):
        super().__init__(inner, FileFuse(shots=0))
        self._poison = poison

    def _before(self, word):  # pragma: no cover - trivial
        pass

    def decide(self, word, horizon=10_000):
        if word == self._poison:
            raise InjectedFault("poisoned decide")
        return self.inner.decide(word, horizon=horizon)


class TestDegradation:
    def test_poison_word_isolated_and_strategy_degraded(self, sweep):
        acceptor, words, serial = sweep
        poison_i = 3
        poisoned = _DecideOnlyPoison(acceptor, words[poison_i])
        out = decide_many_resilient(
            poisoned, words, horizon=HORIZON, workers=4, seed=3,
            retry=RetryPolicy(max_retries=1, backoff_base=0.005),
            degrade=DegradePolicy(
                serial_fallback=True,
                fallback_strategy="long-prefix-empirical",
            ),
        )
        # chunk splitting + fallback corner exactly the poison word
        assert out.degraded_indices == [poison_i]
        marked = out.reports[poison_i]
        assert marked.evidence["degraded"] == (
            "strategy-fallback:long-prefix-empirical"
        )
        # empirical and exact agree on the parity sweep, so even the
        # degraded verdict is right -- only the evidence shape differs
        assert marked.verdict == serial[poison_i].verdict
        for i, report in enumerate(out.reports):
            if i != poison_i:
                assert report == serial[i]

    def test_abandoned_word_is_marked_inconclusive(self, sweep, tmp_path):
        acceptor, words, serial = sweep
        flaky = FailingAcceptor(acceptor, fuse(tmp_path, shots=10_000))
        out = decide_many_resilient(
            flaky, [words[0]], horizon=HORIZON, workers=1, seed=3,
            retry=RetryPolicy(max_retries=1, backoff_base=0.005),
            degrade=DegradePolicy(serial_fallback=False),
        )
        report = out.reports[0]
        assert report.verdict is Verdict.UNDECIDED
        assert report.evidence["degraded"] == "abandoned"
        assert "error" in report.evidence
        assert out.degraded_indices == [0]
        assert not out.clean


class TestDeadlineBudget:
    def test_pool_deadline_returns_partial_not_hang(self, sweep):
        acceptor, words, serial = sweep
        slow = DelayingAcceptor(acceptor, 0.15)
        out = decide_many_resilient(
            slow, words, horizon=HORIZON, workers=2, seed=3, deadline_s=0.35
        )
        assert out.deadline_missed
        assert out.elapsed_s < 5.0  # returned promptly, no hang
        assert len(out.reports) == len(words)
        remainder = [
            r for r in out.reports if r.evidence.get("degraded") == "deadline"
        ]
        assert remainder, "expected an inconclusive remainder"
        assert all(r.verdict is Verdict.UNDECIDED for r in remainder)
        done = [
            r for i, r in enumerate(out.reports)
            if i not in out.degraded_indices
        ]
        assert done, "expected some words to finish inside the budget"
        for r in done:
            assert r == serial[r.evidence["index"]]

    def test_serial_deadline_marks_remainder(self, sweep):
        acceptor, words, serial = sweep
        slow = DelayingAcceptor(acceptor, 0.1)
        out = decide_many_resilient(
            slow, words, horizon=HORIZON, workers=1, seed=3, deadline_s=0.25
        )
        assert out.deadline_missed and out.mode == "serial"
        assert out.degraded_indices  # the cut tail
        for i in out.degraded_indices:
            assert out.reports[i].evidence["degraded"] == "deadline"
        for i, r in enumerate(out.reports):
            if i not in out.degraded_indices:
                assert r == serial[i]

    def test_unshippable_acceptor_judged_serially_within_deadline(self, sweep):
        # a lambda does not pickle, so the batch never reaches a worker
        acceptor, words, serial = sweep
        slow = DelayingAcceptor(acceptor, 0.1, match=lambda word: True)
        with instrumented() as inst:
            out = decide_many_resilient(
                slow, words, horizon=HORIZON, workers=2, seed=3, deadline_s=0.25
            )
        assert out.mode == "serial"
        fallbacks = inst.registry.counter("engine.backend_fallbacks")
        assert fallbacks.labels(reason="unshippable-acceptor").value == 1
        assert out.deadline_missed and out.degraded_indices
        for i in out.degraded_indices:
            assert out.reports[i].evidence["degraded"] == "deadline"
        for i, r in enumerate(out.reports):
            if i not in out.degraded_indices:
                assert r == serial[i]


class TestOneLadder:
    """The pool and the in-process round run one retry loop, so one
    fault schedule keeps the same invariants on either."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_fault_schedule_keeps_the_ladder_invariants(self, sweep, tmp_path, workers):
        acceptor, words, serial = sweep
        delay, deadline_s = 0.02, 0.3
        faulty = FailingAcceptor(
            DelayingAcceptor(acceptor, delay), fuse(tmp_path, shots=3)
        )
        start = time.perf_counter()
        out = decide_many_resilient(
            faulty, words, horizon=HORIZON, workers=workers, seed=3,
            retry=RetryPolicy(max_retries=1, backoff_base=0.005),
            degrade=DegradePolicy(
                serial_fallback=False, fallback_strategy="long-prefix-empirical"
            ),
            deadline_s=deadline_s,
        )
        elapsed = time.perf_counter() - start
        assert out.mode == ("serial" if workers == 1 else "shards")
        assert out.retries >= 1
        # one report per word; every unmarked one is the serial one
        assert len(out.reports) == len(words)
        marked = [i for i, r in enumerate(out.reports) if "degraded" in r.evidence]
        for i, report in enumerate(out.reports):
            if i not in marked:
                assert report == serial[i]
        # the marked reports are exactly the degraded indices
        assert marked == out.degraded_indices
        # back within the deadline, one injected delay and a second
        assert elapsed < deadline_s + delay + 1.0


class TestObservability:
    def test_retry_degrade_and_deadline_metrics(self, sweep, tmp_path):
        acceptor, words, serial = sweep
        with instrumented() as inst:
            flaky = FailingAcceptor(acceptor, fuse(tmp_path, shots=1))
            decide_many_resilient(
                flaky, words, horizon=HORIZON, workers=4, seed=3,
                retry=FAST_RETRY,
            )
            slow = DelayingAcceptor(acceptor, 0.1)
            decide_many_resilient(
                slow, words, horizon=HORIZON, workers=1, seed=3,
                deadline_s=0.15,
            )
        retries = inst.registry.counter("engine.retries")
        assert retries.labels(reason="exception").value >= 1
        assert inst.registry.counter("engine.deadline_misses").value == 1
        spans = [s.name for s in inst.spans.completed()]
        assert "engine.decide_many_resilient" in spans

    def test_serial_fallback_counted_as_degraded_mode(self, sweep, tmp_path):
        acceptor, words, _ = sweep
        with instrumented() as inst:
            crashy = CrashingAcceptor(acceptor, fuse(tmp_path, shots=50))
            decide_many_resilient(
                crashy, words, horizon=HORIZON, workers=2, seed=3,
                retry=RetryPolicy(max_retries=0, backoff_base=0.005,
                                  split_chunks=False),
            )
        degraded = inst.registry.counter("engine.degraded")
        assert degraded.labels(mode="serial-fallback").value == len(words)
