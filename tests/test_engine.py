"""Tests for repro.engine — the unified decision layer."""

import sys
import threading

import pytest

from repro import engine
from repro.automata import TimedBuchiAutomaton, TimedTransition
from repro.engine import (
    AcceptorCache,
    DecisionReport,
    FunctionAcceptor,
    Verdict,
    clear_caches,
    compiled_tba,
    decide,
    decide_many,
    get_strategy,
)
from repro.kernel import Le
from repro.machine import RealTimeAlgorithm
from repro.obs import instrumented
from repro.shard import shared_pool, shutdown_pool
from repro.words import TimedWord


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


def sweep_words():
    return [make_word(n, member) for n in (4, 8, 16, 32) for member in (True, False)]


class TestStrategies:
    def test_lasso_exact_matches_membership(self):
        for n in (8, 16):
            for member in (True, False):
                report = decide(make_acceptor(), make_word(n, member), horizon=5_000)
                assert report.accepted == member
                assert report.strategy == "lasso-exact"
                assert report.evidence["discipline"] == "absorbing-verdict"

    def test_empirical_agrees_with_exact_on_e14_sweep(self):
        acceptor = make_acceptor()
        for word in sweep_words():
            exact = decide(acceptor, word, horizon=5_000)
            empirical = decide(
                acceptor, word, horizon=5_000, strategy="long-prefix-empirical"
            )
            assert exact.verdict == empirical.verdict
            assert "raw_verdict" in empirical.evidence

    def test_f_rate_leaves_verdict_untouched(self):
        # count_f never waits for the absorbing state, so with no
        # rewrite the raw verdict comes back as judged.
        report = decide(
            make_acceptor(), make_word(8, True), horizon=5_000, strategy="f-rate"
        )
        assert report.f_count > 0
        assert report.evidence["discipline"] == "prefix-f-count"

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="unknown decision strategy"):
            get_strategy("guesswork")

    def test_online_incremental_resolves_lazily(self):
        # The stream package registers itself on first lookup.
        strat = get_strategy("online-incremental")
        assert strat.name == "online-incremental"

    def test_strategy_instance_passes_through(self):
        strat = engine.LassoExact()
        assert get_strategy(strat) is strat

    def test_seed_recorded_in_evidence(self):
        report = decide(make_acceptor(), make_word(4, True), seed=7)
        assert report.evidence["seed"] == 7


class TestFunctionAcceptor:
    def test_wraps_plain_function(self):
        def judge(word, horizon):
            return DecisionReport(
                verdict=Verdict.ACCEPT if word == "yes" else Verdict.REJECT,
                horizon=horizon,
            )

        acceptor = FunctionAcceptor(judge, name="oracle")
        assert decide(acceptor, "yes").accepted
        assert not decide(acceptor, "no").accepted


class TestDecideMany:
    @pytest.fixture(autouse=True)
    def fresh_pool(self):
        shutdown_pool()
        yield
        shutdown_pool()

    def test_serial_reports_in_word_order(self):
        words = sweep_words()
        reports = decide_many(make_acceptor(), words, horizon=5_000)
        assert len(reports) == len(words)
        for i, (word, report) in enumerate(zip(words, reports)):
            assert report.evidence["index"] == i
            assert report.accepted == decide(make_acceptor(), word, horizon=5_000).accepted

    def test_pool_bit_identical_to_serial(self):
        words = sweep_words()
        acceptor = make_acceptor()
        serial = decide_many(acceptor, words, horizon=5_000, workers=1, seed=3)
        pooled = decide_many(
            acceptor, words, horizon=5_000, workers=4, seed=3, backend="shards"
        )
        assert serial == pooled

    def test_pool_bit_identical_under_empirical_strategy(self):
        words = sweep_words()
        acceptor = make_acceptor()
        serial = decide_many(
            acceptor, words, horizon=2_000, strategy="long-prefix-empirical"
        )
        pooled = decide_many(
            acceptor, words, horizon=2_000, strategy="long-prefix-empirical",
            workers=4, backend="shards",
        )
        assert serial == pooled

    def test_seed_stamps_offset_by_index(self):
        reports = decide_many(make_acceptor(), sweep_words()[:3], seed=100, workers=2)
        assert [r.evidence["seed"] for r in reports] == [100, 101, 102]

    def test_chunk_size_override(self):
        words = sweep_words()
        reports = decide_many(make_acceptor(), words, workers=4, chunk_size=1)
        assert [r.evidence["index"] for r in reports] == list(range(len(words)))

    def test_counts_batches_and_words(self):
        with instrumented() as inst:
            decide_many(make_acceptor(), sweep_words()[:4], horizon=1_000)
        snap = inst.registry.counter("engine.batch_words").value
        assert snap == 4

    def test_rejects_invalid_chunk_size(self):
        words = sweep_words()[:4]
        with pytest.raises(ValueError, match="chunk_size must be >= 1"):
            decide_many(make_acceptor(), words, workers=2, chunk_size=0)
        with pytest.raises(ValueError, match="chunk_size must be >= 1"):
            decide_many(make_acceptor(), words, workers=2, chunk_size=-3)

    def test_rejects_invalid_workers(self):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            decide_many(make_acceptor(), sweep_words()[:2], workers=0)

    def test_concurrent_shard_batches_share_the_warm_pool(self):
        # regression: two threads on one warm pool used to interleave
        # frames on the same worker pipes, and both blocked in recv
        # waiting for a reply the other had read
        words_a = sweep_words() * 8
        words_b = list(reversed(sweep_words())) * 9
        acceptor = make_acceptor()
        expected_a = decide_many(acceptor, words_a, horizon=2_000, seed=1)
        expected_b = decide_many(acceptor, words_b, horizon=2_000, seed=2)
        shared_pool(2)
        results = {}
        errors = []
        barrier = threading.Barrier(2)

        def run(tag, words, seed):
            try:
                barrier.wait(timeout=30)
                results[tag] = decide_many(
                    acceptor, words, horizon=2_000, workers=2, seed=seed,
                    backend="shards",
                )
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(3):  # a few rounds to give the race room to bite
                results.clear()
                threads = [
                    threading.Thread(target=run, args=("a", words_a, 1), daemon=True),
                    threading.Thread(target=run, args=("b", words_b, 2), daemon=True),
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads), "shard batches hung"
                assert not errors, errors
                assert results["a"] == expected_a
                assert results["b"] == expected_b
        finally:
            sys.setswitchinterval(interval)


class TestAcceptorCache:
    def test_hit_and_miss_accounting(self):
        cache = AcceptorCache(maxsize=4)
        key = ("k", 1)
        built = []
        factory = lambda: built.append(1) or object()  # noqa: E731
        first = cache.get_or_build(key, factory)
        second = cache.get_or_build(key, factory)
        assert first is second
        assert (cache.hits, cache.misses, len(built)) == (1, 1, 1)

    def test_lru_eviction(self):
        cache = AcceptorCache(maxsize=2)
        for i in range(3):
            cache.get_or_build(("k", i), object)
        assert len(cache) == 2
        assert cache.evictions == 1
        # key 0 was evicted: rebuilding it is a miss (and evicts key 1)
        cache.get_or_build(("k", 0), object)
        assert cache.misses == 4
        assert cache.evictions == 2

    def test_eviction_counters_reach_obs(self):
        with instrumented() as inst:
            cache = AcceptorCache(maxsize=2)
            for i in range(3):
                cache.get_or_build(("k", i), object)
            cache.get_or_build(("k", 2), object)  # one hit
        counter = inst.registry.counter("engine.acceptor_cache")
        assert counter.labels(outcome="miss").value == 3
        assert counter.labels(outcome="eviction").value == 1
        assert counter.labels(outcome="hit").value == 1
        assert inst.registry.gauge("engine.acceptor_cache_size").value == 2

    def test_negative_maxsize_rejected(self):
        with pytest.raises(ValueError, match="maxsize must be >= 0"):
            AcceptorCache(maxsize=-1)

    def test_maxsize_zero_is_explicit_no_caching(self):
        # regression: maxsize=0 used to insert then immediately evict
        # its own entry, reporting a hit-capable cache that never hit
        cache = AcceptorCache(maxsize=0)
        built = []
        factory = lambda: built.append(1) or object()  # noqa: E731
        with instrumented() as inst:
            first = cache.get_or_build(("k", 1), factory)
            second = cache.get_or_build(("k", 1), factory)
        assert first is not second  # rebuilt every time, never served
        assert len(built) == 2
        assert len(cache) == 0
        assert cache.hits == 0 and cache.evictions == 0
        assert cache.misses == 2
        counter = inst.registry.counter("engine.acceptor_cache")
        assert counter.labels(outcome="bypass").value == 2
        assert inst.registry.gauge("engine.acceptor_cache_size").value == 0

    def test_clear_resets_eviction_count(self):
        cache = AcceptorCache(maxsize=1)
        cache.get_or_build(("k", 0), object)
        cache.get_or_build(("k", 1), object)
        assert cache.evictions == 1
        cache.clear()
        assert (cache.hits, cache.misses, cache.evictions) == (0, 0, 0)

    def test_compiled_tba_reuses_compilation(self):
        clear_caches()
        tba = TimedBuchiAutomaton(
            "a",
            ["s"],
            "s",
            [TimedTransition.make("s", "s", "a", resets=["x"], guard=Le("x", 2))],
            ["x"],
            ["s"],
        )
        first = compiled_tba(tba)
        second = compiled_tba(tba)
        assert first is second
        # The compiled machine judges by f-rate (one f per accepting
        # visit), so the empirical strategy is the right judge here.
        word = TimedWord.lasso([], [("a", 1)], shift=1)
        assert decide(
            first, word, horizon=200, strategy="long-prefix-empirical"
        ).accepted
        clear_caches()
        assert compiled_tba(tba) is not first


class TestEngineObservability:
    def test_decide_counts_and_spans(self):
        with instrumented() as inst:
            decide(make_acceptor(), make_word(4, True), horizon=1_000)
        counters = inst.registry.counter("engine.decisions")
        assert counters.labels(strategy="lasso-exact").value == 1
        assert any(s.name == "engine.decide" for s in inst.spans.completed())
