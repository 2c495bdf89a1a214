"""Engine batch layer: strategy ablation, compile caching, fan-out.

Four regimes, all through :mod:`repro.engine`:

* **strategy ablation** — one E14 word sweep judged by ``lasso-exact``
  vs ``long-prefix-empirical``; the exact strategy stops at the
  decision point while the empirical one pays the whole horizon, so
  words/sec separate by an order of magnitude (the speedup the engine
  makes selectable per request);
* **legacy** — the pre-engine shape: every decision recompiles its
  acceptor (the TBA→machine compilation) and runs a private loop;
* **batched-serial** — compile once through the engine's acceptor
  cache, judge the sweep with ``decide_many(workers=1)``;
* **batched-pool** — same, ``workers=4`` over the persistent shard
  pool (``backend="shards"``, :mod:`repro.shard`), checked
  bit-identical to serial (the engine's fan-out guarantee; deep dive:
  ``benchmarks/bench_shards.py`` / ``BENCH_shards.json``).

Words/sec per regime land in the ``--bench-json`` capture
(``BENCH_engine.json``).  Set ``REPRO_BENCH_QUICK=1`` for CI-sized
parameters.
"""

import time

import pytest
from conftest import quick_sized

from repro.automata import TimedBuchiAutomaton, TimedTransition
from repro.engine import Verdict, clear_caches, compiled_tba, decide_many
from repro.kernel import Le
from repro.machine import RealTimeAlgorithm, tba_to_algorithm
from repro.words import TimedWord

N_WORDS = quick_sized(64, 16)
HORIZON = quick_sized(400, 200)
SWEEP_HORIZON = quick_sized(5_000, 1_000)


def make_parity_word(n, member):
    """E14 parity word: accept iff the n-symbol header sums even."""
    total_parity = 0 if member else 1
    syms = [1] * n
    if sum(syms) % 2 != total_parity:
        syms[0] = 2
    pairs = [(n, 0)] + [(s, i + 1) for i, s in enumerate(syms)]
    return TimedWord.lasso(pairs, [("w", n + 2)], shift=1)


def make_parity_acceptor():
    def prog(ctx):
        n, _t = yield ctx.input.read()
        total = 0
        for _ in range(n):
            v, _t = yield ctx.input.read()
            total += v
        if total % 2 == 0:
            ctx.accept()
        else:
            ctx.reject()

    return RealTimeAlgorithm(prog)


@pytest.mark.parametrize("strategy", ["lasso-exact", "long-prefix-empirical"])
def test_strategy_ablation_words_per_sec(benchmark, report, bench_record, strategy):
    """The E14 pair as engine strategies over one decide_many sweep."""
    acceptor = make_parity_acceptor()
    words = [make_parity_word(n, m) for n in (8, 16, 32) for m in (True, False)]

    def sweep():
        return decide_many(acceptor, words, horizon=SWEEP_HORIZON, strategy=strategy)

    reports = benchmark(sweep)
    assert [r.accepted for r in reports] == [True, False] * 3
    wps = round(len(words) / max(benchmark.stats.stats.mean, 1e-9), 1)
    bench_record(mode=f"strategy:{strategy}", words=len(words), words_per_sec=wps)
    report.add(strategy=strategy, horizon=SWEEP_HORIZON, wps=wps)


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


def make_words(n):
    """Half members (gap 1), half not (one gap of 5 breaks the bound)."""
    words = []
    for i in range(n):
        if i % 2 == 0:
            words.append(TimedWord.lasso([], [("a", 1)], shift=1))
        else:
            words.append(TimedWord.lasso([("a", 1), ("a", 6)], [("a", 7)], shift=1))
    return words


def judge_kwargs():
    # The compiled TBA machine declares an absorbing REJECT when every
    # run dies but certifies acceptance by f-rate, so judge with the
    # raw-verdict f-rate strategy: member ⟺ not rejected.
    return dict(horizon=HORIZON, strategy="f-rate")


def accepted(report):
    return report.verdict is not Verdict.REJECT


def test_legacy_recompile_per_decision(benchmark, report, bench_record):
    tba = bounded_gap_tba()
    words = make_words(N_WORDS)

    def legacy():
        # the pre-engine call shape: fresh compilation per judgement
        return [
            tba_to_algorithm(tba).count_f(w, HORIZON).verdict is not Verdict.REJECT
            for w in words
        ]

    verdicts = benchmark(legacy)
    assert verdicts == [i % 2 == 0 for i in range(N_WORDS)]
    wps = round(N_WORDS / max(benchmark.stats.stats.mean, 1e-9), 1)
    bench_record(mode="legacy", words=N_WORDS, words_per_sec=wps)
    report.add(mode="legacy", words=N_WORDS, wps=wps)


def test_batched_compile_once_serial(benchmark, report, bench_record):
    tba = bounded_gap_tba()
    words = make_words(N_WORDS)
    clear_caches()

    def batched():
        acceptor = compiled_tba(tba)
        return decide_many(acceptor, words, **judge_kwargs())

    reports = benchmark(batched)
    assert [accepted(r) for r in reports] == [i % 2 == 0 for i in range(N_WORDS)]
    wps = round(N_WORDS / max(benchmark.stats.stats.mean, 1e-9), 1)
    bench_record(mode="batched-serial", words=N_WORDS, words_per_sec=wps)
    report.add(mode="batched-serial", words=N_WORDS, wps=wps)


def test_batched_pool_bit_identical(once, report, bench_record):
    tba = bounded_gap_tba()
    words = make_words(N_WORDS)
    clear_caches()
    acceptor = compiled_tba(tba)

    from repro.shard import shared_pool, shutdown_pool

    shutdown_pool()
    shared_pool(4)  # shard workers spawn outside the timed region
    # The compiled machine closes over a local program and does not
    # pickle, so the workers get the raw TBA and compile it themselves.
    decide_many(tba, words[:4], workers=4, backend="shards", **judge_kwargs())

    def pooled():
        t0 = time.perf_counter()
        serial = decide_many(acceptor, words, workers=1, seed=11, **judge_kwargs())
        t1 = time.perf_counter()
        shards = decide_many(
            tba, words, workers=4, seed=11, backend="shards", **judge_kwargs()
        )
        t2 = time.perf_counter()
        assert serial == shards  # bit-identical under fan-out
        return t1 - t0, t2 - t1

    try:
        serial_s, shards_s = once(pooled)
    finally:
        shutdown_pool()
    bench_record(
        mode="pool-vs-serial",
        words=N_WORDS,
        workers=4,
        serial_words_per_sec=round(N_WORDS / max(serial_s, 1e-9), 1),
        shards_words_per_sec=round(N_WORDS / max(shards_s, 1e-9), 1),
    )
    report.add(
        serial_s=round(serial_s, 4),
        shards_s=round(shards_s, 4),
        identical=True,
    )
