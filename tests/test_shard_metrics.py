"""Cross-process metric merging regression tests.

Metrics recorded inside a worker process die with it unless they are
shipped back: the parent registry would only ever see the serial
path's counts.  These tests pin the fix — for every backend, the
parent-visible counters match what a serial run of the same batch
records — plus the shard runtime's own ``shard.*`` inventory.
"""

import pytest

from repro.automata import TimedBuchiAutomaton, TimedTransition
from repro.engine import decide_many, decide_many_resilient
from repro.kernel import Le
from repro.obs import instrumented
from repro.shard import ShardRouter, shutdown_pool
from repro.words import TimedWord


@pytest.fixture(autouse=True)
def fresh_pool():
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


def judged(inst, strategy="lasso-exact"):
    return inst.registry.counter("engine.words_judged").labels(
        strategy=strategy
    ).value


def run_and_snapshot(backend, n=120, **kwargs):
    tba, words = bounded_gap_tba(), make_words(n)
    with instrumented() as inst:
        decide_many(tba, words, horizon=200, backend=backend, **kwargs)
    return inst


class TestBackendMetricParity:
    """Parent-visible counts must not depend on where the work ran."""

    def test_shard_workers_ship_their_counts(self):
        serial = run_and_snapshot("serial")
        shards = run_and_snapshot("shards", workers=2)
        assert judged(shards) == judged(serial) == 120

    def test_resilient_children_ship_their_counts(self):
        tba, words = bounded_gap_tba(), make_words(120)
        with instrumented() as serial:
            decide_many_resilient(tba, words, horizon=200, backend="serial")
        with instrumented() as shards:
            out = decide_many_resilient(
                tba, words, horizon=200, workers=2, backend="shards"
            )
        assert out.mode == "shards"
        assert judged(shards) == judged(serial) == 120


def stream_traffic(sessions=12, events=400):
    out = []
    for i in range(events):
        out.append((f"c-{i % sessions}", "a", i // sessions + 1))
    return out


class TestShardRouterMetrics:
    def test_worker_stream_counts_merge_into_parent(self):
        tba = bounded_gap_tba()
        events = stream_traffic()
        with instrumented() as ref_inst:
            from repro.stream import SessionMux

            mux = SessionMux(tba)
            for e in events:
                mux.ingest(*e)
        ref_ingested = (
            ref_inst.registry.counter("stream.events_ingested")
            .labels(outcome="ok")
            .value
        )
        assert ref_ingested == 400
        with instrumented() as inst:
            with ShardRouter(tba, n_shards=3, batch_events=32) as router:
                router.ingest_batch(events)
                merged = router.sync_metrics()
        assert merged > 0
        assert (
            inst.registry.counter("stream.events_ingested")
            .labels(outcome="ok")
            .value
            == ref_ingested
        )

    def test_sync_metrics_never_double_counts(self):
        tba = bounded_gap_tba()
        with instrumented() as inst:
            with ShardRouter(tba, n_shards=2, batch_events=32) as router:
                router.ingest_batch(stream_traffic())
                ingested = inst.registry.counter(
                    "stream.events_ingested"
                ).labels(outcome="ok")
                router.sync_metrics()
                first = ingested.value
                router.sync_metrics()  # no new work between pulls
                second = ingested.value
        assert first == second == 400

    def test_shard_inventory_series_exist(self):
        tba = bounded_gap_tba()
        with instrumented() as inst:
            with ShardRouter(
                tba, n_shards=3, batch_events=16, checkpoint_every=100
            ) as router:
                router.ingest_batch(stream_traffic(events=600))
                router.sync_metrics()
                victim = router.shard_ids[0]
                router.crash(victim)
                router.recover(victim)
                router.rebalance(2)
        reg = inst.registry
        assert reg.counter("shard.worker_frames").labels(shard="s1").value > 0
        checkpoints = reg.counter("shard.checkpoints")
        assert sum(c.value for c in checkpoints.children()) > 0
        assert reg.counter("shard.recoveries").labels(mode="respawn").value == 1
        assert reg.get("shard.recovery_latency").labels().count == 1
        assert (
            reg.counter("shard.placement_moves")
            .labels(cause="rebalance")
            .value
            > 0
        )
        assert reg.get("shard.batch_size").labels().count > 0
        assert reg.get("shard.queue_depth") is not None
        assert reg.get("shard.worker_sessions") is not None
