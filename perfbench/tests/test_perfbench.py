"""Checks on perfbench itself: reference verdicts, determinism, tracing.

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

import json
import os

import pytest

import workloads as wl
from layers import BATCH_SPAN, LayerTrace, install_wrappers, layer_metrics
from repro.obs import Instrumentation, hooks
from repro.stream import SessionMux
from repro.txn import offline_exact

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SEED = 3
HELD_OUT = 4


def small_fanin(seed):
    return wl.fanin_traffic(seed, n_sessions=80, per_session=24, batch=64)


def small_plan(seed):
    return wl.plan_traffic(seed, n_sessions=8, per_session=120, batch=64)


def events(traffic):
    return [e for batch in traffic.batches for e in batch]


@pytest.mark.parametrize("seed", [SEED, HELD_OUT])
def test_fanin_reference_matches_interpreted_scalar_mux(seed):
    traffic = small_fanin(seed)
    mux = SessionMux(wl.fanin_tba(), compiled=False)
    for name, sym, t in events(traffic):
        mux.ingest(name, sym, t)
    got = {n: wl.verdict_value(v) for n, v in mux.verdicts().items()}
    assert got == traffic.expected
    assert {wl.ACC, wl.REJ} <= set(got.values())


@pytest.mark.parametrize("seed", [SEED, HELD_OUT])
def test_plan_reference_matches_independent_query_muxes(seed):
    traffic = small_plan(seed)
    muxes = {q: SessionMux(query=query) for q, query in wl.plan_queries().items()}
    for name, sym, t in events(traffic):
        for mux in muxes.values():
            mux.ingest(name, sym, t)
    got = {
        name: {q: wl.verdict_value(mux.monitor(name).verdict) for q, mux in muxes.items()}
        for name in traffic.expected
    }
    assert got == traffic.expected
    assert any(wl.REJ in per_query.values() for per_query in got.values())


@pytest.mark.parametrize("seed", [SEED, HELD_OUT])
def test_decide_reference_matches_offline_exact(seed):
    batches = wl.txn_corpus(seed, n_batches=4, batch=8)
    for b in batches:
        exact = offline_exact(b.runs)
        got = {k: exact[k].value for k in b.expected}
        assert got == b.expected
    values = [v for b in batches for v in b.expected.values()]
    assert {"accept", "reject"} <= set(values)


def test_same_seed_same_inputs():
    for gen in (wl.fanin_traffic, wl.plan_traffic, wl.txn_corpus):
        assert wl.digest(gen(SEED)) == wl.digest(gen(SEED))
        assert wl.digest(gen(SEED)) != wl.digest(gen(HELD_OUT))


def test_stream_inputs_are_pinned():
    # The stream generators are pure benchmark code: their bytes never drift.
    assert wl.digest(small_fanin(SEED))[:16] == "314c558093b9cfb5"
    assert wl.digest(small_plan(SEED))[:16] == "331ecec4b64b9037"


def test_workload_sizes():
    fanin = wl.fanin_traffic(SEED)
    assert fanin.n_items == 2000 and all(len(b) == 512 for b in fanin.batches[:-1])
    plan = wl.plan_traffic(SEED)
    assert plan.n_items == 16 and len(plan.batches[0]) == 256
    b = wl.txn_corpus(SEED, n_batches=2)[0]
    assert len(b.runs) == 32 and b.n_words == 288


def _round(w, traced):
    """One round of ``w``; returns (verdicts, per-layer metrics or None)."""
    if not traced:
        rnd = w.open_round()
        out = [w.feed(rnd, batch) for batch in rnd.batches]
        return _verdicts(w, rnd, out), None
    inst = hooks.install(Instrumentation())
    trace = LayerTrace(inst.spans)
    install_wrappers(trace, w.name)
    try:
        rnd = w.open_round()
        out = []
        for batch in rnd.batches:
            trace.enter(BATCH_SPAN)
            out.append(w.feed(rnd, batch))
            trace.exit()
        verdicts = _verdicts(w, rnd, out)
    finally:
        trace.unwrap_all()
        hooks.uninstall()
    n = rnd.n_events
    extra = {"events": n, "batches": len(rnd.batches)}
    return verdicts, layer_metrics(w.name, trace, inst.registry, inst.spans.completed(), extra)


def _verdicts(w, rnd, out):
    if w.name == "decide":
        verdicts = {k: v.value for k, v in out[0].items()}
    else:
        verdicts = w.verdicts(rnd)
    w.close_round(rnd)
    return verdicts


SMALL = {
    "fanin": lambda: small_fanin(SEED),
    "plan-deep": lambda: small_plan(SEED),
    "fanin-sharded": lambda: small_fanin(SEED),
    "decide": lambda: wl.txn_corpus(SEED, n_batches=2, batch=32),
}


def test_traced_and_untraced_verdicts_identical_and_layers_complete():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        listed = {m["name"] for m in json.load(fh)["per_layer"]}
    measured = set()
    for name, cls in wl.WORKLOADS.items():
        w = cls(SMALL[name]())
        w.ctx = w.setup()
        try:
            plain, _ = _round(w, traced=False)
            w.rewind()
            traced, layer = _round(w, traced=True)
        finally:
            w.teardown(w.ctx)
        assert plain == traced, name
        measured |= set(layer)
    # What the run adds around the wrappers (plan, checkpoint, skew,
    # fan-out and overhead figures) is checked end to end below.
    assert listed - measured <= {
        "query.plan.build_s", "query.plan.configs", "query.plan.config_ratio",
        "stream.checkpoint.mux_s", "stream.checkpoint.bytes",
        "stream.checkpoint.restore_s", "stream.checkpoint.refused",
        "shard.skew", "engine.fanout_speedup", "trace.overhead",
    }
    assert measured <= listed


@pytest.mark.parametrize("workload", ["plan-deep", "decide"])
def test_traced_run_reports_every_layer_metric(workload):
    import run

    record = run.run(workload, SEED, seconds=1.0, traced=True)
    assert record["correct"] and record["failed"] == 0
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        listed = [m["name"] for m in json.load(fh)["per_layer"]]
    assert list(record["metrics"]) == listed
    assert record["metrics"]["trace.overhead"]["value"] > 0
    if workload == "plan-deep":
        assert record["metrics"]["stream.checkpoint.refused"]["value"] == 1
        assert record["metrics"]["query.plan.configs"]["value"] > 0
    else:
        assert record["metrics"]["engine.fanout_speedup"]["value"] > 0


def test_untraced_run_reports_every_end_to_end_metric():
    import run

    record = run.run("fanin", SEED, seconds=1.0, traced=False)
    assert record["correct"] and record["attempted"] >= 2000
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert list(record["metrics"]) == [m["name"] for m in spec["end_to_end"]]
    assert all(m["value"] > 0 for m in record["metrics"].values())
    assert {"cores", "cpu", "python", "numpy", "git"} <= set(record["env"])
    assert record["env"]["calibration_before_s"] > 0
