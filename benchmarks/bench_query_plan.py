"""Multi-query ablation: one fused QueryPlan vs k per-query muxes.

The tentpole claim behind :class:`repro.query.plan.QueryPlan` is a
*stepping* one: k phase-chain queries over the same streams cost one
shared fused-table lookup per event instead of k separate automaton
steps.  This bench measures exactly that, on the workload the plan
exists for — a 500-session :class:`~repro.stream.session.SessionMux`
under chunked batch ingestion, with five request/response queries that
share their ``req``-then-``rsp`` chain and differ only in the response
window:

* ``per-query`` — the baseline: k independent muxes (one per query,
  each on its own compiled automaton) all fed every chunk;
* ``planned`` — one mux over the fused plan; per-session
  ``query_verdicts()`` deliver the same k verdict streams.

Both paths run the identical event sequence and the recorded rows
carry a cross-check (``mismatches`` must be 0: the fused per-channel
verdicts equal the independent monitors' headline verdicts for every
session).  The recorded ``speedup`` is the per-query/planned wall-time
ratio; the plan's sharing ledger (``plan_configs``, the fused rows the
traffic made, vs ``sum_per_query_configs``, the components'
configurations) rides along next to the win it buys.  Rows land in the ``--bench-json``
capture (``BENCH_query.json`` in the repo root; the query-smoke CI job
asserts a fresh quick-sized speedup).  Set ``REPRO_BENCH_QUICK=1`` for
CI-sized parameters.
"""

import time

import pytest
from conftest import quick_sized

from repro.query import Q, QueryPlan
from repro.stream import SessionMux, StreamVerdict

#: Response windows — one query per entry, all sharing the req→rsp chain.
WINDOWS = (4, 5, 6, 7, 8)
QUERIES = {
    f"rsp-within-{w}": Q.event("req").within(2).then("rsp").within(w).repeat()
    for w in WINDOWS
}
N_SESSIONS = quick_sized(500, 100)
ROUNDS = quick_sized(20, 6)
#: Chronons between rounds (req at t, rsp at t+1, next req at t+3 — the
#: rhythm keeps every query's obligation alive, so neither path gets to
#: coast on absorbed-rejection freezes).
PERIOD = 3

PLAN = QueryPlan(QUERIES)
TBAS = {name: q.tba() for name, q in QUERIES.items()}


def chunks():
    """ROUNDS chunks of (name, symbol, t) events, one req/rsp pair per
    session per round — the chunked-batch shape ``ingest_batch`` waves
    across sessions."""
    out = []
    for r in range(ROUNDS):
        t = PERIOD * r
        batch = []
        for s in range(N_SESSIONS):
            name = f"s{s}"
            batch.append((name, "req", t))
            batch.append((name, "rsp", t + 1))
        out.append(batch)
    return out


CHUNKS = chunks()
N_EVENTS = sum(len(b) for b in CHUNKS)


def run_planned():
    mux = SessionMux(plan=PLAN)
    for batch in CHUNKS:
        mux.ingest_batch(batch)
    return mux


def run_per_query():
    muxes = {name: SessionMux(tba) for name, tba in TBAS.items()}
    for batch in CHUNKS:
        for mux in muxes.values():
            mux.ingest_batch(batch)
    return muxes


def _mismatches(planned_mux, per_query_muxes) -> int:
    """Sessions whose fused per-channel verdicts differ from the
    independent monitors' — the ablation's built-in differential."""
    bad = 0
    for s in range(N_SESSIONS):
        name = f"s{s}"
        fused = planned_mux.monitor(name).query_verdicts()
        single = {
            q: mux.monitor(name).verdict for q, mux in per_query_muxes.items()
        }
        if fused != single:
            bad += 1
    return bad


def test_per_query_baseline(benchmark, report, bench_record):
    """k independent muxes, every chunk fed to each — k steps/event."""
    muxes = benchmark(run_per_query)
    for mux in muxes.values():
        assert mux.stats()["active"] == N_SESSIONS
    assert muxes[f"rsp-within-{WINDOWS[0]}"].monitor("s0").verdict is (
        StreamVerdict.ACCEPTING
    )
    eps = round(
        N_EVENTS * len(QUERIES) / max(benchmark.stats.stats.mean, 1e-9), 1
    )
    bench_record(
        mode="per-query",
        queries=len(QUERIES),
        sessions=N_SESSIONS,
        events=N_EVENTS,
        monitor_events=N_EVENTS * len(QUERIES),
        events_per_sec=eps,
    )
    report.add(mode="per-query", sessions=N_SESSIONS, eps=eps)


def test_planned_fused(benchmark, report, bench_record):
    """One fused plan mux — one shared table lookup per event."""
    if PLAN.compiled is None:
        pytest.skip("compiled stepping disabled (REPRO_STREAM_COMPILED=0)")
    mux = benchmark(run_planned)
    assert mux.stats()["active"] == N_SESSIONS
    verdicts = mux.monitor("s0").query_verdicts()
    assert set(verdicts) == set(QUERIES)
    assert all(v is StreamVerdict.ACCEPTING for v in verdicts.values())
    eps = round(N_EVENTS / max(benchmark.stats.stats.mean, 1e-9), 1)
    stats = PLAN.stats()
    bench_record(
        mode="planned",
        queries=len(QUERIES),
        sessions=N_SESSIONS,
        events=N_EVENTS,
        events_per_sec=eps,
        plan_configs=stats["plan_configs"],
        sum_per_query_configs=stats["sum_per_query_configs"],
        config_ratio=round(stats["config_ratio"], 3),
    )
    report.add(mode="planned", sessions=N_SESSIONS, eps=eps)


def test_ablation_speedup(benchmark, report, bench_record):
    """The committed claim: fused plan ≥ 2x the per-query baseline on
    the 500-session workload, with a built-in verdict cross-check."""
    if PLAN.compiled is None:
        pytest.skip("compiled stepping disabled (REPRO_STREAM_COMPILED=0)")
    # Warm both paths (shared artifacts, session-table allocation) and
    # cross-check the verdicts before timing anything.
    planned_mux = run_planned()
    per_query_muxes = run_per_query()
    mismatches = _mismatches(planned_mux, per_query_muxes)
    assert mismatches == 0

    benchmark(run_planned)
    planned_s = benchmark.stats.stats.mean
    reps = 3
    t0 = time.perf_counter()
    for _ in range(reps):
        run_per_query()
    per_query_s = (time.perf_counter() - t0) / reps
    speedup = per_query_s / max(planned_s, 1e-9)
    bench_record(
        mode="ablation",
        queries=len(QUERIES),
        sessions=N_SESSIONS,
        events=N_EVENTS,
        planned_s=round(planned_s, 6),
        per_query_s=round(per_query_s, 6),
        speedup=round(speedup, 2),
        mismatches=mismatches,
    )
    report.add(
        mode="ablation", speedup=round(speedup, 2), mismatches=mismatches
    )
    # A loose floor for CI noise; the committed full-size run shows ≥2x.
    assert speedup >= 1.2
