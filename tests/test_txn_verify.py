"""Tests for repro.txn.verify — three verification paths, one story.

The acceptance corpus below is the PR's contract: ≥200 seeded runs
*including injected crashes*, judged offline-exact (region
mathematics), offline-batched through ``decide_many`` on both the
serial and shards backends, and online through compiled
:class:`SessionMux` monitors — verdict-identical everywhere.
"""

import importlib.util
import os
import sys

import pytest

from repro.engine import Verdict
from repro.engine.batch import compiled_tba, decide_many
from repro.obs import instrumented
from repro.spec.compile import to_tba
from repro.spec.conformance import kernel_report
from repro.stream import SessionMux, analysis_for
from repro.txn import (
    TxnConfig,
    atomicity_ok,
    corpus,
    corpus_stats,
    corpus_verdicts,
    cross_check,
    offline_batched,
    offline_exact,
    online_verdicts,
    run_workload,
    txn_verdicts,
)
from repro.txn.properties import properties_for, words_for
from repro.txn.verify import _batched_buckets
from repro.words import LassoBatch

CRASHY = TxnConfig(
    n_participants=2,
    d_lo=1,
    d_hi=2,
    abort_vote_rate=0.1,
    participant_crash_rate=0.2,
    coordinator_crash_rate=0.3,
    loss_rate=0.05,
)


def decide_corpus(seed):
    """The perfbench ``decide`` corpus of one seed: batches of 32 runs,
    one (protocol, crash rate) cell each."""
    path = os.path.join(os.path.dirname(__file__), "..", "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look their module up
    try:
        spec.loader.exec_module(workloads)
    finally:
        del sys.modules[spec.name]
    return workloads.txn_corpus(seed)


@pytest.fixture(scope="module")
def acceptance_corpus():
    # ≥200 runs spanning both protocols, same crashy config.
    return corpus("2pc", CRASHY, 100) + corpus("3pc", CRASHY, 100, base_seed=1000)


@pytest.fixture(scope="module")
def exact(acceptance_corpus):
    return offline_exact(acceptance_corpus)


class TestAcceptanceCorpus:
    def test_corpus_is_big_and_actually_faulty(self, acceptance_corpus):
        stats = corpus_stats(acceptance_corpus)
        assert stats["runs"] >= 200
        assert stats["crashes"] > 0
        assert stats["messages_lost"] > 0
        # Outcome diversity: the sweep exercises more than happy paths.
        assert len(stats["outcomes"]) >= 3

    def test_all_paths_agree(self, acceptance_corpus):
        result = cross_check(acceptance_corpus, backends=("serial", "shards"))
        assert result.ok, result.mismatches[:5]
        assert result.runs >= 200
        # exact+online over every key, both batched backends over the
        # deterministic keys.
        assert result.checks > 4 * len(acceptance_corpus)

    def test_online_matches_exact_per_key(self, acceptance_corpus, exact):
        online, stats = online_verdicts(acceptance_corpus)
        assert set(online) == set(exact)
        assert all(online[k] is exact[k] for k in exact)
        assert stats["sessions"] > 0
        assert stats["vectorized"] > 0  # the compiled batch path engaged

    def test_shards_matches_serial_per_key(self, acceptance_corpus):
        serial = offline_batched(acceptance_corpus, backend="serial")
        shards = offline_batched(acceptance_corpus, backend="shards", workers=2)
        assert set(serial) == set(shards)
        assert all(serial[k] is shards[k] for k in serial)

    def test_batched_reports_equal_the_kernel_oracle(self, acceptance_corpus):
        # The serial batches judge on the machines' successor tables;
        # every report must be the kernel replay's, field for field.
        judged = 0
        with instrumented() as inst:
            buckets = _batched_buckets(acceptance_corpus)
            reports = [
                decide_many(tba, words, horizon=horizon)
                for tba, horizon, _keys, words in buckets
            ]
        runs = inst.registry.counter("machine.runs")
        for (tba, horizon, _keys, words), got in zip(buckets, reports):
            machine = compiled_tba(tba)
            for i, report in enumerate(got):
                word = words[i]
                kernel = kernel_report(machine, word, horizon)
                kernel.evidence.update(seed=i, index=i)
                assert report == kernel, (tba, word)
                judged += 1
        assert judged > 4 * len(acceptance_corpus)
        assert runs.labels(mode="table").value == judged
        assert runs.labels(mode="decide").value == 0
        # One table pass per bucket, however many words it judges.
        spans = inst.spans.by_name("machine.table_replay")
        assert [s.args["words"] for s in spans] == [len(w) for _t, _h, _k, w in buckets]

    def test_offline_batched_traces_the_encode_beside_the_judging(self, acceptance_corpus):
        runs = acceptance_corpus[:20]
        with instrumented() as inst:
            offline_batched(runs)
        (encode,) = inst.spans.by_name("txn.encode")
        assert encode.args["runs"] == 20
        judging = inst.spans.by_name("engine.decide_many")
        assert judging and all(s.parent_seq == encode.parent_seq for s in judging)
        assert all(s.start_ns >= encode.end_ns for s in judging)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_buckets_decode_to_the_channel_words(self, seed):
        for batch in decide_corpus(seed):
            want = {}
            for i, run in enumerate(batch.runs):
                for name, prop in properties_for(run.cfg, run.protocol).items():
                    if prop.deterministic:
                        tba = to_tba(prop.spec, prop.alphabet)
                        bucket = want.setdefault(id(tba), (tba, run.report_at + 2, []))
                        for proc, word in words_for(run, prop, tail="frozen").items():
                            bucket[2].append(((i, name, proc), word))
            got = _batched_buckets(batch.runs)
            assert [(tba, h) for tba, h, _k, _w in got] == [
                (tba, h) for tba, h, _e in want.values()
            ]
            for (_tba, _h, keys, words), (_t, _h2, entries) in zip(got, want.values()):
                assert isinstance(words, LassoBatch)
                assert keys == [k for k, _w in entries]
                assert list(words) == [w for _k, w in entries]

    def test_every_verdict_is_decisive(self, exact):
        # Frozen/advancing tails close every word past its deadline, so
        # no path should ever be left UNDECIDED.
        assert all(v is not Verdict.UNDECIDED for v in exact.values())


class TestCombinedJudgements:
    def test_atomicity_matches_the_oracle(self, acceptance_corpus, exact):
        for i, run in enumerate(acceptance_corpus):
            tv = txn_verdicts(run, exact, i)
            assert tv["atomic"] == atomicity_ok(run), run.seed

    def test_blocked_runs_fail_blocking_freedom(self, acceptance_corpus, exact):
        blocked = [
            (i, r)
            for i, r in enumerate(acceptance_corpus)
            if r.outcome == "blocked"
        ]
        assert blocked, "corpus has no blocked run; widen the sweep"
        for i, run in blocked:
            assert not txn_verdicts(run, exact, i)["all_decided"]

    def test_uniform_outcomes_decide_every_survivor(
        self, acceptance_corpus, exact
    ):
        for i, run in enumerate(acceptance_corpus):
            if run.outcome in ("commit", "abort"):
                tv = txn_verdicts(run, exact, i)
                assert tv["all_decided"], run.seed

    def test_corpus_verdicts_aggregates(self, acceptance_corpus, exact):
        agg = corpus_verdicts(acceptance_corpus, exact)
        assert agg["runs"] == len(acceptance_corpus)
        assert 0 < agg["all_decided"] <= agg["runs"]
        assert agg["atomic"] == sum(
            1 for r in acceptance_corpus if atomicity_ok(r)
        )


class TestWorkload:
    def test_run_workload_with_monitors_and_backend(self):
        result = run_workload(
            "2pc", CRASHY, 10, monitors=True, offline_backend="serial"
        )
        assert result["runs"] == 10
        assert result["verdicts"]["runs"] == 10
        assert result["stream"]["sessions"] > 0
        assert result["offline"]["backend"] == "serial"
        assert result["offline"]["checks"] > 0


#: The configuration of ``benchmarks/bench_txn.py``'s sweep at crash
#: rate 0.4.
SWEEP = TxnConfig(
    n_participants=3,
    d_lo=1,
    d_hi=2,
    abort_vote_rate=0.05,
    participant_crash_rate=0.2,
    coordinator_crash_rate=0.4,
)


@pytest.mark.parametrize("protocol", ["2pc", "3pc"])
def test_decided_steps_on_a_mux_table(protocol):
    """``decided`` reaches thousands of configurations, yet its mux
    steps on a table holding only the rows the traffic reaches, with
    the interpreter's verdicts."""
    prop = properties_for(SWEEP, protocol)["decided"]
    tba = to_tba(prop.spec, prop.alphabet)
    assert len(analysis_for(tba).universe) > 2000
    runs = corpus(protocol, SWEEP, 16)
    table, _stats = online_verdicts(runs)
    interpreted, _stats = online_verdicts(runs, mux_kwargs={"compiled": False})
    assert table == interpreted
    assert {key[1] for key in table} >= {"decided"}
    # The mux shares the table through the analysis: the traffic above
    # made its rows.
    comp = SessionMux(tba)._tba_compiled
    assert comp is not None and 2 < len(comp.sets) < 100
