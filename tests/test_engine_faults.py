"""Tests for repro.engine.faults — schedules, message faults, the
``in_children_only`` parent-protection contract, and wrappers that
cross a pipe to shard workers."""

import os
import pickle

import pytest

from repro.engine import (
    CrashingAcceptor,
    DelayingAcceptor,
    FailingAcceptor,
    FaultSchedule,
    FileFuse,
    InjectedFault,
    MessageFaults,
    RetryPolicy,
    decide,
    decide_many,
    decide_many_resilient,
)
from repro.machine import RealTimeAlgorithm
from repro.shard import shutdown_pool
from repro.spec import eventually, rt_bound, spec_acceptor
from repro.words import TimedWord


def small_case():
    spec = eventually(rt_bound("a", 0, 3))
    acc = spec_acceptor(spec, ("a", "tick"))
    word = TimedWord.lasso([("a", 1)], [("tick", 5)], shift=1)
    return acc, word


class TestFaultSchedule:
    def test_deterministic_in_seed_and_key(self):
        a, b = FaultSchedule(7), FaultSchedule(7)
        keys = [("loss", "C", "P1", "vote", 0), ("x",), (1, 2, 3)]
        for key in keys:
            assert a.chance(0.5, *key) == b.chance(0.5, *key)
            assert a.pick(0, 10, *key) == b.pick(0, 10, *key)

    def test_order_free(self):
        s = FaultSchedule(3)
        first = s.chance(0.5, "k1"), s.chance(0.5, "k2")
        again = s.chance(0.5, "k2"), s.chance(0.5, "k1")
        assert first == (again[1], again[0])

    def test_seeds_differ(self):
        draws = {
            tuple(FaultSchedule(seed).chance(0.5, i) for i in range(16))
            for seed in range(8)
        }
        assert len(draws) > 1

    def test_chance_edges(self):
        s = FaultSchedule(0)
        assert not any(s.chance(0.0, i) for i in range(50))
        assert all(s.chance(1.0, i) for i in range(50))

    def test_pick_bounds_and_coverage(self):
        s = FaultSchedule(1)
        values = {s.pick(2, 5, i) for i in range(200)}
        assert values == {2, 3, 4, 5}
        assert s.pick(4, 4, "only") == 4
        with pytest.raises(ValueError):
            s.pick(5, 4, "empty")

    def test_rate_is_roughly_honoured(self):
        s = FaultSchedule(11)
        hits = sum(1 for i in range(2000) if s.chance(0.25, i))
        assert 0.18 < hits / 2000 < 0.32


class TestMessageFaults:
    def test_validation(self):
        for bad in (
            dict(loss_rate=1.5),
            dict(delay_rate=-0.1),
            dict(extra_delay=(3, 1)),
            dict(extra_delay=(-1, 2)),
        ):
            with pytest.raises(ValueError):
                MessageFaults(0, **bad)

    def test_apply_is_deterministic(self):
        kw = dict(loss_rate=0.3, delay_rate=0.3, extra_delay=(1, 4))
        a, b = MessageFaults(5, **kw), MessageFaults(5, **kw)
        msgs = [("C", f"P{i}", "vote", 2) for i in range(50)]
        assert [a.apply(*m) for m in msgs] == [b.apply(*m) for m in msgs]

    def test_loss_and_delay_counters(self):
        mf = MessageFaults(2, loss_rate=0.4, delay_rate=0.4, extra_delay=(2, 2))
        outcomes = [mf.apply("C", f"P{i}", "decision", 3) for i in range(100)]
        lost = [o for o in outcomes if o is None]
        delayed = [o for o in outcomes if o is not None and o > 3]
        assert mf.lost == len(lost) > 0
        assert mf.delayed == len(delayed) > 0
        assert all(o == 5 for o in delayed)  # base 3 + fixed extra 2

    def test_match_restricts_faults(self):
        mf = MessageFaults(
            0, loss_rate=1.0, match=lambda src, dst, kind: kind == "vote"
        )
        assert mf.apply("C", "P1", "prepare", 2) == 2
        assert mf.apply("P1", "C", "vote", 2) is None

    def test_zero_rates_pass_everything_through(self):
        mf = MessageFaults(9)
        assert all(mf.apply("C", "P1", "k", d) == d for d in range(5))
        assert mf.lost == 0 and mf.delayed == 0


class TestParentProtectionContract:
    """``in_children_only=True`` must keep the constructing process
    unharmed — for the new message injector and (regression) for the
    crash/fail wrappers it inherits the contract from."""

    def test_message_faults_spare_the_parent(self):
        mf = MessageFaults(0, loss_rate=1.0, delay_rate=1.0, in_children_only=True)
        assert mf.apply("C", "P1", "vote", 2) == 2
        assert mf.lost == 0 and mf.delayed == 0

    def test_message_faults_fire_in_a_forked_child(self):
        mf = MessageFaults(0, loss_rate=1.0, in_children_only=True)
        r, w = os.pipe()
        pid = os.fork()
        if pid == 0:  # child: the same object now fires
            os.close(r)
            verdict = b"lost" if mf.apply("C", "P1", "vote", 2) is None else b"kept"
            os.write(w, verdict)
            os._exit(0)
        os.close(w)
        try:
            assert os.read(r, 4) == b"lost"
        finally:
            os.close(r)
            os.waitpid(pid, 0)
        # ... while the parent stays protected before and after.
        assert mf.apply("C", "P1", "vote", 2) == 2

    def test_crashing_acceptor_spares_the_parent(self):
        acc, word = small_case()
        fuse = FileFuse(shots=5)
        wrapper = CrashingAcceptor(acc, fuse, in_children_only=True)
        report = wrapper.decide(word)  # survives: we are the parent
        assert report.verdict is decide(acc, word).verdict
        assert fuse.spent == 0  # the fuse was not even consulted

    def test_failing_acceptor_spares_the_parent_when_asked(self):
        acc, word = small_case()
        protected = FailingAcceptor(acc, FileFuse(shots=5), in_children_only=True)
        assert protected.decide(word).verdict is decide(acc, word).verdict
        # Default (in_children_only=False) fires anywhere — including here.
        firing = FailingAcceptor(acc, FileFuse(shots=1))
        with pytest.raises(InjectedFault):
            firing.decide(word)

    def test_failing_acceptor_fires_in_a_forked_child(self):
        acc, word = small_case()
        wrapper = FailingAcceptor(acc, FileFuse(shots=1), in_children_only=True)
        r, w = os.pipe()
        pid = os.fork()
        if pid == 0:
            os.close(r)
            try:
                wrapper.decide(word)
                os.write(w, b"calm")
            except InjectedFault:
                os.write(w, b"boom")
            os._exit(0)
        os.close(w)
        try:
            assert os.read(r, 4) == b"boom"
        finally:
            os.close(r)
            os.waitpid(pid, 0)


def first_is_a(ctx):
    """Module-level, so the machine pickles into shard workers."""
    sym, _t = yield ctx.input.read()
    if sym == "a":
        ctx.accept()
    else:
        ctx.reject()


def pipe_case():
    words = [
        TimedWord.lasso([(sym, 1)], [("tick", 5)], shift=1)
        for sym in ("a", "b") * 3
    ]
    return RealTimeAlgorithm(first_is_a), words


WRAPPERS = {
    "crashing": lambda acc: CrashingAcceptor(acc, FileFuse(shots=0)),
    "failing": lambda acc: FailingAcceptor(acc, FileFuse(shots=0)),
    "delaying": lambda acc: DelayingAcceptor(acc, 0.0),
}


class TestWrappersCrossAPipe:
    """Shard workers judge an unpickled copy of the wrapper."""

    @pytest.mark.parametrize("kind", sorted(WRAPPERS))
    def test_pickle_round_trip(self, kind):
        acc, words = pipe_case()
        copy = pickle.loads(pickle.dumps(WRAPPERS[kind](acc)))
        assert [copy.decide(w) for w in words] == [acc.decide(w) for w in words]

    def test_one_crash_over_shards_kills_one_worker(self, tmp_path):
        acc, words = pipe_case()
        crashy = CrashingAcceptor(acc, FileFuse(shots=1, path=str(tmp_path / "f")))
        shutdown_pool()
        try:
            out = decide_many_resilient(
                crashy, words, workers=2, backend="shards",
                retry=RetryPolicy(backoff_base=0.005),
            )
        finally:
            shutdown_pool()
        assert out.mode == "shards"
        assert out.worker_deaths == 1
        assert out.reports == decide_many(acc, words)
