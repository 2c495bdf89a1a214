"""Tests for the TBA → real-time algorithm compilation (§3.1.1 claim)."""

import pytest

from repro.automata import TimedBuchiAutomaton, TimedTransition
from repro.engine import Verdict, decide
from repro.kernel import Le, gt
from repro.machine import NondeterministicTBAError, tba_to_algorithm
from repro.machine.from_tba import zeno_unroll
from repro.machine.tape import ZENO_UNROLL, zeno_event_cap
from repro.words import TimedWord


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


def two_phase_tba():
    """Deterministic: accept iff eventually gaps exceed 2 forever."""
    return TimedBuchiAutomaton(
        "ab",
        ["fast", "slow"],
        "fast",
        [
            TimedTransition.make("fast", "fast", "a", resets=["x"], guard=Le("x", 2)),
            TimedTransition.make("fast", "slow", "b", resets=["x"]),
            TimedTransition.make("slow", "slow", "a", resets=["x"], guard=gt("x", 2)),
        ],
        ["x"],
        ["slow"],
    )


def toggle_tba():
    """Deterministic, 2 states and 1 clock, so its zeno bound is
    2·2¹ + 1 = 5.  An ``a`` moves p to q (resetting x) and q back to p;
    a ``b`` moves p to q, and q back to p only while x > 0 (resetting
    it)."""
    return TimedBuchiAutomaton(
        "ab",
        ["p", "q"],
        "p",
        [
            TimedTransition.make("p", "q", "a", resets=["x"]),
            TimedTransition.make("q", "p", "a"),
            TimedTransition.make("p", "q", "b"),
            TimedTransition.make("q", "p", "b", resets=["x"], guard=gt("x", 0)),
        ],
        ["x"],
        ["p"],
    )


def judged(report):
    return (report.verdict, report.f_count, report.decided_at, report.space_peak)


class TestCompilation:
    def test_nondeterministic_rejected_by_default(self):
        tba = TimedBuchiAutomaton(
            "a",
            ["s", "t"],
            "s",
            [
                TimedTransition.make("s", "s", "a"),
                TimedTransition.make("s", "t", "a"),
            ],
            [],
            ["t"],
        )
        with pytest.raises(NondeterministicTBAError):
            tba_to_algorithm(tba)
        # but allowed explicitly
        tba_to_algorithm(tba, allow_nondeterministic=True)


class TestAgreementWithAutomatonJudge:
    """On lasso words, the compiled machine's f-rate verdict equals the
    region-graph decision procedure."""

    @pytest.mark.parametrize("shift,expected", [(2, True), (5, False)])
    def test_bounded_gap_language(self, shift, expected):
        tba = bounded_gap_tba(2)
        word = TimedWord.lasso([], [("a", 1)], shift=shift)
        assert tba.accepts_lasso(word) is expected
        machine = tba_to_algorithm(tba)
        if expected:
            report = machine.count_f(word, horizon=100)
            # accepting configs recur: f's keep coming
            assert report.f_count >= 20
        else:
            report = machine.decide(word, horizon=100)
            assert not report.accepted  # the run died → s_r

    def test_two_phase_language(self):
        tba = two_phase_tba()
        good = TimedWord.lasso([("a", 1), ("a", 2), ("b", 3)], [("a", 7)], shift=4)
        bad = TimedWord.lasso([], [("a", 1)], shift=1)
        assert tba.accepts_lasso(good)
        assert not tba.accepts_lasso(bad)
        machine_good = tba_to_algorithm(tba).count_f(good, horizon=200)
        assert machine_good.f_count >= 10
        machine_bad = tba_to_algorithm(tba).count_f(bad, horizon=200)
        assert machine_bad.f_count == 0

    def test_dead_run_enters_reject(self):
        tba = bounded_gap_tba(1)
        slow = TimedWord.lasso([], [("a", 3)], shift=3)
        report = tba_to_algorithm(tba).decide(slow, horizon=100)
        assert not report.accepted
        assert report.decided_at is not None

    def test_storage_holds_clock_valuations(self):
        """The §3.1.1 point: clocks live in working storage."""
        tba = bounded_gap_tba(2)
        machine = tba_to_algorithm(tba)
        report = machine.count_f(
            TimedWord.lasso([], [("a", 1)], shift=2), horizon=50
        )
        assert report.space_peak >= 2  # configs + prev_t cells


class TestZenoUnroll:
    """The frozen-time lasso bound a deterministic machine carries."""

    def test_bound_is_derived_from_the_automaton(self):
        tba = toggle_tba()
        machine = tba_to_algorithm(tba)
        assert zeno_unroll(tba) == machine.zeno_unroll == 5
        word = TimedWord.lasso([("a", 0)], [("b", 1), ("b", 1)], shift=0)
        assert zeno_event_cap(word, machine) == 1 + 5 * 2
        assert zeno_event_cap(word) == 1 + ZENO_UNROLL * 2

    # ``b`` at t=1 forever: (q,1) (p,0) (q,0), and the fourth unrolling
    # finds x == 0 and kills the run.  ``a`` at t=2 forever: (q,0) (p,0)
    # (q,0) …, first accepting at the second unrolling, never dies.
    @pytest.mark.parametrize(
        "loop, verdict, short",
        [([("b", 1)], Verdict.REJECT, 3), ([("a", 2)], Verdict.UNDECIDED, 1)],
        ids=["dies-in-loop", "survives"],
    )
    def test_cut_reports_what_the_fixed_replay_does(self, loop, verdict, short):
        machine = tba_to_algorithm(toggle_tba())
        word = TimedWord.lasso([], loop, shift=0)
        full = TimedWord.finite(word.take(ZENO_UNROLL * len(loop)))
        cut = machine.decide(word, horizon=50)
        assert judged(cut) == judged(machine.decide(full, horizon=50))
        assert cut.verdict is verdict and cut.f_count == 1
        # The words need their unrollings: cut any shorter and the
        # report changes (the death, or the f, is not seen yet).
        machine.zeno_unroll = short
        assert judged(machine.decide(word, horizon=50)) != judged(cut)

    def test_judges_agree_on_the_cut(self):
        machine = tba_to_algorithm(toggle_tba())
        for loop, truth in (([("b", 1)], False), ([("a", 2)], True)):
            word = TimedWord.lasso([], loop, shift=0)
            assert machine.source_tba.accepts_lasso(word) is truth
            batch = decide(machine, word, strategy="lasso-exact", horizon=50)
            online = decide(machine, word, strategy="online-incremental", horizon=50)
            assert batch.accepted is online.accepted is truth
            assert judged(batch) == judged(online)
            assert online.evidence["events_ingested"] <= 5 * len(loop)

    def test_nondeterministic_tba_keeps_the_ceiling(self):
        tba = TimedBuchiAutomaton(
            "a",
            ["s", "t"],
            "s",
            [TimedTransition.make("s", "s", "a"), TimedTransition.make("s", "t", "a")],
            [],
            ["t"],
        )
        machine = tba_to_algorithm(tba, allow_nondeterministic=True)
        assert zeno_unroll(tba) == machine.zeno_unroll == ZENO_UNROLL
        word = TimedWord.lasso([], [("a", 0)], shift=0)
        assert zeno_event_cap(word, machine) == ZENO_UNROLL

    def test_large_deterministic_tba_keeps_the_ceiling(self):
        # 2 states, 5 clocks: N + 1 = 2·2⁵ + 1 = 65 > ZENO_UNROLL.
        clocks = ["x1", "x2", "x3", "x4", "x5"]
        tba = TimedBuchiAutomaton(
            "a",
            ["s", "t"],
            "s",
            [
                TimedTransition.make("s", "t", "a", resets=clocks[:2]),
                TimedTransition.make("t", "s", "a", guard=Le("x5", 3)),
            ],
            clocks,
            ["t"],
        )
        assert zeno_unroll(tba) == tba_to_algorithm(tba).zeno_unroll == ZENO_UNROLL
