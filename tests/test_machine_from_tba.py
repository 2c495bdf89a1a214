"""Tests for the TBA → real-time algorithm compilation (§3.1.1 claim)."""

import copy
import pickle
import random
import sys
import threading

import pytest

from repro.automata import TimedBuchiAutomaton, TimedTransition
from repro.engine import Verdict, decide
from repro.engine.batch import compiled_tba
from repro.engine.faults import FailingAcceptor, FileFuse, InjectedFault
from repro.kernel import Le, gt
from repro.machine import (
    NondeterministicTBAError,
    RealTimeAlgorithm,
    TapeProtocolError,
    tba_to_algorithm,
)
from repro.machine.from_tba import zeno_unroll
from repro.machine.tape import ZENO_UNROLL, zeno_event_cap
from repro.obs import instrumented
from repro.spec.combinators import loop, rt_bound, seq
from repro.spec.compile import to_tba
from repro.spec.conformance import gen_word, kernel_report
from repro.stream import SessionMux
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

    def test_copies_keep_the_machines_own_attributes(self):
        # A copy or an unpickled machine (what a shard worker receives)
        # shares a cached compilation's program and table, but keeps the
        # name, space limit and unroll count set on this machine.
        machine = tba_to_algorithm(two_phase_tba())
        machine.name, machine.space_limit, machine.zeno_unroll = "metered", 3, 2
        word = TimedWord.lasso([("a", 1), ("b", 3)], [("a", 7)], shift=4)
        for twin in (copy.copy(machine), pickle.loads(pickle.dumps(machine))):
            assert twin is not machine
            assert (twin.name, twin.space_limit, twin.zeno_unroll) == ("metered", 3, 2)
            assert twin.decide(word, 40) == machine.decide(word, 40)
        cached = compiled_tba(two_phase_tba())
        assert copy.copy(cached) is not cached


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


def runs_by_mode(inst):
    runs = inst.registry.counter("machine.runs")
    return {
        mode: runs.labels(mode=mode).value for mode in ("table", "decide", "count_f")
    }


def phase_chain_tba():
    """Deterministic, compiled from a spec: ``a`` within 3, then ``b``
    1–4 later, forever; ``c`` is in the alphabet but never enabled."""
    spec = loop(seq(rt_bound("a", 0, 3), rt_bound("b", 1, 4)))
    return to_tba(spec, ("a", "b", "c"))


def nondeterministic_tba():
    """``two_phase_tba`` plus a second ``a`` edge out of ``fast``."""
    tba = two_phase_tba()
    return TimedBuchiAutomaton(
        tba.alphabet,
        tba.states,
        tba.initial,
        tba.transitions + [TimedTransition.make("fast", "slow", "a")],
        tba.clocks,
        tba.accepting,
    )


def assert_cells_consistent(table):
    """Every filled cell holds the row of what ``_step_configs`` makes
    of its row's set, in both layouts (the numpy one once a gather made
    it); unknown symbols lead to the trap."""
    tba, width = table.tba, table.gap_cap + 1
    filled = 0
    for r, members in enumerate(table.sets):
        assert table.set_index[members] == r
        cells = table.table_list[r]
        assert cells[-1] == [table.trap] * width
        if table.table is not None:
            assert table.table[r].tolist() == cells
        for s, symbol in enumerate(table.symbols):
            for gap, nxt in enumerate(cells[s]):
                if nxt >= 0:
                    filled += 1
                    assert table.sets[nxt] == frozenset(
                        tba._step_configs(members, symbol, gap)
                    )
    return filled


class TestSuccessorTable:
    """``lasso-exact`` on the on-demand successor table reports what the
    kernel replay does, and only judges what it may."""

    def test_every_source_carries_a_table(self):
        machine = tba_to_algorithm(bounded_gap_tba())
        table = machine.successor_table
        assert table.analysis is None and table.deterministic
        machine = tba_to_algorithm(nondeterministic_tba(), allow_nondeterministic=True)
        table = machine.successor_table
        assert table.analysis is None and not table.deterministic

    def test_symbol_outside_the_alphabet_rejects_without_a_cell(self):
        machine = tba_to_algorithm(bounded_gap_tba(2))
        table = machine.successor_table
        word = TimedWord.lasso([("a", 1), ("z", 2)], [("a", 3)], shift=1)
        report = decide(machine, word, strategy="lasso-exact", horizon=50)
        assert report.verdict is Verdict.REJECT and report.decided_at == 2
        assert report == kernel_report(machine, word, 50)
        # The a-step filled a cell; the z-step read the unknown-symbol
        # column into the trap and made no row.
        assert table.sets == [frozenset(), frozenset({("s", (0,))})]
        assert table.table_list[table.initial_index][table.sym_index["a"]][1] >= 0
        assert assert_cells_consistent(table) == 1

    def test_nondeterministic_source_replays_on_the_table(self):
        machine = tba_to_algorithm(nondeterministic_tba(), allow_nondeterministic=True)
        word = TimedWord.lasso([("a", 1), ("b", 3)], [("a", 7)], shift=4)
        with instrumented() as inst:
            report = decide(machine, word, strategy="lasso-exact", horizon=40)
        assert runs_by_mode(inst) == {"table": 1, "decide": 0, "count_f": 0}
        assert report == kernel_report(machine, word, 40)
        assert any(len(members) > 1 for members in machine.successor_table.sets)

    def test_frozen_lasso_stops_at_its_repeated_boundary_row(self):
        # 3 clocks: the derived bound is 1·2³ + 1 = 9 unrollings, but the
        # boundary row after the second unrolling is the first's.
        tba = TimedBuchiAutomaton(
            "a",
            ["s"],
            "s",
            [TimedTransition.make("s", "s", "a", resets=["x"], guard=Le("x", 2))],
            ["x", "y", "z"],
            ["s"],
        )
        machine = tba_to_algorithm(tba)
        assert machine.zeno_unroll == 9
        word = TimedWord.lasso([("a", 1)], [("a", 2)], shift=0)
        with instrumented() as inst:
            report = decide(machine, word, strategy="lasso-exact", horizon=50)
        (span,) = inst.spans.by_name("machine.table_replay")
        assert span.args["words"] == 1
        assert span.args["events"] == 1 + 2  # the prefix plus 2 loop iterations
        assert report.verdict is Verdict.ACCEPT and report.evidence["zeno"] == "region-exact"
        assert report == kernel_report(machine, word, 50)

    def test_nondeterministic_frozen_lasso_stops_at_its_repeat(self):
        machine = tba_to_algorithm(nondeterministic_tba(), allow_nondeterministic=True)
        assert machine.zeno_unroll == ZENO_UNROLL
        # Sets after each loop event: {fast 0, slow 2, slow 0}, then
        # {fast 0, slow 0} twice.
        word = TimedWord.lasso([("a", 1)], [("a", 3)], shift=0)
        with instrumented() as inst:
            report = decide(machine, word, strategy="lasso-exact", horizon=50)
        (span,) = inst.spans.by_name("machine.table_replay")
        assert span.args["events"] == 1 + 3
        assert report == kernel_report(machine, word, 50)

    def test_time_before_zero_raises_on_both_paths(self):
        machine = tba_to_algorithm(bounded_gap_tba(2))
        word = TimedWord.lasso([("a", -3)], [("a", -1)], 1)
        with pytest.raises(TapeProtocolError):
            decide(machine, word, strategy="lasso-exact", horizon=50)
        with pytest.raises(TapeProtocolError):
            machine.decide(word, horizon=50)

    def test_negative_horizon_never_starts_the_program(self):
        machine = tba_to_algorithm(bounded_gap_tba(2))
        word = TimedWord.lasso([], [("a", 1)], shift=2)
        report = decide(machine, word, strategy="lasso-exact", horizon=-1)
        assert report.space_peak == 0 and report.verdict is Verdict.UNDECIDED
        assert report == kernel_report(machine, word, -1)

    @pytest.mark.parametrize(
        "case",
        [
            "lasso",
            "finite",
            "functional",
            "nondeterministic",
            "hand-written",
            "space-limited",
            "f-rate",
        ],
    )
    def test_machine_runs_show_which_path_judged(self, case):
        machine = tba_to_algorithm(two_phase_tba())
        word = TimedWord.lasso([("a", 1), ("b", 3)], [("a", 7)], shift=4)
        strategy, want = "lasso-exact", "decide"
        if case == "lasso":
            want = "table"
        elif case == "finite":
            word = TimedWord.finite(word.take(5))
        elif case == "functional":
            word = TimedWord.functional(lambda i: ("a", i))
        elif case == "nondeterministic":
            want = "table"
            machine = tba_to_algorithm(nondeterministic_tba(), allow_nondeterministic=True)
        elif case == "hand-written":

            def program(ctx):
                while True:
                    yield ctx.input.read()

            machine = RealTimeAlgorithm(program, name="reader")
        elif case == "space-limited":
            machine.space_limit = 2  # metered by the kernel's working storage
        else:
            strategy, want = "f-rate", "count_f"
        with instrumented() as inst:
            decide(machine, word, strategy=strategy, horizon=40)
        expected = {"table": 0, "decide": 0, "count_f": 0}
        expected[want] = 1
        assert runs_by_mode(inst) == expected
        spans = inst.spans.by_name("machine.table_replay")
        assert len(spans) == expected["table"]

    def test_fault_wrapper_fires_under_lasso_exact(self, tmp_path):
        tba = two_phase_tba()
        wrapped = FailingAcceptor(compiled_tba(tba), FileFuse(1, path=str(tmp_path / "fuse")))
        assert wrapped.successor_table is None
        word = TimedWord.lasso([("a", 1), ("b", 3)], [("a", 7)], shift=4)
        with pytest.raises(InjectedFault):
            decide(wrapped, word, strategy="lasso-exact", horizon=40)
        # The fuse is spent: the wrapper now judges on the inner kernel.
        with instrumented() as inst:
            report = decide(wrapped, word, strategy="lasso-exact", horizon=40)
        assert runs_by_mode(inst)["decide"] == 1
        assert report == kernel_report(compiled_tba(tba), word, 40)

    def test_threads_sharing_one_machine_fill_consistent_cells(self):
        """Four threads judge on one machine and feed four muxes over one
        automaton while both tables are still making rows."""
        tba = phase_chain_tba()
        machine = tba_to_algorithm(tba)
        rng = random.Random(7)
        words = [gen_word(rng, tba, ("a", "b", "c")) for _ in range(120)]
        horizons = [rng.choice((-1, 0, 3, 9, 40)) for _ in words]
        feed = [(f"w{i}", s, t) for i, w in enumerate(words) for s, t in w.take(12)]
        muxes = [SessionMux(tba, late_policy="drop") for _ in range(4)]
        table = muxes[0]._tba_compiled
        assert all(mux._tba_compiled is table for mux in muxes)
        assert len(table.sets) == 2  # the trap and the initial row
        results = [None] * 4
        errors = []

        def judge(k):
            try:
                order = list(range(len(words)))
                random.Random(k).shuffle(order)
                results[k] = {
                    i: decide(machine, words[i], strategy="lasso-exact", horizon=horizons[i])
                    for i in order
                }
                step = 7 * (k + 1)
                for lo in range(0, len(feed), step):
                    muxes[k].ingest_batch(feed[lo : lo + step])
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=judge, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        for i, word in enumerate(words):
            kernel = kernel_report(machine, word, horizons[i])
            assert all(r[i] == kernel for r in results), (word, horizons[i])
        serial = SessionMux(tba, late_policy="drop", compiled=False)
        for event in feed:
            serial.ingest(*event)
        for mux in muxes:
            assert mux.verdicts() == serial.verdicts()
            assert mux.stats() == serial.stats()
        assert machine.successor_table.table is None  # never gathered
        assert assert_cells_consistent(machine.successor_table) > 0
        assert table.table is not None
        assert assert_cells_consistent(table) > 0
