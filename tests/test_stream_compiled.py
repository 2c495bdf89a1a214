"""Differential suite: compiled TBA stepping vs the interpreter.

The compiled path (`src/repro/stream/compiled.py`) is only allowed to
exist because it is verdict-identical to the interpreted one.  These
tests pin that, adversarially: random timed words (including foreign
symbols and guard violations) through both `TBAMonitor` paths event by
event, checkpoints taken mid-stream and restored across paths, the
bulk `ingest_many` scan against the scalar loop, the mux's vectorized
`ingest_batch` against scalar mux ingestion, sets that become rows
only when a snapshot names them, the deterministic lasso walk against
`TimedBuchiAutomaton.accepts_lasso`, every fallback gate, and the
one-analysis-build / one-compile-per-language cache invariants.

The CI stream-smoke job runs this file twice — compiled path active
and with ``REPRO_STREAM_COMPILED=0`` — so the fallback really is the
same runtime, not a separate code path rotting in the dark.
"""

import random

import pytest

from repro.automata import TimedBuchiAutomaton, TimedTransition
from repro.engine import clear_caches
from repro.kernel import Le
from repro.machine import tba_to_algorithm
from repro.obs import install, uninstall
from repro.stream import (
    CompiledTBA,
    SessionMux,
    StreamVerdict,
    TBAAnalysis,
    TBAMonitor,
    analysis_for,
    checkpoint,
    checkpoint_mux,
    compilation_enabled,
    compiled_for,
    restore,
    restore_mux,
)
from repro.stream import compiled as compiled_mod
from repro.stream.checkpoint import extract_sessions

from test_stream_monitor import TBA_FAMILY, alternating_tba, bounded_gap_tba, random_lasso

needs_compiled = pytest.mark.skipif(
    not compilation_enabled(),
    reason="compiled stepping disabled (REPRO_STREAM_COMPILED=0)",
)


def nondet_tba():
    """Nondeterministic TBA: on 'a' state s may stay or move to t."""
    return TimedBuchiAutomaton(
        "ab",
        ["s", "t", "u"],
        "s",
        [
            TimedTransition.make("s", "s", "a", resets=["x"], guard=Le("x", 3)),
            TimedTransition.make("s", "t", "a", resets=[], guard=Le("x", 3)),
            TimedTransition.make("t", "u", "b", resets=["x"], guard=Le("x", 5)),
            TimedTransition.make("u", "u", "b", resets=["x"], guard=Le("x", 2)),
            TimedTransition.make("u", "s", "a", resets=["x"], guard=Le("x", 2)),
        ],
        ["x"],
        ["u"],
    )


CORPUS = TBA_FAMILY + [nondet_tba()]

#: A nondeterministic query (``|`` is automaton union): 51
#: configurations, 56 reachable configuration sets.
ALT_QUERY = "repeat(a within 3) | repeat(b within 4)"


def random_stream(rng, tba, n, foreign=True):
    """A monotone random event stream, with occasional foreign symbols."""
    symbols = sorted(tba.alphabet)
    if foreign:
        symbols = symbols + ["?not-in-alphabet"]
    t = 0
    out = []
    for _ in range(n):
        t += rng.randint(0, 4)
        out.append((rng.choice(symbols), t))
    return out


def monitor_state(m):
    """Everything observable about a monitor that must agree across paths."""
    return (
        m.verdict,
        m.configs,
        m.prev_t,
        m.max_seen,
        m.events_ingested,
        m.events_released,
        m.late_events,
        m.accept_visits,
        m.verdict_flips,
        m._green_locked,
        m._seq,
    )


# -- event-by-event differential -------------------------------------------

class TestDifferentialStepping:
    @needs_compiled
    @pytest.mark.parametrize("ti", range(len(CORPUS)))
    def test_random_streams_verdict_identical(self, ti):
        tba = CORPUS[ti]
        analysis = analysis_for(tba)
        assert compiled_for(analysis) is not None
        for seed in range(20):
            rng = random.Random(7000 + 31 * ti + seed)
            interp = TBAMonitor(tba, analysis=analysis, compiled=False)
            comp = TBAMonitor(tba, analysis=analysis, compiled=True)
            assert not interp.compiled and comp.compiled
            for symbol, t in random_stream(rng, tba, 60):
                vi = interp.ingest(symbol, t)
                vc = comp.ingest(symbol, t)
                assert vi is vc, (ti, seed, symbol, t)
                assert interp.configs == comp.configs, (ti, seed, symbol, t)
            assert monitor_state(interp) == monitor_state(comp)

    @needs_compiled
    @pytest.mark.parametrize("ti", range(len(CORPUS)))
    def test_absorbing_rejection_early_stop(self, ti):
        """Once REJECTED both paths freeze run state and stay REJECTED."""
        tba = CORPUS[ti]
        analysis = analysis_for(tba)
        interp = TBAMonitor(tba, analysis=analysis, compiled=False)
        comp = TBAMonitor(tba, analysis=analysis, compiled=True)
        for m in (interp, comp):
            m.ingest("?kill", 1)  # foreign symbol murders every run
            assert m.verdict is StreamVerdict.REJECTED and m.absorbed
            frozen_prev_t = m.prev_t
            for t in (2, 5, 9):
                assert m.ingest("a", t) is StreamVerdict.REJECTED
            assert m.prev_t == frozen_prev_t  # run state frozen
            assert m.max_seen == 9  # but the watermark still advances
        assert monitor_state(interp) == monitor_state(comp)

    @needs_compiled
    @pytest.mark.parametrize("ti", range(len(CORPUS)))
    def test_checkpoint_restore_mid_stream_across_paths(self, ti):
        """A snapshot taken on either path resumes on either path."""
        tba = CORPUS[ti]
        analysis = analysis_for(tba)
        rng = random.Random(4200 + ti)
        events = random_stream(rng, tba, 40)
        half, rest = events[:20], events[20:]
        interp = TBAMonitor(tba, analysis=analysis, compiled=False)
        comp = TBAMonitor(tba, analysis=analysis, compiled=True)
        for symbol, t in half:
            interp.ingest(symbol, t)
            comp.ingest(symbol, t)
        resumed = [
            restore(checkpoint(comp), tba=tba, analysis=analysis),
            restore(checkpoint(interp), tba=tba, analysis=analysis),
        ]
        assert all(r.configs == comp.configs for r in resumed)
        for symbol, t in rest:
            verdicts = {m.ingest(symbol, t) for m in [interp, comp] + resumed}
            assert len(verdicts) == 1, (ti, symbol, t)
        for r in resumed:
            assert monitor_state(r) == monitor_state(comp)

    @needs_compiled
    @pytest.mark.parametrize("kind", ["two-configurations", "foreign"])
    def test_set_that_is_not_a_row_becomes_one(self, kind):
        """Assigning configs a set no traffic has reached makes it a
        row: the monitor stays compiled and on its mux's table, and
        judges as an interpreted monitor given the same set."""
        tba = alternating_tba()
        if kind == "foreign":  # a snapshot of another automaton
            value = frozenset({("no-such-state", (0,))})
        else:  # two reachable configurations: no deterministic run's set
            value = frozenset({("s", (0,)), ("t", (0,))})
        mux = SessionMux(tba)
        m = mux.open("s")
        comp = mux._tba_compiled
        assert value not in comp.set_index
        m.configs = value
        assert m.compiled and m._tab is mux._table
        assert comp.sets[comp.set_index[value]] == m.configs == value
        twin = TBAMonitor(tba, compiled=False)
        twin.configs = value
        events = [("a", 1), ("b", 2), ("a", 3), ("b", 6), ("a", 7)]
        for symbol, t in events[:2]:
            assert mux.ingest("s", symbol, t) is twin.ingest(symbol, t)
            assert m.configs == twin.configs
        mux.ingest_batch([("s", symbol, t) for symbol, t in events[2:]])
        for symbol, t in events[2:]:
            twin.ingest(symbol, t)
        assert monitor_state(m) == monitor_state(twin)


# -- bulk scan vs scalar loop ----------------------------------------------

class TestIngestMany:
    @needs_compiled
    @pytest.mark.parametrize("ti", range(len(CORPUS)))
    def test_ingest_many_equals_scalar_loop(self, ti):
        tba = CORPUS[ti]
        analysis = analysis_for(tba)
        for seed in range(10):
            rng = random.Random(9900 + 17 * ti + seed)
            events = random_stream(rng, tba, 80)
            bulk = TBAMonitor(tba, analysis=analysis)
            loop = TBAMonitor(tba, analysis=analysis)
            bulk.ingest_many(events)
            for symbol, t in events:
                loop.ingest(symbol, t)
            assert monitor_state(bulk) == monitor_state(loop)

    @needs_compiled
    def test_ingest_many_late_events_delegate_to_scalar_policy(self):
        tba = bounded_gap_tba(2)
        events = [("a", 1), ("a", 2), ("a", 1), ("a", 3)]  # one late
        bulk = TBAMonitor(tba, late_policy="drop")
        loop = TBAMonitor(tba, late_policy="drop")
        bulk.ingest_many(events)
        for symbol, t in events:
            loop.ingest(symbol, t)
        assert bulk.late_events == 1
        assert monitor_state(bulk) == monitor_state(loop)

    def test_generic_ingest_many_on_interpreted_path(self):
        tba = bounded_gap_tba(2)
        events = [("a", t) for t in range(1, 30)]
        bulk = TBAMonitor(tba, compiled=False)
        loop = TBAMonitor(tba, compiled=False)
        bulk.ingest_many(events)
        for symbol, t in events:
            loop.ingest(symbol, t)
        assert monitor_state(bulk) == monitor_state(loop)


# -- mux batch stepping ----------------------------------------------------

class TestMuxBatch:
    @pytest.mark.parametrize("ti", range(len(CORPUS)))
    def test_ingest_batch_equals_scalar_mux(self, ti):
        """Batched ingestion (waves + per-session bulk + scalar
        fallback for late traffic) matches one-at-a-time ingestion."""
        tba = CORPUS[ti]
        rng = random.Random(1300 + ti)
        events = []
        clocks = {}
        for _ in range(1500):
            name = f"s{rng.randrange(29)}"
            t = max(0, clocks.get(name, 0) + rng.randint(-1, 4))  # some late
            clocks[name] = max(clocks.get(name, 0), t)
            symbol = rng.choice(sorted(tba.alphabet) + ["?foreign"])
            events.append((name, symbol, t))
        batched = SessionMux(tba, late_policy="drop")
        scalar = SessionMux(tba, late_policy="drop", compiled=False)
        i = 0
        while i < len(events):
            n = rng.randint(1, 200)
            batched.ingest_batch(events[i : i + n])
            i += n
        for name, symbol, t in events:
            scalar.ingest(name, symbol, t)
        assert batched.verdicts() == scalar.verdicts()
        assert batched.stats() == scalar.stats()
        for name in batched.active:
            assert monitor_state(batched.monitor(name)) == monitor_state(
                scalar.monitor(name)
            )

    @needs_compiled
    def test_deep_slices_take_the_bulk_path(self):
        """Few sessions × many events routes through ingest_many and
        still matches (the heuristic's other arm)."""
        tba = bounded_gap_tba(2)
        events = [(f"s{i % 2}", "a", t) for t, i in enumerate(range(200))]
        batched = SessionMux(tba)
        scalar = SessionMux(tba, compiled=False)
        assert batched.ingest_batch(events) == len(events)
        for name, symbol, t in events:
            scalar.ingest(name, symbol, t)
        assert batched.verdicts() == scalar.verdicts()

    @needs_compiled
    def test_alt_query_mux_rides_the_waves(self):
        """A nondeterministic language steps on the mux table like any
        other: every event of a wide on-time batch goes through
        ``step_wave``, landing where the interpreter's sets do."""
        rng = random.Random(18)
        batched = SessionMux(query=ALT_QUERY)
        scalar = SessionMux(query=ALT_QUERY, compiled=False)
        assert batched._table is not None
        names = [f"s{i}" for i in range(40)]
        clocks = dict.fromkeys(names, 0)
        rounds = {name: [] for name in names}
        inst = install()
        try:
            total = 0
            for _ in range(30):
                events = []
                for i, name in enumerate(names):
                    # Both symbols every round keeps both branches alive
                    # (sets of two); a b-only session loses the a branch.
                    if not rounds[name]:
                        rounds[name] = ["b"] if i % 4 == 3 else rng.sample("ab", 2)
                    clocks[name] += rng.randint(0, 1)
                    events.append((name, rounds[name].pop(), clocks[name]))
                assert batched.ingest_batch(events) == len(events)
                total += len(events)
                for event in events:
                    scalar.ingest(*event)
                assert batched.verdicts() == scalar.verdicts()
            wave = (
                inst.registry.counter("stream.compiled_steps")
                .labels(path="wave")
                .value
            )
        finally:
            uninstall()
        assert wave == total
        assert batched.stats() == scalar.stats()
        sizes = set()
        for name in names:
            m = batched.monitor(name)
            assert monitor_state(m) == monitor_state(scalar.monitor(name))
            sizes.add(len(m.configs))
        assert sizes == {1, 2}

    def test_machine_factory_mux_falls_back_to_scalar(self):
        """A mux over non-TBA monitors accepts ingest_batch (all
        events routed through the scalar path)."""
        mux = SessionMux(
            monitor_factory=lambda: TBAMonitor(bounded_gap_tba(1))
        )
        assert mux._tba_compiled is None
        assert mux.ingest_batch([("s0", "a", 1), ("s1", "a", 1)]) == 0
        assert len(mux) == 2

    @pytest.mark.parametrize("ti", range(len(CORPUS)))
    def test_handles_taken_before_a_batch_are_live_views(self, ti):
        """A monitor handle is a view onto its session's slot, whether
        ``open`` returned it or ``monitor(name)`` made it for a session
        a batch opened: taken before a batch, it shows the batch's
        effect afterwards (waves and deep slices alike), and it keeps
        its final state once the session is closed, evicted or
        extracted, even when its freed row goes to a new session."""
        for door in ("open", "monitor"):
            for retire in ("close", "evict_idle", "extract_sessions"):
                self._handles_stay_live(CORPUS[ti], random.Random(2600 + ti), door, retire)

    @staticmethod
    def _handles_stay_live(tba, rng, door, retire):
        batched = SessionMux(tba, late_policy="drop")
        scalar = SessionMux(tba, late_policy="drop", compiled=False)
        names = [f"s{i}" for i in range(12)]
        if door == "open":
            handles = {name: batched.open(name) for name in names}
            for name in names:
                scalar.open(name)
        else:
            opening = [(name, "a", 0) for name in names]
            batched.ingest_batch(opening)
            for event in opening:
                scalar.ingest(*event)
            handles = {name: batched.monitor(name) for name in names}
        clocks = dict.fromkeys(handles, 0)
        for size in (40, 40, 300):  # waves, waves, then deep slices
            events = []
            for _ in range(size):
                name = f"s{rng.randrange(12 if size < 300 else 2)}"
                clocks[name] += rng.randint(0, 3)
                events.append((name, rng.choice(sorted(tba.alphabet)), clocks[name]))
            batched.ingest_batch(events)
            for event in events:
                scalar.ingest(*event)
            for name, m in handles.items():
                assert m is batched.monitor(name)
                assert monitor_state(m) == monitor_state(scalar.monitor(name))
        final = {name: monitor_state(m) for name, m in handles.items()}
        if retire == "close":
            for name in names:
                batched.close(name)
        elif retire == "evict_idle":
            assert sorted(batched.evict_idle(now=10**6, idle_ttl=1)) == sorted(names)
        else:
            assert sorted(extract_sessions(batched, names)) == sorted(names)
        assert not batched._monitors and not batched.active, (door, retire)
        # New sessions take the freed rows; the retired handles must not
        # see them.
        batched.ingest_batch([(f"n{i}", "a", 10_000) for i in range(12)])
        assert {name: monitor_state(m) for name, m in handles.items()} == final, (door, retire)

    @needs_compiled
    def test_restore_writes_land_in_the_slot(self):
        """``restore`` assigns configs, prev_t and counters through the
        monitor view; a restored session on a mux carries them into the
        mux's slot table, where batches continue from them."""
        tba = bounded_gap_tba(3)
        events = [("a", t) for t in (1, 2, 4, 6, 9, 10, 14, 15)]
        whole = TBAMonitor(tba, late_policy="drop")
        for symbol, t in events:
            whole.ingest(symbol, t)
        first = SessionMux(tba, late_policy="drop")
        first.ingest_batch([("s", symbol, t) for symbol, t in events[:5]])
        snap = checkpoint_mux(first)
        mux = restore_mux(snap, SessionMux(tba, late_policy="drop"), tba=tba)
        m = mux.monitor("s")
        tab, slot = mux._table, mux._slot_of[mux._ids["s"]]
        assert m._tab is tab
        state = snap["sessions"]["s"]["snapshot"]["state"]
        assert m.configs == restore(snap["sessions"]["s"]["snapshot"], tba=tba).configs
        assert tab.arrays["prev_t"][slot] == state["prev_t"] == 9
        assert tab.arrays["events"][slot] == state["events_ingested"] == 5
        assert tab.arrays["visits"][slot] == state["accept_visits"]
        assert tab.arrays["flips"][slot] == state["verdict_flips"]
        mux.ingest_batch([("s", symbol, t) for symbol, t in events[5:]])
        assert monitor_state(m) == monitor_state(whole)


# -- lasso acceptance ------------------------------------------------------

class TestAcceptsLasso:
    """The deterministic lasso walk, over the rows of the machine's
    successor table: from the start of the word (``accepts_lasso``) or
    from wherever a replay stopped (``accepts_from``)."""

    @pytest.mark.parametrize("ti", range(len(TBA_FAMILY)))
    def test_agrees_with_interpreter(self, ti):
        tba = TBA_FAMILY[ti]
        table = tba_to_algorithm(tba).successor_table
        assert isinstance(table, CompiledTBA) and table.analysis is None
        rng = random.Random(880 + ti)
        for _ in range(40):
            word = random_lasso(rng, tba.alphabet)
            truth = tba.accepts_lasso(word)
            assert table.accepts_lasso(word) == truth
            # Continue from every point of the prefix and first loop
            # iteration, and from the boundary after the second.
            first = word.prefix + word.loop
            symbols, times = [s for s, _t in first], [t for _s, t in first]
            loop, end = len(word.prefix), len(first)
            for j in list(range(end + 1)) + [end + len(word.loop)]:
                row, prev = table.initial_index, 0
                for s, t in word.take(j):
                    row, prev = table.step(row, s, t - prev), t
                if row == table.trap:
                    assert not truth
                    continue
                i = min(j, end)
                got = table.accepts_from(row, prev, symbols, times, i, loop, end, word.shift)
                assert got == truth

    def test_rejects_non_lasso_words(self):
        from repro.words import TimedWord

        table = tba_to_algorithm(bounded_gap_tba(1)).successor_table
        with pytest.raises(ValueError):
            table.accepts_lasso(TimedWord.finite([("a", 1)]))


# -- cache invariants ------------------------------------------------------

class TestOneBuildPerLanguage:
    def test_one_analysis_build_across_mux_lifecycle(self):
        """open / evict / reopen / close / checkpoint / restore on one
        language trigger exactly one TBAAnalysis construction."""
        clear_caches()
        tba = bounded_gap_tba(2)
        inst = install()
        try:
            mux = SessionMux(tba, idle_ttl=5)
            for i in range(15):
                mux.ingest(f"s{i}", "a", 1)
            mux.close("s0")
            assert mux.evict_idle(now=100) != []
            for i in range(15):
                mux.ingest(f"s{i}", "a", 200)
            snap = checkpoint_mux(mux)
            mux2 = SessionMux(tba, idle_ttl=5)
            restore_mux(snap, mux2, tba=tba)
            assert mux2.verdicts() == mux.verdicts()
            builds = inst.registry.counter("stream.analysis_builds").value
            assert builds == 1, f"expected 1 analysis build, saw {builds}"
        finally:
            uninstall()

    @needs_compiled
    def test_one_compile_per_language(self):
        clear_caches()
        tba = bounded_gap_tba(2)
        inst = install()
        try:
            analysis = analysis_for(tba)
            first = compiled_for(analysis)
            again = compiled_for(analysis)
            assert first is not None and first is again
            # the mux and every monitor share that same artifact
            mux = SessionMux(tba)
            mux.ingest("s0", "a", 1)
            assert mux._tba_compiled is first
            assert mux.monitor("s0")._compiled is first
            reg = inst.registry
            built = reg.counter("stream.compile").labels(outcome="built").value
            assert built == 1
            assert reg.counter("stream.compile").labels(outcome="cached").value >= 1
        finally:
            uninstall()


# -- fallback gates --------------------------------------------------------

class TestFallbacks:
    def test_compiled_false_forces_interpreter(self):
        m = TBAMonitor(bounded_gap_tba(1), compiled=False)
        assert not m.compiled
        assert m.ingest("a", 1) is StreamVerdict.ACCEPTING

    def test_env_toggle_disables_compilation(self, monkeypatch):
        monkeypatch.setenv(compiled_mod.ENV_TOGGLE, "0")
        assert not compilation_enabled()
        tba = bounded_gap_tba(1)
        analysis = TBAAnalysis(tba)
        assert compiled_for(analysis) is None
        assert not TBAMonitor(tba, analysis=analysis).compiled
        with pytest.raises(ValueError):
            TBAMonitor(tba, analysis=analysis, compiled=True)

    def test_fallback_monitor_still_agrees(self, monkeypatch):
        """The point of the gates: fallback verdicts are the same."""
        monkeypatch.setenv(compiled_mod.ENV_TOGGLE, "0")
        tba = nondet_tba()
        analysis = TBAAnalysis(tba)
        fallback = TBAMonitor(tba, analysis=analysis)
        reference = TBAMonitor(tba, analysis=analysis, compiled=False)
        rng = random.Random(5)
        for symbol, t in random_stream(rng, tba, 50):
            assert fallback.ingest(symbol, t) is reference.ingest(symbol, t)
