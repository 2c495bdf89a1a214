"""Tests for repro.spec.conformance — the differential fuzzing harness.

The seeded corpus tests pin the "all decision paths agree" property at
a fixed budget; the regression tests below them are minimized
counterexamples the harness surfaced, committed alongside their fixes.
"""

import json
import random
from dataclasses import replace
from pathlib import Path

import pytest

from repro.query import Q
from repro.spec import eventually, loop, rt_bound, seq, to_tba
from repro.spec.conformance import (
    PAIRS,
    check_pair,
    draw,
    minimize,
    run,
)
from repro.stream import SessionMux, checkpoint_mux, restore_mux
from repro.words import TimedWord

try:
    from hypothesis import HealthCheck, given, settings, strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - baked into the image
    HAVE_HYPOTHESIS = False


# ------------------------------------------------------ seeded corpus


def _pairs_under(gen):
    return {name for name, pair in PAIRS.items() if gen in pair.gens}


def test_seeded_corpus_agrees():
    stats = run(seed=0, cases=40)
    assert stats.disagreements == []
    assert set(stats.checks) == _pairs_under("spec")


def test_seeded_corpus_deep_grammar_agrees():
    stats = run(seed=7, cases=15, depth=3)
    assert stats.disagreements == []


def test_seeded_corpus_query_gen_agrees():
    # The query front-end mode runs every pair by default: lowered specs
    # through the spec pairs, plus the text round-trip and fused-plan
    # pairs.
    stats = run(seed=3, cases=12, gen="query")
    assert stats.disagreements == []
    assert stats.checks["query-roundtrip"] == 12
    assert stats.checks["query-plan"] == stats.checks["query-mux"] == 12
    assert set(PAIRS) == set(stats.checks)


def test_mux_pair_agrees_under_every_generator():
    # ingest_batch vs scalar ingest (and, for queries, a fused plan mux
    # vs per-query muxes) across waves, deep slices and late fallback.
    for gen, cases in (("spec", 30), ("tba", 20), ("query", 6)):
        pairs = ("mux", "query-mux") if gen == "query" else ("mux",)
        stats = run(seed=5, cases=cases, pairs=pairs, gen=gen)
        assert stats.disagreements == [], gen
        assert stats.checks["mux"] == 3 * cases
    assert stats.checks["query-mux"] == 6


def test_unknown_pair_rejected():
    with pytest.raises(ValueError):
        run(cases=1, pairs=("nope",))


def test_minimize_rejects_agreeing_case():
    spec = loop(rt_bound("a", 0, 2))
    word = TimedWord.lasso([], [("a", 0)], shift=2)
    # minimize() is only meaningful on a disagreeing case; feeding it a
    # passing one is a harness bug and fails fast.
    with pytest.raises(AssertionError):
        minimize("semantics", spec, ("a",), word)


def test_a_disagreement_that_does_not_reproduce_is_reported_unshrunk(
    monkeypatch, capsys
):
    # A fault on table state the first check filled agrees when checked
    # again; the sweep reports the case instead of dying in minimize().
    from repro.spec import conformance

    calls = []

    def first_call_disagrees(spec, alphabet, word):
        calls.append(word)
        return "injected" if len(calls) == 1 else None

    semantics = replace(PAIRS["semantics"], word=first_call_disagrees)
    monkeypatch.setitem(conformance.PAIRS, "semantics", semantics)
    argv = ["--cases", "1", "--pairs", "semantics", "--words-per-case", "1"]
    assert conformance.main(argv) == 1
    out = capsys.readouterr().out
    assert "semantics             1 checks      0 skipped  1 disagreement(s)" in out
    assert "[semantics] injected [did not reproduce when checked again" in out
    assert "def test_" not in out  # a record that agrees again prints no test
    assert len(calls) == 2


def _printed_test(printed):
    """The test function a record prints, compiled."""
    namespace = {}
    exec(compile(printed[printed.index("def test_"):], "<printed>", "exec"), namespace)
    (test,) = [f for name, f in namespace.items() if name.startswith("test_")]
    return test


def test_a_disagreement_only_a_batch_shows_is_shrunk_to_its_words(monkeypatch):
    # A batch check that disagrees only when two given words are judged
    # together: no single word reproduces it, so the minimizer drops the
    # other words, and the printed test re-runs the batch check on the
    # two left (a one-word test would pass on the fault).
    first = []

    def pair_in_one_batch(spec, alphabet, words):
        if not first:
            first.extend(words)
        together = first[1] in words and first[3] in words
        return "injected" if together else None

    strategy = replace(PAIRS["strategy"], batch=pair_in_one_batch)
    monkeypatch.setitem(PAIRS, "strategy", strategy)
    stats = run(cases=1, pairs=("strategy",), words_per_case=4)
    (d,) = stats.disagreements
    assert d.detail == "injected"
    assert d.word == [first[1], first[3]]
    printed = d.describe()
    assert "batch: TimedWord.lasso(" in printed
    test = _printed_test(printed)
    with pytest.raises(AssertionError):
        test()
    monkeypatch.undo()
    test()


# --------------------------------------------------------- the registry


def test_check_pair_runs_the_query_pairs():
    query = Q.event("a", 0, 2).then("b", 0, 3).repeat() | Q.event("b").once()
    plan = {"q0": Q.event("a", 0, 2).then("b", 1, 3).repeat(), "q1": Q.event("a", 0, 1).once()}
    word = TimedWord.lasso([("a", 0)], [("b", 1), ("a", 3)], shift=4)
    assert check_pair("query-roundtrip", query, ("a", "b"), []) is None
    assert check_pair("query-plan", plan, ("a", "b"), word) is None
    assert check_pair("query-mux", plan, ("a", "b", "c"), [word]) is None


def _injected(*args):
    return "injected"


@pytest.mark.parametrize(
    "name,gen", [(name, gen) for name, pair in PAIRS.items() for gen in pair.gens]
)
def test_every_record_prints_a_test_that_fails_only_on_its_fault(name, gen, monkeypatch):
    pair = PAIRS[name]
    faulty = replace(
        pair,
        word=pair.word and _injected,
        batch=pair.batch and _injected,
        applies=lambda case: True,
    )
    monkeypatch.setitem(PAIRS, name, faulty)
    (record,) = run(seed=1, cases=1, pairs=(name,), gen=gen, words_per_case=2).disagreements
    test = _printed_test(record.describe())
    assert test.__name__ == f"test_conformance_{name.replace('-', '_')}_regression"
    with pytest.raises(AssertionError):
        test()
    monkeypatch.undo()
    test()


def test_the_minimizer_rechecks_from_empty_caches(monkeypatch):
    from repro.engine import batch
    from repro.engine.batch import compiled_tba
    from repro.spec.compile import _to_tba_cached

    sizes = []

    def cold(spec, alphabet, word):
        sizes.append((len(batch._CACHE), _to_tba_cached.cache_info().currsize))
        return "injected"

    spec = loop(seq(rt_bound("a", 0, 2), rt_bound("b", 0, 1)))
    compiled_tba(to_tba(spec, ("a", "b")))  # warm both caches
    monkeypatch.setitem(PAIRS, "semantics", replace(PAIRS["semantics"], word=cold))
    minimize("semantics", spec, ("a", "b"), TimedWord.lasso([("a", 0)], [("b", 1)], shift=2))
    assert len(sizes) > 1 and set(sizes) == {(0, 0)}


def test_a_check_with_nothing_to_compare_counts_as_skipped(monkeypatch):
    # shards judges every case's machine, nondeterministic ones included
    stats = run(seed=0, cases=10, pairs=("shards",))
    assert (stats.checks["shards"], stats.skipped["shards"]) == (10, 0)
    monkeypatch.setenv("REPRO_STREAM_COMPILED", "0")
    stats = run(seed=0, cases=2, pairs=("monitor",))
    assert (stats.checks["monitor"], stats.skipped["monitor"]) == (0, 6)


def test_a_sweep_runs_exactly_the_pairs_it_names():
    stats = run(seed=0, cases=2, pairs=("mux",), gen="query")
    assert set(stats.checks) == {"mux"}
    with pytest.raises(ValueError, match="does not run under gen"):
        run(cases=1, pairs=("query-plan",))


def test_every_pair_is_documented():
    text = (Path(__file__).resolve().parent.parent / "docs" / "spec.md").read_text()
    assert [name for name in PAIRS if f"**{name}**" not in text] == []


if HAVE_HYPOTHESIS:

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_property_random_cases_agree(seed):
        sample = draw(random.Random(seed), words_per_case=1)
        # shards, ladder: a pool spin-up per example is too heavy here
        for name in sorted(_pairs_under("spec") - {"shards", "ladder"}):
            case, (word,) = PAIRS[name].pick(sample)
            assert check_pair(name, case, sample.alphabet, word) is None, name


# ------------------------------------------- whole-mux JSON round-trip


def test_mux_json_round_trip_mid_fuzz_matches_uninterrupted():
    spec = loop(seq(rt_bound("a", 0, 3), rt_bound("b", 0, 2)))
    tba = to_tba(spec, ("a", "b", "c"))
    rng = random.Random(11)
    events = [
        (f"s{rng.randrange(4)}", rng.choice("abc"), t)
        for t in range(0, 60)
        for _ in range(rng.randrange(3))
    ]
    cut = len(events) // 2

    plain = SessionMux(tba, lateness=2)
    for name, sym, t in events:
        plain.ingest(name, sym, t)
    baseline = plain.verdicts()

    first = SessionMux(tba, lateness=2)
    for name, sym, t in events[:cut]:
        first.ingest(name, sym, t)
    snapshot = json.loads(json.dumps(checkpoint_mux(first)))
    second = restore_mux(snapshot, SessionMux(tba, lateness=2), tba=tba)
    for name, sym, t in events[cut:]:
        second.ingest(name, sym, t)
    assert second.verdicts() == baseline
    assert second.sessions_opened == plain.sessions_opened

    # Cross-path restore: interpreted snapshot resumed on the compiled
    # stepper (and vice versa) must continue identically too.
    for src, dst in ((False, None), (None, False)):
        one = SessionMux(tba, lateness=2, compiled=src)
        for name, sym, t in events[:cut]:
            one.ingest(name, sym, t)
        snap = json.loads(json.dumps(checkpoint_mux(one)))
        other = restore_mux(snap, SessionMux(tba, lateness=2, compiled=dst), tba=tba)
        for name, sym, t in events[cut:]:
            other.ingest(name, sym, t)
        assert other.verdicts() == baseline


# ------------------------------------------------ pinned counterexamples
#
# Minimized by the harness, committed with the fix that makes them pass.
# Before the zeno fix (machine.tape.zeno_event_cap +
# engine.strategies.resolve_zeno), this frozen-time lasso made both
# machine strategies grind to the tape's 1M-event feeder cap (~15s) and
# return UNDECIDED, while exact region mathematics decides ACCEPT — a
# violation of the lasso-exact contract ("exact on lasso words,
# O(decision point) regardless of horizon").


def test_conformance_strategy_regression():
    # minimized by repro.spec.conformance
    spec = loop(seq(rt_bound('a', 0, 2)))
    word = TimedWord.lasso(
        [],
        [('a', 0)],
        shift=0,
    )
    assert check_pair('strategy', spec, ('a', 'b'), word) is None


def test_conformance_strategy_regression_rejecting_zeno():
    # companion case: a frozen-time lasso the language rejects
    spec = loop(seq(rt_bound('a', 0, 2)))
    word = TimedWord.lasso(
        [('a', 0)],
        [('b', 0)],
        shift=0,
    )
    assert check_pair('strategy', spec, ('a', 'b'), word) is None


def test_conformance_shards_cover_zeno_words():
    spec = loop(seq(rt_bound('a', 0, 2)))
    words = [
        TimedWord.lasso([], [('a', 0)], shift=0),
        TimedWord.lasso([], [('a', 0)], shift=2),
    ]
    from repro.spec.conformance import _check_shards

    assert _check_shards(spec, ('a', 'b'), words) is None


def test_zeno_cap_only_fires_on_frozen_lassos():
    # Finite and functional words carry the dataclass default shift=0
    # too; capping them starved infinite functional words (e.g. the rtdb
    # periodic-query feed) at ZENO_UNROLL events and zeroed their
    # f-counts.  Only a genuine lasso can freeze time forever.
    from repro.machine.tape import ZENO_UNROLL, zeno_event_cap

    assert zeno_event_cap(TimedWord.finite([("a", 0), ("b", 1)])) is None
    assert zeno_event_cap(TimedWord.functional(lambda i: ("a", i))) is None
    assert zeno_event_cap(TimedWord.lasso([], [("a", 0)], shift=1)) is None
    assert (
        zeno_event_cap(TimedWord.lasso([("b", 0)], [("a", 1)], shift=0))
        == 1 + ZENO_UNROLL
    )


def test_functional_words_outrun_the_zeno_cap():
    # End-to-end shape of the rtdb regression: a functional word with
    # advancing time must be fed past ZENO_UNROLL events.
    from repro.machine import RealTimeAlgorithm
    from repro.machine.tape import ZENO_UNROLL

    def program(ctx):
        while True:
            yield ctx.input.read()
            ctx.emit_f()

    word = TimedWord.functional(lambda i: ("tick", i))
    report = RealTimeAlgorithm(program).count_f(word, horizon=200)
    assert report.f_count > ZENO_UNROLL


def test_machine_only_acceptor_reports_the_cutoff():
    # A hand-written program has no source automaton to bound its
    # unrollings or settle its verdict: the tape stops at ZENO_UNROLL
    # unrollings and both judges say the replay was cut.
    from repro.engine import Verdict, decide
    from repro.machine import RealTimeAlgorithm
    from repro.machine.tape import ZENO_UNROLL

    reads = []

    def program(ctx):
        while True:
            reads.append((yield ctx.input.read()))

    machine = RealTimeAlgorithm(program, name="reader")
    word = TimedWord.lasso([("a", 0), ("b", 1)], [("a", 3), ("b", 3)], shift=0)
    batch = decide(machine, word, strategy="lasso-exact", horizon=100)
    assert len(reads) == 2 + ZENO_UNROLL * 2 == 130
    assert batch.verdict is Verdict.UNDECIDED
    assert batch.evidence["zeno"] == "cutoff"
    online = decide(machine, word, strategy="online-incremental", horizon=100)
    assert online.verdict is Verdict.UNDECIDED
    assert online.evidence["zeno"] == "cutoff"
    assert online.evidence["events_ingested"] == 130


def test_strategy_pair_checks_the_derived_cut():
    # A deterministic 2-state/1-clock automaton (zeno bound 5) whose
    # run dies in the fourth frozen unrolling: the strategy pair holds
    # the machine's cut report against the ZENO_UNROLL replay, so it
    # catches a cut too short to see the death, which resolve_zeno's
    # exact verdict would hide.
    from repro.automata import TimedBuchiAutomaton, TimedTransition
    from repro.engine.batch import compiled_tba
    from repro.kernel import gt

    tba = TimedBuchiAutomaton(
        alphabet=("a", "b"),
        states=("p", "q"),
        initial="p",
        transitions=[
            TimedTransition.make("p", "q", "b"),
            TimedTransition.make("q", "p", "b", resets=["x"], guard=gt("x", 0)),
        ],
        clocks=("x",),
        accepting=("p",),
    )
    word = TimedWord.lasso([], [("b", 1)], shift=0)
    assert check_pair("strategy", tba, ("a", "b"), word) is None
    machine = compiled_tba(tba, allow_nondeterministic=True)
    assert machine.zeno_unroll == 5
    machine.zeno_unroll = 3
    try:
        detail = check_pair("strategy", tba, ("a", "b"), word)
    finally:
        machine.zeno_unroll = 5
    assert detail is not None and "cut at 3 unrollings" in detail


# ------------------------------------------------- raw-random-TBA mode


def test_tba_corpus_agrees():
    stats = run(seed=0, cases=25, gen="tba")
    assert stats.disagreements == []
    assert set(stats.checks) == _pairs_under("tba")


def test_unknown_gen_rejected():
    with pytest.raises(ValueError, match="unknown gen"):
        run(cases=1, gen="dfa")


def test_gen_tba_is_seed_deterministic():
    from repro.spec.conformance import gen_tba

    a = gen_tba(random.Random(4), ("a", "b"))
    b = gen_tba(random.Random(4), ("a", "b"))
    assert a.states == b.states
    assert a.transitions == b.transitions
    assert a.accepting == b.accepting


def test_gen_tba_produces_nondeterministic_shapes():
    from repro.machine.from_tba import _is_deterministic
    from repro.spec.conformance import gen_tba

    rng = random.Random(0)
    dets = [_is_deterministic(gen_tba(rng, ("a", "b"))) for _ in range(30)]
    assert any(dets) and not all(dets)  # both shapes appear in the pool


def test_tba_case_source_round_trips():
    from repro.automata import TimedBuchiAutomaton, TimedTransition
    from repro.kernel.clock import And, Ge, Le, Not, TrueConstraint
    from repro.spec.conformance import case_source, gen_tba, gen_word

    rng = random.Random(2)
    tba = gen_tba(rng, ("a", "b"))
    namespace = {
        "TimedBuchiAutomaton": TimedBuchiAutomaton,
        "TimedTransition": TimedTransition,
        "And": And,
        "Ge": Ge,
        "Le": Le,
        "Not": Not,
        "TrueConstraint": TrueConstraint,
    }
    rebuilt = eval(case_source(tba), namespace)
    assert rebuilt.states == tba.states
    assert rebuilt.accepting == tba.accepting
    assert sorted(rebuilt.transitions, key=repr) == sorted(
        tba.transitions, key=repr
    )
    # Same language on a sample of words — the rebuilt automaton is the
    # same automaton, not just the same shape.
    for _ in range(10):
        word = gen_word(rng, tba, ("a", "b"))
        assert rebuilt.accepts_lasso(word) == tba.accepts_lasso(word)


def test_tba_minimizer_shrinks_a_seeded_disagreement():
    from repro.spec.conformance import _tba_shrinks, gen_tba

    # No known real disagreement to shrink (the sweeps are clean), so
    # pin the machinery instead: every shrink of a generated automaton
    # is structurally smaller-or-equal and still a valid TBA.
    rng = random.Random(6)
    tba = gen_tba(rng, ("a", "b"))
    shrinks = list(_tba_shrinks(tba))
    assert shrinks
    for small in shrinks:
        assert small.alphabet == tba.alphabet
        assert len(small.transitions) <= len(tba.transitions)
        assert small.accepting  # never shrinks to an empty Büchi set


def test_tba_mode_word_bias_uses_transition_symbols():
    from repro.spec.conformance import gen_tba, gen_word

    rng = random.Random(1)
    tba = gen_tba(rng, ("a", "b", "c"))
    used = {tr.symbol for tr in tba.transitions}
    words = [gen_word(rng, tba, ("a", "b", "c")) for _ in range(20)]
    seen = {s for w in words for s, _t in list(w.prefix) + list(w.loop)}
    assert seen & used  # the bias steers words onto the automaton
