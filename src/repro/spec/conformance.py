"""Conformance fuzzing: every decision path must tell the same story.

The repo has grown several independently-implemented routes from a
timed specification to a verdict.  Each pair of routes is a
*differential oracle*: on any case the two sides must agree, so a
disagreement is a bug in one of them by construction, no expected
output needed.  ``docs/spec.md`` ("Conformance fuzzing") says what
each pair compares.

Every pair is one :class:`Pair` declaration in :data:`PAIRS`: the
generators it runs under, the case it judges in a drawn
:class:`Sample`, its word check, its batch check or both, when it
applies, its shrinks and its source form.  The sweep (:func:`run`),
:func:`check_pair`, the minimizer and the printed regressions read
nothing else.  The cases the pairs judge:

``semantics``, ``monitor``, ``strategy``, ``shards``, ``ladder``,
``checkpoint``, ``mux``
    a combinator spec or a raw automaton, under every generator;
``recovery``
    a spec plus the text of its private-query session;
``query-roundtrip``
    a builder query (``gen="query"``);
``query-plan``, ``query-mux``
    a plan's ``{name: query}``, with a word of its own (``gen="query"``).

Three seeded generators (:data:`GENS`) draw the cases without any
third-party dependency (``tests/test_spec_conformance.py`` adds a
hypothesis layer): combinator specs (:func:`gen_spec`), raw random
automata (:func:`gen_tba`: nondeterministic branching, multi-clock
guards, dead and unreachable states, so ``semantics`` reads ground
truth from region-exact ``accepts_lasso``) and :mod:`repro.query`
builder queries (:func:`gen_query`, plus :func:`gen_plan_queries`).

The sweep checks on warm caches.  On a disagreement it runs the same
check again from empty compiled caches (:func:`clear_caches`): a case
that agrees there keeps the first check's detail and a note.  One that
still disagrees is *minimized* — the words shrunk (drop words, drop
events, tighten times), then the case by the pair's shrinks, each step
re-checked from empty caches — and printed as a pytest function
(:func:`regression_source`) that re-runs exactly that check, its batch
of words included, and fails until the fault is fixed.  A check with
nothing to compare (``monitor`` with the compiled path off) counts as
skipped.

CLI::

    python -m repro.spec.conformance --seed 0 --cases 200
    python -m repro.spec.conformance --gen tba --cases 100
    python -m repro.spec.conformance --gen query --pairs query-plan,query-mux

``--pairs`` runs exactly the pairs it names (by default every pair
that runs under ``--gen``); the exit status is non-zero iff any pair
disagreed.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import sys
import time
from dataclasses import dataclass, field
from itertools import chain
from types import SimpleNamespace
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from ..automata.timed import TimedBuchiAutomaton, TimedTransition
from ..engine.batch import clear_caches as clear_engine_caches
from ..engine.batch import compiled_tba, decide_many
from ..engine.strategies import decide, resolve_zeno
from ..engine.verdict import DecisionReport, Verdict
from ..kernel.clock import And, Ge, Le, Not, TrueConstraint
from ..machine.tape import ZENO_UNROLL, zeno_event_cap
from ..stream.compiled import compilation_enabled
from ..words.batch import LassoBatch
from ..words.timedword import TimedWord
from .combinators import (
    Spec,
    actions_of,
    alt,
    both,
    eventually,
    loop,
    max_bound,
    rt_bound,
    seq,
    to_source,
)
from .compile import _to_tba_cached, spec_acceptor, to_tba
from .semantics import holds

__all__ = [
    "PAIRS",
    "GENS",
    "Case",
    "Pair",
    "Sample",
    "Disagreement",
    "gen_spec",
    "gen_tba",
    "gen_query",
    "gen_plan_queries",
    "gen_word",
    "draw",
    "kernel_report",
    "case_source",
    "check_pair",
    "clear_caches",
    "minimize",
    "regression_source",
    "run",
    "main",
]

#: What an oracle pair judges: a combinator spec or a raw automaton for
#: most pairs (see :data:`PAIRS` for the rest).
Case = Any

#: The case generator modes ``run(gen=...)`` accepts.
GENS: Tuple[str, ...] = ("spec", "tba", "query")

#: Events replayed into stream monitors per word (prefix + unrollings).
REPLAY_LOOPS = 3


@dataclass
class Disagreement:
    """One oracle-pair violation: minimized, unless it agreed when
    checked again from empty caches."""

    pair: str
    case: Case
    alphabet: Tuple[Any, ...]
    #: The word the pair's word check disagreed on, or the list of
    #: words its batch check did.
    word: Any
    detail: str
    reproduced: bool = True

    def describe(self) -> str:
        words = self.word if isinstance(self.word, list) else [self.word]
        label = "batch:" if words is self.word else "word: "
        lines = [
            f"[{self.pair}] {self.detail}",
            f"  case:  {PAIRS[self.pair].source(self.case)}",
            *(f"  {label} {_word_source(w)}" for w in words),
            f"  alpha: {self.alphabet!r}",
        ]
        if self.reproduced:
            lines.append(regression_source(self.pair, self.case, self.alphabet, self.word))
        return "\n".join(lines)


def _word_source(word: TimedWord) -> str:
    return f"TimedWord.lasso({list(word.prefix)!r}, {list(word.loop)!r}, shift={word.shift})"


# -- seeded generators -------------------------------------------------

def gen_spec(rng: random.Random, actions: Sequence[Any], depth: int = 2) -> Spec:
    """A random ω-spec over ``actions`` (depth-bounded grammar walk)."""

    def phase():
        lo = rng.choice((0, 0, 0, 1, 2))
        return rt_bound(rng.choice(actions), lo, lo + rng.randrange(4))

    def chain():
        return seq(*(phase() for _ in range(rng.randrange(1, 4))))

    def go(d: int) -> Spec:
        r = rng.random()
        if d <= 0 or r < 0.40:
            return loop(chain())
        if r < 0.65:
            return eventually(chain())
        parts = 2 if rng.random() < 0.8 else 3
        if r < 0.85:
            return alt(*(go(d - 1) for _ in range(parts)))
        return both(*(go(d - 1) for _ in range(parts)))

    return go(depth)


def _case_tba(case: Case, alphabet: Tuple[Any, ...]) -> TimedBuchiAutomaton:
    """The automaton a case denotes (raw, or compiled from the spec)."""
    if isinstance(case, TimedBuchiAutomaton):
        return case
    return to_tba(case, alphabet)


def gen_tba(
    rng: random.Random, alphabet: Sequence[Any], max_states: int = 4
) -> TimedBuchiAutomaton:
    """A random raw TBA over ``alphabet`` — shapes the compiler never
    emits: arbitrary branching (including nondeterministic same-symbol
    edges), multi-clock guards, self-loops, dead and unreachable
    states, possibly-empty languages."""
    n = rng.randrange(2, max_states + 1)
    states = list(range(n))
    clocks = ("x",) if rng.random() < 0.6 else ("x", "y")

    def guard():
        c = rng.choice(clocks)
        k = rng.randrange(5)
        r = rng.random()
        if r < 0.30:
            return TrueConstraint()
        if r < 0.55:
            return Le(c, k)
        if r < 0.80:
            return Ge(c, k)
        if r < 0.90:
            return And(Ge(c, k), Le(c, k + rng.randrange(3)))
        return Not(Le(c, k))

    def resets():
        return tuple(c for c in clocks if rng.random() < 0.3)

    transitions = []
    for s in states:
        for a in alphabet:
            # 0, 1, or (nondeterministically) 2 edges per (state, symbol).
            edges = rng.choice((0, 1, 1, 1, 2))
            for _ in range(edges):
                transitions.append(
                    TimedTransition.make(
                        s, rng.randrange(n), a, resets=resets(), guard=guard()
                    )
                )
    accepting = [s for s in states if rng.random() < 0.5] or [n - 1]
    return TimedBuchiAutomaton(
        alphabet=tuple(alphabet),
        states=states,
        initial=0,
        transitions=transitions,
        clocks=clocks,
        accepting=accepting,
    )


def gen_query(rng: random.Random, actions: Sequence[Any], depth: int = 2):
    """A random :mod:`repro.query` builder query over ``actions`` — the
    :func:`gen_spec` grammar walk replayed through the ``Q`` surface
    (chains with ``within``/``after``/``deadline`` modifiers, the ω
    closers, ``|`` and ``&`` composition)."""
    from ..query import Q

    def chain():
        q = None
        for _ in range(rng.randrange(1, 4)):
            lo = rng.choice((0, 0, 0, 1, 2))
            hi = lo + rng.randrange(4)
            a = rng.choice(list(actions))
            q = Q.event(a, lo, hi) if q is None else q.then(a, lo, hi)
        if rng.random() < 0.2:
            q = q.deadline(1 + rng.randrange(5), rng.choice((0, 0, 2)))
        return q

    def closed():
        q = chain()
        r = rng.random()
        if r < 0.45:
            return q.repeat()
        if r < 0.70:
            return q.once()
        return q  # bare chain: ω-coercion ("complete once, then anything")

    def go(d: int):
        r = rng.random()
        if d <= 0 or r < 0.55:
            return closed()
        parts = [go(d - 1) for _ in range(2 if rng.random() < 0.8 else 3)]
        out = parts[0]
        for p in parts[1:]:
            out = (out | p) if r < 0.85 else (out & p)
        return out

    return go(depth)


def gen_plan_queries(
    rng: random.Random, actions: Sequence[Any]
) -> Dict[str, Any]:
    """2–3 random chain queries biased toward a shared first step —
    the workload :class:`~repro.query.plan.QueryPlan` exists to fuse."""
    from ..query import Q

    acts = list(actions)
    first = rng.choice(acts)
    out: Dict[str, Any] = {}
    for i in range(rng.randrange(2, 4)):
        q = Q.event(first, 0, rng.randrange(3))
        for _ in range(rng.randrange(1, 3)):
            q = q.then(rng.choice(acts), 0, rng.randrange(1, 5))
        out[f"q{i}"] = q.repeat() if rng.random() < 0.7 else q.once()
    return out


def gen_word(
    rng: random.Random, spec: Case, alphabet: Sequence[Any]
) -> TimedWord:
    """A random monotone lasso word, biased toward the case's actions.

    Covers the edge geometries the stream layer special-cases: shift-0
    lassos (time never advances past the loop), zero gaps, and gaps
    just past every spec bound.
    """
    if isinstance(spec, TimedBuchiAutomaton):
        bias = sorted({tr.symbol for tr in spec.transitions}, key=repr)
        cap = spec._cmax + 2
    else:
        bias = sorted(actions_of(spec), key=repr)
        cap = max_bound(spec) + 2

    def sym() -> Any:
        if bias and rng.random() < 0.7:
            return rng.choice(bias)
        return rng.choice(list(alphabet))

    def gap() -> int:
        return rng.choice((0, 0, 1, 1, 2, cap - 1, cap))

    t = 0
    prefix: List[Tuple[Any, int]] = []
    for _ in range(rng.randrange(4)):
        prefix.append((sym(), t))
        t += gap()
    if rng.random() < 0.1:
        # Shift-0 lasso: the same instants forever (well-behavedness
        # violated on purpose — the paper's classical-word edge).
        pairs = [(sym(), t) for _ in range(rng.randrange(1, 3))]
        return TimedWord.lasso(prefix, pairs, shift=0)
    pairs = []
    t0 = t
    for _ in range(rng.randrange(1, 4)):
        pairs.append((sym(), t))
        t += gap()
    span = t - t0
    return TimedWord.lasso(prefix, pairs, shift=span + rng.choice((0, 0, 1, 2)))


@dataclass
class Sample:
    """One case of the sweep as drawn: an alphabet, a spec or raw
    automaton with its words and, under ``gen="query"``, the query the
    spec lowers from and a plan's queries with a word of their own."""

    alphabet: Tuple[Any, ...]
    case: Case
    words: List[TimedWord]
    query: Any = None
    plan: Optional[Dict[str, Any]] = None
    plan_word: Optional[TimedWord] = None


def draw(
    rng: random.Random, gen: str = "spec", depth: int = 2, words_per_case: int = 3
) -> Sample:
    """One case from generator ``gen``: :func:`gen_spec`,
    :func:`gen_tba` or :func:`gen_query` (which also draws
    :func:`gen_plan_queries`), whatever pairs judge it."""
    symbols = ["a", "b", "c", "d"]
    actions = symbols[: rng.randrange(1, 4)]
    # Sometimes widen the alphabet past the actions: symbols the spec
    # never mentions still have to be stepped correctly.
    alphabet = tuple(symbols[: len(actions) + rng.randrange(2)])
    query = plan = plan_word = None
    if gen == "tba":
        case: Case = gen_tba(rng, alphabet)
    elif gen == "query":
        query = gen_query(rng, actions, depth=depth)
        case = query.spec()
    else:
        case = gen_spec(rng, actions, depth=depth)
    words = [gen_word(rng, case, alphabet) for _ in range(words_per_case)]
    if query is not None:
        plan = gen_plan_queries(rng, actions)
        plan_word = gen_word(rng, alt(*(q.spec() for q in plan.values())), alphabet)
    return Sample(alphabet, case, words, query, plan, plan_word)


def _events(word: TimedWord, n: int) -> List[Tuple[Any, int]]:
    return [word[i] for i in range(n)]


def _replay_len(word: TimedWord) -> int:
    return len(word.prefix) + REPLAY_LOOPS * len(word.loop)


def _horizon(word: TimedWord) -> int:
    """A horizon safely past a few loop unrollings of ``word``."""
    n = _replay_len(word)
    return max(word.time_at(i) for i in range(n)) + 1


# -- the oracle pairs --------------------------------------------------

def _check_semantics(
    spec: Case, alphabet: Tuple[Any, ...], word: TimedWord
) -> Optional[str]:
    if isinstance(spec, TimedBuchiAutomaton):
        # Raw automata have no combinator denotation; ground truth is
        # region-exact ``accepts_lasso`` itself, and the differential
        # content is the stream layer's absorbing claims below.
        direct = spec.accepts_lasso(word)
    else:
        direct = holds(spec, word, alphabet)
        report = decide(
            spec_acceptor(spec, alphabet), word, strategy="lasso-exact"
        )
        engine = report.verdict is Verdict.ACCEPT
        if direct != engine:
            return (
                f"holds()={direct} but engine lasso-exact says {report.verdict}"
            )
    # The stream layer's *absorbing* verdicts are claims about every
    # continuation, so on this word they must agree with the
    # denotational truth: REJECTED ⇒ no accepting run through the
    # consumed prefix; a green lock ⇒ every continuation accepts.
    # (Catches TBAAnalysis live/green bugs, which the compiled-vs-
    # interpreted differential shares and therefore cannot see.)
    from ..stream.monitor import StreamVerdict, TBAMonitor

    monitor = TBAMonitor(_case_tba(spec, alphabet), compiled=False)
    for s, t in _events(word, _replay_len(word)):
        monitor.ingest(s, t)
        if monitor.absorbed:
            break
    if monitor.verdict is StreamVerdict.REJECTED and direct:
        return "the word is accepted but the stream monitor absorbed into REJECTED"
    if monitor._green_locked and not direct:
        return "the word is rejected but the stream monitor green-locked ACCEPTING"
    return None


def _monitor_trace(monitor, events) -> Tuple[List[str], int, bool]:
    verdicts = []
    for s, t in events:
        verdicts.append(monitor.ingest(s, t).value)
    return verdicts, monitor.accept_visits, monitor.absorbed


#: Deterministic pair-check variations (kept out of the generator so a
#: pinned (spec, word) regression replays every variation).
F_WINDOWS: Tuple[Optional[int], ...] = (None, 0, 2)
LATENESS = 2


def _jittered(events, lateness: int):
    """A bounded out-of-order permutation: reverse each run of events
    whose times fit inside the lateness window (the worst legal
    displacement — nothing ever drops below the watermark)."""
    out: List[Tuple[Any, int]] = []
    i = 0
    while i < len(events):
        j = i + 1
        while j < len(events) and events[j][1] - events[i][1] <= lateness:
            j += 1
        out.extend(reversed(events[i:j]))
        i = j
    return out


def _final(monitor) -> Tuple[str, int, int, int]:
    return (
        monitor.verdict.value,
        monitor.accept_visits,
        monitor.events_released,
        monitor.verdict_flips,
    )


def _check_monitor(
    spec: Case, alphabet: Tuple[Any, ...], word: TimedWord
) -> Optional[str]:
    from ..stream.monitor import TBAMonitor

    tba = _case_tba(spec, alphabet)
    events = _events(word, _replay_len(word))
    for fw in F_WINDOWS:
        cv = _monitor_trace(TBAMonitor(tba, f_window=fw), events)
        iv = _monitor_trace(TBAMonitor(tba, f_window=fw, compiled=False), events)
        if cv != iv:
            return (
                f"f_window={fw}: compiled monitor trace {cv} != "
                f"interpreted {iv}"
            )
        # The ingest_many bulk scan must match the event-at-a-time loop.
        bulk = TBAMonitor(tba, f_window=fw)
        bulk_verdict = bulk.ingest_many(events)
        if (bulk_verdict.value, bulk.accept_visits) != (cv[0][-1], cv[1]):
            return (
                f"f_window={fw}: ingest_many says "
                f"({bulk_verdict.value}, {bulk.accept_visits}) but the "
                f"per-event loop says ({cv[0][-1]}, {cv[1]})"
            )
    # Out-of-order ingestion under a lateness bound: both stepping
    # paths see the same released sequence, and the reorder machinery
    # itself must agree with directly applying the release order.
    shuffled = _jittered(events, LATENESS)
    cl = TBAMonitor(tba, lateness=LATENESS)
    il = TBAMonitor(tba, lateness=LATENESS, compiled=False)
    ct = _monitor_trace(cl, shuffled)
    it = _monitor_trace(il, shuffled)
    if ct != it:
        return (
            f"lateness={LATENESS}: compiled monitor trace {ct} != "
            f"interpreted {it}"
        )
    cl.flush()
    il.flush()
    if _final(cl) != _final(il):
        return (
            f"lateness={LATENESS}: flushed compiled state {_final(cl)} != "
            f"interpreted {_final(il)}"
        )
    # The heap releases by (time, arrival); a stable sort by time of the
    # shuffled feed is exactly that order.
    direct = TBAMonitor(tba, compiled=False)
    for s, t in sorted(shuffled, key=lambda p: p[1]):
        direct.ingest(s, t)
    if (cl.verdict, cl.accept_visits) != (direct.verdict, direct.accept_visits):
        return (
            f"lateness={LATENESS}: buffered run ends "
            f"({cl.verdict.value}, {cl.accept_visits}) but direct release-"
            f"order replay ends ({direct.verdict.value}, {direct.accept_visits})"
        )
    # Genuinely late events under late_policy="drop": splice stale
    # copies into the feed, forcing ingest_many's mid-slice resume
    # hand-off — bulk, scalar, and interpreted must all tell one story.
    stale: List[Tuple[Any, int]] = []
    for i, (s, t) in enumerate(events):
        stale.append((s, t))
        if i % 2 == 1 and t > 0:
            stale.append((events[i // 2][0], max(t - 10, 0)))
    runs = []
    for kind in ("bulk", "scalar", "interpreted"):
        m = TBAMonitor(
            tba,
            late_policy="drop",
            compiled=False if kind == "interpreted" else None,
        )
        if kind == "bulk":
            m.ingest_many(stale)
        else:
            for s, t in stale:
                m.ingest(s, t)
        runs.append((_final(m), m.late_events, m.events_ingested))
    if len(set(runs)) != 1:
        return (
            f"late-drop feed diverges: bulk {runs[0]}, scalar {runs[1]}, "
            f"interpreted {runs[2]}"
        )
    return None


def _check_strategy(
    spec: Case, alphabet: Tuple[Any, ...], word: TimedWord
) -> Optional[str]:
    tba = _case_tba(spec, alphabet)
    machine = compiled_tba(tba, allow_nondeterministic=True)
    horizon = _horizon(word)
    online = decide(machine, word, strategy="online-incremental", horizon=horizon)
    batch = decide(machine, word, strategy="lasso-exact", horizon=horizon)
    a = (online.verdict, online.f_count, online.decided_at)
    b = (batch.verdict, batch.f_count, batch.decided_at)
    if a != b:
        return f"online-incremental reports {a} but lasso-exact reports {b}"
    truth = tba.accepts_lasso(word)
    if word.shift == 0:
        # Frozen-time lassos are resolved by exact region mathematics
        # (engine.strategies.resolve_zeno): the verdict must equal the
        # language answer, and the replay must not grind to the feeder
        # cap (it is cut off at machine.tape.zeno_event_cap).
        expect = Verdict.ACCEPT if truth else Verdict.REJECT
        if batch.verdict is not expect:
            return (
                f"zeno lasso: lasso-exact reports {batch.verdict} but "
                f"accepts_lasso says {truth}"
            )
        # resolve_zeno repairs the verdict of a replay cut too early,
        # so check the cut itself: the machine's own report on the
        # lasso must equal its report on ZENO_UNROLL unrollings fed as
        # a finite word, which no cap touches.
        cut = machine.decide(word, horizon=horizon)
        full = machine.decide(
            TimedWord.finite(
                word.take(len(word.prefix) + ZENO_UNROLL * len(word.loop))
            ),
            horizon=horizon,
        )
        a = (cut.verdict, cut.f_count, cut.decided_at, cut.space_peak)
        b = (full.verdict, full.f_count, full.decided_at, full.space_peak)
        if a != b:
            return (
                f"zeno lasso: the machine reports {a} cut at "
                f"{machine.zeno_unroll} unrollings but {b} after {ZENO_UNROLL}"
            )
    elif batch.verdict is Verdict.REJECT and truth:
        # Machine rejection means every tracked run died — sound for
        # any TBA, so it can never contradict the language answer.
        return "lasso-exact reports REJECT but accepts_lasso says True"
    detail = _check_table(machine, word, horizon)
    if detail is None and word.shift:
        frozen = _frozen(word)
        detail = _check_table(machine, frozen, _horizon(frozen))
        if detail is not None:
            detail = f"frozen variant {frozen!r}: {detail}"
    return detail


def _frozen(word: TimedWord) -> TimedWord:
    """``word`` with its loop's events at the loop's first instant and
    shift 0: the zeno shape a table pass stops at a repeated
    loop-boundary row and settles (at a negative horizon, from the end
    of the first loop iteration)."""
    return TimedWord.lasso(word.prefix, [(s, word.loop[0][1]) for s, _t in word.loop], 0)


def kernel_report(machine: Any, word: TimedWord, horizon: int) -> DecisionReport:
    """The kernel oracle for a ``lasso-exact`` report: the machine's own
    Definition 3.3 replay, with a frozen-time lasso settled on the
    interpreted automaton rather than on the successor table."""
    report = machine.decide(word, horizon=horizon)
    if zeno_event_cap(word) is not None:
        automaton_only = SimpleNamespace(source_tba=machine.source_tba)
        report = resolve_zeno(report, automaton_only, word)
    report.strategy = "lasso-exact"
    report.evidence.setdefault("discipline", "absorbing-verdict")
    return report


def _report_fields(report: DecisionReport) -> Tuple[Any, ...]:
    return (
        report.verdict,
        report.f_count,
        report.decided_at,
        report.space_peak,
        report.horizon,
        report.evidence,
    )


def _check_table(machine: Any, word: TimedWord, horizon: int) -> Optional[str]:
    """``lasso-exact`` on the successor table vs the kernel oracle."""
    if machine.successor_table is None:
        return "a case compiled to a machine without a successor table"
    inside = word.time_at(_replay_len(word) // 2)
    for h in (horizon, -1, 0, inside):
        table = _report_fields(decide(machine, word, strategy="lasso-exact", horizon=h))
        kernel = _report_fields(kernel_report(machine, word, h))
        if table != kernel:
            return f"horizon {h}: the successor table reports {table} but the kernel {kernel}"
    return None


def _check_shards(
    spec: Case,
    alphabet: Tuple[Any, ...],
    words: Sequence[TimedWord],
) -> Optional[str]:
    machine = compiled_tba(_case_tba(spec, alphabet), allow_nondeterministic=True)
    # A word-scaled horizon keeps each machine run to a few dozen
    # events (the default 10k-event horizon would dominate the sweep).
    horizon = max(_horizon(w) for w in words)
    serial = decide_many(machine, words, backend="serial", horizon=horizon)
    try:
        # The pool ships the machine as its automaton, and the batch
        # to its workers in slices.
        sharded = decide_many(
            machine, LassoBatch.of(words), backend="shards", workers=2, horizon=horizon
        )
    except Exception as exc:  # the serial side judged the same words
        return f"shards raised {exc!r} where serial judged every word"
    if len(serial) != len(sharded):
        return f"serial returns {len(serial)} reports but shards {len(sharded)}"
    for i, (a, b) in enumerate(zip(serial, sharded)):
        if _report_fields(a) != _report_fields(b):
            return (
                f"word {i}: serial reports {_report_fields(a)} but shards "
                f"{_report_fields(b)}"
            )
    return None


def _check_ladder(
    spec: Case, alphabet: Tuple[Any, ...], words: Sequence[TimedWord]
) -> Optional[str]:
    """``decide_many_resilient`` on the case's machine under a fault
    schedule seeded from the words vs serial ``decide_many``: one report
    per word, every unmarked one equal on every field, the marked ones
    exactly ``degraded_indices``, and a call with a deadline back within
    it plus one injected delay plus 1 s."""
    from ..engine import faults
    from ..engine.resilience import DegradePolicy, RetryPolicy, decide_many_resilient

    machine = compiled_tba(_case_tba(spec, alphabet), allow_nondeterministic=True)
    horizon = max(_horizon(w) for w in words)
    rng = random.Random(repr(words))
    fuse = faults.FileFuse(shots=rng.randint(0, 4))
    delay = rng.randint(1, 5) / 1000
    wrapper = rng.choice(("CrashingAcceptor", "FailingAcceptor", "DelayingAcceptor", None))
    arg = delay if wrapper == "DelayingAcceptor" else fuse
    acceptor = machine if wrapper is None else getattr(faults, wrapper)(machine, arg)
    knobs = dict(
        retry=RetryPolicy(rng.randint(0, 2), 0.001, 0.004, rng.random() < 0.5),
        degrade=DegradePolicy(rng.random() < 0.5, rng.choice((None, "long-prefix-empirical"))),
        workers=rng.randint(1, 2),
        chunk_size=rng.choice((None, 1, 2)),
        deadline_s=rng.choice((None, rng.uniform(0.005, 0.05))),
    )
    where = f"{wrapper} ({fuse.shots} shots, {delay} s), {knobs}"
    start = time.perf_counter()
    try:
        out = decide_many_resilient(acceptor, words, horizon=horizon, **knobs)
    finally:
        os.remove(fuse.path)
    took = time.perf_counter() - start
    serial = decide_many(machine, words, horizon=horizon)
    if len(out.reports) != len(serial):
        return f"{where}: {len(out.reports)} reports for {len(serial)} words"
    marked = [i for i, r in enumerate(out.reports) if "degraded" in r.evidence]
    if marked != out.degraded_indices:
        return f"{where}: reports {marked} are marked but degraded_indices is {out.degraded_indices}"
    for i, (a, b) in enumerate(zip(out.reports, serial)):
        if i not in marked and a != b:
            return f"{where}: word {i} reports {a!r} {a.evidence} but serial {b!r} {b.evidence}"
    slack = delay if wrapper == "DelayingAcceptor" else 0.0
    if knobs["deadline_s"] is not None and took > knobs["deadline_s"] + slack + 1.0:
        return f"{where}: returned after {took:.3f} s"
    return None


def _check_strategy_batch(
    spec: Case,
    alphabet: Tuple[Any, ...],
    words: Sequence[TimedWord],
) -> Optional[str]:
    """All of a case's words judged in one ``decide_many`` call on the
    case's machine, deterministic or not, vs :func:`kernel_report`
    word by word, at the case's horizon, at −1 and at 0."""
    machine = compiled_tba(_case_tba(spec, alphabet), allow_nondeterministic=True)
    words = list(words) + [_frozen(w) for w in words if w.shift]
    for h in (max(_horizon(w) for w in words), -1, 0):
        for i, (word, report) in enumerate(zip(words, decide_many(machine, words, horizon=h))):
            kernel = kernel_report(machine, word, h)
            kernel.evidence.update(seed=i, index=i)
            if _report_fields(report) != _report_fields(kernel):
                return (
                    f"decide_many at horizon {h}: word {i} reports "
                    f"{_report_fields(report)} but the kernel {_report_fields(kernel)}"
                )
    return None


def _check_checkpoint(
    spec: Case, alphabet: Tuple[Any, ...], word: TimedWord
) -> Optional[str]:
    from ..stream.checkpoint import checkpoint as save_snapshot
    from ..stream.checkpoint import checkpoint_mux, restore_mux
    from ..stream.checkpoint import restore as restore_snapshot
    from ..stream.monitor import TBAMonitor
    from ..stream.session import SessionMux

    tba = _case_tba(spec, alphabet)
    events = _events(word, _replay_len(word))
    cut = len(events) // 2
    baseline = TBAMonitor(tba, compiled=False)
    base_tail = _monitor_trace(baseline, events)
    # Save on one stepping path, restore on the other (and through a
    # JSON round-trip — snapshots must be path-neutral plain data).
    for save_compiled, load_compiled in ((False, None), (None, False)):
        first = TBAMonitor(tba, compiled=save_compiled)
        for s, t in events[:cut]:
            first.ingest(s, t)
        snap = json.loads(json.dumps(save_snapshot(first)))
        second = restore_snapshot(snap, tba=tba, compiled=load_compiled)
        tail = []
        for s, t in events[cut:]:
            tail.append(second.ingest(s, t).value)
        resumed = (
            base_tail[0][:cut] + tail,
            second.accept_visits,
            second.absorbed,
        )
        if resumed != base_tail:
            return (
                f"save(compiled={save_compiled})→restore"
                f"(compiled={load_compiled}) run {resumed} "
                f"!= uninterrupted {base_tail}"
            )
    # Checkpoint with a *non-empty reorder buffer*: out-of-order feed
    # under a lateness bound, snapshotted mid-window, must resume to
    # the same flushed state as the uninterrupted buffered run.
    shuffled = _jittered(events, LATENESS)
    whole = TBAMonitor(tba, lateness=LATENESS, compiled=False)
    for s, t in shuffled:
        whole.ingest(s, t)
    whole.flush()
    for save_compiled, load_compiled in ((False, None), (None, False)):
        first = TBAMonitor(tba, lateness=LATENESS, compiled=save_compiled)
        for s, t in shuffled[:cut]:
            first.ingest(s, t)
        snap = json.loads(json.dumps(save_snapshot(first)))
        second = restore_snapshot(snap, tba=tba, compiled=load_compiled)
        for s, t in shuffled[cut:]:
            second.ingest(s, t)
        second.flush()
        if _final(second) != _final(whole):
            return (
                f"buffered save(compiled={save_compiled})→restore"
                f"(compiled={load_compiled}) flushes to {_final(second)} "
                f"!= uninterrupted {_final(whole)}"
            )
    # A whole mux, halfway through the mux pair's feed, restored onto
    # the other stepping path (buffered sessions included under a
    # lateness bound).
    batches = _mux_feed(events)
    half = len(batches) // 2
    for lateness in (0, LATENESS):
        kw = dict(lateness=lateness, late_policy="drop")
        plain = SessionMux(tba, compiled=False, **kw)
        for batch in batches:
            for name, s, t in batch:
                plain.ingest(name, s, t)
        for save_compiled, load_compiled in ((False, None), (None, False)):
            first = SessionMux(tba, compiled=save_compiled, **kw)
            for batch in batches[:half]:
                first.ingest_batch(batch)
            snap = json.loads(json.dumps(checkpoint_mux(first)))
            second = restore_mux(snap, SessionMux(tba, compiled=load_compiled, **kw))
            for batch in batches[half:]:
                second.ingest_batch(batch)
            got, want = _mux_end(second), _mux_end(plain)
            if got != want:
                return (
                    f"lateness={lateness}: mux save(compiled={save_compiled})"
                    f"→restore(compiled={load_compiled}) after batch {half} "
                    f"ends at {got} != uninterrupted {want}"
                )
    return None


#: Sessions the ``mux`` pair replays each case word into.
MUX_SESSIONS = 5


def _mux_feed(events) -> List[List[Tuple[str, Any, int]]]:
    """Jittered copies of ``events`` in several sessions, interleaved
    in bursts (each session's order kept) and cut into batches of
    random sizes — so a batch may be a run of waves, a few deep
    slices, or carry late events for the scalar fallback.  Seeded by
    the events themselves: a pinned case replays the same feed."""
    rng = random.Random(repr(events))
    stale: List[Tuple[Any, int]] = []
    for i, (s, t) in enumerate(events):
        stale.append((s, t))
        if i % 3 == 2:
            stale.append((events[i // 2][0], max(t - 3, 0)))
    copies = [
        events,
        [(s, t + 1) for s, t in events],
        _jittered(events, LATENESS),
        stale,
        events[: len(events) // 2],
    ][:MUX_SESSIONS]
    queues = [[(f"s{k}", s, t) for s, t in c] for k, c in enumerate(copies)]
    feed: List[Tuple[str, Any, int]] = []
    while any(queues):
        q = rng.choice([q for q in queues if q])
        n = rng.randint(1, 8)
        feed.extend(q[:n])
        del q[:n]
    batches = []
    i = 0
    while i < len(feed):
        n = rng.choice((1, 3, 8, 24, 96))
        batches.append(feed[i : i + n])
        i += n
    return batches


def _session_state(m) -> Tuple[Any, ...]:
    return (
        m.verdict.value,
        sorted(m.configs, key=repr),
        m.prev_t,
        m.max_seen,
        m.events_ingested,
        m.events_released,
        m.late_events,
        m.accept_visits,
        m.verdict_flips,
        m._green_locked,
    )


def _mux_end(mux) -> Tuple[Any, ...]:
    """A mux's verdicts, ``stats()`` and every session's state."""
    states = {name: _session_state(mux.monitor(name)) for name in mux.active}
    return mux.verdicts(), mux.stats(), states


def _check_mux(
    spec: Case, alphabet: Tuple[Any, ...], word: TimedWord
) -> Optional[str]:
    """Batched mux vs scalar mux: ``ingest_batch`` on the shared
    compiled table against a loop of ``ingest`` on the interpreter."""
    from ..stream.session import SessionMux

    tba = _case_tba(spec, alphabet)
    batches = _mux_feed(_events(word, _replay_len(word)))
    for fw in F_WINDOWS:
        batched = SessionMux(tba, late_policy="drop", f_window=fw)
        scalar = SessionMux(tba, late_policy="drop", f_window=fw, compiled=False)
        for k, batch in enumerate(batches):
            batched.ingest_batch(batch)
            for name, s, t in batch:
                scalar.ingest(name, s, t)
            if batched.verdicts() != scalar.verdicts():
                return (
                    f"f_window={fw}: after batch {k} ({len(batch)} events) "
                    f"ingest_batch says {batched.verdicts()} but scalar "
                    f"ingest says {scalar.verdicts()}"
                )
        if batched.stats() != scalar.stats():
            return (
                f"f_window={fw}: batched stats {batched.stats()} != "
                f"scalar {scalar.stats()}"
            )
        for name in scalar.active:
            b = _session_state(batched.monitor(name))
            s = _session_state(scalar.monitor(name))
            if b != s:
                return (
                    f"f_window={fw}: session {name} ends batched at {b} but "
                    f"scalar at {s}"
                )
    return None


def _recovery_schedule(batches, rng: random.Random) -> List[Tuple[str, Any]]:
    """The ``mux`` pair's batches with seeded lifecycle steps between
    them, and one private-query ``open`` at a random place."""
    top = max((t for b in batches for _n, _s, t in b), default=0) + 10
    ops = ("close", "evict", "drain", "checkpoint", "recover", "fail_over", "rebalance")
    steps: List[Tuple[str, Any]] = []
    for batch in batches + [[]]:
        while rng.random() < 0.4:
            op = rng.choice(ops)
            if op == "evict":
                arg: Any = (rng.choice((None, rng.randint(0, top))), rng.randint(1, 10))
            elif op == "rebalance":
                arg = rng.randint(1, 4)
            else:
                arg = rng.random()  # which session to close, or shard to kill
            steps.append((op, arg))
        steps.append(("batch", batch))
    steps.insert(rng.randrange(len(steps) + 1), ("open", None))
    return steps


def _lifecycle(front, ref, op: str, arg: Any) -> Optional[str]:
    """Close a random active session, or evict, on ``front`` and on the
    reference mux; how the two differ, or ``None``."""
    if op == "close" and ref.active:
        name = sorted(ref.active)[int(arg * len(ref.active))]
        got, want = front.close_session(name), ref.close(name)
    elif op == "evict":
        got, want = sorted(front.evict_idle(*arg)), sorted(ref.evict_idle(*arg))
    else:
        return None
    return None if got == want else f"{op} {arg} gives {got} but one mux {want}"


def _recovery_supervisor(tba, steps, events, query, rng) -> Optional[str]:
    from ..stream.session import SessionMux
    from ..stream.supervisor import MuxSupervisor

    every = rng.choice((1, 7, 30, 10_000))
    ref = SessionMux(tba, late_policy="drop", compiled=False)
    sup = MuxSupervisor(
        lambda: SessionMux(tba, late_policy="drop"), checkpoint_every=every
    )
    private: List[Tuple[str, Any, int]] = []
    for k, (op, arg) in enumerate(steps):
        where = f"supervisor (checkpoint_every={every}), step {k} {op}"
        if op == "batch":
            batch = arg + private[:4]
            del private[:4]
            if rng.random() < 0.5:
                got = [sup.ingest(*e).value for e in batch]
                want = [ref.ingest(*e).value for e in batch]
                if got != want:
                    return f"{where}: ingest says {got} but one mux {want}"
            else:
                sup.ingest_batch(batch)
                for e in batch:
                    ref.ingest(*e)
        elif op == "open":
            sup.open("q", query)
            ref.open("q", query)
            private = [("q", s, t) for s, t in events]
        elif op == "drain":
            got, want = sup.drain_evictions(), ref.drain_evictions()
            if got != want:
                return f"{where}: drains {got} but one mux {want}"
        elif op == "checkpoint":
            sup.checkpoint()
        elif op in ("recover", "fail_over"):
            sup.crash()
            sup.recover()
        else:
            detail = _lifecycle(sup, ref, op, arg)
            if detail is not None:
                return f"{where}: {detail}"
        got, want = (sup.verdicts(), sup.mux.stats()), (ref.verdicts(), ref.stats())
        if got != want:
            return f"{where}: reads {got} but one mux {want}"
    got, want = _mux_end(sup.mux), _mux_end(ref)
    if got != want:
        return f"supervisor ends at {got} != one mux {want}"
    return None


def _recovery_router(tba, steps, rng) -> Optional[str]:
    from ..shard import ShardError, ShardRouter
    from ..stream.session import SessionMux

    knobs = dict(
        n_shards=rng.randint(2, 4),
        batch_events=rng.choice((1, 4, 16, 64)),
        chunk_events=rng.choice((3, 50, 512)),
        checkpoint_every=rng.choice((None, None, 30, 5)),
    )
    ref = SessionMux(tba, late_policy="drop", compiled=False)
    with ShardRouter(tba, mux_kwargs={"late_policy": "drop"}, **knobs) as router:
        for k, (op, arg) in enumerate(steps):
            where = f"router {knobs}, step {k} {op}"
            try:
                if op == "batch":
                    router.ingest_batch(arg)
                    for e in arg:
                        ref.ingest(*e)
                elif op == "checkpoint":
                    router.checkpoint()
                elif op == "recover" or (op == "fail_over" and router.n_shards > 1):
                    victim = router.shard_ids[int(arg * router.n_shards)]
                    router.crash(victim)
                    getattr(router, op)(victim)
                elif op == "rebalance":
                    router.rebalance(arg)
                elif op == "drain":
                    got, want = router.drain_evictions(), ref.drain_evictions()
                    # The shards interleave: compare as multisets.
                    if sorted(got, key=repr) != sorted(want, key=repr):
                        return f"{where}: drains {got} but one mux {want}"
                else:
                    detail = _lifecycle(router, ref, op, arg)
                    if detail is not None:
                        return f"{where}: {detail}"
                got = (router.verdicts(), router.stats())
            except ShardError as exc:
                return f"{where}: router raised {exc}"
            want = (ref.verdicts(), ref.stats())
            if got != want:
                return f"{where}: reads {got} but one mux {want}"
    return None


def _check_recovery(
    case: Tuple[Case, str], alphabet: Tuple[Any, ...], word: TimedWord
) -> Optional[str]:
    """The ``mux`` pair's feed under a seeded lifecycle schedule through
    a supervisor and a 2–4 shard router, each against one
    uninterrupted ``SessionMux(compiled=False)``; the supervisor side
    also runs a private-query session (``case`` is the spec and that
    session's query text)."""
    spec, query = case
    tba = _case_tba(spec, alphabet)
    events = _events(word, _replay_len(word))
    batches = _mux_feed(events)
    rng = random.Random(repr(batches))
    steps = _recovery_schedule(batches, rng)
    return _recovery_supervisor(tba, steps, events, query, rng) or _recovery_router(
        tba, steps, rng
    )


class _Headline:
    """A plan's headline, derived from its channels' independent
    monitors: REJECTED iff every channel's monitor is; otherwise
    ACCEPTING iff one is green-locked or the newest accepting visit of
    any lies within ``f_window`` (any visit so far without one);
    otherwise INCONCLUSIVE.  An event is an accepting visit iff some
    channel's monitor visited an accepting state on it; flips count as
    ``verdict_flips`` does, the initial judgement included.  The plan
    is green-locked iff some channel's monitor is, and absorbed iff
    every one is — a lock the verdict alone hides, since a green
    channel sits in an accepting sink."""

    def __init__(self, monitors: List[Any], f_window: Optional[int]):
        from ..stream.monitor import StreamVerdict

        self.monitors = monitors
        self.f_window = f_window
        self.verdict = StreamVerdict.INCONCLUSIVE
        self.flips = 0
        self.visits = 0
        self._seen = 0
        self.step(0)

    def step(self, t: int) -> None:
        """Account for the event at ``t`` every monitor just applied."""
        from ..stream.monitor import StreamVerdict

        ms = self.monitors
        seen = sum(m.accept_visits for m in ms)
        self.visits += seen > self._seen
        self._seen = seen
        lats = [m._last_accept_time for m in ms if m._last_accept_time is not None]
        fw = self.f_window
        if all(m.verdict is StreamVerdict.REJECTED for m in ms):
            v = StreamVerdict.REJECTED
        elif any(m._green_locked for m in ms) or (
            lats and (fw is None or t - max(lats) <= fw)
        ):
            v = StreamVerdict.ACCEPTING
        else:
            v = StreamVerdict.INCONCLUSIVE
        if v is not self.verdict:
            self.verdict = v
            self.flips += 1

    def mismatch(self, plan_monitor: Any) -> Optional[str]:
        """How ``plan_monitor``'s headline and visit counts differ from
        the derived ones (``None`` if they agree)."""
        ms = self.monitors
        got = (
            plan_monitor.verdict.value,
            plan_monitor.verdict_flips,
            plan_monitor.accept_visits,
            plan_monitor.channel_accept_visits(),
            bool(plan_monitor._green_locked),
            plan_monitor.absorbed,
        )
        want = (
            self.verdict.value,
            self.flips,
            self.visits,
            dict(zip(plan_monitor.plan.names, (m.accept_visits for m in ms))),
            any(m._green_locked for m in ms),
            all(m.absorbed for m in ms),
        )
        if got == want:
            return None
        return (
            f"(verdict, flips, accept_visits, channel_accept_visits, "
            f"green lock, absorbed) is {got} but the independent monitors "
            f"derive {want}"
        )


def _check_query_mux(
    queries: Dict[str, Any], alphabet: Tuple[Any, ...], word: TimedWord
) -> Optional[str]:
    """A fused plan mux fed by ``ingest_batch`` vs one scalar mux per
    query: every session's ``query_verdicts()`` and derived headline
    (:class:`_Headline`) after every batch."""
    from ..query import QueryPlan
    from ..stream.session import SessionMux

    plan = QueryPlan(queries, alphabet)
    batches = _mux_feed(_events(word, _replay_len(word)))
    for compiled in (None, False):
        fused = SessionMux(plan=plan, late_policy="drop", compiled=compiled)
        singles = {
            name: SessionMux(q.tba(alphabet), late_policy="drop", compiled=False)
            for name, q in queries.items()
        }
        headlines: Dict[str, _Headline] = {}
        for k, batch in enumerate(batches):
            fused.ingest_batch(batch)
            for name, s, t in batch:
                head = headlines.get(name)
                if head is None:
                    head = headlines[name] = _Headline(
                        [mux.open(name) for mux in singles.values()], None
                    )
                released = head.monitors[0].events_released
                for mux in singles.values():
                    mux.ingest(name, s, t)
                if head.monitors[0].events_released > released:
                    head.step(t)
            for name in fused.active:
                got = fused.monitor(name).query_verdicts()
                want = {q: mux.monitor(name).verdict for q, mux in singles.items()}
                if got != want:
                    return (
                        f"compiled={compiled}: after batch {k} session {name} "
                        f"has fused verdicts "
                        f"{ {q: v.value for q, v in got.items()} } but "
                        f"per-query muxes say "
                        f"{ {q: v.value for q, v in want.items()} }"
                    )
                detail = headlines[name].mismatch(fused.monitor(name))
                if detail is not None:
                    return f"compiled={compiled}: after batch {k} session {name}'s {detail}"
    return None


def _check_query_roundtrip(query: Any, alphabet: Tuple[Any, ...], words: List[TimedWord]) -> Optional[str]:
    """Text grammar vs fluent builder: ``parse(to_text(q))`` must lower
    to the identical combinator spec (no word takes part)."""
    from ..query import parse

    text = query.to_text()
    back = parse(text)
    if back.spec() != query.spec():
        return (
            f"parse({text!r}) lowers to {to_source(back.spec())} but the "
            f"builder query lowers to {to_source(query.spec())}"
        )
    return None


def _check_query_plan(
    queries: Dict[str, Any], alphabet: Tuple[Any, ...], word: TimedWord
) -> Optional[str]:
    """Fused plan vs independent monitors: per-event ``query_verdicts``
    streams and the derived headline (:class:`_Headline`) must match on
    both stepping paths, and the plan monitor's bulk scan must land
    where its scalar loop does."""
    from ..query import QueryPlan
    from ..stream.monitor import TBAMonitor

    plan = QueryPlan(queries, alphabet)
    events = _events(word, _replay_len(word))
    scalar_final = None
    for compiled in (None, False):
        pm = plan.monitor(compiled=compiled)
        singles = {
            name: TBAMonitor(q.tba(alphabet), compiled=compiled)
            for name, q in queries.items()
        }
        head = _Headline(list(singles.values()), pm.f_window)
        detail = head.mismatch(pm)
        if detail is not None:
            return f"compiled={compiled}: before any event the plan's {detail}"
        for s, t in events:
            pm.ingest(s, t)
            got = pm.query_verdicts()
            want = {name: m.ingest(s, t) for name, m in singles.items()}
            if got != want:
                return (
                    f"compiled={compiled}: after ({s!r}, {t}) the fused "
                    f"plan says { {k: v.value for k, v in got.items()} } "
                    f"but independent monitors say "
                    f"{ {k: v.value for k, v in want.items()} }"
                )
            head.step(t)
            detail = head.mismatch(pm)
            if detail is not None:
                return f"compiled={compiled}: after ({s!r}, {t}) the plan's {detail}"
        if scalar_final is None:
            scalar_final = pm.query_verdicts()
    bulk = plan.monitor()
    bulk.ingest_many(events)
    if bulk.query_verdicts() != scalar_final:
        return (
            f"plan ingest_many ends at "
            f"{ {k: v.value for k, v in bulk.query_verdicts().items()} } "
            f"but the per-event loop ends at "
            f"{ {k: v.value for k, v in scalar_final.items()} }"
        )
    return None


# -- counterexample minimization ---------------------------------------

def _word_shrinks(word: TimedWord) -> Iterator[TimedWord]:
    prefix, pairs, shift = list(word.prefix), list(word.loop), word.shift
    for i in range(len(prefix)):
        yield TimedWord.lasso(prefix[:i] + prefix[i + 1 :], pairs, shift)
    if len(pairs) > 1:
        for i in range(len(pairs)):
            # Removing a loop pair only shrinks the span, so the old
            # shift keeps the iterations monotone.
            yield TimedWord.lasso(prefix, pairs[:i] + pairs[i + 1 :], shift)
    span = pairs[-1][1] - pairs[0][1]
    if shift > span:
        yield TimedWord.lasso(prefix, pairs, span)
    # Tighten one gap at a time (keeps monotonicity: later times drop by
    # the same amount the gap lost).
    times = [t for _, t in prefix] + [t for _, t in pairs]
    for i in range(1, len(times)):
        if times[i] > times[i - 1]:
            squeezed = times[: i] + [t - 1 for t in times[i:]]
            np = [(s, squeezed[j]) for j, (s, _) in enumerate(prefix)]
            nl = [
                (s, squeezed[len(prefix) + j]) for j, (s, _) in enumerate(pairs)
            ]
            yield TimedWord.lasso(np, nl, shift)


def _words_shrinks(word: Any) -> Iterator[Any]:
    """Shrinks of one word, or of a list of words: drop a word, then
    shrink one."""
    if isinstance(word, TimedWord):
        yield from _word_shrinks(word)
        return
    for i in range(len(word) if len(word) > 1 else 0):
        yield word[:i] + word[i + 1 :]
    for i, w in enumerate(word):
        for s in _word_shrinks(w):
            yield word[:i] + [s] + word[i + 1 :]


def _spec_shrinks(spec: Spec) -> Iterator[Spec]:
    from .combinators import Alt, Both, Eventually, Loop, RTBound, Seq

    if isinstance(spec, (Alt, Both)):
        for p in spec.parts:
            yield p
        rebuild = alt if isinstance(spec, Alt) else both
        for i, p in enumerate(spec.parts):
            for sp in _spec_shrinks(p):
                parts = spec.parts[:i] + (sp,) + spec.parts[i + 1 :]
                yield rebuild(*parts)
        return
    if isinstance(spec, (Loop, Eventually)):
        rebuild = loop if isinstance(spec, Loop) else eventually
        phases = spec.body.phases
        if len(phases) > 1:
            for i in range(len(phases)):
                yield rebuild(Seq(phases[:i] + phases[i + 1 :]))
        for i, p in enumerate(phases):
            smaller = []
            if p.lo > 0:
                smaller.append(RTBound(p.action, 0, p.hi))
            if p.hi > p.lo:
                smaller.append(RTBound(p.action, p.lo, p.hi - 1))
            for sp in smaller:
                yield rebuild(Seq(phases[:i] + (sp,) + phases[i + 1 :]))


def _tba_shrinks(tba: TimedBuchiAutomaton) -> Iterator[TimedBuchiAutomaton]:
    """Smaller raw automata: drop a transition, erase a guard, clear a
    reset set, drop an accepting state (the structural analogues of the
    spec shrinks)."""

    def rebuild(transitions, accepting):
        return TimedBuchiAutomaton(
            alphabet=tuple(sorted(tba.alphabet, key=repr)),
            states=tuple(sorted(tba.states, key=repr)),
            initial=tba.initial,
            transitions=transitions,
            clocks=tba.clocks,
            accepting=accepting,
        )

    trs = tba.transitions
    for i in range(len(trs)):
        yield rebuild(trs[:i] + trs[i + 1 :], tba.accepting)
    for i, tr in enumerate(trs):
        if not isinstance(tr.guard, TrueConstraint):
            eased = TimedTransition.make(
                tr.source, tr.target, tr.symbol, resets=tr.resets
            )
            yield rebuild(trs[:i] + [eased] + trs[i + 1 :], tba.accepting)
        if tr.resets:
            bare = TimedTransition(
                tr.source, tr.target, tr.symbol, frozenset(), tr.guard
            )
            yield rebuild(trs[:i] + [bare] + trs[i + 1 :], tba.accepting)
    if len(tba.accepting) > 1:
        for s in sorted(tba.accepting, key=repr):
            yield rebuild(trs, tba.accepting - {s})


def _case_shrinks(case: Case) -> Iterator[Case]:
    if isinstance(case, TimedBuchiAutomaton):
        return _tba_shrinks(case)
    return _spec_shrinks(case)


def _plan_shrinks(queries: Dict[str, Any]) -> Iterator[Dict[str, Any]]:
    """Smaller plans: drop a query, or shrink one chain the way
    :func:`_spec_shrinks` shrinks its lowered spec."""
    from ..query.builder import ChainQuery, QStep
    from .combinators import Loop

    if len(queries) > 1:
        for name in queries:
            yield {k: q for k, q in queries.items() if k != name}
    for name, q in queries.items():
        for s in _spec_shrinks(q.spec()):
            steps = tuple(QStep(p.action, p.lo, p.hi) for p in s.body.phases)
            mode = "repeat" if isinstance(s, Loop) else "once"
            yield {**queries, name: ChainQuery(steps, mode)}


# -- source forms ----------------------------------------------------

def _guard_source(guard: Any) -> str:
    if isinstance(guard, TrueConstraint):
        return "TrueConstraint()"
    if isinstance(guard, Le):
        return f"Le({guard.clock!r}, {guard.bound!r})"
    if isinstance(guard, Ge):
        return f"Ge({guard.clock!r}, {guard.bound!r})"
    if isinstance(guard, Not):
        return f"Not({_guard_source(guard.inner)})"
    if isinstance(guard, And):
        return f"And({_guard_source(guard.left)}, {_guard_source(guard.right)})"
    raise ValueError(f"unknown guard {guard!r}")


def case_source(case: Case, indent: str = "") -> str:
    """Reconstructible source for a case (spec combinators, or a
    ``TimedBuchiAutomaton(...)`` literal for raw automata)."""
    if not isinstance(case, TimedBuchiAutomaton):
        return to_source(case)
    pad = indent + "    "
    lines = [f"{pad}TimedTransition.make({tr.source!r}, {tr.target!r}, "
             f"{tr.symbol!r}, resets={tuple(sorted(tr.resets))!r}, "
             f"guard={_guard_source(tr.guard)}),"
             for tr in case.transitions]
    body = "\n".join(lines)
    return (
        f"TimedBuchiAutomaton(\n"
        f"{indent}    alphabet={tuple(sorted(case.alphabet, key=repr))!r},\n"
        f"{indent}    states={tuple(sorted(case.states, key=repr))!r},\n"
        f"{indent}    initial={case.initial!r},\n"
        f"{indent}    transitions=[\n{body}\n{indent}    ],\n"
        f"{indent}    clocks={case.clocks!r},\n"
        f"{indent}    accepting={tuple(sorted(case.accepting, key=repr))!r},\n"
        f"{indent})"
    )


def _repr_source(case: Any, indent: str = "") -> str:
    return repr(case)


# -- the registry ------------------------------------------------------

@dataclass(frozen=True)
class Pair:
    """One oracle pair, declared once: all the sweep, :func:`check_pair`,
    the minimizer and the printed regression know of it."""

    #: The generators (:data:`GENS`) it runs under.
    gens: Tuple[str, ...]
    #: The case it judges in a drawn :class:`Sample`, and its words.
    pick: Callable[[Sample], Tuple[Any, List[TimedWord]]]
    #: ``word(case, alphabet, word)``, run on each word; ``None`` agrees.
    word: Optional[Callable[..., Optional[str]]] = None
    #: ``batch(case, alphabet, words)``, run once on all of them.
    batch: Optional[Callable[..., Optional[str]]] = None
    #: Whether a case has anything to compare; the rest count as skipped.
    applies: Callable[[Any], bool] = lambda case: True
    #: Smaller cases, for the minimizer.
    shrinks: Callable[[Any], Iterator[Any]] = _case_shrinks
    #: ``source(case, indent)``: the case as Python source.
    source: Callable[..., str] = case_source


def _drawn(s: Sample) -> Tuple[Case, List[TimedWord]]:
    return s.case, s.words


def _recovery_case(s: Sample) -> Tuple[Tuple[Case, str], List[TimedWord]]:
    """The ``recovery`` case: the spec plus the text of its private-query
    session (the case's query under ``gen="query"``, else one over the
    alphabet)."""
    text = " | ".join(f"repeat({a} within 2)" for a in s.alphabet)
    return (s.case, text if s.query is None else s.query.to_text()), s.words


def _plan(s: Sample) -> Tuple[Dict[str, Any], List[TimedWord]]:
    return s.plan, [s.plan_word]


#: The differential oracle pairs, in the order the CLI reports them.
PAIRS: Dict[str, Pair] = {
    "semantics": Pair(GENS, _drawn, word=_check_semantics),
    "monitor": Pair(GENS, _drawn, word=_check_monitor, applies=lambda case: compilation_enabled()),
    "strategy": Pair(GENS, _drawn, word=_check_strategy, batch=_check_strategy_batch),
    "shards": Pair(GENS, _drawn, batch=_check_shards),
    "ladder": Pair(GENS, _drawn, batch=_check_ladder),
    "checkpoint": Pair(GENS, _drawn, word=_check_checkpoint),
    "mux": Pair(GENS, _drawn, word=_check_mux),
    "recovery": Pair(
        GENS,
        _recovery_case,
        word=_check_recovery,
        shrinks=lambda case: ((c, case[1]) for c in _case_shrinks(case[0])),
        source=lambda case, indent="": f"({case_source(case[0], indent)}, {case[1]!r})",
    ),
    "query-roundtrip": Pair(
        ("query",),
        lambda s: (s.query, []),
        batch=_check_query_roundtrip,
        shrinks=lambda query: iter(()),
        source=_repr_source,
    ),
    "query-plan": Pair(
        ("query",), _plan, word=_check_query_plan, shrinks=_plan_shrinks, source=_repr_source
    ),
    "query-mux": Pair(
        ("query",), _plan, word=_check_query_mux, shrinks=_plan_shrinks, source=_repr_source
    ),
}


def check_pair(pair: str, case: Case, alphabet: Sequence[Any], word: Any) -> Optional[str]:
    """Run one oracle pair on one case; ``None`` means agreement, or
    nothing to compare (a case the pair does not apply to).

    ``case`` is what the pair judges (:data:`PAIRS`): a combinator
    :class:`Spec` or a raw :class:`TimedBuchiAutomaton`, a ``(spec,
    query text)`` pair for ``recovery``, a builder query for
    ``query-roundtrip``, a plan's ``{name: query}`` for ``query-plan``
    and ``query-mux``.  ``word`` is one :class:`TimedWord` for the
    pair's word check, or a list of them for its batch check (a pair
    without one checks each word).  Printed regressions pin this entry
    point.
    """
    p = PAIRS.get(pair)
    if p is None:
        raise ValueError(f"unknown pair {pair!r}; known: {tuple(PAIRS)}")
    alpha = tuple(alphabet)
    if not p.applies(case):
        return None
    if isinstance(word, TimedWord) and p.word is not None:
        return p.word(case, alpha, word)
    words = [word] if isinstance(word, TimedWord) else list(word)
    if p.batch is not None:
        return p.batch(case, alpha, words)
    for w in words:
        detail = p.word(case, alpha, w)
        if detail is not None:
            return detail
    return None


def clear_caches() -> None:
    """Drop what the checks share between calls — ``to_tba``'s memo and
    the engine cache of analyses, their tables and compiled machines —
    so the next check builds every automaton from empty caches."""
    clear_engine_caches()
    _to_tba_cached.cache_clear()


def _disagrees(pair: str, case: Case, alphabet: Sequence[Any], word: Any) -> Optional[str]:
    """:func:`check_pair` from empty caches, with a check that crashes
    read as agreement (a shrink that crashes is a different case)."""
    clear_caches()
    try:
        return check_pair(pair, case, alphabet, word)
    except Exception:
        return None


def minimize(
    pair: str, case: Case, alphabet: Sequence[Any], word: Any
) -> Tuple[Case, Any, str]:
    """Greedily shrink a disagreeing case and its word, or list of
    words, while it still disagrees from empty caches: the words first,
    then the case by the pair's shrinks."""
    detail = _disagrees(pair, case, alphabet, word)
    assert detail is not None, "minimize() needs a disagreeing case"
    changed = True
    while changed:
        changed = False
        smaller = chain(
            ((case, w) for w in _words_shrinks(word)),
            ((c, word) for c in PAIRS[pair].shrinks(case)),
        )
        for c, w in smaller:
            d = _disagrees(pair, c, alphabet, w)
            if d is not None:
                case, word, detail, changed = c, w, d, True
                break
    return case, word, detail


def _disagreement(
    pair: str, case: Case, alphabet: Tuple[Any, ...], word: Any, detail: str
) -> Disagreement:
    """The record of a disagreement the sweep found: minimized when it
    disagrees again from empty caches, else the first check's detail
    with a note and no test (a fault only the warm caches show)."""
    if _disagrees(pair, case, alphabet, word) is None:
        note = "did not reproduce when checked again from empty caches, so not minimized"
        return Disagreement(pair, case, alphabet, word, f"{detail} [{note}]", False)
    case, word, detail = minimize(pair, case, alphabet, word)
    return Disagreement(pair, case, alphabet, word, detail)


#: What a printed regression may import; a line is printed when one of
#: its names is called.
_IMPORTS = (
    ("repro.automata", "TimedBuchiAutomaton", "TimedTransition"),
    ("repro.kernel.clock", "And", "Ge", "Le", "Not", "TrueConstraint"),
    ("repro.query.builder", "AndQuery", "ChainQuery", "OrQuery", "QStep"),
    ("repro.spec", "alt", "both", "eventually", "loop", "rt_bound", "seq"),
    ("repro.spec.conformance", "check_pair", "clear_caches"),
    ("repro.words", "TimedWord"),
)


def regression_source(pair: str, case: Case, alphabet: Sequence[Any], word: Any) -> str:
    """A ready-to-paste pytest function that re-runs the check that
    disagreed, from empty caches: the word check on ``word``, or the
    batch check on a list of words.  It passes once the fault is
    fixed."""
    if isinstance(word, list):
        lines = "".join(f"        {_word_source(w)},\n" for w in word)
        arg, words = "words", f"    words = [\n{lines}    ]\n"
    else:
        arg, words = "word", f"    word = {_word_source(word)}\n"
    body = (
        f"    case = {PAIRS[pair].source(case, '    ')}\n{words}"
        f"    clear_caches()\n"
        f"    assert check_pair({pair!r}, case, {tuple(alphabet)!r}, {arg}) is None\n"
    )
    imports = "".join(
        f"    from {module} import {', '.join(used)}\n"
        for module, *names in _IMPORTS
        if (used := [n for n in names if re.search(rf"\b{n}[(.]", body)])
    )
    name = f"test_conformance_{pair.replace('-', '_')}_regression"
    return f"def {name}():\n    # minimized by repro.spec.conformance\n{imports}{body}"


# -- the sweep ---------------------------------------------------------

@dataclass
class SweepStats:
    cases: int = 0
    checks: Dict[str, int] = field(default_factory=dict)
    #: Checks with nothing to compare: the pair does not apply to the case.
    skipped: Dict[str, int] = field(default_factory=dict)
    disagreements: List[Disagreement] = field(default_factory=list)


def run(
    seed: int = 0,
    cases: int = 200,
    pairs: Optional[Sequence[str]] = None,
    words_per_case: int = 3,
    depth: int = 2,
    gen: str = "spec",
    log: Callable[[str], None] = lambda line: None,
) -> SweepStats:
    """The conformance sweep: ``cases`` cases drawn by generator ``gen``
    (:func:`draw`), each judged by every pair in ``pairs`` (by default
    every pair that runs under ``gen``): a pair's batch check once on
    its case's words, its word check on each word."""
    if gen not in GENS:
        raise ValueError(f"unknown gen {gen!r}; known: {GENS}")
    if pairs is None:
        pairs = [name for name, p in PAIRS.items() if gen in p.gens]
    for name in pairs:
        if name not in PAIRS:
            raise ValueError(f"unknown pair {name!r}; known: {tuple(PAIRS)}")
        if gen not in PAIRS[name].gens:
            raise ValueError(f"pair {name!r} does not run under gen {gen!r}")
    rng = random.Random(seed)
    stats = SweepStats(checks=dict.fromkeys(pairs, 0), skipped=dict.fromkeys(pairs, 0))
    for n in range(cases):
        stats.cases += 1
        sample = draw(rng, gen, depth, words_per_case)
        for name in pairs:
            pair = PAIRS[name]
            case, words = pair.pick(sample)
            runs = ([words] if pair.batch else []) + (words if pair.word else [])
            if not pair.applies(case):
                stats.skipped[name] += len(runs)
                continue
            for word in runs:
                stats.checks[name] += 1
                detail = check_pair(name, case, sample.alphabet, word)
                if detail is not None:
                    log(f"case {n}: DISAGREEMENT {name}, minimizing…")
                    stats.disagreements.append(
                        _disagreement(name, case, sample.alphabet, word, detail)
                    )
                    break
    return stats


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.spec.conformance",
        description="Differential conformance fuzzing across the repo's "
        "decision paths.",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--cases", type=int, default=200)
    parser.add_argument(
        "--pairs",
        default="",
        help=f"comma-separated subset of {','.join(PAIRS)} "
        "(default: every pair that runs under --gen)",
    )
    parser.add_argument("--words-per-case", type=int, default=3)
    parser.add_argument(
        "--depth",
        type=int,
        default=2,
        help="grammar nesting depth for generated specs (default 2)",
    )
    parser.add_argument(
        "--gen",
        choices=GENS,
        default="spec",
        help="case generator: combinator specs (default), raw random TBAs "
        "or builder queries",
    )
    args = parser.parse_args(argv)
    stats = run(
        seed=args.seed,
        cases=args.cases,
        pairs=[p for p in args.pairs.split(",") if p] or None,
        words_per_case=args.words_per_case,
        depth=args.depth,
        gen=args.gen,
        log=lambda line: print(line, file=sys.stderr),
    )
    for pair, checks in stats.checks.items():
        bad = sum(d.pair == pair for d in stats.disagreements)
        print(
            f"{pair:16s} {checks:6d} checks {stats.skipped[pair]:6d} skipped  "
            f"{bad} disagreement(s)"
        )
    for d in stats.disagreements:
        print()
        print(d.describe())
    print(
        f"\n{stats.cases} cases, seed {args.seed}: "
        + (
            f"{len(stats.disagreements)} DISAGREEMENT(S)"
            if stats.disagreements
            else "all decision paths agree"
        )
    )
    return 1 if stats.disagreements else 0


if __name__ == "__main__":
    raise SystemExit(main())
