"""Compiling a timed Büchi automaton into a real-time algorithm.

Section 3.1.1 argues that Definition 3.3's machines need no clock set:
"a real-time algorithm has access to storage space, hence it can use
(part of) this storage for time-keeping purposes."  This module makes
the claim executable: :func:`tba_to_algorithm` produces a
:class:`~repro.machine.rtalgorithm.RealTimeAlgorithm` that simulates
the TBA — clock valuations live in working storage, guards are
evaluated against elapsed input time, and the subset of reachable
configurations is tracked on the fly.

Judging Büchi acceptance operationally: the program writes f whenever
the reachable configuration set contains an accepting state.  For
*deterministic* TBAs this is exact — the unique run visits F
infinitely often iff the tracked configuration is accepting infinitely
often — and :func:`tba_to_algorithm` verifies determinism by default.
(For nondeterministic TBAs the config-set proxy overapproximates:
infinitely many f's certify that accepting *configurations* recur, not
that one run threads them; pass ``allow_nondeterministic=True`` to use
it as a semi-decision anyway.)

A deterministic TBA also bounds how much of a frozen-time lasso the
machine must read: :func:`zeno_unroll` derives the loop unrollings
after which its run has died or shown every configuration it ever
will, and the compiled machine carries that count for the tape's
:func:`~repro.machine.tape.zeno_event_cap`.

The machine's working storage holds one configuration set and the
previous input instant, so its whole computation on a word is a walk
over successor cells.  Every compiled machine carries those cells as
its ``successor_table``, a :class:`~repro.stream.compiled.CompiledTBA`
built without a liveness analysis: one row per configuration set the
machine has reached, each cell filled on demand from the same
``_step_configs`` call the program makes.  The ``lasso-exact``
strategy judges a whole :class:`~repro.words.batch.LassoBatch` of
lasso words on it in one pass (:func:`decide_on_table`), deterministic
source or not, without building a simulator: a frozen-time lasso
stops at its first repeated loop-boundary row, and a deterministic
source's is settled on the same rows
(:meth:`~repro.stream.compiled.CompiledTBA.accepts_from`).  The kernel
replay of :meth:`~repro.machine.rtalgorithm.RealTimeAlgorithm.decide`
stays the Definition 3.3 oracle the table is checked against
(``docs/performance.md``, "Decide on the table" and "Decide in one
pass").
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Any, Generator, List, Set, Tuple

from ..automata.timed import TimedBuchiAutomaton
from ..engine.verdict import DecisionReport, Verdict
from ..kernel.events import Event
from ..obs import hooks as _obs
from ..words.batch import LassoBatch
from .rtalgorithm import Context, RealTimeAlgorithm
from .tape import DEFAULT_FEEDER_CAP, ZENO_UNROLL, TapeProtocolError

__all__ = [
    "tba_to_algorithm",
    "zeno_unroll",
    "decide_on_table",
    "NondeterministicTBAError",
]


class NondeterministicTBAError(ValueError):
    """The TBA has nondeterministic branching; the f-proxy is not exact."""


def _is_deterministic(tba: TimedBuchiAutomaton) -> bool:
    """Syntactic determinism: at most one transition per (state, symbol).

    (Guard-disjoint transitions would also be fine; we keep the check
    conservative and simple.)
    """
    seen: Set[Tuple[Any, Any]] = set()
    for tr in tba.transitions:
        key = (tr.source, tr.symbol)
        if key in seen:
            return False
        seen.add(key)
    return True


def zeno_unroll(tba: TimedBuchiAutomaton) -> int:
    """Loop unrollings of a frozen-time lasso the machine must read.

    On a lasso with ``shift == 0`` every loop event sits at one instant
    T (:meth:`~repro.words.timedword.TimedWord.lasso` refuses time that
    goes backwards, so the loop's times can neither rise nor fall).
    After the first loop event every gap is therefore zero, and each
    clock either keeps the value it had after that event or is reset
    to 0.  A deterministic TBA's machine tracks at most one
    configuration, and from then on it lies in a set of N = |Q|·2^|X|
    configurations.  The configuration at each loop boundary is a
    function of the one before, so if the run is still alive after
    N + 1 unrollings two boundaries have repeated: the run never dies,
    and every later unrolling replays one already read.  The verdict,
    f-count, decision instant and space peak of the first N + 1
    unrollings are therefore those of any longer replay.
    Nondeterministic TBAs (a configuration *set*) keep
    :data:`~repro.machine.tape.ZENO_UNROLL`, which also caps the
    derived count.
    """
    if not _is_deterministic(tba):
        return ZENO_UNROLL
    return min(ZENO_UNROLL, len(tba.states) * 2 ** len(tba.clocks) + 1)


class _TBAMachine(RealTimeAlgorithm):
    """A machine :func:`tba_to_algorithm` compiled.  Its program closes
    over the automaton, so it pickles as the automaton plus its other
    attributes (``name``, ``space_limit``, ...).  Unpickling it (in a
    shard worker, or by :func:`copy.copy`) makes a new machine with the
    program and table of the engine cache's compilation, then sets
    those attributes on it."""

    def __reduce__(self) -> Tuple[Any, ...]:
        state = dict(vars(self))
        del state["program"], state["successor_table"]
        return _recompiled, (self.source_tba,), state


def _recompiled(tba: TimedBuchiAutomaton) -> "_TBAMachine":
    """A new machine sharing the cached compilation of ``tba``."""
    from ..engine.batch import compiled_tba

    machine = _TBAMachine.__new__(_TBAMachine)
    vars(machine).update(vars(compiled_tba(tba, True)))
    return machine


def tba_to_algorithm(
    tba: TimedBuchiAutomaton, allow_nondeterministic: bool = False
) -> RealTimeAlgorithm:
    """The real-time algorithm simulating ``tba``.

    Working storage holds the reachable configuration set (state ×
    clock valuation, capped at the automaton's cmax+1 region bound) and
    the previous input timestamp; each input symbol advances clocks by
    the inter-arrival gap and applies the enabled transitions.  An f is
    written whenever some reachable configuration is accepting (and the
    output-rate rule permits).  If every configuration dies, the
    machine enters s_r.  The machine carries the automaton's successor
    table as ``successor_table``.
    """
    # The stream package imports this module: import it on first use.
    from ..stream.compiled import CompiledTBA

    table = CompiledTBA(tba)
    if not allow_nondeterministic and not table.deterministic:
        raise NondeterministicTBAError(
            "pass allow_nondeterministic=True to use the f-count proxy"
        )

    def program(ctx: Context) -> Generator[Event, Any, None]:
        ctx.storage["configs"] = {
            (tba.initial, tuple(0 for _ in tba.clocks))
        }
        ctx.storage["prev_t"] = 0
        while True:
            symbol, t = yield ctx.input.read()
            gap = t - ctx.storage["prev_t"]
            ctx.storage["prev_t"] = t
            configs: Set[Tuple[Any, Tuple[int, ...]]] = ctx.storage["configs"]
            nxt = tba._step_configs(configs, symbol, gap)
            ctx.storage["configs"] = nxt
            if not nxt:
                ctx.reject()  # every run died: no accepting run exists
                return
            if any(state in tba.accepting for state, _v in nxt):
                if ctx.output.can_write():
                    ctx.emit_f()

    algo = _TBAMachine(program, name="TBA-sim")
    # Keep the source automaton on the machine: judges use it to fall
    # back on exact region mathematics where the operational discipline
    # cannot decide (frozen-time lassos never reach the time horizon),
    # and bound how much of such a lasso the tape feeds.
    algo.source_tba = tba
    algo.zeno_unroll = zeno_unroll(tba)
    algo.successor_table = table
    return algo


def decide_on_table(
    machine: RealTimeAlgorithm, words: LassoBatch, horizon: int
) -> List[DecisionReport]:
    """``machine.decide(word, horizon)``'s report for every word of
    ``words``, read in one pass over the rows of the machine's
    ``successor_table``.

    The pass encodes the symbol column to the table's ids once and
    replays each word on row ids, filling a cell the first time a word
    reaches it.  A frozen-time lasso (``shift == 0``) stops at the first
    loop-boundary row that repeats, or at
    :func:`~repro.machine.tape.zeno_event_cap`, whichever comes first.
    All of its loop events sit at one instant, and the table is a
    function of (row, symbol, gap), so after a repeat the rows cycle at
    that instant: no later unrolling can kill the run, write another f,
    move the decision instant or raise the space peak, for a
    configuration set as for one configuration (the argument of
    :func:`zeno_unroll`).

    A deterministic source's frozen lasso that is still undecided there
    is settled here, as :func:`~repro.engine.strategies.resolve_zeno`
    would settle it: the table's walk over rows continues from the row
    where the replay stopped
    (:meth:`~repro.stream.compiled.CompiledTBA.accepts_from`).  A
    nondeterministic source's stays UNDECIDED for the interpreted
    automaton to settle.

    Each run is published through the machine's hooks as
    ``machine.runs{mode="table"}``, with its replay's verdict, under one
    ``machine.table_replay`` span per call whose ``events`` arg counts
    the table steps the replays took.
    """
    h = _obs.HOOKS
    publish = None if h is None else machine._report_run
    with nullcontext() if h is None else h.span(
        "machine.table_replay", algorithm=machine.name, horizon=horizon, words=len(words)
    ) as span:
        table = machine.successor_table
        cells, fill, trap = table.table_list, table.fill, table.trap
        accepting, gap_cap, settle = table.accepting_list, table.gap_cap, table.deterministic
        sym_index, unknown = table.sym_index, table.n_symbols
        symbols, times = words.symbols, words.times
        syms = [sym_index.get(s, unknown) for s in symbols]
        initial, unroll, feeder_cap = table.initial_index, machine.zeno_unroll, DEFAULT_FEEDER_CAP
        undecided, reject = Verdict.UNDECIDED, Verdict.REJECT
        reports: List[DecisionReport] = []
        steps = 0
        for start, loop, end, shift in zip(words.starts, words.loops, words.ends, words.shifts):
            row = initial
            prev = 0
            i = start
            k = 0  # loop iterations begun after the first
            frozen = shift == 0
            verdict = undecided
            decided_at = None
            f_count = 0
            # The program's working storage, the configuration set and the
            # previous input instant, once the kernel would start it.
            space = 2 if horizon >= 0 else 0
            if space:
                cap = loop - start + unroll * (end - loop) if frozen else feeder_cap
                boundaries: Set[int] = set()
                f_at = -1
                n = 0
                while n < cap:
                    if i == end:
                        k += 1
                        if frozen:
                            if row in boundaries:
                                break
                            boundaries.add(row)
                        i = loop
                    t = times[i] + k * shift
                    if t > horizon:
                        break
                    if t < prev:
                        raise TapeProtocolError(
                            f"input word time went backwards at index {n} (t={t}, now={prev})"
                        )
                    gap = t - prev
                    if gap > gap_cap:
                        gap = gap_cap
                    sym = syms[i]
                    nxt = cells[row][sym][gap]
                    row = nxt if nxt >= 0 else fill(row, sym, gap)
                    prev = t
                    i += 1
                    n += 1
                    if row == trap:
                        verdict = reject
                        decided_at = t
                        break
                    # The output tape takes at most one f per instant.
                    if accepting[row] and t != f_at:
                        f_count += 1
                        f_at = t
                steps += n
            report = DecisionReport(verdict, f_count, horizon, space, decided_at)
            if publish is not None:
                publish("table", report)
            if frozen and settle and verdict is undecided:
                # Continue from the row where the replay stopped: inside the
                # loop's first iteration, or at a loop boundary after it.
                report.settle_zeno(
                    table.accepts_from(
                        row, prev, symbols, times, end if k else i, loop, end, 0
                    ),
                    times[loop],
                )
            reports.append(report)
        if span is not None:
            span.args["events"] = steps
    return reports
