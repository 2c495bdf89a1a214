"""Compiled TBA stepping: one dense transition table over configuration sets.

The interpreted hot path (:meth:`TimedBuchiAutomaton._step_configs`)
rebuilds a clock-valuation dict and re-evaluates every guard AST per
event — Python-sized constants on an O(state) algorithm.  This module
compiles a :class:`~repro.stream.monitor.TBAAnalysis` once into dense
numpy artifacts so that stepping becomes array lookups:

* **Rows** — a monitor carries the *set* of configurations its runs
  can be in (Grez et al., PAPERS.md).  Time is discrete and clocks are
  capped, so only finitely many sets are reachable from ``{initial}``;
  they are enumerated once from the analysis' successor cells (a set's
  successor is the union of its members'), and each non-empty one is a
  row, in ``repr`` order of its members.  A deterministic automaton
  only reaches singletons, so its rows are its configurations.  Row
  ``n`` is the *trap*, the empty set (every run died): absorbing by
  construction, its row maps every (symbol, gap) back to the trap.
* **Transition table** — ``table[row, symbol, gap_class]`` → successor
  row, shape ``(n+1, |Σ|+1, cmax+2)`` int32.  Column ``|Σ|`` is the
  *unknown-symbol* column (a symbol outside the alphabet kills every
  run, exactly as the interpreter's empty transition list does) and
  gap classes are capped at ``cmax+1`` (capped valuations make larger
  gaps indistinguishable — the discrete region argument of
  :mod:`repro.automata.timed`).
* **Flags** — a set is accepting or live if any member is, and green
  if it is non-empty and inside the analysis' green set: what the
  interpreter's judge reads off the same set, so the three-valued
  judgement is two boolean lookups.

:func:`compiled_for` is the gated entry point: it returns ``None`` —
and the monitors fall back to the interpreter, verdict-identically —
when ``REPRO_STREAM_COMPILED=0`` disables the path or when the
enumeration passes the table bounds.  Outcomes are counted under
``stream.compile`` / ``stream.compile_fallbacks`` (see
``docs/observability.md``); the cost model and measured speedups are
documented in ``docs/performance.md``.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Tuple

import numpy as np

from ..obs import hooks as _obs

__all__ = [
    "CompiledTBA",
    "compiled_for",
    "deterministic_accepts_lasso",
    "compilation_enabled",
    "MAX_CONFIGS",
    "MAX_TABLE_CELLS",
    "ENV_TOGGLE",
]

#: Compilation bounds: automata reaching more configuration sets (table
#: rows, trap excluded) or table cells fall back to the interpreter.
MAX_CONFIGS = 4096
MAX_TABLE_CELLS = 1 << 22

#: Environment toggle: set to ``0`` to force the interpreted path
#: (the CI stream-smoke job runs the suite both ways).
ENV_TOGGLE = "REPRO_STREAM_COMPILED"

_CACHE_ATTR = "_compiled_tba_cache"

ConfigSet = FrozenSet[Tuple[Any, Tuple[int, ...]]]


def compilation_enabled() -> bool:
    """The env toggle is not set to off."""
    return os.environ.get(ENV_TOGGLE, "1").lower() not in (
        "0",
        "false",
        "no",
        "off",
    )


def _reachable_sets(analysis: Any) -> Optional[Tuple[List[ConfigSet], List[List[int]]]]:
    """The non-empty configuration sets reachable from ``{initial}``, in
    discovery order, each with its successor per analysis cell as a
    position in that order (``-1``: the empty set); or ``None`` as soon
    as they pass the table bounds."""
    cells = analysis.cells
    per_row = (len(analysis.symbols) + 1) * (analysis.tba._cmax + 2)
    limit = min(MAX_CONFIGS, MAX_TABLE_CELLS // per_row - 1)
    first = frozenset({analysis.tba._initial_config()})
    sets = [first]
    ids: Dict[ConfigSet, int] = {first: 0, frozenset(): -1}
    rows: List[List[int]] = []
    for members in sets:  # breadth first: the loop reaches what it appends
        if len(sets) > limit:
            return None
        if len(members) == 1:
            succ = cells[next(iter(members))]
        else:
            cols = zip(*map(cells.__getitem__, members))
            succ = tuple(frozenset().union(*col) for col in cols)
        row = []
        for s in succ:
            i = ids.get(s)
            if i is None:
                i = ids[s] = len(sets)
                sets.append(s)
            row.append(i)
        rows.append(row)
    return sets, rows


class CompiledTBA:
    """Dense-table compilation of one :class:`TBAAnalysis`.

    Attributes (``n`` reachable non-empty configuration sets, ``S``
    symbols, ``G = cmax+2`` gap classes, ``trap = n``):

    ``sets``
        the configuration set of each row, the empty set last (trap).
    ``table`` / ``table_list``
        int32 ``(n+1, S+1, G)`` successor table (numpy array and its
        nested-list mirror for the scalar hot loop).
    ``accepting_flags`` / ``live_flags`` / ``green_flags``
        bool ``(n+1,)`` flag arrays (trap row False) with nested-list
        mirrors ``*_list``.
    """

    def __init__(self, analysis: Any, sets: List[ConfigSet], rows: List[List[int]]):
        tba = analysis.tba
        self.analysis = analysis
        self.tba = tba
        n = len(sets)
        order = sorted(range(n), key=lambda i: sorted(map(repr, sets[i])))
        self.sets: Tuple[ConfigSet, ...] = (*(sets[i] for i in order), frozenset())
        self.set_index: Dict[ConfigSet, int] = {s: i for i, s in enumerate(self.sets)}
        self.symbols: List[Any] = analysis.symbols
        self.sym_index: Dict[Any, int] = {s: i for i, s in enumerate(self.symbols)}
        self.gap_cap = tba._cmax + 1
        S = len(self.symbols)
        self.n_symbols = S
        self.trap = n
        # The row of each discovered set; position -1 (the empty set)
        # reads the trap.
        rank = np.full(n + 1, n, dtype=np.int32)
        rank[order] = np.arange(n, dtype=np.int32)
        table = np.full((n + 1, S + 1, self.gap_cap + 1), n, dtype=np.int32)
        table[:n, :S] = rank[np.array(rows, dtype=np.intp)[order]].reshape(
            n, S, self.gap_cap + 1
        )
        self.table = table
        self.table_list = table.tolist()
        flags = self.flag_view(analysis.accepting, analysis.live, analysis.green)
        self.accepting_list, self.live_list, self.green_list = flags
        self.accepting_flags, self.live_flags, self.green_flags = (
            np.array(f, dtype=bool) for f in flags
        )
        self.initial_index = self.set_index[frozenset({tba._initial_config()})]

    def flag_view(
        self, accepting: Any, live: Any, green: Any
    ) -> Tuple[List[bool], List[bool], List[bool]]:
        """Flag lists for an accepting projection over the *same*
        configuration universe (trap row False), memoized per
        projection: a row is accepting or live if any member is, green
        if it is non-empty and inside ``green``.

        This is how one compiled table serves many queries at once: a
        :class:`~repro.query.plan.QueryPlan` registers one view per
        query channel (accepting/live/green sets from
        :meth:`TBAAnalysis.live_for` / ``green_for``), every view
        indexes the shared ``table``, and stepping stays one gather per
        event regardless of how many queries are being judged.
        """
        key = (frozenset(accepting), frozenset(live), frozenset(green))
        cache: Dict[Any, Any] = self.__dict__.setdefault("_flag_views", {})
        got = cache.get(key)
        if got is None:
            acc, lv, gr = key
            got = cache[key] = (
                [not s.isdisjoint(acc) for s in self.sets],
                [not s.isdisjoint(lv) for s in self.sets],
                [bool(s) and s <= gr for s in self.sets],
            )
        return got

    def step_many(self, states: Any, sym_indices: Any, gaps: Any) -> Any:
        """Vectorized step: one table gather advances a whole array of
        sessions (`states` may include the trap)."""
        return self.table[states, sym_indices, np.minimum(gaps, self.gap_cap)]


def deterministic_accepts_lasso(
    word: Any, start: Any, step: Callable[[Any, Any, int], Optional[Tuple[Any, bool]]]
) -> bool:
    """Büchi acceptance of a lasso word by a deterministic run.

    ``step(node, symbol, gap)`` is the run's successor of ``node`` and
    whether it is accepting, or ``None`` when the run dies.  Step the
    prefix plus one loop iteration; from there every step reads the
    periodic gap pattern, so the (node, loop position) trajectory
    eventually repeats, and the word is accepted iff that cycle visits
    an accepting node.  The on-demand successor table of
    :mod:`repro.machine.from_tba` walks its cells with it.
    """
    if word.fn is not None or word.is_finite:
        raise ValueError("accepts_lasso needs a lasso TimedWord")
    # The gap entering each loop position, read from the second
    # iteration (so the previous pair exists), and the symbol read there.
    times = [t for _s, t in word.loop]
    gaps = [times[0] + word.shift - times[-1]]
    gaps += [b - a for a, b in zip(times, times[1:])]
    loop_syms = [s for s, _t in word.loop]
    k = len(times)
    node, accepting = start, False
    prev_t = 0
    for s, t in word.prefix + word.loop:
        cell = step(node, s, t - prev_t)
        if cell is None:
            return False
        node, accepting = cell
        prev_t = t
    seen: Dict[Tuple[Any, int], int] = {}
    trail: List[bool] = []
    pos = 0
    while (node, pos) not in seen:
        seen[(node, pos)] = len(trail)
        trail.append(accepting)
        cell = step(node, loop_syms[pos], gaps[pos])
        if cell is None:
            return False
        node, accepting = cell
        pos = (pos + 1) % k
    return any(trail[seen[(node, pos)]:])


def compiled_for(analysis: Any) -> Optional[CompiledTBA]:
    """The cached :class:`CompiledTBA` for one analysis, or ``None``.

    Fallback (returns ``None``, counted under
    ``stream.compile_fallbacks``) when ``REPRO_STREAM_COMPILED=0``, or
    when the automaton reaches more than :data:`MAX_CONFIGS`
    configuration sets or its table would pass :data:`MAX_TABLE_CELLS`
    (the enumeration stops there).  The compiled artifact is memoized
    *on the analysis object*, so every session sharing the analysis
    shares one compilation (the one-build-per-language invariant of
    ``tests/test_stream_compiled.py``).
    """
    h = _obs.HOOKS
    if not compilation_enabled():
        if h is not None:
            h.count("stream.compile", outcome="fallback")
            h.count("stream.compile_fallbacks", reason="disabled")
        return None
    cached = analysis.__dict__.get(_CACHE_ATTR, _MISSING)
    if cached is not _MISSING:
        if h is not None:
            h.count(
                "stream.compile",
                outcome="cached" if cached is not None else "fallback",
            )
            if cached is None:
                h.count("stream.compile_fallbacks", reason="bounds")
        return cached
    reached = _reachable_sets(analysis)
    comp = None if reached is None else CompiledTBA(analysis, *reached)
    setattr(analysis, _CACHE_ATTR, comp)
    if h is not None:
        h.count("stream.compile", outcome="built" if comp is not None else "fallback")
        if comp is None:
            h.count("stream.compile_fallbacks", reason="bounds")
    return comp


class _Missing:
    pass


_MISSING = _Missing()
