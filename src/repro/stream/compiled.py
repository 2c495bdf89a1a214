"""Compiled TBA stepping: one successor table over configuration sets,
grown on demand.

The interpreted hot path (:meth:`TimedBuchiAutomaton._step_configs`)
rebuilds a clock-valuation dict and re-evaluates every guard AST per
event — Python-sized constants on an O(state) algorithm.  This module
keeps what those calls return in a table, so that stepping becomes
array lookups:

* **Rows** — a run carries the *set* of configurations the
  automaton's runs can be in (Grez et al., PAPERS.md).  Time is
  discrete and clocks are capped, so only finitely many sets are
  reachable; each set becomes a row when traffic first reaches it, in
  discovery order (the lazy subset construction RE2 builds its DFA
  with).  A deterministic automaton only reaches singletons, so its
  rows are its configurations.  Row 0 is the *trap*, the empty set
  (every run died): every cell it fills leads back to it.
* **Transition table** — ``table[row, symbol, gap_class]`` → successor
  row, int32, ``-1`` while the cell is unfilled.  A missed cell is
  filled by :meth:`CompiledTBA.fill`: one ``_step_configs`` call on the
  row's set.  Column ``|Σ|`` is the *unknown-symbol* column, filled
  with the trap when the row is made (a symbol outside the alphabet
  kills every run, exactly as the interpreter's empty transition list
  does), and gap classes are capped at ``cmax+1`` (capped valuations
  make larger gaps indistinguishable — the discrete region argument of
  :mod:`repro.automata.timed`).
* **Flags** — a row is accepting if a member's state is.  With a
  :class:`~repro.stream.monitor.TBAAnalysis` attached it is also live
  if a member is, and green if it is non-empty and inside the
  analysis' green set: what the interpreter's judge reads off the same
  set (:meth:`TBAAnalysis.flags`), so the three-valued judgement is
  two boolean lookups.

One table serves every stepping layout: the monitors' scan and wave
kernel (:mod:`repro.stream.monitor`) and the compiled machine of
:mod:`repro.machine.from_tba`, which carries a table without an
analysis.  A table learns how its rows step and how their flags are
read from two methods, ``_successor`` and ``_describe``;
:class:`FusedTBA` overrides just those to read several automata side
by side (a :class:`~repro.query.plan.QueryPlan`'s components) without
building their product.  Row creation takes a lock, because threads
share cached machines and muxes; reads take none.

:func:`compiled_for` is the gated entry point for the monitors: it
returns ``None`` — and they fall back to the interpreter,
verdict-identically — when ``REPRO_STREAM_COMPILED=0`` disables the
path.  Outcomes are counted under ``stream.compile`` /
``stream.compile_fallbacks`` (see ``docs/observability.md``); the cost
model and measured speedups are documented in ``docs/performance.md``.
"""

from __future__ import annotations

import os
import threading
from itertools import product
from typing import Any, Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from ..machine.from_tba import _is_deterministic
from ..obs import hooks as _obs

__all__ = [
    "CompiledTBA",
    "FusedTBA",
    "compiled_for",
    "compilation_enabled",
    "ENV_TOGGLE",
]

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


class CompiledTBA:
    """The successor table of one automaton, rows made on demand.

    Attributes (``S`` symbols, ``G = cmax+2`` gap classes):

    ``sets`` / ``set_index``
        the configuration set of each row (row 0: the empty set, the
        trap), and the row of each row's key — its configuration set,
        on an automaton's table.
    ``table_list`` / ``table``
        the ``(rows, S+1, G)`` successor table as nested lists for the
        scalar loops, and its int32 numpy mirror with spare rows, made
        by the first :meth:`step_many` (``None`` before: a table only
        stepped one run at a time never pays for numpy arrays); ``-1``
        marks an unfilled cell.
    ``accepting_list`` / ``live_list`` / ``green_list``
        the flags of each row (live and green are false without an
        ``analysis``); :meth:`flag_arrays` as numpy arrays.
    ``deterministic``
        the source is syntactically deterministic, so every row holds
        at most one configuration and a walk over rows is its run.

    Every list grows in place as rows are added, so a reader may keep
    a reference to it.
    """

    def __init__(self, tba: Any, analysis: Any = None):
        self.tba = tba
        self.analysis = analysis
        self.deterministic = _is_deterministic(tba)
        initial = frozenset((tba._initial_config(),))
        self._start(sorted(tba.alphabet, key=repr), tba._cmax + 1, frozenset(), initial)

    def _start(self, symbols: List[Any], gap_cap: int, trap: Any, initial: Any) -> None:
        """An empty table over ``symbols``, then the rows of the trap's
        and the initial state's keys."""
        self.symbols = symbols
        self.sym_index: Dict[Any, int] = {s: i for i, s in enumerate(symbols)}
        self.n_symbols = len(symbols)
        self.gap_cap = gap_cap
        self.sets: List[ConfigSet] = []
        self.set_index: Dict[Any, int] = {}
        self.table_list: List[List[List[int]]] = []
        self.table: Any = None
        self.accepting_list: List[bool] = []
        self.live_list: List[bool] = []
        self.green_list: List[bool] = []
        self._arrays: Optional[Tuple[Any, ...]] = None
        self._lock = threading.RLock()
        self.trap = self.row(trap)
        self.initial_index = self.row(initial)

    def row(self, key: Any) -> int:
        """The row of a key (a configuration set, on an automaton's
        table), made if it is new."""
        r = self.set_index.get(key)
        if r is None:
            with self._lock:
                r = self.set_index.get(key)
                if r is None:
                    r = self._add_row(key)
        return r

    def _add_row(self, key: Any) -> int:
        """Append a row for ``key`` (the lock is held).  The key's
        index is written last: a row is readable once it is found."""
        r = len(self.sets)
        width = self.gap_cap + 1
        cells = [[-1] * width for _ in range(self.n_symbols)]
        cells.append([0] * width)  # unknown symbols: the trap
        if self.table is not None:
            if r == len(self.table):
                # Twice the spare rows, in place before any row past
                # the old array is readable.
                grown = np.zeros((2 * r,) + self.table.shape[1:], dtype=np.int32)
                grown[:r] = self.table[:r]
                self.table = grown
            self.table[r] = -1
            self.table[r, self.n_symbols] = 0
        members, accepting, live, green = self._describe(key)
        self.accepting_list.append(accepting)
        self.live_list.append(live)
        self.green_list.append(green)
        self.table_list.append(cells)
        self.sets.append(members)
        self.set_index[key] = r
        return r

    def _describe(self, members: ConfigSet) -> Tuple[ConfigSet, bool, bool, bool]:
        """A new row's configuration set and its accepting, live and
        green flags (live and green only with an analysis)."""
        an = self.analysis
        if an is None:
            return members, any(s in self.tba.accepting for s, _v in members), False, False
        return (members,) + an.flags(members)

    def _successor(self, row: int, symbol: Any, gap: int) -> Any:
        """The key of the row ``row`` reaches on ``symbol`` after
        ``gap`` chronons: one ``_step_configs`` call on its set."""
        return frozenset(self.tba._step_configs(self.sets[row], symbol, gap))

    def fill(self, row: int, sym: int, gap: int) -> int:
        """Fill the cell of ``row`` on symbol column ``sym`` at gap
        class ``gap`` and return the successor row.  Every missed
        cell comes here."""
        with self._lock:
            nxt = self.table_list[row][sym][gap]
            if nxt < 0:
                nxt = self.row(self._successor(row, self.symbols[sym], gap))
                if self.table is not None:
                    self.table[row, sym, gap] = nxt
                self.table_list[row][sym][gap] = nxt
        return nxt

    def step(self, row: int, symbol: Any, gap: int) -> int:
        """The row ``row`` reaches on ``symbol`` after ``gap`` chronons."""
        if gap < 0:
            # Only a word whose time starts below 0 steps back; no
            # cell holds such a step.
            return self.row(self._successor(row, symbol, gap))
        sym = self.sym_index.get(symbol, self.n_symbols)
        if gap > self.gap_cap:
            gap = self.gap_cap
        nxt = self.table_list[row][sym][gap]
        return nxt if nxt >= 0 else self.fill(row, sym, gap)

    def step_many(self, states: Any, sym_indices: Any, gaps: Any) -> Any:
        """Vectorized step: one table gather advances a whole array of
        sessions (``states`` may include the trap).  Cells the gather
        finds unfilled are filled and gathered again."""
        if self.table is None:
            with self._lock:
                if self.table is None:
                    self.table = np.array(self.table_list, dtype=np.int32)
        gaps = np.minimum(gaps, self.gap_cap)
        out = self.table[states, sym_indices, gaps]
        miss = np.flatnonzero(out < 0)
        if len(miss):
            rows, syms, gs = states[miss], sym_indices[miss], gaps[miss]
            for cell in set(zip(rows.tolist(), syms.tolist(), gs.tolist())):
                self.fill(*cell)
            out[miss] = self.table[rows, syms, gs]
        return out

    def flag_arrays(self) -> Tuple[Any, ...]:
        """The accepting, live and green flags as numpy bool arrays over
        the rows, made again when rows were added since the last call."""
        arrays, n = self._arrays, len(self.sets)
        if arrays is None or len(arrays[0]) < n:
            # Rows below len(sets) are complete in every list.
            flags = (self.accepting_list, self.live_list, self.green_list)
            arrays = self._arrays = tuple(np.array(f[:n], dtype=bool) for f in flags)
        return arrays

    def accepts_lasso(self, word: Any) -> bool:
        """Büchi acceptance of a lasso word, walked over the rows.

        Exact for a :attr:`deterministic` source, whose rows are its
        one run's configurations.  Step the prefix plus one loop
        iteration; from there every step reads the periodic gap
        pattern, so the (row, loop position) trajectory eventually
        repeats, and the word is accepted iff that cycle visits an
        accepting row.
        """
        if word.fn is not None or word.is_finite:
            raise ValueError("accepts_lasso needs a lasso TimedWord")
        pairs = word.prefix + word.loop
        return self.accepts_from(
            self.initial_index,
            0,
            [s for s, _t in pairs],
            [t for _s, t in pairs],
            0,
            len(word.prefix),
            len(pairs),
            word.shift,
        )

    def accepts_from(
        self,
        row: int,
        prev_t: int,
        symbols: Sequence[Any],
        times: Sequence[int],
        i: int,
        loop: int,
        end: int,
        shift: int,
    ) -> bool:
        """:meth:`accepts_lasso` of the rest of a lasso, from ``row``
        reached at instant ``prev_t``.

        The lasso is given as columns (a
        :class:`~repro.words.batch.LassoBatch` word's layout): its loop
        is ``symbols[loop:end]`` and ``times[loop:end]``, each iteration
        adding ``shift``, and the replay that reached ``row`` read up to
        index ``i``.  A replay that stopped at a loop boundary after any
        iteration continues with ``i = end``.
        """
        step, trap, accepting = self.step, self.trap, self.accepting_list
        for j in range(i, end):
            t = times[j]
            row = step(row, symbols[j], t - prev_t)
            if row == trap:
                return False
            prev_t = t
        # Walk (row, loop position) states, keyed row·k + position, until
        # one repeats.  From the second iteration on, the gap entering
        # position 0 comes from the previous iteration's last event.
        k = end - loop
        seen: Dict[int, int] = {}
        trail: List[bool] = []
        pos = 0
        while row * k + pos not in seen:
            seen[row * k + pos] = len(trail)
            trail.append(accepting[row])
            j = loop + pos
            gap = times[j] - times[j - 1] if pos else times[loop] + shift - times[end - 1]
            row = step(row, symbols[j], gap)
            if row == trap:
                return False
            pos = (pos + 1) % k
        return any(trail[seen[row * k + pos]:])


class FusedTBA(CompiledTBA):
    """The table of a :class:`~repro.query.plan.QueryPlan`'s components,
    read side by side on one stream.

    A row's key (``keys``) is the tuple of its component rows, and its
    set the product of theirs; a tuple holding a component's trap is
    the trap, key ``()``.  A cell steps each component's own table, at
    the gap capped at that component's ``gap_cap``.  A row is
    accepting, live or green if some component's row is — green only
    while every component's analysis is deterministic.  A fill holds
    this table's lock, then each component's: components belong to one
    plan, so the order is fixed.
    """

    def __init__(self, parts: Sequence[CompiledTBA]):
        self.parts = tuple(parts)
        self.deterministic = all(p.deterministic for p in parts)
        self._green = all(p.analysis.deterministic for p in parts)
        self.keys: List[Tuple[int, ...]] = []
        initial = tuple(p.initial_index for p in parts)
        self._start(parts[0].symbols, max(p.gap_cap for p in parts), (), initial)

    def _describe(self, key: Tuple[int, ...]) -> Tuple[ConfigSet, bool, bool, bool]:
        self.keys.append(key)  # before the row is readable: the lock is held
        rows = tuple(zip(self.parts, key))
        return (
            frozenset(product(*(p.sets[r] for p, r in rows))) if key else frozenset(),
            any(p.accepting_list[r] for p, r in rows),
            any(p.live_list[r] for p, r in rows),
            self._green and any(p.green_list[r] for p, r in rows),
        )

    def _successor(self, row: int, symbol: Any, gap: int) -> Tuple[int, ...]:
        key = []
        for part, r in zip(self.parts, self.keys[row]):
            nxt = part.step(r, symbol, gap)
            if nxt == part.trap:
                return ()
            key.append(nxt)
        return tuple(key)


def compiled_for(analysis: Any) -> Optional[CompiledTBA]:
    """The cached :class:`CompiledTBA` for one analysis, or ``None``.

    ``None`` (counted under ``stream.compile_fallbacks``) when
    ``REPRO_STREAM_COMPILED=0``.  The table is memoized *on the
    analysis object*, so every session sharing the analysis shares one
    table (the one-build-per-language invariant of
    ``tests/test_stream_compiled.py``).
    """
    h = _obs.HOOKS
    if not compilation_enabled():
        if h is not None:
            h.count("stream.compile", outcome="fallback")
            h.count("stream.compile_fallbacks", reason="disabled")
        return None
    comp = analysis.__dict__.get(_CACHE_ATTR)
    outcome = "cached"
    if comp is None:
        comp = CompiledTBA(analysis.tba, analysis)
        setattr(analysis, _CACHE_ATTR, comp)
        outcome = "built"
    if h is not None:
        h.count("stream.compile", outcome=outcome)
    return comp
