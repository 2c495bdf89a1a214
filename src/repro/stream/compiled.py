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
  set, so the three-valued judgement is two boolean lookups.

One table serves every stepping layout: the monitors' scan and wave
kernel (:mod:`repro.stream.monitor`) and the compiled machine of
:mod:`repro.machine.from_tba`, which carries a table without an
analysis.  Row creation takes a lock, because threads share cached
machines and muxes; reads take none.

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
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..machine.from_tba import _is_deterministic
from ..obs import hooks as _obs

__all__ = [
    "CompiledTBA",
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
        trap), and each set's row.
    ``table_list`` / ``table``
        the ``(rows, S+1, G)`` successor table as nested lists for the
        scalar loops, and its int32 numpy mirror with spare rows, made
        by the first :meth:`step_many` (``None`` before: a table only
        stepped one run at a time never pays for numpy arrays); ``-1``
        marks an unfilled cell.
    ``accepting_list`` / ``live_list`` / ``green_list``
        the flags of each row (live and green only when an
        ``analysis`` is attached); :meth:`flag_arrays` as numpy arrays.
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
        self.symbols: List[Any] = sorted(tba.alphabet, key=repr)
        self.sym_index: Dict[Any, int] = {s: i for i, s in enumerate(self.symbols)}
        self.n_symbols = len(self.symbols)
        self.gap_cap = tba._cmax + 1
        self.sets: List[ConfigSet] = []
        self.set_index: Dict[ConfigSet, int] = {}
        self.table_list: List[List[List[int]]] = []
        self.table: Any = None
        self.accepting_list: List[bool] = []
        if analysis is not None:
            self.live_list: List[bool] = []
            self.green_list: List[bool] = []
        self._arrays: Optional[Tuple[Any, ...]] = None
        self._lock = threading.RLock()
        self.trap = self.row(())
        self.initial_index = self.row((tba._initial_config(),))

    def row(self, members: Iterable[Any]) -> int:
        """The row of a configuration set, made if it is new."""
        members = frozenset(members)
        r = self.set_index.get(members)
        if r is None:
            with self._lock:
                r = self.set_index.get(members)
                if r is None:
                    r = self._add_row(members)
        return r

    def _add_row(self, members: ConfigSet) -> int:
        """Append a row for ``members`` (the lock is held).  The set's
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
        self.accepting_list.append(any(state in self.tba.accepting for state, _v in members))
        an = self.analysis
        if an is not None:
            self.live_list.append(not members.isdisjoint(an.live))
            self.green_list.append(bool(members) and members <= an.green)
        self.table_list.append(cells)
        self.sets.append(members)
        self.set_index[members] = r
        return r

    def fill(self, row: int, sym: int, gap: int) -> int:
        """Fill the cell of ``row`` on symbol column ``sym`` at gap
        class ``gap`` from one ``_step_configs`` call on the row's set;
        returns the successor row.  Every missed cell comes here."""
        with self._lock:
            nxt = self.table_list[row][sym][gap]
            if nxt < 0:
                nxt = self.row(
                    self.tba._step_configs(self.sets[row], self.symbols[sym], gap)
                )
                if self.table is not None:
                    self.table[row, sym, gap] = nxt
                self.table_list[row][sym][gap] = nxt
        return nxt

    def step(self, row: int, symbol: Any, gap: int) -> int:
        """The row ``row`` reaches on ``symbol`` after ``gap`` chronons."""
        if gap < 0:
            # Only a word whose time starts below 0 steps back; no
            # cell holds such a step.
            return self.row(self.tba._step_configs(self.sets[row], symbol, gap))
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
