"""Compiled TBA stepping: dense transition tables over configurations.

The interpreted hot path (:meth:`TimedBuchiAutomaton._step_configs`)
rebuilds a clock-valuation dict and re-evaluates every guard AST per
event — Python-sized constants on an O(state) algorithm.  This module
compiles a :class:`~repro.stream.monitor.TBAAnalysis` once into dense
numpy artifacts so that stepping becomes array lookups:

* **Configuration index** — the analysis' finite capped-configuration
  universe, sorted for determinism, plus a *trap* index ``n`` standing
  for the empty configuration set (every run died).  The trap is
  absorbing by construction: its table row maps every (symbol, gap)
  back to the trap.
* **Transition table** — ``table[config, symbol, gap_class]`` →
  successor config index, shape ``(n+1, |Σ|+1, cmax+2)`` int32, built
  only when the stepping relation is deterministic (≤ 1 successor per
  cell).  Column ``|Σ|`` is the *unknown-symbol* column (a symbol
  outside the alphabet kills every run, exactly as the interpreter's
  empty transition list does) and gap classes are capped at ``cmax+1``
  (capped valuations make larger gaps indistinguishable — the discrete
  region argument of :mod:`repro.automata.timed`).
* **Successor bitsets** — for nondeterministic stepping,
  ``succ_bits[config, symbol, gap_class]`` is the successor *set* as a
  packed uint64 bitset (mirrored as Python ints in ``succ_int`` for
  the scalar loop, where arbitrary-precision ``int`` or-ing beats
  per-word numpy calls).  The analysis' liveness backward-closure and
  green forward-closure land in matching flag arrays / masks, so the
  three-valued judgement is two boolean lookups.

:func:`compiled_for` is the gated entry point: it returns ``None`` —
and the monitors fall back to the interpreter, verdict-identically —
when numpy is absent, when ``REPRO_STREAM_COMPILED=0`` disables the
path, or when the automaton exceeds the table bounds.  Outcomes are
counted under ``stream.compile`` / ``stream.compile_fallbacks``
(see ``docs/observability.md``); the cost model and measured speedups
are documented in ``docs/performance.md``.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..obs import hooks as _obs

try:  # pragma: no cover - exercised via the fallback tests' monkeypatch
    import numpy as _numpy
except ImportError:  # pragma: no cover
    _numpy = None

#: The numpy module, or None.  Tests monkeypatch this to simulate a
#: numpy-absent interpreter and pin the fallback behaviour.
NUMPY = _numpy

__all__ = [
    "CompiledTBA",
    "compiled_for",
    "deterministic_accepts_lasso",
    "compilation_enabled",
    "MAX_CONFIGS",
    "MAX_TABLE_CELLS",
    "ENV_TOGGLE",
]

#: Compilation bounds: automata whose configuration universe (or dense
#: table) would exceed these fall back to the interpreter.
MAX_CONFIGS = 4096
MAX_TABLE_CELLS = 1 << 22

#: Environment toggle: set to ``0`` to force the interpreted path
#: (the CI stream-smoke job runs the suite both ways).
ENV_TOGGLE = "REPRO_STREAM_COMPILED"

_CACHE_ATTR = "_compiled_tba_cache"


def compilation_enabled() -> bool:
    """Numpy present and the env toggle not set to off."""
    return NUMPY is not None and os.environ.get(ENV_TOGGLE, "1").lower() not in (
        "0",
        "false",
        "no",
        "off",
    )


class CompiledTBA:
    """Dense-table compilation of one :class:`TBAAnalysis`.

    Attributes (``n`` configurations, ``S`` symbols, ``G = cmax+2`` gap
    classes, ``trap = n``):

    ``table`` / ``table_list``
        int32 ``(n+1, S+1, G)`` deterministic successor table (numpy
        array and its nested-list mirror for the scalar hot loop);
        ``None`` when the stepping relation is nondeterministic.
    ``succ_bits`` / ``succ_int``
        uint64 ``(n, S, G, words)`` packed successor bitsets and their
        Python-int mirrors ``[config][symbol][gap]``; always built for
        nondeterministic automata, skipped for deterministic ones.
    ``accepting_flags`` / ``live_flags`` / ``green_flags``
        bool ``(n+1,)`` flag arrays (trap row False) with nested-list
        mirrors ``*_list`` and packed-int masks ``*_mask``.
    """

    def __init__(self, analysis: Any):
        if NUMPY is None:
            raise RuntimeError("CompiledTBA requires numpy")
        np = NUMPY
        tba = analysis.tba
        self.analysis = analysis
        self.tba = tba
        self.configs: List[Tuple[Any, Tuple[int, ...]]] = sorted(
            analysis.universe, key=repr
        )
        self.index: Dict[Any, int] = {c: i for i, c in enumerate(self.configs)}
        self.symbols: List[Any] = sorted(tba.alphabet, key=repr)
        self.sym_index: Dict[Any, int] = {s: i for i, s in enumerate(self.symbols)}
        self.gap_cap = tba._cmax + 1
        n = len(self.configs)
        S = len(self.symbols)
        G = self.gap_cap + 1
        self.n_configs = n
        self.n_symbols = S
        self.n_gaps = G
        self.trap = n
        words = (n + 63) // 64 if n else 1
        self.n_words = words

        # Successor sets per (config, symbol, gap-class), via the
        # interpreter once — the last time it runs for this automaton.
        succs: List[List[List[Tuple[int, ...]]]] = []
        deterministic = True
        for c in self.configs:
            per_sym: List[List[Tuple[int, ...]]] = []
            for a in self.symbols:
                per_gap: List[Tuple[int, ...]] = []
                for g in range(G):
                    out = tba._step_configs({c}, a, g)
                    idxs = tuple(sorted(self.index[s] for s in out))
                    if len(idxs) > 1:
                        deterministic = False
                    per_gap.append(idxs)
                per_sym.append(per_gap)
            succs.append(per_sym)
        self.deterministic = deterministic

        flags = np.zeros(n + 1, dtype=bool)
        for i, c in enumerate(self.configs):
            flags[i] = c[0] in tba.accepting
        self.accepting_flags = flags
        self.live_flags = np.zeros(n + 1, dtype=bool)
        for c in analysis.live:
            self.live_flags[self.index[c]] = True
        self.green_flags = np.zeros(n + 1, dtype=bool)
        for c in analysis.green:
            self.green_flags[self.index[c]] = True
        self.accepting_list = self.accepting_flags.tolist()
        self.live_list = self.live_flags.tolist()
        self.green_list = self.green_flags.tolist()
        self.accepting_mask = self._pack(self.accepting_flags[:n])
        self.live_mask = self._pack(self.live_flags[:n])
        self.green_mask = self._pack(self.green_flags[:n])

        if deterministic:
            table = np.full((n + 1, S + 1, G), self.trap, dtype=np.int32)
            for i in range(n):
                for si in range(S):
                    for g in range(G):
                        cell = succs[i][si][g]
                        if cell:
                            table[i, si, g] = cell[0]
            self.table = table
            self.table_list = table.tolist()
            self.succ_bits = None
            self.succ_int = None
        else:
            bits = np.zeros((n, S, G, words), dtype=np.uint64)
            succ_int: List[List[List[int]]] = []
            for i in range(n):
                per_sym_int: List[List[int]] = []
                for si in range(S):
                    per_gap_int: List[int] = []
                    for g in range(G):
                        mask = 0
                        for j in succs[i][si][g]:
                            mask |= 1 << j
                            bits[i, si, g, j >> 6] |= np.uint64(1 << (j & 63))
                        per_gap_int.append(mask)
                    per_sym_int.append(per_gap_int)
                succ_int.append(per_sym_int)
            self.succ_bits = bits
            self.succ_int = succ_int
            self.table = None
            self.table_list = None

        self.initial_index = self.index[tba._initial_config()]

    def flag_view(
        self, accepting: Any, live: Any, green: Any
    ) -> Tuple[List[bool], List[bool], List[bool]]:
        """Flag lists for an alternative accepting projection over the
        *same* configuration universe (trap row False), memoized per
        projection.

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
            n = self.n_configs
            acc = [False] * (n + 1)
            lv = [False] * (n + 1)
            gr = [False] * (n + 1)
            for c in key[0]:
                acc[self.index[c]] = True
            for c in key[1]:
                lv[self.index[c]] = True
            for c in key[2]:
                gr[self.index[c]] = True
            got = cache[key] = (acc, lv, gr)
        return got

    def _pack(self, flags: Any) -> int:
        """A boolean flag vector as one Python-int bitset."""
        mask = 0
        for i, f in enumerate(flags.tolist()):
            if f:
                mask |= 1 << i
        return mask

    # -- encoding ----------------------------------------------------------
    def encode_set(self, configs: Any) -> int:
        """A configuration frozenset as a bitset (KeyError if unknown)."""
        mask = 0
        for c in configs:
            mask |= 1 << self.index[c]
        return mask

    def decode_set(self, mask: int) -> frozenset:
        """A bitset back into the configuration frozenset."""
        out = set()
        while mask:
            low = mask & -mask
            out.add(self.configs[low.bit_length() - 1])
            mask ^= low
        return frozenset(out)

    # -- stepping ----------------------------------------------------------
    def step_index(self, ci: int, symbol: Any, gap: int) -> int:
        """One deterministic step: config index → successor index."""
        si = self.sym_index.get(symbol, self.n_symbols)
        if gap > self.gap_cap:
            gap = self.gap_cap
        return self.table_list[ci][si][gap]

    def step_mask(self, mask: int, symbol: Any, gap: int) -> int:
        """One nondeterministic step on a configuration bitset."""
        si = self.sym_index.get(symbol)
        if si is None:
            return 0
        if gap > self.gap_cap:
            gap = self.gap_cap
        succ = self.succ_int
        out = 0
        while mask:
            low = mask & -mask
            out |= succ[low.bit_length() - 1][si][gap]
            mask ^= low
        return out

    def step_many(self, states: Any, sym_indices: Any, gaps: Any) -> Any:
        """Vectorized deterministic step: one table gather advances a
        whole array of sessions (`states` may include the trap)."""
        np = NUMPY
        return self.table[states, sym_indices, np.minimum(gaps, self.gap_cap)]

    # -- lasso acceptance --------------------------------------------------
    def accepts_lasso(self, word: Any) -> bool:
        """Büchi acceptance of a lasso timed word via the tables.

        Mirrors :meth:`TimedBuchiAutomaton.accepts_lasso` exactly (the
        differential suite pins the agreement): step the prefix plus
        one loop iteration, then search the (config × loop-position)
        product graph for an accepting cycle — the shared closed walk
        :func:`deterministic_accepts_lasso` on the deterministic path,
        a bitset BFS on the nondeterministic one.
        """
        if self.deterministic:
            trap = self.trap
            accepting = self.accepting_list

            def step(ci: int, symbol: Any, gap: int) -> Optional[Tuple[int, bool]]:
                nxt = self.step_index(ci, symbol, gap)
                return None if nxt == trap else (nxt, accepting[nxt])

            return deterministic_accepts_lasso(word, self.initial_index, step)

        k, gaps, loop_syms = _loop_pattern(word)
        p0 = len(word.prefix)
        start_mask = 1 << self.initial_index
        prev_t = 0
        for i in range(p0 + k):
            s, t = word[i]
            start_mask = self.step_mask(start_mask, s, t - prev_t)
            prev_t = t
            if not start_mask:
                return False
        # reach[pos] = bitset of configs reachable at that loop position
        reach: List[int] = [0] * k
        reach[0] = start_mask
        frontier = [(0, start_mask)]
        while frontier:
            pos, mask = frontier.pop()
            nxt = self.step_mask(mask, loop_syms[pos], gaps[pos])
            np_ = (pos + 1) % k
            new = nxt & ~reach[np_]
            if new:
                reach[np_] |= new
                frontier.append((np_, new))
        for pos in range(k):
            acc = reach[pos] & self.accepting_mask
            while acc:
                low = acc & -acc
                acc ^= low
                if self._on_product_cycle(low.bit_length() - 1, pos, loop_syms, gaps):
                    return True
        return False

    def _on_product_cycle(
        self, ci: int, pos: int, loop_syms: List[Any], gaps: List[int]
    ) -> bool:
        k = len(loop_syms)
        seen: List[int] = [0] * k
        frontier = [(pos, 1 << ci)]
        while frontier:
            p, mask = frontier.pop()
            nxt = self.step_mask(mask, loop_syms[p], gaps[p])
            np_ = (p + 1) % k
            if np_ == pos and nxt & (1 << ci):
                return True
            new = nxt & ~seen[np_]
            if new:
                seen[np_] |= new
                frontier.append((np_, new))
        return False


def _loop_pattern(word: Any) -> Tuple[int, List[int], List[Any]]:
    """``(k, gaps, symbols)`` of a lasso's loop: its length, the gap
    entering each loop position (read from the second iteration, so the
    previous pair exists) and the symbol read there."""
    if word.fn is not None or word.is_finite:
        raise ValueError("accepts_lasso needs a lasso TimedWord")
    times = [t for _s, t in word.loop]
    gaps = [times[0] + word.shift - times[-1]]
    gaps += [b - a for a, b in zip(times, times[1:])]
    return len(times), gaps, [s for s, _t in word.loop]


def deterministic_accepts_lasso(
    word: Any, start: Any, step: Callable[[Any, Any, int], Optional[Tuple[Any, bool]]]
) -> bool:
    """Büchi acceptance of a lasso word by a deterministic run.

    ``step(node, symbol, gap)`` is the run's successor of ``node`` and
    whether it is accepting, or ``None`` when the run dies.  Step the
    prefix plus one loop iteration; from there every step reads the
    periodic gap pattern, so the (node, loop position) trajectory
    eventually repeats, and the word is accepted iff that cycle visits
    an accepting node.  :meth:`CompiledTBA.accepts_lasso` walks its
    dense table with it, and the on-demand successor table of
    :mod:`repro.machine.from_tba` its cells.
    """
    k, gaps, loop_syms = _loop_pattern(word)
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
    ``stream.compile_fallbacks``) when numpy is absent, when
    ``REPRO_STREAM_COMPILED=0``, or when the automaton exceeds
    :data:`MAX_CONFIGS` / :data:`MAX_TABLE_CELLS`.  The compiled artifact
    is memoized *on the analysis object*, so every session sharing the
    analysis shares one compilation (the one-build-per-language
    invariant of ``tests/test_stream_compiled.py``).
    """
    h = _obs.HOOKS
    if NUMPY is None:
        if h is not None:
            h.count("stream.compile", outcome="fallback")
            h.count("stream.compile_fallbacks", reason="numpy-absent")
        return None
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
    n = len(analysis.universe)
    tba = analysis.tba
    cells = (n + 1) * (len(tba.alphabet) + 1) * (tba._cmax + 2)
    if n > MAX_CONFIGS or cells > MAX_TABLE_CELLS:
        setattr(analysis, _CACHE_ATTR, None)
        if h is not None:
            h.count("stream.compile", outcome="fallback")
            h.count("stream.compile_fallbacks", reason="bounds")
        return None
    comp = CompiledTBA(analysis)
    setattr(analysis, _CACHE_ATTR, comp)
    if h is not None:
        h.count("stream.compile", outcome="built")
    return comp


class _Missing:
    pass


_MISSING = _Missing()
