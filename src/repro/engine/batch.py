"""Batched decision fan-out and the compiled-acceptor cache.

``decide_many`` is the production entry point the ROADMAP's batching
direction calls for: judge a whole sweep of words against one acceptor,
optionally across worker processes, with three guarantees:

* **Deterministic order** — reports come back in word order regardless
  of worker count or chunking;
* **Bit-identical to serial** — a word's report is a pure function of
  (acceptor, word, horizon, strategy, seed), however the words are
  chunked: the serial loop, the shard fallback and every shard worker
  judge a run of words through one chunk function
  (:func:`_decide_chunk`, ``strategy.run_many``), so the pooled path
  returns exactly what the serial path would;
* **Seeded** — each word's report carries ``evidence["seed"] =
  seed + index``, so sampled strategies stay reproducible under any
  fan-out.

``words`` may be a list or a :class:`~repro.words.batch.LassoBatch`
of lasso words as columns, which stays one: the pool ships it in
slices, and ``lasso-exact`` judges it in one pass over a compiled
machine's successor table.

There is one process backend: the warm shard pool of
:mod:`repro.shard` (``backend="shards"``).  Its workers outlive the
call, so the acceptor and the words cross a pipe and must pickle (a
machine compiled from a TBA pickles as its automaton); an acceptor
that closes over a local function cannot, and is judged by the serial
loop instead, with the reason counted.  ``backend="auto"`` is the
serial loop, because on the repository benchmark's decide workload no
process fan-out beats it (``docs/performance.md``).  The pool tries
each chunk once, and this module judges a chunk it could not finish
in process.  The fault-tolerant variant — retries, deadline budgets,
graceful degradation — lives in :mod:`repro.engine.resilience`; both
entry points pick their path through :func:`_route`.

The second half of the module is the compiled-acceptor LRU: building an
acceptor is often far more expensive than one decision (notably the
TBA→machine compilation of :mod:`repro.machine.from_tba`, which used to
be recompiled on every call).  :func:`cached_acceptor` memoizes any
identity-keyed construction, anchoring the keyed objects so ``id``
reuse cannot alias entries; :func:`compiled_tba` is the TBA
specialization.
"""

from __future__ import annotations

import multiprocessing
from collections import OrderedDict
from typing import Any, Callable, List, Optional, Sequence, Tuple, Union

from ..obs import hooks as _obs
from ..words.batch import LassoBatch
from .strategies import DEFAULT_HORIZON, DecisionStrategy, get_strategy
from .verdict import DecisionReport

__all__ = [
    "decide_many",
    "AcceptorCache",
    "cached_acceptor",
    "compiled_tba",
    "clear_caches",
]


def _decide_chunk(
    acceptor: Any,
    words: Sequence[Any],
    horizon: int,
    strategy: DecisionStrategy,
    seed: int,
    lo: int,
) -> List[DecisionReport]:
    """The seeded, index-stamped reports of a run of words whose first
    has index ``lo``, judged together (shared by every backend)."""
    h = _obs.HOOKS
    if h is not None:
        h.count("engine.words_judged", len(words), strategy=strategy.name)
    reports = strategy.run_many(acceptor, words, horizon)
    for index, report in enumerate(reports, lo):
        report.evidence["seed"] = seed + index
        report.evidence["index"] = index
    return reports


def _decide_one(
    acceptor: Any,
    word: Any,
    horizon: int,
    strategy: DecisionStrategy,
    seed: int,
    index: int,
) -> DecisionReport:
    """One seeded, index-stamped decision: a chunk of one word."""
    return _decide_chunk(acceptor, [word], horizon, strategy, seed, index)[0]


BACKENDS = ("auto", "serial", "shards")


def _route(
    acceptor: Any,
    words: Sequence[Any],
    strategy: Union[str, DecisionStrategy],
    *,
    workers: int,
    chunk_size: Optional[int],
    backend: str,
) -> Tuple[Any, List[Any], DecisionStrategy, str, Any]:
    """Validate one batch call and pick where it runs.

    Shared by :func:`decide_many` and
    :func:`~repro.engine.resilience.decide_many_resilient`, which each
    resolve ``"auto"`` before calling.  Returns ``(acceptor, words,
    strategy, mode, specs)``: the acceptor every side judges with (a raw
    TBA compiled through the cache), ``mode`` ``"serial"`` or
    ``"shards"``, and for shards the ``(language, strategy)`` specs the
    workers receive.  ``"shards"`` runs serially when there is nothing
    to fan out, and falls back to serial — counted in
    ``engine.backend_fallbacks{reason}`` — when the platform cannot fork
    or the acceptor or strategy cannot pickle.
    """
    if workers < 1:
        raise ValueError(
            f"workers must be >= 1, got {workers} (use workers=1 for the "
            "serial path)"
        )
    if chunk_size is not None and chunk_size < 1:
        raise ValueError(
            f"chunk_size must be >= 1 or None for automatic sizing, got "
            f"{chunk_size}"
        )
    if backend not in BACKENDS:
        raise ValueError(f"backend must be one of {BACKENDS}, got {backend!r}")
    if not isinstance(words, LassoBatch):
        words = list(words)
    strat = get_strategy(strategy)
    from ..automata.timed import TimedBuchiAutomaton

    if isinstance(acceptor, TimedBuchiAutomaton):
        acceptor = compiled_tba(acceptor)
    h = _obs.HOOKS
    mode, specs = "serial", None
    if backend == "shards" and workers > 1 and len(words) > 1:
        from ..shard import pool as shard_pool

        reason = None
        if "fork" not in multiprocessing.get_all_start_methods():
            reason = "fork-unavailable"
        else:
            try:
                specs = (
                    shard_pool.language_spec(acceptor),
                    shard_pool.strategy_spec(strat),
                )
            except shard_pool.LanguageUnshippable as exc:
                reason = exc.reason
        if reason is None:
            mode = "shards"
        elif h is not None:
            h.count("engine.backend_fallbacks", reason=reason)
    if h is not None:
        h.count("engine.batches", mode=mode)
        h.count("engine.batch_words", len(words))
    return acceptor, words, strat, mode, specs


def decide_many(
    acceptor: Any,
    words: Sequence[Any],
    *,
    horizon: int = DEFAULT_HORIZON,
    strategy: Union[str, DecisionStrategy] = "lasso-exact",
    workers: int = 1,
    chunk_size: Optional[int] = None,
    seed: int = 0,
    backend: str = "auto",
) -> List[DecisionReport]:
    """Judge every word in ``words``, serially or over the shard pool.

    Returns one report per word, in word order, bit-identical across
    backends.  ``backend`` selects where the words are judged:

    * ``"serial"`` and ``"auto"`` (default) — the in-process loop;
    * ``"shards"`` — ``workers`` processes of the persistent shard pool
      of :mod:`repro.shard` (warm compiled acceptors across calls;
      requires a picklable acceptor, and falls back to the serial loop
      with a recorded reason otherwise).

    Every routing-away-from-the-pool decision is counted in
    ``engine.backend_fallbacks{reason=...}``.
    """
    acceptor, words, strat, mode, specs = _route(
        acceptor, words, strategy, workers=workers, chunk_size=chunk_size,
        backend="serial" if backend == "auto" else backend,
    )
    n = len(words)
    h = _obs.HOOKS

    def run_serial() -> List[DecisionReport]:
        return _decide_chunk(acceptor, words, horizon, strat, seed, 0)

    def run_shards() -> List[DecisionReport]:
        from ..shard import pool as shard_pool

        slots, failures = shard_pool.run_chunks(
            *specs, words, shard_pool.plan_chunks(n, workers, chunk_size),
            horizon=horizon, seed=seed, workers=workers,
        )
        # Any chunk the pool could not finish, a dead worker's included,
        # is judged in-process: same pure function, same reports.
        for lo, hi, reason, _detail in failures:
            if h is not None:
                h.count("engine.backend_fallbacks", reason=f"shard-{reason}")
            chunk = _decide_chunk(acceptor, words[lo:hi], horizon, strat, seed, lo)
            slots.update(enumerate(chunk, lo))
        return [slots[i] for i in range(n)]

    run = run_shards if mode == "shards" else run_serial
    if h is None:
        return run()
    with h.span(
        "engine.decide_many",
        words=n,
        workers=1 if mode == "serial" else workers,
        strategy=strat.name,
        horizon=horizon,
        backend=mode,
    ):
        return run()


# ----------------------------------------------------------------------
# compiled-acceptor cache
# ----------------------------------------------------------------------

class AcceptorCache:
    """A small LRU of compiled acceptors.

    Keys are arbitrary hashables — typically ``(tag, id(obj), …)``.
    Because ``id`` keys are only valid while the keyed object lives,
    every entry also *anchors* the objects it was keyed on, so a cached
    entry can never be served for a recycled id.

    ``maxsize=0`` means *no caching*: every lookup bypasses the table
    and rebuilds (counted as ``outcome="bypass"`` in the obs counter),
    rather than the old insert-then-immediately-evict churn that
    reported a hit-capable cache while never serving one.
    """

    def __init__(self, maxsize: int = 128):
        if maxsize < 0:
            raise ValueError(
                f"maxsize must be >= 0 (0 disables caching), got {maxsize}"
            )
        self.maxsize = maxsize
        self._entries: "OrderedDict[Any, Tuple[Tuple[Any, ...], Any]]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get_or_build(self, key: Any, factory: Callable[[], Any], *anchors: Any) -> Any:
        h = _obs.HOOKS
        if self.maxsize == 0:
            self.misses += 1
            if h is not None:
                h.count("engine.acceptor_cache", outcome="bypass")
                h.gauge("engine.acceptor_cache_size", 0)
            return factory()
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            self.hits += 1
            if h is not None:
                h.count("engine.acceptor_cache", outcome="hit")
            return entry[1]
        self.misses += 1
        if h is not None:
            h.count("engine.acceptor_cache", outcome="miss")
        acceptor = factory()
        self._entries[key] = (anchors, acceptor)
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
            self.evictions += 1
            if h is not None:
                h.count("engine.acceptor_cache", outcome="eviction")
        if h is not None:
            h.gauge("engine.acceptor_cache_size", len(self._entries))
        return acceptor

    def clear(self) -> None:
        self._entries.clear()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)


#: The process-wide cache every domain's decide helper shares.
_CACHE = AcceptorCache()


def cached_acceptor(key: Any, factory: Callable[[], Any], *anchors: Any) -> Any:
    """Memoized acceptor construction through the shared engine cache."""
    return _CACHE.get_or_build(key, factory, *anchors)


def compiled_tba(tba: Any, allow_nondeterministic: bool = False) -> Any:
    """The cached TBA→machine compilation (Section 3.1.1, executable).

    Same contract as :func:`repro.machine.from_tba.tba_to_algorithm`,
    but repeated calls on the same automaton reuse the compiled
    :class:`~repro.machine.rtalgorithm.RealTimeAlgorithm`.
    """
    from ..machine.from_tba import tba_to_algorithm

    return cached_acceptor(
        ("tba", id(tba), allow_nondeterministic),
        lambda: tba_to_algorithm(tba, allow_nondeterministic=allow_nondeterministic),
        tba,
    )


def clear_caches() -> None:
    """Drop every cached acceptor (tests and long-lived services)."""
    _CACHE.clear()
