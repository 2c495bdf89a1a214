"""Fault-tolerant decision fan-out: the crash-recovering pool path.

:func:`repro.engine.batch.decide_many` has no recovery ladder: an
acceptor exception aborts the sweep, and a slow word holds every
verdict hostage.  Production fan-out needs the failure model real-time
parallel computation treats as first-class: processors die, and
recovery itself has a timing budget.  This module is that layer.  It
runs the batch's chunks over the warm shard pool of :mod:`repro.shard`
(or the serial loop), and every failure comes back to the parent as an
explicit record:

* **worker death** — the worker's pipe closes with nothing on it
  (SIGKILL, OOM, segfault).  The pool respawns the worker, and the
  chunk is retried with capped exponential backoff, optionally split in
  half first so a single poison word is isolated in O(log chunk)
  retries;
* **worker exception** — the worker reports the error and keeps
  serving; same retry path, with the reason preserved;
* **deadline budget** — ``deadline_s`` bounds the whole batch in
  wall-clock seconds.  On expiry every still-missing word gets an
  explicit :data:`~repro.engine.verdict.Verdict.UNDECIDED` report
  (the engine's inconclusive verdict) marked
  ``evidence["degraded"] = "deadline"`` — partial results, never a
  hang;
* **graceful degradation** — a chunk that exhausts its retries falls
  back to the parent's serial loop under the same strategy (reports
  stay bit-identical to the serial path and carry *no* marker), then
  optionally to a cheaper strategy (``fallback_strategy``, typically
  ``"long-prefix-empirical"``), whose reports are explicitly marked
  ``evidence["degraded"] = "strategy-fallback:<name>"``.

An acceptor that cannot pickle never reaches a worker.  It is judged
by the serial loop — retries and the deadline still apply, process
isolation does not — and
``engine.backend_fallbacks{reason="unshippable-acceptor"}`` counts it.

The invariant the fault suite pins: **every unmarked report is
bit-identical to what the serial path would have produced** — retries
and serial fallback re-run the pure per-word function, so fault
recovery is invisible in the verdict stream; only *marked* reports may
differ, and the marker says why.

Observability: ``engine.retries{reason}``, ``engine.degraded{mode}``,
``engine.deadline_misses``, and the ``engine.decide_many_resilient``
span.  Fault wrappers for tests/benchmarks live in
:mod:`repro.engine.faults`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence, Union

from ..obs import hooks as _obs
from .batch import _decide_one, _route
from .strategies import DEFAULT_HORIZON, DecisionStrategy, get_strategy
from .verdict import DecisionReport, Verdict

__all__ = [
    "RetryPolicy",
    "DegradePolicy",
    "BatchOutcome",
    "decide_many_resilient",
]


@dataclass(frozen=True)
class RetryPolicy:
    """How failed chunks are retried.

    ``backoff_base * 2**attempt`` seconds between attempts, capped at
    ``backoff_cap``; ``split_chunks`` halves a failed multi-word chunk
    before requeueing so a poison word is cornered in O(log n) retries.
    """

    max_retries: int = 2
    backoff_base: float = 0.02
    backoff_cap: float = 1.0
    split_chunks: bool = True

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise ValueError("backoff_base/backoff_cap must be >= 0")

    def delay(self, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (1-based)."""
        return min(self.backoff_cap, self.backoff_base * (2 ** (attempt - 1)))


@dataclass(frozen=True)
class DegradePolicy:
    """What happens after retries are exhausted.

    ``serial_fallback`` re-judges the chunk in the parent under the
    *same* strategy (bit-identical, unmarked); ``fallback_strategy``
    names a cheaper strategy tried next (marked in evidence).  With
    both disabled, abandoned words get UNDECIDED reports marked
    ``degraded="abandoned"``.
    """

    serial_fallback: bool = True
    fallback_strategy: Optional[str] = None


@dataclass
class BatchOutcome:
    """One resilient batch: the reports plus the recovery ledger."""

    reports: List[DecisionReport]
    mode: str = "serial"
    retries: int = 0
    worker_deaths: int = 0
    serial_fallbacks: int = 0
    degraded_indices: List[int] = field(default_factory=list)
    deadline_missed: bool = False
    elapsed_s: float = 0.0

    @property
    def clean(self) -> bool:
        """True iff every report is the undegraded serial-identical one."""
        return not self.degraded_indices and not self.deadline_missed


class _Chunk:
    __slots__ = ("lo", "hi", "attempt", "not_before")

    def __init__(self, lo: int, hi: int, attempt: int = 0, not_before: float = 0.0):
        self.lo = lo
        self.hi = hi
        self.attempt = attempt
        self.not_before = not_before

    def indices(self) -> range:
        return range(self.lo, self.hi)


def _inconclusive(
    index: int, seed: int, strat_name: str, reason: str, detail: Optional[str] = None
) -> DecisionReport:
    """The explicit INCONCLUSIVE remainder report (UNDECIDED + marker)."""
    evidence = {"seed": seed + index, "index": index, "degraded": reason}
    if detail is not None:
        evidence["error"] = detail
    return DecisionReport(
        verdict=Verdict.UNDECIDED, horizon=0, evidence=evidence, strategy=strat_name
    )


def decide_many_resilient(
    acceptor: Any,
    words: Sequence[Any],
    *,
    horizon: int = DEFAULT_HORIZON,
    strategy: Union[str, DecisionStrategy] = "lasso-exact",
    workers: int = 1,
    chunk_size: Optional[int] = None,
    seed: int = 0,
    retry: Optional[RetryPolicy] = None,
    degrade: Optional[DegradePolicy] = None,
    deadline_s: Optional[float] = None,
    backend: str = "auto",
) -> BatchOutcome:
    """Judge every word, surviving worker faults within a time budget.

    Same contract as :func:`~repro.engine.batch.decide_many` — one
    report per word, in word order, unmarked reports bit-identical to
    the serial path — plus the failure model described in the module
    docstring.  Returns a :class:`BatchOutcome` carrying the reports
    and the recovery ledger.

    ``backend`` picks the fan-out like ``decide_many``'s, except that
    ``"auto"`` sends ``workers > 1`` to ``"shards"``: the persistent
    pool of :mod:`repro.shard`, where worker deaths are healed by
    respawn and the retry/degrade ladder applies.  An acceptor that
    cannot pickle is judged serially instead, with the reason recorded.
    """
    if deadline_s is not None and deadline_s <= 0:
        raise ValueError(f"deadline_s must be > 0, got {deadline_s}")
    acceptor, words, strat, mode, specs = _route(
        acceptor, words, strategy, workers=workers, chunk_size=chunk_size,
        backend="shards" if backend == "auto" else backend,
    )
    retry = retry if retry is not None else RetryPolicy()
    degrade = degrade if degrade is not None else DegradePolicy()
    n = len(words)
    h = _obs.HOOKS

    start = time.perf_counter()
    deadline_at = None if deadline_s is None else start + deadline_s
    outcome = BatchOutcome(reports=[], mode=mode)

    def run() -> None:
        slots: List[Optional[DecisionReport]] = [None] * n
        if mode == "shards":
            _run_pooled_shards(
                slots, acceptor, words, horizon, strat, seed, workers,
                chunk_size, retry, degrade, deadline_at, outcome, specs,
            )
        else:
            _run_serial(
                slots, acceptor, words, horizon, strat, seed,
                retry, degrade, deadline_at, outcome,
            )
        for i in range(n):
            if slots[i] is None:
                slots[i] = _inconclusive(i, seed, strat.name, "deadline")
                outcome.degraded_indices.append(i)
        outcome.degraded_indices.sort()
        outcome.reports = slots  # type: ignore[assignment]
        if outcome.deadline_missed and h is not None:
            h.count("engine.deadline_misses")

    if h is None:
        run()
    else:
        with h.span(
            "engine.decide_many_resilient",
            words=n,
            workers=1 if mode == "serial" else workers,
            strategy=strat.name,
            horizon=horizon,
            deadline_s=deadline_s if deadline_s is not None else 0,
            backend=mode,
        ):
            run()
    outcome.elapsed_s = time.perf_counter() - start
    return outcome


# ----------------------------------------------------------------------
# degrade ladder (shared by both paths)
# ----------------------------------------------------------------------

def _degrade_index(
    slots: List[Optional[DecisionReport]],
    i: int,
    acceptor: Any,
    words: Sequence[Any],
    horizon: int,
    strat: DecisionStrategy,
    seed: int,
    degrade: DegradePolicy,
    outcome: BatchOutcome,
    *,
    try_serial: bool,
    detail: Optional[str],
    deadline_at: Optional[float],
) -> None:
    """Last-resort judgement of one word after retries are exhausted."""
    h = _obs.HOOKS
    if deadline_at is not None and time.perf_counter() >= deadline_at:
        outcome.deadline_missed = True
        slots[i] = _inconclusive(i, seed, strat.name, "deadline", detail)
        outcome.degraded_indices.append(i)
        return
    if try_serial:
        try:
            slots[i] = _decide_one(acceptor, words[i], horizon, strat, seed, i)
            outcome.serial_fallbacks += 1
            if h is not None:
                h.count("engine.degraded", mode="serial-fallback")
            return
        except Exception as exc:
            detail = repr(exc)
    if degrade.fallback_strategy is not None:
        cheap = get_strategy(degrade.fallback_strategy)
        try:
            report = _decide_one(acceptor, words[i], horizon, cheap, seed, i)
            report.evidence["degraded"] = f"strategy-fallback:{cheap.name}"
            slots[i] = report
            outcome.degraded_indices.append(i)
            if h is not None:
                h.count("engine.degraded", mode="strategy-fallback")
            return
        except Exception as exc:
            detail = repr(exc)
    slots[i] = _inconclusive(i, seed, strat.name, "abandoned", detail)
    outcome.degraded_indices.append(i)
    if h is not None:
        h.count("engine.degraded", mode="abandoned")


# ----------------------------------------------------------------------
# serial path: retries + deadline without a pool
# ----------------------------------------------------------------------

def _run_serial(
    slots: List[Optional[DecisionReport]],
    acceptor: Any,
    words: Sequence[Any],
    horizon: int,
    strat: DecisionStrategy,
    seed: int,
    retry: RetryPolicy,
    degrade: DegradePolicy,
    deadline_at: Optional[float],
    outcome: BatchOutcome,
) -> None:
    h = _obs.HOOKS
    for i in range(len(words)):
        if deadline_at is not None and time.perf_counter() >= deadline_at:
            outcome.deadline_missed = True
            return
        attempt = 0
        while True:
            try:
                slots[i] = _decide_one(acceptor, words[i], horizon, strat, seed, i)
                break
            except Exception as exc:
                attempt += 1
                outcome.retries += 1
                if h is not None:
                    h.count("engine.retries", reason="exception")
                if attempt > retry.max_retries:
                    # serial judging just failed, so the ladder skips
                    # the (identical) serial-fallback rung
                    _degrade_index(
                        slots, i, acceptor, words, horizon, strat, seed,
                        degrade, outcome, try_serial=False,
                        detail=repr(exc), deadline_at=deadline_at,
                    )
                    break
                delay = retry.delay(attempt)
                if deadline_at is not None:
                    delay = min(delay, max(0.0, deadline_at - time.perf_counter()))
                time.sleep(delay)


# ----------------------------------------------------------------------
# shard-pool path: the same ladder over persistent workers
# ----------------------------------------------------------------------

def _run_pooled_shards(
    slots: List[Optional[DecisionReport]],
    acceptor: Any,
    words: Sequence[Any],
    horizon: int,
    strat: DecisionStrategy,
    seed: int,
    workers: int,
    chunk_size: Optional[int],
    retry: RetryPolicy,
    degrade: DegradePolicy,
    deadline_at: Optional[float],
    outcome: BatchOutcome,
    specs: Any,
) -> None:
    """Resilient fan-out over the persistent shard pool.

    Round-based: every backoff-eligible chunk goes to the pool at once,
    completed chunks fill their slots, and failures come back as
    explicit records that re-enter the retry ladder (capped backoff,
    optional chunk splitting, then the degrade ladder).  Worker deaths
    are healed *inside* the pool by respawn — the shard that died is
    back at strength before the retry fires.
    """
    from ..shard import pool as shard_pool

    h = _obs.HOOKS
    pending: List[_Chunk] = [
        _Chunk(lo, hi)
        for lo, hi in shard_pool.plan_chunks(len(words), workers, chunk_size)
    ]

    def fail(chunk: _Chunk, reason: str, detail: Optional[str]) -> None:
        attempt = chunk.attempt + 1
        if reason == "worker-death":
            outcome.worker_deaths += 1
        if attempt > retry.max_retries:
            for i in chunk.indices():
                if slots[i] is None:
                    _degrade_index(
                        slots, i, acceptor, words, horizon, strat, seed,
                        degrade, outcome, try_serial=degrade.serial_fallback,
                        detail=detail, deadline_at=deadline_at,
                    )
            return
        outcome.retries += 1
        if h is not None:
            h.count("engine.retries", reason=reason)
        not_before = time.perf_counter() + retry.delay(attempt)
        if retry.split_chunks and chunk.hi - chunk.lo > 1:
            mid = (chunk.lo + chunk.hi) // 2
            pending.append(_Chunk(chunk.lo, mid, attempt, not_before))
            pending.append(_Chunk(mid, chunk.hi, attempt, not_before))
        else:
            pending.append(_Chunk(chunk.lo, chunk.hi, attempt, not_before))

    while pending:
        now = time.perf_counter()
        if deadline_at is not None and now >= deadline_at:
            outcome.deadline_missed = True
            return
        eligible = [c for c in pending if c.not_before <= now]
        if not eligible:
            target = min(c.not_before for c in pending)
            if deadline_at is not None:
                target = min(target, deadline_at)
            time.sleep(max(0.0, target - time.perf_counter()))
            continue
        for chunk in eligible:
            pending.remove(chunk)
        by_range = {(c.lo, c.hi): c for c in eligible}
        results, failures = shard_pool.run_chunks(
            *specs, words, list(by_range),
            horizon=horizon, seed=seed, workers=workers,
            deadline_at=deadline_at, max_retries=0,
        )
        for i, report in results.items():
            slots[i] = report
        for lo, hi, reason, detail in failures:
            chunk = by_range[(lo, hi)]
            if reason == "deadline":
                # missing slots become explicit deadline markers upstream
                outcome.deadline_missed = True
                continue
            fail(
                chunk,
                "worker-death" if reason in ("worker-death", "no-workers") else "exception",
                detail,
            )
