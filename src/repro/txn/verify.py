"""Two-way verification of commit-protocol runs (offline ∧ online).

The point of :mod:`repro.txn` is not to trust the protocol code but to
*judge its words*: every recorded run is checked against the property
suite of :mod:`repro.txn.properties` along three independent paths
that must agree verdict-for-verdict:

* **offline-exact** — :func:`repro.engine.decide` over a
  :func:`~repro.spec.compile.spec_acceptor` (region-exact
  ``accepts_lasso``; handles the nondeterministic ``alt`` specs) on
  advancing-tick lasso words;
* **offline-batched** — :func:`repro.engine.decide_many` over the raw
  compiled TBA, ``backend="serial"`` or ``backend="shards"``, on
  *frozen*-tail words: each run's channel prefixes plus the frozen
  tick are encoded once per channel into one
  :class:`~repro.words.batch.LassoBatch` of columns, with no
  ``TimedWord`` built, and each property automaton's batch is judged
  in one pass over the compiled machine's successor table
  (:func:`~repro.machine.from_tba.decide_on_table`, the kernel
  replay's reports without a kernel run); the zeno shape stops at its
  first repeated loop-boundary row and is settled exactly on the same
  rows, so the machine path is decisive too (deterministic specs only
  — ``commit``/``abort``/``handshake``);
* **online** — :class:`repro.stream.SessionMux` monitors on the
  compiled-TBA path, every property on its mux's successor table, one
  session per (transaction, process) per property, fed the live
  events plus a few post-horizon ticks so every
  monitor absorbs (REJECTED when a budget lapses, green-locked
  ACCEPTING when a chain completes).

Each call builds a run's property suite once per (config, protocol)
pair it meets, not once per run; the batched path also resolves that
suite's deterministic automata and horizon once.

Per-transaction judgements then *combine* per-process verdicts:
atomicity is "no process ACCEPTs ``commit`` while another ACCEPTs
``abort``", blocking-freedom is "every surviving process ACCEPTs
``decided``" — the §6 family-of-words reading of global properties.

:func:`cross_check` runs all paths over a corpus and reports any
disagreement; the acceptance corpus in ``tests/test_txn_verify.py``
pins zero across ≥200 seeded runs with injected crashes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from ..engine.batch import decide_many
from ..engine.strategies import decide
from ..engine.verdict import Verdict
from ..obs import hooks as _obs
from ..spec.compile import spec_acceptor, to_tba
from ..words.batch import LassoBatch
from .properties import Property, channel_prefixes, properties_for, words_for
from .protocol import TransactionRun

__all__ = [
    "CheckKey",
    "CrossCheck",
    "offline_exact",
    "offline_batched",
    "online_verdicts",
    "cross_check",
    "txn_verdicts",
    "corpus_verdicts",
]

#: (run index, property name, process) — one judged channel word.
CheckKey = Tuple[int, str, str]

#: Post-horizon ticks fed to online monitors: the first tick already
#: passes every deadline (tick times start at ``report_at + 1``), the
#: rest are margin proving absorption is genuinely absorbing.
ONLINE_TICKS = 3


def _per_suite(
    runs: List[TransactionRun], build: Callable[[TransactionRun], Any]
) -> Iterator[Tuple[int, TransactionRun, Any]]:
    """Each run with its index and ``build(run)``, built once per
    (config, protocol) pair in one call; the memo is not kept across
    calls, because what ``build`` returns may be mutable.  Configs are
    told apart by identity (a corpus shares one; hashing the frozen
    dataclass costs microseconds per run), which every run in ``runs``
    keeps alive for the call."""
    built: Dict[Tuple[int, str], Any] = {}
    for i, run in enumerate(runs):
        key = (id(run.cfg), run.protocol)
        if key not in built:
            built[key] = build(run)
        yield i, run, built[key]


def _suites(
    runs: List[TransactionRun],
) -> Iterator[Tuple[int, TransactionRun, Dict[str, Property]]]:
    """Each run with its index and property suite."""
    return _per_suite(runs, lambda run: properties_for(run.cfg, run.protocol))


def offline_exact(runs: List[TransactionRun]) -> Dict[CheckKey, Verdict]:
    """Region-exact verdicts for every (run, property, process)."""
    out: Dict[CheckKey, Verdict] = {}
    acceptors: Dict[Any, Any] = {}
    for i, run, suite in _suites(runs):
        for name, prop in suite.items():
            tba = to_tba(prop.spec, prop.alphabet)
            acc = acceptors.get(id(tba))
            if acc is None:
                acc = acceptors[id(tba)] = spec_acceptor(prop.spec, prop.alphabet)
            for proc, word in words_for(run, prop, tail="advancing").items():
                report = decide(acc, word, horizon=run.report_at + 2)
                out[(i, name, proc)] = report.verdict
    return out


def _batched_suite(run: TransactionRun) -> Tuple[int, Any, List[Tuple[str, Any]]]:
    """What a run's suite gives :func:`_batched_buckets`: the horizon,
    the frozen tail, and each channel that deterministic properties
    read, with the ``(name, compiled automaton)`` of each such property."""
    channels: Dict[str, List[Tuple[str, Any]]] = {}
    for name, prop in properties_for(run.cfg, run.protocol).items():
        if prop.deterministic:
            channels.setdefault(prop.channel, []).append(
                (name, to_tba(prop.spec, prop.alphabet))
            )
    return run.report_at + 2, run.tail("frozen"), [(c, tuple(j)) for c, j in channels.items()]


def _batched_buckets(
    runs: List[TransactionRun],
) -> List[Tuple[Any, int, List[CheckKey], LassoBatch]]:
    """The ``(tba, horizon, keys, words)`` batches that
    :func:`offline_batched` judges: one per compiled deterministic
    property automaton, at the horizon of the first run that uses it.
    ``words`` holds the keys' frozen-tail channel words as one
    :class:`~repro.words.batch.LassoBatch`, encoded once per channel:
    the automata that read a channel share its batch (``commit`` and
    ``abort`` the decision channel)."""
    shared: Dict[Tuple[Any, ...], Tuple[int, List[Tuple[int, str]], LassoBatch]] = {}
    for i, run, (horizon, (loop, shift), channels) in _per_suite(runs, _batched_suite):
        for channel, judges in channels:
            entry = shared.get(judges)
            if entry is None:
                entry = shared[judges] = (horizon, [], LassoBatch())
            procs, batch = entry[1], entry[2]
            for proc, prefix in channel_prefixes(run, channel).items():
                procs.append((i, proc))
                batch.append(prefix, loop, shift)
    return [
        (tba, horizon, [(i, name, proc) for i, proc in procs], batch)
        for judges, (horizon, procs, batch) in shared.items()
        for name, tba in judges
    ]


def offline_batched(
    runs: List[TransactionRun],
    *,
    backend: str = "serial",
    workers: int = 2,
    chunk_size: Optional[int] = None,
) -> Dict[CheckKey, Verdict]:
    """Machine-replay verdicts via ``decide_many`` (deterministic
    properties only), batched per compiled automaton so the serial and
    shard backends both judge through one warm compiled acceptor."""
    h = _obs.HOOKS
    with h.span("txn.encode", runs=len(runs)) if h is not None else _null():
        buckets = _batched_buckets(runs)
    out: Dict[CheckKey, Verdict] = {}
    for tba, horizon, keys, words in buckets:
        kwargs: Dict[str, Any] = dict(horizon=horizon, backend=backend)
        if backend != "serial":
            kwargs.update(workers=workers)
            if chunk_size is not None:
                kwargs.update(chunk_size=chunk_size)
        reports = decide_many(tba, words, **kwargs)
        for key, report in zip(keys, reports):
            out[key] = report.verdict
    return out


def online_verdicts(
    runs: List[TransactionRun],
    *,
    batch: bool = True,
    mux_kwargs: Optional[Dict[str, Any]] = None,
) -> Tuple[Dict[CheckKey, Verdict], Dict[str, int]]:
    """Stream every run through per-property :class:`SessionMux`\\ es.

    One mux per compiled property automaton (sessions share its
    analysis and compiled tables); one session per (run, process).
    Events are the channel word's prefix plus :data:`ONLINE_TICKS`
    post-horizon ticks.  Returns ``(verdicts, stats)`` where stats
    counts sessions, events fed, and events advanced vectorized.
    """
    from ..stream.session import SessionMux

    muxes: Dict[int, Any] = {}
    feeds: Dict[int, List[Tuple[str, Any, int]]] = {}
    owners: Dict[int, List[Tuple[str, CheckKey]]] = {}
    for i, run, suite in _suites(runs):
        T = run.report_at
        for name, prop in suite.items():
            tba = to_tba(prop.spec, prop.alphabet)
            mid = id(tba)
            if mid not in muxes:
                muxes[mid] = SessionMux(tba, **(mux_kwargs or {}))
                feeds[mid] = []
                owners[mid] = []
            for proc, word in words_for(run, prop, tail="advancing").items():
                session = f"t{i}:{proc}"
                owners[mid].append((session, (i, name, proc)))
                feed = feeds[mid]
                for sym, t in word.prefix:
                    feed.append((session, sym, t))
                for k in range(1, ONLINE_TICKS + 1):
                    feed.append((session, "tick", T + k))
    out: Dict[CheckKey, Verdict] = {}
    stats = {"sessions": 0, "events": 0, "vectorized": 0}
    for mid, mux in muxes.items():
        events = feeds[mid]
        stats["events"] += len(events)
        if batch:
            stats["vectorized"] += mux.ingest_batch(events)
        else:
            for session, sym, t in events:
                mux.ingest(session, sym, t)
        for session, key in owners[mid]:
            report = mux.close(session)
            out[key] = report.verdict.as_verdict()
            stats["sessions"] += 1
    h = _obs.HOOKS
    if h is not None:
        for key, v in out.items():
            h.count("txn.property_verdicts", property=key[1], verdict=v.value)
    return out, stats


@dataclass
class CrossCheck:
    """Outcome of judging one corpus along every path."""

    runs: int
    checks: int
    mismatches: List[Tuple[CheckKey, str, Verdict, str, Verdict]] = field(
        default_factory=list
    )

    @property
    def ok(self) -> bool:
        return not self.mismatches


def cross_check(
    runs: List[TransactionRun],
    *,
    backends: Tuple[str, ...] = ("serial",),
    workers: int = 2,
) -> CrossCheck:
    """Judge a corpus offline-exact, offline-batched (per backend), and
    online; every path must agree wherever it is applicable."""
    h = _obs.HOOKS
    with h.span("txn.verify", runs=len(runs)) if h is not None else _null():
        exact = offline_exact(runs)
        online, _stats = online_verdicts(runs)
        result = CrossCheck(runs=len(runs), checks=0)
        for key, v in exact.items():
            result.checks += 1
            if online[key] is not v:
                result.mismatches.append((key, "offline-exact", v, "online", online[key]))
        for backend in backends:
            batched = offline_batched(runs, backend=backend, workers=workers)
            for key, v in batched.items():
                result.checks += 1
                if exact[key] is not v:
                    result.mismatches.append(
                        (key, f"batched-{backend}", v, "offline-exact", exact[key])
                    )
    return result


class _null:
    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: Any) -> bool:
        return False


def txn_verdicts(
    run: TransactionRun, verdicts: Dict[CheckKey, Verdict], index: int
) -> Dict[str, Any]:
    """Combine one run's per-process verdicts into the §6 judgements."""
    A = Verdict.ACCEPT
    committed = [p for p in run.processes if verdicts[(index, "commit", p)] is A]
    aborted = [p for p in run.processes if verdicts[(index, "abort", p)] is A]
    survivors = [p for p in run.processes if run.alive(p)]
    return {
        "atomic": not (committed and aborted),
        "all_decided": all(verdicts[(index, "decided", p)] is A for p in survivors),
        "all_fast": all(verdicts[(index, "fast", p)] is A for p in survivors),
        "handshake": verdicts[(index, "handshake", "C")] is A,
        "committed": committed,
        "aborted": aborted,
    }


def corpus_verdicts(
    runs: List[TransactionRun], verdicts: Dict[CheckKey, Verdict]
) -> Dict[str, int]:
    """Aggregate the combined judgements over a corpus."""
    agg = {"runs": len(runs), "atomic": 0, "all_decided": 0, "all_fast": 0, "handshake": 0}
    for i, run in enumerate(runs):
        tv = txn_verdicts(run, verdicts, i)
        for k in ("atomic", "all_decided", "all_fast", "handshake"):
            agg[k] += bool(tv[k])
    return agg
