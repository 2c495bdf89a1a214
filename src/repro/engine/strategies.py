"""Pluggable decision procedures over Definition 3.4 acceptors.

The E14 ablation (``benchmarks/bench_def34_acceptance.py``) contrasts
two ways of judging "infinitely many f on the output tape"; before the
engine existed they were hard-wired per call site (``decide`` vs
``count_f``).  Here they are first-class strategies, selectable per
request:

* :class:`LassoExact` (``"lasso-exact"``) — the paper's own
  absorbing-verdict discipline: run until s_f/s_r is declared or the
  horizon passes.  Exact on the lasso words every Section 4/5
  construction produces, and O(decision point) regardless of horizon.
  A machine compiled from a TBA judges lasso words on its on-demand
  successor table instead of a kernel replay, a whole run of them in
  one pass (:meth:`LassoExact.run_many`,
  :func:`~repro.machine.from_tba.decide_on_table`), with the same
  reports field for field.
* :class:`LongPrefixEmpirical` (``"long-prefix-empirical"``) — run a
  long prefix, count f's, and decide empirically (f_count > 0 ⟺
  accept).  Linear in the horizon and only horizon-confident, but
  applicable to machines that never declare an absorbing state.
* :class:`FRate` (``"f-rate"``) — the raw prefix count with no verdict
  rewrite, for languages judged by f-*rate* (the periodic L_pq service
  discipline, eq. (10)).

An *acceptor* is anything exposing the machine judge protocol —
``decide(word, horizon=…)`` and ``count_f(word, horizon)`` returning a
:class:`~repro.engine.verdict.DecisionReport` — i.e. every
:class:`~repro.machine.rtalgorithm.RealTimeAlgorithm`, or a plain
callable wrapped in :class:`FunctionAcceptor` (how the ad hoc routing
validator joins the engine without being a machine).

A fourth strategy, ``"online-incremental"``
(:mod:`repro.stream.strategy`), registers lazily on first
:func:`get_strategy` request: it replays the word through the stream
runtime's monitor and also accepts a *raw*
:class:`~repro.automata.timed.TimedBuchiAutomaton`, wrapping it with
the cached :func:`~repro.engine.batch.compiled_tba` machine (streaming
judgement itself runs on the vectorized tables of
:mod:`repro.stream.compiled` where available — see
``docs/performance.md``).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from ..machine.tape import zeno_event_cap
from ..obs import hooks as _obs
from ..words.batch import LassoBatch
from .verdict import DecisionReport, Verdict

__all__ = [
    "DecisionStrategy",
    "LassoExact",
    "LongPrefixEmpirical",
    "FRate",
    "FunctionAcceptor",
    "STRATEGIES",
    "get_strategy",
    "decide",
    "resolve_zeno",
]

#: Default judging horizon, matching the machine layer's.
DEFAULT_HORIZON = 10_000


def resolve_zeno(report: DecisionReport, acceptor: Any, word: Any) -> DecisionReport:
    """Exact verdict for a frozen-time lasso the machine could not absorb.

    A lasso word with ``shift == 0`` repeats its loop forever at one
    frozen timestamp, so the operational judge can never see the time
    horizon pass: its replay is cut off after a bounded number of loop
    unrollings (:func:`repro.machine.tape.zeno_event_cap` — for a
    machine compiled from a deterministic TBA, the count after which
    its run has died or repeated, so a run that reaches the cut alive
    never dies) and — unless an absorbing verdict fired inside that
    window — comes back UNDECIDED (a successor table's pass stops
    earlier, at the first repeated loop-boundary row, and settles a
    deterministic source's run itself).  When the acceptor carries its
    source automaton (``source_tba``, attached by the §3.1.1
    compilation), the language question is still exactly decidable by
    region mathematics, which is what the ``lasso-exact`` contract
    promises.  This rewrites such an UNDECIDED report in place: verdict
    from ``accepts_lasso``, ``decided_at`` pinned to the stall instant,
    and ``evidence["zeno"] = "region-exact"``.  A successor table of a
    syntactically deterministic source answers ``accepts_lasso`` with
    its walk over rows; any other acceptor reads the interpreted
    automaton (a walk over configuration *sets* does not preserve
    Büchi acceptance).

    Reports that already carry an absorbing verdict, and acceptors with
    no source automaton, pass through untouched (the latter gain
    ``evidence["zeno"] = "cutoff"`` so the bounded replay is visible).
    """
    if report.verdict is not Verdict.UNDECIDED:
        return report
    tba = getattr(acceptor, "source_tba", None)
    if tba is None:
        report.evidence["zeno"] = "cutoff"
        return report
    table = getattr(acceptor, "successor_table", None)
    judge = table if table is not None and table.deterministic else tba
    return report.settle_zeno(judge.accepts_lasso(word), word.time_at(len(word.prefix)))


class DecisionStrategy:
    """A decision procedure: (acceptor, word, horizon) → report."""

    name: str = "strategy"

    def run(self, acceptor: Any, word: Any, horizon: int) -> DecisionReport:
        raise NotImplementedError

    def run_many(self, acceptor: Any, words: Sequence[Any], horizon: int) -> List[DecisionReport]:
        """One report per word, in word order (each word judged alone
        unless a strategy judges a run of words together)."""
        return [self.run(acceptor, word, horizon) for word in words]

    def __repr__(self) -> str:  # pragma: no cover
        return f"<{type(self).__name__} {self.name!r}>"


class LassoExact(DecisionStrategy):
    """Absorbing-verdict judging (the paper's acceptors' own discipline).

    When the acceptor carries its own ``successor_table`` and meters no
    space limit, its lasso words (no ``fn``, a non-empty ``loop``) are
    judged together in one pass over the table
    (:func:`~repro.machine.from_tba.decide_on_table`): a
    :class:`~repro.words.batch.LassoBatch` as it is, a list of words
    after encoding its lassos into one.  Every other word is replayed
    by ``acceptor.decide``.  One word is a batch of one.
    """

    name = "lasso-exact"

    def run(self, acceptor: Any, word: Any, horizon: int) -> DecisionReport:
        return self.run_many(acceptor, [word], horizon)[0]

    def run_many(self, acceptor: Any, words: Sequence[Any], horizon: int) -> List[DecisionReport]:
        # The machine package imports this one: import on first use.
        from ..machine.from_tba import decide_on_table

        on_table = (
            getattr(acceptor, "successor_table", None) is not None
            # The kernel meters working storage against a space limit.
            and acceptor.space_limit is None
        )
        if on_table and isinstance(words, LassoBatch):
            reports: List[Any] = decide_on_table(acceptor, words, horizon)
        else:
            reports = [None] * len(words)
            lassos = on_table and [
                i
                for i, w in enumerate(words)
                if getattr(w, "fn", None) is None and getattr(w, "loop", ())
            ]
            if lassos:
                batch = LassoBatch.of(words[i] for i in lassos)
                for i, report in zip(lassos, decide_on_table(acceptor, batch, horizon)):
                    reports[i] = report
        for i, report in enumerate(reports):
            if report is None:
                report = reports[i] = acceptor.decide(words[i], horizon=horizon)
            if report.verdict is Verdict.UNDECIDED:
                word = words[i]
                if zeno_event_cap(word) is not None:
                    report = reports[i] = resolve_zeno(report, acceptor, word)
            report.strategy = self.name
            report.evidence.setdefault("discipline", "absorbing-verdict")
        return reports


class LongPrefixEmpirical(DecisionStrategy):
    """Prefix f-counting with an empirical accept/reject rewrite.

    The raw machine verdict (usually UNDECIDED — ``count_f`` never
    waits for an absorbing state) is preserved in
    ``evidence["raw_verdict"]``; the report's verdict becomes the
    empirical judgement f_count > 0 ⟺ ACCEPT, which is what the E14
    agreement sweep compares against the exact discipline.
    """

    name = "long-prefix-empirical"

    def run(self, acceptor: Any, word: Any, horizon: int) -> DecisionReport:
        report = acceptor.count_f(word, horizon)
        report.strategy = self.name
        report.evidence.setdefault("discipline", "prefix-f-count")
        report.evidence["raw_verdict"] = report.verdict.value
        report.verdict = Verdict.ACCEPT if report.f_count > 0 else Verdict.REJECT
        return report


class FRate(DecisionStrategy):
    """Raw prefix f-counting, verdict untouched (f-rate judging)."""

    name = "f-rate"

    def run(self, acceptor: Any, word: Any, horizon: int) -> DecisionReport:
        report = acceptor.count_f(word, horizon)
        report.strategy = self.name
        report.evidence.setdefault("discipline", "prefix-f-count")
        return report


class FunctionAcceptor:
    """Adapts a plain decision function to the acceptor protocol.

    ``fn(word, horizon)`` must return a :class:`DecisionReport`; both
    judge entry points delegate to it, so any strategy degrades to
    "call the function".  This is how non-machine validators (the ad
    hoc R_{n,u} checker) ride the batch layer.
    """

    def __init__(self, fn: Callable[[Any, int], DecisionReport], name: str = "fn"):
        self.fn = fn
        self.name = name

    def decide(self, word: Any, horizon: int = DEFAULT_HORIZON) -> DecisionReport:
        return self.fn(word, horizon)

    def count_f(self, word: Any, horizon: int) -> DecisionReport:
        return self.fn(word, horizon)


#: Registry of selectable strategies (the E14 pair + f-rate).
STRATEGIES: Dict[str, DecisionStrategy] = {
    s.name: s for s in (LassoExact(), LongPrefixEmpirical(), FRate())
}

#: Strategies registered by other packages when imported.  The engine
#: cannot import them statically (they import the engine), so
#: :func:`get_strategy` imports the owning module on first request.
_LAZY_STRATEGIES: Dict[str, str] = {
    "online-incremental": "repro.stream",
}


def get_strategy(spec: Union[str, DecisionStrategy]) -> DecisionStrategy:
    """Resolve a strategy name (or pass an instance through)."""
    if isinstance(spec, DecisionStrategy):
        return spec
    if spec not in STRATEGIES and spec in _LAZY_STRATEGIES:
        import importlib

        importlib.import_module(_LAZY_STRATEGIES[spec])
    try:
        return STRATEGIES[spec]
    except KeyError:
        raise ValueError(
            f"unknown decision strategy {spec!r}; known: "
            f"{sorted(set(STRATEGIES) | set(_LAZY_STRATEGIES))}"
        ) from None


def decide(
    acceptor: Any = None,
    word: Any = None,
    *,
    horizon: int = DEFAULT_HORIZON,
    strategy: Union[str, DecisionStrategy] = "lasso-exact",
    seed: Optional[int] = None,
    query: Any = None,
    alphabet: Any = None,
) -> DecisionReport:
    """Judge one word through the engine.

    The single-word entry point every domain's decide helper now routes
    through; ``seed`` is recorded in the evidence (reserved for sampled
    strategies, and what makes batch fan-out reproducible).  ``query``
    (text or a :mod:`repro.query` builder query, ``alphabet`` optionally
    widening its symbol set) stands in for ``acceptor``: the query
    lowers to an exact-lasso acceptor and the word is judged against it.
    """
    if (acceptor is None) == (query is None):
        raise ValueError("pass exactly one of acceptor / query")
    if query is not None:
        from ..query import query_acceptor

        acceptor = query_acceptor(query, alphabet)
    elif alphabet is not None:
        raise ValueError("alphabet= only applies to query= decisions")
    strat = get_strategy(strategy)
    h = _obs.HOOKS
    if h is None:
        report = strat.run(acceptor, word, horizon)
    else:
        with h.span(
            "engine.decide",
            strategy=strat.name,
            horizon=horizon,
            acceptor=getattr(acceptor, "name", type(acceptor).__name__),
        ):
            report = strat.run(acceptor, word, horizon)
        h.count("engine.decisions", strategy=strat.name)
        h.count("engine.verdicts", verdict=report.verdict.value)
    if seed is not None:
        report.evidence["seed"] = seed
    return report
