"""The ``"online-incremental"`` decision strategy.

Routes :func:`repro.engine.decide` through a fresh
:class:`~repro.stream.monitor.Monitor`: the word is replayed into the
monitor one event at a time (exactly the events the batch tape would
deliver — timestamps ≤ horizon, at most the tape's feeder cap) and the
final report comes from :meth:`Monitor.finish`.  The monitor pumps
the kernel's simulator loop, which ``"lasso-exact"`` also runs except
when a machine compiled from a TBA judges a lasso word: that machine
reads the same steps off its successor table
(:func:`~repro.machine.from_tba.decide_on_table`), held to the kernel
report field for field by the conformance ``strategy`` pair.  Either
way this strategy is *verdict-identical* to ``"lasso-exact"`` on every
machine acceptor — the stream-vs-batch agreement invariant the
property tests enforce.
A frozen-time lasso is cut where the batch tape cuts it,
:func:`~repro.machine.tape.zeno_event_cap` of the word and the
acceptor: a machine compiled from a deterministic TBA stops after the
unrollings its automaton bounds, every other acceptor after
:data:`~repro.machine.tape.ZENO_UNROLL`.

Registered lazily: :func:`repro.engine.get_strategy` imports
:mod:`repro.stream` on first request for the name, avoiding a static
engine → stream import cycle.
"""

from __future__ import annotations

from typing import Any

from ..automata.timed import TimedBuchiAutomaton
from ..engine.batch import compiled_tba
from ..engine.strategies import STRATEGIES, DecisionStrategy, resolve_zeno
from ..engine.verdict import DecisionReport
from ..machine.tape import zeno_event_cap
from .monitor import Monitor

__all__ = ["OnlineIncremental", "MAX_EVENTS"]

#: Event cap per judgement, matching the batch input tape's feeder
#: horizon.  Frozen-time lassos are cut off much earlier — at the same
#: per-acceptor :func:`~repro.machine.tape.zeno_event_cap` the batch
#: tape uses — and resolved exactly by
#: :func:`~repro.engine.strategies.resolve_zeno`.
MAX_EVENTS = 1_000_000


class OnlineIncremental(DecisionStrategy):
    """Judge by streaming the word through an online monitor."""

    name = "online-incremental"

    def run(self, acceptor: Any, word: Any, horizon: int) -> DecisionReport:
        if isinstance(acceptor, TimedBuchiAutomaton):
            # Raw TBAs go through the cached §3.1.1 machine compilation
            # so the stream and batch engines judge one shared program.
            acceptor = compiled_tba(acceptor, allow_nondeterministic=True)
        monitor = Monitor(acceptor)
        cap = zeno_event_cap(word, acceptor)
        limit = MAX_EVENTS if cap is None else min(cap, MAX_EVENTS)
        i = 0
        while i < limit:
            try:
                symbol, t = word[i]
            except IndexError:
                break
            if t > horizon:
                break
            monitor.ingest(symbol, t)
            if monitor.absorbed:
                break
            i += 1
        report = monitor.finish(horizon)
        if cap is not None:
            report = resolve_zeno(report, acceptor, word)
        report.strategy = self.name
        report.evidence.setdefault("discipline", "online-incremental")
        report.evidence["events_ingested"] = monitor.events_ingested
        return report


STRATEGIES.setdefault(OnlineIncremental.name, OnlineIncremental())
