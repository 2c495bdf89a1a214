"""The real-time algorithm — Definitions 3.3 and 3.4.

A real-time algorithm A consists of a finite control (a program), an
input tape containing a timed ω-word, and a write-only output tape.  It
may use an unbounded store of which any single computation touches a
finite amount (metered here for the rt-SPACE classes of Section 3.2).

Acceptance (Definition 3.4): A accepts L iff for every input w,
|o(A, w)|_f = ω ⟺ w ∈ L.  "Infinitely many f's" is judged through the
absorbing-verdict discipline the paper's own acceptors use: each
Section 4/5 acceptor eventually enters s_f (and writes f every chronon
forever) or s_r (and never writes f again).  The judge therefore
reports ACCEPT/REJECT when the program declares the absorbing state,
and additionally exposes raw f-counts over finite horizons for
machines that never declare one.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, Optional

from ..engine.verdict import DecisionReport, Verdict
from ..kernel.events import Event, SimulationError
from ..kernel.simulator import Simulator
from ..obs import hooks as _obs
from ..words.timedword import TimedWord
from .tape import (
    DEFAULT_FEEDER_CAP,
    ZENO_UNROLL,
    InputTape,
    OutputTape,
    zeno_event_cap,
)

__all__ = [
    "ACCEPT_SYMBOL",
    "Verdict",
    "SpaceLimitExceeded",
    "WorkingStorage",
    "Context",
    "RealTimeAlgorithm",
    "DecisionReport",
]

#: The designated output symbol f of Definition 3.4.
ACCEPT_SYMBOL = "f"


class SpaceLimitExceeded(SimulationError):
    """The program exceeded its rt-SPACE bound."""


class WorkingStorage:
    """Metered working storage (outside the input/output tapes).

    A dict-like store that tracks current and peak usage in *cells*
    (keys); an optional ``limit`` enforces a space bound, which is how
    :mod:`repro.complexity` realizes rt-SPACE(f) memberships.
    """

    def __init__(self, limit: Optional[int] = None):
        self.limit = limit
        self._cells: Dict[Any, Any] = {}
        self.peak = 0

    def __setitem__(self, key: Any, value: Any) -> None:
        if key not in self._cells and self.limit is not None and len(self._cells) + 1 > self.limit:
            raise SpaceLimitExceeded(
                f"write to {key!r} exceeds space limit {self.limit}"
            )
        self._cells[key] = value
        self.peak = max(self.peak, len(self._cells))

    def __getitem__(self, key: Any) -> Any:
        return self._cells[key]

    def get(self, key: Any, default: Any = None) -> Any:
        return self._cells.get(key, default)

    def __delitem__(self, key: Any) -> None:
        del self._cells[key]

    def __contains__(self, key: Any) -> bool:
        return key in self._cells

    @property
    def used(self) -> int:
        return len(self._cells)

    def __len__(self) -> int:
        return len(self._cells)


class Context:
    """Everything a program sees: tapes, storage, clock, and the
    accept/reject absorbing-state controls."""

    def __init__(self, sim: Simulator, tape: InputTape, output: OutputTape, storage: WorkingStorage):
        self.sim = sim
        self.input = tape
        self.output = output
        self.storage = storage
        self.verdict = Verdict.UNDECIDED
        self._verdict_event: Event = sim.event(name="verdict")

    @property
    def now(self) -> int:
        return self.sim.now

    def timeout(self, delay: int) -> Event:
        return self.sim.timeout(delay)

    # -- absorbing states s_f / s_r --------------------------------------
    def accept(self) -> None:
        """Enter s_f: from now on the machine writes f every chronon.

        "The first appearance of f signals a successful computation,
        and the subsequent occurrences … respect the acceptance
        condition" (Section 3.1.1).
        """
        if self.verdict is not Verdict.UNDECIDED:
            raise SimulationError(f"verdict already {self.verdict}")
        self.verdict = Verdict.ACCEPT
        self.sim.process(self._emit_f_forever(), name="s_f")
        self._verdict_event.succeed(Verdict.ACCEPT)

    def reject(self) -> None:
        """Enter s_r: cycle forever without touching the output tape."""
        if self.verdict is not Verdict.UNDECIDED:
            raise SimulationError(f"verdict already {self.verdict}")
        self.verdict = Verdict.REJECT
        self._verdict_event.succeed(Verdict.REJECT)

    def emit_f(self) -> None:
        """Write one f now (periodic acceptors: one f per served query)."""
        self.output.write(ACCEPT_SYMBOL)

    def _emit_f_forever(self) -> Generator[Event, Any, None]:
        while True:
            if self.output.can_write():
                self.output.write(ACCEPT_SYMBOL)
            yield self.sim.timeout(1)

    @property
    def verdict_event(self) -> Event:
        """Fires when the program declares an absorbing verdict."""
        return self._verdict_event


Program = Callable[[Context], Generator[Event, Any, Any]]

# Verdict and DecisionReport are the engine-wide vocabulary now; see
# repro.engine.verdict.  Re-exported here for the historical import
# path (``from repro.machine import Verdict``).


class RealTimeAlgorithm:
    """A runnable real-time algorithm: program + tape wiring + judge.

    ``program`` is a generator function taking a :class:`Context`; it
    runs as a kernel process, reads the input tape, may write the
    output tape, and normally ends by calling ``ctx.accept()`` or
    ``ctx.reject()`` (the absorbing states of the paper's acceptors).

    The two judge entry points:

    * :meth:`decide` — run until a verdict is declared or ``horizon``
      chronons pass; the paper's acceptors always declare one.
    * :meth:`count_f` — raw |o(A, w)[:horizon]|_f for machines judged
      by f-rate instead (e.g. periodic-query acceptors).
    """

    #: The TBA this machine simulates, when it was produced by
    #: :func:`repro.machine.from_tba.tba_to_algorithm` — lets judges
    #: fall back on exact region mathematics where the operational
    #: discipline cannot decide (frozen-time lassos).
    source_tba: Optional[Any] = None

    #: Loop unrollings the tape feeds from a frozen-time lasso
    #: (:func:`~repro.machine.tape.zeno_event_cap`); ``tba_to_algorithm``
    #: lowers it for deterministic automata.
    zeno_unroll: int = ZENO_UNROLL

    def __init__(self, program: Program, name: str = "A", space_limit: Optional[int] = None):
        self.program = program
        self.name = name
        self.space_limit = space_limit

    def _build(self, word: TimedWord) -> Context:
        sim = Simulator()
        # Frozen-time lassos never outrun the time horizon; cap their
        # feed so the judge stays O(decision point) instead of grinding
        # to the feeder's default cap (see tape.zeno_event_cap).
        cap = zeno_event_cap(word, self)
        tape = InputTape(
            sim, word, horizon=DEFAULT_FEEDER_CAP if cap is None else cap
        )
        out = OutputTape(sim)
        storage = WorkingStorage(limit=self.space_limit)
        ctx = Context(sim, tape, out, storage)
        sim.process(self.program(ctx), name=self.name)
        return ctx

    def _report_run(self, mode: str, report: DecisionReport) -> DecisionReport:
        """Publish one judged run to the installed hooks, if any."""
        h = _obs.HOOKS
        if h is not None:
            h.count("machine.runs", mode=mode)
            h.count("machine.verdicts", verdict=report.verdict.value)
            if report.f_count:
                h.count("machine.f_symbols", report.f_count)
            h.observe("machine.space_peak", report.space_peak)
            if report.decided_at is not None:
                h.observe("machine.decision_chronon", report.decided_at)
        return report

    @_obs.spanned(
        "machine.decide",
        args=lambda self, word, horizon=10_000: {"algorithm": self.name, "horizon": horizon},
    )
    def decide(self, word: TimedWord, horizon: int = 10_000) -> DecisionReport:
        """Judge acceptance of ``word`` (Definition 3.4 discipline)."""
        return self._report_run("decide", self._decide(word, horizon))

    def _decide(self, word: TimedWord, horizon: int) -> DecisionReport:
        ctx = self._build(word)
        decided_at: Optional[int] = None
        # Run until the verdict fires or the horizon passes.
        while ctx.verdict is Verdict.UNDECIDED:
            nxt = ctx.sim.peek()
            if nxt is None or nxt > horizon:
                break
            ctx.sim.step()
        if ctx.verdict is not Verdict.UNDECIDED:
            decided_at = ctx.sim.now
            # Let the absorbing state demonstrate itself briefly so the
            # f-count reflects Definition 3.4's "infinitely many f".
            ctx.sim.run(until=min(horizon, ctx.sim.now + 16))
        return DecisionReport(
            verdict=ctx.verdict,
            f_count=ctx.output.count(ACCEPT_SYMBOL),
            horizon=horizon,
            space_peak=ctx.storage.peak,
            decided_at=decided_at,
        )

    @_obs.spanned(
        "machine.count_f",
        args=lambda self, word, horizon: {"algorithm": self.name, "horizon": horizon},
    )
    def count_f(self, word: TimedWord, horizon: int) -> DecisionReport:
        """Run for exactly ``horizon`` chronons and count the f's."""
        return self._report_run("count_f", self._count_f(word, horizon))

    def _count_f(self, word: TimedWord, horizon: int) -> DecisionReport:
        ctx = self._build(word)
        ctx.sim.run(until=horizon)
        return DecisionReport(
            verdict=ctx.verdict,
            f_count=ctx.output.count(ACCEPT_SYMBOL),
            horizon=horizon,
            space_peak=ctx.storage.peak,
            decided_at=None,
        )
