"""Input and output tapes of a real-time algorithm (Definition 3.3).

*Input tape*: carries a timed ω-word; the pair (σᵢ, τᵢ) means σᵢ is
available to the algorithm at precisely τᵢ and **not earlier** — the
availability rule is enforced here, not left to programmer discipline.

*Output tape*: write-only, at most one symbol per time unit.  The
algorithm cannot read back what it wrote; observers (the acceptance
judge, tests) use the separate observer API.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, List, Optional

from ..kernel.events import Event, Priority, SimulationError
from ..kernel.simulator import Simulator
from ..words.timedword import Pair, TimedWord

__all__ = [
    "InputTape",
    "OutputTape",
    "TapeProtocolError",
    "DEFAULT_FEEDER_CAP",
    "ZENO_UNROLL",
    "zeno_event_cap",
]

#: Default event cap of the feeder process (infinite words are fed at
#: most this many events; simulations run to finite time anyway).
DEFAULT_FEEDER_CAP = 1_000_000

#: Loop unrollings a judge delivers from a frozen-time lasso before
#: cutting the feed off: the ceiling of every acceptor's own bound, and
#: the cap of acceptors that carry none (see :func:`zeno_event_cap`).
ZENO_UNROLL = 64


def zeno_event_cap(word: Any, acceptor: Any = None) -> Optional[int]:
    """Event cap for words whose time stalls forever (shift-0 lassos).

    A lasso word with ``shift == 0`` repeats its loop at one frozen
    timestamp, so a time-bounded judge never outruns it: without a cap
    the feeder grinds to :data:`DEFAULT_FEEDER_CAP` events (seconds of
    work) before giving up.  The cap is the prefix plus the acceptor's
    ``zeno_unroll`` loop unrollings.  A machine compiled from a
    deterministic TBA derives that count from its automaton
    (:func:`repro.machine.from_tba.zeno_unroll`): by then its run has
    died or visited every configuration it ever will, so the cut loses
    nothing.  Every other acceptor (and ``acceptor=None``) gets
    :data:`ZENO_UNROLL`.  Returns ``None`` for every other shape:
    finite words and functional words also carry the dataclass default
    ``shift == 0``, but only a lasso (non-empty ``loop``, no ``fn``)
    can freeze time forever.
    """
    if (
        getattr(word, "shift", None) == 0
        and getattr(word, "fn", None) is None
        and getattr(word, "loop", ())
    ):
        unroll = getattr(acceptor, "zeno_unroll", ZENO_UNROLL)
        return len(getattr(word, "prefix", ())) + unroll * len(word.loop)
    return None


class TapeProtocolError(SimulationError):
    """Violation of Definition 3.3 tape semantics."""


class InputTape:
    """Feeds a timed ω-word into the simulation.

    A feeder process walks the word and deposits each symbol at its
    timestamp (HIGH priority, so symbols are available before ordinary
    processes inspect the tape at the same instant).  Algorithms
    consume via:

    * :meth:`read` — event yielding the next pair in word order (blocks
      until it is available);
    * :meth:`poll` — all pairs that have arrived but not been ``read``;
    * :meth:`current_symbol` — the most recently *arrived* symbol (what
      Section 4.1's monitor P_m calls "the current symbol").

    ``horizon`` caps how far an infinite word is fed; the feeder stops
    quietly there (simulations always run to finite time anyway).

    Passing ``word=None`` creates a *push-driven* tape: no feeder
    process runs, and symbols arrive one at a time through :meth:`push`
    — how :mod:`repro.stream` feeds live events into an acceptor that
    was written against the batch tape.
    """

    def __init__(
        self,
        sim: Simulator,
        word: Optional[TimedWord],
        horizon: int = DEFAULT_FEEDER_CAP,
    ):
        self.sim = sim
        self.word = word
        self.horizon = horizon
        self._arrived: Deque[Pair] = deque()
        self._history: List[Pair] = []
        self._waiters: Deque[Event] = deque()
        self._last_symbol: Optional[Pair] = None
        self.delivered = 0
        if word is not None:
            sim.process(self._feeder(), name="input-tape")

    def _feeder(self):
        i = 0
        while i < self.horizon:
            try:
                symbol, t = self.word[i]
            except IndexError:
                return
            delay = t - self.sim.now
            if delay < 0:
                raise TapeProtocolError(
                    f"input word time went backwards at index {i} (t={t}, now={self.sim.now})"
                )
            if delay:
                yield self.sim.timeout(delay, priority=Priority.HIGH)
            self._deliver((symbol, t))
            i += 1

    def push(self, symbol: Any, t: int) -> None:
        """Schedule one pair for delivery at time ``t`` (push-driven tapes).

        The pair becomes available at exactly ``t`` with the same HIGH
        priority the feeder uses, so a consumer blocked on :meth:`read`
        wakes before ordinary processes at that instant.  Pushing into
        the past violates the availability rule and raises
        :class:`TapeProtocolError`.
        """
        delay = t - self.sim.now
        if delay < 0:
            raise TapeProtocolError(
                f"cannot push symbol at t={t}: simulation is already at {self.sim.now}"
            )
        pair = (symbol, t)
        if delay == 0:
            self._deliver(pair)
        else:
            ev = self.sim.timeout(delay, priority=Priority.HIGH)
            ev.add_callback(lambda _ev: self._deliver(pair))

    def _deliver(self, pair: Pair) -> None:
        self.delivered += 1
        self._last_symbol = pair
        self._history.append(pair)
        if self._waiters:
            self._waiters.popleft().succeed(pair, priority=Priority.HIGH)
        else:
            self._arrived.append(pair)

    # -- consumer API ------------------------------------------------------
    def read(self) -> Event:
        """Event firing with the next (symbol, time) pair in word order."""
        ev = self.sim.event(name="tape.read")
        if self._arrived:
            ev.succeed(self._arrived.popleft(), priority=Priority.HIGH)
        else:
            self._waiters.append(ev)
        return ev

    def poll(self) -> List[Pair]:
        """Drain every already-arrived, not-yet-read pair (no blocking)."""
        out = list(self._arrived)
        self._arrived.clear()
        return out

    def peek_pending(self) -> List[Pair]:
        """Arrived-but-unread pairs *without* consuming them.

        For observers (e.g. a monitor process checking whether the
        worker has caught up with the tape) that must not steal input
        from the reading process.
        """
        return list(self._arrived)

    def current_symbol(self) -> Optional[Any]:
        """The most recently arrived symbol (None before any arrival).

        This is the monitor's view in Section 4.1: "if, at the moment
        P_w terminates, the current symbol is w …".
        """
        return self._last_symbol[0] if self._last_symbol else None

    def current_pair(self) -> Optional[Pair]:
        return self._last_symbol

    @property
    def arrived_count(self) -> int:
        """Total symbols made available so far."""
        return self.delivered

    def arrived_history(self) -> List[Pair]:
        """Observer API: every pair delivered so far (judges/tests only)."""
        return list(self._history)


class OutputTape:
    """Write-only output stream o(A, w) with the one-symbol-per-chronon
    rule of Definition 3.3."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._writes: List[Pair] = []
        self._last_write_time: Optional[int] = None

    def write(self, symbol: Any) -> None:
        """Append one symbol at the current instant.

        Raises :class:`TapeProtocolError` on a second write within the
        same time unit — "during any time unit, A may add at most one
        symbol to the output tape".
        """
        now = self.sim.now
        if self._last_write_time is not None and now <= self._last_write_time:
            raise TapeProtocolError(
                f"second output write within time unit {now} "
                "(Definition 3.3 allows at most one per unit)"
            )
        self._last_write_time = now
        self._writes.append((symbol, now))

    def can_write(self) -> bool:
        """Would a write at the current instant be legal?"""
        return self._last_write_time is None or self.sim.now > self._last_write_time

    # -- observer API (not visible to the algorithm) -----------------------
    def observed_contents(self) -> List[Pair]:
        """(symbol, time) pairs written so far — judge's view only."""
        return list(self._writes)

    def count(self, symbol: Any) -> int:
        """|o(A, w)|_symbol over the writes so far."""
        return sum(1 for s, _t in self._writes if s == symbol)

    def written_since(self, n: int) -> List[Pair]:
        """Writes with index ≥ ``n`` — lets incremental observers (the
        stream monitor) track new output in O(new) instead of rescanning."""
        return self._writes[n:]

    def __len__(self) -> int:
        return len(self._writes)
