"""Fault injection for the decision fan-out (tests and benchmarks).

Real-time parallel models treat processor failure as a first-class
event, so the resilience layer needs faults it can summon on demand.
This module provides acceptor *wrappers* that misbehave in controlled,
reproducible ways while staying transparent to the judge protocol —
when a wrapper does not fire, the report it returns is byte-for-byte
the inner acceptor's, which is what lets the fault suite assert the
bit-identical-to-serial guarantee end to end:

* :class:`CrashingAcceptor` — SIGKILLs its own process mid-decision
  (a dead pool worker, the hard failure mode: no exception, no
  traceback, just a closed pipe);
* :class:`FailingAcceptor` — raises an exception mid-decision (a soft
  failure the worker reports and survives);
* :class:`DelayingAcceptor` — sleeps real wall-clock time per decision
  (a slow worker, for exercising deadline budgets).

Cross-process arming is the subtle part: every pool worker judges its
own pickled copy of the wrapper, and a respawned worker gets a fresh
one, so an in-memory "fail once" flag armed in the parent would re-fire
in every worker and every retry.  :class:`FileFuse` solves it with an
append-only file shared through the filesystem — each firing claims one
byte under ``O_APPEND`` (atomic on POSIX), so "fail exactly N times,
process-wide" holds across any number of processes.

With ``in_children_only=True`` (the crash wrapper's default) a wrapper
only fires outside the process that built it: the parent pid is
recorded at construction, so a serial run — or the resilience layer's
parent-side serial fallback — judges through it unharmed.

A second family serves simulated *distributed* workloads rather than
the judge protocol: :class:`FaultSchedule` is a stateless seeded
randomness source (every draw is a pure function of the seed and a
caller-chosen key, so replaying a run replays its faults), and
:class:`MessageFaults` applies per-message loss and extra delay from
such a schedule.  Unlike the wrappers above these are usable *outside*
fork children — the commit-protocol simulator (:mod:`repro.txn`) runs
them in the parent process — while still honouring the
``in_children_only`` contract when asked for it.
"""

from __future__ import annotations

import hashlib
import os
import signal
import tempfile
import time
from typing import Any, Callable, Optional, Tuple

from .strategies import DEFAULT_HORIZON
from .verdict import DecisionReport

__all__ = [
    "FileFuse",
    "CrashingAcceptor",
    "FailingAcceptor",
    "DelayingAcceptor",
    "InjectedFault",
    "FaultSchedule",
    "MessageFaults",
]


class InjectedFault(RuntimeError):
    """The exception :class:`FailingAcceptor` raises when it fires."""


class FileFuse:
    """A process-shared budget of fault firings.

    ``pop()`` atomically claims one shot and returns True while shots
    remain; once the budget is spent every later ``pop()`` — in this
    process or any fork — returns False.  Backed by a file so the claim
    survives ``fork()`` and is visible to retries in fresh children.
    """

    def __init__(self, shots: int = 1, path: Optional[str] = None):
        if shots < 0:
            raise ValueError(f"shots must be >= 0, got {shots}")
        self.shots = shots
        if path is None:
            fd, path = tempfile.mkstemp(prefix="repro-fuse-")
            os.close(fd)
        self.path = path
        open(self.path, "ab").close()

    def pop(self) -> bool:
        """Claim one shot; True iff the fault should fire now."""
        if self.shots == 0:
            return False
        with open(self.path, "ab") as fh:
            fh.write(b"x")
            fh.flush()
            return fh.tell() <= self.shots

    @property
    def spent(self) -> int:
        """How many shots have been claimed so far (capped at shots)."""
        return min(os.path.getsize(self.path), self.shots)

    def reset(self) -> None:
        with open(self.path, "wb"):
            pass


class _Wrapper:
    """Transparent acceptor wrapper base: both judge entry points pass
    through the fault hook, everything else delegates to the inner
    acceptor (so ``name``/``space_limit``-style attributes survive)."""

    #: Declared here so ``__getattr__`` never forwards the inner
    #: machine's table: ``lasso-exact`` would judge on it and bypass
    #: the fault hook.
    successor_table = None

    def __init__(self, inner: Any):
        self.inner = inner

    def _before(self, word: Any) -> None:
        raise NotImplementedError

    def decide(self, word: Any, horizon: int = DEFAULT_HORIZON) -> DecisionReport:
        self._before(word)
        return self.inner.decide(word, horizon=horizon)

    def count_f(self, word: Any, horizon: int) -> DecisionReport:
        self._before(word)
        return self.inner.count_f(word, horizon)

    def __getattr__(self, name: str) -> Any:
        # Unpickling probes attributes before ``inner`` is restored.
        if name == "inner":
            raise AttributeError(name)
        return getattr(self.inner, name)


class CrashingAcceptor(_Wrapper):
    """Kill the judging process with SIGKILL while the fuse has shots.

    The worker dies without unwinding — exactly what a OOM-killed or
    segfaulted pool process looks like from the parent: the result pipe
    closes with nothing on it.  With ``in_children_only`` (default) the
    pid recorded at construction is immune, so only pool workers die.
    """

    def __init__(
        self,
        inner: Any,
        fuse: FileFuse,
        *,
        match: Optional[Callable[[Any], bool]] = None,
        in_children_only: bool = True,
    ):
        super().__init__(inner)
        self.fuse = fuse
        self.match = match
        self._parent_pid = os.getpid() if in_children_only else None

    def _before(self, word: Any) -> None:
        if self._parent_pid is not None and os.getpid() == self._parent_pid:
            return
        if self.match is not None and not self.match(word):
            return
        if self.fuse.pop():
            os.kill(os.getpid(), signal.SIGKILL)


class FailingAcceptor(_Wrapper):
    """Raise :class:`InjectedFault` while the fuse has shots.

    Unlike a crash this is a *soft* failure: the worker catches it and
    reports the chunk as failed, so the parent sees the reason.  Fires
    in any process by default (``in_children_only=False``) — the serial
    retry path needs to be exercisable too.
    """

    def __init__(
        self,
        inner: Any,
        fuse: FileFuse,
        *,
        match: Optional[Callable[[Any], bool]] = None,
        in_children_only: bool = False,
    ):
        super().__init__(inner)
        self.fuse = fuse
        self.match = match
        self._parent_pid = os.getpid() if in_children_only else None

    def _before(self, word: Any) -> None:
        if self._parent_pid is not None and os.getpid() == self._parent_pid:
            return
        if self.match is not None and not self.match(word):
            return
        if self.fuse.pop():
            raise InjectedFault(
                f"injected fault (fuse {os.path.basename(self.fuse.path)})"
            )


class DelayingAcceptor(_Wrapper):
    """Sleep ``delay_s`` wall-clock seconds before every judgement.

    The slow-worker fault: reports stay bit-identical to the inner
    acceptor's, only later — which is what a deadline budget has to cut
    off.  ``match`` restricts the slowness to selected words.
    """

    def __init__(
        self,
        inner: Any,
        delay_s: float,
        *,
        match: Optional[Callable[[Any], bool]] = None,
    ):
        super().__init__(inner)
        self.delay_s = delay_s
        self.match = match

    def _before(self, word: Any) -> None:
        if self.match is not None and not self.match(word):
            return
        time.sleep(self.delay_s)


class FaultSchedule:
    """Deterministic per-seed randomness keyed by caller-chosen tuples.

    Every draw is ``blake2b(repr((seed,) + key))`` mapped to [0, 1):
    stateless, so the same ``(seed, key)`` always answers the same way
    regardless of draw order, process, or fork topology.  That is the
    property the wrapper fuses buy with a shared file — here it comes
    for free, which is what makes the schedule usable in the parent
    process and in children alike.

    Keys should name the decision being made (``("loss", src, dst,
    kind, attempt)``), not a sequence number: order-free keys keep a
    simulation's faults stable under refactors that reorder draws.
    """

    def __init__(self, seed: int):
        self.seed = seed

    def _u(self, *key: Any) -> float:
        payload = repr((self.seed,) + key).encode()
        digest = hashlib.blake2b(payload, digest_size=8).digest()
        return int.from_bytes(digest, "big") / 2**64

    def chance(self, p: float, *key: Any) -> bool:
        """True with probability ``p`` (deterministic in seed + key)."""
        if p <= 0.0:
            return False
        return self._u("chance", *key) < p

    def pick(self, lo: int, hi: int, *key: Any) -> int:
        """An integer in [lo, hi] (inclusive), deterministic in seed + key."""
        if hi < lo:
            raise ValueError(f"empty range [{lo}, {hi}]")
        return lo + int(self._u("pick", *key) * (hi - lo + 1))


class MessageFaults:
    """Per-message loss and extra-delay injection from a seeded schedule.

    The network-fault counterpart of the acceptor wrappers: a simulated
    sender asks :meth:`apply` what happens to one message, identified
    by ``(src, dst, kind, attempt)``, and gets back its final delivery
    delay — or ``None`` if the message is lost.  Decisions come from a
    :class:`FaultSchedule`, so a run's fault pattern is a pure function
    of the seed and survives replay, re-ordering, and forks.

    ``in_children_only`` defaults to **False** — simulators drive this
    from the parent process — but the contract is the same as the
    wrappers': when True, calls from the constructing pid report every
    message as delivered with its base delay.  ``match`` restricts
    faults to selected messages (e.g. only decision broadcasts).
    """

    def __init__(
        self,
        seed: int,
        *,
        loss_rate: float = 0.0,
        delay_rate: float = 0.0,
        extra_delay: Tuple[int, int] = (1, 4),
        match: Optional[Callable[[Any, Any, Any], bool]] = None,
        in_children_only: bool = False,
    ):
        if not (0.0 <= loss_rate <= 1.0):
            raise ValueError(f"loss_rate must be in [0, 1], got {loss_rate}")
        if not (0.0 <= delay_rate <= 1.0):
            raise ValueError(f"delay_rate must be in [0, 1], got {delay_rate}")
        lo, hi = extra_delay
        if lo < 0 or hi < lo:
            raise ValueError(f"extra_delay must satisfy 0 <= lo <= hi, got {extra_delay}")
        self.schedule = FaultSchedule(seed)
        self.loss_rate = loss_rate
        self.delay_rate = delay_rate
        self.extra_delay = (lo, hi)
        self.match = match
        self._parent_pid = os.getpid() if in_children_only else None
        self.lost = 0
        self.delayed = 0

    def _protected(self) -> bool:
        return self._parent_pid is not None and os.getpid() == self._parent_pid

    def _matches(self, src: Any, dst: Any, kind: Any) -> bool:
        return self.match is None or self.match(src, dst, kind)

    def dropped(self, src: Any, dst: Any, kind: Any, attempt: int = 0) -> bool:
        """Is this message lost?  (Does not count toward ``lost``.)"""
        if self._protected() or not self._matches(src, dst, kind):
            return False
        return self.schedule.chance(self.loss_rate, "loss", src, dst, kind, attempt)

    def extra(self, src: Any, dst: Any, kind: Any, attempt: int = 0) -> int:
        """Extra delay chronons added to this message (0 when unaffected)."""
        if self._protected() or not self._matches(src, dst, kind):
            return 0
        if not self.schedule.chance(self.delay_rate, "delay", src, dst, kind, attempt):
            return 0
        lo, hi = self.extra_delay
        return self.schedule.pick(lo, hi, "delay-amount", src, dst, kind, attempt)

    def apply(
        self, src: Any, dst: Any, kind: Any, base_delay: int, attempt: int = 0
    ) -> Optional[int]:
        """Final delivery delay for one message, or None if it is lost."""
        if self.dropped(src, dst, kind, attempt):
            self.lost += 1
            return None
        extra = self.extra(src, dst, kind, attempt)
        if extra:
            self.delayed += 1
        return base_delay + extra
