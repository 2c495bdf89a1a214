"""Timed ω-words — Definition 3.2 of the paper.

A timed ω-word over Σ is a pair (σ, τ) of a symbol sequence and a time
sequence of equal length; τᵢ is the instant at which σᵢ *becomes
available* as input.  Words may be finite or infinite, and a
*well-behaved* timed ω-word is one whose time sequence satisfies
progress (and is therefore infinite).

Representations mirror :class:`repro.words.timeseq.TimeSequence`:

* **finite** — an explicit tuple of (symbol, time) pairs;
* **lasso** — prefix pairs + loop pairs, where loop iteration k adds
  ``k·shift`` to each loop timestamp.  All constructions of Sections
  4–5 are lassos, which keeps acceptance decidable;
* **functional** — ``i ↦ (symbol, time)`` for adversarial or sampled
  instances.

The classical-word embedding of Section 3.2 ("add the time sequence
00…0 to a classical word") is :meth:`TimedWord.from_classic`; the
resulting words are *never* well-behaved, which is the paper's "crisp
delimitation between real-time and classical algorithms".
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, List, Optional, Sequence, Tuple

from .timeseq import OMEGA, TimeSequence, Trilean

__all__ = ["TimedWord", "Pair", "check_lasso_times"]

Pair = Tuple[Any, int]


def check_lasso_times(times: Sequence[int], loop_start: int, shift: int) -> None:
    """Refuse a lasso whose time goes backwards.

    ``times`` are the prefix's and then the loop's instants, and the
    loop starts at index ``loop_start``.  Time may not go backwards
    anywhere: within the prefix, from the prefix into the loop, within
    the loop, or from one iteration into the next (the last loop time
    may not exceed the first plus ``shift``, which also refuses
    ``shift < 0``).  Such a word is not a timed word at all, and the
    judges would disagree on it, so it raises :class:`ValueError`.
    :meth:`TimedWord.lasso` and
    :meth:`~repro.words.batch.LassoBatch.append` both check here.
    """
    if loop_start >= len(times):
        raise ValueError("lasso loop must be non-empty")
    prev = times[0]
    for i, t in enumerate(times):
        if t < prev:
            raise ValueError(f"lasso time goes backwards at index {i}: {prev} then {t}")
        prev = t
    if prev > times[loop_start] + shift:
        raise ValueError(
            f"lasso time goes backwards across loop iterations: last "
            f"loop time {prev} > first loop time {times[loop_start]} + shift {shift}"
        )


@dataclass(frozen=True)
class TimedWord:
    """A timed ω-word (σ, τ) in finite / lasso / functional form.

    Use the named constructors (:meth:`finite`, :meth:`lasso`,
    :meth:`functional`, :meth:`from_classic`) rather than the raw
    dataclass fields.
    """

    prefix: Tuple[Pair, ...] = ()
    loop: Tuple[Pair, ...] = ()
    shift: int = 0
    fn: Optional[Callable[[int], Pair]] = field(default=None, compare=False)

    # -- constructors --------------------------------------------------
    @staticmethod
    def finite(pairs: Sequence[Pair]) -> "TimedWord":
        """A finite timed word from (symbol, time) pairs."""
        return TimedWord(prefix=tuple((s, int(t)) for s, t in pairs))

    @staticmethod
    def lasso(prefix: Sequence[Pair], loop: Sequence[Pair], shift: int) -> "TimedWord":
        """Eventually periodic word; loop iteration k adds k·shift to times.

        Time may not go backwards anywhere in the word
        (:func:`check_lasso_times` raises :class:`ValueError`).
        """
        prefix = tuple((s, int(t)) for s, t in prefix)
        loop = tuple((s, int(t)) for s, t in loop)
        shift = int(shift)
        check_lasso_times([t for _s, t in prefix + loop], len(prefix), shift)
        return TimedWord(prefix=prefix, loop=loop, shift=shift)

    @staticmethod
    def functional(fn: Callable[[int], Pair]) -> "TimedWord":
        """An arbitrary infinite timed word given by ``i ↦ (σᵢ, τᵢ)``."""
        return TimedWord(fn=fn)

    @staticmethod
    def from_classic(symbols: Sequence[Any]) -> "TimedWord":
        """Section 3.2 embedding: the classical word with τ = 00…0.

        The result is a timed word but never well-behaved — the formal
        boundary between classical and real-time computation.
        """
        return TimedWord.finite([(s, 0) for s in symbols])

    @staticmethod
    def from_parts(symbols: Sequence[Any], times: Sequence[int]) -> "TimedWord":
        """Zip separate σ and τ sequences of equal length."""
        if len(symbols) != len(times):
            raise ValueError(
                f"σ and τ must have equal length ({len(symbols)} vs {len(times)})"
            )
        return TimedWord.finite(list(zip(symbols, times)))

    # -- shape ------------------------------------------------------------
    @property
    def is_finite(self) -> bool:
        return not self.loop and self.fn is None

    @property
    def length(self):
        """len for finite words, :data:`OMEGA` otherwise."""
        return len(self.prefix) if self.is_finite else OMEGA

    def __len__(self) -> int:
        if not self.is_finite:
            raise TypeError("infinite timed word has length ω; use .length")
        return len(self.prefix)

    # -- access ---------------------------------------------------------------
    def __getitem__(self, i: int) -> Pair:
        """(σ_{i+1}, τ_{i+1}) in paper terms (0-based here)."""
        if i < 0:
            raise IndexError("negative index into a timed word")
        if self.fn is not None:
            s, t = self.fn(i)
            return (s, int(t))
        if i < len(self.prefix):
            return self.prefix[i]
        if not self.loop:
            raise IndexError(f"index {i} out of range for finite timed word")
        j = i - len(self.prefix)
        k, r = divmod(j, len(self.loop))
        s, t = self.loop[r]
        return (s, t + k * self.shift)

    def symbol_at(self, i: int) -> Any:
        return self[i][0]

    def time_at(self, i: int) -> int:
        return self[i][1]

    def take(self, n: int) -> List[Pair]:
        """The first ``n`` (symbol, time) pairs (clipped if finite)."""
        if self.is_finite:
            n = min(n, len(self.prefix))
        return [self[i] for i in range(n)]

    def prefix_word(self, n: int) -> "TimedWord":
        """The finite timed word formed by the first ``n`` pairs."""
        return TimedWord.finite(self.take(n))

    def __iter__(self) -> Iterator[Pair]:
        i = 0
        while True:
            try:
                yield self[i]
            except IndexError:
                return
            i += 1

    # -- time view --------------------------------------------------------------
    @property
    def time_sequence(self) -> TimeSequence:
        """The τ component as a :class:`TimeSequence`."""
        if self.fn is not None:
            getter = self.fn

            def tfn(i: int) -> int:
                return int(getter(i)[1])

            return TimeSequence.functional(tfn)
        if self.loop:
            return TimeSequence.lasso(
                prefix=[t for _s, t in self.prefix],
                loop=[t for _s, t in self.loop],
                shift=self.shift,
            )
        return TimeSequence.finite([t for _s, t in self.prefix])

    def is_valid(self, horizon: int = 4096) -> Trilean:
        """Is (σ, τ) a timed word at all — i.e. is τ monotone?"""
        return self.time_sequence.is_monotone(horizon)

    def is_well_behaved(self, horizon: int = 4096) -> Trilean:
        """Definition 3.2: τ must satisfy progress (hence be infinite)."""
        return self.time_sequence.is_well_behaved(horizon)

    # -- tape semantics ---------------------------------------------------------
    def available_by(self, t: int, horizon: int = 100_000) -> List[Pair]:
        """All pairs with τᵢ ≤ t, in word order.

        This is the input-tape availability rule of Definition 3.3: a
        symbol with timestamp τᵢ "is not available to the algorithm at
        any time t < τᵢ".  For monotone words the scan stops at the
        first timestamp exceeding ``t``; ``horizon`` guards functional
        words with stuck timestamps.
        """
        out: List[Pair] = []
        for i in range(horizon):
            try:
                s, ti = self[i]
            except IndexError:
                break
            if ti > t:
                break
            out.append((s, ti))
        return out

    def count_symbol(self, symbol: Any, n: int) -> int:
        """Occurrences of ``symbol`` among the first n pairs."""
        return sum(1 for s, _t in self.take(n) if s == symbol)

    def occurs_infinitely(self, symbol: Any) -> Trilean:
        """Does ``symbol`` occur infinitely often (|σ|_f = ω)?

        Decidable on lassos (⟺ the symbol occurs in the loop);
        UNKNOWN-or-FALSE-ish sampling for functional words is *not*
        attempted — callers should use machine-level horizons instead.
        """
        if self.is_finite:
            return Trilean.FALSE
        if self.fn is None:
            hit = any(s == symbol for s, _t in self.loop)
            return Trilean.TRUE if hit else Trilean.FALSE
        return Trilean.UNKNOWN

    # -- equality -----------------------------------------------------------------
    def equal_up_to(self, other: "TimedWord", n: int) -> bool:
        """Pairwise equality of the first ``n`` positions (and lengths)."""
        a, b = self.take(n), other.take(n)
        return a == b and (len(a) == len(b))

    def __eq__(self, other: object) -> bool:
        """Exact equality, decidable for finite/lasso representations.

        Two lasso words agreeing on ``max(|prefix|) + 2·lcm(|loop|)``
        positions are equal everywhere: past the prefixes both are
        index-periodic with period lcm(|loop₁|, |loop₂|), and agreement
        over two such super-periods pins the per-super-period time
        shift.  Functional words compare by identity of the function.
        """
        if not isinstance(other, TimedWord):
            return NotImplemented
        if self.fn is not None or other.fn is not None:
            return self.fn is other.fn and self.fn is not None
        if self.is_finite != other.is_finite:
            return False
        if self.is_finite:
            return self.prefix == other.prefix
        horizon = max(len(self.prefix), len(other.prefix)) + 2 * math.lcm(
            len(self.loop), len(other.loop)
        )
        return self.equal_up_to(other, horizon)

    def __hash__(self) -> int:
        if self.fn is not None:
            return hash(("functional", id(self.fn)))
        if self.is_finite:
            return hash(("finite", self.prefix))
        # Hash on a fixed-length expansion window: equal lassos expand
        # identically everywhere, so any representation-independent
        # window yields a consistent hash (collisions beyond it are
        # resolved by __eq__).
        return hash(("lasso", tuple(self.take(24))))

    def __repr__(self) -> str:  # pragma: no cover
        if self.is_finite:
            body = "".join(str(s) for s, _t in self.prefix[:12])
            more = "…" if len(self.prefix) > 12 else ""
            return f"TimedWord<{body}{more}|n={len(self.prefix)}>"
        if self.fn is not None:
            return "TimedWord<functional>"
        pre = "".join(str(s) for s, _t in self.prefix[:8])
        lp = "".join(str(s) for s, _t in self.loop[:8])
        return f"TimedWord<{pre}({lp})^ω shift={self.shift}>"
