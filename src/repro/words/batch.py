"""Lasso words as columns: a whole bucket of words in flat lists.

Judging many lasso words against one automaton reads them one event
at a time, so a list of :class:`~repro.words.timedword.TimedWord`
objects, each with its own prefix and loop tuples of pairs, is mostly
overhead.  A :class:`LassoBatch` keeps every word's symbols and times
in two flat lists (the encoding SNIPPETS.md snippet 1 gives its nodes:
flat records, made once), plus four numbers per word:

* ``starts[i]`` / ``ends[i]`` — the word's span of the columns;
* ``loops[i]`` — where its loop starts (the prefix is
  ``starts[i]:loops[i]``, the loop ``loops[i]:ends[i]``);
* ``shifts[i]`` — what each loop iteration adds to the loop's times.

Symbols stay raw, so a batch belongs to no automaton: each judge
encodes the symbol column to its own table's ids (see
:func:`repro.machine.from_tba.decide_on_table`).  A batch is a
sequence of words: ``len(batch)``, ``batch[i]`` builds word ``i``'s
``TimedWord`` on demand, and ``batch[lo:hi]`` is itself a batch of
plain lists, so chunks of it pickle to worker processes.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Any, Iterable, List

from .timedword import Pair, TimedWord, check_lasso_times

__all__ = ["LassoBatch"]


@dataclass
class LassoBatch(Sequence):
    """Lasso words in flat ``symbols`` and ``times`` columns."""

    symbols: List[Any] = field(default_factory=list)
    times: List[int] = field(default_factory=list)
    starts: List[int] = field(default_factory=list)
    loops: List[int] = field(default_factory=list)
    ends: List[int] = field(default_factory=list)
    shifts: List[int] = field(default_factory=list)

    @staticmethod
    def of(words: Iterable[TimedWord]) -> "LassoBatch":
        """The batch of ``words``, which must be lassos."""
        batch = LassoBatch()
        for word in words:
            batch.append(word.prefix, word.loop, word.shift)
        return batch

    def append(self, prefix: Sequence[Pair], loop: Sequence[Pair], shift: int) -> None:
        """Add the lasso ``prefix · loop^ω`` (loop iteration k adds
        k·shift to its times).  Refuses what
        :meth:`TimedWord.lasso` refuses, with the same message."""
        pairs = [*prefix, *loop]
        times = [int(t) for _s, t in pairs]
        shift = int(shift)
        check_lasso_times(times, len(prefix), shift)
        start = len(self.symbols)
        self.symbols += [s for s, _t in pairs]
        self.times += times
        self.starts.append(start)
        self.loops.append(start + len(prefix))
        self.ends.append(start + len(pairs))
        self.shifts.append(shift)

    def __len__(self) -> int:
        return len(self.starts)

    def __getitem__(self, i: Any) -> Any:
        if isinstance(i, slice):
            lo, hi, step = i.indices(len(self))
            if step != 1:
                raise ValueError("a LassoBatch slice takes consecutive words")
            if lo >= hi:
                return LassoBatch()
            # Rebase the bounds, so a slice is the batch its words make.
            a, b = self.starts[lo], self.ends[hi - 1]
            return LassoBatch(
                self.symbols[a:b],
                self.times[a:b],
                [x - a for x in self.starts[lo:hi]],
                [x - a for x in self.loops[lo:hi]],
                [x - a for x in self.ends[lo:hi]],
                self.shifts[lo:hi],
            )
        start, loop, end = self.starts[i], self.loops[i], self.ends[i]
        pairs = tuple(zip(self.symbols[start:end], self.times[start:end]))
        return TimedWord(
            prefix=pairs[: loop - start], loop=pairs[loop - start :], shift=self.shifts[i]
        )
