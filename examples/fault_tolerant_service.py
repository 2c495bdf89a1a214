#!/usr/bin/env python3
"""Fault tolerance: the decision service survives crashes, visibly.

A real-time acceptor that only works on a healthy host is not a
real-time system.  This walk-through drives the resilience layer
through three injected failures and shows what the guarantees mean:

1. a ``decide_many_resilient`` batch on the shard pool loses a worker
   to SIGKILL mid-chunk and still returns reports **bit-identical** to
   the serial path (the pool respawns the worker, and the retry re-runs
   the same pure per-word function);
2. a per-batch deadline budget expires and the engine returns partial
   results promptly — the unfinished remainder is explicitly marked
   ``UNDECIDED`` with ``evidence["degraded"] = "deadline"`` instead of
   hanging or silently guessing;
3. a supervised ``SessionMux`` is crashed mid-stream and rebuilt from
   its latest checkpoint plus journal replay, agreeing verdict for
   verdict with an uninterrupted run — zero lost verdicts, and a
   session closed through the supervisor between the crashes stays
   closed.

Run:  python examples/fault_tolerant_service.py
"""

import random
import tempfile

from repro.automata import TimedBuchiAutomaton, TimedTransition
from repro.engine import (
    CrashingAcceptor,
    DelayingAcceptor,
    FileFuse,
    RetryPolicy,
    Verdict,
    decide_many,
    decide_many_resilient,
)
from repro.kernel import Le
from repro.machine import RealTimeAlgorithm
from repro.stream import MuxSupervisor, SessionMux
from repro.words import TimedWord

# -- the language under decision: E14 parity words ----------------------------


def make_word(n, member):
    total_parity = 0 if member else 1
    syms = [1] * n
    if sum(syms) % 2 != total_parity:
        syms[0] = 2
    pairs = [(n, 0)] + [(s, i + 1) for i, s in enumerate(syms)]
    return TimedWord.lasso(pairs, [("w", n + 2)], shift=1)


def parity(ctx):
    # Module-level, so the machine pickles into the shard workers.
    n, _t = yield ctx.input.read()
    total = 0
    for _ in range(n):
        v, _t = yield ctx.input.read()
        total += v
    if total % 2 == 0:
        ctx.accept()
    else:
        ctx.reject()


acceptor = RealTimeAlgorithm(parity)
words = [make_word(n, m) for n in (4, 8, 16) for m in (True, False)]
HORIZON = 2_000
serial = decide_many(acceptor, words, horizon=HORIZON, seed=7)

# -- 1. a SIGKILLed shard worker, survived ------------------------------------

with tempfile.NamedTemporaryFile() as fusefile:
    fuse = FileFuse(shots=1, path=fusefile.name)
    crashy = CrashingAcceptor(acceptor, fuse)  # kills one worker, once
    out = decide_many_resilient(
        crashy, words, horizon=HORIZON, workers=4, seed=7,
        retry=RetryPolicy(max_retries=2, backoff_base=0.01),
    )
print("1. shard-pool batch with one worker SIGKILLed mid-chunk:")
print(f"   worker deaths: {out.worker_deaths}, retries: {out.retries}, "
      f"mode: {out.mode}")
print(f"   bit-identical to serial: {out.reports == serial}")
assert out.worker_deaths >= 1
assert out.reports == serial  # the resilience guarantee
assert out.clean  # recovered work is NOT degraded work

# -- 2. a deadline budget, missed gracefully ----------------------------------

slow = DelayingAcceptor(acceptor, 0.15)  # each word now costs >= 150ms
out = decide_many_resilient(
    slow, words, horizon=HORIZON, workers=2, seed=7, deadline_s=0.4,
)
finished = [i for i in range(len(words)) if i not in out.degraded_indices]
cut = out.degraded_indices
print("\n2. per-batch deadline budget of 0.4s against 150ms/word:")
print(f"   deadline missed: {out.deadline_missed}, "
      f"elapsed: {out.elapsed_s:.2f}s (no hang)")
print(f"   finished words: {len(finished)}, marked inconclusive: {len(cut)}")
assert out.deadline_missed and cut and finished
for i in cut:
    report = out.reports[i]
    assert report.verdict is Verdict.UNDECIDED
    assert report.evidence["degraded"] == "deadline"
for i in finished:
    assert out.reports[i] == serial[i]  # whatever finished is exact

# -- 3. mux failover: crash the host, lose nothing ----------------------------

tba = TimedBuchiAutomaton(
    "a", ["s"], "s",
    [TimedTransition.make("s", "s", "a", resets=["x"], guard=Le("x", 3))],
    ["x"], ["s"],
)
factory = lambda: SessionMux(  # noqa: E731
    tba, lateness=2, late_policy="drop", buffer_limit=8,
    drop_policy="drop-old",
)

rng = random.Random(42)
clock = {f"sensor-{i:02d}": 0 for i in range(12)}
events = []
for _ in range(300):
    name = rng.choice(list(clock))
    clock[name] += rng.choice([1, 2, 3, 3, 5])  # gap 5 breaks the bound
    events.append((name, "a", clock[name]))

reference = factory()
supervisor = MuxSupervisor(factory, checkpoint_every=40)
for k, (name, sym, t) in enumerate(events):
    if k == 150:  # between the crashes: a close, journaled like an event
        report = supervisor.close_session("sensor-03")
        assert report == reference.close("sensor-03")
    if k in (97, 213):  # two host losses, mid-stream
        supervisor.crash()
    supervisor.ingest(name, sym, t)  # auto-recovers transparently
    reference.ingest(name, sym, t)

print("\n3. supervised SessionMux with two injected host crashes:")
print(f"   failovers: {supervisor.failovers}, "
      f"last recovery: {supervisor.last_recovery_s * 1e3:.2f}ms")
print(f"   closed between the crashes: {report.name} ({report.verdict.value}, "
      f"{report.events_ingested} events)")
print(f"   stats: {supervisor.stats()}")
agree = (
    supervisor.verdicts() == reference.verdicts()
    and supervisor.mux.stats() == reference.stats()
)
print(f"   agrees with the uninterrupted run: {agree}")
assert supervisor.failovers == 2
assert agree  # zero lost verdicts, none invented, the close kept

print("\nall three failure drills recovered with the pinned guarantees intact")
