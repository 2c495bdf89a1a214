"""Commit-protocol properties as timer-bound specs (§4.1 deadlines).

Each property is a :mod:`repro.spec` combinator spec judged against a
*channel* — a projection of one process's recorded word
(:meth:`~repro.txn.protocol.TransactionRun.decision_word` or
:meth:`~repro.txn.protocol.TransactionRun.handshake_word`).  The
per-process shape is deliberate: atomicity is a relation *between*
words (no single ω-word sees both P1's COMMIT and P2's ABORT), so it
is judged by combining per-process verdicts in
:mod:`repro.txn.verify`, exactly how the paper's §6 treats a
distributed computation as a family of per-process words.

Property table (``T`` = ``recovery_deadline``, ``D`` =
``happy_deadline``, both from :class:`~repro.txn.protocol.TxnConfig`):

==============  ==========  =============================================
property        channel     meaning (ACCEPT ⟺ …)
==============  ==========  =============================================
``commit``      decision    the process applied COMMIT by ``T``
``abort``       decision    the process applied ABORT by ``T``
``decided``     decision    it decided (either way) by ``T`` — the
                            blocking-freedom instance, via ``alt``
``fast``        decision    it decided by the fault-free bound ``D``
``handshake``   handshake   C's full message round trip completed with
                            every per-phase budget met (3PC: the
                            commit-shaped round trip — an abort outcome
                            skips PRE-COMMIT/READY and rejects)
==============  ==========  =============================================

``commit``/``abort``/``handshake`` compile to deterministic chain TBAs
(machine-replayable, shardable); ``decided``/``fast`` use
:func:`~repro.spec.combinators.alt` and are judged on the exact and
online paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

from ..spec.combinators import (
    Spec,
    alt,
    eventually,
    is_deterministic_spec,
    rt_bound,
    seq,
)
from ..words.timedword import TimedWord
from .protocol import TransactionRun, TxnConfig

__all__ = [
    "DECISION_ALPHABET",
    "HANDSHAKE_ALPHABET",
    "Property",
    "commit_spec",
    "abort_spec",
    "decision_spec",
    "handshake_spec",
    "properties_for",
    "channel_prefixes",
    "words_for",
]

#: Symbols of the per-process decision channel.
DECISION_ALPHABET: Tuple[str, ...] = ("abort", "commit", "none", "tick")

#: Symbols of the coordinator's handshake channel (both protocols share
#: one alphabet; 2PC words simply never contain precommit/ready).
HANDSHAKE_ALPHABET: Tuple[str, ...] = (
    "ack",
    "decide",
    "precommit",
    "prepare",
    "ready",
    "tick",
    "vote",
)


@dataclass(frozen=True)
class Property:
    """One named spec plus where to read its words from a run."""

    name: str
    spec: Spec
    alphabet: Tuple[str, ...]
    channel: str  # "decision" (every process) | "handshake" (C only)

    @property
    def deterministic(self) -> bool:
        return is_deterministic_spec(self.spec)


def commit_spec(deadline: int) -> Spec:
    """COMMIT applied within ``deadline`` of transaction start."""
    return eventually(rt_bound("commit", 0, deadline))


def abort_spec(deadline: int) -> Spec:
    """ABORT applied within ``deadline`` of transaction start."""
    return eventually(rt_bound("abort", 0, deadline))


def decision_spec(deadline: int) -> Spec:
    """Some decision within ``deadline`` (commit ∨ abort; ``alt``)."""
    return alt(commit_spec(deadline), abort_spec(deadline))


def handshake_spec(cfg: TxnConfig, protocol: str) -> Spec:
    """C's round trip with per-phase budgets from the config.

    Phase budgets: PREPARE is sent at the start; each of the *n* votes
    arrives within a round trip of the previous edge; 3PC's PRE-COMMIT
    goes out as the last vote lands and READYs mirror the vote round;
    the decision lands immediately (2PC) or by ``ack_timeout`` after
    the last READY (3PC's timeout-driven commit); ACKs mirror the vote
    round again.
    """
    n = cfg.n_participants
    vote_round = cfg.round_trip + 1
    phases = [rt_bound("prepare", 0, 1)]
    phases += [rt_bound("vote", 0, vote_round)] * n
    if protocol == "3pc":
        phases += [rt_bound("precommit", 0, 2)]
        phases += [rt_bound("ready", 0, vote_round)] * n
        phases += [rt_bound("decide", 0, cfg.ack_timeout + 2)]
    else:
        phases += [rt_bound("decide", 0, 2)]
    phases += [rt_bound("ack", 0, vote_round)] * n
    return eventually(seq(*phases))


def properties_for(cfg: TxnConfig, protocol: str) -> Dict[str, Property]:
    """The property suite for one (config, protocol) pair."""
    T = cfg.recovery_deadline(protocol)
    D = cfg.happy_deadline(protocol)
    return {
        "commit": Property("commit", commit_spec(T), DECISION_ALPHABET, "decision"),
        "abort": Property("abort", abort_spec(T), DECISION_ALPHABET, "decision"),
        "decided": Property(
            "decided", decision_spec(T), DECISION_ALPHABET, "decision"
        ),
        "fast": Property("fast", decision_spec(D), DECISION_ALPHABET, "decision"),
        "handshake": Property(
            "handshake", handshake_spec(cfg, protocol), HANDSHAKE_ALPHABET, "handshake"
        ),
    }


def channel_prefixes(run: TransactionRun, channel: str) -> Dict[str, List[Tuple[str, int]]]:
    """Each judged process's word on ``channel`` before its tick tail,
    keyed by process: every process on ``"decision"``, C on
    ``"handshake"``."""
    if channel == "handshake":
        return {"C": run.handshake_prefix()}
    return {p: run.decision_prefix(p) for p in run.processes}


def words_for(
    run: TransactionRun, prop: Property, tail: str = "advancing"
) -> Dict[str, Any]:
    """The channel words this property judges, keyed by process."""
    loop, shift = run.tail(tail)
    return {
        p: TimedWord.lasso(prefix, loop, shift)
        for p, prefix in channel_prefixes(run, prop.channel).items()
    }
