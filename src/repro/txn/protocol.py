"""Timed two- and three-phase commit over the kernel (§6 per-process words).

The paper's Section 6 describes a distributed computation as a family
of per-process timed words; this module makes that concrete for the
canonical distributed-database workload: atomic commitment.  A
coordinator ``C`` and participants ``P1..Pn`` exchange
PREPARE/VOTE/PRE-COMMIT/COMMIT/ABORT/ACK messages as processes over
one kernel :class:`~repro.kernel.simulator.Simulator`; every send,
receipt, vote, decision, and crash is recorded as a timed event in
that process's word.  Message delays are drawn per message from
``[d_lo, d_hi]``, loss and extra delay are injected through
:class:`repro.engine.faults.MessageFaults`, and crash injection
(participant or coordinator, with the coordinator's crash placed in a
protocol window: during vote collection, mid-PRE-COMMIT broadcast, or
mid-decision broadcast after ``k`` of ``n`` sends) comes from the same
seeded :class:`~repro.engine.faults.FaultSchedule` — a run is a pure
function of ``(protocol, config, seed)``.

Protocol rules implemented (the textbook presumed-abort variants):

* **2PC** — C broadcasts PREPARE at t=0; each participant votes
  yes/no on receipt (a no-voter aborts unilaterally), or presumed-
  aborts at ``prepare_timeout`` if PREPARE never arrives; C decides
  once the vote round completes (COMMIT on *n* yes votes, else ABORT)
  or ABORT at ``vote_timeout``, applies locally, and broadcasts;
  participants apply on receipt and ACK.
* **3PC** — inserts the PRE-COMMIT round: on *n* yes votes C
  broadcasts PRE-COMMIT, participants become *precommitted* and reply
  READY, and C commits once all READYs arrive or unconditionally at
  ``ack_timeout`` (once PRE-COMMIT is out, commit is the only
  outcome).
* **Termination protocol** — a yes-voter still undecided
  ``decision_timeout`` after voting runs cooperative recovery:
  deterministic global rounds at ``recovery_start + r·round_len``,
  round-``r`` leader ``P(r mod n)``; a leader with a decision relays
  it, otherwise it queries peers and applies the classic rule — any
  *committed* ⇒ commit, else any *aborted* ⇒ abort, else (3PC) any
  *precommitted* ⇒ commit else abort, else (2PC, all uncertain)
  **blocked**, retry next round.

Under crash-only faults this preserves atomicity for both protocols
and blocking-freedom for 3PC (2PC blocks exactly when C dies after
deciding but before any delivery, or mid-vote-collection with every
survivor uncertain); message loss can break 3PC's guarantees — that is
a property of quorum-less 3PC, and the point of verifying the runs
with :mod:`repro.txn.verify` instead of trusting the protocol (see
``docs/txn.md``'s failure matrix).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..engine.faults import FaultSchedule, MessageFaults
from ..kernel.events import Priority
from ..kernel.simulator import Simulator
from ..obs import hooks as _obs
from ..words.timedword import TimedWord

__all__ = [
    "PROTOCOLS",
    "TxnConfig",
    "TransactionRun",
    "run_transaction",
    "run_many",
    "atomicity_ok",
    "decided_within",
]

PROTOCOLS = ("2pc", "3pc")

#: How the coordinator's recorded events project onto its handshake
#: channel (the per-phase round-trip word judged by ``handshake_spec``).
_HANDSHAKE_PROJECTION = {
    "send_prepare": "prepare",
    "recv_vote": "vote",
    "send_precommit": "precommit",
    "recv_ready": "ready",
    "commit": "decide",
    "abort": "decide",
    "recv_ack": "ack",
}


@dataclass(frozen=True)
class TxnConfig:
    """Knobs of one commit-protocol instance.

    Raw knobs only; every timeout and deadline is derived from
    ``d_hi`` so that a fault-free run always meets the happy-path
    deadline (the derivations are spelled out per property).  Rates
    are probabilities fed to the seeded :class:`FaultSchedule`.
    """

    n_participants: int = 3
    d_lo: int = 1
    d_hi: int = 4
    abort_vote_rate: float = 0.0
    participant_crash_rate: float = 0.0
    coordinator_crash_rate: float = 0.0
    loss_rate: float = 0.0
    delay_rate: float = 0.0
    extra_delay: Tuple[int, int] = (1, 3)

    def __post_init__(self) -> None:
        if self.n_participants < 1:
            raise ValueError(f"need >= 1 participant, got {self.n_participants}")
        if not (0 <= self.d_lo <= self.d_hi):
            raise ValueError(f"need 0 <= d_lo <= d_hi, got [{self.d_lo}, {self.d_hi}]")
        for name in (
            "abort_vote_rate",
            "participant_crash_rate",
            "coordinator_crash_rate",
            "loss_rate",
            "delay_rate",
        ):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"{name} must be in [0, 1], got {v}")
        lo, hi = self.extra_delay
        if lo < 0 or hi < lo:
            raise ValueError(
                f"extra_delay must satisfy 0 <= lo <= hi, got {self.extra_delay}"
            )

    # -- derived timeouts (all in chronons from the quantity they bound) --
    @property
    def round_trip(self) -> int:
        """Worst-case request+reply latency without injected delay."""
        return 2 * self.d_hi

    @property
    def vote_timeout(self) -> int:
        """C gives up collecting votes this long after PREPARE."""
        return self.round_trip + 2

    @property
    def prepare_timeout(self) -> int:
        """A participant presumed-aborts if unprepared by here."""
        return self.d_hi + 2

    @property
    def ack_timeout(self) -> int:
        """3PC: C commits this long after PRE-COMMIT regardless."""
        return self.round_trip + 2

    @property
    def round_len(self) -> int:
        """One termination-protocol round: query + gather + relay."""
        return 3 * self.d_hi + 4

    @property
    def max_rounds(self) -> int:
        """Every participant gets one turn as recovery leader."""
        return self.n_participants

    def decision_timeout(self, protocol: str) -> int:
        """Yes-voter's wait (from its vote) before entering recovery."""
        base = self.vote_timeout + self.d_hi + 2
        if protocol == "3pc":
            base += self.ack_timeout + self.d_hi + 2
        return base

    def recovery_start(self, protocol: str) -> int:
        """First recovery round — after any yes-voter could time out."""
        return self.d_hi + self.decision_timeout(protocol) + 1

    def report_at(self, protocol: str) -> int:
        """The observation horizon: every run is reported as of here."""
        return (
            self.recovery_start(protocol) + self.max_rounds * self.round_len + 2
        )

    def happy_deadline(self, protocol: str) -> int:
        """Fault-free decision latency bound (3 one-way hops for 2PC,
        5 for 3PC, plus slack for the timeout-driven commit)."""
        hops = 3 if protocol == "2pc" else 5
        return hops * self.d_hi + 5

    def recovery_deadline(self, protocol: str) -> int:
        """Decision bound covering the full termination protocol."""
        return self.report_at(protocol) - 1


@dataclass
class TransactionRun:
    """One completed (simulated) transaction: the §6 word family.

    ``events`` holds each process's recorded timed word;
    ``decisions`` maps process → ``(decision, time)`` or None;
    ``crashed`` maps process → crash time or None.  ``outcome``
    classifies the global result: ``"commit"``/``"abort"`` (uniform),
    ``"mixed"`` (atomicity violated), ``"blocked"`` (some alive
    process never decided), or ``"stalled"`` (nobody decided and
    nobody survived undecided — everyone relevant crashed).
    """

    protocol: str
    cfg: TxnConfig
    seed: int
    events: Dict[str, List[Tuple[str, int]]]
    decisions: Dict[str, Optional[Tuple[str, int]]]
    crashed: Dict[str, Optional[int]]
    outcome: str
    messages: Dict[str, int] = field(default_factory=dict)
    recovery_rounds: int = 0

    @property
    def report_at(self) -> int:
        return self.cfg.report_at(self.protocol)

    @property
    def processes(self) -> List[str]:
        return list(self.events)

    @property
    def participants(self) -> List[str]:
        return [p for p in self.events if p != "C"]

    def alive(self, proc: str) -> bool:
        return self.crashed[proc] is None

    def process_word(self, proc: str) -> TimedWord:
        """The full recorded per-process word, closed by a tick tail."""
        return TimedWord.lasso(self.events[proc], *self.tail("advancing"))

    def decision_prefix(self, proc: str) -> List[Tuple[str, int]]:
        """The decision channel before its tail: what (if anything)
        ``proc`` decided.  One event — ``("commit"|"abort", t)`` at the
        decision instant, or ``("none", report_at)`` for a process still
        undecided at the horizon."""
        dec = self.decisions[proc]
        return [dec] if dec else [("none", self.report_at)]

    def handshake_prefix(self) -> List[Tuple[str, int]]:
        """The coordinator's message round-trip channel before its tail
        (see ``_HANDSHAKE_PROJECTION``)."""
        return [
            (_HANDSHAKE_PROJECTION[s], t)
            for s, t in self.events["C"]
            if s in _HANDSHAKE_PROJECTION
        ]

    def tail(self, tail: str) -> Tuple[Tuple[Tuple[str, int], ...], int]:
        """The ``(loop, shift)`` of a channel word's tick tail.

        ``tail="advancing"`` appends ticks at ``report_at+1,
        report_at+2, …`` (time passes the deadline, so online monitors
        and region acceptance both absorb); ``tail="frozen"`` repeats
        one tick at ``report_at`` with ``shift=0``, the zeno shape the
        machine-replay judges cut off and settle exactly
        (:func:`repro.engine.strategies.resolve_zeno`) — the same
        language verdict either way for the deadline specs of
        :mod:`repro.txn.properties`.
        """
        T = self.report_at
        if tail == "frozen":
            return (("tick", T),), 0
        if tail == "advancing":
            return (("tick", T + 1),), 1
        raise ValueError(f"tail must be 'advancing' or 'frozen', got {tail!r}")

    def decision_word(self, proc: str, tail: str = "advancing") -> TimedWord:
        """The decision channel (:meth:`decision_prefix`) closed by a
        tick tail (:meth:`tail`)."""
        return TimedWord.lasso(self.decision_prefix(proc), *self.tail(tail))

    def handshake_word(self, tail: str = "advancing") -> TimedWord:
        """The handshake channel (:meth:`handshake_prefix`) closed by a
        tick tail (:meth:`tail`)."""
        return TimedWord.lasso(self.handshake_prefix(), *self.tail(tail))


# -- ground truth (plain-Python oracles for the spec layer) ------------

def atomicity_ok(run: TransactionRun) -> bool:
    """No two processes decided differently (crashed ones included —
    a decision applied before crashing still counts)."""
    seen = {dec for dec in run.decisions.values() if dec is not None}
    return not ({"commit", "abort"} <= {d for d, _t in seen})


def decided_within(run: TransactionRun, deadline: int) -> Dict[str, bool]:
    """Per process: did it decide by ``deadline``?"""
    return {
        p: dec is not None and dec[1] <= deadline
        for p, dec in run.decisions.items()
    }


class _ProtocolSim:
    """One transaction's event-driven execution over the kernel."""

    def __init__(self, protocol: str, cfg: TxnConfig, seed: int):
        if protocol not in PROTOCOLS:
            raise ValueError(f"protocol must be one of {PROTOCOLS}, got {protocol!r}")
        self.protocol = protocol
        self.cfg = cfg
        self.seed = seed
        self.sched = FaultSchedule(seed)
        self.net = MessageFaults(
            seed,
            loss_rate=cfg.loss_rate,
            delay_rate=cfg.delay_rate,
            extra_delay=cfg.extra_delay,
        )
        self.sim = Simulator()
        self.participants = [f"P{i}" for i in range(1, cfg.n_participants + 1)]
        self.procs = ["C"] + self.participants
        self.events: Dict[str, List[Tuple[str, int]]] = {p: [] for p in self.procs}
        self.decisions: Dict[str, Optional[Tuple[str, int]]] = {
            p: None for p in self.procs
        }
        self.crashed: Dict[str, Optional[int]] = {p: None for p in self.procs}
        self.votes_at_c: Dict[str, str] = {}
        self.received_prepare: set = set()
        self.precommitted: set = set()
        self.readys: set = set()
        self.precommit_sent = False
        self.replies: Dict[int, Dict[str, str]] = {}
        self.messages = {"sent": 0, "delivered": 0, "lost": 0}
        self.recovery_rounds = 0
        self._plan_crashes()

    # -- crash plan (drawn up-front from the schedule) -----------------
    def _plan_crashes(self) -> None:
        cfg, sched = self.cfg, self.sched
        self.c_crash_window: Optional[Any] = None
        if sched.chance(cfg.coordinator_crash_rate, "ccrash"):
            windows: List[Any] = ["collect"]
            windows += [("send", k) for k in range(cfg.n_participants)]
            if self.protocol == "3pc":
                windows += [("precommit", k) for k in range(cfg.n_participants)]
            self.c_crash_window = windows[
                sched.pick(0, len(windows) - 1, "ccrash-window")
            ]
        self.p_crash_at: Dict[str, int] = {}
        for p in self.participants:
            if sched.chance(cfg.participant_crash_rate, "pcrash", p):
                self.p_crash_at[p] = sched.pick(0, 2 * cfg.d_hi, "pcrash-t", p)

    # -- tiny kernel helpers -------------------------------------------
    def at(self, t: int, fn: Callable[[], None], high: bool = False) -> None:
        ev = self.sim.timeout(
            t - self.sim.now, priority=Priority.HIGH if high else Priority.NORMAL
        )
        ev.add_callback(lambda _ev: fn())

    def dead(self, p: str) -> bool:
        return self.crashed[p] is not None

    def crash(self, p: str) -> None:
        if self.dead(p):
            return
        self.crashed[p] = self.sim.now
        self.record(p, "crash")

    def record(self, p: str, symbol: str) -> None:
        self.events[p].append((symbol, self.sim.now))

    def send(
        self,
        src: str,
        dst: str,
        kind: str,
        fn: Callable[[int], None],
        attempt: int = 0,
    ) -> None:
        """Queue one message; loss/extra delay via the fault schedule."""
        self.messages["sent"] += 1
        base = self.sched.pick(
            self.cfg.d_lo, self.cfg.d_hi, "net-delay", kind, src, dst, attempt
        )
        final = self.net.apply(src, dst, kind, base, attempt)
        h = _obs.HOOKS
        if final is None:
            self.messages["lost"] += 1
            if h is not None:
                h.count("txn.messages", kind=kind, outcome="lost")
            return
        if h is not None:
            h.count("txn.messages", kind=kind, outcome="sent")

        def deliver() -> None:
            if self.dead(dst):
                return
            self.messages["delivered"] += 1
            fn(self.sim.now)

        self.at(self.sim.now + final, deliver)

    # -- execution ------------------------------------------------------
    def run(self) -> TransactionRun:
        cfg = self.cfg
        # Planned crashes fire at HIGH priority so a crash at t blocks
        # same-instant deliveries/actions deterministically.
        for p, tc in self.p_crash_at.items():
            self.at(tc, lambda p=p: self.crash(p), high=True)
        if self.c_crash_window == "collect":
            tc = self.sched.pick(1, cfg.vote_timeout - 1, "ccrash-t")
            self.at(tc, lambda: self.crash("C"), high=True)
        self.record("C", "send_prepare")
        for p in self.participants:
            self.send("C", p, "prepare", lambda t, p=p: self.on_prepare(p, t))
        self.at(cfg.prepare_timeout, self.on_prepare_timeout)
        self.at(cfg.vote_timeout, self.on_vote_timeout)
        start = cfg.recovery_start(self.protocol)
        for r in range(cfg.max_rounds):
            self.at(start + r * cfg.round_len, lambda r=r: self.run_round(r))
        self.sim.run(until=cfg.report_at(self.protocol))
        return TransactionRun(
            protocol=self.protocol,
            cfg=cfg,
            seed=self.seed,
            events=self.events,
            decisions=self.decisions,
            crashed=self.crashed,
            outcome=self._classify(),
            messages=dict(self.messages),
            recovery_rounds=self.recovery_rounds,
        )

    def _classify(self) -> str:
        made = {d for d in self.decisions.values() if d is not None}
        values = {d for d, _t in made}
        if {"commit", "abort"} <= values:
            return "mixed"
        if any(
            not self.dead(p) and self.decisions[p] is None for p in self.procs
        ):
            return "blocked"
        if not values:
            return "stalled"
        return next(iter(values))

    # -- participant side ----------------------------------------------
    def on_prepare(self, p: str, t: int) -> None:
        if self.dead(p):
            return
        self.record(p, "recv_prepare")
        self.received_prepare.add(p)
        if self.decisions[p] is not None:
            return  # already presumed-aborted (late PREPARE)
        votes_no = self.sched.chance(self.cfg.abort_vote_rate, "vote", p)
        self.record(p, "vote_no" if votes_no else "vote_yes")
        if votes_no:
            self.apply_decision(p, "abort")  # unilateral: no ⇒ abort
        vote = "no" if votes_no else "yes"
        self.send(p, "C", "vote", lambda t2, p=p, v=vote: self.on_vote(p, v, t2))
        if not votes_no:
            self.at(
                t + self.cfg.decision_timeout(self.protocol),
                lambda p=p: self.on_decision_timeout(p),
            )

    def on_prepare_timeout(self) -> None:
        for p in self.participants:
            if (
                self.dead(p)
                or p in self.received_prepare
                or self.decisions[p] is not None
            ):
                continue
            self.record(p, "timeout")
            self.apply_decision(p, "abort")  # presumed abort: never prepared

    def on_decision_timeout(self, p: str) -> None:
        if self.dead(p) or self.decisions[p] is not None:
            return
        self.record(p, "timeout")  # enters the termination protocol

    def on_precommit(self, p: str, t: int) -> None:
        if self.dead(p) or self.decisions[p] is not None:
            return
        self.record(p, "recv_precommit")
        self.precommitted.add(p)
        self.record(p, "send_ready")
        self.send(p, "C", "ready", lambda t2, p=p: self.on_ready(p, t2))

    def on_decision(self, p: str, dec: str, t: int, ack: bool) -> None:
        if self.dead(p):
            return
        self.record(p, "recv_decision")
        if self.decisions[p] is None:
            self.apply_decision(p, dec)
        if ack:
            self.record(p, "send_ack")
            self.send(p, "C", "ack", lambda t2: self.on_ack(t2))

    # -- coordinator side ----------------------------------------------
    def on_vote(self, p: str, vote: str, t: int) -> None:
        if self.dead("C"):
            return
        self.record("C", "recv_vote")
        self.votes_at_c[p] = vote
        if self.decisions["C"] is not None or self.precommit_sent:
            return
        # C waits for the full vote round (not just the first "no"), so
        # the handshake channel always reads vote×n before the decision.
        if len(self.votes_at_c) == self.cfg.n_participants:
            if all(v == "yes" for v in self.votes_at_c.values()):
                if self.protocol == "3pc":
                    self.do_precommit()
                else:
                    self.coordinator_decide("commit")
            else:
                self.coordinator_decide("abort")

    def on_vote_timeout(self) -> None:
        if self.dead("C") or self.decisions["C"] is not None or self.precommit_sent:
            return
        self.record("C", "timeout")
        self.coordinator_decide("abort")  # missing/no votes ⇒ presumed abort

    def do_precommit(self) -> None:
        self.precommit_sent = True
        self.record("C", "send_precommit")
        crash_k = (
            self.c_crash_window[1]
            if isinstance(self.c_crash_window, tuple)
            and self.c_crash_window[0] == "precommit"
            else None
        )
        for i, p in enumerate(self.participants):
            if crash_k is not None and i >= crash_k:
                break
            self.send("C", p, "precommit", lambda t, p=p: self.on_precommit(p, t))
        if crash_k is not None:
            self.crash("C")
            return
        self.at(self.sim.now + self.cfg.ack_timeout, self.on_ack_timeout)

    def on_ready(self, p: str, t: int) -> None:
        if self.dead("C"):
            return
        self.record("C", "recv_ready")
        self.readys.add(p)
        if (
            len(self.readys) == self.cfg.n_participants
            and self.decisions["C"] is None
        ):
            self.coordinator_decide("commit")

    def on_ack_timeout(self) -> None:
        if self.dead("C") or self.decisions["C"] is not None:
            return
        self.coordinator_decide("commit")  # PRE-COMMIT out ⇒ commit (Skeen)

    def on_ack(self, t: int) -> None:
        if self.dead("C"):
            return
        self.record("C", "recv_ack")

    def coordinator_decide(self, dec: str) -> None:
        if self.dead("C") or self.decisions["C"] is not None:
            return
        self.apply_decision("C", dec)
        self.record("C", "send_decision")
        crash_k = (
            self.c_crash_window[1]
            if isinstance(self.c_crash_window, tuple)
            and self.c_crash_window[0] == "send"
            else None
        )
        for i, p in enumerate(self.participants):
            if crash_k is not None and i >= crash_k:
                break
            self.send(
                "C", p, "decision",
                lambda t, p=p, d=dec: self.on_decision(p, d, t, ack=True),
            )
        if crash_k is not None:
            self.crash("C")

    def apply_decision(self, p: str, dec: str) -> None:
        assert self.decisions[p] is None
        self.decisions[p] = (dec, self.sim.now)
        self.record(p, dec)
        h = _obs.HOOKS
        if h is not None:
            h.count("txn.decisions", decision=dec)

    # -- termination protocol ------------------------------------------
    def state_of(self, p: str) -> str:
        dec = self.decisions[p]
        if dec is not None:
            return "committed" if dec[0] == "commit" else "aborted"
        if p in self.precommitted:
            return "precommitted"
        return "uncertain"

    def run_round(self, r: int) -> None:
        undecided = [
            p
            for p in self.participants
            if not self.dead(p) and self.decisions[p] is None
        ]
        if not undecided:
            return
        self.recovery_rounds += 1
        h = _obs.HOOKS
        if h is not None:
            h.count("txn.recovery_rounds")
        leader = self.participants[r % self.cfg.n_participants]
        if self.dead(leader):
            return
        if self.decisions[leader] is not None:
            self._relay(leader, self.decisions[leader][0], r)
            return
        self.record(leader, "query")
        for p in self.participants:
            if p == leader:
                continue
            self.send(
                leader, p, "query",
                lambda t, p=p, r=r, L=leader: self.on_query(p, L, r, t),
                attempt=r,
            )
        self.at(
            self.sim.now + self.cfg.round_trip + 1,
            lambda r=r, L=leader: self.on_gather(L, r),
        )

    def on_query(self, p: str, leader: str, r: int, t: int) -> None:
        if self.dead(p):
            return
        self.record(p, "state")
        self.send(
            p, leader, "state",
            lambda t2, p=p, st=self.state_of(p), r=r, L=leader: self.on_state(
                L, p, st, r, t2
            ),
            attempt=r,
        )

    def on_state(self, leader: str, p: str, st: str, r: int, t: int) -> None:
        if self.dead(leader):
            return
        self.replies.setdefault(r, {})[p] = st

    def on_gather(self, leader: str, r: int) -> None:
        if self.dead(leader) or self.decisions[leader] is not None:
            return
        states = dict(self.replies.get(r, {}))
        states[leader] = self.state_of(leader)
        values = set(states.values())
        if "committed" in values:
            dec = "commit"
        elif "aborted" in values:
            dec = "abort"
        elif self.protocol == "3pc":
            dec = "commit" if "precommitted" in values else "abort"
        else:
            return  # 2PC, every reachable peer uncertain: blocked
        self.apply_decision(leader, dec)
        self._relay(leader, dec, r)

    def _relay(self, leader: str, dec: str, r: int) -> None:
        self.record(leader, "send_decision")
        for p in self.participants:
            if p == leader:
                continue
            self.send(
                leader, p, "rdecision",
                lambda t, p=p, d=dec: self.on_decision(p, d, t, ack=False),
                attempt=r,
            )


def run_transaction(protocol: str, cfg: TxnConfig, seed: int) -> TransactionRun:
    """Execute one seeded transaction; pure in ``(protocol, cfg, seed)``."""
    h = _obs.HOOKS
    if h is None:
        run = _ProtocolSim(protocol, cfg, seed).run()
    else:
        with h.span("txn.run", protocol=protocol, seed=seed):
            run = _ProtocolSim(protocol, cfg, seed).run()
    if h is not None:
        h.count("txn.transactions", protocol=protocol, outcome=run.outcome)
        for p, tc in run.crashed.items():
            if tc is not None:
                h.count("txn.crashes", role="coordinator" if p == "C" else "participant")
    return run


def run_many(
    protocol: str, cfg: TxnConfig, seeds: List[int]
) -> List[TransactionRun]:
    """One :func:`run_transaction` per seed (the corpus generator)."""
    return [run_transaction(protocol, cfg, seed) for seed in seeds]
