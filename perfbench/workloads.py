"""The four perfbench workloads: seeded traffic, reference verdicts, drivers.

Every generator is a pure function of its seed.  It writes the traffic
and, from what it wrote, the verdict each session or word must reach
(which session it made miss which window, which process it saw decide
what).  The drivers only hand the generated inputs to the program under
test; nothing here reaches into its state.

A workload is driven in *rounds*.  A round opens a fresh sink (mux or
shard router), feeds it every batch of the generated trace in a closed
loop, and checks the verdicts it ends with.  Rounds repeat until the
measuring time is used up, so session state and memory stay bounded by
one round while the run still carries thousands of batches.  ``decide``
judges one batch per round.
"""

from __future__ import annotations

import gc
import hashlib
import multiprocessing as mp
import os
import random
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from repro.query import QueryPlan, Q, as_query
from repro.query.adapters import pq_query
from repro.shard.router import ShardRouter
from repro.spec.combinators import phases_of
from repro.stream import SessionMux
from repro.txn import TxnConfig, corpus, offline_batched
from repro.txn.properties import properties_for, words_for

ACC = "accepting"
REJ = "rejected"

#: ``fanin``: the §5.1 periodic-query skeleton, issue within 4 chronons
#: of the previous answer, answer within 5 of the issue.
FANIN_SESSIONS = 2000
FANIN_EVENTS_PER_SESSION = 64
FANIN_BATCH = 512
FANIN_MISS_SHARE = 0.10
ISSUE_WITHIN = 4
ANSWER_WITHIN = 5

#: ``plan-deep``: five req→rsp window queries fused into one plan.
PLAN_WINDOWS = (4, 5, 6, 7, 8)
PLAN_SESSIONS = 16
PLAN_EVENTS_PER_SESSION = 4096
PLAN_BATCH = 256
PLAN_LATE_SESSIONS = 4
REQ_WITHIN = 2

#: ``decide``: 2PC and 3PC at two crash rates, 32 transactions a batch.
TXN_BATCH = 32
TXN_BATCHES = 16
TXN_PROTOCOLS = ("2pc", "3pc")
TXN_CRASH_RATES = (0.1, 0.2)

SHARDS = 2


def verdict_value(v: Any) -> Any:
    """A stream verdict as its plain string value."""
    return getattr(v, "value", v)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"perfbench:{workload}:{seed}")


def _merge(timeline: List[Tuple[int, int, str]], names: List[str], batch: int):
    """Sort per-session events by time and cut the merge into batches."""
    timeline.sort()
    events = [(names[i], sym, t) for t, i, sym in timeline]
    return [events[lo:lo + batch] for lo in range(0, len(events), batch)]


# ----------------------------------------------------------------------
# traffic
# ----------------------------------------------------------------------

@dataclass
class StreamTraffic:
    """A merged event trace cut into batches, plus its reference verdicts.

    ``expected`` maps a session to its final verdict value (``fanin``)
    or to its per-query verdict values (``plan-deep``).
    """

    batches: List[List[Tuple[str, str, int]]]
    expected: Dict[str, Any]

    @property
    def n_events(self) -> int:
        return sum(len(b) for b in self.batches)

    @property
    def n_items(self) -> int:
        return len(self.expected)


def fanin_traffic(
    seed: int,
    n_sessions: int = FANIN_SESSIONS,
    per_session: int = FANIN_EVENTS_PER_SESSION,
    batch: int = FANIN_BATCH,
) -> StreamTraffic:
    """Long-lived ``issue``/``answer`` sessions, merged by timestamp.

    Every gap is drawn inside its budget except one per missing session,
    which overshoots it by 1–3 chronons; that session must end REJECTED
    and every other one ACCEPTING.
    """
    rng = _rng("fanin", seed)
    names = [f"s{i:05d}" for i in range(n_sessions)]
    missers = set(rng.sample(range(n_sessions), round(n_sessions * FANIN_MISS_SHARE)))
    timeline: List[Tuple[int, int, str]] = []
    expected: Dict[str, Any] = {}
    for i, name in enumerate(names):
        miss_at = rng.randrange(per_session) if i in missers else -1
        t = 0
        for k in range(per_session):
            sym, budget = ("issue", ISSUE_WITHIN) if k % 2 == 0 else ("answer", ANSWER_WITHIN)
            t += budget + rng.randint(1, 3) if k == miss_at else rng.randint(1, budget)
            timeline.append((t, i, sym))
        expected[name] = REJ if miss_at >= 0 else ACC
    return StreamTraffic(_merge(timeline, names, batch), expected)


def fanin_tba() -> Any:
    """``pq_query(6, 4)`` lowered to its timed Büchi automaton."""
    return as_query(pq_query(ANSWER_WITHIN + 1, ISSUE_WITHIN)).tba()


def plan_queries() -> Dict[str, Any]:
    return {
        f"rsp-within-{w}": Q.event("req").within(REQ_WITHIN).then("rsp").within(w).repeat()
        for w in PLAN_WINDOWS
    }


def plan_traffic(
    seed: int,
    n_sessions: int = PLAN_SESSIONS,
    per_session: int = PLAN_EVENTS_PER_SESSION,
    batch: int = PLAN_BATCH,
) -> StreamTraffic:
    """Few deep ``req``/``rsp`` sessions for the fused five-query plan.

    A late session answers once after ``G`` chronons (5 ≤ G ≤ 8), so
    exactly the queries with a window below ``G`` must end REJECTED.
    """
    rng = _rng("plan-deep", seed)
    names = [f"p{i:03d}" for i in range(n_sessions)]
    late = set(rng.sample(range(n_sessions), min(PLAN_LATE_SESSIONS, n_sessions)))
    timeline: List[Tuple[int, int, str]] = []
    expected: Dict[str, Any] = {}
    for i, name in enumerate(names):
        late_gap = rng.randint(PLAN_WINDOWS[0] + 1, PLAN_WINDOWS[-1]) if i in late else 0
        late_at = rng.randrange(1, per_session, 2) if late_gap else -1
        t = 0
        for k in range(per_session):
            if k % 2 == 0:
                sym, gap = "req", rng.randint(1, REQ_WITHIN)
            else:
                sym, gap = "rsp", late_gap if k == late_at else rng.randint(1, 3)
            t += gap
            timeline.append((t, i, sym))
        expected[name] = {
            f"rsp-within-{w}": REJ if late_gap > w else ACC for w in PLAN_WINDOWS
        }
    return StreamTraffic(_merge(timeline, names, batch), expected)


def txn_config(crash_rate: float) -> TxnConfig:
    return TxnConfig(
        n_participants=3,
        d_lo=1,
        d_hi=2,
        abort_vote_rate=0.05,
        participant_crash_rate=crash_rate / 2,
        coordinator_crash_rate=crash_rate,
    )


def _chain_completes(phases, prefix) -> bool:
    """Does the phase chain complete on ``prefix``?  Each phase waits for
    the first occurrence of its action; any event later than the phase's
    budget ends the walk (the tick tail after the prefix always does)."""
    t0 = 0
    k = 0
    for sym, t in prefix:
        if k == len(phases):
            break
        phase = phases[k]
        if t - t0 > phase.hi:
            return False
        if sym == phase.action:
            t0 = t
            k += 1
    return k == len(phases)


def txn_expected(run) -> Dict[Tuple[str, str], str]:
    """Reference verdict values of one run's deterministic channel words,
    keyed ``(property, process)``, from what the protocol recorded."""
    out: Dict[Tuple[str, str], str] = {}
    props = properties_for(run.cfg, run.protocol)
    deadline = run.cfg.recovery_deadline(run.protocol)
    for proc in run.processes:
        dec = run.decisions[proc]
        for name in ("commit", "abort"):
            ok = dec is not None and dec[0] == name and dec[1] <= deadline
            out[(name, proc)] = "accept" if ok else "reject"
    phases = phases_of(props["handshake"].spec.body)
    done = _chain_completes(phases, run.handshake_word().prefix)
    out[("handshake", "C")] = "accept" if done else "reject"
    return out


@dataclass
class TxnBatch:
    runs: List[Any]
    expected: Dict[Tuple[int, str, str], str]
    n_words: int
    n_events: int


def txn_corpus(seed: int, n_batches: int = TXN_BATCHES, batch: int = TXN_BATCH) -> List[TxnBatch]:
    """Batches of finished transactions, one (protocol, crash rate) cell
    each, cycling 2PC/3PC × 0.1/0.2."""
    out: List[TxnBatch] = []
    for b in range(n_batches):
        protocol = TXN_PROTOCOLS[b % 2]
        rate = TXN_CRASH_RATES[(b // 2) % 2]
        runs = corpus(protocol, txn_config(rate), batch, base_seed=seed * 1_000_003 + b * batch)
        expected: Dict[Tuple[int, str, str], str] = {}
        n_events = 0
        for i, run in enumerate(runs):
            for (name, proc), v in txn_expected(run).items():
                expected[(i, name, proc)] = v
            for prop in properties_for(run.cfg, run.protocol).values():
                if prop.deterministic:
                    for word in words_for(run, prop, tail="frozen").values():
                        n_events += len(word.prefix) + len(word.loop)
        out.append(TxnBatch(runs, expected, len(expected), n_events))
    return out


def digest(inputs: Any) -> str:
    """A stable hash of generated inputs (the determinism test pins it)."""
    h = hashlib.sha256()
    if isinstance(inputs, StreamTraffic):
        h.update(repr(inputs.batches).encode())
        h.update(repr(sorted(inputs.expected.items())).encode())
    else:
        for b in inputs:
            h.update(repr([(r.protocol, r.seed, r.events, r.decisions) for r in b.runs]).encode())
            h.update(repr(sorted(b.expected.items())).encode())
    return h.hexdigest()


# ----------------------------------------------------------------------
# drivers
# ----------------------------------------------------------------------

@dataclass
class Round:
    """One pass of a workload's batches through a sink."""

    sink: Any
    batches: List[Any]
    n_events: int
    n_items: int
    extra: Dict[str, Any] = field(default_factory=dict)


class Workload:
    """Base driver: ``setup`` builds what a cold process needs before the
    first batch; ``open_round``/``feed``/``failures``/``close_round``
    run and judge one round."""

    name = ""
    unit_item = "session"
    #: Batches per throughput window (``events_per_s`` is taken over
    #: windows: many more samples than rounds, each still many batches).
    window_batches = 16

    def __init__(self, inputs: Any):
        self.inputs = inputs
        self.ctx: Any = None

    @staticmethod
    def generate(seed: int) -> Any:
        raise NotImplementedError

    def setup(self) -> Any:
        raise NotImplementedError

    def teardown(self, ctx: Any) -> None:
        pass

    def open_round(self) -> Round:
        raise NotImplementedError

    def feed(self, rnd: Round, batch: Any) -> Any:
        raise NotImplementedError

    def failures(self, rnd: Round, results: List[Any]) -> int:
        raise NotImplementedError

    def close_round(self, rnd: Round) -> None:
        pass

    def batch_events(self, rnd: Round, batch: Any) -> int:
        return len(batch)

    def rewind(self) -> None:
        """Make the next round the first one again."""

    def child_pids(self, rnd: Round) -> List[int]:
        return []


class StreamWorkload(Workload):
    """Rounds over one merged trace.  Set-up leaves the first round's
    sink in ``ctx["sink"]``; :meth:`new_sink` makes the later ones."""

    def new_sink(self) -> Any:
        raise NotImplementedError

    def open_round(self) -> Round:
        sink = self.ctx.pop("sink", None)
        if sink is None:
            sink = self.new_sink()
        return Round(sink, self.inputs.batches, self.inputs.n_events, self.inputs.n_items)

    def feed(self, rnd: Round, batch: Any) -> Any:
        return rnd.sink.ingest_batch(batch)

    def verdicts(self, rnd: Round) -> Dict[str, Any]:
        return {n: verdict_value(v) for n, v in rnd.sink.verdicts().items()}

    def failures(self, rnd: Round, results: List[Any]) -> int:
        """Sessions whose verdict differs from the reference, plus any
        that may have lost an event to a drop."""
        got = self.verdicts(rnd)
        expected = self.inputs.expected
        wrong = sum(1 for name, want in expected.items() if got.get(name) != want)
        return min(len(expected), wrong + rnd.sink.stats()["drops"])


class Fanin(StreamWorkload):
    name = "fanin"

    @staticmethod
    def generate(seed: int) -> StreamTraffic:
        return fanin_traffic(seed)

    def setup(self) -> Any:
        tba = fanin_tba()
        return {"tba": tba, "sink": SessionMux(tba)}

    def new_sink(self) -> Any:
        return SessionMux(self.ctx["tba"])


class FaninSharded(Fanin):
    name = "fanin-sharded"

    @staticmethod
    def _router(tba: Any) -> ShardRouter:
        # The workers are forked: frozen objects stay out of their
        # collections, so collector passes do not copy the parent's
        # pages into them and their private memory holds their own state.
        gc.collect()
        gc.freeze()
        router = ShardRouter(tba, n_shards=SHARDS)
        router.stats()  # every worker is up and answering
        return router

    def setup(self) -> Any:
        tba = fanin_tba()
        return {"tba": tba, "sink": self._router(tba)}

    def new_sink(self) -> Any:
        return self._router(self.ctx["tba"])

    def teardown(self, ctx: Any) -> None:
        if ctx.get("sink") is not None:
            ctx["sink"].shutdown()

    def feed(self, rnd: Round, batch: Any) -> Any:
        rnd.sink.ingest_batch(batch)
        rnd.sink.sync()

    def close_round(self, rnd: Round) -> None:
        rnd.sink.shutdown()

    def child_pids(self, rnd: Round) -> List[int]:
        return [p.pid for p in mp.active_children()]


class PlanDeep(StreamWorkload):
    name = "plan-deep"
    window_batches = 32

    @staticmethod
    def generate(seed: int) -> StreamTraffic:
        return plan_traffic(seed)

    def setup(self) -> Any:
        t0 = time.perf_counter()
        plan = QueryPlan(plan_queries())
        build_s = time.perf_counter() - t0
        return {"plan": plan, "plan_build_s": build_s, "sink": SessionMux(plan=plan)}

    def new_sink(self) -> Any:
        return SessionMux(plan=self.ctx["plan"])

    def verdicts(self, rnd: Round) -> Dict[str, Any]:
        mux = rnd.sink
        return {
            n: {q: verdict_value(v) for q, v in mux.monitor(n).query_verdicts().items()}
            for n in mux.active
        }


class Decide(Workload):
    name = "decide"
    unit_item = "word"
    window_batches = 1

    def __init__(self, inputs: Any):
        super().__init__(inputs)
        self.next_batch = 0

    @staticmethod
    def generate(seed: int) -> List[TxnBatch]:
        return txn_corpus(seed)

    @staticmethod
    def workers() -> int:
        return os.cpu_count() or 1

    def setup(self) -> Any:
        from repro.engine.batch import compiled_tba
        from repro.spec.compile import to_tba

        for b in self.inputs[:2]:
            for prop in properties_for(b.runs[0].cfg, b.runs[0].protocol).values():
                if prop.deterministic:
                    compiled_tba(to_tba(prop.spec, prop.alphabet))
        self.judge(self.inputs[0].runs)  # one warm-up batch
        return {}

    def judge(self, runs: List[Any], backend: str = "auto") -> Dict[Any, Any]:
        return offline_batched(runs, backend=backend, workers=self.workers())

    def open_round(self) -> Round:
        b = self.inputs[self.next_batch % len(self.inputs)]
        self.next_batch += 1
        return Round(None, [b.runs], b.n_events, b.n_words, {"batch": b})

    def feed(self, rnd: Round, batch: Any) -> Any:
        return self.judge(batch)

    def batch_events(self, rnd: Round, batch: Any) -> int:
        return rnd.n_events

    def rewind(self) -> None:
        self.next_batch = 0

    def failures(self, rnd: Round, results: List[Any]) -> int:
        want = rnd.extra["batch"].expected
        got = {k: v.value for k, v in results[0].items()}
        return sum(1 for k, v in want.items() if got.get(k) != v) + len(set(got) - set(want))


WORKLOADS = {w.name: w for w in (Fanin, PlanDeep, FaninSharded, Decide)}
