"""Multi-query optimization: one shared automaton, many verdicts.

Grez et al.'s complexity results for timed-pattern monitoring (see
PAPERS.md) locate the cost of CER evaluation in the per-event state
update — which the mux already shares *per language*.  This module
extends the sharing across *different* queries: a :class:`QueryPlan`
takes k phase-chain queries, completes each compiled chain automaton
(adding an explicit dead state so no component can block the others),
and runs the synchronous product as **one** deterministic TBA with one
:class:`~repro.stream.monitor.TBAAnalysis` and one
:class:`~repro.stream.compiled.CompiledTBA`.  Stepping the plan is a
single table lookup per event no matter how many queries are loaded;
shared phase-chain prefixes (the common case in fleets of sessions
watching variations of the same protocol) collapse into shared regions
of the product's configuration graph — ``stats()`` reports the fused
size against the sum of per-query universes.

Per-query verdicts come from *projections*, not extra stepping: the
product run's channel-q projection is exactly component q's run, so
:meth:`TBAAnalysis.live_for` / ``green_for`` re-derive each channel's
liveness/guarantee sets over the one shared configuration universe and
:meth:`QueryPlan.flags` projects each configuration set a monitor
reads (a row of the one shared table, or off it the monitor's own set)
onto every channel, once per set.  Crucially the per-event cost of
a channel is *zero*: channel REJECTED (out of ``live_q``) and the
green guarantee are both **forward-closed** — the current state alone
decides them — and accept recency derives from per-state visit
bookkeeping (two O(1) writes per event), so :class:`PlanMonitor`
judges channels lazily at read time; the slot table's scan and wave
kernel write that ledger per slot.  The verdict streams are pinned
identical to k independent per-query monitors by the conformance
harness (``--gen query``) and ``tests/test_query_plan.py``.

Scope: the plan shares *phase chains* (``Loop``/``Eventually``/bare
sequences — everything :class:`~repro.query.builder.ChainQuery`
builds).  ``alt``/``both`` queries have their own product/union
structure and monitor fine individually; passing one here raises.

Correctness sketch (why projections are sound): every completed
component is total and semantically deterministic, hence so is the
product — each timed word has exactly one product run, whose channel-q
projection is exactly component q's run.  Büchi acceptance, liveness
and green therefore factor through the projection, and the any-channel
accepting set makes base liveness the union of channel liveness (a
lasso visiting the any-channel set infinitely often visits *some*
channel's set infinitely often, by pigeonhole on the cycle).
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, Iterable, List, Mapping, Optional, Tuple

from ..automata.timed import TimedBuchiAutomaton, TimedTransition
from ..kernel.clock import Not, TrueConstraint
from ..obs import hooks as _obs
from ..spec.combinators import (
    Alt,
    Both,
    PhaseSpec,
    Spec,
    actions_of,
    as_omega,
    to_source,
)
from ..spec.compile import _and_fold, _rename_clocks, to_tba
from ..stream.compiled import compiled_for
from ..stream.monitor import StreamVerdict, TBAMonitor, analysis_for
from .builder import Query

__all__ = ["QueryPlan", "PlanMonitor", "DEAD"]

#: The explicit dead state completion adds to every component: entered
#: when a chain's timer bound fails, absorbing and non-accepting — the
#: structural stand-in for the interpreter's empty configuration set.
DEAD = ("dead",)


def _complete(tba: TimedBuchiAutomaton) -> TimedBuchiAutomaton:
    """The same language over a *total* transition relation.

    Every (state, symbol) cell gets an else-edge to :data:`DEAD`
    guarded by the conjoined negations of the cell's existing guards,
    so exactly the valuations that killed a run now move it to DEAD
    instead.  DEAD self-loops unconditionally and is non-accepting:
    liveness, green and acceptance of the original configurations are
    untouched, but the automaton can no longer *block* — which is what
    lets the product construction interleave components freely.
    """
    states = list(tba.states) + [DEAD]
    transitions = list(tba.transitions)
    for s in tba.states:
        for a in tba.alphabet:
            guards = [tr.guard for tr in tba._by_source.get((s, a), ())]
            if any(isinstance(g, TrueConstraint) for g in guards):
                continue  # some edge always fires; nothing escapes
            transitions.append(
                TimedTransition(
                    s, DEAD, a, frozenset(), _and_fold(Not(g) for g in guards)
                )
            )
    for a in tba.alphabet:
        transitions.append(
            TimedTransition(DEAD, DEAD, a, frozenset(), TrueConstraint())
        )
    return TimedBuchiAutomaton(
        alphabet=tba.alphabet,
        states=states,
        initial=tba.initial,
        transitions=transitions,
        clocks=tba.clocks,
        accepting=tba.accepting,
    )


def _product(
    components: List[TimedBuchiAutomaton], alphabet: Tuple[Any, ...]
) -> TimedBuchiAutomaton:
    """The synchronous product of *completed* components.

    No fairness counter here (contrast ``_product_tba`` in
    :mod:`repro.spec.compile`): the plan does not conjoin obligations,
    it tracks every component at once and judges each through its own
    accepting projection.  Base accepting is the *any-component* set —
    the disjunction — which makes base liveness the union of the
    channels' (the headline REJECTED = every query dead).
    """
    m = len(components)
    initial = tuple(t.initial for t in components)
    states: List[Any] = [initial]
    seen = {initial}
    transitions: List[TimedTransition] = []
    frontier = [initial]
    while frontier:
        svec = frontier.pop()
        for a in alphabet:
            options = [
                t._by_source.get((svec[i], a), ())
                for i, t in enumerate(components)
            ]
            combos: List[Tuple[TimedTransition, ...]] = [()]
            for opts in options:
                combos = [c + (tr,) for c in combos for tr in opts]
            for combo in combos:
                tvec = tuple(tr.target for tr in combo)
                if tvec not in seen:
                    seen.add(tvec)
                    states.append(tvec)
                    frontier.append(tvec)
                transitions.append(
                    TimedTransition(
                        svec,
                        tvec,
                        a,
                        frozenset().union(*(tr.resets for tr in combo)),
                        _and_fold(tr.guard for tr in combo),
                    )
                )
    accepting = [
        s
        for s in states
        if any(s[i] in components[i].accepting for i in range(m))
    ]
    clocks = [c for t in components for c in t.clocks]
    return TimedBuchiAutomaton(
        alphabet=alphabet,
        states=states,
        initial=initial,
        transitions=transitions,
        clocks=clocks,
        accepting=accepting,
    )


def _as_omega_spec(query: Any) -> Spec:
    """Normalize a plan entry — query text, builder query, or spec —
    to its ω-layer spec."""
    if isinstance(query, str):
        from .grammar import parse

        return parse(query).spec()
    if isinstance(query, Query):
        return query.spec()
    if isinstance(query, (Spec, PhaseSpec)):
        return as_omega(query)
    raise TypeError(
        f"a plan entry must be query text, a Q query, or a spec; "
        f"got {query!r}"
    )


class QueryPlan:
    """k phase-chain queries fused into one shared product automaton.

    ``queries`` maps channel names to query text, builder queries, or
    phase-chain specs; identical lowered specs share one component.
    ``alphabet`` defaults to the union of every query's actions (all
    queries must watch the same symbol stream — that is what makes the
    shared stepping sound).

    Built artifacts: ``tba`` (the completed product), ``analysis``
    (one :class:`~repro.stream.monitor.TBAAnalysis`), ``compiled``
    (one :class:`~repro.stream.compiled.CompiledTBA`, or None when
    gated off), and ``channels`` — per-name (accepting, live, green)
    configuration sets over the shared universe.  :meth:`monitor`
    makes a :class:`PlanMonitor`; handing the plan to
    :class:`~repro.stream.session.SessionMux` (``plan=...``) monitors
    it per session with all the batch fast paths intact.
    """

    def __init__(
        self,
        queries: Any,
        alphabet: Optional[Iterable[Any]] = None,
        *,
        compiled: Optional[bool] = None,
    ):
        items = (
            list(queries.items())
            if isinstance(queries, Mapping)
            else list(queries)
        )
        if not items:
            raise ValueError("a query plan needs at least one query")
        self.names: Tuple[str, ...] = tuple(name for name, _q in items)
        if len(set(self.names)) != len(self.names):
            raise ValueError(f"duplicate channel names in {self.names}")
        specs: Dict[str, Spec] = {}
        for name, q in items:
            omega = _as_omega_spec(q)
            if isinstance(omega, (Alt, Both)):
                raise ValueError(
                    f"channel {name!r} lowers to "
                    f"{type(omega).__name__.lower()}(...), which has no "
                    f"shared-prefix chain structure; a QueryPlan fuses "
                    f"phase chains only — monitor alt/both queries "
                    f"individually (Query.monitor())"
                )
            specs[name] = omega
        self.specs = specs

        if alphabet is None:
            symbols: set = set()
            for omega in specs.values():
                symbols |= actions_of(omega)
            alpha = tuple(sorted(symbols, key=repr))
        else:
            alpha = tuple(sorted(set(alphabet), key=repr))
        self.alphabet = alpha

        # Dedup identical lowered specs into components.
        comp_specs: List[Spec] = []
        comp_index: Dict[Spec, int] = {}
        self._comp_of: Dict[str, int] = {}
        for name, omega in specs.items():
            idx = comp_index.get(omega)
            if idx is None:
                idx = comp_index[omega] = len(comp_specs)
                comp_specs.append(omega)
            self._comp_of[name] = idx
        self._comp_specs = comp_specs

        components = [
            _rename_clocks(_complete(to_tba(omega, alpha)), f"q{i}.")
            for i, omega in enumerate(comp_specs)
        ]
        self.tba = _product(components, alpha)
        self.analysis = analysis_for(self.tba)

        # Per-channel verdict sets: project the shared universe onto
        # each component's accepting states, then re-derive liveness
        # and green against that projection.
        self.channels: Dict[
            str,
            Tuple[FrozenSet[Any], FrozenSet[Any], FrozenSet[Any]],
        ] = {}
        for name, idx in self._comp_of.items():
            acc_states = components[idx].accepting
            acc = frozenset(
                c for c in self.analysis.universe if c[0][idx] in acc_states
            )
            self.channels[name] = (
                acc,
                self.analysis.live_for(acc),
                self.analysis.green_for(acc),
            )

        if compiled is False:
            self.compiled = None
        else:
            self.compiled = compiled_for(self.analysis)
            if compiled is True and self.compiled is None:
                raise ValueError(
                    "compiled stepping disabled for this plan (REPRO_STREAM_COMPILED=0)"
                )
        #: The channel flags of each configuration set read so far
        #: (shared by every :class:`PlanMonitor`).
        self._flags: Dict[FrozenSet[Any], List[Tuple[bool, bool, bool]]] = {}
        h = _obs.HOOKS
        if h is not None:
            h.count("query.plans")
            h.observe("query.plan_configs", len(self.analysis.universe))

    def __len__(self) -> int:
        return len(self.names)

    def flags(self, members: FrozenSet[Any]) -> List[Tuple[bool, bool, bool]]:
        """Each channel's ``(accepting, live, green)`` flags of one
        configuration set: accepting or live if a member is, green if
        it is non-empty and inside the channel's green set.  Computed
        once per set and shared by every monitor, so the views grow
        with the sets the traffic reaches."""
        got = self._flags.get(members)
        if got is None:
            got = self._flags[members] = [
                (
                    not members.isdisjoint(acc),
                    not members.isdisjoint(live),
                    bool(members) and members <= green,
                )
                for acc, live, green in map(self.channels.__getitem__, self.names)
            ]
        return got

    def monitor(self, **kwargs: Any) -> "PlanMonitor":
        """A per-session :class:`PlanMonitor` over the shared plan
        (kwargs pass through: lateness, f_window, compiled, …)."""
        return PlanMonitor(self, **kwargs)

    def stats(self) -> Dict[str, Any]:
        """The sharing ledger: fused product size vs the per-query sum.

        ``per_query_configs`` builds (cached) stand-alone analyses for
        each channel's own automaton — the exact monitors the plan
        replaces.  A ``config_ratio`` below 1 means the fused graph is
        outright smaller (heavily shared prefixes); above 1, the
        product pays state for the stepping win — either way the
        *per-event* cost is one table lookup instead of k, which is
        what the BENCH_query ablation measures.
        """
        per_query = {
            name: len(analysis_for(to_tba(omega, self.alphabet)).universe)
            for name, omega in self.specs.items()
        }
        fused = len(self.analysis.universe)
        return {
            "queries": len(self.names),
            "components": len(self._comp_specs),
            "plan_configs": fused,
            "per_query_configs": per_query,
            "sum_per_query_configs": sum(per_query.values()),
            "config_ratio": fused / sum(per_query.values()),
            "deterministic": self.analysis.deterministic,
            "compiled": self.compiled is not None,
            "sources": {
                name: to_source(omega) for name, omega in self.specs.items()
            },
        }


class PlanMonitor(TBAMonitor):
    """One monitor, k verdict channels, O(1) extra work per event.

    The base-class machinery (watermark, reorder heap, slot-table
    stepping, headline verdict) runs on the plan's product automaton;
    the headline verdict is the disjunction — REJECTED only once every
    channel is dead — and :meth:`query_verdicts` is the real output.

    Channels are judged *lazily*.  Per applied event the monitor
    records only per-state occupancy (visit count and last-visit time
    for the state it landed in — two O(1) writes the slot table's scan
    and wave kernel make into the slot's ledger).  At read time a
    channel's LTL₃ verdict derives exactly:

    * REJECTED iff the current state is outside ``live_q`` — sound to
      read off the *current* state alone because the complement of a
      backward-closed set is forward-closed (once a channel's language
      dies it cannot revive, so no history is needed);
    * the green guarantee likewise: ``green`` is closed under
      successors, so the lock *is* the current state's flag;
    * accept recency (the f-obligation outside green) is the latest
      last-visit time over the channel's accepting states, compared
      against ``f_window`` at the last applied timestamp — the same
      instant the eager per-event judgement would have used.

    This keeps the per-event cost independent of k, which is where the
    plan's throughput win over k separate monitors comes from.

    Checkpointing is not supported (the v1 snapshot format does not
    carry the occupancy ledger) —
    :func:`repro.stream.checkpoint.checkpoint` refuses rather than
    silently dropping the channels.
    """

    _ledger = True

    def __init__(
        self,
        plan: QueryPlan,
        *,
        lateness: int = 0,
        late_policy: str = "raise",
        f_window: Optional[int] = None,
        compiled: Optional[bool] = None,
    ):
        self.plan = plan
        super().__init__(
            plan.tba,
            analysis=plan.analysis,
            lateness=lateness,
            late_policy=late_policy,
            f_window=f_window,
            compiled=compiled,
        )

    # -- occupancy ledger ----------------------------------------------------
    def _advance(self, symbol: Any, t: int) -> None:
        record = self._tab.comp is None and self.verdict is not StreamVerdict.REJECTED
        super()._advance(symbol, t)
        if record:
            svc, slt = self._tab.svc[self._slot], self._tab.slt[self._slot]
            for c in self.configs:
                svc[c] = svc.get(c, 0) + 1
                slt[c] = t

    def _visits(self) -> List[Tuple[FrozenSet[Any], int, int]]:
        """``(configuration set, visit count, last visit time)`` per
        ledger entry: per row on the table (a row the slot never
        visited may lie past its ledger), per configuration off it."""
        svc, slt = self._tab.svc[self._slot], self._tab.slt[self._slot]
        comp = self._tab.comp
        if comp is None:
            return [(frozenset({c}), n, slt[c]) for c, n in svc.items()]
        return [(comp.sets[i], n, slt[i]) for i, n in enumerate(svc) if n]

    # -- channel judgement (derived at read time) --------------------------
    def _channel_verdict(self, q: int) -> StreamVerdict:
        flags = self.plan.flags
        _acc, live, green = flags(self.configs)[q]
        if not live:
            return StreamVerdict.REJECTED
        if green:
            return StreamVerdict.ACCEPTING
        lat = max(
            (ts for members, _n, ts in self._visits() if flags(members)[q][0]),
            default=None,
        )
        fw = self.f_window
        if lat is not None and (fw is None or self.prev_t - lat <= fw):
            return StreamVerdict.ACCEPTING
        return StreamVerdict.INCONCLUSIVE

    def query_verdicts(self) -> Dict[str, StreamVerdict]:
        """Current verdict-so-far per query channel."""
        return {
            name: self._channel_verdict(q)
            for q, name in enumerate(self.plan.names)
        }

    def channel_verdict(self, name: str) -> StreamVerdict:
        """One channel's verdict-so-far (ValueError if unknown)."""
        try:
            q = self.plan.names.index(name)
        except ValueError:
            raise ValueError(
                f"no channel {name!r} in plan {self.plan.names}"
            ) from None
        return self._channel_verdict(q)

    def channel_accept_visits(self) -> Dict[str, int]:
        """Applied events per channel that landed in an accepting
        configuration (the per-channel mirror of ``accept_visits``)."""
        visits, flags = self._visits(), self.plan.flags
        return {
            name: sum(n for members, n, _ts in visits if flags(members)[q][0])
            for q, name in enumerate(self.plan.names)
        }

    @property
    def absorbed(self) -> bool:
        """No verdict — headline *or* channel — can still change."""
        if self.verdict is StreamVerdict.REJECTED:
            return True  # base live is the union: every channel is dead
        if not self._green_locked:
            return False
        return all(not live or green for _acc, live, green in self.plan.flags(self.configs))
