"""Multi-query optimization: k queries, one stream, one table lookup.

Grez et al.'s complexity results for timed-pattern monitoring (see
PAPERS.md) locate the cost of CER evaluation in the per-event state
update — which the mux already shares *per language*.  This module
extends the sharing across *different* queries watching one stream
(the multi-query setting of García & Riveros, PAPERS.md): a
:class:`QueryPlan` takes k phase-chain queries, completes each
compiled chain automaton (adding an explicit dead state, so no
component can block), and keeps the completed *components* side by
side, each with its own :class:`~repro.stream.monitor.TBAAnalysis`
and lazy :class:`~repro.stream.compiled.CompiledTBA`.  Their product
is never built.  The plan's one table is a
:class:`~repro.stream.compiled.FusedTBA`: a row is the tuple of the
component rows that traffic reached together, and a missed cell steps
each component's own table once.  Stepping the plan stays a single
table lookup per event however many queries are loaded, while its
set-up grows with the components, not with their product.

Per-query verdicts need no extra stepping either: channel q's
(accepting, live, green) flags of a fused row are component q's flags
of its row, and :class:`PlanMonitor` judges channels lazily at read
time from a per-slot visit ledger.  The verdict streams are pinned
identical to k independent per-query monitors by the conformance
harness (``--gen query``) and ``tests/test_query_plan.py``.

Scope: the plan shares *phase chains* (``Loop``/``Eventually``/bare
sequences — everything :class:`~repro.query.builder.ChainQuery`
builds).  ``alt``/``both`` queries have their own product/union
structure and monitor fine individually; passing one here raises.

Correctness sketch (the component-wise construction behind the
closure of timed ω-languages under ∩ and ∪, Theorem 3.3).  Every
completed component is total over the shared alphabet, so none ever
blocks another: a timed word's run of the plan is the tuple of the
components' runs, and a fused row is the tuple of their rows.  A
channel's acceptance, liveness and green therefore are its
component's.  The headline reads the *any-component* accepting set:

* accepting and live if some component is — a lasso visiting the
  any-component set infinitely often visits *some* component's set
  infinitely often, by pigeonhole on the cycle;
* green if some component is green.  A green component is a satisfied
  ``once`` in its accepting sink, and every continuation visits its
  accepting set.  Conversely every phase has an integer ``max_delay``
  (``rt_bound``) and completion sends any event past it to
  :data:`DEAD`: if no component is green, one event after a gap above
  every component's cmax sends every component to DEAD, a
  non-accepting sink, so the headline has a rejecting continuation.

Green needs a unique run: if some component's analysis is not
deterministic, every green flag of the plan is false.
"""

from __future__ import annotations

from itertools import product
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
from ..spec.compile import _and_fold, to_tba
from ..stream.compiled import FusedTBA, compiled_for
from ..stream.monitor import StreamVerdict, TBAMonitor, analysis_for
from .builder import Query

__all__ = ["QueryPlan", "PlanMonitor", "DEAD"]

#: The explicit dead state completion adds to every component: entered
#: when a chain's timer bound fails, absorbing and non-accepting — the
#: structural stand-in for the interpreter's empty configuration set.
DEAD = ("dead",)

#: One component's ``(accepting, live, green)`` flags.
Flags = Tuple[bool, bool, bool]


def _complete(tba: TimedBuchiAutomaton) -> TimedBuchiAutomaton:
    """The same language over a *total* transition relation.

    Every (state, symbol) cell gets an else-edge to :data:`DEAD`
    guarded by the conjoined negations of the cell's existing guards,
    so exactly the valuations that killed a run now move it to DEAD
    instead.  DEAD self-loops unconditionally and is non-accepting:
    liveness, green and acceptance of the original configurations are
    untouched, but the automaton can no longer *block* — which is what
    lets a plan step its components side by side.
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
    """k phase-chain queries watched together over one stream.

    ``queries`` maps channel names to query text, builder queries, or
    phase-chain specs; identical lowered specs share one component.
    ``alphabet`` defaults to the union of every query's actions (all
    queries must watch the same symbol stream — that is what makes the
    shared stepping sound).

    Built artifacts: ``components`` (the completed automata),
    ``analyses`` (one :class:`~repro.stream.monitor.TBAAnalysis` each)
    and ``compiled`` (one :class:`~repro.stream.compiled.FusedTBA`
    over the components' tables, or None when gated off).
    :meth:`monitor` makes a :class:`PlanMonitor`; handing the plan to
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

        # Identical lowered specs share one component.
        comp_specs = list(dict.fromkeys(specs.values()))
        #: Each channel's component, in ``names`` order.
        self.comp_of = tuple(comp_specs.index(omega) for omega in specs.values())
        self.components = [_complete(to_tba(omega, alpha)) for omega in comp_specs]
        self.analyses = [analysis_for(tba) for tba in self.components]
        #: Every component steps deterministically (else no green flag).
        self.deterministic = all(an.deterministic for an in self.analyses)

        self.compiled: Optional[FusedTBA] = None
        if compiled is not False:
            tables = [compiled_for(an) for an in self.analyses]
            if None not in tables:
                self.compiled = FusedTBA(tables)
            elif compiled is True:
                raise ValueError(
                    "compiled stepping disabled for this plan (REPRO_STREAM_COMPILED=0)"
                )
        h = _obs.HOOKS
        if h is not None:
            h.count("query.plans")
            h.observe("query.plan_configs", sum(len(an.universe) for an in self.analyses))

    def __len__(self) -> int:
        return len(self.names)

    def monitor(self, **kwargs: Any) -> "PlanMonitor":
        """A per-session :class:`PlanMonitor` over the shared plan
        (kwargs pass through: lateness, f_window, compiled, …)."""
        return PlanMonitor(self, **kwargs)

    def stats(self) -> Dict[str, Any]:
        """The sharing ledger: fused rows made so far vs the
        components' configurations.

        ``plan_configs`` counts the rows of the fused table that
        traffic has reached (trap excluded; 0 without a table), and
        ``per_query_configs`` each channel's component configurations.
        The per-event cost is one table lookup instead of k either
        way, which is what the BENCH_query ablation measures.
        """
        per_query = {
            name: len(self.analyses[c].universe)
            for name, c in zip(self.names, self.comp_of)
        }
        fused = 0 if self.compiled is None else len(self.compiled.sets) - 1
        return {
            "queries": len(self.names),
            "components": len(self.components),
            "plan_configs": fused,
            "per_query_configs": per_query,
            "sum_per_query_configs": sum(per_query.values()),
            "config_ratio": fused / sum(per_query.values()),
            "deterministic": self.deterministic,
            "compiled": self.compiled is not None,
            "sources": {
                name: to_source(omega) for name, omega in self.specs.items()
            },
        }


class PlanMonitor(TBAMonitor):
    """One monitor, k verdict channels, O(1) extra work per event.

    The base-class machinery (watermark, reorder heap, slot-table
    stepping, headline verdict) runs on the plan's fused table; the
    headline verdict is the disjunction — REJECTED only once every
    channel is dead — and :meth:`query_verdicts` is the real output.
    Off the table (``compiled=False`` or ``REPRO_STREAM_COMPILED=0``)
    the monitor steps each component's ``_step_configs`` on that
    component's own configuration set and judges with the component
    analyses: the oracle the table is tested against.

    Channels are judged *lazily*.  Per applied event the monitor
    records only per-state occupancy (visit count and last-visit time
    for the fused state it landed in — two O(1) writes the slot
    table's scan and wave kernel make into the slot's ledger).  At read
    time a channel's LTL₃ verdict derives exactly:

    * REJECTED iff the channel's component is outside its ``live`` —
      sound to read off the *current* state alone because the
      complement of a backward-closed set is forward-closed (once a
      channel's language dies it cannot revive, so no history is
      needed);
    * the green guarantee likewise: ``green`` is closed under
      successors, so the lock *is* the current state's flag;
    * accept recency (the f-obligation outside green) is the latest
      last-visit time over the states where the component accepts,
      compared against ``f_window`` at the last applied timestamp —
      the same instant the eager per-event judgement would have used.

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
        # The watermark machinery only: a plan has no automaton or
        # analysis of its own for TBAMonitor's constructor to read.
        super(TBAMonitor, self).__init__(lateness=lateness, late_policy=late_policy)
        self.plan = plan
        self.f_window = f_window
        self._start(None if compiled is False else plan.compiled, compiled)

    @property
    def configs(self) -> FrozenSet[Any]:
        """The reachable configurations: tuples of component
        configurations, the product of the components' sets (on the
        table, its row's set)."""
        if self._compiled is None:
            return frozenset(product(*self._parts))
        return self._compiled.sets[self._ci]

    # -- the interpreter ---------------------------------------------------
    def _interpret_start(self) -> Flags:
        self._parts = tuple(
            frozenset({tba._initial_config()}) for tba in self.plan.components
        )
        return self._headline(self._parts)

    def _interpret(self, symbol: Any, gap: int) -> Flags:
        parts = tuple(
            frozenset(tba._step_configs(configs, symbol, gap))
            for tba, configs in zip(self.plan.components, self._parts)
        )
        if not all(parts):
            parts = (frozenset(),) * len(parts)  # one component's trap is the plan's
        self._parts = parts
        return self._headline(parts)

    def _headline(self, state: Any) -> Flags:
        """The headline's flags: each true when some component's is."""
        return tuple(map(any, zip(*self._flags(state))))  # type: ignore[return-value]

    # -- occupancy ledger ----------------------------------------------------
    def _advance(self, symbol: Any, t: int) -> None:
        record = self._tab.comp is None and self.verdict is not StreamVerdict.REJECTED
        super()._advance(symbol, t)
        if record:
            svc, slt = self._tab.svc[self._slot], self._tab.slt[self._slot]
            svc[self._parts] = svc.get(self._parts, 0) + 1
            slt[self._parts] = t

    def _state(self) -> Any:
        """The current fused state: the slot's row on the table, else
        the tuple of the components' configuration sets."""
        return self._parts if self._tab.comp is None else self._ci

    def _visits(self) -> List[Tuple[Any, int, int]]:
        """``(fused state, visit count, last visit time)`` per state the
        slot visited."""
        svc, slt = self._tab.svc[self._slot], self._tab.slt[self._slot]
        if self._tab.comp is None:
            return [(state, n, slt[state]) for state, n in svc.items()]
        # A row the slot never visited may lie past its ledger.
        return [(row, n, slt[row]) for row, n in enumerate(svc) if n]

    def _flags(self, state: Any) -> List[Flags]:
        """Each component's ``(accepting, live, green)`` flags in one
        fused state: its row's flags on the table, else its analysis'
        reading of its configuration set."""
        plan, comp = self.plan, self._tab.comp
        if comp is None:
            flags = [an.flags(s) for an, s in zip(plan.analyses, state)]
        else:
            key = comp.keys[state]
            if not key:
                return [(False, False, False)] * len(comp.parts)
            flags = [
                (p.accepting_list[r], p.live_list[r], p.green_list[r])
                for p, r in zip(comp.parts, key)
            ]
        if plan.deterministic:
            return flags
        return [(acc, live, False) for acc, live, _green in flags]

    # -- channel judgement (derived at read time) --------------------------
    def _verdicts(self) -> List[StreamVerdict]:
        """Every channel's verdict-so-far, in ``plan.names`` order."""
        now = self._flags(self._state())
        newest: List[Optional[int]] = [None] * len(now)
        for state, _n, ts in self._visits():
            for c, (acc, _live, _green) in enumerate(self._flags(state)):
                if acc and (newest[c] is None or ts > newest[c]):
                    newest[c] = ts
        fw = self.f_window
        out = []
        for c in self.plan.comp_of:
            _acc, live, green = now[c]
            lat = newest[c]
            if not live:
                out.append(StreamVerdict.REJECTED)
            elif green or (lat is not None and (fw is None or self.prev_t - lat <= fw)):
                out.append(StreamVerdict.ACCEPTING)
            else:
                out.append(StreamVerdict.INCONCLUSIVE)
        return out

    def query_verdicts(self) -> Dict[str, StreamVerdict]:
        """Current verdict-so-far per query channel."""
        return dict(zip(self.plan.names, self._verdicts()))

    def channel_verdict(self, name: str) -> StreamVerdict:
        """One channel's verdict-so-far (ValueError if unknown)."""
        try:
            q = self.plan.names.index(name)
        except ValueError:
            raise ValueError(
                f"no channel {name!r} in plan {self.plan.names}"
            ) from None
        return self._verdicts()[q]

    def channel_accept_visits(self) -> Dict[str, int]:
        """Applied events per channel that landed in an accepting
        configuration (the per-channel mirror of ``accept_visits``)."""
        visits = [0] * len(self.plan.components)
        for state, n, _ts in self._visits():
            for c, (acc, _live, _green) in enumerate(self._flags(state)):
                if acc:
                    visits[c] += n
        return {name: visits[c] for name, c in zip(self.plan.names, self.plan.comp_of)}

    @property
    def absorbed(self) -> bool:
        """No verdict — headline *or* channel — can still change."""
        if self.verdict is StreamVerdict.REJECTED:
            return True  # base live is the union: every channel is dead
        if not self._green_locked:
            return False
        return all(not live or green for _acc, live, green in self._flags(self._state()))
