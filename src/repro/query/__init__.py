"""repro.query — the declarative real-time query front-end.

CER-style queries (sequencing / disjunction / iteration / windows /
deadlines, after García & Riveros) over the paper's timed ω-words:

    from repro.query import Q
    q = Q.event("req").then("rsp").within(5).repeat()
    q.monitor().ingest_many([("req", 0), ("rsp", 3), ...])

Queries lower to :mod:`repro.spec` combinators
(:meth:`~repro.query.builder.Query.spec`), so everything downstream —
``engine.decide(query=...)``, :class:`~repro.stream.session.SessionMux`
(``query=`` / ``plan=``), the §4.1 oracle bridge — consumes them with
no new machinery.  The text grammar (:func:`parse` / ``Query.to_text``)
round-trips the same algebra; :class:`QueryPlan` fuses many phase-chain
queries under one table built from their own, with per-channel
verdicts (:class:`PlanMonitor`); :mod:`repro.query.adapters` gives the worked
domains their one-liners.  Full tour: ``docs/queries.md``.
"""

from .adapters import (
    aq_query,
    deadline_query,
    delivery_events,
    pq_query,
    route_delivery_query,
)
from .builder import AndQuery, ChainQuery, OrQuery, Q, QStep, Query
from .grammar import ParseError, parse, to_text
from .plan import PlanMonitor, QueryPlan

__all__ = [
    "Q",
    "Query",
    "ChainQuery",
    "OrQuery",
    "AndQuery",
    "QStep",
    "parse",
    "to_text",
    "ParseError",
    "QueryPlan",
    "PlanMonitor",
    "as_query",
    "query_acceptor",
    "query_monitor",
    "deadline_query",
    "aq_query",
    "pq_query",
    "route_delivery_query",
    "delivery_events",
]


def as_query(query) -> Query:
    """Coerce query text or a builder query to a :class:`Query`."""
    if isinstance(query, str):
        return parse(query)
    if isinstance(query, Query):
        return query
    raise TypeError(f"not a query: {query!r} (pass query text or a Q query)")


def query_acceptor(query, alphabet=None):
    """An engine-consumable acceptor for query text or a Q query."""
    return as_query(query).acceptor(alphabet)


def query_monitor(query, alphabet=None, **kwargs):
    """An online :class:`~repro.stream.monitor.TBAMonitor` for query
    text or a Q query (kwargs pass through)."""
    return as_query(query).monitor(alphabet, **kwargs)
