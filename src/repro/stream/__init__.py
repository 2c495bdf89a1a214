"""repro.stream — the online monitoring runtime.

Every other decision path in the repo is *offline*: hand
:func:`repro.engine.decide` a complete timed word, get one verdict.
The paper's acceptor is an *online* device, though — it reads the
input tape as events arrive and emits f as it goes — and a service
shape needs verdicts over live traffic.  This package is that runtime:

``stream.monitor``
    Incremental monitors with a three-valued verdict-so-far
    (ACCEPTING / REJECTED / INCONCLUSIVE), watermark-based
    out-of-order tolerance, and O(state) work per event:
    :class:`Monitor` hosts any machine-protocol acceptor on a
    push-driven tape (batch-agreement by construction), and
    :class:`TBAMonitor` steps a timed Büchi automaton's configuration
    set against a precomputed liveness analysis.
``stream.compiled``
    :class:`CompiledTBA` — one integer successor table over the
    configuration sets the traffic reaches, rows made on demand, so
    TBA stepping is an array lookup instead of dict interpretation,
    deterministic automaton or not (see ``docs/performance.md``).
``stream.session``
    :class:`SessionMux` — many named streams over shared compiled
    acceptors, with bounded per-session buffers, explicit
    backpressure/drop policies, close/evict lifecycle, and
    cross-session vectorized batch stepping (``ingest_batch``).
``stream.sources``
    Adapters from the existing domains: replay any
    :class:`~repro.words.timedword.TimedWord`, serve the §5.1 periodic
    recognition language L_pq live, stream §5.2 ad hoc receive events,
    and merge many words into a mux.
``stream.checkpoint``
    Serialize/restore monitor and mux state so sessions survive a
    process restart, plus the journal both recovering fronts keep.
``stream.supervisor``
    :class:`MuxSupervisor` — the in-process front door of a live mux,
    journaling every call, with periodic checkpoints, crash injection
    and timed failover that loses zero verdicts for accepted calls.

Importing this package also registers the ``"online-incremental"``
strategy with :mod:`repro.engine` (``engine.decide(...,
strategy="online-incremental")`` resolves it lazily), which is what
makes stream-vs-batch agreement a directly testable invariant.
"""

from .checkpoint import (
    checkpoint,
    checkpoint_mux,
    load_json,
    restore,
    restore_mux,
    save_json,
)
from .compiled import CompiledTBA, compiled_for, compilation_enabled
from .monitor import (
    LateEventError,
    Monitor,
    StreamVerdict,
    TBAAnalysis,
    TBAMonitor,
    analysis_for,
)
from .session import BackpressureError, SessionMux, SessionReport
from .sources import (
    events_of,
    receive_stream,
    replay,
    replay_into_mux,
    rtdb_periodic_monitor,
    rtdb_periodic_stream,
)
from .strategy import OnlineIncremental
from .supervisor import MuxSupervisor

__all__ = [
    "MuxSupervisor",
    "StreamVerdict",
    "LateEventError",
    "Monitor",
    "TBAMonitor",
    "TBAAnalysis",
    "analysis_for",
    "CompiledTBA",
    "compiled_for",
    "compilation_enabled",
    "BackpressureError",
    "SessionMux",
    "SessionReport",
    "OnlineIncremental",
    "events_of",
    "replay",
    "replay_into_mux",
    "rtdb_periodic_monitor",
    "rtdb_periodic_stream",
    "receive_stream",
    "checkpoint",
    "restore",
    "checkpoint_mux",
    "restore_mux",
    "save_json",
    "load_json",
]
