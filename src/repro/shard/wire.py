"""Binary frame protocol between the shard router and its workers.

Everything a shard says or hears travels as one *frame* over a duplex
:class:`multiprocessing.connection.Connection` (socketpair under
``fork``).  A frame is::

    header  = !4s B Q I   (magic "RSH1", opcode, sequence, payload length)
    payload = pickle(obj), or for OP_EVENTS an EventBatch's raw columns

The explicit header buys three things over bare ``Connection.send``:

* **Self-describing streams** — the receiver dispatches on the opcode
  before decoding, and a corrupted or foreign frame fails loudly on
  the magic check instead of unpickling garbage;
* **Sequencing** — event frames carry a monotone per-shard sequence the
  worker echoes in its ACK, which is what the router's backpressure
  window counts;
* **Chunking** — one logical event batch is cut into frames of at most
  ``chunk_events`` events (:func:`frame_batches`), bounding both the
  frame size and the latency before the worker starts applying.

Events travel as an :class:`EventBatch`: three columns — router
session ids and symbol ids (int32) and times (int64) — shipped as raw
array bytes and read back as read-only ``numpy.frombuffer`` views, with
no pickle per event.  Names and symbols cross the pipe once per worker
lifetime: a frame carries ``(id, name)`` and ``(id, symbol)`` pairs
only for ids its receiver has not been sent yet (pickled, after the
columns).  Every other payload is plain pickled data: checkpoints are
the JSON-able dicts of :mod:`repro.stream.checkpoint`, a lifecycle
record is the ``(op, payload)`` pair the shard journals, decisions are
:class:`~repro.engine.verdict.DecisionReport` lists, metrics are
:meth:`~repro.obs.registry.MetricRegistry.dump` entries.
"""

from __future__ import annotations

import pickle
import struct
from typing import Any, Iterable, Iterator, Sequence, Tuple

import numpy as np

__all__ = [
    "EventBatch",
    "Frame",
    "frame_batches",
    "send_frame",
    "recv_frame",
    "WireError",
]

MAGIC = b"RSH1"
_HEADER = struct.Struct("!4sBQI")

# Opcodes: requests (router → worker) ...
OP_EVENTS = 1        # EventBatch (raw columns) → ingest into the mux
OP_VERDICTS = 2      # () → {name: verdict value}
OP_STATS = 3         # () → mux.stats() + session count
OP_CHECKPOINT = 4    # () → checkpoint_mux dict
OP_RESTORE = 5       # mux snapshot → rebuild the mux from it
OP_EXTRACT = 6       # [names] → {name: session entry} (removed from mux)
OP_ADOPT = 7         # {name: session entry} → restored into the mux
OP_RECORD = 8        # journal record (op, payload) → apply_record's result
OP_INSTALL_LANG = 9  # (key, kind, payload) → warm a language artifact
OP_DECIDE = 10       # (lang_key, lo, words, horizon, strategy, seed) → reports
OP_METRICS = 11      # () → registry delta dump
OP_SHUTDOWN = 12     # () → final metrics delta, then the worker exits
OP_NEWEST = 13       # () → mux.newest(), the default eviction time

# ... and replies (worker → router).
OP_ACK = 64          # echoes an OP_EVENTS sequence (payload: applied count)
OP_REPLY = 65        # the answer to any synchronous request
OP_ERR = 66          # repr of the exception the request raised

#: Default number of events per OP_EVENTS frame.
DEFAULT_CHUNK_EVENTS = 512


class WireError(RuntimeError):
    """A malformed frame (bad magic or truncated header)."""


class Frame(Tuple[int, int, Any]):
    """``(op, seq, payload)`` with named access."""

    __slots__ = ()

    def __new__(cls, op: int, seq: int, payload: Any) -> "Frame":
        return super().__new__(cls, (op, seq, payload))

    @property
    def op(self) -> int:
        return self[0]

    @property
    def seq(self) -> int:
        return self[1]

    @property
    def payload(self) -> Any:
        return self[2]


#: An OP_EVENTS payload's own header: event count, byte length of the
#: pickled new (id, name) / (id, symbol) pairs (0 when none).
_EVENTS = struct.Struct("<II")
_ID = np.dtype("<i4")
_TIME = np.dtype("<i8")


class EventBatch:
    """A columnar event batch: per event a session id and a symbol id
    (int32) and a time (int64), plus the ``(id, name)`` and
    ``(id, symbol)`` pairs its receiver has not been sent yet.
    ``len()`` is the event count."""

    __slots__ = ("ids", "syms", "times", "names", "symbols")

    def __init__(self, ids: Any, syms: Any, times: Any, names: Sequence = (),
                 symbols: Sequence = ()):
        self.ids = ids
        self.syms = syms
        self.times = times
        self.names = names
        self.symbols = symbols

    def __len__(self) -> int:
        return len(self.ids)

    def take(self, index: Any) -> "EventBatch":
        """The events at ``index`` (an index array or a slice)."""
        return EventBatch(self.ids[index], self.syms[index], self.times[index])

    def to_bytes(self) -> bytes:
        pairs = (
            pickle.dumps((self.names, self.symbols), protocol=pickle.HIGHEST_PROTOCOL)
            if self.names or self.symbols
            else b""
        )
        return b"".join((
            _EVENTS.pack(len(self.ids), len(pairs)),
            self.ids.astype(_ID, copy=False).tobytes(),
            self.syms.astype(_ID, copy=False).tobytes(),
            self.times.astype(_TIME, copy=False).tobytes(),
            pairs,
        ))

    @classmethod
    def from_bytes(cls, data: bytes, offset: int = 0) -> "EventBatch":
        """Read-only views onto ``data``; nothing is copied but the pairs."""
        n, extra = _EVENTS.unpack_from(data, offset)
        at = offset + _EVENTS.size
        ids = np.frombuffer(data, _ID, n, at)
        syms = np.frombuffer(data, _ID, n, at + 4 * n)
        times = np.frombuffer(data, _TIME, n, at + 8 * n)
        names = symbols = ()
        if extra:
            names, symbols = pickle.loads(data[at + 16 * n:])
        return cls(ids, syms, times, names, symbols)


def _concat(batches: Sequence[EventBatch]) -> EventBatch:
    """One batch holding ``batches``' events in order."""
    if len(batches) == 1:
        return batches[0]
    return EventBatch(
        np.concatenate([b.ids for b in batches]),
        np.concatenate([b.syms for b in batches]),
        np.concatenate([b.times for b in batches]),
    )


def frame_batches(
    batches: Iterable[EventBatch], chunk_events: int
) -> Iterator[EventBatch]:
    """Merge and cut column batches into frames of at most
    ``chunk_events`` events each, order kept."""
    if chunk_events < 1:
        raise ValueError(f"chunk_events must be >= 1, got {chunk_events}")
    parts, size = [], 0
    for batch in batches:
        lo, n = 0, len(batch)
        while lo < n:
            k = min(n - lo, chunk_events - size)
            parts.append(batch if k == n else batch.take(slice(lo, lo + k)))
            lo += k
            size += k
            if size == chunk_events:
                yield _concat(parts)
                parts, size = [], 0
    if parts:
        yield _concat(parts)


def pack_frame(op: int, seq: int, payload: Any) -> bytes:
    """Serialize one frame (raises pickle errors for foreign payloads)."""
    if op == OP_EVENTS:
        body = payload.to_bytes()
    else:
        body = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    return _HEADER.pack(MAGIC, op, seq, len(body)) + body


def unpack_frame(data: bytes) -> Frame:
    if len(data) < _HEADER.size:
        raise WireError(f"truncated frame: {len(data)} bytes")
    magic, op, seq, length = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise WireError(f"bad frame magic {magic!r}")
    if len(data) - _HEADER.size != length:
        raise WireError(
            f"frame length mismatch: header {length}, got {len(data) - _HEADER.size}"
        )
    if op == OP_EVENTS:
        return Frame(op, seq, EventBatch.from_bytes(data, _HEADER.size))
    return Frame(op, seq, pickle.loads(data[_HEADER.size:]))


def send_frame(conn: Any, op: int, seq: int, payload: Any) -> None:
    conn.send_bytes(pack_frame(op, seq, payload))


def recv_frame(conn: Any) -> Frame:
    """Blocking receive of one frame (EOFError when the peer died)."""
    return unpack_frame(conn.recv_bytes())
