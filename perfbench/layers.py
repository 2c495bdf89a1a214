"""Per-layer attribution for the traced perfbench run.

The layers are measured from outside: :class:`LayerTrace` swaps a
timing wrapper in for each public layer entry point for the duration of
the traced phase and restores the originals afterwards.  Each wrapped
call is a child of the batch that made it, so a layer's *self* time is
its duration minus the time its wrapped children cover.  The same calls
are mirrored as spans into the installed :mod:`repro.obs` recorder
(the first :data:`SPAN_BUDGET` of them), next to the spans and counters
the program already emits, and written out as one Chrome trace.

:func:`layer_metrics` turns the aggregates into the per-layer metrics
listed in ``BENCHMARK.json``; the run reports 0 for a layer its
workload does not exercise.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

BATCH_SPAN = "perfbench.batch"

#: Spans mirrored into the Chrome trace; a traced run of the bulk-scan
#: workload makes about a million wrapped calls, far more than a viewer
#: (or memory) wants.
SPAN_BUDGET = 20_000

#: Figures the run measures around the wrappers and passes through.
PASSED_THROUGH = (
    "query.plan.build_s", "query.plan.configs", "query.plan.config_ratio",
    "stream.checkpoint.mux_s", "stream.checkpoint.bytes",
    "stream.checkpoint.restore_s", "stream.checkpoint.refused",
    "shard.skew", "engine.fanout_speedup", "trace.overhead",
)


class LayerTrace:
    """Timing wrappers with their own call stack, mirrored as obs spans."""

    def __init__(self, recorder: Any):
        self.rec = recorder
        self.pid = os.getpid()
        self.total: Dict[str, int] = defaultdict(int)
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        self._stack: List[List[Any]] = []
        self._patches: List[Tuple[Any, str, Any, bool]] = []

    # -- the call stack ---------------------------------------------------
    def enter(self, name: str) -> None:
        span = self.rec.begin(name) if len(self.rec.spans) < SPAN_BUDGET else None
        self._stack.append([name, time.perf_counter_ns(), 0, span])

    def exit(self) -> None:
        name, t0, child, span = self._stack.pop()
        dur = time.perf_counter_ns() - t0
        if span is not None:
            self.rec.end(span)
        self.total[name] += dur
        self.self_ns[name] += dur - child
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += dur

    def active(self) -> bool:
        """Count only calls made inside a batch, in this process."""
        return bool(self._stack) and os.getpid() == self.pid

    # -- wrapping ---------------------------------------------------------
    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        note: Optional[Callable[[tuple, Any], Dict[str, float]]] = None,
    ) -> None:
        """Time every call of ``owner.attr`` as layer ``name``; ``note``
        maps ``(args, result)`` to extra counts (sizes, bytes)."""
        own = attr in vars(owner)
        orig = getattr(owner, attr)
        trace = self

        @functools.wraps(orig)
        def timed(*args: Any, **kwargs: Any) -> Any:
            # Forked shard workers inherit the patch and pass straight through.
            if not trace.active():
                return orig(*args, **kwargs)
            trace.enter(name)
            try:
                out = orig(*args, **kwargs)
            finally:
                trace.exit()
            if note is not None:
                for key, n in note(args, out).items():
                    trace.counts[key] += n
            return out

        setattr(owner, attr, timed)
        self._patches.append((owner, attr, orig, own))

    def unwrap_all(self) -> None:
        for owner, attr, orig, own in reversed(self._patches):
            if own:
                setattr(owner, attr, orig)
            else:
                delattr(owner, attr)
        self._patches.clear()


def install_wrappers(trace: LayerTrace, workload: str) -> None:
    """Wrap the public entry points of the layers ``workload`` drives."""
    if workload in ("fanin", "plan-deep"):
        from repro.query.plan import PlanMonitor
        from repro.stream.compiled import CompiledTBA
        from repro.stream.monitor import TBAMonitor
        from repro.stream.session import SessionMux

        trace.wrap(
            SessionMux, "ingest_batch", "stream.session.ingest_batch",
            lambda a, out: {"vectorized": out, "events": len(a[1])},
        )
        trace.wrap(
            CompiledTBA, "step_many", "stream.compiled.step_many",
            lambda a, out: {"wave_rows": len(a[1])},
        )
        for cls in (TBAMonitor, PlanMonitor):
            trace.wrap(
                cls, "ingest_many", "stream.monitor.ingest_many",
                lambda a, out: {"slice_events": len(a[1])},
            )
    elif workload == "fanin-sharded":
        from repro.shard import router as router_mod
        from repro.shard import wire

        def frame_note(a: tuple, out: Any) -> Dict[str, float]:
            if a[0] != wire.OP_EVENTS:
                return {}
            return {"frames": 1, "frame_bytes": len(out), "frame_events": len(a[2])}

        trace.wrap(
            router_mod.ShardRouter, "ingest_batch", "shard.router.ingest_batch",
            lambda a, out: {"events": len(a[1])},
        )
        trace.wrap(router_mod.ShardRouter, "sync", "shard.router.sync")
        trace.wrap(router_mod, "send_frame", "shard.wire.send")
        trace.wrap(router_mod, "recv_frame", "shard.wire.recv")
        trace.wrap(wire, "pack_frame", "shard.wire.pack", frame_note)
    elif workload == "decide":
        from repro.txn import verify

        trace.wrap(
            verify, "words_for", "txn.words_for",
            lambda a, out: {"words": len(out)},
        )


def counter_total(registry: Any, name: str, **labels: Any) -> float:
    """Sum of a counter's children matching ``labels`` (0 if absent)."""
    metric = registry.get(name)
    if metric is None:
        return 0.0
    kids = list(metric.children()) or [metric]
    want = {k: str(v) for k, v in labels.items()}
    return float(
        sum(
            c.value
            for c in kids
            if all(str(dict(c.label_values).get(k)) == v for k, v in want.items())
        )
    )


def _duration(s: Any) -> int:
    return s.end_ns - s.start_ns


def span_self_times(spans: List[Any]) -> Dict[int, int]:
    """Self time (ns) of every completed span, keyed by its seq."""
    child: Dict[int, int] = defaultdict(int)
    for s in spans:
        if s.parent_seq is not None:
            child[s.parent_seq] += _duration(s)
    return {s.seq: _duration(s) - child[s.seq] for s in spans}


def _per(x: float, n: float) -> float:
    return x / n if n else 0.0


def layer_metrics(
    workload: str,
    trace: LayerTrace,
    registry: Any,
    spans: List[Any],
    extra: Dict[str, float],
) -> Dict[str, float]:
    """Per-layer metric values of one traced phase, for the layers
    ``workload`` exercises.

    ``spans`` are the recorder's completed spans.  ``extra`` carries the
    phase's ``events`` and ``batches`` plus the :data:`PASSED_THROUGH`
    figures the run measured itself.
    """
    out = {k: float(extra[k]) for k in PASSED_THROUGH if k in extra}
    ns = 1e-9
    events = extra.get("events", 0)
    batches = extra.get("batches", 0)
    c = trace.counts
    if workload in ("fanin", "plan-deep"):
        ib, sm, im = (
            "stream.session.ingest_batch",
            "stream.compiled.step_many",
            "stream.monitor.ingest_many",
        )
        out["stream.session.self_s"] = _per(trace.self_ns[ib] * ns, events)
        out["stream.vectorized_share"] = _per(c["vectorized"], c["events"])
        out["stream.compiled.step_many_s"] = _per(trace.total[sm] * ns, events)
        out["stream.compiled.step_many_calls"] = _per(trace.calls[sm], batches)
        out["stream.compiled.wave_width"] = _per(c["wave_rows"], trace.calls[sm])
        out["stream.monitor.ingest_many_s"] = _per(trace.total[im] * ns, events)
        out["stream.monitor.ingest_many_calls"] = _per(trace.calls[im], batches)
        out["stream.monitor.slice_len"] = _per(c["slice_events"], trace.calls[im])
        for path in ("wave", "bulk"):
            out[f"stream.compiled_steps.{path}"] = _per(
                counter_total(registry, "stream.compiled_steps", path=path), events
            )
    elif workload == "fanin-sharded":
        # send_frame (which packs) nests under ingest_batch, so routing
        # is ingest_batch's self time; recv_frame is the ACK wait.
        out["shard.router.route_s"] = _per(
            trace.self_ns["shard.router.ingest_batch"] * ns, events
        )
        out["shard.wire.pack_s"] = _per(trace.total["shard.wire.pack"] * ns, events)
        out["shard.wire.bytes_per_event"] = _per(c["frame_bytes"], c["frame_events"])
        out["shard.wire.frames"] = _per(c["frames"], batches)
        out["shard.router.ack_wait_s"] = _per(trace.total["shard.wire.recv"] * ns, events)
        stepped = sum(
            counter_total(registry, "stream.compiled_steps", path=p) for p in ("wave", "bulk")
        )
        out["shard.worker.vectorized_share"] = _per(
            stepped, counter_total(registry, "stream.events_ingested", outcome="ok")
        )
    elif workload == "decide":
        selfs = span_self_times(spans)
        by_seq = {s.seq: s for s in spans}

        def in_serial_decide(s: Any) -> bool:
            p = s.parent_seq
            while p in by_seq:
                parent = by_seq[p]
                if parent.name == "engine.decide_many":
                    return parent.args.get("backend") == "serial"
                p = parent.parent_seq
            return False

        dm = [s for s in spans if s.name == "engine.decide_many"]
        serial = [s for s in dm if s.args.get("backend") == "serial"]
        serial_words = sum(s.args.get("words", 0) for s in serial)
        machine = [s for s in spans if s.name == "machine.decide" and in_serial_decide(s)]
        kernel = [s for s in spans if s.name == "kernel.run" and in_serial_decide(s)]
        out["txn.words_for_s"] = _per(trace.total["txn.words_for"] * ns, c["words"])
        out["engine.decide_many_s"] = _per(
            sum(map(_duration, dm)) * ns, sum(s.args.get("words", 0) for s in dm)
        )
        calls = counter_total(registry, "engine.batches")
        for label, key in (("serial", "serial"), ("pool", "fork"), ("shards", "shards")):
            out[f"engine.batches.{key}"] = _per(
                counter_total(registry, "engine.batches", mode=label), calls
            )
        out["machine.decide_s"] = _per(sum(selfs[s.seq] for s in machine) * ns, serial_words)
        out["kernel.run_s"] = _per(sum(selfs[s.seq] for s in kernel) * ns, serial_words)
        out["kernel.events_per_word"] = _per(
            counter_total(registry, "kernel.events_dispatched"),
            counter_total(registry, "engine.batch_words"),
        )
        out["engine.judge_self_s"] = _per(
            (sum(map(_duration, serial)) - sum(map(_duration, machine))) * ns, serial_words
        )
    return out
