#!/usr/bin/env python3
"""perfbench: one benchmark for the stream and decide paths.

Run from the repository root::

    python3 perfbench/run.py --workload fanin --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1

One run is one fresh process on one workload (``fanin``, ``plan-deep``,
``fanin-sharded``, ``decide``; ``all`` runs each in its own process).
It generates the workload's inputs from ``--seed``, times ``setup_s``
over several cold set-ups, then measures closed-loop batches for
``--seconds`` and checks every verdict against the generator's
reference.  Timings are scaled to the reference speed of ``speed.py``,
so the shared machine's slow phases do not move them.
``--trace 0`` reports the end-to-end metrics;
``--trace 1`` spends half the time untraced and half traced, reports
the per-layer metrics and writes a Chrome trace.  Each metric is
printed as ``name value unit``; the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  A full record
(environment stamp included) is appended to ``perfbench/out/runs.jsonl``
for ``perfbench/compare.py``.
"""

from __future__ import annotations

import argparse
import json
import math
import multiprocessing as mp
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from array import array
from typing import Any, Callable, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
    # Measure the checkout's own sources, never an installed copy.
    sys.exit(f"perfbench: no src/repro under {ROOT}")
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import speed  # noqa: E402
from layers import BATCH_SPAN, LayerTrace, install_wrappers, layer_metrics  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402


def bench_spec() -> Dict[str, Any]:
    """BENCHMARK.json: the metric names and units this run reports."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


#: Reference-kernel timings per scaled set-up.
SLOWDOWN_SAMPLES = 5
#: Cold set-ups: at least ``SETUP_PROBES``, more while they take under
#: ``SETUP_PROBE_S`` in all, so cheap set-ups get a steadier median.
SETUP_PROBES = 8
SETUP_PROBES_MAX = 40
SETUP_PROBE_S = 1.5
LATENCY_CAP = 1 << 19
FANOUT_PAIRS = 6
CALIBRATION_LOOP = 1_000_000


# ----------------------------------------------------------------------
# environment
# ----------------------------------------------------------------------

def calibrate() -> float:
    """Seconds for a fixed pure-Python loop (tracks the box's speed)."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_LOOP):
        acc += i * i
    return time.perf_counter() - t0


def git_sha() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> Dict[str, Any]:
    import numpy

    return {
        "cores": os.cpu_count(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git": git_sha(),
    }


def private_mb(pid: int) -> float:
    """Memory only ``pid`` holds: pages it allocated or copied on write."""
    total = 0
    with open(f"/proc/{pid}/smaps_rollup") as fh:
        for line in fh:
            if line.startswith(("Private_Clean:", "Private_Dirty:")):
                total += int(line.split()[1])
    return total / 1024


# ----------------------------------------------------------------------
# measurement
# ----------------------------------------------------------------------

def _probe(w: Workload, conn: Any) -> None:
    t0 = time.perf_counter()
    ctx = w.setup()
    dt = time.perf_counter() - t0
    conn.send(dt / speed.slowdown(SLOWDOWN_SAMPLES))
    w.teardown(ctx)
    conn.close()


def cold_setups(w: Workload) -> List[float]:
    """Scaled set-up times of forked children, each with cold caches."""
    fork = mp.get_context("fork")
    out: List[float] = []
    start = time.perf_counter()
    while len(out) < SETUP_PROBES or (
        len(out) < SETUP_PROBES_MAX and time.perf_counter() - start < SETUP_PROBE_S
    ):
        recv, send = fork.Pipe(duplex=False)
        proc = fork.Process(target=_probe, args=(w, send))
        proc.start()
        send.close()
        out.append(recv.recv())
        proc.join()
        recv.close()
    return out


class Phase:
    """What one measuring phase saw.  ``lat`` and ``window_rates`` are
    scaled to the reference speed; the ``raw_`` figures are not."""

    def __init__(self) -> None:
        self.lat: List[float] = []
        self.window_rates: List[float] = []
        self.raw_window_rates: List[float] = []
        self.slowdowns: List[float] = []
        self.events = 0
        self.timed = 0.0
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.worker_mb = 0.0
        self.rounds = 0


def measure(
    w: Workload,
    seconds: float,
    lat: array,
    trace: Optional[LayerTrace] = None,
    on_round_end: Optional[Callable[[Any], None]] = None,
) -> Phase:
    """Closed-loop rounds until ``seconds`` have passed (at least one).

    After every window of ``w.window_batches`` batches the reference
    kernel is timed, untraced and outside the batch timings, and the
    window's batch latencies and throughput are scaled by it."""
    ph = Phase()
    n_lat = 0
    window: List[float] = []
    win_events = 0
    start = time.perf_counter()
    while True:
        rnd = w.open_round()
        results = []
        timed = 0.0
        raised = False
        for batch in rnd.batches:
            if trace is not None:
                trace.enter(BATCH_SPAN)
            t0 = time.perf_counter()
            try:
                results.append(w.feed(rnd, batch))
            except Exception:  # noqa: BLE001 — a raising batch fails its round
                raised = True
                ph.errors.append(traceback.format_exc())
            dt = time.perf_counter() - t0
            if trace is not None:
                trace.exit()
            if raised:
                break
            timed += dt
            window.append(dt)
            win_events += w.batch_events(rnd, batch)
            if len(window) == w.window_batches:
                slow = speed.slowdown()
                for d in window:
                    if n_lat < len(lat):
                        lat[n_lat] = d / slow
                        n_lat += 1
                raw = win_events / sum(window)
                ph.raw_window_rates.append(raw)
                ph.window_rates.append(raw * slow)
                ph.slowdowns.append(slow)
                window.clear()
                win_events = 0
        ph.attempted += rnd.n_items
        if raised:
            ph.failed += rnd.n_items
        else:
            ph.failed += w.failures(rnd, results)
            ph.events += rnd.n_events
            ph.timed += timed
        workers = sum(private_mb(p) for p in w.child_pids(rnd))
        ph.worker_mb = max(ph.worker_mb, workers)
        if on_round_end is not None:
            on_round_end(rnd)
        w.close_round(rnd)
        ph.rounds += 1
        if time.perf_counter() - start >= seconds:
            break
    ph.lat = sorted(lat[:n_lat])
    return ph


def heap_growth_mb(w: Workload) -> float:
    """Peak Python-heap growth (numpy buffers included) over one extra,
    untimed round, the workload's first.  Pages freed while the inputs
    were generated would hide that growth from RSS, so the heap is
    traced instead."""
    import tracemalloc

    w.rewind()
    tracemalloc.start()
    try:
        rnd = w.open_round()
        for batch in rnd.batches:
            w.feed(rnd, batch)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    w.close_round(rnd)
    return peak / 2**20


def quantile(sorted_xs: List[float], q: float) -> float:
    """Nearest-rank quantile of an ascending list (0 when empty)."""
    if not sorted_xs:
        return 0.0
    k = max(0, min(len(sorted_xs) - 1, math.ceil(q * len(sorted_xs)) - 1))
    return sorted_xs[k]


# ----------------------------------------------------------------------
# traced phase
# ----------------------------------------------------------------------

def traced_phase(w: Workload, seconds: float, lat: array, untraced: Phase):
    """Measure under layer wrappers and repro.obs hooks; returns
    (phase, per-layer metrics, chrome trace document)."""
    from repro.obs import Instrumentation, chrome_trace, hooks

    inst = hooks.install(Instrumentation())
    trace = LayerTrace(inst.spans)
    install_wrappers(trace, w.name)
    extra: Dict[str, float] = {}
    last: Dict[str, Any] = {}

    def on_round_end(rnd: Any) -> None:
        last["round"] = rnd
        if w.name == "fanin-sharded":
            rnd.sink.sync_metrics()
            per_shard: Dict[str, int] = {}
            for batch in rnd.batches:
                for name, _sym, _t in batch:
                    sid = rnd.sink.place_of(name)
                    per_shard[sid] = per_shard.get(sid, 0) + 1
            loads = list(per_shard.values())
            extra["shard.skew"] = max(loads) / (sum(loads) / len(loads))

    if w.name == "decide":
        extra["engine.fanout_speedup"] = fanout_speedup(w)
    try:
        ph = measure(w, seconds, lat, trace, on_round_end)
    finally:
        trace.unwrap_all()
        hooks.uninstall()
    extra.update(events=ph.events, batches=len(ph.lat))
    if w.name == "plan-deep":
        stats = w.ctx["plan"].stats()
        extra["query.plan.build_s"] = w.ctx["plan_build_s"]
        extra["query.plan.configs"] = stats["plan_configs"]
        extra["query.plan.config_ratio"] = stats["config_ratio"]
    if w.name in ("fanin", "plan-deep"):
        extra.update(checkpoint_figures(w, last["round"]))
        if extra.get("stream.checkpoint.mismatch"):
            ph.failed += 1
    untraced_rate = statistics.median(untraced.window_rates) if untraced.window_rates else 0.0
    traced_rate = statistics.median(ph.window_rates) if ph.window_rates else 0.0
    extra["trace.overhead"] = untraced_rate / traced_rate if traced_rate else 0.0
    metrics = layer_metrics(w.name, trace, inst.registry, inst.spans.completed(), extra)
    return ph, metrics, chrome_trace(inst.spans, inst.registry)


def fanout_speedup(w: Workload) -> float:
    """Median over a few batches of serial time / ``auto`` time, both
    judged untraced on the same batch."""
    from repro.obs import hooks

    inst = hooks.uninstall()
    ratios = []
    try:
        for b in w.inputs[:FANOUT_PAIRS]:
            t0 = time.perf_counter()
            w.judge(b.runs)
            auto = time.perf_counter() - t0
            t0 = time.perf_counter()
            w.judge(b.runs, backend="serial")
            ratios.append((time.perf_counter() - t0) / auto)
    finally:
        hooks.install(inst)
    return statistics.median(ratios)


def checkpoint_figures(w: Workload, rnd: Any) -> Dict[str, float]:
    """Checkpoint the final mux, restore it, and compare verdicts."""
    from repro.stream import SessionMux
    from repro.stream.checkpoint import checkpoint_mux, restore_mux

    mux = rnd.sink
    t0 = time.perf_counter()
    try:
        snap = checkpoint_mux(mux)
    except NotImplementedError:
        return {"stream.checkpoint.refused": 1}
    mux_s = time.perf_counter() - t0
    size = len(json.dumps(snap))
    t0 = time.perf_counter()
    back = restore_mux(snap, SessionMux(w.ctx["tba"]), tba=w.ctx["tba"])
    restore_s = time.perf_counter() - t0
    return {
        "stream.checkpoint.mux_s": mux_s,
        "stream.checkpoint.bytes": size,
        "stream.checkpoint.restore_s": restore_s,
        "stream.checkpoint.mismatch": float(back.verdicts() != mux.verdicts()),
    }


# ----------------------------------------------------------------------
# one run
# ----------------------------------------------------------------------

def run(workload: str, seed: int, seconds: float, traced: bool) -> Dict[str, Any]:
    cls = WORKLOADS[workload]
    env = environment()
    env["calibration_before_s"] = calibrate()
    inputs = cls.generate(seed)
    w = cls(inputs)
    setups = cold_setups(w)
    lat = array("d", bytes(8 * LATENCY_CAP))
    t0 = time.perf_counter()
    w.ctx = w.setup()
    setups.append((time.perf_counter() - t0) / speed.slowdown(SLOWDOWN_SAMPLES))
    try:
        untraced = measure(w, seconds / 2 if traced else seconds, lat)
        phases = [untraced]
        if traced:
            ph, layer, doc = traced_phase(w, seconds / 2, lat, untraced)
            phases.append(ph)
        else:
            heap_mb = heap_growth_mb(w)
    finally:
        w.teardown(w.ctx)
    env["calibration_after_s"] = calibrate()
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    record: Dict[str, Any] = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "env": env,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "errors": [e for p in phases for e in p.errors][:3],
    }
    spec = bench_spec()
    if traced:
        record["metrics"] = {
            m["name"]: {"value": layer.get(m["name"], 0.0), "unit": m["unit"]}
            for m in spec["per_layer"]
        }
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"trace-{workload}-{seed}.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        record["chrome_trace"] = os.path.relpath(path, ROOT)
        return record
    lat_sorted = untraced.lat
    values = {
        "setup_s": statistics.median(setups),
        "events_per_s": statistics.median(untraced.window_rates),
        "batch_p50_ms": quantile(lat_sorted, 0.5) * 1e3,
        "mem_mb": heap_mb + untraced.worker_mb,
    }
    record["metrics"] = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]
    }
    record["detail"] = {
        "setup_samples": len(setups),
        "rounds": untraced.rounds,
        "batches": len(lat_sorted),
        "events": untraced.events,
        "mean_events_per_s": untraced.events / untraced.timed if untraced.timed else 0.0,
        "windows": len(untraced.window_rates),
        "raw_window_events_per_s": {
            str(q): quantile(sorted(untraced.raw_window_rates), q) for q in (0.5, 0.9)
        },
        "slowdown": {str(q): quantile(sorted(untraced.slowdowns), q) for q in (0.1, 0.5, 0.9)},
        "setups_s": setups,
        "batch_ms_quantiles": {
            str(q): quantile(lat_sorted, q) * 1e3 for q in (0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99)
        },
        "items": untraced.attempted,
        "item": cls.unit_item,
        "failed_share": failed / attempted if attempted else 0.0,
        "timed_s": untraced.timed,
    }
    if workload == "decide":
        words = untraced.attempted
        record["detail"]["words_per_s"] = words / untraced.timed if untraced.timed else 0.0
    return record


def report(record: Dict[str, Any]) -> None:
    env = record["env"]
    print(
        f"perfbench {record['workload']} seed={record['seed']} seconds={record['seconds']} "
        f"trace={record['trace']}"
    )
    print(
        f"env cores={env['cores']} cpu={env['cpu']!r} python={env['python']} "
        f"numpy={env['numpy']} git={env['git'][:12]} "
        f"calibration_s={env['calibration_before_s']:.4f}->{env['calibration_after_s']:.4f}"
    )
    d = record.get("detail", {})
    notes = {
        "setup_s": f"median of {d.get('setup_samples')} cold set-ups",
        "events_per_s": f"median of {d.get('windows')} windows, {d.get('events')} events",
        "batch_p50_ms": f"of {d.get('batches')} batches",
        "mem_mb": "peak heap growth of one round, plus shard workers' private memory",
    }
    for name, m in record["metrics"].items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} {m['value']:.6g} {m['unit']}{note}")
    if d:
        print(f"mean_events_per_s {d['mean_events_per_s']:.6g} 1/s  (unscaled: all events over all timed batch time)")
        if "words_per_s" in d:
            print(f"words_per_s {d['words_per_s']:.6g} 1/s")
        print(
            f"failed_share {d['failed_share']:.6g} 1  "
            f"({record['failed']} of {record['attempted']} {d['item']}s)"
        )
    if record.get("chrome_trace"):
        print(f"chrome_trace {record['chrome_trace']}")
    for err in record.get("errors", []):
        print(err, file=sys.stderr)


def save(record: Dict[str, Any], path: str) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "a") as fh:
        fh.write(json.dumps(record) + "\n")


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own fresh process; returns the exit code."""
    ok = True
    totals = {"attempted": 0, "failed": 0}
    metrics: Dict[str, Any] = {}
    for name in WORKLOADS:
        cmd = [
            sys.executable, os.path.abspath(__file__), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--record", args.record,
        ]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        last = json.loads(lines[-1])
        ok = ok and last["correct"]
        totals["attempted"] += last["attempted"]
        totals["failed"] += last["failed"]
        metrics[name] = last["metrics"]
    print(json.dumps({"correct": ok, **totals, "metrics": metrics}))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=bench_spec()["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--record", default=os.path.join(OUT_DIR, "runs.jsonl"),
        help="JSON-lines file each run's full record is appended to",
    )
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    save(record, args.record)
    report(record)
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
