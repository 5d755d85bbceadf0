"""One measured run of a generated world, in a fresh process.

    python3 perfbench/worker.py --dir WORLD_DIR --mode plain|traced

Runs the world through the public API (``load_scenario`` -> ``build_run`` ->
``execute_run``), writes ``trace.txt``, replays it the way ``hetsel stats``
does, checks the outputs and prints one JSON object on the last line of
standard output.  ``plain`` measures host time with timestamp probes on the
event loop; ``traced`` wraps each layer's public entry points instead and
reports per-layer spans.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter, perf_counter_ns

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from hetsel import trg  # noqa: E402
from hetsel import gll as gll_mod  # noqa: E402
from hetsel import mrrm as mrrm_mod  # noqa: E402
from hetsel.harness import runner as runner_mod  # noqa: E402
from hetsel.harness import trace as trace_mod  # noqa: E402
from hetsel.harness.stats import compute_stats  # noqa: E402
from hetsel.simenv.env import InvariantError  # noqa: E402
from hetsel.simenv.scenario import load_scenario  # noqa: E402

from spans import LAYER_OF, LAYERS, SpanRecorder, percentile, self_times, subtree  # noqa: E402

SETUP_REPEATS = 5
PROBE_MS = 100


def _subscribe_all(bus: trg.TriggerBus, specs: list[dict]) -> None:
    sink = [0]

    def consume(_trigger: trg.Trigger) -> None:
        sink[0] += 1

    for spec in specs:
        bus.subscribe(trg.Subscription(
            consumer_id=spec["consumer_id"],
            accepted_types=tuple(spec["accepted_types"]),
            payload_predicates=tuple(tuple(p) for p in spec["payload_predicates"]),
            min_interval_ms=spec["min_interval_ms"],
        ), consume)


def _setup(world: Path, load=load_scenario):
    """Load the scenario, build the run and register upper-layer subscribers."""
    run = runner_mod.build_run(load(world / "scenario.json"))
    subscriptions = world / "subscriptions.json"
    if subscriptions.exists():
        _subscribe_all(run.bus, json.loads(subscriptions.read_text(encoding="utf-8")))
    return run


def _install_probes(run) -> list[int]:
    """Timestamp every PROBE_MS of simulated time; probes publish and record
    nothing, and run before anything else due at the same instant."""
    stamps: list[int] = []
    loop, end = run.loop, run.scenario.duration_ms

    def probe() -> None:
        stamps.append(perf_counter_ns())
        if loop.now + PROBE_MS <= end:
            loop.schedule(loop.now + PROBE_MS, probe)

    loop.schedule(0, probe)
    return stamps


def _outputs(run, result, world: Path, checks: dict) -> dict:
    """Write the trace and check the run's end state."""
    data = result.trace_text.encode("utf-8")
    (world / "trace.txt").write_bytes(data)
    checks["cells_within_capacity"] = all(
        0 <= c.used_resources <= c.total_resources for c in run.env.cells.values())
    stats = result.stats
    return {
        "trace_sha256": hashlib.sha256(data).hexdigest(),
        "trace_bytes": len(data),
        "stats": stats.as_dict(),
        "outcomes": {
            "attempted": stats.handovers_attempted,
            "completed": stats.handovers_completed,
            "failed": stats.handovers_failed,
            "ping_pongs": stats.ping_pong_count,
            "service_gap_ms": stats.service_gap_total_ms,
        },
    }


def _replay(world: Path, out: dict, checks: dict, compute=compute_stats) -> None:
    """Recompute the stats from the written trace, as ``hetsel stats`` does.

    The caller has dropped the run by now, so the replay does not pay for
    collecting the simulation's heap, just as in a separate process.
    """
    gc.collect()
    t0 = perf_counter()
    replayed = compute(trace_mod.read_trace(world / "trace.txt"))
    out["replay_s"] = perf_counter() - t0
    checks["replayed_stats_equal"] = replayed.as_dict() == out.pop("stats")


def plain(world: Path, checks: dict) -> dict:
    setup_s = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        run = _setup(world)
        setup_s.append(perf_counter() - t0)
    stamps = _install_probes(run)
    t0 = perf_counter()
    result = runner_mod.execute_run(run)
    execute_s = perf_counter() - t0
    out = _outputs(run, result, world, checks)
    out.update(setup_s=setup_s, execute_s=execute_s, sim_s=run.scenario.duration_ms / 1000,
               tick_ms=[(b - a) / 1e6 for a, b in zip(stamps, stamps[1:])])
    del run, result
    _replay(world, out, checks)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return out


class _Counters:
    def __init__(self) -> None:
        self.map_false = 0
        self.scans = {"targeted": 0, "full": 0}
        self.candidates = 0
        self.attach_failed = 0

    def on_map(self, ok, *_args) -> None:
        if ok is False:
            self.map_false += 1

    def on_scan(self, _result, mode, *_args) -> None:
        self.scans[mode] += 1

    def on_select(self, ranked, *_args) -> None:
        self.candidates += len(ranked.entries)

    def on_publish(self, _count, event, *_args) -> None:
        if event.event_type == trg.ATTACH_FAILED:
            self.attach_failed += 1


def traced(world: Path, checks: dict) -> dict:
    rec = SpanRecorder()
    counters = _Counters()
    try:
        rec.patch(trg.TriggerBus, "subscribe", "TriggerBus.subscribe")
        rec.patch(gll_mod, "map_link_quality", "map_link_quality")
        rec.patch(gll_mod, "report_to_payload", "report_to_payload")
        rec.patch(gll_mod, "report_from_payload", "report_from_payload")
        rec.patch(mrrm_mod, "select_access", "select_access", counters.on_select)
        rec.patch(trace_mod, "format_record", "format_record")
        rec.patch(runner_mod, "compute_stats", "compute_stats")
        run = _setup(world, load=rec.wrap("load_scenario", load_scenario))
        rec.patch(run.loop, "schedule", "EventLoop.schedule")
        rec.patch(run.env, "apply_action", "Environment.apply_action")
        rec.patch(run.env, "map_flow", "Environment.map_flow", counters.on_map)
        rec.patch(run.gll, "request_scan", "GenericLinkLayer.request_scan", counters.on_scan)
        rec.patch(run.gll, "attach", "GenericLinkLayer.attach")
        rec.patch(run.mrrm, "decide", "MultiRadioResourceManager.decide")
        rec.patch(run.bus, "publish", "TriggerBus.publish", counters.on_publish)
        rec.patch(run.recorder, "record", "TraceRecorder.record")
        run_root = len(rec)
        t0 = perf_counter()
        result = rec.wrap("execute_run", runner_mod.execute_run)(run)
        execute_s = perf_counter() - t0
    finally:
        rec.restore()
    out = _outputs(run, result, world, checks)
    bus_counts = run.bus.published, run.bus.delivered
    del run, result
    try:
        rec.patch(trace_mod, "parse_record", "parse_record")
        _replay(world, out, checks, compute=rec.wrap("compute_stats", compute_stats))
    finally:
        rec.restore()
    rec.dump(world / "spans.tsv")
    out.update(execute_s=execute_s,
               layers=_layer_metrics(rec, run_root, counters, bus_counts, out))
    return out


def _layer_metrics(rec: SpanRecorder, run_root: int, counters: _Counters,
                   bus_counts: tuple[int, int], out: dict) -> dict:
    own = self_times(rec.parent, rec.start, rec.end)
    in_run = subtree(rec.parent, run_root)
    names = rec.names
    count = dict.fromkeys(names, 0)
    self_ns = dict.fromkeys(names, 0)
    layer_in_run = dict.fromkeys(LAYERS, 0)
    publish_us = []
    for i, code in enumerate(rec.name_code):
        name = names[code]
        count[name] += 1
        self_ns[name] += own[i]
        layer = LAYER_OF.get(name)
        if in_run[i] and layer is not None:
            layer_in_run[layer] += own[i]
        if name == "TriggerBus.publish":
            publish_us.append(own[i] / 1e3)
    run_ns = rec.end[run_root] - rec.start[run_root]

    def n(name):
        return count.get(name, 0)

    def s(*span_names):
        return sum(self_ns.get(name, 0) for name in span_names) / 1e9

    def ratio(a, b):
        return a / b if b else 0.0

    o = out["outcomes"]
    published, delivered = bus_counts
    subscriptions = n("TriggerBus.subscribe")
    metrics = {
        "simenv.load_s": s("load_scenario"),
        "simenv.scheduled": n("EventLoop.schedule"),
        "simenv.actions": n("Environment.apply_action"),
        "simenv.self_s": s("EventLoop.schedule", "Environment.apply_action",
                           "Environment.map_flow"),
        "simenv.map_fail_ratio": ratio(counters.map_false, n("Environment.map_flow")),
        "gll.reports": n("map_link_quality"),
        "gll.map_self_s": s("map_link_quality"),
        "gll.payload_self_s": s("report_to_payload"),
        "gll.scans_targeted": counters.scans["targeted"],
        "gll.scans_full": counters.scans["full"],
        "gll.attaches": n("GenericLinkLayer.attach"),
        "gll.attach_fail_ratio": ratio(counters.attach_failed, n("GenericLinkLayer.attach")),
        "mrrm.rounds": n("MultiRadioResourceManager.decide"),
        "mrrm.decide_self_s": s("MultiRadioResourceManager.decide"),
        "mrrm.selects": n("select_access"),
        "mrrm.select_self_s": s("select_access"),
        "mrrm.selects_per_round": ratio(n("select_access"), n("MultiRadioResourceManager.decide")),
        "mrrm.candidates_per_select": ratio(counters.candidates, n("select_access")),
        "mrrm.unpack_self_s": s("report_from_payload"),
        "mrrm.useful_handover_ratio": ratio(o["completed"] - o["ping_pongs"], o["attempted"]),
        "trg.published": published,
        "trg.delivered": delivered,
        "trg.subscriptions": subscriptions,
        "trg.publish_self_s": s("TriggerBus.publish"),
        "trg.publish_self_us_p50": percentile(publish_us, 50),
        "trg.publish_self_us_p95": percentile(publish_us, 95),
        "trg.match_ratio": ratio(delivered, published * subscriptions),
        "harness.records": n("TraceRecorder.record"),
        "harness.record_self_s": s("TraceRecorder.record"),
        "harness.format_self_s": s("format_record"),
        "harness.stats_self_s": s("compute_stats"),
        "harness.parse_self_s": s("parse_record"),
        "harness.trace_bytes": out["trace_bytes"],
        "unattributed.self_share": 1 - sum(layer_in_run.values()) / run_ns,
        "outcome.ping_pongs": o["ping_pongs"],
        "outcome.service_gap_ms": o["service_gap_ms"],
        "outcome.handover_fail_share": ratio(o["failed"], o["attempted"]),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_share"] = layer_in_run[layer] / run_ns
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dir", required=True, type=Path, help="generated world directory")
    parser.add_argument("--mode", required=True, choices=("plain", "traced"))
    args = parser.parse_args()
    checks: dict[str, bool] = {}
    out: dict = {}
    try:
        out = (plain if args.mode == "plain" else traced)(args.dir, checks)
        checks["no_exception"] = True
    except InvariantError:
        traceback.print_exc()
        checks["no_invariant_error"] = False
    except Exception:  # noqa: BLE001 - any failure of the run is a counted, named failure
        traceback.print_exc()
        checks["no_exception"] = False
    out["checks"] = checks
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
