"""End-to-end benchmark of the CDI system: one workload per invocation.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload batch_fleet --seed 0 --seconds 25 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The traced
run also writes its spans as JSONL under ``.e2ebench/traces/`` and a
layer summary to standard error.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

WORKLOADS = ("batch_fleet", "stream_replay", "serve_dashboard")
#: Default run length: ``run_seconds`` of BENCHMARK.json.
RUN_SECONDS = json.loads(
    (HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]

#: Per-layer metrics timed by spans: metric name → span name.  Each
#: per-layer figure is the layer's total over the timed phase divided by
#: the operations attempted, except ``telemetry.generate_s`` (the median
#: per set-up) and ``pipeline.compute_self_s`` (the self time of the
#: ``pipeline.compute`` span after its timed children).
LAYER_SPANS = {
    "pipeline.ingest_s": "pipeline.ingest",
    "storage.scan_s": "storage.scan",
    "core.kernel_s": "core.kernel",
    "pipeline.checkpoint_s": "pipeline.checkpoint",
    "storage.output_write_s": "storage.output_write",
    "streaming.poll_s": "streaming.poll",
    "streaming.extract_s": "streaming.extract",
    "streaming.apply_s": "streaming.apply",
    "streaming.publish_s": "streaming.publish",
    "streaming.checkpoint_s": "streaming.checkpoint",
    "serving.execute_s": "serving.execute",
    "serving.rollup_build_s": "serving.rollup_build",
    "serving.publish_s": "serving.publish",
}
#: Per-layer metrics counted by the hooks: metric name → unit.
LAYER_COUNTS = {
    "storage.spill_bytes": "B",
    "engine.tasks": "count",
    "engine.retry_attempts": "count",
    "pipeline.checkpoint_saves": "count",
    "pipeline.checkpoint_bytes": "B",
    "streaming.events_applied": "count",
    "streaming.checkpoint_bytes": "B",
    "serving.wire_s": "s",
    "serving.wire_cache_hits": "count",
    "serving.execute_calls": "count",
    "serving.result_cache_hits": "count",
    "serving.result_cache_misses": "count",
    "serving.invalidations": "count",
    "serving.rollup_builds": "count",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def layer_metrics(tracer, ops: int, generate_s: float) -> dict:
    totals = tracer.totals()
    metrics = {"telemetry.generate_s": (generate_s, "s")}
    for name, span in LAYER_SPANS.items():
        metrics[name] = (totals.get(span, (0.0, 0.0, 0))[0] / ops, "s")
    compute = totals.get("pipeline.compute", (0.0, 0.0, 0))
    metrics["pipeline.compute_self_s"] = (compute[1] / ops, "s")
    for name, unit in LAYER_COUNTS.items():
        metrics[name] = (tracer.counters.get(name, 0.0) / ops, unit)
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"e2ebench: program sources not found at {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import harness
    harness.pin_to_one_cpu()
    module = __import__({"batch_fleet": "batch", "stream_replay": "stream",
                         "serve_dashboard": "serve"}[args.workload])

    tracer = harness.Tracer() if args.trace else None
    hooks = module.Hooks(tracer) if tracer else None
    state = None
    try:
        state, setup_s, setup_scaled_s, generate_s = harness.timed_setups(
            lambda: module.setup(args.seed, hooks))
        harness.settle()
        setup_peak_mb = harness.peak_rss_mb()
        if tracer:
            tracer.reset()
        with harness.run_directory() as tmp:
            outcome = module.run(args.seconds, state, tmp, hooks)
        # Taken before the figures are worked out, whose temporary
        # arrays grow with the number of operations.
        peak_mb = harness.peak_rss_mb()
    finally:
        if state is not None and hasattr(state, "close"):
            state.close()
        if hooks:
            hooks.close()
    for error in outcome["errors"][:20]:
        print(f"e2ebench: {error}", file=sys.stderr)
    attempted = outcome["attempted"]
    phase = outcome["phase"]
    if tracer is not None:
        metrics = layer_metrics(tracer, attempted, generate_s)
        trace_path = (harness.WORK_DIR / "traces"
                      / f"{args.workload}-seed{args.seed}.jsonl")
        tracer.write_jsonl(trace_path)
        print(tracer.summary(attempted), file=sys.stderr)
        for name, (value, unit) in metrics.items():
            print(f"{name:32} {value:14.6g} {unit}", file=sys.stderr)
        # The untraced run's ops_per_s minus this one is the tracing
        # overhead.
        traced = phase.count / phase.timed
        print(f"traced ops_per_s {traced:.6g}", file=sys.stderr)
        print(f"e2ebench: spans written to {trace_path}", file=sys.stderr)
    else:
        # Times are reported at the reference speed: each is scaled by
        # the machine's speed measured beside it (README, "Machine
        # speed").  The figures as timed go to standard error.
        raw, metrics = phase.metrics()
        metrics["setup_s"] = (setup_scaled_s, "s")
        print(f"e2ebench: machine speed {harness.speed(phase.probes):.4f} "
              f"over {len(phase.probes)} probes in the timed phase; as "
              "timed: " + " ".join(f"{name}={value:.6g}" for name, (value, _)
                                   in raw.items()) + f" setup_s={setup_s:.6g}",
              file=sys.stderr)
        metrics["peak_rss_mb"] = (peak_mb, "MB")
        # ru_maxrss only grows: an unchanged figure means set-up set it.
        when = "during" if peak_mb == setup_peak_mb else "after"
        print(f"e2ebench: peak_rss_mb {peak_mb:.1f} reached {when} set-up "
              f"({setup_peak_mb:.1f} MB at the end of set-up)",
              file=sys.stderr)
    print(harness.result_line(
        correct=not outcome["errors"], attempted=attempted,
        failed=outcome["failed"], metrics=metrics,
    ))
    return 0


if __name__ == "__main__":
    sys.exit(main())
