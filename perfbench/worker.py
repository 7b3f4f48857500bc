"""One workload in a fresh interpreter: import, input generation, warm-up,
then a timed closed loop. Launched by run.py, which owns the measurement.

Modes:
  setup  stop when the timed phase would start (a set-up sample), then
         time the calibration kernel;
  run    time whole blocks until --seconds have passed;
  trace  replay a fixed number of blocks untraced, then the same blocks
         traced, and keep the traced spans.
The result goes to --out as JSON.
"""

from __future__ import annotations

import argparse
import itertools
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

CALIBRATION_INTERVAL_S = 0.1
SETUP_KERNEL_RUNS = 5  # after set-up, to scale it to reference seconds


def _parse(argv):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=["setup", "run", "trace"], required=True)
    ap.add_argument("--launched-at", type=float, required=True,
                    help="time.monotonic() of the launching process at launch")
    ap.add_argument("--out", required=True)
    ap.add_argument("--spans", help="gzip CSV for the spans of a traced run")
    return ap.parse_args(argv)


def _timed_phase(runner, tag, blocks, seconds=None, tracer=None):
    """Run blocks in a closed loop; with `seconds`, stop after the first
    whole block that ends past that many reference seconds. The calibration
    kernel runs between operations, and between the CLI's laplace calls,
    every CALIBRATION_INTERVAL_S; its time is left out of the phase."""
    from calibration import Clock

    out = runner.new_phase(tag)
    latencies = runner.call_latencies
    clock = Clock(latencies, CALIBRATION_INTERVAL_S, tracer and tracer.span)
    undo = runner.time_laplace_calls(clock.maybe_calibrate)
    n_blocks = 0
    try:
        for items in blocks:
            for item in items:
                if tracer is None:
                    runner.op(item, out)
                else:
                    tracer.op_id += 1
                    with tracer.span(runner.span_kind(item)):
                        runner.op(item, out)
                clock.maybe_calibrate()
            n_blocks += 1
            latencies.spill()
            if not isinstance(out, list):
                out.spill()
            if seconds is not None and clock.elapsed() >= seconds:
                break
        phase_s = clock.finish()
    finally:
        if undo:
            undo()
    results = out if isinstance(out, list) else out.to_json()
    return results, {"phase_s": phase_s, "blocks": n_blocks, "calibrations": clock.samples,
                     "latency_file": str(latencies.path)}


def main(argv=None) -> int:
    args = _parse(argv)
    import workloads

    runner = workloads.Runner(args.workload, Path(args.out).parent)
    first = workloads.make_block(args.workload, args.seed, 0)
    runner.warm_up()
    setup_s = time.monotonic() - args.launched_at
    result = {"mode": args.mode, "setup_s": setup_s}

    if args.mode == "setup":
        from calibration import kernel

        result["kernel_s"] = statistics.median(kernel() for _ in range(SETUP_KERNEL_RUNS))

    if args.mode == "run":
        blocks = itertools.chain(
            [first], (workloads.make_block(args.workload, args.seed, i)
                      for i in itertools.count(1)))
        results, phase = _timed_phase(runner, "run", blocks, seconds=args.seconds)
        result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result.update(phase)
        result["results"] = results
    elif args.mode == "trace":
        from tracing import Tracer, layer_metrics

        n_blocks = workloads.trace_blocks(args.workload, args.seconds)
        blocks = [first] + [workloads.make_block(args.workload, args.seed, i)
                            for i in range(1, n_blocks)]
        plain, plain_phase = _timed_phase(runner, "untraced", blocks)
        tracer = Tracer()
        tracer.install()
        try:
            traced, traced_phase = _timed_phase(runner, "traced", blocks, tracer=tracer)
        finally:
            tracer.uninstall()
        result["untraced"] = plain_phase
        result["traced"] = traced_phase
        result["results"] = traced
        result["untraced_results"] = plain
        result["layers"] = layer_metrics(tracer.spans)
        result["spans"] = len(tracer.spans)
        if args.spans:
            tracer.write(args.spans)

    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
