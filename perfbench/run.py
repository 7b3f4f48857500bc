"""Benchmark of the frechet_laplace library: one workload per invocation.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. Each workload runs in a fresh interpreter with
one caller thread in a closed loop (the next call starts when the previous
one returned); every value is then checked against an independent route.
The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics of
a separate traced run. A results file with the environment, the failing
inputs and every metric goes to .perfbench_results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
PACKAGE = ROOT / "src" / "frechet_laplace"
RESULTS = ROOT / ".perfbench_results"

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_SAMPLES = 5     # set-up-only launches per run
IMPORTTIME_SAMPLES = 3
VERIFY_PROCESSES = 2
WORKER_TIMEOUT_S = 150
FAILURES_SHOWN = 20

END_TO_END_UNITS = {
    "setup_s": "s", "values_per_s": "1/s", "call_ms_p50": "ms",
    "call_ms_p99": "ms", "verified_frac": "ratio", "peak_rss_mb": "MB",
}
LAYER_UNITS = {
    "numerics.log_gamma.calls": "count", "numerics.log_gamma.elems": "count",
    "numerics.log_gamma.elems_per_call": "count", "numerics.log_gamma.s": "s",
    "numerics.log_gamma.ns_per_elem": "ns",
    "numerics.quad.calls": "count", "numerics.quad.evals_per_call": "count",
    "numerics.quad.s": "s", "numerics.quad.converged_ratio": "ratio",
    "mellin.integrals": "count", "mellin.s": "s",
    "mellin.nodes_per_integral": "count", "mellin.converged_ratio": "ratio",
    "meijer.calls": "count", "meijer.s": "s", "meijer.self_s": "s",
    "meijer.self_share": "ratio",
    "laplace.calls": "count", "laplace.s": "s", "laplace.oracle.calls": "count",
    "laplace.oracle.s": "s", "laplace.auto_fallback_ratio": "ratio",
    "ftransform.half.calls": "count", "ftransform.half.s": "s",
    "distributions.find_maximum.calls": "count", "distributions.find_maximum.s": "s",
    "cli.fig1_s": "s", "cli.fig2_s": "s", "cli.fig3_s": "s", "cli.fig4_s": "s",
    "cli.selfcheck_s": "s", "cli.self_s": "s",
    "setup.import_s": "s", "setup.scipy_optimize_s": "s",
    "trace.overhead_ratio": "ratio", "verify.worst_dev": "ratio",
}


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["closed-form-grid", "oracle-sweep", "cli-batch"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return ap.parse_args(argv)


def _child_env():
    env = dict(os.environ)
    env.update({var: "1" for var in BLAS_THREAD_VARS})
    return env


def _launch(args, mode, tmp, tag, spans=None):
    out = tmp / f"{tag}.json"
    cmd = [sys.executable, str(PERF / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds), "--mode", mode,
           "--out", str(out)]
    if spans:
        cmd += ["--spans", str(spans)]
    launched = time.monotonic()
    subprocess.run(cmd + ["--launched-at", repr(launched)], cwd=ROOT, env=_child_env(),
                   stdout=subprocess.DEVNULL, check=True, timeout=WORKER_TIMEOUT_S)
    with open(out) as fh:
        return json.load(fh)


def _import_times():
    """Median cumulative import time of frechet_laplace and scipy.optimize."""
    env = _child_env()
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    samples = {"frechet_laplace": [], "scipy.optimize": []}
    for _ in range(IMPORTTIME_SAMPLES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import frechet_laplace"],
                              cwd=ROOT, env=env, capture_output=True, text=True, check=True,
                              timeout=60)
        seen = {}
        for line in proc.stderr.splitlines():
            m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)$", line)
            if m and m.group(2) in samples:
                seen[m.group(2)] = int(m.group(1)) * 1e-6
        for name, values in samples.items():
            values.append(seen.get(name, 0.0))
    return {name: statistics.median(v) for name, v in samples.items()}


def _verify(workload, records, tmp):
    """Outcome of each record. The references run in VERIFY_PROCESSES
    processes, once per distinct input; the timed phase is over, so they
    compete with nothing."""
    import verify

    if workload == "cli-batch":
        kind, items = "commands", records
    else:
        kind, items = "references", list(dict.fromkeys(tuple(r["input"]) for r in records))
    size = max(1, -(-len(items) // VERIFY_PROCESSES))
    jobs = []
    for n, start in enumerate(range(0, len(items), size)):
        job, out = tmp / f"verify{n}.job.json", tmp / f"verify{n}.out.json"
        with open(job, "w") as fh:
            json.dump({"workload": workload, "kind": kind, "items": items[start:start + size]}, fh)
        jobs.append((job, out))
    procs = [subprocess.Popen([sys.executable, str(PERF / "verify.py"), "--job", str(job),
                               "--out", str(out)], cwd=ROOT, env=_child_env())
             for job, out in jobs]
    try:
        for proc in procs:
            if proc.wait(timeout=WORKER_TIMEOUT_S) != 0:
                raise subprocess.CalledProcessError(proc.returncode, proc.args)
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    parts = []
    for _, out in jobs:
        with open(out) as fh:
            parts += json.load(fh)
    if kind == "commands":
        return parts
    by_input = dict(zip(items, parts))
    return [verify.check_call(workload, r, *by_input[tuple(r["input"])]) for r in records]


def _records(args, n_blocks, results):
    """Records with their inputs; call workloads replay the inputs from the
    seed rather than ship them back from the worker."""
    if args.workload == "cli-batch":
        return results
    import workloads

    inputs = workloads.replay(args.workload, args.seed, n_blocks)
    values = workloads.read_column(results["values_file"], "d")
    converged = workloads.read_column(results["converged_file"], "B")
    if not len(inputs) == len(values) == len(converged):
        raise RuntimeError("worker results do not match the replayed inputs")
    errors = results["errors"]
    return [{"input": item, "value": v, "converged": bool(c), "error": errors.get(str(i))}
            for i, (item, v, c) in enumerate(zip(inputs, values, converged))]


def _same_outputs(workload, plain, traced):
    if workload != "cli-batch":
        return plain["errors"] == traced["errors"] and all(
            Path(plain[f]).read_bytes() == Path(traced[f]).read_bytes()
            for f in ("values_file", "converged_file"))
    if len(plain) != len(traced):
        return False
    for a, b in zip(plain, traced):
        if a["exit"] != b["exit"] or a["stdout"] != b["stdout"]:
            return False
        if a["csv"] and Path(a["csv"]).read_bytes() != Path(b["csv"]).read_bytes():
            return False
    return True


def _environment(args):
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            names = [l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")]
        cpu = names[0] if names else cpu
    except OSError:
        pass
    commit = None
    try:
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
        if proc.returncode == 0:
            commit = proc.stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(), "cpu_model": cpu,
        "commit": commit, "seed": args.seed, "workload": args.workload,
        "seconds": args.seconds, "trace": args.trace,
        "blas_threads": {var: "1" for var in BLAS_THREAD_VARS},
        "load": "closed loop, one caller thread, fresh process per workload",
        "time_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def _percentile(sorted_values, q):
    """Nearest-rank percentile: the smallest value with at least q% at or below."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def _reference_times(phase, latencies=()):
    """Phase seconds and call latencies in reference seconds.

    The host's speed drifts by 20-30% over seconds to minutes, so times
    measured in a timed phase are converted segment by segment: a segment
    between two runs of the calibration kernel counts its raw seconds times
    calibration.REFERENCE_S over the mean kernel time at its two ends.
    Set-up times are scaled in _setup_sample().
    """
    import calibration

    cal = phase["calibrations"]
    # one kernel run varies by +-20% by itself: use a running median of five
    kernel_s = [statistics.median(c[2] for c in cal[max(0, i - 2):i + 3])
                for i in range(len(cal))]
    total, scaled = 0.0, []
    for (t_a, n_a, _), (t_b, n_b, _), k_a, k_b in zip(cal, cal[1:], kernel_s, kernel_s[1:]):
        factor = calibration.REFERENCE_S / (0.5 * (k_a + k_b))
        total += (t_b - t_a) * factor
        scaled += [t * factor for t in latencies[n_a:n_b]]
    return total, scaled


def _setup_sample(args, tmp, tag):
    """Set-up seconds of one fresh launch, raw and in reference seconds:
    scaled by the calibration kernel's time in the launched process, just
    after its set-up."""
    import calibration

    sample = _launch(args, "setup", tmp, tag)
    return sample["setup_s"] * calibration.REFERENCE_S / sample["kernel_s"], sample["setup_s"]


def _summarise(outcomes):
    """Totals over outcomes. A run is correct when every value was checked;
    the values that failed the check are counted in `failed`, not here."""
    failures = [f for o in outcomes for f in o["failed"]]
    unchecked = sum(o["ref_errors"] + o["malformed"] for o in outcomes)
    attempted = sum(o["values"] for o in outcomes)
    info = {
        "failed_frac": len(failures) / attempted if attempted else 0.0,
        "failed_silently": sum(o["silent"] for o in outcomes),
        "unchecked": unchecked,
        "verify_worst_dev": max((o["worst_dev"] for o in outcomes), default=0.0),
    }
    return attempted, failures, unchecked == 0 and attempted > 0, info


def _end_to_end(args, tmp):
    setups = [_setup_sample(args, tmp, f"setup{i}") for i in range(SETUP_SAMPLES)]
    run = _launch(args, "run", tmp, "run")
    records = _records(args, run["blocks"], run["results"])
    attempted, failures, correct, checks = _summarise(_verify(args.workload, records, tmp))
    import verify
    import workloads

    raw_latencies = workloads.read_column(run["latency_file"], "d")
    ref_phase_s, ref_latencies = _reference_times(run, raw_latencies)
    lat_ms = sorted(1e3 * t for t in ref_latencies)
    raw_ms = sorted(1e3 * t for t in raw_latencies)
    p99 = _percentile(lat_ms, 99)
    verified = attempted - len(failures)
    metrics = {
        "setup_s": statistics.median(s for s, _ in setups),
        "values_per_s": verified / ref_phase_s,
        "call_ms_p50": statistics.median(lat_ms),
        "call_ms_p99": p99,
        "verified_frac": verified / attempted,
        "peak_rss_mb": run["peak_rss_kb"] / 1024.0,
    }
    info = {
        "known_defects": verify.known_defects(args.workload),
        "setup_samples_s": [s for s, _ in setups],
        "raw_setup_samples_s": [raw for _, raw in setups], "blocks": run["blocks"],
        "reference_s_per_s": ref_phase_s / run["phase_s"],
        "calibrations": len(run["calibrations"]),
        "raw_phase_s": run["phase_s"], "raw_values_per_s": verified / run["phase_s"],
        "raw_call_ms_p50": statistics.median(raw_ms), "raw_call_ms_p99": _percentile(raw_ms, 99),
        "call_samples": len(lat_ms),
        "call_samples_beyond_p99": sum(1 for t in lat_ms if t > p99),
        **checks,
    }
    return metrics, END_TO_END_UNITS, attempted, failures, correct, info


def _per_layer(args, tmp, spans_path):
    imports = _import_times()
    run = _launch(args, "trace", tmp, "trace", spans=spans_path)
    records = _records(args, run["traced"]["blocks"], run["results"])
    attempted, failures, correct, checks = _summarise(_verify(args.workload, records, tmp))
    same = _same_outputs(args.workload, run["untraced_results"], run["results"])
    traced, plain = run["traced"], run["untraced"]
    traced_s = _reference_times(traced)[0]
    scale = traced_s / traced["phase_s"]
    metrics = {name: value * scale if LAYER_UNITS[name] in ("s", "ns") else value
               for name, value in run["layers"].items()}
    metrics["setup.import_s"] = imports["frechet_laplace"]
    metrics["setup.scipy_optimize_s"] = imports["scipy.optimize"]
    metrics["trace.overhead_ratio"] = traced_s / _reference_times(plain)[0]
    metrics["verify.worst_dev"] = checks["verify_worst_dev"]
    info = {
        "raw_traced_phase_s": traced["phase_s"], "raw_untraced_phase_s": plain["phase_s"],
        "reference_s_per_s": scale, "blocks": traced["blocks"], "spans": run["spans"],
        "spans_file": str(spans_path.relative_to(ROOT)),
        "traced_equals_untraced": same, **checks,
    }
    return metrics, LAYER_UNITS, attempted, failures, correct and same, info


def main(argv=None) -> int:
    args = _parse(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: {PACKAGE.relative_to(ROOT)} not found; run from a full checkout "
              "of the repository", file=sys.stderr)
        return 2
    if not args.seconds > 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    os.environ.update({var: "1" for var in BLAS_THREAD_VARS})
    sys.path.insert(0, str(ROOT / "src"))
    RESULTS.mkdir(exist_ok=True)
    tmp = RESULTS / f"tmp-{os.getpid()}"
    tmp.mkdir()
    stem = f"{args.workload}-seed{args.seed}"
    try:
        # an unmeasured launch compiles bytecode and fills the file cache
        _launch(args, "setup", tmp, "prime")
        if args.trace:
            measured = _per_layer(args, tmp, RESULTS / f"{stem}.spans.csv.gz")
        else:
            measured = _end_to_end(args, tmp)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: benchmark process failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    metrics, units, attempted, failures, correct, info = measured

    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    for key, value in info.items():
        if key != "known_defects":
            print(f"  [{key}] {value}")
    defects = info.get("known_defects", [])
    if defects:
        print(f"known defects, outside the workload's inputs and not counted: "
              f"{sum(not d.endswith(': passes now') for d in defects)} of {len(defects)} still fail")
        for line in defects:
            print(f"  KNOWN {line}")
    print(f"failed {len(failures)} of {attempted} values")
    for line in failures[:FAILURES_SHOWN]:
        print(f"  FAILED {line}")
    if len(failures) > FAILURES_SHOWN:
        print(f"  ... {len(failures) - FAILURES_SHOWN} more in the results file")

    result = {"correct": correct, "attempted": attempted, "failed": len(failures),
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    report = dict(result, environment=_environment(args), info=info, failures=failures)
    results_file = RESULTS / f"{stem}-trace{args.trace}.json"
    with open(results_file, "w") as fh:
        json.dump(report, fh, indent=1)
    print(f"results: {results_file.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
