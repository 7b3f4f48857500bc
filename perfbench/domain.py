"""Checks every input a workload can draw, for any seed, against its
independent route, the way a run checks the inputs it drew:

    python3 perfbench/domain.py [--workload W] [--processes N]

Without --workload it checks all three workloads. The inputs are split over
N processes (default 2). Exits 0 when no input fails. On two cores it takes
about a minute.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(PERF))

import workloads  # noqa: E402
from run import BLAS_THREAD_VARS  # noqa: E402


def check_part(workload: str, part: int, parts: int, out_dir: Path) -> list[str]:
    """Failures among every parts-th input of the domain, from `part` on."""
    import verify

    items = workloads.domain(workload)[part::parts]
    runner = workloads.Runner(workload, out_dir)
    results = runner.new_phase(f"part{part}")
    for item in items:
        runner.op(item, results)
    if workload == "cli-batch":
        outcomes = verify.check_commands(results)
    else:
        results.spill()
        values = workloads.read_column(results.values.path, "d")
        converged = workloads.read_column(results.converged.path, "B")
        refs = verify.references(workload, items)
        outcomes = [verify.check_call(workload, {"input": item, "value": v, "converged": bool(c),
                                                 "error": results.errors.get(i)}, *ref)
                    for i, (item, v, c, ref) in enumerate(zip(items, values, converged, refs))]
    return [f for o in outcomes for f in o["failed"]]


def check_domain(workload: str, processes: int, tmp: Path) -> tuple[int, list[str]]:
    env = dict(os.environ, **{var: "1" for var in BLAS_THREAD_VARS})
    outs = [tmp / f"{workload}-part{i}.json" for i in range(processes)]
    procs = [subprocess.Popen([sys.executable, str(PERF / "domain.py"), "--workload", workload,
                               "--part", str(i), "--processes", str(processes),
                               "--out", str(out)], cwd=ROOT, env=env)
             for i, out in enumerate(outs)]
    try:
        codes = [proc.wait() for proc in procs]
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if any(codes):
        raise RuntimeError(f"{workload}: a checking process exited with {codes}")
    failures = [f for out in outs for f in json.loads(out.read_text())]
    return len(workloads.domain(workload)), failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--processes", type=int, default=2)
    ap.add_argument("--part", type=int, help=argparse.SUPPRESS)
    ap.add_argument("--out", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.processes < 1:
        ap.error("--processes must be at least 1")
    tmp = ROOT / ".perfbench_results" / f"domain-{os.getpid()}"
    tmp.mkdir(parents=True)
    try:
        if args.part is not None:
            failures = check_part(args.workload, args.part, args.processes, tmp)
            Path(args.out).write_text(json.dumps(failures))
            return 0
        ok = True
        for workload in [args.workload] if args.workload else workloads.WORKLOADS:
            n, failures = check_domain(workload, args.processes, tmp)
            ok = ok and not failures
            print(f"{workload}: {n} inputs, {len(failures)} values failed")
            for line in failures:
                print(f"  FAILED {line}")
        return 0 if ok else 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
