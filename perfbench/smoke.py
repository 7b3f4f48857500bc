"""Smoke test of the benchmark itself, at a tiny size (about a minute):

    python3 perfbench/smoke.py

1. every metric in BENCHMARK.json is printed with its unit, on every workload;
2. the same seed gives identical inputs;
3. a different seed gives different inputs;
4. verification flags a deliberately perturbed value;
5. every input drawn lies in the domain that domain.py checks;
and run.py refuses, without a result, to run where the library is missing.
Exits 0 when every check passes.
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(PERF))

import verify  # noqa: E402
import workloads  # noqa: E402

SCRATCH = ROOT / ".perfbench_results" / "smoke"


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def check_metrics_printed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    runs = [(w, "0", spec["end_to_end"]) for w in workloads.WORKLOADS]
    runs.append(("cli-batch", "1", spec["per_layer"]))
    for workload, trace, wanted in runs:
        proc = _run(["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace])
        if proc.returncode != 0:
            problems.append(f"{workload} trace={trace}: exit {proc.returncode}: {proc.stderr[-500:]}")
            continue
        lines = proc.stdout.splitlines()
        result = json.loads(lines[-1])
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            problems.append(f"{workload}: result keys {sorted(result)}")
        if set(result["metrics"]) != {m["name"] for m in wanted}:
            problems.append(f"{workload} trace={trace}: metric names differ from BENCHMARK.json")
        for m in wanted:
            got = result["metrics"].get(m["name"], {})
            if got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
                problems.append(f"{workload}: {m['name']} printed as {got}")
            if not any(line.strip().startswith(f"{m['name']} = ") and line.endswith(f" {m['unit']}")
                       for line in lines):
                problems.append(f"{workload}: no readable line for {m['name']}")
    return not problems, "; ".join(problems) or "all metrics printed with units"


def check_same_seed_same_inputs():
    same = all(workloads.make_block(w, 7, i) == workloads.make_block(w, 7, i)
               for w in workloads.WORKLOADS for i in range(3))
    return same, "blocks 0-2 repeat for seed 7"


def check_other_seed_other_inputs():
    differ = all(workloads.make_block(w, 7, 0) != workloads.make_block(w, 8, 0)
                 for w in workloads.WORKLOADS)
    return differ, "seeds 7 and 8 give different block 0"


def check_inputs_in_domain():
    inside = all(set(workloads.replay(w, seed, 20)) <= set(workloads.domain(w))
                 for w in workloads.WORKLOADS for seed in (7, 8))
    return inside, "blocks 0-19 of seeds 7 and 8"


def check_perturbed_value_flagged():
    from frechet_laplace import cli, laplace
    from frechet_laplace.distributions import RationalShape, Shape

    flagged = []
    q = laplace.LaplaceQuery(RationalShape(2, 3), 0.7, laplace.Method.MEIJER_G)
    good = laplace.laplace_frechet(q).value
    for workload, item, value in (
            ("closed-form-grid", (2, 3, 0.7), good),
            ("oracle-sweep", (1.5, 0.7), laplace.laplace_frechet_oracle(Shape(1.5), 0.7).value)):
        ref = verify.reference(workload, item)
        exact = verify.check_call(workload, {"input": item, "value": value,
                                             "converged": True, "error": None}, ref)
        bent = verify.check_call(workload, {"input": item, "value": value * (1 + 1e-6),
                                            "converged": True, "error": None}, ref)
        flagged.append(not exact["failed"] and bent["silent"] == 1)

    SCRATCH.mkdir(parents=True, exist_ok=True)
    path = SCRATCH / "fig1.csv"
    with redirect_stdout(io.StringIO()):
        cli.main(["figure", "--id", "fig1", "--out", str(path), "--points", "3"])
    rec = {"input": ("figure", "fig1", 3), "csv": str(path), "exit": 0, "error": None}
    exact = verify.check_figure(rec)
    lines = path.read_text().splitlines()
    cells = lines[2].split(",")
    cells[2] = repr(float(cells[2]) + 1e-6)
    lines[2] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    bent = verify.check_figure(rec)
    flagged.append(not exact["failed"] and bent["silent"] == 1)
    return all(flagged), f"flagged per route (Meijer, oracle, fig1 CSV): {flagged}"


def check_refuses_without_library():
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(PERF, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "oracle-sweep", "--seed", "1", "--seconds", "1"], cwd=bare)
    printed_result = proc.stdout.strip().startswith("{") or '"correct"' in proc.stdout
    return proc.returncode != 0 and not printed_result, f"exit {proc.returncode}"


CHECKS = [check_metrics_printed, check_same_seed_same_inputs,
          check_other_seed_other_inputs, check_inputs_in_domain,
          check_perturbed_value_flagged, check_refuses_without_library]


def main() -> int:
    ok_all = True
    try:
        for check in CHECKS:
            ok, detail = check()
            ok_all = ok_all and ok
            print(f"{'PASS' if ok else 'FAIL'} {check.__name__} ({detail})")
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    return 0 if ok_all else 1


if __name__ == "__main__":
    sys.exit(main())
