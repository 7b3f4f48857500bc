"""Independent-route checks of every value a timed phase produced.

closed-form-grid  Meijer-G values against the quadrature oracle.
oracle-sweep      quadrature values against laplace_via_mellin on the
                  Mellin image f*(s) = Gamma(1 + (1 - s)/gamma).
cli-batch         fig1/fig2 against the oracle, fig3 against
                  frechet_transform_quadrature, fig4 against the closed-form
                  modes of both curves, selfcheck by its exit code.

A value fails when its call raised, returned converged=False or missed the
reference by more than the tolerance. Failures are counted and listed; the
ones that claimed convergence are also counted as `silent`. A run is not
correct when a value could not be checked at all: the reference raised, or
a CSV has the wrong shape or grid (`malformed`).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import frechet_laplace as fl  # noqa: E402
from frechet_laplace import selfcheck  # noqa: E402

REL_TOL = 1e-8      # times max(1, |ref|): Laplace values, closed form and oracle
FIG3_ABS_TOL = 1e-6  # Meijer closed form against direct quadrature of the transform
FIG4_REL_TOL = 1e-9  # golden-section peaks against closed-form modes

# Inputs that failed when this benchmark was written, outside the inputs the
# workloads draw (workloads.py says why). Each run checks them once, after
# its measurement, and reports which still fail; they count in no metric.
KNOWN_DEFECTS = {
    "closed-form-grid": [(13, 11, 0.01), (30, 1, 0.01), (30, 1, 0.1)],
    "oracle-sweep": [(2.2109803022429606, 0.00012436407299591009),
                     (2.0272198301822915, 0.1737428718976487),
                     (3.0208541317800681, 0.00044846865214826951),
                     (4.2364205068481224, 0.016181765991428801),
                     (0.40942889506850444, 19.975876058391336)],
    "cli-batch": [],
}


def _dev(value, ref):
    return abs(value - ref) / max(1.0, abs(ref))


def _outcome(values=1):
    return {"values": values, "failed": [], "silent": 0, "malformed": 0,
            "worst_dev": 0.0, "ref_errors": 0}


def _mellin_reference(gamma, p):
    image = fl.MellinFunction(
        f_star=lambda s: np.exp(fl.log_gamma(1.0 + (1.0 - np.asarray(s, dtype=complex)) / gamma)),
        domain_strip=(-math.inf, 1.0 + gamma))
    return fl.laplace_via_mellin(image, p).value


def reference(workload, item):
    if workload == "closed-form-grid":
        l, k, p = item
        return fl.laplace_frechet_oracle(fl.Shape(l / k), p).value
    gamma, p = item
    return _mellin_reference(gamma, p)


def references(workload, items):
    """Reference value, or the error it raised, for each distinct input."""
    out = []
    for item in items:
        try:
            out.append((reference(workload, item), None))
        except Exception as exc:  # an unverifiable value must not stop the run
            out.append((None, f"{type(exc).__name__}: {exc}"))
    return out


def label(workload, item):
    if workload == "closed-form-grid":
        l, k, p = item
        return f"{l}/{k} p={p:.17g}"
    if workload == "oracle-sweep":
        gamma, p = item
        return f"gamma={gamma:.17g} p={p:.17g}"
    return " ".join(str(v) for v in item)


def check_call(workload, rec, ref, ref_error=None):
    out = _outcome()
    name = label(workload, rec["input"])
    if ref_error is not None:
        out["ref_errors"] = 1
        out["failed"].append(f"{name}: reference raised {ref_error}")
        return out
    if rec["error"] is not None:
        out["failed"].append(f"{name}: raised {rec['error']}")
        return out
    dev = _dev(rec["value"], ref)
    if not rec["converged"]:
        out["failed"].append(f"{name}: converged=False value={rec['value']!r} "
                             f"ref={ref!r} dev={dev:.3g}")
        return out
    out["worst_dev"] = dev
    if not dev <= REL_TOL:
        out["silent"] = 1
        out["failed"].append(f"{name}: converged=True value={rec['value']!r} "
                             f"ref={ref!r} dev={dev:.3g}")
    return out


def known_defects(workload):
    """One line per input of KNOWN_DEFECTS[workload]: how it fails, or that
    it passes now."""
    lines = []
    for item in KNOWN_DEFECTS[workload]:
        try:
            if workload == "closed-form-grid":
                l, k, p = item
                res = fl.laplace_frechet(fl.LaplaceQuery(fl.RationalShape(l, k), p,
                                                         fl.Method.MEIJER_G))
            else:
                res = fl.laplace_frechet_oracle(fl.Shape(item[0]), item[1])
            rec = {"input": item, "value": res.value, "converged": res.converged, "error": None}
        except Exception as exc:  # a raising call is one way to fail
            rec = {"input": item, "value": math.nan, "converged": False,
                   "error": f"{type(exc).__name__}: {exc}"}
        out = check_call(workload, rec, *references(workload, [item])[0])
        lines += out["failed"] or [f"{label(workload, item)}: passes now"]
    return lines


def _fig_grid(fig, points):
    if fig == "fig1":
        return np.linspace(0.01, 10.0, points)
    if fig == "fig2":
        return np.geomspace(0.01, 100.0, points)
    span = 10.0 if fig == "fig3" else 3.0
    return np.array([span * i / points for i in range(1, points + 1)])


def _fig4_columns():
    cols = []
    for alpha, g in ((0.5, 1.0), (0.25, 1.0 / 3.0)):
        shape = fl.Shape(g)
        beta = alpha / (1.0 - alpha)
        q = (2.0 - alpha) / (2.0 - 2.0 * alpha)
        amp = (1.0 - alpha) * alpha ** beta
        t_mode = (amp * beta / q) ** (1.0 / beta)
        x_mode = (g / (1.0 + g)) ** (1.0 / g)
        asym_peak = fl.levy_asymptotic(fl.LevyIndex(alpha), t_mode)
        pdf_peak = fl.frechet_pdf(shape, x_mode)
        cols.append(lambda x, s=shape, m=asym_peak: fl.levy_asymptotic_rescaled(s, x) / m)
        cols.append(lambda x, s=shape, m=pdf_peak: fl.frechet_pdf(s, x) / m)
    return cols


def _fig_columns(fig):
    """(reference function of the grid value, deviation, tolerance) per column."""
    if fig in ("fig1", "fig2"):
        ls, k = (range(1, 5), 4) if fig == "fig1" else (range(1, 4), 1)
        return [(lambda p, g=l / k: fl.laplace_frechet_oracle(fl.Shape(g), p).value,
                 _dev, REL_TOL) for l in ls]
    if fig == "fig3":
        target = fl.TransformTarget(f=lambda u: fl.frechet_pdf(fl.Shape(0.5), u))
        gamma = fl.Shape(1.0 / 3.0)
        return [(lambda x: fl.frechet_transform_quadrature(target, gamma, x).value,
                 lambda v, r: abs(v - r), FIG3_ABS_TOL)]
    return [(f, _dev, FIG4_REL_TOL) for f in _fig4_columns()]


def check_figure(rec):
    _, fig, points = rec["input"]
    columns = _fig_columns(fig)
    out = _outcome(points * len(columns))
    name = label("cli-batch", rec["input"])
    if rec["error"] is not None or rec["exit"] != 0:
        out["failed"] = [f"{name}: exit={rec['exit']} error={rec['error']}"] * out["values"]
        return out
    with open(rec["csv"], newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    grid = _fig_grid(fig, points)
    if len(rows) != points or any(len(r) != len(columns) + 1 for r in rows):
        out["malformed"] = 1
        out["failed"] = [f"{name}: CSV has the wrong shape"] * out["values"]
        return out
    for row, x in zip(rows, grid):
        xv = float(row[0])
        if not abs(xv - x) <= 1e-12 * abs(x):
            out["malformed"] += 1
            out["failed"].append(f"{name}: grid value {xv!r}, expected {x!r}")
            continue
        for (ref_fn, dev_fn, tol), cell in zip(columns, row[1:]):
            value = float(cell)
            ref = ref_fn(xv)
            dev = dev_fn(value, ref)
            out["worst_dev"] = max(out["worst_dev"], dev)
            if not dev <= tol:
                out["silent"] += 1
                out["failed"].append(f"{name} x={xv!r}: value={value!r} ref={ref!r} "
                                     f"dev={dev:.3g} tol={tol:g}")
    return out


def check_selfcheck(rec):
    n = len(selfcheck.list_checks())
    out = _outcome(n)
    lines = rec["stdout"].splitlines()
    passed = sum(1 for line in lines if line.startswith("PASS "))
    if rec["error"] is None and rec["exit"] == 0 and passed == n:
        return out
    fails = [line for line in lines if line.startswith("FAIL ")]
    detail = fails or [f"selfcheck exit={rec['exit']} error={rec['error']}"]
    out["failed"] = [f"selfcheck: {d}" for d in detail]
    out["failed"] += ["selfcheck: check did not pass"] * max(0, n - passed - len(out["failed"]))
    return out


def check_commands(records):
    """Outcome of each CLI command record."""
    return [check_selfcheck(r) if r["input"][0] == "selfcheck" else check_figure(r)
            for r in records]


def main(argv=None) -> int:
    """Run one verification job: `references` for distinct call inputs, or
    `commands` for CLI command records. Reads and writes JSON files."""
    ap = argparse.ArgumentParser()
    ap.add_argument("--job", required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    with open(args.job) as fh:
        job = json.load(fh)
    if job["kind"] == "references":
        result = references(job["workload"], [tuple(item) for item in job["items"]])
    else:
        result = check_commands(job["items"])
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
