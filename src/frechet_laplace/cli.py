"""Command-line surface: point evaluations, CSV grid emission for the four
reference figures, moment/transform wrappers, and the self-check suite.

No plotting backend: the figure commands emit data only, as CSV with a header
row, comma separators, 17 significant digits and LF line endings (lossless
for binary64, byte-identical across runs given identical flags).
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from . import selfcheck
from .distributions import (LevyIndex, RationalShape, Shape, frechet_mode,
                            frechet_moment, frechet_pdf, levy_asymptotic,
                            levy_asymptotic_mode, levy_asymptotic_rescaled,
                            levy_moment)
from .errors import DomainError, FrechetLaplaceError
from .ftransform import frechet_transform_frechet_half, frechet_transform_levy
from .laplace import LaplaceQuery, Method, laplace_frechet

_FIG_RANGES = {
    "fig1": "p linear on [0.01, 10], curves L(l, 4) for l = 1..4",
    "fig2": "p log-spaced on [0.01, 100], curves L(l, 1) for l = 1..3",
    "fig3": "x on (0, 10], transform of Fr(1/2) through the gamma = 1/3 kernel",
    "fig4": "x on (0, 3], reduced small-x asymptotic vs reduced Frechet "
            "for (alpha = 1/2, gamma = 1) and (alpha = 1/4, gamma = 1/3)",
}


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad arguments; the CLI contract reserves 2 for
    # non-convergence, so remap argument errors to exit code 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def _cmd_laplace(args) -> int:
    shape = RationalShape(args.l, args.k)
    methods = {
        "meijer": [Method.MEIJER_G],
        "quadrature": [Method.QUADRATURE],
        "auto": [Method.AUTO],
        "both": [Method.MEIJER_G, Method.QUADRATURE],
    }[args.method]

    results = []
    for m in methods:
        res = laplace_frechet(LaplaceQuery(shape, args.p, m))
        results.append((m, res))
        print(f"{m.value} value={_fmt(res.value)} err={res.err_estimate:.3g}")
    if len(results) == 2:
        a, b = results[0][1].value, results[1][1].value
        print(f"rel_diff={abs(a - b) / max(1.0, abs(b)):.3g}")
    if not all(res.converged for _, res in results):
        print("warning: not converged to target tolerance", file=sys.stderr)
        return 2
    return 0


# Laplace-transform figures: p grid spacing, its upper end (from p = 0.01),
# the number of curves l = 1..n, and their common k.
_LAPLACE_FIGURES = {
    "fig1": (np.linspace, 10.0, 4, 4),
    "fig2": (np.geomspace, 100.0, 3, 1),
}


def _figure_rows(figure_id: str, points: int):
    if figure_id in _LAPLACE_FIGURES:
        spacing, p_max, curves, k = _LAPLACE_FIGURES[figure_id]
        header = ["p"] + [f"L_l{l}_k{k}" for l in range(1, curves + 1)]
        shapes = [RationalShape(l, k) for l in range(1, curves + 1)]
        for p in spacing(0.01, p_max, points):
            row = [float(p)] + [
                laplace_frechet(LaplaceQuery(s, float(p), Method.AUTO)).value
                for s in shapes]
            yield header, row
    elif figure_id == "fig3":
        header = ["x", "transform_frechet_half_gamma_1_3"]
        gamma = Shape(1.0 / 3.0)
        for i in range(1, points + 1):
            x = 10.0 * i / points
            yield header, [x, frechet_transform_frechet_half(gamma, x).value]
    elif figure_id == "fig4":
        header = ["x",
                  "reduced_asym_alpha_1_2", "reduced_frechet_gamma_1",
                  "reduced_asym_alpha_1_4", "reduced_frechet_gamma_1_3"]
        xs = [3.0 * i / points for i in range(1, points + 1)]
        columns = [xs]
        for alpha, gam in ((LevyIndex(0.5), Shape(1.0)), (LevyIndex(0.25), Shape(1.0 / 3.0))):
            ga_max = levy_asymptotic(alpha, levy_asymptotic_mode(alpha))
            fr_max = frechet_pdf(gam, frechet_mode(gam))
            # the density column in one array call
            columns += [[levy_asymptotic_rescaled(gam, x) / ga_max for x in xs],
                        (frechet_pdf(gam, np.array(xs)) / fr_max).tolist()]
        for row in zip(*columns):
            yield header, list(row)
    else:  # pragma: no cover - argparse choices guard this
        raise ValueError(f"unknown figure id {figure_id}")


def _cmd_figure(args) -> int:
    if args.points < 2:
        raise DomainError(f"--points must be >= 2, got {args.points}")
    rows = _figure_rows(args.id, args.points)
    try:
        with open(args.out, "w", newline="\n") as fh:
            header_written = False
            for header, row in rows:
                if not header_written:
                    fh.write(",".join(header) + "\n")
                    header_written = True
                fh.write(",".join(_fmt(v) for v in row) + "\n")
    except OSError as exc:
        print(f"error writing {args.out}: {exc}", file=sys.stderr)
        return 3
    print(args.out)
    return 0


def _cmd_moment(args) -> int:
    name = "gamma" if args.dist == "frechet" else "alpha"
    if getattr(args, name) is None:
        args.parser.error(f"moment {args.dist} requires --{name}")
    if args.dist == "frechet":
        value = frechet_moment(Shape(args.gamma), args.mu)
    else:
        value = levy_moment(LevyIndex(args.alpha), args.mu)
    print(_fmt(value))
    return 0


def _cmd_transform(args) -> int:
    if args.kind == "levy":
        value = frechet_transform_levy(LevyIndex(args.alpha),
                                       Shape(args.gamma), args.x)
        print(_fmt(value))
    else:
        res = frechet_transform_frechet_half(Shape(args.gamma), args.x)
        print(_fmt(res.value))
        if not res.converged:
            return 2
    return 0


def _cmd_selfcheck(args) -> int:
    if args.list:
        for name in selfcheck.list_checks():
            print(name)
        return 0
    ok = selfcheck.run_checks()
    print("all checks passed" if ok else "some checks FAILED")
    return 0 if ok else 2


# one parser per process: a parse leaves its state in its Namespace alone
@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="frechet-laplace",
                     description="Laplace transform of the Frechet distribution "
                                 "and the Frechet integral transform")
    sub = parser.add_subparsers(dest="command", required=True)

    p_lap = sub.add_parser("laplace", help="evaluate L[Fr(l/k, x); p]")
    p_lap.add_argument("--l", type=int, required=True, help="shape numerator")
    p_lap.add_argument("--k", type=int, required=True, help="shape denominator")
    p_lap.add_argument("--p", type=float, required=True, help="Laplace variable, > 0")
    p_lap.add_argument("--method", choices=["meijer", "quadrature", "auto", "both"],
                       default="auto")
    p_lap.set_defaults(fn=_cmd_laplace, parser=p_lap)

    p_fig = sub.add_parser("figure", help="emit figure data as CSV")
    p_fig.add_argument("--id", choices=sorted(_FIG_RANGES), required=True,
                       help="; ".join(f"{k}: {v}" for k, v in sorted(_FIG_RANGES.items())))
    p_fig.add_argument("--out", required=True, help="output CSV path")
    p_fig.add_argument("--points", type=int, default=400)
    p_fig.set_defaults(fn=_cmd_figure, parser=p_fig)

    p_mom = sub.add_parser("moment", help="power moments")
    p_mom.add_argument("dist", choices=["frechet", "levy"])
    p_mom.add_argument("--gamma", type=float, help="Frechet shape")
    p_mom.add_argument("--alpha", type=float, help="Levy index")
    p_mom.add_argument("--mu", type=float, required=True, help="moment order")
    p_mom.set_defaults(fn=_cmd_moment, parser=p_mom)

    p_tr = sub.add_parser("transform", help="Frechet-transform closed forms")
    p_tr.add_argument("kind", choices=["levy", "frechet-half"])
    p_tr.add_argument("--alpha", type=float, default=0.5)
    p_tr.add_argument("--gamma", type=float, required=True)
    p_tr.add_argument("--x", type=float, required=True)
    p_tr.set_defaults(fn=_cmd_transform, parser=p_tr)

    p_check = sub.add_parser("selfcheck", help="run the built-in invariant suite")
    p_check.add_argument("--list", action="store_true",
                         help="print check names without running")
    p_check.set_defaults(fn=_cmd_selfcheck, parser=p_check)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except FrechetLaplaceError as exc:
        # the one place a library error becomes exit 1
        print(f"error: {exc}", file=sys.stderr)
        args.parser.print_usage(sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
