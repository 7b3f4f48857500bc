"""Span tracing from outside the library.

Each traced public function is wrapped once and the wrapper is bound in
place of the original in every frechet_laplace module that imported it by
name, so calls between the library's own modules are recorded too. A span
is (call id, parent id, operation id, kind, start, end, count, flag); spans
stay in memory until the run ends.
"""

from __future__ import annotations

import gzip
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# (defining module, function, span kind, what count and flag record)
TARGETS = [
    ("numerics", "log_gamma", "log_gamma", "elems"),
    ("numerics", "integrate_semi_infinite", "quad", "result"),
    ("mellin", "mellin_barnes_integral", "mellin", "tuple"),
    ("meijer", "meijer_g_m0", "meijer", "result"),
    ("laplace", "laplace_frechet", "laplace", "method"),
    ("laplace", "laplace_frechet_oracle", "oracle", "result"),
    ("ftransform", "frechet_transform_frechet_half", "half", "result"),
    ("distributions", "find_maximum", "find_maximum", "none"),
]

ERROR = -1


def _count_and_flag(how, args, result):
    if how == "elems":
        return int(np.size(args[0])), 1
    if how == "result":
        return result.evaluations, int(result.converged)
    if how == "tuple":
        return result[2], int(result[3])
    if how == "method":
        return 0, int(args[0].method.name == "AUTO")
    return 0, 1


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._stack = [0]
        self._next_id = 1
        self.op_id = 0
        self._undo: list[tuple] = []

    def _wrap(self, fn, kind, how):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            cid = self._next_id
            self._next_id = cid + 1
            parent = stack[-1]
            stack.append(cid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans.append((cid, parent, self.op_id, kind, t0, clock(), 0, ERROR))
                raise
            finally:
                stack.pop()
            t1 = clock()
            count, flag = _count_and_flag(how, args, result)
            spans.append((cid, parent, self.op_id, kind, t0, t1, count, flag))
            return result

        return wrapper

    @contextmanager
    def span(self, kind):
        """A span the benchmark itself opens around one of its operations."""
        cid = self._next_id
        self._next_id = cid + 1
        parent = self._stack[-1]
        self._stack.append(cid)
        t0, flag = time.perf_counter(), 1
        try:
            yield
        except BaseException:
            flag = ERROR
            raise
        finally:
            self._stack.pop()
            self.spans.append((cid, parent, self.op_id, kind, t0, time.perf_counter(), 0, flag))

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "frechet_laplace"
                                         or name.startswith("frechet_laplace."))]
        for mod_name, fn_name, kind, how in TARGETS:
            original = getattr(sys.modules[f"frechet_laplace.{mod_name}"], fn_name)
            wrapper = self._wrap(original, kind, how)
            for mod in modules:
                if getattr(mod, fn_name, None) is original:
                    setattr(mod, fn_name, wrapper)
                    self._undo.append((mod, fn_name, original))

    def uninstall(self) -> None:
        for mod, fn_name, original in reversed(self._undo):
            setattr(mod, fn_name, original)
        self._undo.clear()

    def write(self, path) -> None:
        with gzip.open(path, "wt") as fh:
            fh.write("call_id,parent_id,op_id,kind,start_s,end_s,count,flag\n")
            for s in self.spans:
                fh.write(f"{s[0]},{s[1]},{s[2]},{s[3]},{s[4]!r},{s[5]!r},{s[6]},{s[7]}\n")


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans) -> dict:
    """Per-layer counts, busy times and ratios from a list of spans.

    Busy time of a kind is the sum of its spans, less the calibration runs
    inside them; no traced function calls itself, so spans of one kind never
    nest. Self time subtracts all direct children.
    """
    by_kind = defaultdict(list)
    children = defaultdict(list)
    kind_of = {}
    for s in spans:
        by_kind[s[3]].append(s)
        children[s[1]].append(s)
        kind_of[s[0]] = (s[3], s[7])

    def busy(kind):
        return sum(s[5] - s[4] - sum(c[5] - c[4] for c in children[s[0]]
                                     if c[3] == "calibration")
                   for s in by_kind[kind])

    def total(kind, col):
        return sum(s[col] for s in by_kind[kind])

    def self_time(kind, child_kinds=None):
        out = 0.0
        for s in by_kind[kind]:
            kids = sum(c[5] - c[4] for c in children[s[0]]
                       if child_kinds is None or c[3] in child_kinds)
            out += (s[5] - s[4]) - kids
        return out

    def converged_ratio(kind):
        return _ratio(sum(1 for s in by_kind[kind] if s[7] == 1), len(by_kind[kind]))

    m = {}
    lg_calls, lg_elems, lg_s = len(by_kind["log_gamma"]), total("log_gamma", 6), busy("log_gamma")
    m["numerics.log_gamma.calls"] = lg_calls
    m["numerics.log_gamma.elems"] = lg_elems
    m["numerics.log_gamma.elems_per_call"] = _ratio(lg_elems, lg_calls)
    m["numerics.log_gamma.s"] = lg_s
    m["numerics.log_gamma.ns_per_elem"] = _ratio(lg_s * 1e9, lg_elems)

    q_calls = len(by_kind["quad"])
    m["numerics.quad.calls"] = q_calls
    m["numerics.quad.evals_per_call"] = _ratio(total("quad", 6), q_calls)
    m["numerics.quad.s"] = busy("quad")
    m["numerics.quad.converged_ratio"] = converged_ratio("quad")

    n_int = len(by_kind["mellin"])
    m["mellin.integrals"] = n_int
    m["mellin.s"] = busy("mellin")
    m["mellin.nodes_per_integral"] = _ratio(total("mellin", 6), n_int)
    m["mellin.converged_ratio"] = converged_ratio("mellin")

    meijer_s = busy("meijer")
    meijer_self = self_time("meijer", {"mellin"})
    m["meijer.calls"] = len(by_kind["meijer"])
    m["meijer.s"] = meijer_s
    m["meijer.self_s"] = meijer_self
    m["meijer.self_share"] = _ratio(meijer_self, meijer_s)

    auto_calls = sum(1 for s in by_kind["laplace"] if s[7] == 1)
    fallbacks = sum(1 for s in by_kind["oracle"]
                    if kind_of.get(s[1]) == ("laplace", 1))
    m["laplace.calls"] = len(by_kind["laplace"])
    m["laplace.s"] = busy("laplace")
    m["laplace.oracle.calls"] = len(by_kind["oracle"])
    m["laplace.oracle.s"] = busy("oracle")
    m["laplace.auto_fallback_ratio"] = _ratio(fallbacks, auto_calls)

    m["ftransform.half.calls"] = len(by_kind["half"])
    m["ftransform.half.s"] = busy("half")
    m["distributions.find_maximum.calls"] = len(by_kind["find_maximum"])
    m["distributions.find_maximum.s"] = busy("find_maximum")

    figure_self = 0.0
    for fig in ("fig1", "fig2", "fig3", "fig4"):
        m[f"cli.{fig}_s"] = busy(f"cli.{fig}")
        figure_self += self_time(f"cli.{fig}")
    m["cli.selfcheck_s"] = busy("cli.selfcheck")
    m["cli.self_s"] = figure_self
    return m
