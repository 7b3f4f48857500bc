import importlib
import importlib.util
import math
import subprocess
import sys
from pathlib import Path

import pytest

import frechet_laplace
from frechet_laplace import meijer, mellin
from frechet_laplace.distributions import RationalShape, Shape
from frechet_laplace.ftransform import _HALF_SPEC, frechet_transform_frechet_half
from frechet_laplace.laplace import (LaplaceQuery, Method, laplace_frechet,
                                     laplace_frechet_oracle)


def _load_perfbench(name):
    # perfbench is no package: load a benchmark module by path
    path = Path(__file__).resolve().parent.parent / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_export_resolves():
    missing = [name for name in frechet_laplace.__all__
               if not hasattr(frechet_laplace, name)]
    assert missing == []


def test_import_loads_no_scipy():
    # scipy is a test-only oracle; a fresh interpreter that imports the
    # package must not load any part of it
    src = str(Path(frechet_laplace.__file__).resolve().parent.parent)
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import frechet_laplace; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code, src], capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"


def test_benchmark_trace_targets_resolve():
    # the benchmark's --trace 1 rebinds these functions by name; a rename or
    # deletion in the library must fail here rather than in the benchmark
    tracing = _load_perfbench("tracing")
    unresolved = [(mod, fn) for mod, fn, _, _ in tracing.TARGETS
                  if not callable(getattr(importlib.import_module(f"frechet_laplace.{mod}"),
                                          fn, None))]
    assert tracing.TARGETS and unresolved == []


def _closed_form_contour(l, k, p):
    # the closed form's contour on its collapsed pair, looked up on its
    # module, where the tracer rebinds it
    form = meijer.build_laplace_closed_form(RationalShape(l, k))
    return meijer.meijer_g_m0(form.spec, const=math.log(l), slope=l * math.log(p))


def test_benchmark_tracer_reads_every_layer():
    # the tracer reads the count and converged flag of each traced result
    # (for mellin_barnes_integral, by tuple position); a change of return
    # shape must fail here rather than in the benchmark. The closed form and
    # the half transform take their residue series here, and their contours
    # are called directly.
    tracing = _load_perfbench("tracing")
    original = mellin.mellin_barnes_integral
    tracer = tracing.Tracer()
    tracer.install()
    try:
        laplace_frechet(LaplaceQuery(RationalShape(1, 2), 1.0, Method.MEIJER_G))
        _closed_form_contour(1, 2, 1.0)
        laplace_frechet_oracle(Shape(0.5), 1.0)
        frechet_transform_frechet_half(Shape(1.0), 1.0)
        # the half transform's contour at gamma = 1, x = 1: const = log gamma
        # - (1 + gamma) log x and slope = -gamma log x are both 0
        meijer.meijer_g_m0(_HALF_SPEC, const=0.0, slope=0.0)
    finally:
        tracer.uninstall()
    assert mellin.mellin_barnes_integral is original
    assert all(s[7] != tracing.ERROR for s in tracer.spans)
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["mellin.integrals"] == 2
    assert metrics["mellin.converged_ratio"] == 1
    assert metrics["meijer.calls"] == 2
    assert metrics["numerics.quad.calls"] == 1


def test_benchmark_tracer_sees_the_contour_through_meijer_g():
    # the closed form reaches its contour through meijer.meijer_g, which
    # calls meijer_g_m0 by its module name, where the tracer rebinds it:
    # 1/1 at p = 50 is one contour value and one meijer span
    tracing = _load_perfbench("tracing")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        res = laplace_frechet(LaplaceQuery(RationalShape(1, 1), 50.0, Method.MEIJER_G))
    finally:
        tracer.uninstall()
    assert res.route == "contour" and res.converged
    assert [s[3] for s in tracer.spans].count("meijer") == 1
    assert tracing.layer_metrics(tracer.spans)["meijer.calls"] == 1


@pytest.mark.parametrize("l,k,p", [(1, 1, 1.0), (2, 3, 0.05), (4, 1, 19.8), (1, 30, 3.0)])
def test_benchmark_tracer_sees_one_log_gamma_per_integral(l, k, p, monkeypatch):
    # the per-layer metrics read log_gamma through its traced name: a contour
    # value on the closed-form grid is one contour integral, and its band's
    # path, when its nodes are built, one log_gamma call on the n_half + 1
    # upper nodes of its window (n_half = 2 ceil(window / 2 step)), for both
    # runs; a value on built nodes calls none
    tracing = _load_perfbench("tracing")
    paths, init = [], mellin.ContourPath.__init__

    def spy(self, *args):
        init(self, *args)
        paths.append(self)

    monkeypatch.setattr(mellin.ContourPath, "__init__", spy)
    meijer.MeijerSpec._band_table.cache_clear()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        res = _closed_form_contour(l, k, p)
        again = _closed_form_contour(l, k, p * (1.0 + 1e-9))
    finally:
        tracer.uninstall()
    assert res.converged and again.converged
    assert len(paths) == 1
    n_half = 2 * math.ceil(paths[0].window / (2.0 * paths[0].step))
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["mellin.integrals"] == 2
    assert metrics["numerics.log_gamma.calls"] == 1
    assert metrics["numerics.log_gamma.elems"] == 2 * (n_half + 1)
    assert metrics["mellin.nodes_per_integral"] == res.evaluations == again.evaluations
    assert res.evaluations <= 2 * n_half + 1


@pytest.mark.parametrize("gamma", [0.1, 0.5, 1.98])
@pytest.mark.parametrize("p", [1e-4, 1.0, 10.0])
def test_benchmark_mellin_reference_matches_oracle(gamma, p):
    # oracle-sweep checks the oracle against laplace_via_mellin through this
    # route; an engine change that breaks it must fail here rather than as
    # incorrect outputs in the benchmark
    verify = _load_perfbench("verify")
    ref = laplace_frechet_oracle(Shape(gamma), p).value
    assert abs(verify._mellin_reference(gamma, p) - ref) <= verify.REL_TOL * max(1.0, abs(ref))
