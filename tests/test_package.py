import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import frechet_laplace
from frechet_laplace import mellin
from frechet_laplace.distributions import RationalShape, Shape
from frechet_laplace.ftransform import frechet_transform_frechet_half
from frechet_laplace.laplace import (LaplaceQuery, Method, laplace_frechet,
                                     laplace_frechet_oracle)


def _load_tracing():
    # perfbench is no package: load the benchmark's tracer by path
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


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
    tracing = _load_tracing()
    unresolved = [(mod, fn) for mod, fn, _, _ in tracing.TARGETS
                  if not callable(getattr(importlib.import_module(f"frechet_laplace.{mod}"),
                                          fn, None))]
    assert tracing.TARGETS and unresolved == []


def test_benchmark_tracer_reads_every_layer():
    # the tracer reads the count and converged flag of each traced result
    # (for mellin_barnes_integral, by tuple position); a change of return
    # shape must fail here rather than in the benchmark
    tracing = _load_tracing()
    original = mellin.mellin_barnes_integral
    tracer = tracing.Tracer()
    tracer.install()
    try:
        laplace_frechet(LaplaceQuery(RationalShape(1, 2), 1.0, Method.MEIJER_G))
        laplace_frechet_oracle(Shape(0.5), 1.0)
        frechet_transform_frechet_half(Shape(1.0), 1.0)
    finally:
        tracer.uninstall()
    assert mellin.mellin_barnes_integral is original
    assert all(s[7] != tracing.ERROR for s in tracer.spans)
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["mellin.integrals"] == 2
    assert metrics["mellin.converged_ratio"] == 1
    assert metrics["meijer.calls"] == 2
    assert metrics["numerics.quad.calls"] == 1
