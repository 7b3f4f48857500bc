import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import frechet_laplace


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
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    unresolved = [(mod, fn) for mod, fn, _, _ in tracing.TARGETS
                  if not callable(getattr(importlib.import_module(f"frechet_laplace.{mod}"),
                                          fn, None))]
    assert tracing.TARGETS and unresolved == []
