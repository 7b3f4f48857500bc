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
