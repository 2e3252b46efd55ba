"""Import cost: ``import epsrs`` loads no scipy subpackage and no thread pool;
the functions that need ``scipy.linalg`` import it when called."""

import os
import subprocess
import sys
from pathlib import Path

import epsrs


def test_import_skips_unused_scipy_subpackages():
    # scipy.linalg makes up most of a cold import, scipy.ndimage and
    # scipy.optimize add tens of milliseconds each; a fresh interpreter shows
    # what `import epsrs` alone pulls in; concurrent.futures has no user since
    # scans run serially
    src = str(Path(epsrs.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import sys, epsrs; print(' '.join(sorted(m for m in sys.modules "
            "if m.split('.')[:2] in (['scipy', 'linalg'], ['scipy', 'ndimage'], "
            "['scipy', 'optimize'], ['concurrent', 'futures']))))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, check=True)
    assert proc.stdout.split() == []
