"""Importing the package loads only the parts of scipy it calls.

``scipy.special`` gives the GELU's ``erf`` and the sigmoid's ``expit``,
and ``scipy.sparse`` the MPGNN's aggregation matrices. Any other scipy
subpackage costs start-up time and memory in every process that imports
``gpt_lab`` (``scipy.stats`` alone took ~0.7 s and ~44 MB).
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
ALLOWED = {"scipy.special", "scipy.sparse", "scipy.version"}


def test_import_loads_no_other_scipy_subpackage():
    code = ("import sys, gpt_lab, gpt_lab.cli; "
            "print(*sorted(m for m in sys.modules if m.startswith('scipy.') "
            "and m.count('.') == 1 and not m.split('.')[1].startswith('_')))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120).stdout.split()
    assert set(out) - ALLOWED == set()
