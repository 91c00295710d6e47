"""Every module of the package imports first in a fresh interpreter.

The modules import each other in a cycle (nsym -> sym -> qsym -> nsym), which
``sym`` closes at call time.  A module-level import that closed it would ask
a partially initialised module for its names, and the import would fail.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = sorted(path.stem for path in (SRC / "hopftower").glob("*.py")
                 if path.stem not in ("__init__", "__main__"))


def test_the_module_list_is_the_package():
    assert {"sym", "qsym", "nsym", "cli", "verify"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_first(module):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", "import hopftower.%s" % module],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
