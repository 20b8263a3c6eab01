"""Each ``repro`` package imports cleanly as a fresh interpreter's first
import, so no package relies on another having been imported before it
to get through an import cycle."""

import os
import pkgutil
import subprocess
import sys

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
PACKAGES = sorted(name for _, name, is_pkg
                  in pkgutil.iter_modules(repro.__path__, "repro.")
                  if is_pkg)


@pytest.mark.parametrize("package", PACKAGES)
def test_package_imports_first(package):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SRC, env.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", f"import {package}"],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
