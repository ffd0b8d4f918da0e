"""Session fixture: the compiled kernel module, built once per test run.

``core_c`` runs ``setup.py build_ext`` into a temporary directory and
loads the module from there with ``importlib``, so a test run leaves
nothing in ``src/``, ``build/`` or ``sys.modules``.  It skips, with the
reason, only when no C compiler is found; a compiler that builds no
module fails the tests that use it.
"""

import importlib.util
import os
import shlex
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def c_compiler():
    """The C compiler setuptools runs (CC, else the one Python was built
    with) when it is on PATH, else None."""
    cc = os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc"
    words = shlex.split(cc)
    return shutil.which(words[0]) if words else None


def build_ext(out: Path, env=None) -> subprocess.CompletedProcess:
    """Run ``setup.py build_ext`` with every output under out."""
    return subprocess.run(
        [sys.executable, "setup.py", "build_ext",
         "--build-lib", str(out / "lib"), "--build-temp", str(out / "temp")],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )


def built_module(out: Path) -> Path:
    return out / "lib" / "sumrank" / ("_core_c" + sysconfig.get_config_var("EXT_SUFFIX"))


@pytest.fixture(scope="session")
def core_c(tmp_path_factory):
    """The compiled kernel module, built into a temporary directory."""
    if c_compiler() is None:
        pytest.skip("no C compiler found to build sumrank._core_c")
    out = tmp_path_factory.mktemp("core_c")
    proc = build_ext(out)
    path = built_module(out)
    if proc.returncode or not path.exists():
        pytest.fail(f"a C compiler exists but no module was built:\n{proc.stderr}")
    spec = importlib.util.spec_from_file_location("sumrank._core_c", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
