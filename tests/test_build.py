"""Build the compiled kernel from a copy of the source tree and test it.

The copy keeps every build product (egg-info, object files, the extension)
inside pytest's tmp_path, so the tree under test is left as it was.  This
runs the compiled twin's parity tests even when nothing is built in place.
"""

import os
import shlex
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# the compiler setuptools will call: $CC, else the one Python was built with
COMPILER = shlex.split(os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc")[0]

pytestmark = pytest.mark.skipif(
    shutil.which(COMPILER) is None, reason=f"no C compiler found (looked for {COMPILER!r})")


def _build_products():
    return sorted(str(p) for p in (*ROOT.glob("src/**/*.so"), *ROOT.glob("build")))


def _build(tmp_path, name, **env):
    tree = tmp_path / f"{name}-tree"
    tree.mkdir()
    for item in ("setup.py", "pyproject.toml", "README.md"):
        shutil.copy(ROOT / item, tree)
    shutil.copytree(ROOT / "src", tree / "src",
                    ignore=shutil.ignore_patterns("*.so", "*.egg-info", "__pycache__"))
    lib = tmp_path / f"{name}-lib"
    out = subprocess.run(
        [sys.executable, "setup.py", "build", "--build-lib", str(lib),
         "--build-temp", str(tmp_path / f"{name}-tmp")],
        cwd=tree, capture_output=True, text=True, env={**os.environ, **env})
    assert out.returncode == 0, out.stdout + out.stderr
    return lib


def _run(lib, *args):
    env = {k: v for k, v in os.environ.items() if k != "IMMACULATE_PURE"}
    env["PYTHONPATH"] = str(lib)
    return subprocess.run([sys.executable, *args], cwd=ROOT, capture_output=True, text=True,
                          env=env)


def test_compiled_build_passes_kernel_tests_with_nothing_skipped(tmp_path):
    before = _build_products()
    lib = _build(tmp_path, "c", CFLAGS="-Wall -Wextra -Werror")
    assert list(lib.glob("immaculate/_kernels/_speedups*.so"))
    assert _run(lib, "-c", "import immaculate; print(immaculate.BACKEND)").stdout == "compiled\n"
    out = _run(lib, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-rs",
               str(ROOT / "tests" / "test_kernels.py"))
    summary = out.stdout.strip().splitlines()[-1]
    assert out.returncode == 0, out.stdout + out.stderr
    assert " passed" in summary and "skipped" not in summary, summary
    assert _build_products() == before


def test_build_without_compiler_leaves_working_pure_package(tmp_path):
    before = _build_products()
    lib = _build(tmp_path, "nocc", CC="false")
    assert not list(lib.glob("immaculate/_kernels/_speedups*.so"))
    assert _run(lib, "-c", "import immaculate; print(immaculate.BACKEND)").stdout == "pure\n"
    out = _run(lib, "-m", "immaculate.cli", "count", "2,1,2", "--method", "brute")
    assert (out.returncode, out.stdout) == (0, "4\n")
    assert _build_products() == before
