"""The package re-exports exactly the submodules' public names, and the
README's library example runs on them."""

import contextlib
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import htbounds
from htbounds import bounds, distributions, experiments, numerics, oracle

SUBMODULES = (bounds, distributions, experiments, numerics, oracle)


def test_all_is_the_union_of_submodule_exports():
    # A name added to a submodule's __all__ reaches the package, and a
    # helper retired from one cannot linger there.
    want = [name for m in SUBMODULES for name in m.__all__] + ["__version__"]
    assert len(set(want)) == len(want), "a public name is declared by two submodules"
    assert sorted(htbounds.__all__) == sorted(want)


def test_every_public_name_is_a_submodule_export():
    for m in SUBMODULES:
        for name in m.__all__:
            assert getattr(htbounds, name) is getattr(m, name), f"htbounds.{name}"


def test_readme_quick_start_runs():
    # The README's "Library quick start" block, run as written: a name
    # retired from the library cannot linger there.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    bound, exact = map(float, out.getvalue().split("<="))
    assert 0.0 < bound <= exact < 1.0


def test_cli_import_loads_no_scipy():
    # scipy is a test-only dependency: a fresh interpreter that imports the
    # command line, and so every module of the package, loads none of it
    src = str(Path(htbounds.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, htbounds.cli\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]"
