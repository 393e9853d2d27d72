import os
import subprocess
import sys

import lqframes


def test_public_names_are_exported_once():
    # The package star-imports its submodules, so a name exported by two of
    # them would silently shadow the other; it would show here as a duplicate.
    names = lqframes.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(lqframes, name), name
    assert {"cell_key", "split_nsp_constant", "split_nsp_condition"} <= set(names)


def test_importing_the_package_loads_no_scipy():
    # the runtime needs numpy alone; scipy is a reference for the tests only
    script = """
import sys
import lqframes, lqframes.cli
print(sorted(name for name in sys.modules if name == "scipy" or name.startswith("scipy.")))
"""
    src = os.path.dirname(os.path.dirname(os.path.abspath(lqframes.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
