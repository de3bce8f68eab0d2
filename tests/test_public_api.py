"""The top-level package re-exports every module's public names."""

import importlib
import os
import pkgutil
import subprocess
import sys

import splitdev


def test_package_exports_every_name_in_each_module_all():
    modules = [importlib.import_module(f"splitdev.{info.name}")
               for info in pkgutil.iter_modules(splitdev.__path__)]
    public = [m for m in modules if hasattr(m, "__all__")]
    assert {"splitdev.scheme", "splitdev.markowitz"} <= {
        m.__name__ for m in public}
    missing = [f"{m.__name__}.{name}" for m in public for name in m.__all__
               if getattr(splitdev, name, None) is not getattr(m, name)]
    assert missing == []


def test_runtime_imports_numpy_only():
    # a fresh interpreter, so modules the test suite loads do not count
    code = ("import sys, splitdev, splitdev.cli; "
            "print(sorted({'scipy', 'hypothesis'} & set(sys.modules)))")
    src = os.path.dirname(os.path.dirname(splitdev.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "[]\n"
