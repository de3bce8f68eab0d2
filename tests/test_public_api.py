"""The top-level package re-exports every module's public names."""

import importlib
import pkgutil

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
