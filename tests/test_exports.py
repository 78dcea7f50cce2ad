import importlib
import pkgutil

import pytest

import signalprice

MODULES = sorted(info.name for info in pkgutil.iter_modules(signalprice.__path__))


def test_package_exports_resolve():
    missing = [name for name in signalprice.__all__ if not hasattr(signalprice, name)]
    assert missing == []


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"signalprice.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []
