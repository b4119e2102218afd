import importlib
import pkgutil

import pytest

import slidereg

PACKAGES = ["slidereg"] + sorted(f"slidereg.{m.name}" for m in pkgutil.iter_modules(slidereg.__path__))


@pytest.mark.parametrize("name", PACKAGES)
def test_every_exported_name_resolves(name):
    # a name left in __all__ after its definition is deleted fails only under import *
    module = importlib.import_module(name)
    assert [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)] == []


@pytest.mark.parametrize("name", PACKAGES)
def test_star_import(name):
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    module = importlib.import_module(name)
    public = getattr(module, "__all__", [attr for attr in vars(module) if not attr.startswith("_")])
    assert set(public) <= namespace.keys()
