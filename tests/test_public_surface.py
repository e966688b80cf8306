"""Each library module's `__all__` is its public surface, and it resolves.

The package itself re-exports nothing; callers import from the
submodules.  The command line module is the program's entry point and
keeps no `__all__`.
"""

import importlib
import pkgutil
import types

import pytest

import pursuit

MODULES = sorted(
    info.name for info in pkgutil.iter_modules(pursuit.__path__) if info.name != "cli"
)


def test_package_holds_only_its_version():
    # a submodule becomes an attribute of the package once imported
    public = [name for name, value in vars(pursuit).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)]
    assert public == []
    assert pursuit.__version__


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_resolves(name):
    module = importlib.import_module(f"pursuit.{name}")
    exported = module.__all__
    assert len(set(exported)) == len(exported)
    assert [attr for attr in exported if not hasattr(module, attr)] == []
