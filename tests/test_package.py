"""The package's public surface: ``sumlabel.__all__`` against what
``sumlabel/__init__.py`` binds, so a deleted or renamed export cannot
linger on either side."""

from types import ModuleType

import sumlabel


def test_every_exported_name_resolves():
    assert [name for name in sumlabel.__all__ if not hasattr(sumlabel, name)] == []
    assert len(set(sumlabel.__all__)) == len(sumlabel.__all__)


def test_every_public_binding_is_exported():
    public = {name for name, value in vars(sumlabel).items()
              if not name.startswith("_") and not isinstance(value, ModuleType)}
    assert sorted(public - set(sumlabel.__all__)) == []
