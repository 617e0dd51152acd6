"""The package's public names."""

import poinar


def test_every_exported_name_resolves():
    missing = [name for name in poinar.__all__ if not hasattr(poinar, name)]
    assert not missing
    namespace = {}
    exec("from poinar import *", namespace)
    assert set(poinar.__all__) <= set(namespace)
