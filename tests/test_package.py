"""The package's public namespace."""

import trbench


def test_star_import_binds_every_export():
    # `from trbench import *` raises AttributeError on a name left in
    # __all__ after its definition is gone.
    namespace = {}
    exec("from trbench import *", namespace)
    assert set(trbench.__all__) <= namespace.keys()
