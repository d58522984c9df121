"""The package's public names."""

import todadual


def test_every_exported_name_resolves():
    # a stale export of a deleted name would break `from todadual import *`
    missing = [name for name in todadual.__all__ if not hasattr(todadual, name)]
    assert not missing
