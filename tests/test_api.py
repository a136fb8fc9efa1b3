"""The package's public name list."""

from collections import Counter

import tdsvkit


def test_every_exported_name_resolves_once():
    repeated = [name for name, count in Counter(tdsvkit.__all__).items() if count > 1]
    unresolved = [name for name in tdsvkit.__all__ if not hasattr(tdsvkit, name)]
    assert (repeated, unresolved) == ([], [])
