"""The package's public names: every name in ``uqdim.__all__`` resolves and
is listed once, so a removed or renamed object cannot stay exported."""

import uqdim


def test_all_names_resolve():
    missing = [name for name in uqdim.__all__ if not hasattr(uqdim, name)]
    assert missing == []


def test_all_names_listed_once():
    assert len(set(uqdim.__all__)) == len(uqdim.__all__)
