"""The package's public namespace: every name in ``__all__`` exists, once."""

import strongbounds


def test_star_import_gives_exactly_all():
    namespace: dict = {}
    exec("from strongbounds import *", namespace)
    namespace.pop("__builtins__")
    assert set(namespace) == set(strongbounds.__all__)


def test_all_has_no_duplicates():
    assert len(strongbounds.__all__) == len(set(strongbounds.__all__))


def test_every_name_resolves():
    missing = [name for name in strongbounds.__all__ if not hasattr(strongbounds, name)]
    assert missing == []
