"""The package's public names."""

from collections import Counter

import coversmooth


def test_every_public_name_resolves_and_is_listed_once():
    names = coversmooth.__all__
    assert [n for n, k in Counter(names).items() if k > 1] == []
    assert [n for n in names if not hasattr(coversmooth, n)] == []
