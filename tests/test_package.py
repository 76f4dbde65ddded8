"""The package's public names."""

from collections import Counter

import ovnsvm


def test_every_exported_name_resolves_and_appears_once():
    assert [n for n, c in Counter(ovnsvm.__all__).items() if c > 1] == []
    assert [n for n in ovnsvm.__all__ if not hasattr(ovnsvm, n)] == []


def test_the_halved_objective_is_not_exported():
    # fits report the minimized functional, training_objective, only
    assert not hasattr(ovnsvm, "objective")
    assert not hasattr(ovnsvm.linear, "objective")
