"""Results that more than one test checks, computed once per test session."""

import functools

from stochmatch import hard_instances as hard


@functools.cache
def coupled_matching_trend() -> tuple[float, ...]:
    """``coupled_matching_ratio_trend((50, 100, 200), samples=6000,
    seed=7)``: 18,000 maximum matchings, checked by acceptance criterion 10
    and by ``test_coupled_matching_trend_decreases_with_n``."""
    return tuple(hard.coupled_matching_ratio_trend((50, 100, 200), samples=6000, seed=7))
