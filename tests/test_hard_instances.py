import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import lambertw
from shared_results import coupled_matching_trend

from stochmatch import hard_instances as hard
from stochmatch import lp
from stochmatch.instances import CapacityError, StochmatchError, validate
from stochmatch.stars import build_arbitrary_patience_lp


def test_stochasticity_gap_structure():
    inst = hard.gen_stochasticity_gap(3)
    assert inst.m == inst.n_types == 3
    assert np.allclose(inst.probs, 1 / 3)
    assert all(p.theta == 3 for p in inst.patience)
    assert hard.stochasticity_gap_lp_value(3) == 3.0
    one = hard.gen_stochasticity_gap(1)
    assert one.probs[0, 0] == 1.0


def test_sampled_matching_ratio_near_half():
    [r100] = hard.coupled_matching_ratio_trend([100], 60, seed=0)
    assert 0.5 < r100 < 0.6


def test_coupled_matching_trend_decreases_with_n():
    # the true means decrease by ~1e-3 per doubling; the coupled sampler
    # needs a few thousand samples (pinned seed) to resolve that
    r = coupled_matching_trend()
    assert r[0] > r[1] > r[2]
    assert r[2] < 0.75


def test_stochasticity_gap_limit_is_the_karp_sipser_constant():
    omega = float(lambertw(1.0).real)  # Ω = e^{-Ω}
    assert hard.stochasticity_gap_limit() == pytest.approx(2 - 2 * omega - omega ** 2, abs=1e-15)
    assert round(hard.stochasticity_gap_limit(), 6) == 0.544062


def test_square_family_ratio_at_n_400_is_near_the_limit():
    # the sampled mean has a standard error of about 0.001; 0.004 is about four of them
    [r400] = hard.coupled_matching_ratio_trend((400,), 400, seed=7)
    assert abs(r400 - hard.stochasticity_gap_limit()) <= 0.004


def test_single_offline_values():
    inst = hard.gen_single_offline(4)
    assert inst.probs.shape == (1, 4)
    assert hard.single_offline_best_value(4) == pytest.approx(175 / 256)
    assert hard.single_offline_best_value(1) == pytest.approx(1.0)


def test_simple_greedy_family_shape():
    inst = hard.gen_simple_greedy_hard(1, 2)
    # k + n offline, n + k*n^2 online, p = 1/2
    assert inst.m == 3
    assert inst.n_types == 2 + 4
    assert float(inst.probs.max()) == 0.5
    capped = hard.gen_simple_greedy_hard(2, 10, v0_cap=30)
    assert capped.meta["v0"] == 30 and capped.meta["v0_full"] == 200
    assert capped.meta["offline_value"] == 4.0


def test_simple_greedy_exact_value_limits():
    # k = 1: late-block term approaches 1/e from below
    assert hard.simple_greedy_exact_value(1, 10 ** 4) == pytest.approx(1 + 1 / math.e, abs=1e-4)
    # convergence toward k(1 + e^-k k^k / k!) is monotone increasing in n
    # (the spread of the early-block successes grows with n)
    for k in (1, 4, 8):
        limit = k * (1 + hard.simple_greedy_poisson_limit(k))
        vals = [hard.simple_greedy_exact_value(k, n) for n in (100, 1000, 10_000)]
        assert vals[0] < vals[1] < vals[2] < limit
        assert limit - vals[-1] < 2e-3 * k


def test_poisson_limit_constant():
    assert hard.simple_greedy_poisson_limit(16) == pytest.approx(
        math.exp(-16) * 16 ** 16 / math.factorial(16), rel=1e-12)
    assert abs(hard.simple_greedy_poisson_limit(16) - (2 * math.pi * 16) ** -0.5) < 6e-4


def test_unknown_patience_masses_sum_to_one_exactly():
    for m in range(2, 11):
        for k in range(2, 7):
            masses = hard.unknown_patience_masses(m, k)
            assert sum(f for _, f in masses) == Fraction(1)


def test_unknown_patience_survival_blocks():
    q = hard.unknown_patience_survival(2, 3)
    assert len(q) == 16
    assert q[0] == 1
    assert q[1] == q[3] == Fraction(1, 2)
    assert q[4] == q[15] == Fraction(1, 4)


def test_unknown_patience_star_m2k2():
    star = hard.gen_unknown_patience(2, 2)
    assert star.n == 5
    assert star.weights == (1.0, 2.0, 2.0, 2.0, 2.0)
    assert star.probs == (1.0, 0.25, 0.25, 0.25, 0.25)
    assert validate(star).ok
    # patience is 1 or 4, each with probability 1/2
    assert star.patience.q == (1.0, 0.5, 0.5, 0.5)


def test_unknown_patience_item_cap():
    with pytest.raises(CapacityError):
        hard.gen_unknown_patience(10, 4)


def test_clairvoyant_value_growth_and_formula():
    v = {k: hard.clairvoyant_value(2, k) for k in (2, 3, 4, 5)}
    assert v[2] < v[3] < v[4] < v[5]
    assert v[3] > 0.3 * 3 * 0.3  # comfortably exceeds 0.3 per stage after scaling
    assert v[3] > 0.9
    # hand evaluation at m=2, k=2: 0.5 * 1 + 0.5 * (1 - (3/4)^4)
    assert v[2] == pytest.approx(0.5 + 0.5 * (1 - (3 / 4) ** 4), abs=1e-12)
    # large m, k=2: approaches 1 like (1 - 1/m)
    assert hard.clairvoyant_value(1000, 2) == pytest.approx(1.0, abs=2e-3)


def test_aggregated_lp_matches_item_level_lp():
    for (m, k) in ((2, 2), (2, 3), (3, 2)):
        star = hard.gen_unknown_patience(m, k)
        generic = lp.solve(build_arbitrary_patience_lp(star)).objective
        assert hard.unknown_patience_lp_value(m, k) == pytest.approx(generic, abs=1e-7)


def test_tight_example_requires_small_eps():
    with pytest.raises(StochmatchError):
        hard.gen_tight_example(0.9)
    with pytest.raises(StochmatchError):
        hard.gen_tight_example(0.0)


def test_random_generators_are_reproducible_and_sized():
    a = hard.gen_random_star(5, 6, "survival")
    b = hard.gen_random_star(5, 6, "survival")
    assert a == b
    assert a.n == 6
    c = hard.gen_random_matching(9, m=4, n_types=3, arrival_kind="prophet", horizon=5)
    d = hard.gen_random_matching(9, m=4, n_types=3, arrival_kind="prophet", horizon=5)
    assert c == d
    assert c.probs.shape == (4, 3)
    assert c.arrivals.q_tv.shape == (5, 3)
    assert validate(c).ok


def test_random_survival_curves_always_valid():
    rng = np.random.default_rng(0)
    for _ in range(200):
        q = hard.random_survival_curve(rng, int(rng.integers(1, 9)))
        assert q[0] == 1.0
        assert all(q[i] >= q[i + 1] - 1e-12 for i in range(len(q) - 1))
        assert q[-1] >= 0.0
