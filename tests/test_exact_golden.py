"""Golden values of the exact outcome expansions.

Each matcher's ``exact_value`` and the star evaluators are checked at 1e-12
against values recorded from the separate hand-written expansions these
functions replaced (``golden_exact.json``, beside this file).  The cases
cover every patience model: deterministic, survival, a global hazard rate
and per-item hazard rates, set on every type of a random instance.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from stochmatch import hard_instances as hard
from stochmatch.instances import MatchingInstance, PatienceModel, Policy
from stochmatch.matching import (
    AdvGreedyMatcher,
    PolicyLpMatcher,
    SimpleGreedyMatcher,
    solve_prophet_lp,
)
from stochmatch.stars import (
    eval_policy_exact,
    eval_randomized_exact,
    policy_match_probabilities,
    randomized_match_probabilities,
    solve_arbitrary_patience,
)

GOLDEN = json.loads((Path(__file__).parent / "golden_exact.json").read_text())

PATIENCES = {
    "deterministic": lambda m: PatienceModel.deterministic(2),
    "survival": lambda m: PatienceModel.survival((1.0, 0.7, 0.4, 0.1)),
    "global-hazard": lambda m: PatienceModel.constant_hazard(rate=0.35),
    "item-hazard": lambda m: PatienceModel.constant_hazard(rates=np.linspace(0.1, 0.6, m)),
}


def with_patience(instance: MatchingInstance, kind: str) -> MatchingInstance:
    """The instance with every type's patience set to one model."""
    return MatchingInstance.make(instance.probs, PATIENCES[kind](instance.m),
                                 instance.arrivals, edge_weights=instance.edge_weights)


def _greedy_cases():
    for seed in range(3):
        base = hard.gen_random_matching(seed, 5, 6, "adversarial")
        for kind in PATIENCES:
            inst = with_patience(base, kind)
            # default solvers: dp, lp (randomized plans) and hazard plans
            yield f"adv/{seed}/{kind}", lambda i=inst: AdvGreedyMatcher().exact_value(i)
            for rule in ("first", "last"):
                yield (f"simple-{rule}/{seed}/{kind}",
                       lambda i=inst, r=rule: SimpleGreedyMatcher(r).exact_value(i))


def _policy_lp_cases():
    for seed in range(2):
        for arrivals in ("iid", "prophet"):
            base = hard.gen_random_matching(seed, 4, 3, arrivals, horizon=5)
            for kind in PATIENCES:
                inst = with_patience(base, kind)
                for skip in (True, False):
                    yield (f"policy/{seed}/{arrivals}/{kind}/skip={skip}",
                           lambda i=inst, s=skip:
                           PolicyLpMatcher(solve_prophet_lp(i), s).exact_value(i))


def _star_cases():
    for seed in range(6):
        for kind in ("survival", "deterministic", "hazard"):
            star = hard.gen_random_star(seed, 6, kind)
            for name, policy in (("reversed", Policy(tuple(range(5, -1, -1)))),
                                 ("odd", Policy((1, 3, 5)))):
                label = f"star/{seed}/{kind}/{name}"
                yield label, lambda s=star, p=policy: eval_policy_exact(s, p)
                yield (label + "/probs",
                       lambda s=star, p=policy: policy_match_probabilities(s, p).tolist())
    for seed in range(10):
        for kind in ("survival", "deterministic"):
            star = hard.gen_random_star(100 + seed, 6, kind)
            label = f"randomized/{seed}/{kind}"
            yield label, lambda s=star: eval_randomized_exact(
                s, solve_arbitrary_patience(s).policy)
            yield label + "/probs", lambda s=star: randomized_match_probabilities(
                s, solve_arbitrary_patience(s).policy).tolist()


def cases() -> dict:
    return dict([*_greedy_cases(), *_policy_lp_cases(), *_star_cases()])


CASES = cases()


def test_golden_file_covers_every_case():
    assert sorted(GOLDEN) == sorted(CASES)


@pytest.mark.parametrize("label", sorted(CASES))
def test_exact_value_matches_golden(label):
    assert np.allclose(CASES[label](), GOLDEN[label], rtol=0.0, atol=1e-12)
