import json

import numpy as np
import pytest

from stochmatch import hard_instances as hard
from stochmatch.instances import (
    ArrivalModel,
    InstanceFormatError,
    MatchingInstance,
    PatienceModel,
    StarInstance,
    load_instance,
    loads_instance,
    save_instance,
    validate,
)
from stochmatch.stars import order_match


def test_validate_flags_non_monotone_survival():
    star = StarInstance.make([1, 1, 1], [0.5, 0.5, 0.5],
                             PatienceModel.survival([1.0, 0.6, 0.8]))
    report = validate(star)
    assert not report.ok
    assert any("non-increasing at index 3" in v for v in report.violations)


def test_validate_flags_probability_out_of_range():
    inst = MatchingInstance.make([[1.2]], PatienceModel.deterministic(1),
                                 ArrivalModel.adversarial([0]), vertex_weights=[1.0])
    report = validate(inst)
    assert not report.ok
    assert any("probability out of range" in v for v in report.violations)


def test_validate_accepts_empty_star():
    star = StarInstance.make([], [], PatienceModel.deterministic(1))
    assert validate(star).ok


def test_validate_rejects_bad_hazard_rate_and_bad_order():
    star = StarInstance.make([1.0], [0.5], PatienceModel.constant_hazard(rates=[1.5]))
    assert not validate(star).ok
    inst = MatchingInstance.make([[0.5], [0.5]], PatienceModel.deterministic(1),
                                 ArrivalModel.adversarial([0]), vertex_weights=[1, 1])
    # order [0] is fine for one online vertex; break it instead
    bad = MatchingInstance.make([[0.5, 0.5]], PatienceModel.deterministic(1),
                                ArrivalModel.adversarial([0, 0]), vertex_weights=[1.0])
    assert validate(inst).ok
    assert not validate(bad).ok


def test_validate_rejects_non_finite_values():
    nan, inf = float("nan"), float("inf")
    stars = [StarInstance.make([1.0], [nan], PatienceModel.deterministic(1)),
             StarInstance.make([inf], [0.5], PatienceModel.deterministic(1)),
             StarInstance.make([1.0, 1.0], [0.5, 0.5], PatienceModel.survival([1.0, nan])),
             StarInstance.make([1.0], [0.5], PatienceModel.constant_hazard(rate=nan))]
    for star in stars:
        assert not validate(star).ok
    adv = ArrivalModel.adversarial([0])
    det = PatienceModel.deterministic(1)
    matchings = [MatchingInstance.make([[nan]], det, adv, vertex_weights=[1.0]),
                 MatchingInstance.make([[0.5]], det, adv, vertex_weights=[inf]),
                 MatchingInstance.make([[0.5]], det, adv, edge_weights=[[nan]]),
                 MatchingInstance.make([[0.5]], det, ArrivalModel.iid([nan], 2),
                                       vertex_weights=[1.0]),
                 MatchingInstance.make([[0.5]], det, ArrivalModel.prophet([[nan]]),
                                       vertex_weights=[1.0])]
    for inst in matchings:
        report = validate(inst)
        assert not report.ok
        assert any("non-finite" in v for v in report.violations)


def test_roundtrip_star(tmp_path):
    star = StarInstance.make([1.5, 2.0], [0.25, 1.0],
                             PatienceModel.survival([1.0, 0.5]))
    path = tmp_path / "star.json"
    save_instance(star, path)
    assert load_instance(path) == star


def test_roundtrip_hazard_patience(tmp_path):
    rate = PatienceModel.constant_hazard(rate=0.25)
    rates = PatienceModel.constant_hazard(rates=[0.1, 0.4])
    as_json = {"type": "hazard", "rate": 0.25}, {"type": "hazard", "r": [0.1, 0.4]}
    cases = [(StarInstance.make([1.5, 2.0], [0.25, 1.0], rate), as_json[0]),
             (StarInstance.make([1.5, 2.0], [0.25, 1.0], rates), as_json[1]),
             (MatchingInstance.make([[0.5, 0.2], [0.3, 0.9]], (rate, rates),
                                    ArrivalModel.adversarial([1, 0]), vertex_weights=[1.0, 2.0]),
              list(as_json))]
    for inst, patience in cases:
        path = tmp_path / "hazard.json"
        save_instance(inst, path)
        assert json.loads(path.read_text())["patience"] == patience
        assert load_instance(path) == inst


def test_roundtrip_matching_edge_and_vertex(tmp_path):
    for inst in (
        hard.gen_random_matching(0, m=3, n_types=2, arrival_kind="adversarial"),
        hard.gen_random_matching(1, m=3, n_types=2, arrival_kind="iid", edge_weighted=False),
        hard.gen_random_matching(2, m=2, n_types=3, arrival_kind="prophet", horizon=4),
    ):
        path = tmp_path / "m.json"
        save_instance(inst, path)
        assert load_instance(path) == inst


@pytest.mark.parametrize("seed", range(25))
def test_roundtrip_random_instances(tmp_path, seed):
    kind = ("adversarial", "iid", "prophet")[seed % 3]
    inst = hard.gen_random_matching(seed, m=2 + seed % 4, n_types=1 + seed % 3,
                                    arrival_kind=kind, edge_weighted=bool(seed % 2))
    path = tmp_path / "r.json"
    save_instance(inst, path)
    assert load_instance(path) == inst


def test_parse_error_names_missing_key(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"kind": "star", "weights": [1], "probs": [0.5]}))
    with pytest.raises(InstanceFormatError, match="patience"):
        load_instance(path)


def test_parse_error_on_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(InstanceFormatError):
        load_instance(path)


def test_survival_schema_literal():
    star = loads_instance(json.dumps({
        "kind": "star", "weights": [1.0], "probs": [0.5],
        "patience": {"type": "survival", "q": [1.0, 0.5]}}))
    assert star.patience.q == (1.0, 0.5)


def test_single_patience_dict_expands_per_type(tmp_path):
    d = {"kind": "matching", "probs": [[0.5, 0.5]], "weights": [1.0],
         "patience": {"type": "deterministic", "theta": 1},
         "arrivals": {"type": "adversarial", "order": [0, 1]}}
    inst = loads_instance(json.dumps(d))
    assert len(inst.patience) == 2
    path = tmp_path / "x.json"
    save_instance(inst, path)
    assert load_instance(path) == inst


@pytest.mark.parametrize("r", [0.0, 0.3, 0.9])
def test_global_hazard_matches_geometric_curve(r):
    n = 6
    hazard = PatienceModel.constant_hazard(rate=r)
    curve = hazard.survival_curve(n)
    assert np.max(np.abs(curve - (1 - r) ** np.arange(n))) <= 1e-12
    # walking any order under the rate matches walking it under its curve
    rng = np.random.default_rng(3)
    probs = rng.random(n)
    orders = np.array([rng.permutation(n) for _ in range(20)])
    lengths = rng.integers(0, n + 1, size=20)
    under_rate = order_match(probs, hazard, orders, lengths)
    under_curve = order_match(probs, PatienceModel.survival(tuple(curve)), orders, lengths)
    assert np.max(np.abs(under_rate - under_curve)) <= 1e-15


def test_generators_all_validate():
    instances = [
        hard.gen_stochasticity_gap(5),
        hard.gen_single_offline(7),
        hard.gen_simple_greedy_hard(2, 5, v0_cap=20),
        hard.gen_unknown_patience(2, 3),
        hard.gen_tight_example(0.1),
    ]
    for seed in range(6):
        instances.append(hard.gen_random_star(seed, 5, ("survival", "deterministic", "hazard")[seed % 3]))
        instances.append(hard.gen_random_matching(seed, m=3, n_types=3,
                                                  arrival_kind=("adversarial", "iid", "prophet")[seed % 3]))
    for inst in instances:
        report = validate(inst)
        assert report.ok, report.violations
