import json

import pytest

from stochmatch import hard_instances as hard
from stochmatch import cli, lp
from stochmatch.cli import main
from stochmatch.instances import load_instance
from stochmatch.matching import SimpleGreedyMatcher
from stochmatch.simulate import SimConfig, simulate
from stochmatch.stars import solver_by_name


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gen_writes_valid_instance(tmp_path, capsys):
    path = tmp_path / "sg.json"
    code, out, _ = run(capsys, "gen", "simplegreedy", "-k", "2", "-n", "5",
                       "--cap", "20", "-o", str(path))
    assert code == 0
    assert "exact greedy E[M]" in out
    inst = load_instance(path)
    assert inst.meta["k"] == 2


def test_gen_reports_derived_quantities(capsys):
    code, out, _ = run(capsys, "gen", "unknown-patience", "-m", "2", "-k", "3")
    assert code == 0
    assert "clairvoyant value" in out and "attempt-LP value" in out


def test_gen_stochgap_writes_the_gap_family(tmp_path, capsys):
    path = tmp_path / "gap.json"
    code, out, _ = run(capsys, "gen", "stochgap", "-n", "5", "-o", str(path))
    assert code == 0 and "plain-LP objective: 5" in out
    assert load_instance(path) == hard.gen_stochasticity_gap(5)


def test_gen_rejects_bad_parameters(capsys):
    code, _, err = run(capsys, "gen", "simplegreedy", "-k", "0", "-n", "5")
    assert code == 2


@pytest.mark.parametrize("flag", [["--theta", "0"], ["-m", "0"]])
def test_gen_random_matching_rejects_what_it_cannot_build(tmp_path, capsys, flag):
    # a zero patience bound used to raise numpy's ValueError, and m = 0 wrote
    # a file that load_instance rejects
    path = tmp_path / "inst.json"
    code, _, err = run(capsys, "gen", "random-matching", *flag, "-o", str(path))
    assert code == 2 and "input error" in err
    assert not path.exists()


@pytest.mark.parametrize("args", [["random-star", "-n", "-3"],
                                  ["random-matching", "-m", "3", "-n", "-2"],
                                  ["random-star", "--seed", "-1"]])
def test_gen_rejects_negative_sizes_and_seeds(tmp_path, capsys, args):
    # each used to end in numpy's ValueError traceback with exit 1
    path = tmp_path / "inst.json"
    code, _, err = run(capsys, "gen", *args, "-o", str(path))
    assert code == 2 and "input error" in err
    assert not path.exists()


def test_star_solve_on_tight_example(tmp_path, capsys):
    path = tmp_path / "tight.json"
    run(capsys, "gen", "tight-example", "--eps", "0.1", "-o", str(path))
    code, out, _ = run(capsys, "star-solve", str(path), "--solver", "lp")
    assert code == 0
    assert "benchmark:      0.1" in out
    code, out, _ = run(capsys, "star-solve", str(path), "--solver", "dp")
    assert code == 0
    assert "expected value" in out


def test_star_solve_lp_bound_on_random_star(tmp_path, capsys):
    # the LP bound here was once reported as 1.17018 from an infeasible x
    path = tmp_path / "star.json"
    run(capsys, "gen", "random-star", "--seed", "17", "-n", "8",
        "--patience", "survival", "-o", str(path))
    code, out, _ = run(capsys, "star-solve", str(path), "--solver", "lp")
    assert code == 0
    assert "benchmark:      0.69419\n" in out


def test_failed_lp_certificate_exits_4(tmp_path, capsys, monkeypatch):
    path = tmp_path / "star.json"
    run(capsys, "gen", "random-star", "--seed", "17", "-n", "8",
        "--patience", "survival", "-o", str(path))
    monkeypatch.setattr(lp, "HARRIS_TOL", 0.05)  # leaves the final basis infeasible
    code, _, err = run(capsys, "star-solve", str(path), "--solver", "lp")
    assert code == 4
    assert "certificate" in err


def test_star_solve_variant_mismatch_exits_3(tmp_path, capsys):
    path = tmp_path / "tight.json"
    run(capsys, "gen", "tight-example", "--eps", "0.1", "-o", str(path))
    code, _, err = run(capsys, "star-solve", str(path), "--solver", "hazard")
    assert code == 3
    assert "capability mismatch" in err


def test_star_solve_hazard_instance(tmp_path, capsys):
    path = tmp_path / "hz.json"
    path.write_text(json.dumps({
        "kind": "star", "weights": [10, 6], "probs": [0.5, 0.9],
        "patience": {"type": "hazard", "r": [0.2, 0.1]}}))
    code, out, _ = run(capsys, "star-solve", str(path), "--solver", "hazard")
    assert code == 0
    assert "1 2" in out  # probe order, 1-based
    assert "7.16" in out


def test_star_solve_writes_an_order_policy_only(tmp_path, capsys):
    path, policy = tmp_path / "star.json", tmp_path / "policy.txt"
    run(capsys, "gen", "random-star", "-n", "5", "--patience", "deterministic",
        "--seed", "2", "-o", str(path))
    code, out, _ = run(capsys, "star-solve", str(path), "--solver", "dp",
                       "--policy-out", str(policy))
    order = solver_by_name("dp").solve(load_instance(path)).policy.order
    assert code == 0 and order
    assert policy.read_text() == " ".join(map(str, order)) + "\n"  # 0-based
    # a randomized LP policy has no order to write: an input error, before solving
    lp_policy = tmp_path / "lp-policy.txt"
    code, _, err = run(capsys, "star-solve", str(path), "--solver", "lp",
                       "--policy-out", str(lp_policy))
    assert code == 2 and "randomized" in err and not lp_policy.exists()


def test_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "star-solve", "/nonexistent.json", "--solver", "dp")
    assert code == 2


def test_malformed_file_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"kind": "star", "weights": [1], "probs": [0.5]}')
    code, _, err = run(capsys, "star-solve", str(path), "--solver", "dp")
    assert code == 2
    assert "patience" in err


def test_lp_commands(tmp_path, capsys):
    so = tmp_path / "so.json"
    run(capsys, "gen", "single-offline", "-n", "4", "-o", str(so))
    code, out, _ = run(capsys, "lp", str(so), "--which", "lp6")
    assert code == 0 and "lp6 objective: 1" in out
    code, out, _ = run(capsys, "lp", str(so), "--which", "lp2", "--dump")
    assert code == 0 and "r0:" in out
    tight = tmp_path / "t.json"
    run(capsys, "gen", "tight-example", "--eps", "0.1", "-o", str(tight))
    code, out, _ = run(capsys, "lp", str(tight), "--which", "lp1")
    assert code == 0 and "lp1 objective: 0.1" in out
    # lp1 on a matching instance is a capability mismatch
    code, _, err = run(capsys, "lp", str(so), "--which", "lp1")
    assert code == 3


def test_lpp_command_prints_columns(tmp_path, capsys):
    path = tmp_path / "iid.json"
    run(capsys, "gen", "random-matching", "-m", "3", "-n", "2",
        "--arrivals", "iid", "--seed", "4", "-o", str(path))
    code, out, _ = run(capsys, "lp", str(path), "--which", "lpp")
    assert code == 0
    assert "columns generated:" in out
    # the README's instance: the count includes each type's empty policy
    readme = tmp_path / "inst.json"
    run(capsys, "gen", "random-matching", "-m", "4", "-n", "3",
        "--arrivals", "iid", "--seed", "7", "-o", str(readme))
    code, out, _ = run(capsys, "lp", str(readme), "--which", "lpp")
    assert code == 0
    assert "lpp objective: 1.63311" in out
    assert "columns generated: 9 (status optimal)" in out


def test_match_run_wrong_arrivals_exits_3(tmp_path, capsys):
    path = tmp_path / "adv.json"
    run(capsys, "gen", "single-offline", "-n", "3", "-o", str(path))
    code, _, err = run(capsys, "match-run", str(path), "--algorithm", "iid")
    assert code == 3


def test_match_run_too_large_benchmark_exits_3_before_simulating(tmp_path, capsys, monkeypatch):
    # the README's capped simple-greedy instance: its lp6 benchmark is past
    # the dense solver's size, which is known before any trial runs
    path = tmp_path / "greedy.json"
    run(capsys, "gen", "simplegreedy", "-k", "4", "-n", "100", "--cap", "400", "-o", str(path))
    calls = []
    monkeypatch.setattr(cli, "simulate", lambda *a, **k: calls.append(a))
    code, _, err = run(capsys, "match-run", str(path), "--algorithm", "simple-greedy")
    assert code == 3 and "too large" in err
    assert calls == []


def test_match_run_nan_probability_exits_2(tmp_path, capsys):
    path = tmp_path / "adv.json"
    run(capsys, "gen", "single-offline", "-n", "3", "-o", str(path))
    data = json.loads(path.read_text())
    data["probs"][0][0] = float("nan")
    path.write_text(json.dumps(data))
    code, _, err = run(capsys, "match-run", str(path), "--algorithm", "adv-greedy")
    assert code == 2
    assert "non-finite probability" in err


def _set(key, value):
    def mutate(data):
        data[key] = value
    return mutate


def _set_theta(data):
    data["patience"][0]["theta"] = "x"


def _one_row_probs(data):  # with one shared patience object
    data["probs"], data["patience"] = data["probs"][0], data["patience"][0]


@pytest.mark.parametrize("mutate", [
    _set("probs", "abc"),
    _set("probs", [[0.5, 0.5], [0.5]]),
    _set_theta,
    _set("patience", 5),
    _one_row_probs,
    _set("arrivals", {"type": "prophet", "q_tv": [0.5, 0.5, 0.5]}),
    _set("patience", {"type": "hazard", "r": [0.1, 0.2, 0.3]}),  # 1 offline vertex
    None,  # bytes that are not UTF-8
], ids=["probs-string", "ragged-probs", "theta-string", "patience-number", "probs-1d",
        "q_tv-1d", "hazard-rates-length", "not-utf8"])
def test_match_run_malformed_values_exit_2(tmp_path, capsys, mutate):
    path = tmp_path / "adv.json"
    run(capsys, "gen", "single-offline", "-n", "3", "-o", str(path))
    if mutate is None:
        path.write_bytes(b'{"kind": "matching", "probs": "\xff\xfe"}')
    else:
        data = json.loads(path.read_text())
        mutate(data)
        path.write_text(json.dumps(data))
    code, _, err = run(capsys, "match-run", str(path), "--algorithm", "adv-greedy")
    assert code == 2
    assert "input error" in err


def test_unwritable_output_exits_2(tmp_path, capsys):
    out = tmp_path / "missing-dir" / "so.json"
    code, _, err = run(capsys, "gen", "single-offline", "-n", "3", "-o", str(out))
    assert code == 2
    assert "output error" in err


def test_match_run_csv_is_deterministic(tmp_path, capsys):
    path = tmp_path / "adv.json"
    run(capsys, "gen", "single-offline", "-n", "5", "-o", str(path))
    c1 = tmp_path / "a.csv"
    c2 = tmp_path / "b.csv"
    for c in (c1, c2):
        code, out, _ = run(capsys, "match-run", str(path), "--algorithm", "adv-greedy",
                           "--seed", "11", "--trials", "2000", "--csv", str(c))
        assert code == 0
    assert c1.read_bytes() == c2.read_bytes()
    header = c1.read_text().splitlines()[0]
    assert header.startswith("schema_version,instance,algorithm,seed,trials,mean")


def test_match_run_csv_numeric_cells_parse_as_floats(tmp_path, capsys):
    # the iid run's ci is a numpy float64, which once printed as np.float64(...)
    path, csv = tmp_path / "inst.json", tmp_path / "out.csv"
    run(capsys, "gen", "random-matching", "-m", "4", "-n", "3", "--arrivals", "iid",
        "--seed", "7", "-o", str(path))
    code, _, _ = run(capsys, "match-run", str(path), "--algorithm", "iid", "--seed", "1",
                     "--trials", "2000", "--csv", str(csv))
    assert code == 0
    header, row = csv.read_text().splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    for col in ("schema_version", "seed", "trials", "mean", "stddev", "ci",
                "benchmark_value", "ratio"):
        float(cells[col])


def test_match_run_prints_pass_marker(tmp_path, capsys):
    path = tmp_path / "iid.json"
    run(capsys, "gen", "random-matching", "-m", "3", "-n", "2",
        "--arrivals", "iid", "--seed", "6", "-o", str(path))
    code, out, _ = run(capsys, "match-run", str(path), "--algorithm", "iid",
                       "--seed", "1", "--trials", "4000")
    assert code == 0
    assert "ratio:" in out and "PASS" in out


@pytest.mark.parametrize("algorithm", ["simple-greedy", "iid", "prophet"])
def test_match_run_star_solver_outside_adv_greedy_exits_2(tmp_path, capsys, algorithm):
    # only AdvGreedy probes stars with a named box
    path = tmp_path / "inst.json"
    run(capsys, "gen", "random-matching", "-m", "4", "-n", "3",
        "--arrivals", "iid", "--seed", "7", "-o", str(path))
    code, out, err = run(capsys, "match-run", str(path), "--algorithm", algorithm,
                         "--star-solver", "dp", "--seed", "1", "--trials", "200")
    assert code == 2 and "--star-solver" in err and "Traceback" not in err
    assert "mean matched weight" not in out


def test_match_run_simple_greedy_last_rule(tmp_path, capsys):
    path, csv = tmp_path / "sg.json", tmp_path / "sg.csv"
    run(capsys, "gen", "simplegreedy", "-k", "2", "-n", "5", "--cap", "20", "-o", str(path))
    code, out, _ = run(capsys, "match-run", str(path), "--algorithm", "simple-greedy",
                       "--rule", "last", "--seed", "3", "--trials", "2000", "--csv", str(csv))
    assert code == 0 and "algorithm: simple-greedy" in out
    report = simulate(load_instance(path), SimpleGreedyMatcher("last"),
                      SimConfig(seed=3, trials=2000))
    header, row = csv.read_text().splitlines()
    assert dict(zip(header.split(","), row.split(",")))["mean"] == repr(report.mean)


@pytest.mark.parametrize("target", ["tight-example", "gap-single", "unknown-patience"])
def test_repro_targets_pass_and_are_deterministic(tmp_path, capsys, target):
    c1, c2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    code1, out1, _ = run(capsys, "repro", target, "--seed", "3", "--csv", str(c1))
    code2, out2, _ = run(capsys, "repro", target, "--seed", "3", "--csv", str(c2))
    assert code1 == 0 and code2 == 0
    assert out1.endswith("PASS\n")
    assert c1.read_bytes() == c2.read_bytes()


def test_repro_zero_trials_exits_2(capsys):
    code, _, err = run(capsys, "repro", "iid-guarantee", "--trials", "0")
    assert code == 2
    assert "trials must be >= 1" in err


@pytest.mark.parametrize("target", ["gap-single", "tight-example", "unknown-patience"])
def test_repro_negative_trials_exits_2_for_targets_without_trials(capsys, target):
    code, out, err = run(capsys, "repro", target, "--trials", "-3")
    assert code == 2
    assert "trials must be >= 1" in err
    assert "PASS" not in out


@pytest.mark.parametrize("value", ["abc", "0"])
def test_bad_thread_count_exits_2(capsys, monkeypatch, value):
    monkeypatch.setenv("STOCHMATCH_THREADS", value)
    code, _, err = run(capsys, "repro", "simplegreedy", "--trials", "50")
    assert code == 2
    assert "STOCHMATCH_THREADS" in err
