"""Command-line front end: solve, simulate, generate, and reproduce the
package's reference numbers.

Exit codes: 0 success, 1 reproduction FAIL, 2 input error, 3 capability
mismatch (wrong instance kind / patience variant / size cap), 4 numerical
failure in the LP engine.  All randomness sits behind ``--seed``, so every
command is deterministic given its flags.  Tables print floats to 6
significant digits; CSV rows carry full precision.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from . import hard_instances as hard
from . import lp
from .instances import (
    CapabilityError,
    IID,
    InstanceFormatError,
    LpNumericalError,
    MatchingInstance,
    PROPHET,
    StarInstance,
    StochmatchError,
    load_instance,
    save_instance,
    validate,
)
from .matching import (
    AdvGreedyMatcher,
    SimpleGreedyMatcher,
    benchmark_lp_value,
    build_benchmark_lp,
    iid_matcher,
    prophet_matcher,
    solve_prophet_lp,
)
from .simulate import SimConfig, simulate, thread_count
from .stars import (
    Policy,
    build_arbitrary_patience_lp,
    eval_randomized_exact,
    solver_by_name,
)

CSV_SCHEMA_VERSION = 1
CSV_COLUMNS = ("schema_version", "instance", "algorithm", "seed", "trials",
               "mean", "stddev", "ci", "benchmark_name", "benchmark_value",
               "ratio", "pass")

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_CAPABILITY = 3
EXIT_NUMERICAL = 4


def f6(x) -> str:
    """Six significant digits for human-readable tables."""
    if x is None:
        return "-"
    return f"{float(x):.6g}"


def _threads() -> int:
    return thread_count(default=os.cpu_count() or 1)


def _csv_row(**fields) -> str:
    fields.setdefault("schema_version", CSV_SCHEMA_VERSION)
    out = []
    for col in CSV_COLUMNS:
        v = fields.get(col, "")
        if isinstance(v, float):
            v = repr(float(v))  # a numpy float64 would print its type name
        out.append(str(v))
    return ",".join(out)


def _emit_csv(rows: list[str], path: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(",".join(CSV_COLUMNS) + "\n" + "\n".join(rows) + "\n")


# ---------------------------------------------------------------------------
# star-solve
# ---------------------------------------------------------------------------

def cmd_star_solve(args) -> int:
    instance = load_instance(args.instance)
    if not isinstance(instance, StarInstance):
        raise CapabilityError("star-solve needs a star instance")
    solver = solver_by_name(args.solver)
    result = solver.solve(instance)
    if isinstance(result.policy, Policy):
        order = " ".join(str(i + 1) for i in result.policy.order)
        print(f"policy (1-based order): {order or '(empty)'}")
    else:
        print(f"policy: randomized over {instance.n} items"
              f" x {result.policy.attempt_probs.shape[0]} attempts")
    print(f"expected value: {f6(result.expected_value)}")
    print(f"benchmark:      {f6(result.benchmark)}")
    if result.benchmark:
        print(f"ratio:          {f6(result.expected_value / result.benchmark)}")
    if args.policy_out and isinstance(result.policy, Policy):
        with open(args.policy_out, "w", encoding="utf-8") as f:
            f.write(" ".join(str(i) for i in result.policy.order) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# lp
# ---------------------------------------------------------------------------

def cmd_lp(args) -> int:
    instance = load_instance(args.instance)
    which = args.which
    if (which == "lp1") != isinstance(instance, StarInstance):
        kind = "star" if which == "lp1" else "matching"
        raise CapabilityError(f"{which} needs a {kind} instance")
    if which == "lpp":
        res = solve_prophet_lp(instance)
        print(f"lpp objective: {f6(res.objective)}")
        print(f"columns generated: {res.n_columns} (status {res.status})")
        return EXIT_OK
    if which == "lp1":
        problem = build_arbitrary_patience_lp(instance)
    else:
        problem = build_benchmark_lp(instance, include_star_constraints=(which == "lp2"))
    sol = lp.solve(problem)
    print(f"{which} objective: {f6(sol.objective)}")
    if which != "lp6":
        print(f"rows held back: {len(lp.held_rows(problem))}   added: {sol.rows_added}")
    if args.dump:
        sys.stdout.write(lp.dumps_lp(problem))
    return EXIT_OK


# ---------------------------------------------------------------------------
# match-run
# ---------------------------------------------------------------------------

def _make_matcher(instance, algorithm, star_solver, rule):
    if algorithm == "adv-greedy":
        solver = solver_by_name(star_solver) if star_solver else None
        return AdvGreedyMatcher(solver), None
    if algorithm == "simple-greedy":
        return SimpleGreedyMatcher(rule), None
    res = solve_prophet_lp(instance)  # prophet or iid
    return (prophet_matcher(res) if algorithm == "prophet" else iid_matcher(res)), res


def cmd_match_run(args) -> int:
    instance = load_instance(args.instance)
    if not isinstance(instance, MatchingInstance):
        raise CapabilityError("match-run needs a matching instance")
    matcher, lp_result = _make_matcher(instance, args.algorithm,
                                       args.star_solver, args.rule)
    config = SimConfig(seed=args.seed, trials=args.trials)
    benchmark = args.benchmark
    if benchmark == "auto":
        benchmark = "lpp" if instance.arrivals.kind in (PROPHET, IID) else "lp6"
    bench_value = None
    ratio = None
    passed = ""
    # the benchmark comes first: an instance too large for its LP exits
    # before any trial is simulated
    if benchmark == "lpp":
        res = lp_result or solve_prophet_lp(instance)
        bench_value, kappa = res.objective, res.kappa
    elif benchmark != "none":
        bench_value = benchmark_lp_value(instance, include_star_constraints=(benchmark == "lp2"))
        kappa = 1.0
    report = simulate(instance, matcher, config, threads=_threads())
    if bench_value is not None:
        ratio = report.mean / bench_value if bench_value else None
        guarantee = {"adv-greedy": 0.5, "prophet": 0.5,
                     "iid": 1.0 - 1.0 / math.e}.get(args.algorithm)
        if guarantee is not None and bench_value:
            ok = report.mean >= guarantee * kappa * bench_value - report.half_width
            passed = "PASS" if ok else "FAIL"
    print(f"algorithm: {args.algorithm}   seed: {args.seed}   trials: {args.trials}")
    print(f"mean matched weight: {f6(report.mean)} +- {f6(report.half_width)}"
          f" ({report.confidence:.1%} CI)")
    if report.low_trial_count:
        print("note: fewer than 1000 trials; interval is unreliable")
    if bench_value is not None:
        print(f"benchmark {benchmark}: {f6(bench_value)}   ratio: {f6(ratio)} {passed}")
    row = _csv_row(instance=os.path.basename(args.instance), algorithm=args.algorithm,
                   seed=args.seed, trials=args.trials, mean=report.mean,
                   stddev=report.stddev, ci=report.half_width,
                   benchmark_name=benchmark if bench_value is not None else "",
                   benchmark_value=bench_value if bench_value is not None else "",
                   ratio=ratio if ratio is not None else "", **{"pass": passed})
    if args.csv:
        _emit_csv([row], args.csv)
    return EXIT_FAIL if passed == "FAIL" else EXIT_OK


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

def cmd_gen(args) -> int:
    fam = args.family
    if fam == "simplegreedy":
        instance = hard.gen_simple_greedy_hard(args.k, args.n, v0_cap=args.cap)
        exact = hard.simple_greedy_exact_value(args.k, args.n)
        print(f"exact greedy E[M]: {f6(exact)}   offline value: {f6(2 * args.k)}"
              f"   ratio: {f6(exact / (2 * args.k))}")
    elif fam == "unknown-patience":
        instance = hard.gen_unknown_patience(args.m, args.k)
        clair = hard.clairvoyant_value(args.m, args.k)
        lp1 = hard.unknown_patience_lp_value(args.m, args.k)
        print(f"clairvoyant value: {f6(clair)}   attempt-LP value: {f6(lp1)}"
              f"   ratio: {f6(lp1 / clair)}")
    elif fam == "stochgap":
        instance = hard.gen_stochasticity_gap(args.n)
        print(f"plain-LP objective: {f6(hard.stochasticity_gap_lp_value(args.n))}")
    elif fam == "single-offline":
        instance = hard.gen_single_offline(args.n)
        print(f"best-policy value: {f6(hard.single_offline_best_value(args.n))}"
              f"   plain-LP objective: 1")
    elif fam == "tight-example":
        instance = hard.gen_tight_example(args.eps)
        print(f"LP objective: {f6(args.eps)}   policy value:"
              f" {f6(hard.tight_example_policy_value(args.eps))}")
    elif fam == "random-star":
        instance = hard.gen_random_star(args.seed, args.n, args.patience)
        print(f"random star with {instance.n} items ({args.patience} patience)")
    else:  # random-matching
        instance = hard.gen_random_matching(args.seed, args.m, args.n,
                                            args.arrivals, max_theta=args.theta)
        print(f"random {instance.m}x{instance.n_types} instance"
              f" ({args.arrivals} arrivals)")
    report = validate(instance)
    if not report.ok:
        raise StochmatchError("generated instance failed validation: "
                              + "; ".join(report.violations))
    if args.out:
        save_instance(instance, args.out)
        print(f"wrote {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# repro
# ---------------------------------------------------------------------------

class _Repro:
    def __init__(self):
        self.rows: list[str] = []
        self.failed = False

    def _record(self, target, name, ok, text, benchmark_name, benchmark_value, observed):
        mark = "PASS" if ok else "FAIL"
        self.failed |= not ok
        print(f"  [{mark}] {name}: {text}")
        self.rows.append(_csv_row(instance=target, algorithm=name,
                                  benchmark_name=benchmark_name, benchmark_value=benchmark_value,
                                  mean=observed, **{"pass": mark}))

    def check(self, target, name, expected, observed, tol=None):
        if tol is None:
            obs = str(bool(observed)).lower()
            self._record(target, name, bool(observed), f"expected true, observed {obs}",
                         "expected", "true", obs)
        else:
            self._record(target, name, abs(observed - expected) <= tol,
                         f"expected {f6(expected)}, observed {f6(observed)}",
                         "expected", repr(float(expected)), repr(float(observed)))

    def check_at_least(self, target, name, bound, observed):
        self._record(target, name, observed >= bound,
                     f"observed {f6(observed)} >= bound {f6(bound)}",
                     "lower_bound", repr(float(bound)), repr(float(observed)))


def _repro_tight_example(r: _Repro, seed: int, trials: int) -> None:
    print("tight-example: two-item star where the LP policy earns half its bound")
    for eps in (0.1, 0.01, 0.001):
        star = hard.gen_tight_example(eps)
        sol = lp.solve(build_arbitrary_patience_lp(star))
        r.check("tight-example", f"lp objective (eps={eps})", eps, sol.objective, tol=1e-8)
        stated = hard.tight_example_solution(eps)
        value = eval_randomized_exact(star, stated)
        r.check("tight-example", f"stated-solution value (eps={eps})",
                hard.tight_example_policy_value(eps), value, tol=1e-8)
        if eps == 0.1:
            r.check("tight-example", "value equals 1/18", 1.0 / 18.0, value, tol=1e-8)
            r.check("tight-example", "ratio 0.5556", 0.5556, value / sol.objective, tol=1e-4)


def _repro_gap_single(r: _Repro, seed: int, trials: int) -> None:
    n = 100
    print(f"gap-single: one offline vertex vs {n} unit-patience arrivals")
    instance = hard.gen_single_offline(n)
    best = AdvGreedyMatcher(solver_by_name("dp")).exact_value(instance)
    r.check("gap-single", "best-policy value 1-(1-1/100)^100",
            hard.single_offline_best_value(n), best, tol=1e-9)
    lp6 = benchmark_lp_value(instance)
    r.check("gap-single", "plain-LP objective", 1.0, lp6, tol=1e-7)
    r.check("gap-single", "ratio ~= 0.634", 0.6340, best / lp6, tol=5e-4)


def _repro_simplegreedy(r: _Repro, seed: int, trials: int) -> None:
    k, n, cap = 4, 100, 400
    print(f"simplegreedy: hard family k={k}, n={n} (late crowd capped at {cap})")
    exact = hard.simple_greedy_exact_value(k, n)
    instance = hard.gen_simple_greedy_hard(k, n, v0_cap=cap)
    report = simulate(instance, SimpleGreedyMatcher("first"),
                      SimConfig(seed=seed, trials=trials), threads=_threads())
    se = report.stddev / math.sqrt(report.trials)
    r.check("simplegreedy", f"Monte Carlo within 4 std errors ({trials} trials)",
            exact, report.mean, tol=4 * se + 1e-12)
    r.check("simplegreedy", "poisson tail constant (k=16)", 0.0997,
            hard.simple_greedy_poisson_limit(16), tol=5e-4)
    ratio = hard.simple_greedy_exact_value(16, 400) / 32.0
    r.check("simplegreedy", "ratio vs offline 2k at k=16 <= 0.56", None,
            ratio <= 0.56)
    print(f"  exact E[M] = {f6(exact)}, simulated {f6(report.mean)}"
          f" +- {f6(report.half_width)}; k=16 ratio {f6(ratio)}")


def _repro_unknown_patience(r: _Repro, seed: int, trials: int) -> None:
    m = 2
    print("unknown-patience: clairvoyant value grows while the LP bound stays put")
    prev_clair, prev_ratio = 0.0, math.inf
    for k in (2, 3, 4):
        clair = hard.clairvoyant_value(m, k)
        lp1 = hard.unknown_patience_lp_value(m, k)
        print(f"  k={k}: clairvoyant {f6(clair)}  attempt-LP {f6(lp1)}"
              f"  ratio {f6(lp1 / clair)}")
        r.check("unknown-patience", f"clairvoyant grows (k={k})", None,
                clair > prev_clair)
        r.check("unknown-patience", f"LP value <= 2 (k={k})", None, lp1 <= 2.0)
        r.check("unknown-patience", f"ratio decreases (k={k})", None,
                lp1 / clair < prev_ratio)
        prev_clair, prev_ratio = clair, lp1 / clair


def _repro_iid_guarantee(r: _Repro, seed: int, trials: int) -> None:
    bound_factor = 1.0 - 1.0 / math.e
    print("iid-guarantee: IID matcher vs its policy-LP bound on random instances")
    for i in range(5):
        instance = hard.gen_random_matching(9000 + i, m=4, n_types=3,
                                            arrival_kind="iid", max_theta=2, horizon=6)
        res = solve_prophet_lp(instance)
        matcher = iid_matcher(res)
        report = simulate(instance, matcher, SimConfig(seed=seed + i, trials=trials),
                          threads=_threads())
        r.check_at_least("iid-guarantee", f"instance {i}: mean >= (1-1/e)*LP - hw",
                         bound_factor * res.objective - report.half_width, report.mean)


_REPRO_TARGETS = {
    "tight-example": (_repro_tight_example, 0),
    "gap-single": (_repro_gap_single, 0),
    "simplegreedy": (_repro_simplegreedy, 100_000),
    "unknown-patience": (_repro_unknown_patience, 0),
    "iid-guarantee": (_repro_iid_guarantee, 20_000),
}


def cmd_repro(args) -> int:
    if args.trials is not None and args.trials < 1:
        raise StochmatchError("trials must be >= 1")
    fn, default_trials = _REPRO_TARGETS[args.target]
    trials = default_trials if args.trials is None else args.trials
    r = _Repro()
    fn(r, args.seed, trials)
    if args.csv:
        _emit_csv(r.rows, args.csv)
    print("FAIL" if r.failed else "PASS")
    return EXIT_FAIL if r.failed else EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="stochmatch",
                                description="online stochastic matching with patience")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("star-solve", help="solve one star probing instance")
    s.add_argument("instance")
    s.add_argument("--solver", choices=("dp", "hazard", "lp", "brute"), required=True)
    s.add_argument("--policy-out", default=None)
    s.set_defaults(fn=cmd_star_solve)

    s = sub.add_parser("lp", help="build and solve a named LP")
    s.add_argument("instance")
    s.add_argument("--which", choices=("lp1", "lp2", "lp6", "lpp"), required=True)
    s.add_argument("--dump", action="store_true", help="print the LP, one row per line")
    s.set_defaults(fn=cmd_lp)

    s = sub.add_parser("match-run", help="simulate an online matcher")
    s.add_argument("instance")
    s.add_argument("--algorithm", required=True,
                   choices=("adv-greedy", "prophet", "iid", "simple-greedy"))
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--trials", type=int, default=10_000)
    s.add_argument("--benchmark", default="auto",
                   choices=("auto", "lp2", "lp6", "lpp", "none"))
    s.add_argument("--star-solver", default=None,
                   choices=("dp", "hazard", "lp", "brute"))
    s.add_argument("--rule", default="first", choices=("first", "last"))
    s.add_argument("--csv", default=None)
    s.set_defaults(fn=cmd_match_run)

    s = sub.add_parser("gen", help="generate an instance family")
    s.add_argument("family", choices=("simplegreedy", "unknown-patience", "stochgap",
                                      "single-offline", "tight-example",
                                      "random-star", "random-matching"))
    s.add_argument("-k", type=int, default=2)
    s.add_argument("-n", type=int, default=4)
    s.add_argument("-m", type=int, default=2)
    s.add_argument("--eps", type=float, default=0.1)
    s.add_argument("--cap", type=int, default=None, help="late-crowd cap (simplegreedy)")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--patience", default="survival",
                   choices=("survival", "deterministic", "hazard"))
    s.add_argument("--arrivals", default="adversarial",
                   choices=("adversarial", "prophet", "iid"))
    s.add_argument("--theta", type=int, default=3)
    s.add_argument("-o", "--out", default=None)
    s.set_defaults(fn=cmd_gen)

    s = sub.add_parser("repro", help="re-run a reference scenario end to end")
    s.add_argument("target", choices=sorted(_REPRO_TARGETS))
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--trials", type=int, default=None)
    s.add_argument("--csv", default=None)
    s.set_defaults(fn=cmd_repro)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except InstanceFormatError as e:
        print(f"input error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except LpNumericalError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERICAL
    except CapabilityError as e:
        print(f"capability mismatch: {e}", file=sys.stderr)
        return EXIT_CAPABILITY
    except StochmatchError as e:
        print(f"input error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as e:  # an output path (-o, --csv, --policy-out); inputs raise above
        print(f"output error: {e}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
