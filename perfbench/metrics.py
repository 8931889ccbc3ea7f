"""Metric names and units, and the per-layer figures drawn from the spans.

``BENCHMARK.json`` at the repository root lists the same names and units.
"""

from __future__ import annotations

from collections import Counter

from stochmatch import lp

from tracer import Tracer

GROUPS = ("simple-greedy", "iid", "prophet", "adv-greedy")
LP_FAMILIES = ("lp1", "lp2", "master")
EXACT_MATCHERS = ("adv-greedy", "simple-greedy", "policy-lp")
MODULES = ("cli", "hard_instances", "instances", "lp", "matching", "simulate", "stars")

END_TO_END = {
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    **{f"simulate.trial_us.{g}": "us/trial" for g in GROUPS},
    "simulate.rng_setup_us": "us/trial",
    **{f"matching.walk_us.{g}": "us/trial" for g in GROUPS},
    **{f"matching.probes_per_trial.{k}": "count/trial" for k in ("real", "simulated", "skip")},
    "matching.matches_per_probe": "ratio",
    "stars.solve_calls": "count/round",
    "stars.solve_ms": "ms",
    **{f"lp.solve_ms.{f}": "ms" for f in LP_FAMILIES},
    **{f"lp.iterations.{f}": "count" for f in LP_FAMILIES},
    **{f"lp.max_primal_residual.{f}": "residual" for f in LP_FAMILIES},
    "matching.colgen_ms": "ms",
    "matching.colgen_master_solves": "count",
    "matching.colgen_columns": "count",
    "matching.lp2_build_ms": "ms",
    "matching.lp2_rows": "count",
    "stars.lp1_build_ms": "ms",
    **{f"matching.exact_ms.{k}": "ms" for k in EXACT_MATCHERS},
    "stars.randomized_exact_ms": "ms",
    "simulate.offline_opt_ms": "ms",
    "setup.import_s": "s",
    "hard_instances.gen_s": "s",
    "setup.precompute_s": "s",
    "setup.warmup_s": "s",
    **{f"{mod}.source_lines": "lines" for mod in MODULES},
    "trace.wall_s": "s",
}


def _mean(values) -> float:
    """Mean, or 0 where the layer was never called."""
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def span_metrics(tracer: Tracer, rounds: int) -> dict:
    """Per-layer figures from the spans of setup and the timed rounds.

    Per-call means cover every call; ``stars.solve_calls`` counts the
    solves inside the timed rounds only, per round.
    """
    spans = tracer.spans
    lp_children = Counter(s[3] for s in spans if s[0] == "lp.solve")

    def named(name, **attrs):
        return [s for s in spans
                if s[0] == name and all(s[4].get(k) == v for k, v in attrs.items())]

    def mean_ms(found):
        return _mean((s[2] - s[1]) * 1e3 for s in found)

    out = {}
    for g in GROUPS:
        sims = named("simulate.simulate", group=g, phase="timed")
        trials = sum(s[4]["trials"] for s in sims)
        out[f"simulate.trial_us.{g}"] = (
            sum(s[2] - s[1] for s in sims) / trials * 1e6 if trials else 0.0)
    stars = named("stars.solve")
    out["stars.solve_calls"] = sum(s[4]["phase"] == "timed" for s in stars) / rounds
    out["stars.solve_ms"] = mean_ms(stars)
    for fam in LP_FAMILIES:
        solves = named("lp.solve", family=fam)
        out[f"lp.solve_ms.{fam}"] = mean_ms(solves)
        out[f"lp.iterations.{fam}"] = _mean(s[4]["iterations"] for s in solves)
        out[f"lp.max_primal_residual.{fam}"] = max(
            (lp.solution_residuals(problem, sol)["primal"]
             for f, problem, sol in tracer.lp_solutions
             if f == fam and sol.status == lp.OPTIMAL), default=0.0)
    colgen = named("matching.solve_prophet_lp")
    out["matching.colgen_ms"] = mean_ms(colgen)
    out["matching.colgen_master_solves"] = _mean(
        lp_children[i] for i, s in enumerate(spans) if s[0] == "matching.solve_prophet_lp")
    out["matching.colgen_columns"] = _mean(s[4]["columns"] for s in colgen)
    out["matching.lp2_build_ms"] = mean_ms(named("matching.build_benchmark_lp"))
    out["matching.lp2_rows"] = _mean(s[4]["rows"] for s in named("lp.solve", family="lp2"))
    out["stars.lp1_build_ms"] = mean_ms(named("stars.build_arbitrary_patience_lp"))
    for k in EXACT_MATCHERS:
        out[f"matching.exact_ms.{k}"] = mean_ms(named("matching.exact_value", matcher=k))
    out["stars.randomized_exact_ms"] = mean_ms(named("stars.eval_randomized_exact"))
    out["simulate.offline_opt_ms"] = mean_ms(named("simulate.brute_force_offline_opt"))
    return out
