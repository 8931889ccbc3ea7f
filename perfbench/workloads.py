"""The three workloads: inputs made from the workload seed, the timed ops,
the checks on their outputs, and the traced run's extra probes.

Each workload puts most of its work on one layer:

* ``mc-trials``: Monte Carlo trials (``simulate`` and the matchers);
* ``lp-solve``: LP solves (the dense simplex in ``lp``);
* ``exact-eval``: exact outcome expansions (the memoised DPs).

A round is a fixed list of ops; a run repeats whole rounds with the same
inputs, so every repeat of an op must return what its first run returned.
Seeds of instances and of simulations derive from the workload seed by
``derive``; the LP1 stars of ``lp-solve`` are fixed instead, because some of
them fail today and a failure must not depend on the seed.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from stochmatch import hard_instances as hard
from stochmatch import lp
from stochmatch.instances import MatchingInstance, PatienceModel
from stochmatch.matching import (
    AdvGreedyMatcher,
    RandomTape,
    SimpleGreedyMatcher,
    build_benchmark_lp,
    iid_matcher,
    prophet_matcher,
    solve_prophet_lp,
)
from stochmatch.simulate import SimConfig, brute_force_offline_opt, simulate, trial_generator
from stochmatch.stars import (
    brute_force_optimal,
    build_arbitrary_patience_lp,
    eval_randomized_exact,
    solve_arbitrary_patience,
)

import checks
from metrics import GROUPS
from tracer import Tracer, star_solver, traced


def derive(seed: int, *path: int) -> int:
    """A 32-bit seed for one input or op: a pure function of the workload
    seed and the input's path (group, index)."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


def with_patience(instance: MatchingInstance, theta: int) -> MatchingInstance:
    """The instance with every type's patience set to ``theta``, so that
    the size of its exact expansions depends on its shape, not on the
    patiences the generator drew."""
    return MatchingInstance.make(instance.probs, PatienceModel.deterministic(theta),
                                 instance.arrivals, edge_weights=instance.edge_weights)


@dataclass
class Op:
    kind: str
    run: Callable[[], object]


@dataclass
class Verdict:
    ok: list[bool]      # per op of a round, from the first round's results
    problems: list[str]  # failed group checks; any entry makes the run incorrect


def solve_policy_lp(instance, tracer: Tracer | None):
    """Column generation, traced as one span whose master solves are
    ``lp.solve`` children."""
    with traced(tracer, "matching.solve_prophet_lp", lp_family="master") as rec:
        result = solve_prophet_lp(instance, solvers=tracer and star_solver("dp", tracer))
    if rec is not None:
        rec[4]["columns"] = result.n_columns
    return result


def exact_value(matcher, instance, label: str, tracer: Tracer | None) -> float:
    with traced(tracer, "matching.exact_value", matcher=label):
        return matcher.exact_value(instance)


class Workload:
    name = ""

    def generate(self, seed: int) -> dict:
        """Inputs, from ``hard_instances`` only."""
        raise NotImplementedError

    def precompute(self, inputs: dict, tracer: Tracer | None) -> dict:
        """The work a user pays once before the first op."""
        return dict(inputs)

    def warmup(self, state: dict, tracer: Tracer | None) -> None:
        """Run each kind of op once, untimed."""
        seen = set()
        for op in self.ops(state, tracer):
            if op.kind not in seen:
                seen.add(op.kind)
                op.run()

    def ops(self, state: dict, tracer: Tracer | None) -> list[Op]:
        raise NotImplementedError

    def check(self, state: dict, results: list) -> Verdict:
        """Verdicts on one round's results."""
        raise NotImplementedError

    @staticmethod
    def same(a, b) -> bool:
        """Whether a repeat of an op returned what its first run returned."""
        raise NotImplementedError

    def probe(self, state: dict) -> dict:
        """Extra per-layer figures for the traced run."""
        return {}


# ---------------------------------------------------------------------------
# mc-trials
# ---------------------------------------------------------------------------

def _simulate(tracer, group, instance, matcher, config):
    with traced(tracer, "simulate.simulate", group=group, trials=config.trials):
        return simulate(instance, matcher, config, threads=1)


class McTrials(Workload):
    """One op is one ``simulate`` call.  Trial counts per group are sized
    so that ops take about the same time."""

    name = "mc-trials"
    SG_FAMILY = (4, 100, 400)        # k, n, cap of the late crowd
    SG_OPS, SG_TRIALS = 8, 75
    IID_SHAPE = (4, 3, 6)            # m, types, horizon; patience 1..2
    IID_INSTANCES, IID_TRIALS = 16, 600
    PROPHET_SHAPE = (5, 4, 6)
    PROPHET_INSTANCES, PROPHET_TRIALS = 16, 600
    ADV_SHAPE = (10, 60)             # patience 1..3
    ADV_INSTANCES, ADV_OPS_EACH, ADV_TRIALS = 3, 3, 150

    def generate(self, seed):
        m, n, horizon = self.IID_SHAPE
        iid = [hard.gen_random_matching(derive(seed, 1, i), m, n, "iid",
                                        max_theta=2, horizon=horizon)
               for i in range(self.IID_INSTANCES)]
        m, n, horizon = self.PROPHET_SHAPE
        prophet = [hard.gen_random_matching(derive(seed, 2, i), m, n, "prophet",
                                            max_theta=2, horizon=horizon)
                   for i in range(self.PROPHET_INSTANCES)]
        m, n = self.ADV_SHAPE
        adv = [hard.gen_random_matching(derive(seed, 3, i), m, n, "adversarial")
               for i in range(self.ADV_INSTANCES)]
        k, n, cap = self.SG_FAMILY
        return {"seed": seed, "sg": hard.gen_simple_greedy_hard(k, n, v0_cap=cap),
                "iid": iid, "prophet": prophet, "adv": adv}

    def precompute(self, inputs, tracer):
        state = dict(inputs)
        state["iid_lp"] = [solve_policy_lp(inst, tracer) for inst in inputs["iid"]]
        state["prophet_lp"] = [solve_policy_lp(inst, tracer) for inst in inputs["prophet"]]
        state["sg_matcher"] = SimpleGreedyMatcher("first")
        state["iid_matchers"] = [iid_matcher(res) for res in state["iid_lp"]]
        state["prophet_matchers"] = [prophet_matcher(res) for res in state["prophet_lp"]]
        state["adv_matchers"] = [AdvGreedyMatcher(tracer and star_solver("dp", tracer))
                                 for _ in inputs["adv"]]
        return state

    def warmup(self, state, tracer):
        """Fill the AdvGreedy plan caches with every plan the ops need."""
        for op in self.ops(state, tracer):
            if op.kind == "adv-greedy":
                op.run()

    def _plan(self, state):
        """(group, instance, matcher, config) per op, groups interleaved."""
        seed = state["seed"]
        groups = [
            [("simple-greedy", state["sg"], state["sg_matcher"],
              SimConfig(derive(seed, 11, j), self.SG_TRIALS)) for j in range(self.SG_OPS)],
            [("iid", inst, mt, SimConfig(derive(seed, 12, i), self.IID_TRIALS))
             for i, (inst, mt) in enumerate(zip(state["iid"], state["iid_matchers"]))],
            [("prophet", inst, mt, SimConfig(derive(seed, 13, i), self.PROPHET_TRIALS))
             for i, (inst, mt) in enumerate(zip(state["prophet"], state["prophet_matchers"]))],
            [("adv-greedy", inst, mt, SimConfig(derive(seed, 14, i, j), self.ADV_TRIALS))
             for i, (inst, mt) in enumerate(zip(state["adv"], state["adv_matchers"]))
             for j in range(self.ADV_OPS_EACH)],
        ]
        plan = []
        for k in range(max(len(g) for g in groups)):
            plan.extend(g[k] for g in groups if k < len(g))
        return plan

    def ops(self, state, tracer):
        return [Op(group, partial(_simulate, tracer, group, inst, mt, config))
                for group, inst, mt, config in self._plan(state)]

    @staticmethod
    def same(a, b):
        return (a.mean == b.mean and a.stddev == b.stddev
                and np.array_equal(a.match_freq, b.match_freq))

    def check(self, state, results):
        by_group = {g: [] for g in GROUPS}
        for (group, inst, _, _), report in zip(self._plan(state), results):
            by_group[group].append((inst, report))
        problems = []

        def pooled(group):
            return checks.pooled([r for _, r in by_group[group]])

        mean, se = pooled("simple-greedy")
        k, n, _ = self.SG_FAMILY
        expected = checks.simple_greedy_closed_form(k, n)
        if not checks.within_se(mean, expected, se):
            problems.append(f"simple-greedy mean {mean} vs closed form {expected} (se {se})")

        for group, factor, lps in (("iid", checks.IID_FACTOR, state["iid_lp"]),
                                   ("prophet", checks.PROPHET_FACTOR, state["prophet_lp"])):
            mean, se = pooled(group)
            lp_mean = float(np.mean([res.objective for res in lps]))
            if not checks.guarantee_holds(mean, se, factor, lp_mean):
                problems.append(f"{group} mean {mean} below {factor:.4f} x LP {lp_mean}")
            matchers = state[f"{group}_matchers"]
            exact = float(np.mean([mt.exact_value(inst)
                                   for inst, mt in zip(state[group], matchers)]))
            if not checks.within_se(mean, exact, se):
                problems.append(f"{group} mean {mean} vs exact {exact} (se {se})")

        mean, se = pooled("adv-greedy")
        exact_of = {id(inst): AdvGreedyMatcher().exact_value(inst) for inst in state["adv"]}
        exact = float(np.mean([exact_of[id(inst)] for inst, _ in by_group["adv-greedy"]]))
        if not checks.within_se(mean, exact, se):
            problems.append(f"adv-greedy mean {mean} vs exact {exact} (se {se})")
        return Verdict([True] * len(results), problems)

    def probe(self, state):
        """Split trials into RNG setup and the matcher walk, and count probe
        kinds, on every group's first op (a fixed trial sample)."""
        out = {}
        setup_s = walk_trials = 0
        kinds = {"real": 0, "simulated": 0, "skip": 0}
        matches = trials = 0
        first = {}
        for group, inst, mt, config in self._plan(state):
            first.setdefault(group, (inst, mt, config))
        for group, (inst, mt, config) in first.items():
            walk = 0.0
            for i in range(config.trials):
                t0 = time.perf_counter()
                tape = RandomTape(trial_generator(config.seed, i))
                t1 = time.perf_counter()
                mt(inst, tape)
                t2 = time.perf_counter()
                setup_s += t1 - t0
                walk += t2 - t1
            walk_trials += config.trials
            out[f"matching.walk_us.{group}"] = walk / config.trials * 1e6
            for i in range(config.trials):
                state_i = mt(inst, RandomTape(trial_generator(config.seed, i)), trace=True)
                for rec in state_i.trace:
                    kinds[rec.kind] += 1
                matches += len(state_i.matched)
            trials += config.trials
        out["simulate.rng_setup_us"] = setup_s / walk_trials * 1e6
        for kind, count in kinds.items():
            out[f"matching.probes_per_trial.{kind}"] = count / trials
        probes = kinds["real"] + kinds["simulated"]
        out["matching.matches_per_probe"] = matches / probes if probes else 0.0
        return out


# ---------------------------------------------------------------------------
# lp-solve
# ---------------------------------------------------------------------------

def _solve_lp1(tracer, star):
    with traced(tracer, "op.lp1", lp_family="lp1"):
        with traced(tracer, "stars.build_arbitrary_patience_lp"):
            problem = build_arbitrary_patience_lp(star)
        return lp.solve(problem)


def _solve_lp2(tracer, instance):
    with traced(tracer, "op.lp2", lp_family="lp2"):
        with traced(tracer, "matching.build_benchmark_lp"):
            problem = build_benchmark_lp(instance, include_star_constraints=True,
                                         selector=tracer and star_solver("dp", tracer))
        return lp.solve(problem)


class LpSolve(Workload):
    """Three kinds of op: LP1 (``lp.solve`` of the attempt-indexed LP of a
    star), LP2 (``lp.solve`` of the edge-probe LP with star-cap rows) and
    the policy LP by column generation."""

    name = "lp-solve"
    # (n, star seeds): fixed, not derived from the workload seed
    LP1_STARS = ((12, range(60)), (15, range(40)))
    LP2_SHAPE, LP2_INSTANCES = (6, 4), 16
    COLGEN_SHAPE, COLGEN_INSTANCES = (8, 6, 8), 10   # per arrival kind

    def generate(self, seed):
        stars = [hard.gen_random_star(s, n, "survival")
                 for n, seeds in self.LP1_STARS for s in seeds]
        m, n = self.LP2_SHAPE
        lp2 = [hard.gen_random_matching(derive(seed, 4, i), m, n, "adversarial")
               for i in range(self.LP2_INSTANCES)]
        m, n, horizon = self.COLGEN_SHAPE
        colgen = [hard.gen_random_matching(derive(seed, 5, j, i), m, n, kind, horizon=horizon)
                  for j, kind in enumerate(("iid", "prophet"))
                  for i in range(self.COLGEN_INSTANCES)]
        return {"stars": stars, "lp2": lp2, "colgen": colgen}

    def ops(self, state, tracer):
        return ([Op("lp1", partial(_solve_lp1, tracer, star)) for star in state["stars"]]
                + [Op("lp2", partial(_solve_lp2, tracer, inst)) for inst in state["lp2"]]
                + [Op("colgen", partial(solve_policy_lp, inst, tracer))
                   for inst in state["colgen"]])

    @staticmethod
    def same(a, b):
        if isinstance(a, lp.LpSolution):
            return (a.status == b.status and a.objective == b.objective
                    and np.array_equal(a.x, b.x))
        return a.objective == b.objective and a.n_columns == b.n_columns

    def check(self, state, results):
        """Ops return only the solution, so the problem is built again
        here (building is deterministic)."""
        ok = []
        inputs = ([(build_arbitrary_patience_lp, star) for star in state["stars"]]
                  + [(partial(build_benchmark_lp, include_star_constraints=True), inst)
                     for inst in state["lp2"]]
                  + [(None, inst) for inst in state["colgen"]])
        for (build, inp), result in zip(inputs, results):
            if isinstance(result, Exception):
                ok.append(False)
            elif build is not None:
                problem = build(inp)
                residual = (lp.solution_residuals(problem, result)["primal"]
                            if result.status == lp.OPTIMAL else math.inf)
                ok.append(checks.lp_solution_ok(result.objective, residual,
                                                checks.highs_objective(problem)))
            else:
                ok.append(checks.colgen_ok(result.objective, result.status,
                                           checks.full_policy_lp_objective(inp)))
        return Verdict(ok, [])


# ---------------------------------------------------------------------------
# exact-eval
# ---------------------------------------------------------------------------

def _randomized_batch(tracer, batch):
    out = []
    for star, rsp in batch:
        with traced(tracer, "stars.eval_randomized_exact"):
            out.append(eval_randomized_exact(star, rsp))
    return out


def _offline_opt(tracer, instance):
    with traced(tracer, "simulate.brute_force_offline_opt"):
        return brute_force_offline_opt(instance)


class ExactEval(Workload):
    """Exact expected values, no trials drawn.  Every matching instance has
    patience 2 for every type; a fresh greedy matcher per op makes each
    op solve its own plans."""

    name = "exact-eval"
    THETA = 2
    GREEDY_SHAPE, GREEDY_INSTANCES = (9, 10), 20
    POLICY_SHAPE, POLICY_INSTANCES = (7, 4, 10), 20   # m, types, horizon; per kind
    OFFLINE_SHAPE, OFFLINE_INSTANCES = (4, 3), 10
    STAR_ITEMS, STAR_BATCHES, STAR_BATCH = 6, 2, 100
    SIM_TRIALS = 2000  # the simulations the greedy exact values are checked against

    def generate(self, seed):
        def matching(path, i, m, n, kind, **kw):
            return with_patience(hard.gen_random_matching(derive(seed, path, i), m, n, kind, **kw),
                                 self.THETA)

        m, n = self.GREEDY_SHAPE
        greedy = [matching(6, i, m, n, "adversarial") for i in range(self.GREEDY_INSTANCES)]
        m, n, horizon = self.POLICY_SHAPE
        policy = {kind: [matching(7 + j, i, m, n, kind, horizon=horizon)
                         for i in range(self.POLICY_INSTANCES)]
                  for j, kind in enumerate(("iid", "prophet"))}
        m, n = self.OFFLINE_SHAPE
        tiny = [matching(9, i, m, n, "adversarial") for i in range(self.OFFLINE_INSTANCES)]
        stars = [hard.gen_random_star(derive(seed, 10, i), self.STAR_ITEMS, "survival")
                 for i in range(self.STAR_BATCHES * self.STAR_BATCH)]
        return {"seed": seed, "greedy": greedy, "iid": policy["iid"],
                "prophet": policy["prophet"], "tiny": tiny, "stars": stars}

    def precompute(self, inputs, tracer):
        state = dict(inputs)
        for kind, make in (("iid", iid_matcher), ("prophet", prophet_matcher)):
            lps = [solve_policy_lp(inst, tracer) for inst in inputs[kind]]
            state[f"{kind}_lp"] = lps
            state[f"{kind}_matchers"] = [make(res) for res in lps]
        policies = []
        for star in inputs["stars"]:
            with traced(tracer, "stars.solve_arbitrary_patience", lp_family="lp1"):
                policies.append(solve_arbitrary_patience(star).policy)
        b = self.STAR_BATCH
        pairs = list(zip(inputs["stars"], policies))
        state["batches"] = [pairs[i:i + b] for i in range(0, len(pairs), b)]
        return state

    def _plan(self, state):
        """(kind, input, LP result or None) per op."""
        plan = []
        for inst in state["greedy"]:
            plan += [("adv-greedy", inst, None), ("simple-greedy", inst, None)]
        for kind in ("iid", "prophet"):
            plan += [(kind, inst, (res, mt)) for inst, res, mt in
                     zip(state[kind], state[f"{kind}_lp"], state[f"{kind}_matchers"])]
        plan += [("offline-opt", inst, None) for inst in state["tiny"]]
        plan += [("randomized", batch, None) for batch in state["batches"]]
        return plan

    def ops(self, state, tracer):
        def greedy(make, label, inst):
            return exact_value(make(), inst, label, tracer)

        makers = {"adv-greedy": partial(AdvGreedyMatcher, star_solver("dp", tracer)),
                  "simple-greedy": SimpleGreedyMatcher}
        ops = []
        for kind, inp, extra in self._plan(state):
            if kind in makers:
                run = partial(greedy, makers[kind], kind, inp)
            elif kind in ("iid", "prophet"):
                run = partial(exact_value, extra[1], inp, "policy-lp", tracer)
            elif kind == "offline-opt":
                run = partial(_offline_opt, tracer, inp)
            else:
                run = partial(_randomized_batch, tracer, inp)
            ops.append(Op(kind, run))
        return ops

    @staticmethod
    def same(a, b):
        return a == b

    def check(self, state, results):
        sims = {"adv-greedy": [], "simple-greedy": []}
        exacts = {"adv-greedy": [], "simple-greedy": []}
        ok = []
        for k, ((kind, inp, extra), value) in enumerate(zip(self._plan(state), results)):
            if isinstance(value, Exception):
                ok.append(False)
            elif kind in sims:
                matcher = (AdvGreedyMatcher(star_solver("dp", None)) if kind == "adv-greedy"
                           else SimpleGreedyMatcher())
                config = SimConfig(derive(state["seed"], 20, k), self.SIM_TRIALS)
                sims[kind].append(simulate(inp, matcher, config, threads=1))
                exacts[kind].append(value)
                ok.append(True)
            elif kind in ("iid", "prophet"):
                factor = checks.IID_FACTOR if kind == "iid" else checks.PROPHET_FACTOR
                ok.append(checks.exact_guarantee_ok(value, factor, extra[0].objective))
            elif kind == "offline-opt":
                greedy = AdvGreedyMatcher(star_solver("dp", None)).exact_value(inp)
                ok.append(checks.optimum_chain_ok(
                    greedy, value,
                    checks.highs_objective(build_benchmark_lp(inp, True)),
                    checks.highs_objective(build_benchmark_lp(inp, False))))
            else:
                ok.append(all(
                    checks.randomized_value_ok(
                        v, checks.highs_objective(build_arbitrary_patience_lp(star)),
                        brute_force_optimal(star).expected_value)
                    for (star, _), v in zip(inp, value)))
        problems = []
        for label in sims:
            mean, se = checks.pooled(sims[label])
            exact = float(np.mean(exacts[label]))
            if not checks.within_se(mean, exact, se):
                problems.append(f"{label} exact {exact} vs simulated {mean} (se {se})")
        return Verdict(ok, problems)


WORKLOADS = {w.name: w for w in (McTrials(), LpSolve(), ExactEval())}
