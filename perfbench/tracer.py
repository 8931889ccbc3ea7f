"""Spans and counts at the package's layer boundaries, for the traced run.

All spans are recorded from the benchmark's side; nothing in the package
changes.  Three boundaries are covered:

* calls the benchmark makes into a layer's public function (the caller
  opens a span around each);
* ``StarSolver.solve``, through ``TracedStarSolver``, a subclass handed to
  the package through its public ``solver=``, ``solvers=`` and
  ``selector=`` parameters;
* ``stochmatch.lp.solve``, replaced by a recording wrapper for the duration
  of the traced run (``patched_lp_solve``).  Package code reaches the
  solver as ``lp.solve``, so the wrapper sees every solve.

Spans are kept in memory as ``[name, start, end, parent, attrs]`` and
written out when the run ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

from stochmatch import lp
from stochmatch.stars import StarSolver, solver_by_name


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.phase = "setup"
        # (family, problem, solution) for the residual figures; the run
        # stops keeping them after the first timed round, whose problems
        # every later round repeats
        self.lp_solutions: list[tuple[str, lp.LpProblem, lp.LpSolution]] = []
        self.keep_solutions = True
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        """Record one span; ``attrs`` may name the ``lp_family`` that
        ``lp.solve`` calls inside it belong to."""
        attrs["phase"] = self.phase
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, attrs]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            yield rec
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def enclosing(self, key: str):
        """The innermost open span's value for ``key``, or None."""
        for i in reversed(self._stack):
            value = self.spans[i][4].get(key)
            if value is not None:
                return value
        return None


def traced(tracer: Tracer | None, name: str, **attrs):
    """A span when tracing, a no-op context otherwise."""
    return tracer.span(name, **attrs) if tracer is not None else nullcontext()


@dataclass(frozen=True)
class TracedStarSolver(StarSolver):
    """A star solver that records a span around every solve, including the
    solves reached through ``policy_for`` during pricing."""

    tracer: Tracer | None = field(default=None, compare=False)

    def solve(self, star):
        with self.tracer.span("stars.solve"):
            return super().solve(star)


def star_solver(name: str, tracer: Tracer | None) -> StarSolver:
    solver = solver_by_name(name)
    if tracer is None:
        return solver
    return TracedStarSolver(solver.name, solver.kappa, tracer)


@contextmanager
def patched_lp_solve(tracer: Tracer):
    """Route ``stochmatch.lp.solve`` through a span that records the LP
    family (from the enclosing span), the row count and the iterations."""
    original = lp.solve

    def solve(problem, *args, **kwargs):
        family = tracer.enclosing("lp_family") or "other"
        with tracer.span("lp.solve", family=family, rows=problem.n_rows) as rec:
            sol = original(problem, *args, **kwargs)
        rec[4]["iterations"] = sol.iterations
        if tracer.keep_solutions:
            tracer.lp_solutions.append((family, problem, sol))
        return sol

    lp.solve = solve
    try:
        yield
    finally:
        lp.solve = original
