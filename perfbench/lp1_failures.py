"""List the LP1 ops of the ``lp-solve`` workload that fail their check.

    env OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1 \\
        python3 perfbench/lp1_failures.py

For every fixed LP1 star of the workload, solves the attempt-indexed LP
with ``stochmatch.lp.solve`` and with HiGHS, and prints the stars whose
``lp.solve`` objective is off by more than the check's tolerance or whose
solution is primal infeasible.  This rebuilds the list in README.md.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from stochmatch import lp  # noqa: E402
from stochmatch.hard_instances import gen_random_star  # noqa: E402
from stochmatch.stars import build_arbitrary_patience_lp  # noqa: E402

import checks  # noqa: E402
from workloads import LpSolve  # noqa: E402


def main() -> int:
    print("n seed lp.solve HiGHS primal_residual")
    total = failed = 0
    for n, seeds in LpSolve.LP1_STARS:
        for seed in seeds:
            problem = build_arbitrary_patience_lp(gen_random_star(seed, n, "survival"))
            sol = lp.solve(problem)
            residual = lp.solution_residuals(problem, sol)["primal"]
            reference = checks.highs_objective(problem)
            total += 1
            if not checks.lp_solution_ok(sol.objective, residual, reference):
                failed += 1
                print(f"{n} {seed} {sol.objective:.6f} {reference:.6f} {residual:.3g}")
    print(f"{failed} of {total} LP1 ops fail")
    return 0


if __name__ == "__main__":
    sys.exit(main())
