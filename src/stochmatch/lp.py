"""Dense exact LP solver with dual values and incremental column addition.

All linear programs in this package are small and dense (hundreds of rows),
and the probing algorithms consume both primal values and row duals, so a
self-contained revised simplex is used: Dantzig pricing with a Bland's-rule
anti-cycling fallback, and a two-phase start from the identity basis of
slacks and artificials.  The dense basis inverse is kept by in-place rank-1
updates, carried from phase 1 into phase 2, and refactorized periodically.

The ratio test is Harris's two-pass test (Harris 1973, as practised in
HiGHS, Huangfu & Hall 2018): a basic variable may fall ``HARRIS_TOL``
(relative to the right-hand sides) below zero in exchange for the largest
pivot among the rows that block within that slack, and the step is never
negative.  A variable that leaves the basis below zero keeps that value as
a nonbasic, so basic values always equal the inverse times the right-hand
side and no tolerance is silently clipped away.  In Bland mode a pivot
below ``REL_PIVOT_TOL`` times the largest candidate is taken only when no
other row blocks.

Every ``optimal`` answer carries a certificate: x and the duals come from
two LU solves with the final basis, and ``solve`` raises
``LpNumericalError`` unless the primal residual of ``solution_residuals``
is at most ``CERT_TOL * (1 + max|b|)`` and no dual has the wrong sign by
more than ``DUAL_TOL * (1 + max|c|)``.  Pivoting is deterministic, so
repeated solves of the same problem return bit-identical solutions.

Problems are stated as maximization; rows may be ``<=``, ``=`` or ``>=`` and
variables carry individual bounds.  Reported duals refer to the rows as
given: in a maximization, a binding ``<=`` row has a nonnegative dual and a
binding ``>=`` row a nonpositive one.  A problem with no rows and no boxed
variable takes the same two phases with an empty basis: each variable stays
at its finite bound (a free one at 0) unless its cost lets it enter, and
then the problem is unbounded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .instances import CapacityError, LpNumericalError

FEAS_TOL = 1e-8       # phase-1 feasibility and degenerate steps
OPT_TOL = 1e-9        # reduced-cost optimality
PIVOT_TOL = 1e-10     # smallest acceptable pivot element
REL_PIVOT_TOL = 1e-7  # Bland mode: smallest pivot relative to the largest candidate
# Right-hand-side tolerances scale with 1 + max|b| over the standard form's
# rows (shifted by finite bounds) and bound ranges.
HARRIS_TOL = 1e-10    # infeasibility the ratio test may trade for a larger pivot
CERT_TOL = 1e-9       # largest certified primal residual
DUAL_TOL = 1e-7       # largest certified wrong-signed dual, relative to 1 + max|c|
REFACTOR_EVERY = 100
MAX_DENSE_ENTRIES = 30_000_000  # desk scale; protects the dense representation
ITERATIONS_BASE = 5000    # simplex pivots allowed per phase: the base,
ITERATIONS_PER_DIM = 60   # plus this many per standard-form row and column

LE, EQ, GE = "<=", "=", ">="

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass(frozen=True, eq=False)
class LpProblem:
    """``max c.x  s.t.  A x (senses) b,  lb <= x <= ub``."""

    c: np.ndarray
    A: np.ndarray
    senses: tuple[str, ...]
    b: np.ndarray
    lb: np.ndarray
    ub: np.ndarray

    @staticmethod
    def make(c, A, senses, b, lb=None, ub=None) -> "LpProblem":
        c = np.asarray(c, dtype=float)
        A = np.asarray(A, dtype=float)
        if A.size == 0:
            A = A.reshape((len(senses) if senses else 0, len(c)))
        b = np.asarray(b, dtype=float)
        n = len(c)
        if A.shape != (len(b), n):
            raise ValueError(f"A has shape {A.shape}, expected ({len(b)}, {n})")
        senses = tuple(senses)
        if any(s not in (LE, EQ, GE) for s in senses):
            raise ValueError("row senses must be one of <=, =, >=")
        lb = np.zeros(n) if lb is None else np.asarray(lb, dtype=float)
        ub = np.full(n, np.inf) if ub is None else np.asarray(ub, dtype=float)
        if not (np.isfinite(c).all() and np.isfinite(A).all() and np.isfinite(b).all()):
            raise ValueError("c, A and b must be finite")
        if np.isnan(lb).any() or np.isnan(ub).any():
            raise ValueError("bounds must not be NaN")
        if np.any(lb > ub):
            raise ValueError("lower bound exceeds upper bound")
        return LpProblem(c=c, A=A, senses=senses, b=b, lb=lb, ub=ub)

    @property
    def n_vars(self) -> int:
        return len(self.c)

    @property
    def n_rows(self) -> int:
        return len(self.b)


@dataclass(frozen=True)
class LpSolution:
    status: str
    x: np.ndarray | None = None
    duals: np.ndarray | None = None
    objective: float | None = None
    dual_objective: float | None = None
    iterations: int = 0


def add_column(problem: LpProblem, obj_coeff: float, column) -> LpProblem:
    """Problem with one extra variable appended, with bounds [0, inf)."""
    column = np.asarray(column, dtype=float)
    if column.shape != (problem.n_rows,):
        raise ValueError(f"column has length {column.shape}, expected {problem.n_rows}")
    if not (np.isfinite(column).all() and np.isfinite(obj_coeff)):
        raise ValueError("column and objective coefficient must be finite")
    return LpProblem(
        c=np.append(problem.c, float(obj_coeff)),
        A=np.hstack([problem.A, column[:, None]]),
        senses=problem.senses,
        b=problem.b,
        lb=np.append(problem.lb, 0.0),
        ub=np.append(problem.ub, np.inf),
    )


# ---------------------------------------------------------------------------
# Standard-form conversion
# ---------------------------------------------------------------------------

class _Standardized:
    """max c.x, A x = b, x >= 0, b >= 0, plus bookkeeping to map back.

    Columns: structural (a variable with a finite lower bound is shifted to
    it, one with only a finite upper bound is reflected, a free one is split
    in two), then one slack per inequality row, then one artificial per row.
    A variable with both bounds finite gets an extra ``<=`` row.  The slack
    or artificial chosen per row by ``basis_start`` is a unit column, so the
    starting basis matrix is the identity.
    """

    def __init__(self, p: LpProblem):
        m0, n0 = p.n_rows, p.n_vars
        has_lb, has_ub = np.isfinite(p.lb), np.isfinite(p.ub)
        free = ~has_lb & ~has_ub
        width = np.where(free, 2, 1)
        # internal structural column k stands for sign[k] * (x[orig[k]] - base)
        orig = np.repeat(np.arange(n0), width)
        first = np.cumsum(width) - width
        sign = np.where(has_lb | free, 1.0, -1.0)[orig]
        sign[first[free] + 1] = -1.0
        base = np.where(has_lb, p.lb, np.where(has_ub, p.ub, 0.0))
        boxed = has_lb & has_ub
        n_struct, m = len(orig), m0 + int(np.count_nonzero(boxed))
        senses = np.array(p.senses, dtype="U2")

        # a >= row is negated, then any row with a negative right-hand side
        row_sign = np.ones(m)
        row_sign[:m0][senses == GE] = -1.0
        rhs = np.concatenate([p.b - p.A @ base, (p.ub - p.lb)[boxed]]) * row_sign
        row_scale = np.where(rhs < 0, -1.0, 1.0)
        flip = row_sign * row_scale
        slack_rows = np.concatenate([(senses != EQ).nonzero()[0], np.arange(m0, m)])
        art0 = n_struct + len(slack_rows)

        A = np.zeros((m, art0 + m))
        np.multiply(p.A[:, orig] * sign, flip[:m0, None], out=A[:m0, :n_struct])
        A[np.arange(m0, m), first[boxed]] = 1.0
        A[slack_rows, n_struct + np.arange(len(slack_rows))] = row_scale[slack_rows]
        A[np.arange(m), art0 + np.arange(m)] = 1.0

        self.n0, self.m0 = n0, m0
        self.base, self.orig, self.sign = base, orig, sign
        self.row_sign, self.row_scale = row_sign, row_scale
        self.A, self.b = A, rhs * row_scale
        self.n_struct, self.art0 = n_struct, art0
        self.slack_of_row = np.full(m, -1)
        self.slack_of_row[slack_rows] = n_struct + np.arange(len(slack_rows))
        self.c = np.zeros(A.shape[1])
        self.c[:n_struct] = p.c[orig] * sign
        self.const = float(np.dot(p.c, base))

    def basis_start(self) -> np.ndarray:
        slack_ok = (self.slack_of_row >= 0) & (self.row_scale > 0)
        return np.where(slack_ok, self.slack_of_row, self.art0 + np.arange(len(self.b)))

    def x_original(self, x_int: np.ndarray) -> np.ndarray:
        return self.base + np.bincount(self.orig, weights=self.sign * x_int,
                                       minlength=self.n0)

    def duals_original(self, y: np.ndarray) -> np.ndarray:
        return self.row_sign[: self.m0] * self.row_scale[: self.m0] * y[: self.m0]


# ---------------------------------------------------------------------------
# Revised simplex core
# ---------------------------------------------------------------------------

class _Basis:
    """Simplex state shared by both phases.

    ``cols`` are the basic columns, ``inv`` the explicit basis inverse and
    ``xB`` the basic values.  A nonbasic variable normally sits at zero, but
    one that left the basis slightly below zero (which the Harris ratio test
    allows) keeps that value in ``xN``; ``rhs = b - A xN`` then keeps
    ``inv @ rhs == xB``, so the tolerance never turns into an inconsistency
    that later pivots could amplify.
    """

    def __init__(self, A: np.ndarray, b: np.ndarray, cols: np.ndarray):
        m, N = A.shape
        self.A, self.b, self.cols = A, b, cols
        self.inv = np.eye(m)  # the starting basis is unit columns
        self.xB = b.copy()
        self.xN = np.zeros(N)
        self.rhs = b.copy()
        self.is_basic = np.zeros(N, dtype=bool)
        self.is_basic[cols] = True
        # rank-1 update factors, padded to rank 2: numpy hands an (m, 2) @
        # (2, m) product to BLAS but runs an inner dimension of 1 in a loop
        # that is 2-3x slower at m in the hundreds
        self._u, self._v = np.zeros((m, 2)), np.zeros((2, m))
        self._outer = np.empty((m, m))

    def refactor(self) -> None:
        try:
            self.inv[...] = np.linalg.inv(self.A[:, self.cols])
        except np.linalg.LinAlgError as e:
            raise LpNumericalError(f"singular basis during refactorization: {e}") from e
        self.rhs = self.b - self.A @ self.xN
        np.dot(self.inv, self.rhs, out=self.xB)

    def pivot(self, j: int, d: np.ndarray, r: int, t: float) -> None:
        """Column ``j`` (with ``d = inv @ A[:, j]``) enters, raised by ``t``;
        the variable of row ``r`` leaves at whatever value the step leaves
        it, which is zero up to rounding unless the step is zero."""
        A, xB, xN = self.A, self.xB, self.xN
        k = int(self.cols[r])
        leave = float(xB[r] - t * d[r])
        xB -= t * d
        xB[r] = xN[j] + t
        if xN[j]:
            self.rhs += xN[j] * A[:, j]
            xN[j] = 0.0
        if leave:
            xN[k] = leave
            self.rhs -= leave * A[:, k]
        np.divide(self.inv[r], d[r], out=self._v[0])
        self._u[:, 0] = d
        np.matmul(self._u, self._v, out=self._outer)
        self.inv -= self._outer
        self.inv[r] = self._v[0]
        self.is_basic[k] = False
        self.is_basic[j] = True
        self.cols[r] = j


def _ratio_test(xB, d, cols, bland, tol):
    """Harris two-pass ratio test; returns the leaving row or -1 (unbounded).

    Pass 1 finds the largest step that keeps every basic variable with a
    positive entry above ``-tol``.  Pass 2 takes, among the rows whose own
    ratio fits in that step, the largest pivot.  In Bland mode it takes the
    smallest basic column instead, passing over rows whose pivot is below
    ``REL_PIVOT_TOL`` times the largest one while another row fits.
    """
    rows = (d > PIVOT_TOL).nonzero()[0]
    if rows.size == 0:
        return -1
    dr, xr = d[rows], xB[rows]
    fits = xr <= ((xr + tol) / dr).min() * dr
    if not bland:
        return int(rows[np.where(fits, dr, 0.0).argmax()])
    big = fits & (dr >= REL_PIVOT_TOL * dr.max())
    cand = rows[big if big.any() else fits]
    return int(cand[cols[cand].argmin()])


def _simplex_phase(st: _Basis, c, n_price, tol, max_iter):
    """Run primal simplex for cost ``c`` until optimality, pricing only the
    first ``n_price`` columns.  Returns (status, iterations); status is
    OPTIMAL or UNBOUNDED."""
    if n_price == 0:
        return OPTIMAL, 0  # no column can enter
    A = st.A
    m, N = A.shape
    A_price, c_price = A[:, :n_price], c[:n_price]
    cB = c[st.cols]
    bland = False
    degenerate = 0
    bland_after = 10 * (m + N)
    it = 0
    while True:
        if it >= max_iter:
            raise LpNumericalError(f"simplex exceeded {max_iter} iterations")
        if it and it % REFACTOR_EVERY == 0:
            st.refactor()
        z = c_price - (cB @ st.inv) @ A_price
        z[st.is_basic[:n_price]] = -np.inf
        if bland:
            pos = np.flatnonzero(z > OPT_TOL)
            if pos.size == 0:
                return OPTIMAL, it
            j = int(pos[0])
        else:
            j = int(np.argmax(z))
            if z[j] <= OPT_TOL:
                return OPTIMAL, it
        d = st.inv @ A[:, j]
        r = _ratio_test(st.xB, d, st.cols, bland, tol)
        if r < 0:
            return UNBOUNDED, it
        # a leaving value just below zero stays there: the step is never negative
        t = max(float(st.xB[r]), 0.0) / d[r]
        if t <= FEAS_TOL:
            degenerate += 1
            if degenerate > bland_after:
                bland = True
        st.pivot(j, d, r, t)
        cB[r] = c[j]
        it += 1


def _drive_out_artificials(st: _Basis, art0: int) -> None:
    """Pivot each basic artificial out on its row's largest structural or
    slack entry, by a zero step that moves no value; one whose row has no
    usable entry (a redundant row) stays basic at its phase-1 value."""
    for r in np.flatnonzero(st.cols >= art0):
        row = np.abs(st.inv[r] @ st.A[:, :art0])
        j = int(np.argmax(row))
        if row[j] <= PIVOT_TOL:
            continue
        d = st.inv @ st.A[:, j]
        st.pivot(j, d, r, 0.0)


def solve(problem: LpProblem) -> LpSolution:
    """Solve to optimality; returns primal values, row duals, and objective.

    An ``optimal`` answer is certified (see the module docstring).  Raises
    ``LpNumericalError`` when the certificate fails, when a basis is
    singular, or when the pivot tolerance cannot make progress within the
    iteration budget even after the Bland's-rule fallback.
    """
    n_bounded = int(np.count_nonzero(np.isfinite(problem.ub)))
    est_rows = problem.n_rows + n_bounded
    if est_rows * (problem.n_vars + 2 * est_rows) > MAX_DENSE_ENTRIES:
        raise CapacityError("problem too large for the dense exact solver")
    std = _Standardized(problem)
    m, N = std.A.shape
    max_iter = ITERATIONS_BASE + ITERATIONS_PER_DIM * (m + N)
    b_scale = 1.0 + float(np.abs(std.b).max(initial=0.0))
    tol = HARRIS_TOL * b_scale
    st = _Basis(std.A, std.b, std.basis_start())
    c1 = np.zeros(N)
    c1[std.art0:] = -1.0
    status, it1 = _simplex_phase(st, c1, N, tol, max_iter)
    if status != OPTIMAL:
        raise LpNumericalError("phase 1 did not terminate at an optimum")
    if float(c1[st.cols] @ st.xB + c1 @ st.xN) < -FEAS_TOL * b_scale:
        return LpSolution(status=INFEASIBLE, iterations=it1)
    _drive_out_artificials(st, std.art0)
    status, it2 = _simplex_phase(st, std.c, std.art0, tol, max_iter)
    if status == UNBOUNDED:
        return LpSolution(status=UNBOUNDED, iterations=it1 + it2)

    B = std.A[:, st.cols]
    try:
        xB = np.linalg.solve(B, std.b - std.A @ st.xN)
        y = np.linalg.solve(B.T, std.c[st.cols])
    except np.linalg.LinAlgError as e:
        raise LpNumericalError(f"singular final basis: {e}") from e
    x_int = st.xN.copy()
    x_int[st.cols] = xB
    sol = LpSolution(status=OPTIMAL, x=std.x_original(x_int[: std.n_struct]),
                     duals=std.duals_original(y),
                     objective=float(std.c @ x_int) + std.const,
                     dual_objective=float(y @ std.b) + std.const,
                     iterations=it1 + it2)
    _certify(problem, sol, b_scale)
    return sol


# ---------------------------------------------------------------------------
# Diagnostics
# ---------------------------------------------------------------------------

def solution_residuals(problem: LpProblem, sol: LpSolution) -> dict:
    """Max feasibility and complementary-slackness residuals of a solution.

    ``primal``: constraint/bound violation; ``dual``: wrong-signed dual;
    ``cs``: max over rows of |dual * row slack| and over columns of
    |reduced cost * distance to the active bound| (scaled check used by the
    test-suite invariants).
    """
    x, y = sol.x, sol.duals
    senses = np.array(problem.senses, dtype="U2")
    le, ge = senses == LE, senses == GE
    slack = problem.b - problem.A @ x
    viol = np.where(le, -slack, np.where(ge, slack, np.abs(slack)))
    primal = max(0.0, float(np.max(viol, initial=0.0)),
                 float(np.max(problem.lb - x, initial=0.0)),
                 float(np.max(x - problem.ub, initial=0.0)))
    rc = problem.c - y @ problem.A
    at_lb = x <= problem.lb + FEAS_TOL
    at_ub = x >= problem.ub - FEAS_TOL
    dual = max(0.0, float(np.max(np.where(le, -y, np.where(ge, y, 0.0)), initial=0.0)),
               float(np.max(rc[at_lb & ~at_ub], initial=0.0)),     # at lower bound: rc <= 0
               float(np.max(-rc[at_ub & ~at_lb], initial=0.0)))    # at upper bound: rc >= 0
    cs = max(float(np.max(np.abs(y * slack), initial=0.0)),
             float(np.max(np.abs(rc[~at_lb & ~at_ub]), initial=0.0)))  # interior: rc = 0
    return {"primal": primal, "dual": dual, "cs": cs}


def _certify(problem: LpProblem, sol: LpSolution, b_scale: float) -> None:
    res = solution_residuals(problem, sol)
    if res["primal"] > CERT_TOL * b_scale:
        raise LpNumericalError(f"solution fails its certificate: primal residual {res['primal']:.3g}")
    if res["dual"] > DUAL_TOL * (1.0 + float(np.abs(problem.c).max(initial=0.0))):
        raise LpNumericalError(f"solution fails its certificate: wrong-signed dual {res['dual']:.3g}")


def dumps_lp(problem: LpProblem) -> str:
    """Readable dump, one constraint per line, 12 significant digits."""
    def num(v):
        return f"{v:.12g}"

    lines = ["max " + " + ".join(f"{num(ci)} x{j}" for j, ci in enumerate(problem.c) if ci != 0.0)]
    for i in range(problem.n_rows):
        terms = " + ".join(f"{num(a)} x{j}" for j, a in enumerate(problem.A[i]) if a != 0.0)
        lines.append(f"r{i}: {terms or '0'} {problem.senses[i]} {num(problem.b[i])}")
    for j in range(problem.n_vars):
        lines.append(f"b{j}: {num(problem.lb[j])} <= x{j} <= {num(problem.ub[j])}")
    return "\n".join(lines) + "\n"
