"""Dense exact LP solver with dual values: one solve loop over one
simplex state, a standard form and its basis, that grows in place by rows
or, across solves, by columns.

All linear programs in this package are small and dense (hundreds of rows),
and the probing algorithms consume both primal values and row duals, so a
self-contained revised simplex is used.  The entering column has the
largest ``z_j * s_j`` among the reduced costs ``z_j > OPT_TOL``, with
``s_j = 1 / sqrt(1 + |a_j|^2)`` the steepest-edge weight of a slack basis,
held fixed (Forrest & Goldfarb 1992): LP1 of the benchmark takes 3,242
pivots against Dantzig's rule's 3,549, and Devex weights cost more.
Optimality tests the unscaled ``z_j``, and a Bland's-rule fallback guards
against cycling.  Only the structural columns are stored; every slack
column is the +1 unit column of its own row.  The dense basis inverse is
stored transposed and kept by rank-1 updates, which from
``SPARSE_UPDATE_ROWS`` rows on touch only the stored rows where the new
pivot row of the inverse is nonzero; it is refactorized every
``REFACTOR_EVERY`` pivots, counted across phases and solves.  The primal
simplex's row duals follow each pivot along that row, and are recomputed
from the inverse at every refactorization and before a phase ends; the
dual simplex carries its reduced costs along its pivot row instead.

A solve builds, grows and refines one ``_Basis``, which holds the
standard form and its basis together.  Every problem ``solve`` takes is a
packing LP, so the slack basis (``inv = I``, ``xB = b``) is feasible and
a cold solve builds the state there.
``solve(problem, start=kept)`` takes a ``KeptBasis``, in which an optimal
answer of the full problem leaves its standard form and basis.  When the
next problem is that one with columns appended by ``add_column``, they
join the kept standard form in place, nonbasic at zero, so the basis, its
inverse and the basic values stay as they were, primal feasible (Chvátal
1983), and the primal simplex resumes.  Any other problem starts cold and
refills the handle.

The ratio test is Harris's two-pass test (Harris 1973, as practised in
HiGHS, Huangfu & Hall 2018): a basic variable may fall ``HARRIS_TOL``
(relative to the right-hand sides) below zero in exchange for the largest
pivot among the rows that block within that slack, and the step is never
negative.  A variable that leaves the basis below zero keeps that value as
a nonbasic, so no tolerance is silently clipped away.  In Bland mode a
pivot below ``REL_PIVOT_TOL`` times the largest candidate is taken only
when no other row blocks.  The dual simplex uses the same test.

A problem may mark rows ``lazy``, as LP1 marks its suffix rows past the
first attempt and LP2 its star-cap rows.  Where there are at least
``LAZY_ROWS_PER_ROW`` of them per other row, and no handle resumes the
solve, they are held back (Grötschel, Lovász & Schrijver 1981): the loop
solves the other rows, the working set, then joins the held rows that
the refined x violates by more than ``LAZY_VIOLATION`` times the
certificate's tolerance to the kept standard form with their slacks
basic, so the transposed inverse grows by a bordered block and the basis
stays dual feasible.  The join test reads the held rows in place, and
only the rows that join are copied.  Dual simplex pivots (Koberstein
2005) restore primal feasibility, the most negative basic value leaving,
and the next round refines x again.  A round that joins no row prices
with the refined duals, and only a column that prices in refactorizes
the basis and resumes the primal simplex.  With nothing held the loop
joins no row.  A working set that is unbounded, fails numerically or
that a joined row leaves infeasible is solved again with nothing held.
Near the crossover the rounds cost what the smaller basis saves: 40 LP1
stars of 8, 10 and 12 items take 48.6, 54.9 and 80.0 ms on a working
set, against 46.7, 60.9 and 107.0 ms in full.

The size guard counts ``r * (k + 4 r)`` dense entries for ``r``
standard-form rows and ``k`` structural columns (``S``, the inverse, and
at a refactorization the basis matrix and ``np.linalg.inv``'s two LAPACK
copies of it) against ``MAX_DENSE_ENTRIES``: for the working set when the
loop starts, again when rows join, and for the full problem only when
that is solved.  So the rows that join bound a solve, not all the held
rows: LP2 of 12 offline vertices and one online vertex joins 1,024 of its
4,095 star caps, and LP2 of an 8 x 8 instance takes 0.06 s against 1.6 s
with every row (CPU time, one BLAS thread).

Every ``optimal`` answer carries a certificate: x and the duals come from
the kept inverse, improved by one step of iterative refinement (Higham
2002, ch. 12).  Before the loop ends, the refined duals price the columns
once more; where one prices above ``OPT_TOL`` (the kept inverse had
drifted), the basis is refactorized and the primal simplex resumes.
``solve`` raises ``LpNumericalError`` unless x and the duals are finite,
the primal residual is at most ``CERT_TOL * (1 + max|b|)`` on every row
and no dual has the wrong sign by more than ``DUAL_TOL * (1 + max|c|)``; a
row that never joined has a zero dual.  The certificate computes these
two residuals only; ``solution_residuals`` adds the complementary-slackness
term to the same formula.  Pivoting is deterministic, so
repeated solves are bit-identical at a fixed BLAS thread count; another
thread count can change the last bits of x and the duals.

Problems are stated as maximization.  ``solve`` takes the packing form
only: rows are ``<=`` with b >= 0, lower bounds 0, and a finite upper
bound, which becomes one more ``<=`` row; it raises ``CapabilityError`` on
any other form.  ``LpProblem.make`` also states ``=`` and ``>=`` rows and
other bounds, for reference solvers and dumps.  A binding row has a
nonnegative dual.  A problem with no rows and no finite upper bound has an
empty basis: each variable stays at 0 unless its cost lets it enter, and
then the problem is unbounded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .instances import CapabilityError, CapacityError, LpNumericalError

FEAS_TOL = 1e-8       # degenerate steps, and the residuals' active bounds
OPT_TOL = 1e-9        # reduced-cost optimality
PIVOT_TOL = 1e-10     # smallest acceptable pivot element
REL_PIVOT_TOL = 1e-7  # Bland mode: smallest pivot relative to the largest candidate
# Right-hand-side tolerances scale with 1 + max|b| over the standard form's
# rows, the upper-bound rows included.
HARRIS_TOL = 1e-10    # infeasibility the ratio test may trade for a larger pivot
CERT_TOL = 1e-9       # largest certified primal residual
DUAL_TOL = 1e-7       # largest certified wrong-signed dual, relative to 1 + max|c|
REFACTOR_EVERY = 100
SPARSE_UPDATE_ROWS = 64  # from this many rows, a pivot gathers the inverse's changed rows
MAX_DENSE_ENTRIES = 30_000_000  # desk scale; see the size guard in ``_check_size``
ITERATIONS_BASE = 5000    # simplex pivots allowed per phase: the base,
ITERATIONS_PER_DIM = 60   # plus this many per standard-form row and column
LAZY_ROWS_PER_ROW = 3.5   # hold lazy rows back from this many per other row on
LAZY_VIOLATION = 0.1      # a held row joins when violated by this share of CERT_TOL's bound

LE, EQ, GE = "<=", "=", ">="
_SENSES = frozenset((LE, EQ, GE))

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
    lazy: np.ndarray | None = None  # <= rows the solver may hold back until violated

    @staticmethod
    def make(c, A, senses, b, lb=None, ub=None, lazy=None) -> "LpProblem":
        c = np.asarray(c, dtype=float)
        A = np.asarray(A, dtype=float)
        if A.size == 0:
            A = A.reshape((len(senses) if senses else 0, len(c)))
        b = np.asarray(b, dtype=float)
        n = len(c)
        if A.shape != (len(b), n):
            raise ValueError(f"A has shape {A.shape}, expected ({len(b)}, {n})")
        senses = tuple(senses)
        if not _SENSES.issuperset(senses):
            raise ValueError("row senses must be one of <=, =, >=")
        lb = np.zeros(n) if lb is None else np.asarray(lb, dtype=float)
        ub = np.full(n, np.inf) if ub is None else np.asarray(ub, dtype=float)
        if not (np.isfinite(c).all() and np.isfinite(A).all() and np.isfinite(b).all()):
            raise ValueError("c, A and b must be finite")
        if np.isnan(lb).any() or np.isnan(ub).any():
            raise ValueError("bounds must not be NaN")
        if (lb == np.inf).any() or (ub == -np.inf).any():
            raise ValueError("a lower bound must be below +inf and an upper bound above -inf")
        if np.any(lb > ub):
            raise ValueError("lower bound exceeds upper bound")
        if lazy is not None:
            lazy = np.asarray(lazy)
            if lazy.dtype != bool or lazy.shape != (len(b),):
                raise ValueError(f"lazy must be a boolean mask of {len(b)} rows")
            if senses.count(LE) < len(senses) and any(
                    senses[i] != LE for i in lazy.nonzero()[0].tolist()):
                raise ValueError("only <= rows may be lazy")
        return LpProblem(c=c, A=A, senses=senses, b=b, lb=lb, ub=ub, lazy=lazy)

    @property
    def n_vars(self) -> int:
        return len(self.c)

    @property
    def n_rows(self) -> int:
        return len(self.b)


@dataclass(frozen=True)
class LpSolution:
    """``iterations`` counts every simplex pivot, primal and dual, and
    ``rows_added`` the held-back ``lazy`` rows that joined the working
    set; ``start`` names the first basis (``"identity"`` for the slack
    basis, ``"warm"`` for a ``KeptBasis`` resumed).  A solution holds no
    basis: the caller's ``KeptBasis`` does."""

    status: str
    x: np.ndarray | None = None
    duals: np.ndarray | None = None
    objective: float | None = None
    dual_objective: float | None = None
    iterations: int = 0
    rows_added: int = 0
    start: str = "identity"


def add_column(problem: LpProblem, obj_coeff, column) -> LpProblem:
    """Problem with extra variables appended, each with bounds [0, inf):
    one ``column`` of ``n_rows`` entries with its objective coefficient,
    or an ``(n_rows, k)`` block of columns with their ``k`` coefficients
    (as ``k`` single additions, in one copy)."""
    column = np.asarray(column, dtype=float)
    costs = np.atleast_1d(np.asarray(obj_coeff, dtype=float))
    block = column[:, None] if column.ndim == 1 else column
    if block.shape != (problem.n_rows, len(costs)) or costs.ndim != 1:
        raise ValueError(f"column has shape {column.shape}, expected ({problem.n_rows},) "
                         f"or ({problem.n_rows}, {len(costs)}) for {len(costs)} coefficients")
    if not (np.isfinite(block).all() and np.isfinite(costs).all()):
        raise ValueError("column and objective coefficient must be finite")
    return LpProblem(
        c=np.append(problem.c, costs),
        A=np.hstack([problem.A, block]),
        senses=problem.senses,
        b=problem.b,
        lb=np.append(problem.lb, np.zeros(len(costs))),
        ub=np.append(problem.ub, np.full(len(costs), np.inf)),
        lazy=problem.lazy,
    )


# ---------------------------------------------------------------------------
# Revised simplex core
# ---------------------------------------------------------------------------

def _insert(a: np.ndarray, at: int, values: np.ndarray) -> np.ndarray:
    """``a`` with ``values`` inserted before index ``at`` (``np.insert``
    costs more per call at these sizes)."""
    return np.concatenate([a[:at], values, a[at:]])


def _price_scale(S: np.ndarray) -> np.ndarray:
    """``1 / sqrt(1 + |a_j|^2)`` for each column ``a_j`` of ``S``."""
    return 1.0 / np.sqrt(1.0 + np.square(S).sum(axis=0))


class _Basis:
    """One solve's simplex state, shared by the primal and the dual simplex:
    the packing problem's standard form and a basis of it.

    The standard form is max c.x, A x = b, x >= 0, b >= 0: the packing
    problem with a slack on every row.  Columns: the structural ones, then
    one slack per row.  A variable with a finite upper bound gets an extra
    ``<=`` row.  Only the structural block ``S`` is stored: column
    ``n_struct + i`` is the slack of row ``i``, a +1 in that row and zero
    elsewhere, and the methods below apply ``A`` from ``S`` and that rule.
    ``ftran`` reads a column's nonzeros from ``S`` itself.  The slack basis
    is the identity.

    ``cols`` are the basic columns, ``inv`` the transpose of the explicit
    basis inverse (row ``i`` is column ``i`` of the inverse) and ``xB`` the
    basic values.  A nonbasic variable normally sits at zero, but one that
    left the basis slightly below zero (which the Harris ratio test allows)
    keeps that value in ``xN``; ``rhs = b - A xN`` then keeps
    ``rhs @ inv == xB``, so the tolerance never turns into an inconsistency
    that later pivots could amplify.  ``pivots`` counts the pivots since
    the last refactorization, across phases and solves.

    A basic slack makes its row's row of ``inv`` a unit row too, so
    a column of ``inv`` has at most k + 1 nonzeros, with k the number of
    basic structural columns.  A pivot on basis row ``r`` subtracts
    ``outer(v, d)`` with ``v`` the scaled column ``r``; from
    ``SPARSE_UPDATE_ROWS`` rows on, it gathers by index only the rows of
    ``inv`` where ``v`` is nonzero (``inv[nz]``, rows that need not be
    contiguous), and every entry it skips would have had exactly zero
    subtracted.
    """

    def __init__(self, c: np.ndarray, A: np.ndarray, b: np.ndarray, ub: np.ndarray):
        """``max c.x, A x <= b, 0 <= x <= ub``, at its slack basis."""
        (m0, n), boxed = A.shape, np.isfinite(ub)
        m = m0 + int(np.count_nonzero(boxed))
        S = np.zeros((m, n))
        S[:m0] = A
        S[np.arange(m0, m), boxed.nonzero()[0]] = 1.0
        self.m0, self.S = m0, S
        self.b = np.concatenate([b, ub[boxed]])
        self.n_struct, self.n_cols = n, n + m
        self.c = np.zeros(self.n_cols)
        self.c[:n] = c
        self.b_scale = 1.0 + float(np.abs(self.b).max(initial=0.0))
        # pricing scale 1 / sqrt(1 + |a_j|^2): the steepest-edge weight of
        # the slack basis, held fixed; 1 / sqrt(2) for a slack
        self.price_scale = np.full(self.n_cols, np.sqrt(0.5))
        self.price_scale[:n] = _price_scale(S)
        self.cols, self.inv, self.xB = n + np.arange(m), np.eye(m), self.b.copy()
        self.xN = np.zeros(self.n_cols)
        self.rhs = self.b.copy()
        self.is_basic = np.zeros(self.n_cols, dtype=bool)
        self.is_basic[self.cols] = True
        self.pivots = 0

    def basis_matrix(self) -> np.ndarray:
        """``A[:, cols]``."""
        cols = self.cols
        B = np.zeros((len(self.b), len(cols)))
        struct = cols < self.n_struct
        B[:, struct] = self.S[:, cols[struct]]
        B[cols[~struct] - self.n_struct, (~struct).nonzero()[0]] = 1.0
        return B

    def times(self, x: np.ndarray) -> np.ndarray:
        """``A @ x`` for a vector over all columns."""
        return self.S @ x[: self.n_struct] + x[self.n_struct:]

    def row_times(self, w: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``w @ A`` written into ``out`` of length ``n_cols``."""
        k = self.n_struct
        np.matmul(w, self.S, out=out[:k])
        out[k:] = w
        return out

    def ftran(self, j: int) -> np.ndarray:
        """``A[:, j] @ inv``: the basis inverse times column ``j``, given the
        inverse transposed."""
        if j < self.n_struct:
            nz = self.S[:, j].nonzero()[0]
            return self.S[nz, j] @ self.inv[nz]
        return self.inv[j - self.n_struct].copy()

    def axpy(self, v: np.ndarray, j: int, scale: float) -> None:
        """``v += scale * A[:, j]`` in place."""
        if j < self.n_struct:
            v += scale * self.S[:, j]
        else:
            v[j - self.n_struct] += scale

    def refactor(self) -> None:
        B, self.inv = self.basis_matrix(), None  # free the old inverse first
        try:
            self.inv = np.linalg.inv(B.T)
        except np.linalg.LinAlgError as e:
            raise LpNumericalError(f"singular basis during refactorization: {e}") from e
        self.pivots = 0
        self.rhs = self.b - self.times(self.xN)
        np.dot(self.rhs, self.inv, out=self.xB)

    def refine(self) -> tuple[np.ndarray, np.ndarray]:
        """The standard form's x and the duals, improved by one step of
        iterative refinement against the basis."""
        B, inv = self.basis_matrix(), self.inv
        rhs, cB = self.b - self.times(self.xN), self.c[self.cols]
        xB = rhs @ inv
        xB += (rhs - B @ xB) @ inv
        y = inv @ cB
        y += inv @ (cB - y @ B)
        x_int = self.xN.copy()
        x_int[self.cols] = xB
        return x_int, y

    def add_columns(self, c: np.ndarray, A: np.ndarray) -> None:
        """Append variables with bounds [0, inf), costs ``c`` and columns
        ``A`` over the rows of the original problem, as structural columns
        inserted before the slacks, whose indices shift by their number;
        they join nonbasic at zero."""
        k, at = len(c), self.n_struct
        block = np.zeros((len(self.b), k))
        block[: self.m0] = A
        self.S = np.hstack([self.S, block])
        self.c = _insert(self.c, at, c)
        self.price_scale = _insert(self.price_scale, at, _price_scale(block))
        self.n_struct, self.n_cols = at + k, self.n_cols + k
        self.cols[self.cols >= at] += k
        self.xN = _insert(self.xN, at, np.zeros(k))
        self.is_basic = _insert(self.is_basic, at, np.zeros(k, dtype=bool))

    def add_rows(self, rows: np.ndarray, b: np.ndarray) -> None:
        """Append the ``<=`` rows ``rows x <= b`` of the original problem
        after the last row, each with its slack as the last column, and
        grow the basis by them, with their slacks basic.  The new basis is
        ``[[B, 0], [R, I]]``, with ``R`` the new rows on the basic columns,
        so the transposed inverse grows by a bordered block,
        ``[[inv, -inv R^T], [0, I]]``, and each slack's value is its row's
        right-hand side less ``R xB``, below zero where the row is violated."""
        k, m = len(rows), len(self.cols)
        self.S = np.concatenate([self.S, rows])
        self.b = np.concatenate([self.b, b])
        self.c = np.concatenate([self.c, np.zeros(k)])
        self.price_scale = np.concatenate([self.price_scale, np.full(k, np.sqrt(0.5))])
        self.price_scale[: self.n_struct] = _price_scale(self.S)
        at, self.n_cols = self.n_cols, self.n_cols + k
        self.xN = np.concatenate([self.xN, np.zeros(k)])
        self.is_basic = np.concatenate([self.is_basic, np.ones(k, dtype=bool)])  # the slacks
        struct = self.cols < self.n_struct
        R = np.zeros((k, m))
        R[:, struct] = rows[:, self.cols[struct]]
        inv = np.zeros((m + k, m + k))
        inv[:m, :m] = self.inv
        inv[:m, m:] = -(self.inv @ R.T)
        inv[range(m, m + k), range(m, m + k)] = 1.0
        rhs = b - rows @ self.xN[: self.n_struct]
        self.rhs = np.concatenate([self.rhs, rhs])
        self.xB = np.concatenate([self.xB, rhs - R @ self.xB])
        self.inv, self.cols = inv, np.concatenate([self.cols, np.arange(at, at + k)])

    def pivot(self, j: int, d: np.ndarray, r: int, t: float) -> np.ndarray:
        """Column ``j`` (with ``d = A[:, j] @ inv``) enters, raised by ``t``;
        the variable of row ``r`` leaves at whatever value the step leaves
        it, which is zero up to rounding unless the step is zero.  Returns
        the new row ``r`` of the inverse, along which the duals move."""
        xB, xN = self.xB, self.xN
        k = int(self.cols[r])
        leave = float(xB[r] - t * d[r])
        if t:
            xB -= t * d
        xB[r] = xN[j] + t
        if xN[j]:
            self.axpy(self.rhs, j, xN[j])
            xN[j] = 0.0
        if leave:
            xN[k] = leave
            self.axpy(self.rhs, k, -leave)
        v = self.inv[:, r] / d[r]
        if len(v) >= SPARSE_UPDATE_ROWS:
            nz = v.nonzero()[0]
            self.inv[nz] -= np.multiply.outer(v[nz], d)
        else:  # the gather costs more than it skips
            self.inv -= np.multiply.outer(v, d)
        self.inv[:, r] = v
        self.is_basic[k] = False
        self.is_basic[j] = True
        self.cols[r] = j
        self.pivots += 1
        return v


def _ratio_test(x, d, key, bland, tol):
    """Harris two-pass ratio test over the entries with ``d > PIVOT_TOL``;
    returns the chosen index or -1 (no candidate).

    Pass 1 finds the largest step that keeps every candidate's ``x - t d``
    above ``-tol``.  Pass 2 takes, among the candidates whose own ratio
    fits in that step, the largest ``d``.  In Bland mode it takes the
    smallest ``key`` instead, passing over candidates whose ``d`` is below
    ``REL_PIVOT_TOL`` times the largest one while another fits.

    The primal test passes the basic values, the entering column ``d`` and
    the basic columns as keys, and returns the leaving row.  The dual test
    passes ``-min(z, 0)`` for the reduced costs ``z``, ``-alpha`` for the
    pivot row ``alpha`` with zeros on the basic columns, ``OPT_TOL`` and
    the column indices as keys, and returns the entering column.
    """
    rows = (d > PIVOT_TOL).nonzero()[0]
    if rows.size == 0:
        return -1
    dr, xr = d[rows], x[rows]
    fits = xr <= ((xr + tol) / dr).min() * dr
    if not bland:
        return int(rows[np.where(fits, dr, 0.0).argmax()])
    big = fits & (dr >= REL_PIVOT_TOL * dr.max())
    cand = rows[big if big.any() else fits]
    return int(cand[key[cand].argmin()])


def _simplex_phase(st: _Basis, tol):
    """Run primal simplex from a primal feasible basis until optimality.
    Returns (status, iterations); status is OPTIMAL or UNBOUNDED.

    The duals ``y`` follow each pivot, ``y += z_j * v`` with ``v`` the new
    row of the inverse, and are recomputed as ``inv @ cB`` at every
    refactor and before the phase declares optimality or unboundedness,
    which then prices once more with the fresh duals."""
    c, N = st.c, st.n_cols
    if N == 0 or (c.max() <= OPT_TOL and not c[st.cols].any()):
        return OPTIMAL, 0  # no column can enter: with y = 0, z = c
    scale = st.price_scale
    z, score = np.empty(N), np.empty(N)
    cB = c[st.cols]
    y, fresh = st.inv @ cB, True
    bland = False
    degenerate = 0
    bland_after = 10 * (len(st.b) + st.n_cols)
    max_iter = ITERATIONS_BASE + ITERATIONS_PER_DIM * (len(st.b) + st.n_cols)
    it = 0
    while True:
        if it >= max_iter:
            raise LpNumericalError(f"simplex exceeded {max_iter} iterations")
        if st.pivots >= REFACTOR_EVERY:
            st.refactor()
            y, fresh = st.inv @ cB, True
        np.subtract(c, st.row_times(y, z), out=z)
        z[st.is_basic] = -np.inf
        if bland:
            pos = np.flatnonzero(z > OPT_TOL)
            j = int(pos[0]) if pos.size else -1
        else:  # the largest scaled z among z > OPT_TOL, or the first NaN
            j = int(np.argmax(np.multiply(z, scale, out=score)))
            if z[j] <= OPT_TOL:  # a column below the tolerance scored highest
                score[z <= OPT_TOL] = -np.inf
                j = int(np.argmax(score))
                if z[j] <= OPT_TOL:
                    j = -1
        if j >= 0 and not np.isfinite(z[j]):
            raise LpNumericalError("non-finite reduced cost")
        r = -1
        if j >= 0:
            d = st.ftran(j)
            r = _ratio_test(st.xB, d, st.cols, bland, tol)
        if r < 0:
            if fresh:
                return (OPTIMAL if j < 0 else UNBOUNDED), it
            y, fresh = st.inv @ cB, True
            continue
        # a leaving value just below zero stays there: the step is never negative
        t = max(float(st.xB[r]), 0.0) / d[r]
        if t <= FEAS_TOL:
            degenerate += 1
            if degenerate > bland_after:
                bland = True
        y += z[j] * st.pivot(j, d, r, t)
        fresh = False
        cB[r] = c[j]
        it += 1


def _dual_phase(st: _Basis, tol):
    """Run dual simplex from a dual feasible basis until no basic value is
    below ``-tol``.  Returns (status, iterations); status is OPTIMAL, meaning
    primal feasible, or INFEASIBLE when a leaving row has no entering
    column.

    The row with the most negative basic value leaves (in Bland mode, the
    smallest basic column among those below ``-tol``), the entering column
    comes from ``_ratio_test`` on the pivot row ``alpha = inv[:, r] @ A``,
    and the pivot raises it until the leaving value reaches zero.  The
    reduced costs ``z = c - yA`` are computed when the phase starts and
    after a refactorization, and otherwise follow each pivot along alpha:
    ``z -= (z_j / d_r) alpha``."""
    c, N = st.c, st.n_cols
    z, lift = np.empty(N), np.empty(N)
    columns = np.arange(N)
    cB = c[st.cols]
    np.subtract(c, st.row_times(st.inv @ cB, z), out=z)
    bland = False
    degenerate = 0
    bland_after = 10 * (len(st.b) + st.n_cols)
    max_iter = ITERATIONS_BASE + ITERATIONS_PER_DIM * (len(st.b) + st.n_cols)
    it = 0
    while True:
        if it >= max_iter:
            raise LpNumericalError(f"dual simplex exceeded {max_iter} iterations")
        if st.pivots >= REFACTOR_EVERY:
            st.refactor()
            np.subtract(c, st.row_times(st.inv @ cB, z), out=z)
        if bland:
            low = (st.xB < -tol).nonzero()[0]
            if low.size == 0:
                return OPTIMAL, it
            r = int(low[st.cols[low].argmin()])
        else:
            r = int(np.argmin(st.xB))
            if not st.xB[r] < -tol:  # a NaN here fails the certificate later
                return OPTIMAL, it
        st.row_times(-st.inv[:, r], lift)  # -alpha: what raises the leaving row
        lift[st.is_basic] = 0.0
        j = _ratio_test(-np.minimum(z, 0.0), lift, columns, bland, OPT_TOL)
        if j < 0:
            return INFEASIBLE, it
        if not np.isfinite(z[j]):
            raise LpNumericalError("non-finite reduced cost")
        d = st.ftran(j)
        if not d[r] < -PIVOT_TOL:
            raise LpNumericalError("dual simplex pivot lost its sign")
        if z[j] >= -OPT_TOL:
            degenerate += 1
            if degenerate > bland_after:
                bland = True
        k, step = int(st.cols[r]), z[j] / d[r]
        st.pivot(j, d, r, float(st.xB[r]) / d[r])
        z += step * lift  # lift is -alpha, and alpha is 1 on the leaving column k
        z[k], z[j] = -step, 0.0
        cB[r] = c[j]
        it += 1


class KeptBasis:
    """The standard form and basis of the last optimal answer of the full
    problem that ``solve(problem, start=kept)`` gave, kept by the caller;
    empty after any other answer; the basis keeps its inverse across
    solves.  No ``LpSolution`` holds them, since callers may keep many
    solutions, and LP1's take about a megabyte."""

    def __init__(self):
        self.problem: LpProblem | None = None
        self.basis: _Basis | None = None

    def _take(self, problem: LpProblem) -> _Basis | None:
        """Empty the handle.  Returns its basis, grown in place by the
        columns that ``problem`` appends to the kept problem with bounds
        [0, inf) (as ``add_column`` appends them), or None when
        ``problem`` is not the kept problem plus such columns."""
        old, st = self.problem, self.basis
        self.problem = self.basis = None
        if old is None:
            return None
        n0, k = old.n_vars, problem.n_vars - old.n_vars
        if not (k >= 0 and problem.senses == old.senses and all(
                np.array_equal(new, was) for new, was in [
                    (problem.b, old.b), (problem.c[:n0], old.c), (problem.A[:, :n0], old.A),
                    (problem.lb, np.append(old.lb, np.zeros(k))),
                    (problem.ub, np.append(old.ub, np.full(k, np.inf)))])):
            return None
        st.add_columns(problem.c[n0:], problem.A[:, n0:])
        return st


def solve(problem: LpProblem, start: KeptBasis | None = None) -> LpSolution:
    """Solve to optimality; returns primal values, row duals, and objective.

    A ``start`` handle resumes its kept problem with columns appended, and
    any other problem starts cold; an optimal answer of the full problem
    refills it.  Otherwise the ``held_rows`` wait outside a working set,
    and the full problem is solved when that fails.  Raises
    ``CapabilityError`` unless the problem is a packing LP (every row
    ``<=`` with b >= 0, every lower bound 0), ``CapacityError`` when the
    size guard's count passes ``MAX_DENSE_ENTRIES``, and ``LpNumericalError``
    when the certificate fails, when a basis is singular, or when the
    pivot tolerance cannot make progress within the iteration budget even
    after the Bland's-rule fallback.
    """
    if (problem.senses.count(LE) < problem.n_rows or (problem.b < 0.0).any()
            or problem.lb.any()):
        raise CapabilityError("lp.solve takes packing LPs only: <= rows, b >= 0, lower bounds 0")
    st = None if start is None else start._take(problem)
    held = held_rows(problem) if st is None else np.zeros(0, dtype=int)
    if len(held):
        try:
            sol = _run(problem, held, None)
        except LpNumericalError:
            sol = None
        if sol is not None:
            return sol
    return _run(problem, held[:0], st, start)


def _check_size(rows: int, cols: int) -> None:
    """The size guard of the module docstring, for a standard form of
    ``rows`` rows and ``cols`` structural columns."""
    if rows * (cols + 4 * rows) > MAX_DENSE_ENTRIES:
        raise CapacityError("problem too large for the dense exact solver")


def held_rows(problem: LpProblem) -> np.ndarray:
    """The ``lazy`` rows that ``solve`` holds back when no handle resumes
    it: all of them where there are at least ``LAZY_ROWS_PER_ROW`` per
    other row, else none."""
    held = np.flatnonzero(problem.lazy) if problem.lazy is not None else np.zeros(0, dtype=int)
    return held if len(held) >= LAZY_ROWS_PER_ROW * (problem.n_rows - len(held)) else held[:0]


def _run(problem: LpProblem, held: np.ndarray, st: _Basis | None,
         keep: KeptBasis | None = None) -> LpSolution | None:
    """The solve loop of the module docstring on ``problem`` with its rows
    ``held`` held back, from the basis ``st`` or, when it is None, the
    slack basis of the other rows; an optimal answer leaves its basis in
    ``keep``.  Returns None when the working set is unbounded or a joined
    row leaves it infeasible.  After a refactorization for the refined
    duals, a primal simplex that takes no pivot ends the loop
    (``stalled``)."""
    work = np.delete(np.arange(problem.n_rows), held)
    _check_size(len(work) + int(np.count_nonzero(np.isfinite(problem.ub))), problem.n_vars)
    how = "warm"
    if st is None:
        rows = work if len(held) else slice(None)
        st, how = _Basis(problem.c, problem.A[rows], problem.b[rows], problem.ub), "identity"
    b_scale = max(st.b_scale, 1.0 + float(np.abs(problem.b).max(initial=0.0)))
    tol, bound, m_work = HARRIS_TOL * b_scale, LAZY_VIOLATION * CERT_TOL * b_scale, len(st.b)
    status, it = _simplex_phase(st, tol)
    added, stalled = [], False
    left = np.zeros(problem.n_rows, dtype=bool)
    left[held] = True
    while status == OPTIMAL:
        x_int, y = st.refine()
        x = x_int[: st.n_struct].copy()  # a view would keep all of x_int alive
        join = held[:0]
        if left.any():  # the held rows are read in place, not copied
            join = np.flatnonzero((problem.A @ x - problem.b > bound) & left)
        if len(join):
            _check_size(len(st.b) + len(join), st.n_struct)
            left[join] = False
            st.add_rows(problem.A[join], problem.b[join])
            added.append(join)
            status, k = _dual_phase(st, tol)
            it, stalled = it + k, False
            continue
        z = st.c - st.row_times(y, np.empty(st.n_cols))
        if stalled or not (z[~st.is_basic] > OPT_TOL).any():
            break
        st.refactor()
        status, k = _simplex_phase(st, tol)
        it, stalled = it + k, k == 0
    if status != OPTIMAL:
        if len(held) and (status == UNBOUNDED or added):
            return None
        return LpSolution(status=status, iterations=it, start=how)
    added = np.concatenate(added) if added else held[:0]
    duals = np.zeros(problem.n_rows)
    duals[work] = y[: st.m0]
    duals[added] = y[m_work:]
    sol = LpSolution(status=OPTIMAL, x=x, duals=duals, objective=float(st.c @ x_int),
                     dual_objective=float(y @ st.b), iterations=it,
                     rows_added=len(added), start=how)
    _certify(problem, sol, b_scale)
    if keep is not None:
        keep.problem, keep.basis = problem, st
    return sol


# ---------------------------------------------------------------------------
# Diagnostics
# ---------------------------------------------------------------------------

def _residuals(problem: LpProblem, x: np.ndarray, y: np.ndarray):
    """The primal and dual residuals of ``solution_residuals`` for x and
    the row duals y, with the row slacks, the reduced costs and the mask of
    the columns off their bounds, which its ``cs`` term reads."""
    slack = problem.b - problem.A @ x
    if problem.senses.count(LE) == problem.n_rows:  # a packing LP skips the senses array
        viol, wrong = -slack, -y
    else:
        senses = np.array(problem.senses, dtype="U2")
        le, ge = senses == LE, senses == GE
        viol = np.where(le, -slack, np.where(ge, slack, np.abs(slack)))
        wrong = np.where(le, -y, np.where(ge, y, 0.0))
    # np.max, unlike Python's max, carries a NaN through
    primal = float(np.max(np.concatenate([viol, problem.lb - x, x - problem.ub]), initial=0.0))
    rc = problem.c - y @ problem.A
    at_lb = x <= problem.lb + FEAS_TOL
    at_ub = x >= problem.ub - FEAS_TOL
    dual = float(np.max(np.concatenate([wrong,
                                        rc[at_lb & ~at_ub],     # at lower bound: rc <= 0
                                        -rc[at_ub & ~at_lb]]),  # at upper bound: rc >= 0
                        initial=0.0))
    return primal, dual, slack, rc, ~at_lb & ~at_ub


def solution_residuals(problem: LpProblem, sol: LpSolution) -> dict:
    """Max feasibility and complementary-slackness residuals of a solution.

    ``primal``: constraint/bound violation; ``dual``: wrong-signed dual;
    ``cs``: max over rows of |dual * row slack| and over columns of
    |reduced cost * distance to the active bound| (scaled check used by the
    test-suite invariants).
    """
    y = np.asarray(sol.duals, dtype=float)
    primal, dual, slack, rc, inside = _residuals(problem, np.asarray(sol.x, dtype=float), y)
    cs = float(np.max([np.max(np.abs(y * slack), initial=0.0),
                       np.max(np.abs(rc[inside]), initial=0.0)]))  # interior: rc = 0
    return {"primal": primal, "dual": dual, "cs": cs}


def _certify(problem: LpProblem, sol: LpSolution, b_scale: float) -> None:
    if not (np.isfinite(sol.x).all() and np.isfinite(sol.duals).all()):
        raise LpNumericalError("solution fails its certificate: non-finite x or duals")
    primal, dual = _residuals(problem, sol.x, sol.duals)[:2]
    # negated comparisons, so that a NaN residual fails too
    if not primal <= CERT_TOL * b_scale:
        raise LpNumericalError(f"solution fails its certificate: primal residual {primal:.3g}")
    if not dual <= DUAL_TOL * (1.0 + float(np.abs(problem.c).max(initial=0.0))):
        raise LpNumericalError(f"solution fails its certificate: wrong-signed dual {dual:.3g}")


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
