"""Dense exact LP solver with dual values: one solve loop over a standard
form that grows in place by rows or, across solves, by columns.

All linear programs in this package are small and dense (hundreds of rows),
and the probing algorithms consume both primal values and row duals, so a
self-contained revised simplex is used, with two phases from a start basis.
The entering column has the largest ``z_j * s_j`` among the reduced costs
``z_j > OPT_TOL``, with ``s_j = 1 / sqrt(1 + |a_j|^2)`` the steepest-edge
weight of a slack basis, held fixed (Forrest & Goldfarb 1992): LP1 of
the benchmark takes 3,242 pivots against Dantzig's rule's 3,549, and
Devex weights cost more.  Optimality tests the unscaled ``z_j``, and a
Bland's-rule fallback guards against cycling.  Only the structural
columns are stored, also compressed to their nonzeros; every slack,
bound-row and artificial column is a unit column, kept as its row and
sign.  The dense basis inverse is stored transposed and kept by rank-1
updates, which from ``SPARSE_UPDATE_ROWS`` rows on touch only the stored
rows where the new pivot row of the inverse is nonzero; it is
refactorized periodically.  The row duals follow each pivot along that
row, and are recomputed from the inverse at every refactorization and
before a phase ends.

A cold start (Bixby 1992) takes a slack on every row whose slack is
feasible and an artificial elsewhere, except where a triangular crash
replaces artificials by structural columns that are singletons on the
rows left; it is kept when its basic values are feasible within the
Harris tolerance.  ``solve(problem, start=kept)`` takes a ``KeptBasis``,
in which an optimal answer of the full problem leaves its standard form
and basis.  When the next problem is that one with columns appended by
``add_column``, they join the kept standard form in place, nonbasic at
zero, so the basis stays primal feasible (Chvátal 1983); it is
refactorized once and the phases resume.  Any other problem starts cold
and refills the handle.  Phase 1 ends before its first pricing when no
artificial is basic.

The ratio test is Harris's two-pass test (Harris 1973, as practised in
HiGHS, Huangfu & Hall 2018): a basic variable may fall ``HARRIS_TOL``
(relative to the right-hand sides) below zero in exchange for the largest
pivot among the rows that block within that slack, and the step is never
negative.  A variable that leaves the basis below zero keeps that value as
a nonbasic, so no tolerance is silently clipped away.  In Bland mode a
pivot below ``REL_PIVOT_TOL`` times the largest candidate is taken only
when no other row blocks.  The dual simplex uses the same test.

A problem may mark ``<=`` rows ``lazy``.  Where there are at least
``LAZY_ROWS_PER_ROW`` of them per other row, and no handle resumes the
solve, they are held back (Grötschel, Lovász & Schrijver 1981): the loop
solves the other rows, the working set, then joins the held rows that
the refined x violates by more than ``LAZY_VIOLATION`` times the
certificate's tolerance to the kept standard form with their slacks
basic, so the transposed inverse grows by a bordered block and the basis
stays dual feasible.  Dual simplex pivots (Koberstein 2005) restore
primal feasibility, the most negative basic value leaving, and the next
round refines x again.  A round that joins no row prices with the refined
duals, and only a column that prices in refactorizes the basis and
resumes phase 2.  With nothing held the loop joins no row.  A working set
that is unbounded, fails numerically or that a joined row leaves
infeasible is solved again with nothing held, and an infeasible working
set is infeasible.  Near the crossover the rounds cost what the smaller
basis saves: 40 LP1 stars of 8, 10 and 12 items take 48.6, 54.9 and 80.0
ms on a working set, against 46.7, 60.9 and 107.0 ms in full.

Every ``optimal`` answer carries a certificate: x and the duals come from
the kept inverse, improved by one step of iterative refinement (Higham
2002, ch. 12).  Before the loop ends, the refined duals price the columns
once more; where one prices above ``OPT_TOL`` (the kept inverse had
drifted), the basis is refactorized and phase 2 resumes.  ``solve``
raises ``LpNumericalError`` unless x and the duals are finite, the primal
residual is at most ``CERT_TOL * (1 + max|b|)`` on every row and no dual
has the wrong sign by more than ``DUAL_TOL * (1 + max|c|)``; a row that
never joined has a zero dual.  Pivoting is deterministic, so repeated
solves are bit-identical at a fixed BLAS thread count; another thread
count can change the last bits of x and the duals.

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
SPARSE_UPDATE_ROWS = 64  # from this many rows, a pivot gathers the inverse's changed rows
MAX_DENSE_ENTRIES = 30_000_000  # desk scale; protects the dense representation
ITERATIONS_BASE = 5000    # simplex pivots allowed per phase: the base,
ITERATIONS_PER_DIM = 60   # plus this many per standard-form row and column
LAZY_ROWS_PER_ROW = 3.5   # hold lazy rows back from this many per other row on
LAZY_VIOLATION = 0.1      # a held row joins when violated by this share of CERT_TOL's bound

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
        if any(s not in (LE, EQ, GE) for s in senses):
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
            if (np.array(senses, dtype="U2")[lazy] != LE).any():
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
    """``iterations`` counts every simplex pivot, primal and dual,
    ``phase1_iterations`` those of phase 1, and ``rows_added`` the
    held-back ``lazy`` rows that joined the working set; ``start`` names
    the first basis (``"identity"``, ``"crash"``, or ``"warm"`` for a
    ``KeptBasis`` resumed).  A solution holds no basis: the caller's
    ``KeptBasis`` does."""

    status: str
    x: np.ndarray | None = None
    duals: np.ndarray | None = None
    objective: float | None = None
    dual_objective: float | None = None
    iterations: int = 0
    rows_added: int = 0
    phase1_iterations: int = 0
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
# Standard-form conversion
# ---------------------------------------------------------------------------

def _insert(a: np.ndarray, at: int, values: np.ndarray) -> np.ndarray:
    """``a`` with ``values`` inserted before index ``at`` (``np.insert``
    costs more per call at these sizes)."""
    return np.concatenate([a[:at], values, a[at:]])


class _Standardized:
    """max c.x, A x = b, x >= 0, b >= 0, plus bookkeeping to map back.

    Columns: structural (a variable with a finite lower bound is shifted to
    it, one with only a finite upper bound is reflected, a free one is split
    in two), then one slack per inequality row, then one artificial per row
    (per row standardized at first: ``add_rows`` adds rows with slacks only).
    A variable with both bounds finite gets an extra ``<=`` row.  Only the
    structural block ``S`` is stored: every slack and artificial column is a
    unit column, and column ``n_struct + u`` is ``unit_val[u]`` (+1 or -1)
    in row ``unit_row[u]`` and zero elsewhere.  The methods below apply
    ``A`` from ``S`` and these descriptors.  The slack or artificial chosen
    per row by ``basis_start`` has a +1, so that basis matrix is the
    identity.
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

        S = np.zeros((m, n_struct))
        top = S[:m0]  # written in place: a full-size temporary costs more than the gather
        np.take(p.A, orig, axis=1, out=top, mode="clip")  # "clip" writes out unbuffered
        top *= sign
        top *= flip[:m0, None]
        S[np.arange(m0, m), first[boxed]] = 1.0

        self.n0, self.m0 = n0, m0
        self.base, self.orig, self.sign = base, orig, sign
        self.row_sign, self.row_scale = row_sign, row_scale
        self.S, self.b = S, rhs * row_scale
        self.unit_row = np.concatenate([slack_rows, np.arange(m)])
        self.unit_val = np.concatenate([row_scale[slack_rows], np.ones(m)])
        self.n_struct, self.art0, self.n_cols = n_struct, art0, art0 + m
        self.slack_of_row = np.full(m, -1)
        self.slack_of_row[slack_rows] = n_struct + np.arange(len(slack_rows))
        self.c = np.zeros(self.n_cols)
        self.c[:n_struct] = p.c[orig] * sign
        self.const = float(np.dot(p.c, base))
        self.b_scale = 1.0 + float(np.abs(self.b).max(initial=0.0))
        # pricing scale 1 / sqrt(1 + |a_j|^2): the steepest-edge weight of
        # the slack basis, held fixed; 1 / sqrt(2) for a unit column
        self.price_scale = np.full(self.n_cols, np.sqrt(0.5))
        self._compress()

    def _compress(self) -> None:
        """The structural columns compressed, column k's nonzeros being
        ``nz_val[nz_ptr[k]:nz_ptr[k + 1]]`` in rows ``nz_row[...]``, and
        their pricing scales."""
        S, n_struct = self.S, self.n_struct
        flat = np.flatnonzero(S.T != 0.0)
        nz_col, self.nz_row = np.divmod(flat, len(S))
        self.nz_val = S[self.nz_row, nz_col]
        self.nz_ptr = np.concatenate([[0], np.cumsum(np.bincount(nz_col, minlength=n_struct))])
        self.price_scale[:n_struct] = 1.0 / np.sqrt(
            1.0 + np.bincount(nz_col, weights=self.nz_val ** 2, minlength=n_struct))

    def add_rows(self, A: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Append the ``<=`` rows ``A x <= b`` of the original problem
        after the last row, each with a +1 slack that is inserted before
        the artificials, so that phase 2 still prices a prefix of the
        columns; a right-hand side may be negative.  The artificials stay
        those of the rows standardized at first.  Returns the new rows of
        the structural block."""
        k, at, m = len(b), self.art0, len(self.b)
        rows = A[:, self.orig] * self.sign
        self.S = np.concatenate([self.S, rows])
        self.b = np.concatenate([self.b, b - A @ self.base])
        self.row_sign = np.concatenate([self.row_sign, np.ones(k)])
        self.row_scale = np.concatenate([self.row_scale, np.ones(k)])
        u = at - self.n_struct
        self.unit_row = _insert(self.unit_row, u, np.arange(m, m + k))
        self.unit_val = _insert(self.unit_val, u, np.ones(k))
        self.slack_of_row = np.concatenate([self.slack_of_row, np.arange(at, at + k)])
        self.c = _insert(self.c, at, np.zeros(k))
        self.price_scale = _insert(self.price_scale, at, np.full(k, np.sqrt(0.5)))
        self.art0, self.n_cols = at + k, self.n_cols + k
        self._compress()
        return rows

    def add_columns(self, c: np.ndarray, A: np.ndarray) -> None:
        """Append variables with bounds [0, inf), costs ``c`` and columns
        ``A`` over the rows standardized at first, as structural columns
        inserted before the unit columns, whose indices shift by their
        number."""
        k, at = len(c), self.n_struct
        block = np.zeros((len(self.b), k))
        block[: self.m0] = A * (self.row_sign * self.row_scale)[: self.m0, None]
        self.S = np.hstack([self.S, block])
        self.orig = np.concatenate([self.orig, np.arange(self.n0, self.n0 + k)])
        self.sign = np.concatenate([self.sign, np.ones(k)])
        self.base = np.concatenate([self.base, np.zeros(k)])
        self.c = _insert(self.c, at, c)
        self.price_scale = _insert(self.price_scale, at, np.empty(k))
        self.slack_of_row[self.slack_of_row >= 0] += k
        self.n0, self.n_struct = self.n0 + k, at + k
        self.art0, self.n_cols = self.art0 + k, self.n_cols + k
        self._compress()

    def basis_start(self) -> np.ndarray:
        slack_ok = (self.slack_of_row >= 0) & (self.row_scale > 0)
        return np.where(slack_ok, self.slack_of_row, self.art0 + np.arange(len(self.b)))

    def crash(self, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Triangular crash (Bixby 1992) over the rows where ``cols`` has an
        artificial: repeatedly take a structural column with exactly one
        nonzero among the rows still left, preferring the smallest |c| and
        then the lowest index, and skipping one whose entry there is below
        ``REL_PIVOT_TOL`` times its largest.  Returns the rows and columns
        in the order taken; the block ``S[rows][:, taken]`` is upper
        triangular."""
        R = (cols >= self.art0).nonzero()[0]
        nz = self.S[R] != 0.0
        count = nz.sum(axis=0)
        order = np.lexsort((np.arange(self.n_struct), np.abs(self.c[: self.n_struct])))
        left = np.ones(len(R), dtype=bool)
        done = np.zeros(self.n_struct, dtype=bool)
        rows, taken = [], []
        while True:
            cand = order[(count[order] == 1) & ~done[order]]
            if cand.size == 0:
                return R[rows], np.array(taken, dtype=int)
            j = int(cand[0])
            done[j] = True
            i = int(np.flatnonzero(nz[:, j] & left)[0])
            if abs(self.S[R[i], j]) >= REL_PIVOT_TOL * np.abs(self.S[:, j]).max():
                rows.append(i)
                taken.append(j)
                left[i] = False
                count -= nz[i]

    def basis_matrix(self, cols: np.ndarray) -> np.ndarray:
        """``A[:, cols]``."""
        B = np.zeros((len(self.b), len(cols)))
        struct = cols < self.n_struct
        B[:, struct] = self.S[:, cols[struct]]
        unit = cols[~struct] - self.n_struct
        B[self.unit_row[unit], (~struct).nonzero()[0]] = self.unit_val[unit]
        return B

    def times(self, x: np.ndarray) -> np.ndarray:
        """``A @ x`` for a vector over all columns."""
        return self.S @ x[: self.n_struct] + np.bincount(
            self.unit_row, weights=self.unit_val * x[self.n_struct:], minlength=len(self.b))

    def row_times(self, w: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``w @ A[:, :n]`` written into ``out`` of length ``n >= n_struct``."""
        k, u = self.n_struct, len(out) - self.n_struct
        np.matmul(w, self.S, out=out[:k])
        np.multiply(w[self.unit_row[:u]], self.unit_val[:u], out=out[k:])
        return out

    def ftran(self, inv: np.ndarray, j: int) -> np.ndarray:
        """``A[:, j] @ inv``: the basis inverse times column ``j``, given the
        inverse transposed."""
        if j < self.n_struct:
            lo, hi = self.nz_ptr[j], self.nz_ptr[j + 1]
            return self.nz_val[lo:hi] @ inv[self.nz_row[lo:hi]]
        u = j - self.n_struct
        return inv[self.unit_row[u]] * self.unit_val[u]

    def add_column(self, v: np.ndarray, j: int, scale: float) -> None:
        """``v += scale * A[:, j]`` in place."""
        if j < self.n_struct:
            v += scale * self.S[:, j]
        else:
            u = j - self.n_struct
            v[self.unit_row[u]] += scale * self.unit_val[u]

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

    ``cols`` are the basic columns, ``inv`` the transpose of the explicit
    basis inverse (row ``i`` is column ``i`` of the inverse) and ``xB`` the
    basic values.  A nonbasic variable normally sits at zero, but one that
    left the basis slightly below zero (which the Harris ratio test allows)
    keeps that value in ``xN``; ``rhs = b - A xN`` then keeps
    ``rhs @ inv == xB``, so the tolerance never turns into an inconsistency
    that later pivots could amplify.

    A basic unit column makes its row's row of ``inv`` a unit row too, so
    a column of ``inv`` has at most k + 1 nonzeros, with k the number of
    basic structural columns.  A pivot on basis row ``r`` subtracts
    ``outer(v, d)`` with ``v`` the scaled column ``r``; from
    ``SPARSE_UPDATE_ROWS`` rows on, it gathers by index only the rows of
    ``inv`` where ``v`` is nonzero (``inv[nz]``, rows that need not be
    contiguous), and every entry it skips would have had exactly zero
    subtracted.
    """

    def __init__(self, std: _Standardized, cols: np.ndarray, inv: np.ndarray, xB: np.ndarray):
        N = std.n_cols
        self.std, self.cols, self.inv, self.xB = std, cols, inv, xB
        self.xN = np.zeros(N)
        self.rhs = std.b.copy()
        self.is_basic = np.zeros(N, dtype=bool)
        self.is_basic[cols] = True

    def refactor(self) -> None:
        try:
            self.inv[...] = np.linalg.inv(self.std.basis_matrix(self.cols).T)
        except np.linalg.LinAlgError as e:
            raise LpNumericalError(f"singular basis during refactorization: {e}") from e
        self.rhs = self.std.b - self.std.times(self.xN)
        np.dot(self.rhs, self.inv, out=self.xB)

    def add_columns(self, at: int, k: int) -> None:
        """Make room for ``k`` columns inserted in ``std`` at index ``at``,
        nonbasic at zero."""
        self.cols[self.cols >= at] += k
        self.xN = _insert(self.xN, at, np.zeros(k))
        self.is_basic = _insert(self.is_basic, at, np.zeros(k, dtype=bool))

    def add_rows(self, rows: np.ndarray) -> None:
        """Grow the basis by the rows that ``std.add_rows`` just appended,
        ``rows`` over the structural columns, with their slacks (the last
        columns before the artificials) basic.  The new basis is
        ``[[B, 0], [R, I]]``, with ``R`` the new rows on the basic columns,
        so the transposed inverse grows by a bordered block,
        ``[[inv, -inv R^T], [0, I]]``, and each slack's value is its row's
        right-hand side less ``R xB``, below zero where the row is violated."""
        k, m = len(rows), len(self.cols)
        at = self.std.art0 - k
        self.add_columns(at, k)
        struct = self.cols < self.std.n_struct
        R = np.zeros((k, m))
        R[:, struct] = rows[:, self.cols[struct]]
        inv = np.zeros((m + k, m + k))
        inv[:m, :m] = self.inv
        inv[:m, m:] = -(self.inv @ R.T)
        inv[range(m, m + k), range(m, m + k)] = 1.0
        rhs = self.std.b[m:] - rows @ self.xN[: self.std.n_struct]
        self.rhs = np.concatenate([self.rhs, rhs])
        self.xB = np.concatenate([self.xB, rhs - R @ self.xB])
        self.inv, self.cols = inv, np.concatenate([self.cols, np.arange(at, at + k)])
        self.is_basic[at:at + k] = True

    def pivot(self, j: int, d: np.ndarray, r: int, t: float) -> np.ndarray:
        """Column ``j`` (with ``d = A[:, j] @ inv``) enters, raised by ``t``;
        the variable of row ``r`` leaves at whatever value the step leaves
        it, which is zero up to rounding unless the step is zero.  Returns
        the new row ``r`` of the inverse, along which the duals move."""
        std, xB, xN = self.std, self.xB, self.xN
        k = int(self.cols[r])
        leave = float(xB[r] - t * d[r])
        if t:
            xB -= t * d
        xB[r] = xN[j] + t
        if xN[j]:
            std.add_column(self.rhs, j, xN[j])
            xN[j] = 0.0
        if leave:
            xN[k] = leave
            std.add_column(self.rhs, k, -leave)
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
        return v


def _cold_start(std: _Standardized) -> tuple[_Basis, str]:
    """The crash basis when its basic values are feasible within the Harris
    tolerance, else the identity basis of ``basis_start``.  With ``rows``
    and ``taken`` from ``crash``, the basis is ``I + (A_C - E_R) E_R^T``,
    so its transposed inverse differs from I only in those rows:
    ``inv[rows] = I[rows] - K^-T (A_C - E_R)^T`` with ``K`` the triangular
    block, and ``xB = b - b[rows] @ (K^-T (A_C - E_R)^T)``."""
    m = len(std.b)
    cols = std.basis_start()
    rows, taken = std.crash(cols)
    if taken.size:
        M = std.S[:, taken]
        K = M[rows]
        M[rows, np.arange(len(rows))] -= 1.0
        X = np.linalg.solve(K.T, M.T)
        xB = std.b - std.b[rows] @ X
        if (xB >= -HARRIS_TOL * std.b_scale).all():
            inv = np.eye(m)
            inv[rows] -= X
            cols[rows] = taken
            return _Basis(std, cols, inv, xB), "crash"
    return _Basis(std, cols, np.eye(m), std.b.copy()), "identity"


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


def _simplex_phase(st: _Basis, c, n_price, tol):
    """Run primal simplex for cost ``c`` until optimality, pricing only the
    first ``n_price`` columns.  Returns (status, iterations); status is
    OPTIMAL or UNBOUNDED.

    The duals ``y`` follow each pivot, ``y += z_j * v`` with ``v`` the new
    row of the inverse, and are recomputed as ``inv @ cB`` at every
    refactor and before the phase declares optimality or unboundedness,
    which then prices once more with the fresh duals."""
    c_price = c[:n_price]
    if n_price == 0 or (c_price.max() <= OPT_TOL and not c[st.cols].any()):
        return OPTIMAL, 0  # no column can enter: with y = 0, z = c
    std = st.std
    scale = std.price_scale[:n_price]
    z, score = np.empty(n_price), np.empty(n_price)
    cB = c[st.cols]
    y, fresh = st.inv @ cB, True
    bland = False
    degenerate = 0
    bland_after = 10 * (len(std.b) + std.n_cols)
    max_iter = ITERATIONS_BASE + ITERATIONS_PER_DIM * (len(std.b) + std.n_cols)
    it = 0
    while True:
        if it >= max_iter:
            raise LpNumericalError(f"simplex exceeded {max_iter} iterations")
        if it and it % REFACTOR_EVERY == 0:
            st.refactor()
            y, fresh = st.inv @ cB, True
        np.subtract(c_price, std.row_times(y, z), out=z)
        z[st.is_basic[:n_price]] = -np.inf
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
            d = std.ftran(st.inv, j)
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


def _dual_phase(st: _Basis, c, n_price, tol):
    """Run dual simplex for cost ``c`` from a dual feasible basis, pricing
    only the first ``n_price`` columns, until no basic value is below
    ``-tol``.  Returns (status, iterations); status is OPTIMAL, meaning
    primal feasible, or INFEASIBLE when a leaving row has no entering
    column.

    The row with the most negative basic value leaves (in Bland mode, the
    smallest basic column among those below ``-tol``), the entering column
    comes from ``_ratio_test`` on the pivot row ``inv[:, r] @ A``, and the
    pivot raises it until the leaving value reaches zero.  The
    duals follow each pivot as in ``_simplex_phase``."""
    std = st.std
    c_price = c[:n_price]
    z, lift = np.empty(n_price), np.empty(n_price)
    columns = np.arange(n_price)
    cB = c[st.cols]
    y = st.inv @ cB
    bland = False
    degenerate = 0
    bland_after = 10 * (len(std.b) + std.n_cols)
    max_iter = ITERATIONS_BASE + ITERATIONS_PER_DIM * (len(std.b) + std.n_cols)
    it = 0
    while True:
        if it >= max_iter:
            raise LpNumericalError(f"dual simplex exceeded {max_iter} iterations")
        if it and it % REFACTOR_EVERY == 0:
            st.refactor()
            y = st.inv @ cB
        if bland:
            low = (st.xB < -tol).nonzero()[0]
            if low.size == 0:
                return OPTIMAL, it
            r = int(low[st.cols[low].argmin()])
        else:
            r = int(np.argmin(st.xB))
            if not st.xB[r] < -tol:  # a NaN here fails the certificate later
                return OPTIMAL, it
        std.row_times(-st.inv[:, r], lift)  # -alpha: what raises the leaving row
        lift[st.is_basic[:n_price]] = 0.0
        np.subtract(c_price, std.row_times(y, z), out=z)
        j = _ratio_test(-np.minimum(z, 0.0), lift, columns, bland, OPT_TOL)
        if j < 0:
            return INFEASIBLE, it
        if not np.isfinite(z[j]):
            raise LpNumericalError("non-finite reduced cost")
        d = std.ftran(st.inv, j)
        if not d[r] < -PIVOT_TOL:
            raise LpNumericalError("dual simplex pivot lost its sign")
        if z[j] >= -OPT_TOL:
            degenerate += 1
            if degenerate > bland_after:
                bland = True
        y += z[j] * st.pivot(j, d, r, float(st.xB[r]) / d[r])
        cB[r] = c[j]
        it += 1


def _drive_out_artificials(st: _Basis, art0: int) -> None:
    """Pivot each basic artificial out on its row's largest structural or
    slack entry, by a zero step that moves no value; one whose row has no
    usable entry (a redundant row) stays basic at its phase-1 value."""
    std = st.std
    for r in np.flatnonzero(st.cols >= art0):
        row = np.abs(std.row_times(st.inv[:, r], np.empty(art0)))
        if row.max(initial=0.0) <= PIVOT_TOL:  # also a row with no structural part
            continue
        j = int(np.argmax(row))
        st.pivot(j, std.ftran(st.inv, j), r, 0.0)


def _phases(std: _Standardized, st: _Basis, b_scale: float) -> tuple[str, int, int]:
    """Phase 1, the artificials driven out, then phase 2; returns the
    status and each phase's iterations."""
    N = std.n_cols
    tol = HARRIS_TOL * b_scale
    c1 = np.zeros(N)
    c1[std.art0:] = -1.0
    status, it1 = _simplex_phase(st, c1, N, tol)
    if status != OPTIMAL:
        raise LpNumericalError("phase 1 did not terminate at an optimum")
    if float(c1[st.cols] @ st.xB + c1 @ st.xN) < -FEAS_TOL * b_scale:
        return INFEASIBLE, it1, 0
    _drive_out_artificials(st, std.art0)
    status, it2 = _simplex_phase(st, std.c, std.art0, tol)
    return status, it1, it2


def _refine(std: _Standardized, st: _Basis) -> tuple[np.ndarray, np.ndarray]:
    """The standard form's x and the duals, improved by one step of
    iterative refinement against the basis."""
    B, inv = std.basis_matrix(st.cols), st.inv
    rhs, cB = std.b - std.times(st.xN), std.c[st.cols]
    xB = rhs @ inv
    xB += (rhs - B @ xB) @ inv
    y = inv @ cB
    y += inv @ (cB - y @ B)
    x_int = st.xN.copy()
    x_int[st.cols] = xB
    return x_int, y


class KeptBasis:
    """The standard form and basis of the last optimal answer of the full
    problem that ``solve(problem, start=kept)`` gave, kept by the caller;
    empty after any other answer.  No ``LpSolution`` holds them, since
    callers may keep many solutions, and LP1's take about a megabyte."""

    def __init__(self):
        self.problem: LpProblem | None = None
        self.basis: _Basis | None = None

    def _take(self, problem: LpProblem) -> _Basis | None:
        """Empty the handle.  Returns its basis, grown in place by the
        columns that ``problem`` appends to the kept problem with bounds
        [0, inf) (as ``add_column`` appends them) and refactorized, or None
        when ``problem`` is not the kept problem plus such columns."""
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
        st.add_columns(st.std.n_struct, k)
        st.std.add_columns(problem.c[n0:], problem.A[:, n0:])
        st.refactor()
        return st


def solve(problem: LpProblem, start: KeptBasis | None = None) -> LpSolution:
    """Solve to optimality; returns primal values, row duals, and objective.

    A ``start`` handle resumes its kept problem with columns appended, and
    any other problem starts cold; an optimal answer of the full problem
    refills it.  Otherwise the ``held_rows`` wait outside a working set,
    and the full problem is solved when that fails.  Raises
    ``LpNumericalError`` when the certificate fails, when a basis is
    singular, or when the pivot tolerance cannot make progress within the
    iteration budget even after the Bland's-rule fallback.
    """
    n_bounded = int(np.count_nonzero(np.isfinite(problem.ub)))
    est_rows = problem.n_rows + n_bounded
    if est_rows * (problem.n_vars + 2 * est_rows) > MAX_DENSE_ENTRIES:
        raise CapacityError("problem too large for the dense exact solver")
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


def held_rows(problem: LpProblem) -> np.ndarray:
    """The ``lazy`` rows that ``solve`` holds back when no handle resumes
    it: all of them where there are at least ``LAZY_ROWS_PER_ROW`` per
    other row, else none."""
    held = np.flatnonzero(problem.lazy) if problem.lazy is not None else np.zeros(0, dtype=int)
    return held if len(held) >= LAZY_ROWS_PER_ROW * (problem.n_rows - len(held)) else held[:0]


def _run(problem: LpProblem, held: np.ndarray, st: _Basis | None,
         keep: KeptBasis | None = None) -> LpSolution | None:
    """The solve loop of the module docstring on ``problem`` with its rows
    ``held`` held back, from the basis ``st`` or, when it is None, a cold
    start of the other rows; an optimal answer leaves its basis in
    ``keep``.  Returns None when the working set is unbounded or a joined
    row leaves it infeasible.  After a refactorization for the refined
    duals, a phase 2 that takes no pivot ends the loop (``stalled``)."""
    work = np.delete(np.arange(problem.n_rows), held)
    how = "warm"
    if st is None:
        st, how = _cold_start(_Standardized(problem if not len(held) else LpProblem(
            c=problem.c, A=problem.A[work], senses=tuple(problem.senses[i] for i in work),
            b=problem.b[work], lb=problem.lb, ub=problem.ub)))
    std = st.std
    A, b = problem.A[held], problem.b[held]
    b_scale = max(std.b_scale, 1.0 + float(np.abs(b - A @ std.base).max(initial=0.0)))
    status, it1, it = _phases(std, st, b_scale)
    it += it1
    tol, m_work = HARRIS_TOL * b_scale, len(std.b)
    added, left, stalled = [], np.ones(len(held), dtype=bool), False
    while status == OPTIMAL:
        x_int, y = _refine(std, st)
        x = std.x_original(x_int[: std.n_struct])
        join = (A @ x - b > LAZY_VIOLATION * CERT_TOL * b_scale) & left
        if join.any():
            left &= ~join
            st.add_rows(std.add_rows(A[join], b[join]))
            added.append(held[join])
            status, k = _dual_phase(st, std.c, std.art0, tol)
            it, stalled = it + k, False
            continue
        z = std.c[: std.art0] - std.row_times(y, np.empty(std.art0))
        if stalled or not (z[~st.is_basic[: std.art0]] > OPT_TOL).any():
            break
        st.refactor()
        status, k = _simplex_phase(st, std.c, std.art0, tol)
        it, stalled = it + k, k == 0
    if status != OPTIMAL:
        if len(held) and (status == UNBOUNDED or added):
            return None
        return LpSolution(status=status, iterations=it, phase1_iterations=it1, start=how)
    added = np.concatenate(added) if added else held[:0]
    duals = np.zeros(problem.n_rows)
    duals[work] = std.duals_original(y)
    duals[added] = y[m_work:]
    sol = LpSolution(status=OPTIMAL, x=x, duals=duals,
                     objective=float(std.c @ x_int) + std.const,
                     dual_objective=float(y @ std.b) + std.const,
                     iterations=it, rows_added=len(added), phase1_iterations=it1, start=how)
    _certify(problem, sol, b_scale)
    if keep is not None:
        keep.problem, keep.basis = problem, st
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
    x, y = np.asarray(sol.x, dtype=float), np.asarray(sol.duals, dtype=float)
    senses = np.array(problem.senses, dtype="U2")
    le, ge = senses == LE, senses == GE
    slack = problem.b - problem.A @ x
    viol = np.where(le, -slack, np.where(ge, slack, np.abs(slack)))
    # np.max, unlike Python's max, carries a NaN through
    primal = float(np.max([0.0, np.max(viol, initial=0.0),
                           np.max(problem.lb - x, initial=0.0),
                           np.max(x - problem.ub, initial=0.0)]))
    rc = problem.c - y @ problem.A
    at_lb = x <= problem.lb + FEAS_TOL
    at_ub = x >= problem.ub - FEAS_TOL
    dual = float(np.max([0.0, np.max(np.where(le, -y, np.where(ge, y, 0.0)), initial=0.0),
                         np.max(rc[at_lb & ~at_ub], initial=0.0),     # at lower bound: rc <= 0
                         np.max(-rc[at_ub & ~at_lb], initial=0.0)]))  # at upper bound: rc >= 0
    cs = float(np.max([np.max(np.abs(y * slack), initial=0.0),
                       np.max(np.abs(rc[~at_lb & ~at_ub]), initial=0.0)]))  # interior: rc = 0
    return {"primal": primal, "dual": dual, "cs": cs}


def _certify(problem: LpProblem, sol: LpSolution, b_scale: float) -> None:
    if not (np.isfinite(sol.x).all() and np.isfinite(sol.duals).all()):
        raise LpNumericalError("solution fails its certificate: non-finite x or duals")
    res = solution_residuals(problem, sol)
    # negated comparisons, so that a NaN residual fails too
    if not res["primal"] <= CERT_TOL * b_scale:
        raise LpNumericalError(f"solution fails its certificate: primal residual {res['primal']:.3g}")
    if not res["dual"] <= DUAL_TOL * (1.0 + float(np.abs(problem.c).max(initial=0.0))):
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
