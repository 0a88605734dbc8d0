"""Solvers for the conditioned problem in least-distance form.

The quadratic path minimizes f'f subject to G f <= h with Goldfarb and
Idnani's dual active-set method (Math. Prog. 27, 1983), which the identity
Hessian makes short.  From f = 0, or from a warm-start active set, it adds
the most violated row (smallest index on ties), first dropping any active
row whose multiplier would reach zero on the way.  After every change one
QR factorization of the active rows gives the exact minimum-norm point on
them, so stationarity, complementarity and dual feasibility hold to
rounding at every iterate and nothing is left to polish at the end.  It
stops once no row is violated by more than 1e-12 max(1, |h|_inf) on the
scaled rows, a bound that grows with h as rounding does.  The iteration
count is one per add or drop.

The linear path splits f into nonnegative parts, minimizes the coordinate
sum with a dense two-phase primal simplex (steepest reduced cost, falling
back to Bland's rule after a degenerate stretch so cycling stays
impossible), and maps the vertex back.  Its quadratic cost exceeds the QP
cost by at most a factor tied to the parameter count, which
suboptimality_report checks.  Given the optimal basis of a previous
solve, e.g. the previous receding-horizon step's, solve_lp runs a dual
simplex from it.  The basis must stay dual feasible (every reduced cost
>= -1e-9, the simplex's own stopping test); reduced costs do not depend
on h, so a basis for the same rows with another h always is.  While a
basic value is below -1e-12 max(1, |h|_inf), the most negative one
leaves and the ratio test keeps the reduced costs nonnegative; once
none is, the vertex is optimal.  A basis that is still optimal is
accepted after 0 pivots.  A basis that no longer maps onto the rows or
is not dual feasible, and a dual loop that stalls (no entering column,
the pivot cap, a non-finite tableau, lost dual feasibility), hand the
instance to the cold two-phase simplex, whose verdict stands; only it
reports a status other than 'optimal'.

Both solvers normalize each constraint row to unit gradient norm first; a
row with no gradient is a constant, and one violated by more than
FEASIBILITY_TOL makes the instance infeasible.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np
import scipy.linalg.lapack

from .errors import FlatpolyError
from .costcond import (
    LeastDistanceProblem,
    ParameterizedCost,
    _solve_upper,
    quadratic_value,
    unconstrained_optimum,
)

__all__ = [
    "SolveResult",
    "SuboptimalityReport",
    "solve_unconstrained",
    "solve_qp",
    "solve_lp",
    "suboptimality_report",
    "FEASIBILITY_TOL",
]

#: Absolute feasibility tolerance on unit-gradient constraint rows.
FEASIBILITY_TOL = 1e-8

#: Rows with gradient norm at or below this are constants, not constraints.
ZERO_ROW_TOL = 1e-13

#: A unit row closer than this to the span of the active rows depends on them.
DEPENDENT_ROW_TOL = 1e-10


@dataclass(frozen=True)
class SolveResult:
    """Outcome of one solve.

    alpha, f are None unless status is 'optimal'.  active_rows lists the
    constraint rows (original indexing) tight at the solution; duals holds
    the corresponding multipliers for the unit-norm scaled rows.

    basis is solve_lp's optimal basis, which its warm_start takes: one
    column per kept row, by identity and in original row indexing (j for
    fp_j, n_free + j for fn_j, 2 n_free + r for the slack of row r),
    sorted.  Re-solving the same rows from it takes 0 pivots, and the
    same rows with another h start the dual simplex from it.  It is None
    for the other solvers and for non-optimal solves.

    iterations counts simplex pivots: the dual pivots from a warm basis
    plus, if the dual loop handed over, the cold two-phase pivots.
    """

    alpha: np.ndarray
    f: np.ndarray
    quadratic_cost: float
    iterations: int
    solver: str
    active_rows: tuple
    status: str
    duals: np.ndarray = None
    basis: tuple = None


SuboptimalityReport = namedtuple(
    "SuboptimalityReport", ["j_lp", "j0", "j_c", "bound", "holds"]
)


def solve_unconstrained(pc: ParameterizedCost) -> SolveResult:
    """Closed-form minimizer of the conditioned cost, ignoring constraints."""
    alpha0 = unconstrained_optimum(pc)
    return SolveResult(
        alpha=alpha0,
        f=np.zeros(pc.n_free),
        quadratic_cost=quadratic_value(pc, alpha0),
        iterations=0,
        solver="unconstrained",
        active_rows=(),
        status="optimal",
    )


def _scaled_rows(G, h):
    """Normalize rows to unit gradient norm; separate constant rows.

    Returns (Gn, hn, kept) where kept maps scaled rows back to original
    indices, or None in place of the triple when a constant row is violated
    (the instance is infeasible regardless of f).
    """
    norms = np.linalg.norm(G, axis=1)
    scale = max(1.0, np.abs(G).max()) if G.size else 1.0
    zero = norms <= ZERO_ROW_TOL * scale
    if np.any(h[zero] < -FEASIBILITY_TOL):
        return None
    kept = np.flatnonzero(~zero)
    Gn = G[kept] / norms[kept, None]
    hn = h[kept] / norms[kept]
    return Gn, hn, kept


def _infeasible(solver):
    return SolveResult(
        alpha=None, f=None, quadratic_cost=float("nan"), iterations=0,
        solver=solver, active_rows=(), status="infeasible",
    )


def _dual_active_set(Gn, hn, max_iter, seed):
    """min f'f over unit rows Gn f <= hn by Goldfarb and Idnani's dual method.

    The active set starts from the seed rows, possibly none (duplicates and
    rows in the span of earlier ones skipped, then rows of nonpositive
    multiplier dropped, smallest index first).  Each iteration adds the most
    violated row, or drops the active row whose multiplier reaches zero
    first on the way there; ties go to the smallest row index.  After each
    change one QR factorization of the active rows gives f and the
    multipliers u of f'f/2 exactly: Gn_A f = hn_A and f = -Gn_A' u.

    Returns (status, f, active, u, iterations) with status 'optimal',
    'infeasible' or 'iteration_limit'.
    """
    n = Gn.shape[1]
    tol = 1e-12 * max(1.0, np.abs(hn).max())
    active = sorted(set(seed))
    f, u = np.zeros(n), np.zeros(0)
    while active:
        Q, R = np.linalg.qr(Gn[active].T)
        dep = np.flatnonzero(np.abs(np.diag(R)) <= DEPENDENT_ROW_TOL)
        if len(active) > n or dep.size:
            del active[int(dep[0]) if dep.size else n]
            continue
        y = _solve_upper(R, hn[active], trans=True)
        u_seed = -_solve_upper(R, y)
        if u_seed.min() > 0.0:
            f, u = Q @ y, u_seed
            break
        del active[int(np.argmax(u_seed <= 0.0))]

    iters = 0
    while True:
        viol = Gn @ f - hn
        viol[active] = -np.inf
        p = int(np.argmax(viol))
        if viol[p] <= tol:
            return "optimal", f, active, u, iters
        u = np.append(u, 0.0)  # the multiplier of p grows from zero
        while True:
            iters += 1
            if iters > max_iter:
                return "iteration_limit", None, (), None, iters
            k = len(active)
            Q, R = np.linalg.qr(Gn[active + [p]].T)
            if k < n and abs(R[k, k]) > DEPENDENT_ROW_TOL:
                y = _solve_upper(R, hn[active + [p]], trans=True)
                u_full = -_solve_upper(R, y)
                blocking = np.flatnonzero(u_full[:k] < 0.0)
                if blocking.size == 0:
                    active, f, u = active + [p], Q @ y, u_full
                    break
                # Along the segment from u to u_full, the first multiplier
                # to reach zero leaves the active set.
                ratios = u[blocking] / (u[blocking] - u_full[blocking])
                step = u_full - u
            else:
                # Row p lies in the span of the active rows: f stays, and
                # raising its multiplier moves the others by -r each.
                r = _solve_upper(R[:k, :k], R[:k, k])
                blocking = np.flatnonzero(r > DEPENDENT_ROW_TOL)
                if blocking.size == 0:
                    return "infeasible", None, (), None, iters
                ratios = u[blocking] / r[blocking]
                step = np.append(-r, 1.0)
            j = np.lexsort((np.asarray(active)[blocking], ratios))[0]
            u = np.maximum(u + ratios[j] * step, 0.0)
            drop = int(blocking[j])
            u = np.delete(u, drop)
            del active[drop]


def solve_qp(ldp: LeastDistanceProblem, max_iter=None, warm_start=None
             ) -> SolveResult:
    """Minimize f'f subject to the least-distance constraint rows.

    The dual active-set method of the module docstring, on the unit-norm
    rows Gn f <= hn: the reported f, active rows and multipliers mu satisfy
    2 f + Gn' mu = 0, mu >= 0 and mu_i (Gn f - hn)_i = 0 to rounding.  A
    violated row in the span of the active rows whose multiplier can grow
    without limit certifies that no feasible f exists.

    Parameters
    ----------
    max_iter : int, optional
        Cap on active-set changes (one per add or drop); defaults to 10
        times the row count.
    warm_start : iterable of int, optional
        Row indices (original indexing) expected active, e.g. from the
        previous receding-horizon step; they are the starting active set.

    Returns
    -------
    SolveResult with solver='qp'.
    """
    n = ldp.n_free
    scaled = _scaled_rows(ldp.G, ldp.h)
    if scaled is None:
        return _infeasible("qp")
    Gn, hn, kept = scaled
    M = kept.size
    if M == 0:
        return SolveResult(
            alpha=ldp.alpha0, f=np.zeros(n), quadratic_cost=ldp.c,
            iterations=0, solver="qp", active_rows=(), status="optimal",
            duals=np.zeros(0),
        )
    if max_iter is None:
        max_iter = 10 * M

    seed = []
    if warm_start is not None:
        rows = np.fromiter(warm_start, dtype=int)
        pos = np.searchsorted(kept, rows)
        seed = pos[kept.take(pos, mode="clip") == rows].tolist()
    status, f, active, u, iters = _dual_active_set(Gn, hn, max_iter, seed)
    if status != "optimal":
        return SolveResult(
            alpha=None, f=None, quadratic_cost=float("nan"),
            iterations=iters, solver="qp", active_rows=(), status=status,
        )
    mu = np.zeros(M)
    mu[active] = 2.0 * u
    alpha = ldp.alpha_from_f(f)
    return SolveResult(
        alpha=alpha, f=f, quadratic_cost=float(f @ f + ldp.c),
        iterations=iters, solver="qp",
        active_rows=tuple(int(kept[i]) for i in sorted(active)),
        status="optimal", duals=mu,
    )


def _pivot(tableau, leave, entering):
    """Scale row leave to a unit pivot and eliminate column entering."""
    tableau[leave] /= tableau[leave, entering]
    factor = tableau[:, entering].copy()
    factor[leave] = 0.0
    tableau -= np.outer(factor, tableau[leave])


def _simplex(tableau, basis, cost_row, max_iter, iters):
    """Dense primal simplex on an equality tableau.

    Pivoting is Dantzig's rule (most negative reduced cost, smallest index
    on ties); after a run of degenerate pivots it falls back to Bland's
    rule until progress resumes, which rules out cycling while keeping the
    fast rule on the non-degenerate path.  Fully deterministic.

    tableau: (M, n_cols+1) with the rhs in the last column and a feasible
    basis; cost_row: length n_cols objective.  Mutates tableau/basis.
    Returns (iters, status) with status in 'optimal' | 'iteration_limit';
    raises FlatpolyError on unboundedness (malformed input, defensive).
    """
    n_cols = tableau.shape[1] - 1
    degenerate_streak = 0
    while True:
        # Reduced costs for the current basis.
        cb = cost_row[basis]
        red = cost_row - cb @ tableau[:, :n_cols]
        entering = -1
        if degenerate_streak < 8:
            j = int(np.argmin(red))
            if red[j] < -1e-9:
                entering = j
        else:
            eligible = np.flatnonzero(red < -1e-9)  # Bland: smallest index
            if eligible.size:
                entering = int(eligible[0])
        if entering < 0:
            return iters, "optimal"
        iters += 1
        if iters > max_iter:
            return iters, "iteration_limit"
        # Ratio test: minimum ratio, smallest basic index among near-ties.
        col = tableau[:, entering]
        rows = np.flatnonzero(col > 1e-11)
        if rows.size == 0:
            raise FlatpolyError(
                "LP relaxation is unbounded; constraint rows are malformed"
            )
        ratios = tableau[rows, -1] / col[rows]
        tied = np.flatnonzero(ratios <= ratios.min() + 1e-12)
        pick = tied[np.argmin(basis[rows[tied]])]
        leave = int(rows[pick])
        degenerate_streak = degenerate_streak + 1 if ratios[pick] <= 1e-12 else 0
        _pivot(tableau, leave, entering)
        basis[leave] = entering


def _warm_vertex(Gn, hn, kept, n_rows, basis):
    """The vertex of a given basis if that basis is dual feasible here.

    basis is in SolveResult.basis form.  Of its M columns, s <= n come
    from fp and fn and the rest are slacks, so the s rows whose slack is
    nonbasic hold B v = hn with B the s x s block of the basic fp, fn
    columns; v gives the vertex f, and B' y = 1 the duals y of those rows
    (the other rows' duals are zero).  The basis is dual feasible when
    every reduced cost is >= -1e-9: 1 - Gn' y for fp, 1 + Gn' y for fn
    and -y for a slack; it is also primal feasible, hence optimal, when
    every basic value is >= -1e-12 max(1, |hn|_inf).

    Returns (f, sorted basis tuple, primal feasible), or None when the
    basis is not dual feasible here or does not map onto these rows: wrong
    length, a duplicated or out-of-range column, the slack of a row that
    _scaled_rows dropped, or a singular or non-finite block.
    """
    M, n = Gn.shape
    b = np.asarray(basis)
    if b.shape != (M,) or b.dtype.kind not in "iu":
        return None
    b = np.sort(b)
    if b[0] < 0 or b[-1] >= 2 * n + n_rows or (b[1:] == b[:-1]).any():
        return None
    n_fp, s = np.searchsorted(b, (n, 2 * n))
    fp, fn = b[:n_fp], b[n_fp:s] - n
    basic_fp = np.zeros(n, dtype=bool)
    basic_fp[fp] = True
    if basic_fp[fn].any():
        return None  # fp_j and fn_j are both basic: B is singular
    rows = b[s:] - 2 * n
    basic_slack = np.searchsorted(kept, rows)
    if (kept.take(basic_slack, mode="clip") != rows).any():
        return None  # the slack of a dropped row
    tight = np.ones(M, dtype=bool)
    tight[basic_slack] = False
    Gt = Gn[tight]
    tol = 1e-12 * max(1.0, np.abs(hn).max())
    f = np.zeros(n)
    y = np.zeros(s)
    primal = True
    if s:
        B = Gt[:, np.concatenate([fp, fn])]
        B[:, n_fp:] *= -1.0
        lu, piv, info = scipy.linalg.lapack.dgetrf(B)
        if info > 0:
            return None
        v, _ = scipy.linalg.lapack.dgetrs(lu, piv, hn[tight])
        y, _ = scipy.linalg.lapack.dgetrs(lu, piv, np.ones(s), trans=1)
        if not (np.isfinite(v).all() and np.isfinite(y).all()):
            return None
        primal = not (v < -tol).any()
        f[fp] = v[:n_fp]
        f[fn] = -v[n_fp:]
    if (y > 1e-9).any() or (1.0 - np.abs(y @ Gt) < -1e-9).any():
        return None
    primal = primal and not (
        Gn[basic_slack] @ f - hn[basic_slack] > tol).any()
    return f, tuple(b.tolist()), primal


def _dual_simplex(Gn, hn, kept, basis, max_iter):
    """Dual pivots from a dual feasible basis until it is primal feasible.

    basis is a sorted SolveResult.basis that _warm_vertex accepted.  The
    tableau B^-1 [A | hn] of the standard form [Gn, -Gn, I] v = hn is
    built once, from B's s x s block.  Each pivot takes out the row of
    the most negative basic value (smallest column on ties) and brings in
    the column of minimum ratio d_j / -a_rj over a_rj < -1e-11 (smallest
    column on near-ties), which keeps every reduced cost d_j >= 0.  After
    a run of dual-degenerate pivots (ratio zero) the leaving row is the
    infeasible one of smallest column until progress resumes: Bland's
    rule in dual form, which rules out cycling as in _simplex.

    Returns (basis, pivots) with basis in SolveResult.basis form once
    every basic value is >= -1e-12 max(1, |hn|_inf), or None in its place
    when no column can enter, max_iter pivots were not enough, the tableau
    is not finite or a reduced cost falls below -1e-9.  The loop never
    declares infeasibility; the caller hands such instances to the cold
    simplex.
    """
    M, n = Gn.shape
    b = np.asarray(basis)
    s = np.searchsorted(b, 2 * n)
    slack_rows = np.searchsorted(kept, b[s:] - 2 * n)
    cols = np.concatenate([b[:s], 2 * n + slack_rows])
    # B^-1 [A | hn] by blocks: the s rows whose slack is nonbasic give
    # the basic fp, fn rows through the s x s block; each basic slack row
    # is its own row of [A | hn] less what the basic fp, fn columns take.
    full = np.hstack([Gn, -Gn, np.eye(M), hn[:, None]])
    tight = np.ones(M, dtype=bool)
    tight[slack_rows] = False
    top = np.linalg.solve(full[tight][:, b[:s]], full[tight])
    rest = full[slack_rows]
    tableau = np.vstack([top, rest - rest[:, b[:s]] @ top])
    cost = np.zeros(2 * n + M)
    cost[: 2 * n] = 1.0
    tol = 1e-12 * max(1.0, np.abs(hn).max())
    pivots = degenerate_streak = 0
    while np.isfinite(tableau).all():
        red = cost - cost[cols] @ tableau[:, :-1]
        if red.min() < -1e-9:
            break
        rhs = tableau[:, -1]
        infeasible = np.flatnonzero(rhs < -tol)
        if infeasible.size == 0:
            slack = cols >= 2 * n
            cols[slack] = 2 * n + kept[cols[slack] - 2 * n]
            return tuple(np.sort(cols).tolist()), pivots
        if degenerate_streak < 8:  # most negative value
            pick = np.lexsort((cols[infeasible], rhs[infeasible]))[0]
        else:  # Bland: smallest column
            pick = np.argmin(cols[infeasible])
        leave = int(infeasible[pick])
        row = tableau[leave, :-1]
        candidates = np.flatnonzero(row < -1e-11)
        if candidates.size == 0 or pivots == max_iter:
            break
        ratios = np.maximum(red[candidates], 0.0) / -row[candidates]
        pick = int(np.argmax(ratios <= ratios.min() + 1e-12))
        degenerate_streak = degenerate_streak + 1 if ratios[pick] <= 1e-12 else 0
        _pivot(tableau, leave, int(candidates[pick]))
        cols[leave] = candidates[pick]
        pivots += 1
    return None, pivots


def solve_lp(ldp: LeastDistanceProblem, max_iter=None, warm_start=None
             ) -> SolveResult:
    """Approximate the least-distance problem through a linear program.

    Each coordinate is split as f_i = fp_i - fn_i with both parts
    nonnegative and the coordinate sum of the parts is minimized, subject
    to the same rows.  At a simplex vertex at most one of fp_i, fn_i is
    basic, so the split is exact.  Solved cold by a two-phase dense
    primal simplex: steepest reduced cost, falling back to Bland's rule
    after a degenerate stretch (anti-cycling, deterministic).  From a warm
    basis, by a dense dual simplex (module docstring).

    Parameters
    ----------
    max_iter : int, optional
        Cap on the dual pivots, and separately on the cold pivots over
        both phases; defaults to 10 times the column count of the
        standard form.
    warm_start : sequence of int, optional
        A basis in SolveResult.basis form, e.g. the previous
        receding-horizon step's.  If it maps onto these rows and is dual
        feasible for them, dual simplex pivots (0 if it is still optimal)
        take it to an optimal basis, whose vertex is returned.  Otherwise,
        or if the dual loop stalls, the cold two-phase simplex runs as
        without it, and iterations includes the dual pivots made.

    Returns
    -------
    SolveResult with solver='lp'; on 'optimal', basis holds the optimal
    basis for the next warm start.
    """
    n = ldp.n_free
    scaled = _scaled_rows(ldp.G, ldp.h)
    if scaled is None:
        return _infeasible("lp")
    Gn, hn, kept = scaled
    M = kept.size
    if M == 0:
        return SolveResult(
            alpha=ldp.alpha0, f=np.zeros(n), quadratic_cost=ldp.c,
            iterations=0, solver="lp", active_rows=(), status="optimal",
            duals=np.zeros(0),
        )
    if max_iter is None:
        max_iter = 10 * (M + 2 * n)
    dual_pivots = 0
    if warm_start is not None:
        n_rows = ldp.G.shape[0]
        warm = _warm_vertex(Gn, hn, kept, n_rows, warm_start)
        if warm is not None and not warm[2]:
            basis, dual_pivots = _dual_simplex(Gn, hn, kept, warm[1], max_iter)
            warm = (None if basis is None
                    else _warm_vertex(Gn, hn, kept, n_rows, basis))
        if warm is not None and warm[2]:
            return _lp_result(ldp, Gn, hn, kept, warm[0], dual_pivots,
                              warm[1])

    # Standard form: [Gn, -Gn] v + s = hn, v >= 0, s >= 0.
    A = np.hstack([Gn, -Gn, np.eye(M)])
    rhs = hn.copy()
    n_struct = 2 * n + M
    neg = rhs < 0
    A[neg] *= -1.0
    rhs[neg] *= -1.0
    art_rows = np.flatnonzero(neg)
    n_art = art_rows.size
    n_cols = n_struct + n_art
    tableau = np.zeros((M, n_cols + 1))
    tableau[:, :n_struct] = A
    for a, i in enumerate(art_rows):
        tableau[i, n_struct + a] = 1.0
    tableau[:, -1] = rhs

    basis = np.empty(M, dtype=int)
    for i in range(M):
        basis[i] = 2 * n + i  # slack of row i
    for a, i in enumerate(art_rows):
        basis[i] = n_struct + a

    # After dual pivots that did not finish, the cold solve still gets
    # max_iter pivots of its own; iterations counts both.
    max_iter += dual_pivots
    iters = dual_pivots
    if n_art:
        phase1 = np.zeros(n_cols)
        phase1[n_struct:] = 1.0
        iters, status = _simplex(tableau, basis, phase1, max_iter, iters)
        if status != "optimal":
            return SolveResult(
                alpha=None, f=None, quadratic_cost=float("nan"),
                iterations=iters, solver="lp", active_rows=(),
                status="iteration_limit",
            )
        resid = float(phase1[basis] @ tableau[:, -1])
        if resid > 1e-9 * max(1.0, np.abs(hn).max()):
            return SolveResult(
                alpha=None, f=None, quadratic_cost=float("nan"),
                iterations=iters, solver="lp", active_rows=(),
                status="infeasible",
            )
        # Pivot any artificial still basic (at zero) out of the basis.
        for i in range(M):
            if basis[i] >= n_struct:
                row = tableau[i, :n_struct]
                j = next((jj for jj in range(n_struct)
                          if abs(row[jj]) > 1e-9), None)
                if j is None:
                    tableau[i] = 0.0  # redundant row
                    continue
                _pivot(tableau, i, j)
                basis[i] = j
        tableau = np.hstack([tableau[:, :n_struct], tableau[:, -1:]])
        n_cols = n_struct

    phase2 = np.zeros(n_cols)
    phase2[: 2 * n] = 1.0
    iters, status = _simplex(tableau, basis, phase2, max_iter, iters)
    if status != "optimal":
        return SolveResult(
            alpha=None, f=None, quadratic_cost=float("nan"),
            iterations=iters, solver="lp", active_rows=(),
            status="iteration_limit",
        )

    v = np.zeros(n_cols)
    v[basis] = tableau[:, -1]
    f = v[:n] - v[n : 2 * n]
    slack = basis >= 2 * n
    basis[slack] = 2 * n + kept[basis[slack] - 2 * n]
    return _lp_result(ldp, Gn, hn, kept, f, iters,
                      tuple(np.sort(basis).tolist()))


def _lp_result(ldp, Gn, hn, kept, f, iters, basis):
    """The optimal SolveResult of solve_lp at the vertex f."""
    slack_vals = Gn @ f - hn
    active = tuple(int(kept[i]) for i in np.flatnonzero(
        slack_vals >= -FEASIBILITY_TOL
    ))
    alpha = ldp.alpha_from_f(f)
    return SolveResult(
        alpha=alpha, f=f, quadratic_cost=float(f @ f + ldp.c),
        iterations=iters, solver="lp", active_rows=active,
        status="optimal", basis=basis,
    )


def suboptimality_report(qp: SolveResult, lp: SolveResult,
                         pc: ParameterizedCost, tol=1e-8
                         ) -> SuboptimalityReport:
    """Worst-case bound check relating the LP vertex to the QP optimum.

    With J0 the unconstrained minimum and J_C = J(QP) - J0 the constraint
    cost, the LP solution's quadratic cost is bounded by J0 + n_free * J_C:
    the LP coordinate sum bounds the Euclidean norm by at most a sqrt of
    the dimension, squared in the cost.

    Returns
    -------
    SuboptimalityReport(j_lp, j0, j_c, bound, holds)
    """
    if qp.status != "optimal" or lp.status != "optimal":
        raise FlatpolyError("suboptimality report needs two optimal results")
    alpha0 = unconstrained_optimum(pc)
    j0 = quadratic_value(pc, alpha0)
    j_c = qp.quadratic_cost - j0
    bound = j0 + pc.n_free * j_c
    return SuboptimalityReport(
        j_lp=lp.quadratic_cost,
        j0=j0,
        j_c=j_c,
        bound=bound,
        holds=bool(lp.quadratic_cost <= bound + tol),
    )
