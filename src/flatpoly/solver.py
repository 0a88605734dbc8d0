"""Solvers for the conditioned problem in least-distance form.

The quadratic path minimizes f'f subject to G f <= h with Goldfarb and
Idnani's dual active-set method (Math. Prog. 27, 1983), which the identity
Hessian makes short.  From f = 0, or from a warm-start active set, it adds
the most violated row (smallest index on ties), first dropping any active
row whose multiplier would reach zero on the way.  After every change one
Householder QR factorization of the active rows, Gn_A' = Q R by LAPACK's
dgeqrf, gives the exact minimum-norm point on them: R' y = hn_A, the
multipliers u = -R^-1 y and f = Q [y; 0], with Q applied through its
reflectors by dormqr and never formed.  f is taken as Q [y; 0] and not
as -Gn_A' u, which would multiply the error in u by cond(Gn_A).  So
stationarity, complementarity and dual feasibility hold to rounding at
every iterate and nothing is left to polish at the end.  It
stops once no row is violated by more than 1e-12 max(1, |h|_inf) on the
scaled rows, a bound that grows with h as rounding does.  The iteration
count is one per add or drop.  A warm start seeds the active set (the
online active-set step of Ferreau, Bock and Diehl, IJRNC 2008): one
Cholesky factorization of the warm rows' Gram matrix gives their
multipliers u and the minimum-norm point f = -Gn_A' u on them.  While
there are more rows than parameters, a pivot is below GRAM_PIVOT_TOL or a
multiplier is not positive, one row is dropped and the rest refactored.
The loop starts from what is left; a seed that is still optimal passes
its first stopping test and is the answer after 0 iterations.

The linear path splits f into nonnegative parts, minimizes the coordinate
sum with a dense dual simplex (Lemke 1954) and maps the vertex back.  Its
quadratic cost exceeds the QP cost by at most a factor tied to the
parameter count, which suboptimality_report checks.  The dual simplex
needs a dual feasible start (every reduced cost >= -1e-9, its own
stopping test).  With f = 0 and every slack basic, each reduced cost is 1
(fp, fn) or 0 (slacks), so this all-slack basis is one for every
instance, and a cold solve starts there, as the QP starts from f = 0.
Given the optimal basis of a previous solve, e.g. the previous
receding-horizon step's, solve_lp starts from it instead when it maps
onto the rows and is dual feasible; reduced costs do not depend on h, so
a basis for the same rows with another h always is.  While a basic value
is below -1e-12 max(1, |h|_inf), the most negative one leaves and the
ratio test keeps the reduced costs nonnegative; once none is, the vertex
is optimal.  A leaving row with no entry below -PIVOT_TOL is a Farkas row
and certifies that no feasible f exists.  A basis that is still optimal
is accepted after 0 pivots.  A warm start whose pivots stall (lost dual
feasibility, a non-finite tableau, or a final basis that fails
_warm_vertex's fresh check) restarts once from the slack basis, unless it
was the slack basis.

A basis that solve_lp returns carries the layout it was checked with:
which columns are basic and which rows are tight.  A warm start from it
on rows of the same shape skips that check and mapping, which would
repeat unchanged work, since consecutive receding-horizon steps keep the
same basis on most steps.  The numeric tests (the block's LU factors,
the vertex, dual and primal feasibility) depend on the new rows and run
on every warm start.  The dual simplex's own final basis skips the check
too; any other sequence is checked and mapped first.

Both solvers normalize each constraint row to unit gradient norm first; a
row with no gradient is a constant, and one violated by more than
FEASIBILITY_TOL makes the instance infeasible.  A satisfied constant row
is made the inert row 0 f <= 1, which no QP step or LP pivot can make
active, remove or bring in, so both solvers answer in the caller's rows:
active_rows, duals and basis index them, and the max_iter defaults count
every row.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from ._lapack import lapack
from .errors import FlatpolyError
from .costcond import (
    LeastDistanceProblem,
    ParameterizedCost,
    _solve_upper,
    least_distance_transform,
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

#: The QP's warm seed keeps a row only when its pivot in the Cholesky
#: factorization of the seed rows' Gram matrix is at least this.  The Gram
#: matrix squares the condition number of the unit rows, so this keeps the
#: seed's multipliers far from rank deficiency, where DEPENDENT_ROW_TOL on
#: the loop's QR factor would not.
GRAM_PIVOT_TOL = 1e-6

#: The dual simplex pivots only on tableau entries below -PIVOT_TOL.  Pivots
#: on entries down to -1e-11 grew the tableau to 1e13 on high-degree
#: infeasible instances, which then lost dual feasibility.
PIVOT_TOL = 1e-7


@dataclass(frozen=True)
class SolveResult:
    """Outcome of one solve.

    alpha, f are None unless status is 'optimal'.  Rows are the caller's
    rows, constant ones included, which are never active.  active_rows
    lists the constraint rows tight at the solution; duals holds the QP's
    multipliers for the unit-norm scaled rows, one entry per row.

    basis is solve_lp's optimal basis, which its warm_start takes: one
    column per row, by identity (j for fp_j, n_free + j for fn_j,
    2 n_free + r for the slack of row r, which is basic for a constant
    row), sorted.  It is a private tuple subclass that equals, hashes and
    prints as the plain tuple of those columns, and also carries their
    checked layout, which a warm start on rows of the same shape reuses.
    Re-solving the same rows from it takes 0 pivots, and the same rows
    with another h start the dual simplex from it in place of the
    all-slack basis.  It is None for the other solvers and for
    non-optimal solves.

    iterations counts the add or drop steps of the QP and the pivots of
    the LP's dual simplex, those of a warm start that stalled and
    restarted from the slack basis included.
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
    """Closed-form minimizer of the conditioned cost, ignoring constraints:
    the alpha0 and J(alpha0) of least_distance_transform(pc)."""
    ldp = least_distance_transform(pc)
    return SolveResult(
        alpha=ldp.alpha0,
        f=np.zeros(ldp.n_free),
        quadratic_cost=ldp.c,
        iterations=0,
        solver="unconstrained",
        active_rows=(),
        status="optimal",
    )


def _integers(seq):
    """seq as a flat integer array, or None for anything else."""
    try:
        array = np.asarray(seq)
    except ValueError:  # ragged, e.g. [0, [1, 2]]
        return None
    return array if array.ndim == 1 and array.dtype.kind in "iu" else None


def _scaled_rows(G, h):
    """Normalize rows to unit gradient norm; make constant rows inert.

    Returns (Gn, hn) in the caller's row order, or None when a constant row
    is violated (the instance is infeasible regardless of f).  A satisfied
    constant row becomes 0 f <= 1.
    """
    norms = np.sqrt(np.add.reduce(G * G, axis=1))
    scale = max(1.0, G.max(), -G.min()) if G.size else 1.0
    zero = norms <= ZERO_ROW_TOL * scale
    if not zero.any():
        return G / norms[:, None], h / norms
    if np.any(h[zero] < -FEASIBILITY_TOL):
        return None
    norms[zero] = np.inf
    return G / norms[:, None], np.where(zero, 1.0, h / norms)


def _solve(ldp, solver, core, max_iter, warm_start):
    """Scale the rows, run a solver core on them and build the SolveResult.

    core(Gn, hn, max_iter, warm_start) returns (status, f, iterations,
    active_rows, duals, basis) for at least one row, with f None, no
    active rows, duals or basis unless status is 'optimal'.
    """
    scaled = _scaled_rows(ldp.G, ldp.h)
    if scaled is None:
        out = "infeasible", None, 0, (), None, None
    elif ldp.h.size == 0:
        out = "optimal", np.zeros(ldp.n_free), 0, (), np.zeros(0), None
    else:
        out = core(*scaled, max_iter, warm_start)
    status, f, iters, active, duals, basis = out
    optimal = status == "optimal"
    return SolveResult(
        alpha=ldp.alpha_from_f(f) if optimal else None, f=f,
        quadratic_cost=float(f @ f + ldp.c) if optimal else float("nan"),
        iterations=iters, solver=solver, active_rows=active, status=status,
        duals=duals, basis=basis,
    )


def _dual_active_set(Gn, hn, max_iter, warm_start):
    """min f'f over unit rows Gn f <= hn by Goldfarb and Idnani's dual method.

    The active set starts from the warm-start rows in range, sorted and
    deduplicated, possibly none (a warm start that is not a flat sequence
    of integers is ignored).  One Cholesky factorization R'R of their Gram
    matrix Gn_A Gn_A' gives the multipliers u of Gn_A f = hn_A and
    f = -Gn_A' u, the point the QR below would give.  Until every pivot
    R_ii^2 is at least GRAM_PIVOT_TOL, there are at most n rows and every
    u is positive, one row is dropped and the rest refactored: the first
    of a small or failed pivot (a row in the span of earlier ones, an inert
    row's zero gradient included), else row n, else the first of
    nonpositive multiplier.  Each iteration then adds the most violated
    row, or drops the active row whose multiplier reaches zero first on
    the way there; ties go to the smallest row index.  After each change
    dgeqrf factors the k + 1 rows Gn_A' = Q R in place; R is the upper
    triangle of the factor's leading rows, which is all that _solve_upper
    reads.  R' y = hn_A and R u = -y give the multipliers, and dormqr
    applies Q's reflectors to [y; 0] for f = Q [y; 0], which holds the
    active rows to rounding whatever cond(Gn_A) is; -Gn_A' u would not.
    With k = n the factor is n x (n + 1): row p's coordinates are its last
    column, and R[:n, :n] r = R[:n, n] expresses row p in the active rows.
    A seed that is still optimal passes the first stopping test: 0
    iterations.

    Returns _solve's core tuple with status 'optimal', 'infeasible' or
    'iteration_limit', the last before a change that would take the count
    past max_iter; duals are the multipliers 2 u of f'f, one per row.
    """
    M, n = Gn.shape
    if max_iter is None:
        max_iter = 10 * M
    tol = 1e-12 * max(1.0, np.abs(hn).max())
    seed = None if warm_start is None else _integers(list(warm_start))
    active = []
    if seed is not None:  # else start cold
        active = sorted(set(seed[(seed >= 0) & (seed < M)].tolist()))
    active = np.array(active, dtype=np.intp)
    f, u = np.zeros(n), np.zeros(0)
    while active.size:
        GA = Gn[active]
        # The Gram matrix is symmetric: its transpose is the same matrix in
        # Fortran order, which LAPACK takes without a copy.
        L, info = lapack.dpotrf((GA @ GA.T).T, lower=1)
        d = L.diagonal()
        if info or active.size > n or d.min() ** 2 < GRAM_PIVOT_TOL:
            # dpotrf stops at its first nonpositive pivot, number info.
            done = info - 1 if info else active.size
            small = np.flatnonzero(d[:done] ** 2 < GRAM_PIVOT_TOL)
            active = np.delete(
                active, int(small[0]) if small.size else min(done, n))
            continue
        y = _solve_upper(L.T, hn[active], trans=True)
        u_seed = -_solve_upper(L.T, y)
        if u_seed.min() > 0.0:
            f, u = -(u_seed @ GA), u_seed
            break
        active = np.delete(active, int(np.argmax(u_seed <= 0.0)))

    iters = 0
    while True:
        viol = Gn @ f - hn
        viol[active] = -np.inf
        p = int(np.argmax(viol))
        if viol[p] <= tol:
            mu = np.zeros(M)
            mu[active] = 2.0 * u
            return ("optimal", f, iters, tuple(sorted(active.tolist())), mu,
                    None)
        u = np.append(u, 0.0)  # the multiplier of p grows from zero
        while True:
            if iters + 1 > max_iter:
                return "iteration_limit", None, iters, (), None, None
            iters += 1
            k = active.size
            rows = np.append(active, p)
            # Gn[rows] is a fresh C-ordered copy, so its transpose is in
            # Fortran order and LAPACK factors it in place.
            R, tau, _, _ = lapack.dgeqrf(Gn[rows].T, overwrite_a=1)
            if k < n and abs(R[k, k]) > DEPENDENT_ROW_TOL:
                y = _solve_upper(R[:k + 1], hn[rows], trans=True)
                u_full = -_solve_upper(R[:k + 1], y)
                blocking = np.flatnonzero(u_full[:k] < 0.0)
                if blocking.size == 0:
                    # f = Q [y; 0] through the reflectors, never forming Q.
                    y_n = np.zeros((n, 1))
                    y_n[:k + 1, 0] = y
                    f = lapack.dormqr("L", "N", R, tau, y_n, 1,
                                      overwrite_c=1)[0][:, 0]
                    active, u = rows, u_full
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
                    return "infeasible", None, iters, (), None, None
                ratios = u[blocking] / r[blocking]
                step = np.append(-r, 1.0)
            j = np.lexsort((active[blocking], ratios))[0]
            u = np.maximum(u + ratios[j] * step, 0.0)
            drop = int(blocking[j])
            u = np.delete(u, drop)
            active = np.delete(active, drop)


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
        times the row count, constant rows included.  The solve stops
        with 'iteration_limit' before a change past it.
    warm_start : iterable of int, optional
        Row indices expected active, e.g. from the previous
        receding-horizon step.  They seed the active set, less the rows
        that are dependent, too many or of nonpositive multiplier, and
        are the answer after 0 iterations when still optimal.  One that
        is not a flat sequence of integers (a ragged one included) is
        ignored.

    Returns
    -------
    SolveResult with solver='qp'; duals holds mu, one entry per row (0
    for a constant row).
    """
    return _solve(ldp, "qp", _dual_active_set, max_iter, warm_start)


def _pivot(tableau, leave, entering):
    """Scale row leave to a unit pivot and eliminate column entering."""
    tableau[leave] /= tableau[leave, entering]
    factor = tableau[:, entering].copy()
    factor[leave] = 0.0
    tableau -= np.outer(factor, tableau[leave])


#: A dual feasible basis: its vertex f, the sorted basis, whether it is
#: primal feasible, and the LU factors of its fp, fn block (None when it
#: has no fp, fn column, i.e. it is the all-slack basis).
_Vertex = namedtuple("_Vertex", ["f", "basis", "primal", "lu"])


class _Basis(tuple):
    """A basis in SolveResult.basis form with its layout for rows of
    shape (M, n), which _layout derives: the counts n_fp of basic
    fp columns and s of basic fp and fn columns, the parameters fp and fn
    of those columns, the boolean mask tight of the rows whose slack is
    nonbasic and the rows basic_slack whose slack is basic.  It is the
    tuple of the sorted columns, and equal to it; the layout depends on
    nothing but the columns and (M, n).
    """


def _layout(b, M, n):
    """The _Basis of sorted, valid columns b for M rows, n parameters."""
    n_fp, s = np.searchsorted(b, (n, 2 * n))
    basic_slack = b[s:] - 2 * n
    tight = np.ones(M, dtype=bool)
    tight[basic_slack] = False
    layout = _Basis(b.tolist())
    layout.shape, layout.n_fp, layout.s = (M, n), int(n_fp), int(s)
    layout.fp, layout.fn = b[:n_fp], b[n_fp:s] - n
    layout.tight, layout.basic_slack = tight, basic_slack
    for array in (layout.fp, layout.fn, tight, basic_slack):
        array.setflags(write=False)
    return layout


def _basis_layout(basis, M, n):
    """A caller's basis as a _Basis for M rows and n parameters, or None
    when it does not map onto them: wrong length, not integers, a
    duplicated or out-of-range column, or fp_j and fn_j both basic."""
    b = _integers(basis)
    if b is None or b.shape != (M,):
        return None
    b = np.sort(b)
    if b[0] < 0 or b[-1] >= 2 * n + M or (b[1:] == b[:-1]).any():
        return None
    layout = _layout(b, M, n)
    return None if np.isin(layout.fn, layout.fp).any() else layout


def _warm_vertex(Gn, hn, basis):
    """The vertex of a given basis if that basis is dual feasible here.

    basis is in SolveResult.basis form, one column per row.  Of its M
    columns, s <= n come from fp and fn and the rest are slacks, so the s
    rows whose slack is nonbasic hold B v = hn with B the s x s block of
    the basic fp, fn columns; v gives the vertex f, and B' y = 1 the duals
    y of those rows (the other rows' duals are zero).  The basis is dual
    feasible when every reduced cost is >= -1e-9: 1 - Gn' y for fp,
    1 + Gn' y for fn and -y for a slack; it is also primal feasible, hence
    optimal, when every basic value is >= -1e-12 max(1, |hn|_inf).  A
    constant row's slack is basic in every basis that passes: were it
    nonbasic, its zero row would make B singular.

    A _Basis for rows of this shape, which is what every optimal solve_lp
    and _dual_simplex return, skips _basis_layout: its layout depends only
    on the columns and the shape, and a tuple cannot change.  Every other
    basis is checked and mapped first.  The numeric tests depend on Gn
    and hn, so they run on every call: the LU factorization of B, both solves,
    finiteness, dual and primal feasibility.

    Returns a _Vertex whose basis is a _Basis, or None when the basis is
    not dual feasible here or does not map onto these rows (see
    _basis_layout), or its block is singular or non-finite.
    """
    M, n = Gn.shape
    if type(basis) is _Basis and basis.shape == (M, n):
        layout = basis
    else:
        layout = _basis_layout(basis, M, n)
        if layout is None:
            return None
    n_fp, s, fp, fn = layout.n_fp, layout.s, layout.fp, layout.fn
    tight, basic_slack = layout.tight, layout.basic_slack
    Gt = Gn[tight]
    tol = 1e-12 * max(1.0, np.abs(hn).max())
    f = np.zeros(n)
    y = np.zeros(s)
    primal = True
    lu = None
    if s:
        B = Gt[:, np.concatenate([fp, fn])]
        B[:, n_fp:] *= -1.0
        *lu, info = lapack.dgetrf(B)
        if info > 0:
            return None
        v, _ = lapack.dgetrs(*lu, hn[tight])
        y, _ = lapack.dgetrs(*lu, np.ones(s), trans=1)
        if not (np.isfinite(v).all() and np.isfinite(y).all()):
            return None
        primal = not (v < -tol).any()
        f[fp] = v[:n_fp]
        f[fn] = -v[n_fp:]
    if (y > 1e-9).any() or (1.0 - np.abs(y @ Gt) < -1e-9).any():
        return None
    primal = primal and not (
        Gn[basic_slack] @ f - hn[basic_slack] > tol).any()
    return _Vertex(f, layout, primal, lu)


def _dual_simplex(Gn, hn, start, max_iter):
    """Dual simplex pivots from a dual feasible basis until it is optimal.

    start is a _Vertex from _warm_vertex with an fp or fn column, or None
    for the all-slack basis.  The tableau B^-1 [A | hn] of the standard
    form [Gn, -Gn, I] v = hn is built once: on the slack basis it is
    [Gn, -Gn, I | hn] itself, otherwise it comes from the LU factors of
    B's s x s block that _warm_vertex computed.  Each pivot takes out the
    row of the most negative basic value (smallest column on ties) and
    brings in the column of minimum ratio d_j / -a_rj over a_rj < -PIVOT_TOL
    (smallest column on near-ties), which keeps every reduced cost
    d_j >= 0.  After a run of dual-degenerate pivots (ratio zero) the
    leaving row is the infeasible one of smallest column until progress
    resumes: Bland's rule in dual form, which rules out cycling.  A
    constant row's basic value is 1 and its row of the tableau is its
    slack's unit row, so it never leaves and its slack never enters.

    Returns (status, basis, pivots).  status is 'optimal' once every basic
    value is >= -1e-12 max(1, |hn|_inf), with basis a _Basis; otherwise
    basis is None and status is 'infeasible' when the
    leaving row has no entry below -PIVOT_TOL (its basic value is negative
    however the nonbasic columns are raised), 'iteration_limit' before a
    pivot past max_iter, 'lost_dual_feasibility' when a reduced cost falls
    below -1e-9 or 'non_finite' when the tableau overflows.
    """
    M, n = Gn.shape
    full = np.hstack([Gn, -Gn, np.eye(M), hn[:, None]])
    if start is None:
        cols = 2 * n + np.arange(M)
        tableau = full
    else:
        cols = np.array(start.basis)
        s, tight = start.basis.s, start.basis.tight
        # B^-1 [A | hn] by blocks: the s rows whose slack is nonbasic give
        # the basic fp, fn rows through the s x s block; each basic slack
        # row is its own row of [A | hn] less what the basic fp, fn columns
        # take.
        top, _ = lapack.dgetrs(*start.lu, full[tight])
        rest = full[~tight]
        tableau = np.vstack([top, rest - rest[:, cols[:s]] @ top])
    cost = np.zeros(2 * n + M)
    cost[: 2 * n] = 1.0
    tol = 1e-12 * max(1.0, np.abs(hn).max())
    pivots = degenerate_streak = 0
    while np.isfinite(tableau).all():
        red = cost - cost[cols] @ tableau[:, :-1]
        if red.min() < -1e-9:
            return "lost_dual_feasibility", None, pivots
        rhs = tableau[:, -1]
        infeasible = np.flatnonzero(rhs < -tol)
        if infeasible.size == 0:
            return "optimal", _layout(np.sort(cols), M, n), pivots
        if degenerate_streak < 8:  # most negative value
            pick = np.lexsort((cols[infeasible], rhs[infeasible]))[0]
        else:  # Bland: smallest column
            pick = np.argmin(cols[infeasible])
        leave = int(infeasible[pick])
        row = tableau[leave, :-1]
        candidates = np.flatnonzero(row < -PIVOT_TOL)
        if candidates.size == 0:
            return "infeasible", None, pivots
        if pivots + 1 > max_iter:
            return "iteration_limit", None, pivots
        ratios = np.maximum(red[candidates], 0.0) / -row[candidates]
        pick = int(np.argmax(ratios <= ratios.min() + 1e-12))
        degenerate_streak = degenerate_streak + 1 if ratios[pick] <= 1e-12 else 0
        _pivot(tableau, leave, int(candidates[pick]))
        cols[leave] = candidates[pick]
        pivots += 1
    return "non_finite", None, pivots


def _simplex_lp(Gn, hn, max_iter, warm_start):
    """solve_lp's core on the scaled rows; returns _solve's core tuple."""
    M, n = Gn.shape
    if max_iter is None:
        max_iter = 10 * (M + 2 * n)
    vertex = None if warm_start is None else _warm_vertex(Gn, hn, warm_start)
    pivots = 0
    if vertex is None or not vertex.primal:
        # A warm basis without an fp, fn column is the slack basis itself.
        for start in ([vertex] if vertex and vertex.lu else []) + [None]:
            status, basis, used = _dual_simplex(Gn, hn, start,
                                                max_iter - pivots)
            pivots += used
            vertex = _warm_vertex(Gn, hn, basis) if basis else None
            if vertex is not None and vertex.primal:
                break
            if status == "optimal":
                status = "basis_check_failed"
            if status in ("infeasible", "iteration_limit") or start is None:
                return status, None, pivots, (), None, None
    active = np.flatnonzero(Gn @ vertex.f - hn >= -FEASIBILITY_TOL)
    return ("optimal", vertex.f, pivots, tuple(active.tolist()), None,
            vertex.basis)


def solve_lp(ldp: LeastDistanceProblem, max_iter=None, warm_start=None
             ) -> SolveResult:
    """Approximate the least-distance problem through a linear program.

    Each coordinate is split as f_i = fp_i - fn_i with both parts
    nonnegative and the coordinate sum of the parts is minimized, subject
    to the same rows.  At a simplex vertex at most one of fp_i, fn_i is
    basic, so the split is exact.  Solved by the dense dual simplex of the
    module docstring, from the all-slack basis or a warm basis.

    Parameters
    ----------
    max_iter : int, optional
        Cap on all pivots of the solve, a stalled warm start's included;
        defaults to 10 times the column count of the standard form, one
        slack per row, constant rows included.  The solve stops with
        'iteration_limit' before a pivot past it.
    warm_start : sequence of int, optional
        A basis in SolveResult.basis form, e.g. the previous
        receding-horizon step's.  If it maps onto these rows and is dual
        feasible for them, the dual simplex starts from it (0 pivots if
        it is still optimal); otherwise from the all-slack basis.  If its
        pivots stall, they restart once from the slack basis, unless it
        is the slack basis.

    Returns
    -------
    SolveResult with solver='lp'; on 'optimal', basis holds the optimal
    basis for the next warm start.  A non-optimal status is 'infeasible',
    'iteration_limit', or one that names why the pivots from the slack
    basis stalled: 'lost_dual_feasibility', 'non_finite', or
    'basis_check_failed' when _warm_vertex rejects the final basis.
    """
    return _solve(ldp, "lp", _simplex_lp, max_iter, warm_start)


def suboptimality_report(qp: SolveResult, lp: SolveResult,
                         ldp: LeastDistanceProblem, tol=1e-8
                         ) -> SuboptimalityReport:
    """Worst-case bound check relating the LP vertex to the QP optimum.

    qp and lp are solutions of ldp.  With J0 = ldp.c the unconstrained
    minimum and J_C = J(QP) - J0 the constraint cost, the LP solution's
    quadratic cost is bounded by J0 + n_free * J_C: the LP coordinate sum
    bounds the Euclidean norm by at most a sqrt of the dimension, squared
    in the cost.

    Returns
    -------
    SuboptimalityReport(j_lp, j0, j_c, bound, holds)
    """
    if qp.status != "optimal" or lp.status != "optimal":
        raise FlatpolyError("suboptimality report needs two optimal results")
    j0 = ldp.c
    j_c = qp.quadratic_cost - j0
    bound = j0 + ldp.n_free * j_c
    return SuboptimalityReport(
        j_lp=lp.quadratic_cost,
        j0=j0,
        j_c=j_c,
        bound=bound,
        holds=bool(lp.quadratic_cost <= bound + tol),
    )
