import json
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize

import flatpoly.solver as solver_module
from flatpoly import (
    FEASIBILITY_TOL,
    FlatpolyError,
    LeastDistanceProblem,
    ParameterizedCost,
    solve_lp,
    solve_qp,
    solve_unconstrained,
    suboptimality_report,
)


def toy_ldp(G, h, n=None, c=0.0):
    G = np.atleast_2d(np.asarray(G, dtype=float))
    h = np.asarray(h, dtype=float)
    if n is None:
        n = G.shape[1]
    return LeastDistanceProblem(
        F=np.eye(n),
        alpha0=np.zeros(n),
        c=c,
        G=G,
        h=h,
        tags=tuple((int(i), 0) for i in range(G.shape[0])),
    )


def random_feasible_ldp(rng, max_n=12, max_m=60, shape=None, G=None):
    """Instance with a known feasible point f0 and mixed slack signs.

    shape = (M, n) fixes the row and parameter counts instead of drawing
    them; G fixes the rows themselves, so only h and c are drawn.
    """
    if G is not None:
        M, n = G.shape
    elif shape is None:
        n = int(rng.integers(2, max_n + 1))
        M = int(rng.integers(1, max_m + 1))
    else:
        M, n = shape
    if G is None:
        G = rng.standard_normal((M, n))
    f0 = rng.standard_normal(n) * rng.uniform(0.2, 1.5)
    slack = np.where(rng.random(M) < 0.4, 0.0, rng.random(M))
    h = G @ f0 + slack
    return toy_ldp(G, h, c=float(rng.uniform(0.0, 2.0))), f0


def enumeration_projection(G, h):
    """Exact projection of the origin onto {f : G f <= h}.

    Tries every candidate active set of size <= n and keeps the KKT point;
    finite, exact, and independent of the active-set iteration under test.
    """
    norms = np.linalg.norm(G, axis=1)
    Gn = G / norms[:, None]
    hn = h / norms
    M, n = Gn.shape
    if hn.min() >= 0.0:
        return np.zeros(n)
    best = None
    for k in range(1, n + 1):
        for rows in combinations(range(M), k):
            A = Gn[list(rows)]
            rhs = hn[list(rows)]
            try:
                lam = np.linalg.solve(A @ A.T, rhs)
            except np.linalg.LinAlgError:
                continue
            if lam.max() > 1e-9:
                continue  # a multiplier would be negative
            f = A.T @ lam
            if (Gn @ f - hn).max() > 1e-9:
                continue
            if best is None or f @ f < best @ best:
                best = f
    return best


def check_kkt(ldp, res, tol=1e-7):
    norms = np.linalg.norm(ldp.G, axis=1)
    Gn = ldp.G / norms[:, None]
    hn = ldp.h / norms
    resid = Gn @ res.f - hn
    assert resid.max() <= FEASIBILITY_TOL
    mu = res.duals
    assert mu.min() >= -1e-9
    stat = 2.0 * res.f + Gn.T @ mu
    scale = 1.0 + np.linalg.norm(res.f)
    assert np.linalg.norm(stat) <= tol * scale
    comp = np.abs(mu * resid)
    assert comp.max() <= tol * scale


def test_unconstrained_examples():
    pc = ParameterizedCost(K=np.eye(3), k=np.zeros(3), k0=4.0)
    res = solve_unconstrained(pc)
    np.testing.assert_allclose(res.alpha, np.zeros(3))
    assert res.quadratic_cost == pytest.approx(4.0)
    assert res.iterations == 0 and res.status == "optimal"
    pc2 = ParameterizedCost(K=2.0 * np.eye(2), k=[2.0, 0.0], k0=1.0)
    res2 = solve_unconstrained(pc2)
    np.testing.assert_allclose(res2.alpha, [-0.5, 0.0])
    assert res2.quadratic_cost == pytest.approx(0.5)


def test_qp_no_constraints_returns_center():
    ldp = toy_ldp(np.zeros((0, 3)), np.zeros(0), n=3, c=1.5)
    res = solve_qp(ldp)
    np.testing.assert_allclose(res.f, np.zeros(3))
    assert res.quadratic_cost == pytest.approx(1.5)
    assert res.status == "optimal" and res.active_rows == ()


def test_qp_scalar_bound():
    # min f^2 subject to f >= 1.
    res = solve_qp(toy_ldp([[-1.0]], [-1.0]))
    np.testing.assert_allclose(res.f, [1.0], atol=1e-12)
    assert res.quadratic_cost == pytest.approx(1.0)
    assert res.active_rows == (0,)


def test_qp_halfspace_projection():
    # min ||f||^2 subject to f1 + f2 >= 1.
    ldp = toy_ldp([[-1.0, -1.0]], [-1.0])
    res = solve_qp(ldp)
    np.testing.assert_allclose(res.f, [0.5, 0.5], atol=1e-12)
    assert res.quadratic_cost == pytest.approx(0.5)
    check_kkt(ldp, res)


def test_lp_halfspace_vertex_and_bound_equality():
    ldp = toy_ldp([[-1.0, -1.0]], [-1.0])
    qp = solve_qp(ldp)
    lp = solve_lp(ldp)
    assert lp.status == "optimal"
    np.testing.assert_allclose(np.abs(lp.f).sum(), 1.0, atol=1e-12)
    assert lp.quadratic_cost == pytest.approx(1.0)
    report = suboptimality_report(qp, lp, ldp)
    assert report.holds
    assert report.bound == pytest.approx(1.0)
    assert report.j_lp == pytest.approx(report.bound)


def test_qp_random_instances_kkt_and_oracles():
    rng = np.random.default_rng(71)
    compared = 0
    for _ in range(200):
        ldp, f0 = random_feasible_ldp(rng)
        res = solve_qp(ldp)
        assert res.status == "optimal"
        check_kkt(ldp, res)
        # never worse than feasible competitors: random draws plus the
        # segment toward the known feasible point (feasible by convexity)
        width = 0.5 * (1.0 + np.linalg.norm(res.f))
        cand = res.f + width * rng.standard_normal((30, ldp.n_free))
        segment = [t * res.f + (1.0 - t) * f0
                   for t in (0.0, 0.25, 0.5, 0.75)]
        cand = np.vstack([cand, segment])
        feas = (ldp.G @ cand.T <= ldp.h[:, None] + 1e-12).all(axis=0)
        for z in cand[feas]:
            assert z @ z >= res.f @ res.f - 1e-9
            compared += 1
    assert compared >= 800


def test_qp_matches_enumeration_oracle():
    rng = np.random.default_rng(73)
    for _ in range(25):
        ldp, _ = random_feasible_ldp(rng, max_n=5, max_m=12)
        res = solve_qp(ldp)
        assert res.status == "optimal"
        ref = enumeration_projection(ldp.G, ldp.h)
        assert ref is not None
        np.testing.assert_allclose(
            res.f @ res.f, ref @ ref, rtol=1e-9, atol=1e-12
        )
        np.testing.assert_allclose(
            res.f, ref, atol=1e-7 * (1.0 + np.linalg.norm(ref))
        )


def test_lp_random_instances_feasible_and_bounded():
    rng = np.random.default_rng(79)
    for _ in range(200):
        ldp, _ = random_feasible_ldp(rng, max_m=40)
        qp = solve_qp(ldp)
        lp = solve_lp(ldp)
        assert lp.status == "optimal"
        norms = np.linalg.norm(ldp.G, axis=1)
        resid = (ldp.G @ lp.f - ldp.h) / norms
        assert resid.max() <= FEASIBILITY_TOL
        assert qp.quadratic_cost <= lp.quadratic_cost + 1e-9
        assert suboptimality_report(qp, lp, ldp).holds


def test_lp_agrees_with_qp_when_origin_feasible():
    rng = np.random.default_rng(83)
    for _ in range(25):
        n = int(rng.integers(2, 8))
        M = int(rng.integers(1, 20))
        G = rng.standard_normal((M, n))
        h = rng.uniform(0.1, 2.0, M)
        ldp = toy_ldp(G, h)
        qp = solve_qp(ldp)
        lp = solve_lp(ldp)
        np.testing.assert_allclose(qp.alpha, np.zeros(n), atol=1e-12)
        np.testing.assert_allclose(
            np.linalg.norm(qp.alpha - lp.alpha), 0.0, atol=1e-8
        )


def test_iteration_limit_status():
    ldp = toy_ldp(-np.eye(2), [-1.0, -1.0])
    res = solve_qp(ldp, max_iter=1)
    assert res.status == "iteration_limit"
    assert res.alpha is None
    full = solve_qp(ldp)
    np.testing.assert_allclose(full.f, [1.0, 1.0], atol=1e-12)
    lp_res = solve_lp(ldp, max_iter=1)
    assert lp_res.status == "iteration_limit"
    # Both solvers take two steps here; each stops before a step that
    # would take its count past max_iter and reports the steps it made.
    assert solve_lp(ldp).iterations == 2
    for max_iter, made in ((0, 0), (1, 1), (-1, 0), (1.5, 1)):
        for solve in (solve_qp, solve_lp):
            res = solve(ldp, max_iter=max_iter)
            assert (res.status, res.iterations) == (
                "iteration_limit", made), (solve, max_iter)
            assert res.f is None and res.alpha is None


def test_infeasible_rows_detected():
    # f1 <= -1 and f1 >= 0 cannot both hold.
    ldp = toy_ldp([[1.0, 0.0], [-1.0, 0.0]], [-1.0, 0.0])
    assert solve_qp(ldp).status == "infeasible"
    assert solve_lp(ldp).status == "infeasible"


@pytest.mark.parametrize("p_row, h_p, expected", [
    # Row 2 is 0.894 row 0 - 0.447 row 1: raising its multiplier lowers
    # row 0's, which reaches zero, so row 0 is dropped (iteration 3) and
    # row 2 joins row 1 (iteration 4).
    ([2.0, -1.0], -0.8, ("optimal", 4, (1, 2))),
    # Row 2 is -0.707 (row 0 + row 1): no multiplier falls as its own
    # grows, so no f satisfies all three rows.
    ([-1.0, -1.0], 0.5, ("infeasible", 3, ())),
])
def test_qp_violated_row_in_span_of_n_active_rows(p_row, h_p, expected):
    # Cold, rows 0 and 1 are added first and make f = (-1, -1) with n = 2
    # rows active.  Row 2 is then violated and lies in their span, so the
    # QR factor of the three rows has n rows and n + 1 columns, and the
    # loop reads row 2's coordinates from its last column.
    p = np.asarray(p_row) / np.linalg.norm(p_row)
    ldp = toy_ldp([[1.0, 0.0], [0.0, 1.0], p], [-1.0, -1.0, h_p])
    res = solve_qp(ldp)
    assert (res.status, res.iterations, res.active_rows) == expected
    if res.status == "optimal":
        # y = -1 and 2x - y = -0.8 sqrt(5), with x <= -1 slack.
        x = (-0.8 * np.sqrt(5.0) - 1.0) / 2.0
        np.testing.assert_allclose(res.f, [x, -1.0], rtol=1e-14)
        check_kkt(ldp, res)


def test_violated_constant_row_is_infeasible():
    ldp = toy_ldp([[0.0, 0.0], [1.0, 0.0]], [-1.0, 1.0])
    assert solve_qp(ldp).status == "infeasible"
    assert solve_lp(ldp).status == "infeasible"


def test_satisfied_constant_row_is_dropped():
    ldp = toy_ldp([[0.0], [-1.0]], [2.0, -1.0])
    res = solve_qp(ldp)
    np.testing.assert_allclose(res.f, [1.0], atol=1e-12)
    assert res.active_rows == (1,)


def with_constant_rows(rng, ldp, count=3):
    """ldp with satisfied constant rows inserted at random places.

    Returns (padded, rows, at): rows[i] is the padded index of ldp's row i
    and at the constant rows' indices.  One constant row carries a
    gradient too small to count.
    """
    M, n = ldp.G.shape
    at = np.sort(rng.choice(M + count, count, replace=False))
    rows = np.setdiff1d(np.arange(M + count), at)
    G, h = np.zeros((M + count, n)), np.zeros(M + count)
    G[rows], h[rows] = ldp.G, ldp.h
    G[at[0]] = 1e-15 * rng.standard_normal(n)
    h[at] = rng.uniform(0.0, 2.0, count)
    return toy_ldp(G, h, c=ldp.c), rows, at


def padded_basis(basis, n, rows, at):
    """An LP basis of ldp in with_constant_rows' padded indexing."""
    cols = [j if j < 2 * n else 2 * n + int(rows[j - 2 * n]) for j in basis]
    return tuple(sorted(cols + [2 * n + int(r) for r in at]))


def test_constant_rows_are_inert():
    # A satisfied constant row is 0 f <= 1 to both solvers: no step or
    # pivot changes, and the answers come back in the caller's rows, with
    # the constant row's slack basic and its multiplier 0.
    rng = np.random.default_rng(139)
    for trial in range(30):
        ldp, _ = random_feasible_ldp(rng, max_m=40)
        padded, rows, at = with_constant_rows(rng, ldp)
        n = ldp.n_free
        new, _ = random_feasible_ldp(rng, G=ldp.G)
        h = padded.h.copy()
        h[rows] = new.h
        new_padded = toy_ldp(padded.G, h, c=new.c)
        qp, lp = solve_qp(ldp), solve_lp(ldp)
        runs = [
            (qp, solve_qp(padded)),
            (solve_qp(ldp, warm_start=qp.active_rows),
             solve_qp(padded, warm_start=list(rows[list(qp.active_rows)])
                      + list(at))),
            (lp, solve_lp(padded)),
            (solve_lp(new, warm_start=lp.basis),
             solve_lp(new_padded, warm_start=padded_basis(lp.basis, n, rows,
                                                          at))),
        ]
        for k, (a, b) in enumerate(runs):
            assert (a.status, a.iterations) == (b.status, b.iterations), k
            assert a.status == "optimal", (trial, k)
            assert np.array_equal(a.f, b.f), (trial, k)
            assert b.active_rows == tuple(rows[list(a.active_rows)]), k
            if a.solver == "qp":
                assert np.array_equal(b.duals[rows], a.duals)
                assert not b.duals[at].any()
            else:
                assert b.basis == padded_basis(a.basis, n, rows, at), k


def test_warm_start_resolves_in_zero_iterations():
    rng = np.random.default_rng(89)
    ldp, _ = random_feasible_ldp(rng, max_n=6, max_m=30)
    cold = solve_qp(ldp)
    warm = solve_qp(ldp, warm_start=cold.active_rows)
    assert warm.status == "optimal"
    assert warm.iterations == 0
    np.testing.assert_allclose(warm.f, cold.f, atol=1e-10)


def test_warm_start_with_rank_deficient_seed_matches_cold():
    # f1 >= 1 twice, f2 >= 1 and 2 f1 >= 2: rows 0, 1 and 3 are parallel,
    # so a seed holding two of them is rank-deficient.
    ldp = toy_ldp([[-1.0, 0.0], [-1.0, 0.0], [0.0, -1.0], [-2.0, 0.0]],
                  [-1.0, -1.0, -1.0, -2.0])
    cold = solve_qp(ldp)
    np.testing.assert_allclose(cold.f, [1.0, 1.0], atol=1e-12)
    for seed in ([0, 1, 2], [0, 0, 2], [0, 1, 2, 3]):
        warm = solve_qp(ldp, warm_start=seed)
        assert warm.status == "optimal" and warm.iterations == 0, seed
        np.testing.assert_allclose(warm.f, cold.f, atol=1e-12)
        assert warm.quadratic_cost == pytest.approx(cold.quadratic_cost)
        check_kkt(ldp, warm)


def test_accept_step_matches_dual_loop_from_same_seed():
    # A warm QP lands where the cold one does: the same status, f to
    # rounding and the KKT conditions, from any seed.  The cold optimum is
    # accepted as it is, after 0 iterations on the cold active rows.
    # Other seeds: a stale optimum of another draw of the same shape,
    # rank-deficient ones (a duplicated row, more rows than parameters)
    # and ones naming constant rows.
    rng = np.random.default_rng(1601)
    iterations = []
    for trial in range(60):
        ldp, _ = random_feasible_ldp(rng, max_m=40)
        M, n = ldp.G.shape
        cold = solve_qp(ldp)
        stale, _ = random_feasible_ldp(rng, shape=(M, n))
        dup = toy_ldp(np.vstack([ldp.G, ldp.G[:1]]),
                      np.append(ldp.h, ldp.h[0]), c=ldp.c)
        padded, rows, at = with_constant_rows(rng, ldp)
        cold_rows = list(cold.active_rows)
        runs = [
            (ldp, cold_rows),
            (ldp, list(solve_qp(stale).active_rows)),
            (ldp, list(range(min(M, n + 2)))),
            (dup, cold_rows + [0, M]),
            (padded, list(rows[cold_rows]) + list(at)),
        ]
        for k, (problem, seed) in enumerate(runs):
            a = solve_qp(problem, warm_start=seed)
            b = solve_qp(problem)
            assert a.status == b.status == "optimal", (trial, k)
            err = np.abs(a.f - b.f).max()
            assert err <= 1e-12 * np.abs(b.f).max(), (trial, k, err)
            if problem is not padded:  # check_kkt takes no constant rows
                check_kkt(problem, a)
            if k == 0:
                assert a.iterations == 0, trial
                assert a.active_rows == cold.active_rows, trial
            iterations.append(a.iterations)
    # Both outcomes occur: seeds that are the answer, and stale or
    # rank-deficient ones from which the loop still has steps to take.
    assert sum(i == 0 for i in iterations) >= 60
    assert max(iterations) > 0


def test_nearly_parallel_seed_rows_are_not_accepted():
    # f1 - e f2 >= 1 and f1 + e f2 >= 1 are both active at f = (1, 0)
    # with positive multipliers, but their Gram matrix has a pivot of
    # about (2 e)^2, below GRAM_PIVOT_TOL, so the seed drops row 1.  Row 0
    # alone leaves row 1 violated by about 2 e^2, above the stopping
    # bound, so the loop adds it back: the same path as a seed of row 0.
    e = 1e-5
    ldp = toy_ldp([[-1.0, e], [-1.0, -e]], [-1.0, -1.0])
    res = solve_qp(ldp, warm_start=[0, 1])
    ref = solve_qp(ldp, warm_start=[0])
    assert (res.status, res.iterations, res.active_rows) == (
        "optimal", 1, (0, 1))
    assert ref.iterations == 1 and np.array_equal(res.f, ref.f)
    np.testing.assert_allclose(res.f, [1.0, 0.0], atol=1e-10)
    check_kkt(ldp, res)
    # The same rows at a wide angle are kept and accepted outright.
    wide = toy_ldp([[-1.0, 1.0], [-1.0, -1.0]], [-1.0, -1.0])
    res = solve_qp(wide, warm_start=[0, 1])
    assert (res.status, res.iterations, res.active_rows) == (
        "optimal", 0, (0, 1))
    np.testing.assert_allclose(res.f, [1.0, 0.0], atol=1e-12)
    # Of two small pivots the first goes: rows e1, e1 + 5e-4 e2 and
    # e2 + 3e-4 e3 have pivots^2 of about 2.5e-7 and 9e-8.  Without row 1
    # the other two are orthogonal and optimal, so the seed is the answer.
    far = toy_ldp(-np.array([[1.0, 0.0, 0.0], [1.0, 5e-4, 0.0],
                             [0.0, 1.0, 3e-4]]), [-1.0, -1.0, -1.0])
    res = solve_qp(far, warm_start=[0, 1, 2])
    assert (res.status, res.iterations, res.active_rows) == (
        "optimal", 0, (0, 2))
    np.testing.assert_allclose(res.f, solve_qp(far).f, atol=1e-12)


def test_warm_seed_drops_rows_of_zero_multiplier():
    # f1 >= 1 and f2 <= 0 are orthogonal and both tight at f = (1, 0), but
    # row 1's multiplier is 0: it leaves the seed, which keeps only rows
    # of positive multiplier, and the answer comes at 0 iterations.
    ldp = toy_ldp([[-1.0, 0.0], [0.0, 1.0]], [-1.0, 0.0])
    res = solve_qp(ldp, warm_start=[0, 1])
    assert (res.status, res.iterations, res.active_rows) == (
        "optimal", 0, (0,))
    np.testing.assert_allclose(res.f, [1.0, 0.0], atol=1e-12)
    check_kkt(ldp, res)


def test_non_integral_warm_start_solves_cold():
    # Seeding rows 1 and 0, or row 0, would skip iterations here, so a
    # warm start read as row indices would show in the iteration count.
    ldp = toy_ldp([[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]], [-1.0, -1.0, 5.0])
    cold = solve_qp(ldp)
    assert cold.iterations == 2
    assert solve_qp(ldp, warm_start=[1, 0]).iterations == 0
    for seed in ([1.7, 0], ["0"], [True], [0, [1, 2]]):
        res = solve_qp(ldp, warm_start=seed)
        assert (res.status, res.iterations) == ("optimal", 2), seed
        assert res.active_rows == cold.active_rows
        assert np.array_equal(res.f, cold.f), seed


def assert_same_as_cold(ldp, res):
    cold = solve_lp(ldp)
    assert (res.status, res.iterations) == (cold.status, cold.iterations)
    assert res.active_rows == cold.active_rows and res.basis == cold.basis
    if cold.f is None:
        assert res.f is None
    else:
        assert np.array_equal(res.f, cold.f)


def lp_dual_feasible(ldp, basis):
    """Whether every reduced cost of an LP basis is >= -1e-9.

    Independent of solve_lp: the standard form [Gn, -Gn, I] of the
    unit rows is built whole, for instances without constant rows.
    """
    Gn = ldp.G / np.linalg.norm(ldp.G, axis=1)[:, None]
    M, n = Gn.shape
    A = np.hstack([Gn, -Gn, np.eye(M)])
    cost = np.concatenate([np.ones(2 * n), np.zeros(M)])
    y = np.linalg.solve(A[:, list(basis)].T, cost[list(basis)])
    return (cost - A.T @ y).min() >= -1e-9


def assert_lp_optimum(ldp, res, cold):
    """res is an LP optimum with cold's objective, and re-warms in 0 pivots."""
    assert res.status == cold.status == "optimal"
    l1 = np.abs(cold.f).sum()
    assert abs(np.abs(res.f).sum() - l1) <= 1e-12 * max(1.0, l1)
    norms = np.linalg.norm(ldp.G, axis=1)
    assert ((ldp.G @ res.f - ldp.h) / norms).max() <= FEASIBILITY_TOL
    # A warm solve computes its vertex from the final basis, the same way
    # for 0 pivots as for more, so re-warming repeats it bit for bit.
    again = solve_lp(ldp, warm_start=res.basis)
    assert again.iterations == 0 and again.basis == res.basis
    assert np.array_equal(again.f, res.f)


def highs_l1(ldp):
    """(status, L1 optimum) of the LP from scipy's HiGHS.

    Independent of solve_lp: min sum(fp + fn) subject to
    G (fp - fn) <= h on the rows as given, fp, fn >= 0.
    """
    n = ldp.n_free
    res = scipy.optimize.linprog(
        np.ones(2 * n), A_ub=np.hstack([ldp.G, -ldp.G]), b_ub=ldp.h,
        bounds=(0, None), method="highs",
    )
    if res.status == 2:
        return "infeasible", None
    assert res.status == 0, res.message
    return "optimal", res.fun


def test_lp_matches_highs_on_random_degenerate_and_infeasible_rows():
    rng = np.random.default_rng(131)
    statuses = []
    for trial in range(90):
        ldp, _ = random_feasible_ldp(rng, max_m=40)
        G, h = ldp.G, ldp.h
        if trial % 3 == 1:  # repeated and parallel rows
            G, h = np.vstack([G, G, 2.5 * G]), np.concatenate([h, h, 2.5 * h])
        elif trial % 3 == 2 and h.size > 1:  # the last row contradicts row 0
            G, h = G.copy(), h.copy()
            G[-1], h[-1] = -G[0], -h[0] - rng.uniform(0.01, 1.0)
        ldp = toy_ldp(G, h)
        res = solve_lp(ldp)
        status, l1 = highs_l1(ldp)
        assert res.status == status, trial
        if status == "optimal":
            assert abs(np.abs(res.f).sum() - l1) <= 1e-9 * max(1.0, l1), trial
        statuses.append(status)
    assert 20 <= statuses.count("infeasible") <= 30


def test_lp_warm_start_from_optimal_basis_takes_zero_iterations():
    rng = np.random.default_rng(101)
    for trial in range(40):
        ldp, _ = random_feasible_ldp(rng)
        cold = solve_lp(ldp)
        warm = solve_lp(ldp, warm_start=cold.basis)
        assert warm.status == "optimal" and warm.iterations == 0, trial
        assert warm.active_rows == cold.active_rows, trial
        assert warm.basis == cold.basis, trial
        err = np.abs(warm.f - cold.f).max()
        assert err <= 1e-12 * max(1.0, np.abs(cold.f).max()), trial
        assert warm.quadratic_cost == pytest.approx(cold.quadratic_cost,
                                                    rel=1e-12)
        # The layout the returned basis carries gives what checking the
        # plain columns again gives, to the bit.
        listed = solve_lp(ldp, warm_start=list(cold.basis))
        for name in ("f", "alpha", "basis", "active_rows", "iterations"):
            assert np.array_equal(getattr(warm, name),
                                  getattr(listed, name)), (trial, name)


def test_lp_warm_start_from_stale_basis_solves_cold():
    # A stale basis that is not dual feasible leaves the instance to a
    # solve from the slack basis; a dual feasible one is pivoted to the
    # cold optimum, possibly at another basis of the same vertex.
    rng = np.random.default_rng(103)
    for trial in range(20):
        ldp, _ = random_feasible_ldp(rng, max_m=40)
        other, _ = random_feasible_ldp(rng, shape=ldp.G.shape)
        stale = solve_lp(other).basis
        assert len(stale) == ldp.h.size
        res = solve_lp(ldp, warm_start=stale)
        assert res.iterations > 0, trial  # the stale basis was not optimal
        if not lp_dual_feasible(ldp, stale):
            assert_same_as_cold(ldp, res)
            continue
        cold = solve_lp(ldp)
        assert_lp_optimum(ldp, res, cold)
        err = np.abs(res.f - cold.f).max()
        assert err <= 1e-12 * max(1.0, np.abs(cold.f).max()), trial


def test_lp_malformed_warm_start_solves_cold():
    rng = np.random.default_rng(107)
    for _ in range(5):
        ldp, _ = random_feasible_ldp(rng, max_m=40)
        n, M = ldp.n_free, ldp.h.size
        returned = solve_lp(ldp).basis
        basis = list(returned)
        # An optimal basis for these rows and one more.
        extra = solve_lp(toy_ldp(np.vstack([ldp.G, ldp.G[:1]]),
                                 np.append(ldp.h, ldp.h[0] + 1.0))).basis
        assert len(extra) == M + 1
        malformed = [
            basis[:-1],                          # wrong length
            basis + [basis[0]],                  # wrong length
            [basis[1]] + basis[1:],              # duplicated column
            basis[:-1] + [2 * n + M],            # slack of no row
            [-1] + basis[1:],                    # negative column
            [float(j) for j in basis],           # not integers
            tuple(float(j) for j in returned),   # not integers
            [basis[0], basis[1:]],               # ragged
            extra,                               # another row count
        ]
        for bad in malformed:
            assert_same_as_cold(ldp, solve_lp(ldp, warm_start=bad))


def test_lp_warm_start_unusable_basis_solves_cold():
    # Row 0 is a constant, made the inert row 0 f <= 1: a basis that makes
    # it tight has a zero row in its block.  fp_0 and fn_0 together make a
    # singular block too.
    ldp = toy_ldp([[0.0, 0.0], [-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]],
                  [1.0, -1.0, -1.0, 5.0])
    cold = solve_lp(ldp)
    assert cold.status == "optimal" and cold.iterations > 0
    for bad in ([0, 5, 6, 7], [0, 2, 4, 7]):
        assert_same_as_cold(ldp, solve_lp(ldp, warm_start=bad))
    warm = solve_lp(ldp, warm_start=cold.basis)
    assert warm.iterations == 0
    np.testing.assert_allclose(warm.f, [1.0, 1.0], atol=1e-15)
    # f = 0 is optimal here, with every slack basic; fp_0 cannot stand in
    # for the constant row 0's slack.
    ldp = toy_ldp([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [1.0, 1.0, 1.0])
    assert solve_lp(ldp).basis == (4, 5, 6)
    for bad in ([0, 5, 6], [0, 2, 4]):
        assert_same_as_cold(ldp, solve_lp(ldp, warm_start=bad))


def test_lp_warm_start_on_infeasible_instance_stays_infeasible():
    rng = np.random.default_rng(109)
    for trial in range(10):
        ldp, _ = random_feasible_ldp(rng, max_m=40)
        if ldp.h.size == 1:
            continue
        basis = solve_lp(ldp).basis
        # The last row now demands G_0 f >= h_0 + 1 against row 0.
        G, h = ldp.G.copy(), ldp.h.copy()
        G[-1], h[-1] = -G[0], -h[0] - 1.0
        bad = toy_ldp(G, h, c=ldp.c)
        res = solve_lp(bad, warm_start=basis)
        assert res.status == "infeasible", trial
        if not lp_dual_feasible(bad, basis):
            assert_same_as_cold(bad, res)
            continue
        # The warm dual pivots reach a Farkas row, possibly after 0 pivots.
        assert res.f is None and res.active_rows == () and res.basis is None
        assert highs_l1(bad) == ("infeasible", None), trial


def test_lp_dual_simplex_from_basis_for_another_h():
    # Reduced costs do not depend on h, so the optimal basis for one h is
    # dual feasible for every other h with the same rows.
    rng = np.random.default_rng(113)
    cold_pivots, pivoted = 0, 0
    for trial in range(40):
        ldp, _ = random_feasible_ldp(rng)
        basis = solve_lp(ldp).basis
        new, _ = random_feasible_ldp(rng, G=ldp.G)
        res = solve_lp(new, warm_start=basis)
        cold = solve_lp(new)
        assert_lp_optimum(new, res, cold)
        cold_pivots += cold.iterations
        pivoted += res.iterations > 0
    assert pivoted >= 30
    assert cold_pivots < 482


def test_lp_dual_simplex_on_degenerate_rows():
    # Repeated and parallel rows tie both ratio tests; the dual pivots
    # must still end, at the cold objective.
    rng = np.random.default_rng(127)
    cold_pivots, pivoted = 0, 0
    for trial in range(30):
        ldp, _ = random_feasible_ldp(rng, max_n=6, max_m=10)
        G = np.vstack([ldp.G, ldp.G, 2.5 * ldp.G])
        basis = solve_lp(toy_ldp(G, np.concatenate([ldp.h, ldp.h,
                                                    2.5 * ldp.h]))).basis
        h = random_feasible_ldp(rng, G=ldp.G)[0].h
        new = toy_ldp(G, np.concatenate([h, h, 2.5 * h]))
        res = solve_lp(new, warm_start=basis)
        cold = solve_lp(new)
        assert_lp_optimum(new, res, cold)
        cold_pivots += cold.iterations
        pivoted += res.iterations > 0
    assert pivoted >= 20
    assert cold_pivots < 136


@pytest.mark.parametrize("seed", [421, 582, 780, 879, 984])
def test_lp_dual_simplex_bland_rule_on_rows_tight_at_one_point(seed):
    # Every row is tight at the integer point p, so dual pivots of ratio
    # zero run long enough for the leaving row to be chosen by Bland's
    # rule; the solve must still end at HiGHS's objective.
    rng = np.random.default_rng(seed)
    n = 7
    M = rng.integers(12, 30)
    p = rng.integers(-3, 4, n)
    G = rng.integers(-2, 3, (M, n))
    ldp = toy_ldp(G, G @ p)
    res = solve_lp(ldp)
    status, l1 = highs_l1(ldp)
    assert res.status == status == "optimal"
    assert abs(np.abs(res.f).sum() - l1) <= 1e-9 * max(1.0, l1)


def benchmark_rows(name):
    doc = json.loads((Path(__file__).parent / "data" / name).read_text())
    return toy_ldp(doc["G"], doc["h"])


@pytest.mark.parametrize("name", [
    "plan_solve_seed1_op1147_ldp.json",
    "plan_solve_seed5_op1432_ldp.json",
])
def test_lp_and_qp_agree_on_hard_infeasible_benchmark_rows(name):
    # The least-distance rows that `flatpoly solve` builds for two
    # infeasible plan_solve models (perfbench/gen.py, seed and op index in
    # the file name; N = 12 and 10).  Dual simplex pivots on entries down
    # to 1e-11 (seed 1) or 1e-9 (seed 5) grow the tableau to 2.5e13 and
    # 2.9e11, and it loses dual feasibility short of the Farkas row.
    ldp = benchmark_rows(name)
    assert solve_lp(ldp).status == "infeasible"
    assert solve_qp(ldp).status == "infeasible"


def test_qp_point_holds_its_active_rows_on_ill_conditioned_rows():
    # The least-distance rows of a plan_solve model (perfbench/gen.py, seed
    # 0, op 1174: large_q slice, N = 7) whose 11 active rows are
    # ill-conditioned.  f = Q [y; 0] from their QR factor holds them to
    # 2.7e-11 on the unit rows.  f = -Gn_A' u from the same multipliers
    # misses them by 2.7e-6, because cond(Gn_A) amplifies the error in u,
    # and the op's trajectory then breaks a constraint row.
    ldp = benchmark_rows("plan_solve_seed0_op1174_ldp.json")
    res = solve_qp(ldp)
    assert res.status == "optimal" and len(res.active_rows) == 11
    Gn, hn = solver_module._scaled_rows(ldp.G, ldp.h)
    active = list(res.active_rows)
    assert np.abs(Gn[active] @ res.f - hn[active]).max() <= 1e-9


def test_lp_slack_start_stall_is_named(monkeypatch):
    # With pivots allowed on entries down to 1e-11 the seed-1 rows above
    # lose dual feasibility, and the status says so.
    monkeypatch.setattr(solver_module, "PIVOT_TOL", 1e-11)
    res = solve_lp(benchmark_rows("plan_solve_seed1_op1147_ldp.json"))
    assert res.status == "lost_dual_feasibility" and res.alpha is None
    assert res.iterations > 0


def test_lp_slack_warm_start_is_not_restarted(monkeypatch):
    # The seed-1 rows less their two constant rows stall from the slack
    # basis with PIVOT_TOL at 1e-11.  A warm start that is the slack basis
    # stalls the same way, once: a restart from it would repeat its pivots.
    monkeypatch.setattr(solver_module, "PIVOT_TOL", 1e-11)
    rows = benchmark_rows("plan_solve_seed1_op1147_ldp.json")
    keep = np.linalg.norm(rows.G, axis=1) > 0.0
    ldp = toy_ldp(rows.G[keep], rows.h[keep])
    M, n = ldp.G.shape
    cold = solve_lp(ldp)
    assert (cold.status, cold.iterations) == ("lost_dual_feasibility", 76)
    warm = solve_lp(ldp, warm_start=range(2 * n, 2 * n + M))
    assert (warm.status, warm.iterations) == (cold.status, cold.iterations)


def test_lp_stalled_warm_start_restarts_from_slack_basis(monkeypatch):
    rng = np.random.default_rng(113)
    ldp, _ = random_feasible_ldp(rng)
    basis = solve_lp(ldp).basis
    new, _ = random_feasible_ldp(rng, G=ldp.G)
    assert solve_lp(new, warm_start=basis).iterations > 0
    cold = solve_lp(new)
    dual_simplex = solver_module._dual_simplex

    def stalls_when_warm(Gn, hn, start, max_iter):
        if start is None:
            return dual_simplex(Gn, hn, start, max_iter)
        return "non_finite", None, 3

    monkeypatch.setattr(solver_module, "_dual_simplex", stalls_when_warm)
    res = solve_lp(new, warm_start=basis)
    assert res.status == "optimal"
    assert res.iterations == 3 + cold.iterations  # both runs count
    assert res.basis == cold.basis and np.array_equal(res.f, cold.f)


def test_repeat_solves_bitwise_identical():
    rng = np.random.default_rng(97)
    ldp, _ = random_feasible_ldp(rng)
    a = solve_qp(ldp)
    b = solve_qp(ldp)
    assert np.array_equal(a.f, b.f) and a.iterations == b.iterations
    la = solve_lp(ldp)
    lb = solve_lp(ldp)
    assert np.array_equal(la.f, lb.f) and la.iterations == lb.iterations


def test_suboptimality_report_requires_optimal_pair():
    ldp = toy_ldp([[1.0, 0.0], [-1.0, 0.0]], [-1.0, 0.0])
    bad = solve_qp(ldp)
    good = solve_qp(toy_ldp([[-1.0, -1.0]], [-1.0]))
    with pytest.raises(FlatpolyError):
        suboptimality_report(bad, good, ldp)
