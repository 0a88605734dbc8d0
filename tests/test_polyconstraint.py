import numpy as np
import pytest

from flatpoly import (
    AffinePoly,
    AffinePolyVector,
    DegreeOutOfRange,
    LinearConstraintSpec,
    LtiSystem,
    ParameterizedCost,
    compute_delta,
    condition_constraints,
    constraint_polynomials,
    delta_table,
    flat_transform,
    least_distance_transform,
    parameterize_outputs,
    parameterize_states_inputs,
    sample_matrix,
    solve_qp,
    verify_nonpositivity,
)

# Reference suprema of the backoff polynomial, computed independently on a
# 1e7 grid with parabolic refinement around the best bracket.
DELTA_REF = {
    1: 0.0,
    2: 0.125,
    3: 0.064150029910,
    4: 0.041666666667,
    5: 0.030261935070,
    6: 0.023473464344,
    7: 0.019016250631,
    8: 0.015887920397,
    9: 0.013583449250,
    10: 0.011822343455,
    11: 0.010437070364,
    12: 0.009321756615,
    13: 0.008406403664,
    14: 0.007642987783,
    15: 0.006997526976,
}


def eps_coefficients(N):
    """Independent reconstruction: w solves  Q w = 1."""
    Q = sample_matrix(N)
    return np.linalg.solve(Q, np.ones(N))


def constant_poly(coefs, T):
    c = np.asarray(coefs, dtype=float)
    return AffinePoly(coef0=c, coef_lin=np.zeros((c.size, 1)), T=T)


def project_feasible(acs, target, rng):
    """Project a target parameter vector onto the conditioned rows."""
    nf = target.size
    pc = ParameterizedCost(K=np.eye(nf), k=-2.0 * target,
                           k0=float(target @ target))
    ldp = least_distance_transform(pc, acs)
    return solve_qp(ldp)


def test_sample_matrix_examples():
    np.testing.assert_allclose(sample_matrix(1), [[1.0]])
    np.testing.assert_allclose(sample_matrix(2), [[0.5, 0.25], [1.0, 1.0]])
    assert abs(np.linalg.det(sample_matrix(3))) > 1e-6
    for N in range(1, 16):
        assert np.linalg.matrix_rank(sample_matrix(N)) == N


def test_compute_delta_closed_forms():
    assert compute_delta(1) == 0.0
    # N=2: eps(s) = -1 + 3s - 2s^2, maximized at s = 3/4.
    np.testing.assert_allclose(eps_coefficients(2), [3.0, -2.0], atol=1e-12)
    np.testing.assert_allclose(compute_delta(2), 0.125, rtol=1e-12)
    np.testing.assert_allclose(compute_delta(4), 1.0 / 24.0, rtol=1e-9)


def test_compute_delta_reference_values():
    for N, ref in DELTA_REF.items():
        np.testing.assert_allclose(compute_delta(N), ref, rtol=0, atol=2e-9)


def test_compute_delta_range():
    with pytest.raises(DegreeOutOfRange):
        compute_delta(0)
    with pytest.raises(DegreeOutOfRange):
        compute_delta(16)


def test_delta_monotone_decreasing():
    for N in range(2, 15):
        assert compute_delta(N + 1) < compute_delta(N)


def test_delta_restriction_magnitudes():
    assert compute_delta(3) == pytest.approx(0.064, abs=5e-4)
    assert compute_delta(10) == pytest.approx(0.012, abs=5e-4)


def test_delta_matches_bruteforce_supremum():
    s = np.linspace(0.0, 1.0, 1_000_001)
    for N in (2, 5, 9, 15):
        w = eps_coefficients(N)
        eps = -1.0 + np.polynomial.polynomial.polyval(s, np.r_[0.0, w])
        np.testing.assert_allclose(compute_delta(N), eps.max(), atol=1e-4)


def test_delta_table_access():
    table = delta_table()
    assert len(table) == 15
    assert table[2] == pytest.approx(0.125)
    items = list(table.items())
    assert [N for N, _ in items] == list(range(1, 16))
    with pytest.raises(DegreeOutOfRange):
        table[16]


def test_tightness_certificate():
    # The polynomial -1 + sum_j w_j s^j meets every unshifted sample
    # condition with equality and attains the tabulated supremum, so the
    # backoff constant cannot be shrunk.
    for N in range(2, 11):
        w = eps_coefficients(N)
        samples = np.array(
            [-1.0 + sum(wj * (i / N) ** (j + 1) for j, wj in enumerate(w))
             for i in range(1, N + 1)]
        )
        np.testing.assert_allclose(samples, 0.0, atol=1e-8)
        P = constant_poly(np.r_[-1.0, w], T=1.0)
        top = verify_nonpositivity(P, np.zeros(1), grid_size=100_000)
        np.testing.assert_allclose(top, compute_delta(N), rtol=1e-3)


def test_verify_nonpositivity_trivial():
    P = constant_poly([-1.0], T=1.0)
    assert verify_nonpositivity(P, np.zeros(1), grid_size=1000) == -1.0
    T = 2.0
    P2 = constant_poly([-T / 2.0, T], T=T)
    assert verify_nonpositivity(P2, np.zeros(1), grid_size=1000) == (
        pytest.approx(T / 2.0)
    )


def double_integrator_pipeline(degree, T=1.0, x0=(0.0, 0.0)):
    sys = LtiSystem(A=[[0.0, 1.0], [0.0, 0.0]], B=[[0.0], [1.0]])
    fm = flat_transform(sys)
    basis, y = parameterize_outputs(fm, list(x0), degree, T)
    x_poly, u_poly = parameterize_states_inputs(y, fm)
    return basis, x_poly, u_poly


def test_condition_constraints_row_count_and_tags():
    basis, x_poly, u_poly = double_integrator_pipeline(3)
    spec = LinearConstraintSpec(G_x=np.zeros((1, 2)), G_u=[[1.0]], g0=[-1.0])
    acs = condition_constraints(x_poly, u_poly, spec)
    assert acs.n_rows == 1 * (3 + 1)
    assert acs.tags == ((0, 0), (0, 1), (0, 2), (0, 3))
    assert acs.G.shape == (4, basis.n_free)


def test_vacuous_constant_row_dropped():
    with pytest.warns(UserWarning):
        spec = LinearConstraintSpec(
            G_x=np.zeros((2, 2)),
            G_u=[[0.0], [1.0]],
            g0=[-1.0, -1.0],
        )
    assert spec.G_u.shape[0] == 1
    basis, x_poly, u_poly = double_integrator_pipeline(3)
    acs = condition_constraints(x_poly, u_poly, spec)
    assert acs.n_rows == 4


def test_all_rows_vacuous_gives_empty_set():
    with pytest.warns(UserWarning, match="vacuous"):
        spec = LinearConstraintSpec(G_x=np.zeros((1, 2)), G_u=[[0.0]],
                                    g0=[-1.0])
    assert spec.n_rows == 0
    basis, x_poly, u_poly = double_integrator_pipeline(3)
    acs = condition_constraints(x_poly, u_poly, spec)
    assert acs.n_rows == 0 and acs.tags == ()
    assert acs.G.shape == (0, basis.n_free)


def test_low_degree_constraint_polynomials_never_overshoot():
    # For the double integrator at N=3 the input polynomial has degree 1,
    # so the rows at the endpoints dominate the whole interval.
    rng = np.random.default_rng(61)
    basis, x_poly, u_poly = double_integrator_pipeline(3, x0=(0.3, -0.2))
    spec = LinearConstraintSpec(G_x=np.zeros((1, 2)), G_u=[[1.0]], g0=[-1.0])
    acs = condition_constraints(x_poly, u_poly, spec)
    P = constraint_polynomials(x_poly, u_poly, spec).row(0)
    for _ in range(50):
        res = project_feasible(acs, 3.0 * rng.standard_normal(basis.n_free),
                               rng)
        assert res.status == "optimal"
        top = verify_nonpositivity(P, res.alpha, grid_size=100_000)
        assert top <= 1e-9


def test_conditioned_rows_are_sound_for_random_polynomials():
    # Encodes the certificate as stated: any parameter vector that
    # satisfies the conditioned rows keeps the polynomial nonpositive on
    # the whole interval.  The paper's uniform-sample backoff failed this
    # for degree >= 2 (see the README); the Bernstein rows meet it.
    rng = np.random.default_rng(67)
    worst = 0.0
    worst_case = None
    for trial in range(500):
        N = int(rng.integers(2, 11))
        T = float(rng.uniform(0.5, 2.0))
        nf = N + 1
        coef0 = rng.standard_normal((1, N + 1))
        coef_lin = rng.standard_normal((1, N + 1, nf))
        x_poly = AffinePolyVector(coef0=coef0, coef_lin=coef_lin, T=T)
        u_poly = AffinePolyVector(coef0=np.zeros((1, N + 1)),
                                  coef_lin=np.zeros((1, N + 1, nf)), T=T)
        spec = LinearConstraintSpec(G_x=[[1.0]], G_u=[[0.0]], g0=[0.0])
        acs = condition_constraints(x_poly, u_poly, spec)
        res = project_feasible(acs, rng.standard_normal(nf), rng)
        if res.status != "optimal":
            continue
        P = constraint_polynomials(x_poly, u_poly, spec).row(0)
        top = verify_nonpositivity(P, res.alpha, grid_size=100_000)
        coefs = P.coef0 + P.coef_lin @ res.alpha
        scale = max(1.0, float(np.abs(coefs).max()))
        if top / scale > worst:
            worst = top / scale
            worst_case = (trial, N, top, scale)
    assert worst <= 1e-9, (
        f"sampled-row feasibility did not certify nonpositivity: "
        f"worst relative overshoot {worst:.3e} at trial/N/top/scale "
        f"{worst_case}"
    )
