import numpy as np
import pytest

from flatpoly import (
    DimensionMismatch,
    LinearConstraintSpec,
    LtiSystem,
    QuadraticCostSpec,
    UncontrollableSystem,
    brunovsky_indices,
    controllability_matrix,
    flat_transform,
)


def random_controllable(rng, n, m):
    """Rejection-sample a controllable pair with drift."""
    while True:
        A = rng.standard_normal((n, n))
        B = rng.standard_normal((n, m))
        d = rng.standard_normal(n)
        sys = LtiSystem(A=A, B=B, d=d)
        if sys.controllable:
            return sys


def test_controllability_matrix_double_integrator():
    sys = LtiSystem(A=[[0.0, 1.0], [0.0, 0.0]], B=[[0.0], [1.0]])
    C, rank = controllability_matrix(sys)
    np.testing.assert_allclose(C, [[0.0, 1.0], [1.0, 0.0]])
    assert rank == 2
    assert sys.controllable


def test_uncontrollable_detected():
    # B lies in an invariant 1-d subspace of A, rank [B, AB] = 1.
    sys = LtiSystem(A=np.eye(2), B=[[1.0], [0.0]])
    _, rank = controllability_matrix(sys)
    assert rank == 1
    assert not sys.controllable
    with pytest.raises(UncontrollableSystem):
        brunovsky_indices(sys)
    with pytest.raises(UncontrollableSystem):
        flat_transform(sys)


def test_indices_double_integrator():
    sys = LtiSystem(A=[[0.0, 1.0], [0.0, 0.0]], B=[[0.0], [1.0]])
    assert brunovsky_indices(sys) == [2]


def test_indices_two_chains():
    # Chain of length 2 driven by u1, single integrator driven by u2.
    A = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    B = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    assert brunovsky_indices(LtiSystem(A=A, B=B)) == [2, 1]


def test_indices_skip_powers_of_an_ended_chain():
    # u1 drives a single integrator and u2 a chain of three, so the scan
    # skips A^2 b1 once A b1 has failed the independence test.
    A = np.zeros((4, 4))
    A[1, 2] = A[2, 3] = 1.0
    B = np.eye(4)[:, [0, 3]]
    sys = LtiSystem(A=A, B=B)
    assert brunovsky_indices(sys) == [1, 3]
    fm = flat_transform(sys)
    assert tuple(fm.r) == (1, 3)
    np.testing.assert_allclose(fm.Xi_x @ fm.T_z, np.eye(4), atol=1e-12)


def test_indices_sum_to_n_and_scale_invariant():
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = rng.integers(2, 6)
        m = rng.integers(1, n + 1)
        sys = random_controllable(rng, int(n), int(m))
        r = brunovsky_indices(sys)
        assert sum(r) == sys.n
        scale = rng.uniform(0.5, 2.0, sys.m)
        r2 = brunovsky_indices(LtiSystem(A=sys.A, B=sys.B * scale, d=sys.d))
        assert r == r2


def test_dependent_input_column_rejected():
    # Second input is a copy of the first: no chain of its own.
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    B = np.array([[0.0, 0.0], [1.0, 1.0]])
    with pytest.raises(UncontrollableSystem):
        brunovsky_indices(LtiSystem(A=A, B=B))


def dynamics_residual(sys, fm, rng, n_outputs_deg=6, t_points=9):
    """Independent check that the transform reproduces the dynamics.

    Pick arbitrary polynomial flat outputs, build z/x/u through the
    transform, differentiate x with numpy's polynomial class, and measure
    max |x' - (A x + B u + d)| over sample times.
    """
    m, n = fm.m, fm.n
    ys = [np.polynomial.Polynomial(rng.standard_normal(n_outputs_deg + 1))
          for _ in range(m)]
    ts = np.linspace(0.0, 1.0, t_points)
    worst = 0.0
    for t in ts:
        z = np.concatenate(
            [[ys[i].deriv(k)(t) for k in range(fm.r[i])] for i in range(m)]
        )
        v = np.array([ys[i].deriv(fm.r[i])(t) for i in range(m)])
        x = fm.chain_to_state(z)
        u = fm.input_from_chain(z, v)
        # x(t) = Xi_x z(t) + x_off, so x' = Xi_x z'.
        zdot = np.concatenate(
            [[ys[i].deriv(k + 1)(t) for k in range(fm.r[i])] for i in range(m)]
        )
        xdot = fm.Xi_x @ zdot
        resid = xdot - (sys.A @ x + sys.B @ u + sys.d)
        worst = max(worst, np.abs(resid).max())
    return worst


def test_flat_transform_reproduces_dynamics():
    rng = np.random.default_rng(42)
    for _ in range(30):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(1, n + 1))
        sys = random_controllable(rng, n, m)
        fm = flat_transform(sys)
        assert dynamics_residual(sys, fm, rng) < 1e-7


def test_flat_transform_chain_roundtrip():
    rng = np.random.default_rng(3)
    sys = random_controllable(rng, 4, 2)
    fm = flat_transform(sys)
    for _ in range(10):
        x = rng.standard_normal(4)
        np.testing.assert_allclose(
            fm.chain_to_state(fm.state_to_chain(x)), x, atol=1e-10
        )
    # First chain row of each block is the flat output itself.
    x = rng.standard_normal(4)
    z = fm.state_to_chain(x)
    offsets = np.concatenate([[0], np.cumsum(fm.r)])[:-1]
    np.testing.assert_allclose(z[offsets], fm.C_f @ x - fm.C_f @ fm.x_off,
                               atol=1e-12)


def test_flat_output_rows_normalized():
    rng = np.random.default_rng(11)
    for _ in range(10):
        sys = random_controllable(rng, 4, 2)
        fm = flat_transform(sys)
        np.testing.assert_allclose(
            np.linalg.norm(fm.C_f, axis=1), np.ones(2), atol=1e-12
        )
        for row in fm.C_f:
            lead = row[np.flatnonzero(np.abs(row) > 1e-9)[0]]
            assert lead > 0


def test_drift_offsets_vanish_without_drift():
    sys = LtiSystem(A=[[0.0, 1.0], [0.0, 0.0]], B=[[0.0], [1.0]])
    fm = flat_transform(sys)
    np.testing.assert_allclose(fm.x_off, 0.0, atol=1e-14)
    np.testing.assert_allclose(fm.u_off, 0.0, atol=1e-14)


def test_lti_validation():
    with pytest.raises(DimensionMismatch):
        LtiSystem(A=[[0.0, 1.0]], B=[[1.0]])
    with pytest.raises(DimensionMismatch):
        LtiSystem(A=np.eye(2), B=np.ones((3, 1)))
    with pytest.raises(DimensionMismatch):
        LtiSystem(A=np.eye(2), B=np.ones((2, 3)))  # m > n
    with pytest.raises(DimensionMismatch):
        LtiSystem(A=[[np.nan, 0.0], [0.0, 0.0]], B=[[1.0], [1.0]])
    with pytest.raises(DimensionMismatch):
        LtiSystem(A=np.eye(2), B=[[0.0], [1.0]], d=[1.0, 2.0, 3.0])


def test_cost_spec_validation():
    with pytest.raises(DimensionMismatch):
        QuadraticCostSpec(Q=-np.eye(2), R=[[1.0]], P=np.eye(2),
                          x_star=[0.0, 0.0], T=1.0)
    with pytest.raises(DimensionMismatch):
        QuadraticCostSpec(Q=[[0.0, 1.0], [0.0, 0.0]], R=[[1.0]], P=np.eye(2),
                          x_star=[0.0, 0.0], T=1.0)  # not symmetric
    with pytest.raises(DimensionMismatch):
        QuadraticCostSpec(Q=np.eye(2), R=[[1.0]], P=np.eye(2),
                          x_star=[0.0, 0.0], T=0.0)
    spec = QuadraticCostSpec(Q=np.eye(2), R=[[1.0]], P=np.eye(2),
                             x_star=[1.0, 2.0], T=1.0)
    np.testing.assert_allclose(spec.x_ref, spec.x_star)

    # The symmetry check decides as np.allclose(M, M.T, atol) does: seeded
    # weights with one entry moved to either side of the tolerance, at
    # scales 1e-12, 1 and 1e12, and a zero matrix.
    rng = np.random.default_rng(11)
    weights = [np.zeros((3, 3))]
    for scale in (1e-12, 1.0, 1e12):
        for f in rng.uniform(0.5, 1.5, 8):
            A = rng.standard_normal((3, 3))
            M = (A @ A.T + 3 * np.eye(3)) * scale
            tol = 1e-10 * (1 + np.abs(M).max()) + 1e-5 * abs(M[1, 0])
            M[0, 1] += f * tol
            weights.append(M)
    decisions = []
    for M in weights:
        symmetric = np.allclose(M, M.T, atol=1e-10 * (1 + np.abs(M).max()))
        decisions.append(symmetric)
        for role in ("Q", "R", "P"):
            kw = {"Q": np.eye(3), "R": np.eye(3), "P": np.eye(3), role: M}
            if symmetric:
                QuadraticCostSpec(**kw, x_star=np.zeros(3), T=1.0)
            else:
                with pytest.raises(DimensionMismatch, match="symmetric"):
                    QuadraticCostSpec(**kw, x_star=np.zeros(3), T=1.0)
    assert decisions.count(True) >= 6 and decisions.count(False) >= 6


def test_constraint_spec_validation():
    with pytest.raises(DimensionMismatch):
        LinearConstraintSpec(G_x=np.ones((2, 2)), G_u=np.ones((3, 1)),
                             g0=np.zeros(2))
    with pytest.warns(UserWarning, match="vacuous"):
        spec = LinearConstraintSpec(
            G_x=[[0.0, 0.0], [1.0, 0.0]],
            G_u=[[0.0], [0.0]],
            g0=[-1.0, 0.0],
        )
    assert spec.n_rows == 1
    # A constant positive row is kept so infeasibility can surface later.
    spec2 = LinearConstraintSpec(G_x=[[0.0]], G_u=[[0.0]], g0=[1.0])
    assert spec2.n_rows == 1
