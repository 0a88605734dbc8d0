import math

import numpy as np
import pytest

from flatpoly import (
    BasisSpec,
    DegreeOutOfRange,
    DegreeTooLow,
    ExtrapolationWarning,
    LtiSystem,
    apply_initial_conditions,
    evaluate,
    flat_transform,
    parameterize_outputs,
    parameterize_states_inputs,
)

from test_flat import random_controllable


def to_time_poly(coef_scaled, T):
    """Convert scaled-basis coefficients c_j (t/T)^j to a plain polynomial."""
    j = np.arange(len(coef_scaled))
    return np.polynomial.Polynomial(coef_scaled / T**j)


def test_basis_spec_rejects_non_integral_degree():
    for degree in (5.5, 5.9, math.inf, math.nan):
        with pytest.raises(DegreeOutOfRange, match="integer"):
            BasisSpec(degree=degree, T=1.0, r=(1,))
    assert BasisSpec(degree=5.0, T=1.0, r=(1,)).degree == 5


def test_basis_spec_validation():
    with pytest.raises(DegreeOutOfRange):
        BasisSpec(degree=0, T=1.0, r=(1,))
    with pytest.raises(DegreeOutOfRange):
        BasisSpec(degree=16, T=1.0, r=(1,))
    with pytest.raises(DegreeTooLow):
        BasisSpec(degree=1, T=1.0, r=(2,))
    with pytest.warns(UserWarning, match="poorly conditioned") as record:
        BasisSpec(degree=13, T=1.0, r=(1,))
    # Reported at the constructing line, not in the dataclass __init__.
    assert record[0].filename == __file__
    b = BasisSpec(degree=5, T=2.0, r=(2, 1))
    assert b.n_free == 2 * 6 - 3


def test_free_parameter_count():
    for r, N in [((2,), 5), ((1, 1), 5), ((3, 2), 7)]:
        b = BasisSpec(degree=N, T=1.0, r=r)
        assert b.n_free == len(r) * (N + 1) - sum(r)


def test_initial_conditions_pin_outputs():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(1, n))
        sys = random_controllable(rng, n, m)
        fm = flat_transform(sys)
        T = float(rng.uniform(0.5, 3.0))
        x0 = rng.standard_normal(n)
        basis, y = parameterize_outputs(fm, x0, 6, T)
        alpha = rng.standard_normal(basis.n_free)
        z0 = fm.state_to_chain(x0)
        row = 0
        for i, ri in enumerate(fm.r):
            p = to_time_poly(y.coef0[i] + y.coef_lin[i] @ alpha, T)
            for k in range(ri):
                np.testing.assert_allclose(
                    p.deriv(k)(0.0), z0[row], atol=1e-9 * (1 + abs(z0[row]))
                )
                row += 1


def test_pinned_coefficients_formula():
    sys = LtiSystem(A=[[0.0, 1.0], [0.0, 0.0]], B=[[0.0], [1.0]])
    fm = flat_transform(sys)
    T = 2.0
    x0 = np.array([3.0, -1.0])
    basis, y = parameterize_outputs(fm, x0, 4, T)
    z0 = fm.state_to_chain(x0)
    # a_k = z0_k T^k / k! for the pinned k < r.
    np.testing.assert_allclose(y.coef0[0, 0], z0[0])
    np.testing.assert_allclose(y.coef0[0, 1], z0[1] * T)
    assert y.coef_lin[0, :2].max() == 0.0
    np.testing.assert_allclose(
        y.coef_lin[0, 2:], np.eye(3), atol=0.0
    )


def test_derivative_matches_numpy():
    rng = np.random.default_rng(9)
    T = 1.7
    basis = BasisSpec(degree=6, T=T, r=(2,))
    sys = LtiSystem(A=[[0.0, 1.0], [0.0, 0.0]], B=[[0.0], [1.0]])
    fm = flat_transform(sys)
    y = apply_initial_conditions(fm, rng.standard_normal(2), basis)
    alpha = rng.standard_normal(basis.n_free)
    p = to_time_poly(y.coef0[0] + y.coef_lin[0] @ alpha, T)
    ts = np.linspace(0.0, T, 11)
    for order in (1, 2, 3):
        d = y.derivative(order)
        np.testing.assert_allclose(
            d(alpha, ts)[0], p.deriv(order)(ts), rtol=1e-9, atol=1e-9
        )


def test_states_inputs_satisfy_dynamics():
    rng = np.random.default_rng(21)
    for _ in range(15):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, n + 1))
        sys = random_controllable(rng, n, m)
        fm = flat_transform(sys)
        T = float(rng.uniform(0.5, 2.0))
        x0 = rng.standard_normal(n)
        basis, y = parameterize_outputs(fm, x0, 6, T)
        x_poly, u_poly = parameterize_states_inputs(y, fm)
        alpha = rng.standard_normal(basis.n_free)

        np.testing.assert_allclose(x_poly(alpha, 0.0), x0, atol=1e-8)

        ts = np.linspace(0.0, T, 7)
        x_time = [to_time_poly(
            x_poly.coef0[i] + x_poly.coef_lin[i] @ alpha, T) for i in range(n)]
        xdot = np.stack([p.deriv()(ts) for p in x_time])
        x_vals = x_poly(alpha, ts)
        u_vals = u_poly(alpha, ts)
        resid = xdot - (sys.A @ x_vals + sys.B @ u_vals + sys.d[:, None])
        assert np.abs(resid).max() < 1e-7


def test_input_reproduces_flat_map_at_zero():
    rng = np.random.default_rng(2)
    sys = random_controllable(rng, 3, 2)
    fm = flat_transform(sys)
    basis, y = parameterize_outputs(fm, rng.standard_normal(3), 5, 1.0)
    x_poly, u_poly = parameterize_states_inputs(y, fm)
    alpha = rng.standard_normal(basis.n_free)
    z = fm.state_to_chain(x_poly(alpha, 0.0))
    v = np.array([
        to_time_poly(y.coef0[i] + y.coef_lin[i] @ alpha, 1.0).deriv(fm.r[i])(0.0)
        for i in range(2)
    ])
    np.testing.assert_allclose(
        u_poly(alpha, 0.0), fm.input_from_chain(z, v), atol=1e-8
    )


def test_affine_eval_consistency():
    rng = np.random.default_rng(13)
    sys = random_controllable(rng, 2, 1)
    fm = flat_transform(sys)
    basis, y = parameterize_outputs(fm, [0.3, -0.2], 5, 1.5)
    x_poly, _ = parameterize_states_inputs(y, fm)
    alpha = rng.standard_normal(basis.n_free)
    ts = rng.uniform(0.0, 1.5, 6)
    b0, b_lin = x_poly.affine_eval(ts)
    np.testing.assert_allclose(b0 + b_lin @ alpha, x_poly(alpha, ts),
                               rtol=1e-12, atol=1e-12)
    row = x_poly.row(1)
    np.testing.assert_allclose(row(alpha, ts), x_poly(alpha, ts)[1],
                               rtol=1e-12, atol=1e-12)


def test_row_and_stack_agree_on_derivatives_and_eval_shapes():
    rng = np.random.default_rng(17)
    sys = random_controllable(rng, 3, 2)
    fm = flat_transform(sys)
    N = 5
    basis, y = parameterize_outputs(fm, rng.standard_normal(3), N, 1.3)
    x_poly, _ = parameterize_states_inputs(y, fm)
    q, n_free = x_poly.q, basis.n_free
    for k in range(N + 2):
        stack = x_poly.derivative(k)
        for i in range(q):
            row = x_poly.row(i).derivative(k)
            np.testing.assert_array_equal(row.coef0, stack.row(i).coef0)
            np.testing.assert_array_equal(row.coef_lin, stack.row(i).coef_lin)
    top = x_poly.derivative(N + 1)
    assert not np.any(top.coef0) and not np.any(top.coef_lin)

    b0, b_lin = x_poly.row(1).affine_eval(0.4)
    assert b0.shape == () and b_lin.shape == (n_free,)
    b0, b_lin = x_poly.affine_eval(0.4)
    assert b0.shape == (q,) and b_lin.shape == (q, n_free)


def test_evaluate_warns_out_of_horizon():
    sys = LtiSystem(A=[[0.0, 1.0], [0.0, 0.0]], B=[[0.0], [1.0]])
    fm = flat_transform(sys)
    basis, y = parameterize_outputs(fm, [1.0, 0.0], 3, 1.0)
    alpha = np.zeros(basis.n_free)
    with pytest.warns(ExtrapolationWarning):
        evaluate(y, alpha, 1.5)
    with pytest.warns(ExtrapolationWarning):
        evaluate(y, alpha, [-0.1, 0.5])
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        evaluate(y, alpha, [0.0, 0.5, 1.0])
