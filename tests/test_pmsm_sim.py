import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg

from flatpoly import (
    AffineConstraintSet,
    PmsmParams,
    Scenario,
    condition_constraints,
    condition_cost,
    flat_transform,
    least_distance_transform,
    parameterize_outputs,
    parameterize_states_inputs,
    pi_speed_controller,
    pmsm_constraints,
    pmsm_cost,
    pmsm_linearize,
    run_closed_loop,
    solve_lp,
    solve_qp,
    step_plant,
    torque_constant,
)
from flatpoly.errors import (
    DegreeOutOfRange,
    DimensionMismatch,
    NonFinite,
    NotPositiveDefinite,
)
from flatpoly.pmsm_sim import _discretize, _Planner


@pytest.fixture(scope="module")
def default_traces():
    scenario = Scenario()
    return {
        "qp": run_closed_loop(scenario, "qp"),
        "lp": run_closed_loop(scenario, "lp"),
        "scenario": scenario,
    }


def polytope_residuals(trace, p):
    """Worst signed residual of the margin-zero polytope over the trace."""
    spec = pmsm_constraints(p)
    rows = []
    for row in trace:
        x = np.array([row.i_d, row.i_q])
        u = np.array([row.v_d, row.v_q])
        rows.append(spec.G_x @ x + spec.G_u @ u + spec.g0)
    return np.max(rows)


def settle_time(trace, target, band):
    """First time the speed enters the band and never leaves it again."""
    t_settle = None
    for row in trace:
        if abs(row.omega - target) <= band:
            if t_settle is None:
                t_settle = row.t
        else:
            t_settle = None
    return t_settle


def test_params_and_torque_constant():
    p = PmsmParams()
    assert torque_constant(p) == pytest.approx(1.5 * 3 * 0.236)
    with pytest.raises(ValueError):
        PmsmParams(L=0.0)


def test_linearize_at_standstill():
    p = PmsmParams()
    sys = pmsm_linearize(p, 0.0)
    np.testing.assert_allclose(np.diag(sys.A), [-p.R / p.L] * 2)
    assert sys.A[0, 1] == 0.0 and sys.A[1, 0] == 0.0
    np.testing.assert_allclose(sys.B, np.eye(2) / p.L)
    np.testing.assert_allclose(sys.d, np.zeros(2))
    assert sys.controllable


def test_linearize_at_speed():
    p = PmsmParams()
    sys = pmsm_linearize(p, 100.0)
    np.testing.assert_allclose(sys.A[0, 1], 300.0)
    np.testing.assert_allclose(sys.A[1, 0], -300.0)
    np.testing.assert_allclose(sys.d[1], -3 * 100.0 * 0.236 / 6e-3)
    eig = np.linalg.eigvals(sys.A)
    np.testing.assert_allclose(eig.real, [-p.R / p.L] * 2)


def test_cost_at_standstill():
    p = PmsmParams()
    c = torque_constant(p)
    cost = pmsm_cost(p, 20.0, 0.0, 0.0, 2e-3)
    np.testing.assert_allclose(cost.Q, np.diag([p.R, 20.0 * c**2 + p.R]))
    np.testing.assert_allclose(cost.x_ref, np.zeros(2))
    np.testing.assert_allclose(cost.x_star, np.zeros(2))
    np.testing.assert_allclose(cost.P, np.diag([0.0, 20.0 * 2e-3 * c**2]))
    np.testing.assert_allclose(cost.R, np.zeros((2, 2)))


def test_cost_reference_tracks_torque_when_losses_vanish():
    # With negligible resistive and iron losses the cheapest way to make
    # torque is i_q = tau*/c exactly.
    p = PmsmParams(R=1e-9, R_m=1e12)
    c = torque_constant(p)
    tau_star = 5.0
    cost = pmsm_cost(p, 20.0, 314.0, tau_star, 2e-3)
    np.testing.assert_allclose(cost.x_ref[1], tau_star / c, rtol=1e-6)
    np.testing.assert_allclose(cost.x_star[1], tau_star / c, rtol=1e-12)


def test_cost_field_weakening_reference_moves_negative():
    p = PmsmParams()
    cost = pmsm_cost(p, 20.0, 420.0, 5.0, 2e-3)
    assert cost.x_ref[0] < 0.0


def test_constraint_polytope_vertices_on_circles():
    p = PmsmParams()
    spec = pmsm_constraints(p)
    assert spec.g0.shape == (8,)
    s3 = math.sqrt(3.0) / 2.0
    # current vertex
    assert (p.I_max / 2.0) ** 2 + (s3 * p.I_max) ** 2 == pytest.approx(
        p.I_max**2
    )
    # voltage vertex
    assert (p.V_max / 2.0) ** 2 + (s3 * p.V_max) ** 2 == pytest.approx(
        p.V_max**2
    )
    # origin strictly feasible
    assert np.all(spec.g0 < 0.0) or spec.g0[0] == 0.0
    # margin tightens exactly the four current rows
    tight = pmsm_constraints(p, current_margin=0.5)
    np.testing.assert_allclose(tight.g0[:4] - spec.g0[:4], 0.5)
    np.testing.assert_allclose(tight.g0[4:], spec.g0[4:])


def test_step_plant_rest_stays_at_rest():
    p = PmsmParams()
    out = step_plant(np.zeros(3), np.zeros(2), 0.0, p, 5e-4, 0.0, 1e-4)
    np.testing.assert_allclose(out, np.zeros(3), atol=1e-15)


def test_step_plant_first_order_voltage_step():
    # Locked rotor (huge inertia): i_q follows v_q/R (1 - exp(-t R/L)).
    p = PmsmParams()
    state = np.zeros(3)
    dt = 1e-6
    v = np.array([0.0, 1.0])
    for _ in range(2000):
        state = step_plant(state, v, 0.0, p, 1e12, 0.0, dt)
    t = 2000 * dt
    ref = (1.0 / p.R) * (1.0 - math.exp(-t * p.R / p.L))
    np.testing.assert_allclose(state[1], ref, rtol=1e-6)
    assert abs(state[2]) < 1e-9


def test_step_plant_unforced_currents_decay():
    p = PmsmParams()
    state = np.array([1.0, -2.0, 0.0])
    energy = lambda s: s[0] ** 2 + s[1] ** 2
    e0 = energy(state)
    for _ in range(200):
        state = step_plant(state, np.zeros(2), 0.0, p, 1e12, 0.0, 1e-5)
    assert energy(state) < e0


def test_pi_controller_behaviour():
    tau, integ = pi_speed_controller(0.0, 0.0, 0.24, 45.0, 10.0, 1e-4)
    assert tau == 0.0 and integ == 0.0
    # large error saturates and freezes the integrator
    tau, integ = pi_speed_controller(420.0, 0.0, 0.24, 45.0, 10.0, 1e-4,
                                     integrator=0.5)
    assert tau == 10.0 and integ == 0.5
    # small error integrates linearly
    tau1, integ1 = pi_speed_controller(1.0, 0.0, 0.1, 1.0, 10.0, 0.5)
    assert integ1 == pytest.approx(0.5)
    assert tau1 == pytest.approx(0.1 + 0.5)


def test_closed_loop_zero_references_stay_quiet():
    scenario = Scenario(duration=0.01, speed_setpoints=((0.0, 0.0),),
                        load_torque=((0.0, 0.0),), current_margin=0.0)
    trace = run_closed_loop(scenario, "qp")
    assert len(trace) == 100
    assert max(abs(r.i_d) for r in trace) < 1e-6
    assert max(abs(r.omega) for r in trace) < 1e-6
    assert all(r.status == "optimal" for r in trace)


def test_closed_loop_margin_parks_id_at_backoff():
    # With a planner margin the tightened i_d <= -margin row is active at
    # zero load, so the loop idles at exactly the backed-off current.
    scenario = Scenario(duration=0.005, speed_setpoints=((0.0, 0.0),),
                        load_torque=((0.0, 0.0),))
    trace = run_closed_loop(scenario, "qp")
    assert trace[-1].i_d == pytest.approx(-scenario.current_margin, abs=1e-6)


def test_frozen_speed_model_error_within_current_budget():
    # Plan once from a running condition, then integrate the full nonlinear
    # machine (speed free to move, nominal drive inertia) under the planned
    # voltages; the planned terminal currents must stay within 5% of I_max
    # of the truth.
    p = PmsmParams()
    J_m, b = 5e-3, 1e-4
    omega0, tau_ref, T, N = 200.0, 5.0, 2e-3, 5
    x0 = np.array([-0.5, 8.0])
    sys = pmsm_linearize(p, omega0)
    fm = flat_transform(sys)
    basis, y = parameterize_outputs(fm, x0, N, T)
    x_poly, u_poly = parameterize_states_inputs(y, fm)
    pc = condition_cost(x_poly, u_poly, pmsm_cost(p, 20.0, omega0, tau_ref, T))
    acs = condition_constraints(x_poly, u_poly, pmsm_constraints(p), T)
    res = solve_qp(least_distance_transform(pc, acs))
    assert res.status == "optimal"

    state = np.array([x0[0], x0[1], omega0])
    steps = 400
    dt = T / steps
    for k in range(steps):
        u = u_poly(res.alpha, (k + 0.5) * dt)
        state = step_plant(state, u, 0.0, p, J_m, b, dt)
    predicted = x_poly(res.alpha, T)
    err = np.abs(predicted - state[:2]).max()
    assert err < 0.05 * p.I_max


def test_closed_loop_constraints_hold(default_traces):
    p = PmsmParams()
    for kind in ("qp", "lp"):
        worst = polytope_residuals(default_traces[kind], p)
        assert worst <= 1e-6, f"{kind} violates by {worst}"


def test_closed_loop_all_solves_succeed(default_traces):
    for kind in ("qp", "lp"):
        assert all(r.status == "optimal" for r in default_traces[kind])


def test_closed_loop_settles_before_load_step(default_traces):
    scenario = default_traces["scenario"]
    target = scenario.speed_setpoints[0][1]
    for kind in ("qp", "lp"):
        t = settle_time(
            [r for r in default_traces[kind] if r.t < 0.07], target,
            0.02 * target,
        )
        assert t is not None and t < 0.07, f"{kind} settles at {t}"


def test_closed_loop_field_weakening_peak(default_traces):
    for kind in ("qp", "lp"):
        trace = default_traces[kind]
        before = [r.i_d for r in trace if 0.05 <= r.t < 0.07]
        after = [r.i_d for r in trace if r.t >= 0.07]
        steady = np.mean(before)
        assert steady < -1.0  # running field weakened already
        assert min(after) < steady - 0.2  # load step deepens it
    qp_peak = min(r.i_d for r in default_traces["qp"] if r.t >= 0.07)
    lp_peak = min(r.i_d for r in default_traces["lp"] if r.t >= 0.07)
    assert abs(lp_peak) <= abs(qp_peak) + 1e-9


def test_closed_loop_solvers_agree_at_steady_state(default_traces):
    p = PmsmParams()
    tail = 0.8 * default_traces["scenario"].duration
    qp = {r.t: r for r in default_traces["qp"] if r.t >= tail}
    lp = {r.t: r for r in default_traces["lp"] if r.t >= tail}
    assert qp.keys() == lp.keys()
    for t in qp:
        assert abs(qp[t].i_d - lp[t].i_d) < 0.02 * p.I_max
        assert abs(qp[t].i_q - lp[t].i_q) < 0.02 * p.I_max


def test_closed_loop_iterations_bounded(default_traces):
    scenario = default_traces["scenario"]
    n_free = 2 * (scenario.degree + 1) - 2
    cap = 3 * (2 * n_free + 1)
    for kind in ("qp", "lp"):
        worst = max(r.iterations for r in default_traces[kind])
        assert 1 <= worst <= cap, f"{kind} used {worst} iterations"


def test_closed_loop_trace_is_deterministic():
    scenario = Scenario(duration=0.004)
    a = run_closed_loop(scenario, "lp")
    b = run_closed_loop(scenario, "lp")
    assert a == b


def test_closed_loop_fallback_on_contradictory_margin():
    scenario = Scenario(duration=0.002, current_margin=6.0)
    trace = run_closed_loop(scenario, "qp")
    assert len(trace) == 20
    assert all(r.status == "fallback:infeasible" for r in trace)
    assert all(r.v_d == 0.0 and r.v_q == 0.0 for r in trace)


def test_scenario_validation():
    with pytest.raises(ValueError):
        Scenario(load_torque=((0.01, 1.0),))  # must start at t=0
    with pytest.raises(ValueError):
        Scenario(speed_setpoints=((0.0, 0.0), (0.06, 420.0), (0.03, 100.0)))
    with pytest.raises(ValueError):
        run_closed_loop(Scenario(duration=0.001), "sqp")


def test_trace_row_consistency(default_traces):
    p = PmsmParams()
    c = torque_constant(p)
    trace = default_traces["qp"]
    dts = np.diff([r.t for r in trace])
    np.testing.assert_allclose(dts, default_traces["scenario"].dt, rtol=1e-9)
    for r in trace[:50]:
        assert r.tau == pytest.approx(c * r.i_q, rel=1e-12)
        assert math.isfinite(r.J)


def expm_discretization(sys, dt):
    """Zero-order-hold (Ad, Bd, dd) from the matrix exponential of the
    augmented matrix [[A, I], [0, 0]]."""
    n = sys.n
    aug = np.zeros((2 * n, 2 * n))
    aug[:n, :n] = sys.A
    aug[:n, n:] = np.eye(n)
    E = scipy.linalg.expm(aug * dt)
    S = E[:n, n:]
    return E[:n, :n], S @ sys.B, S @ sys.d


def reference_ldp(p, scenario, x0, omega, tau_star):
    """The closed loop's least-distance problem built from the public
    pipeline at one instant: the conditioned cost and Bernstein rows, minus
    the rows whose gradient vanishes, plus the one-step landing rows of the
    current constraints, discretized through the matrix exponential."""
    T = scenario.T_horizon
    sys = pmsm_linearize(p, omega)
    fm = flat_transform(sys)
    cost = pmsm_cost(p, scenario.q, omega, tau_star, T)
    _, y = parameterize_outputs(fm, x0, scenario.degree, T)
    x_poly, u_poly = parameterize_states_inputs(y, fm)
    pc = condition_cost(x_poly, u_poly, cost)
    spec = pmsm_constraints(p, current_margin=scenario.current_margin)
    acs = condition_constraints(x_poly, u_poly, spec, T)
    norms = np.linalg.norm(acs.G, axis=1)
    keep = norms > 1e-10 * max(1.0, norms.max())
    Ad, Bd, dd = expm_discretization(sys, scenario.dt)
    u0_c0, u0_lin = u_poly.affine_eval(0.0)
    current = np.abs(spec.G_x).max(axis=1) > 0
    land_c0 = Ad @ np.asarray(x0, dtype=float) + Bd @ u0_c0 + dd
    acs = AffineConstraintSet(
        G=np.vstack([acs.G[keep], spec.G_x[current] @ (Bd @ u0_lin)]),
        h=np.concatenate([acs.h[keep],
                          -(spec.G_x[current] @ land_c0 + spec.g0[current])]),
        tags=tuple(t for t, k in zip(acs.tags, keep) if k)
        + tuple((int(k), -1) for k in np.flatnonzero(current)),
    )
    return least_distance_transform(pc, acs), u_poly


@pytest.mark.parametrize("omega", [0.0, 1.0, -1.0, 314.0, -420.0, 628.0])
def test_discretize_matches_matrix_exponential(omega):
    p = PmsmParams()
    dt = Scenario().dt
    got = _discretize(p, omega, dt)
    ref = expm_discretization(pmsm_linearize(p, omega), dt)
    for name, g, r in zip(("Ad", "Bd", "dd"), got, ref):
        err = np.abs(g - r).max()
        assert err <= 1e-13 * np.abs(r).max(), f"{name}: {err:.2e}"


def assert_close(got, ref, name):
    got, ref = np.asarray(got, dtype=float), np.asarray(ref, dtype=float)
    assert got.shape == ref.shape, name
    scale = max(np.abs(ref).max(initial=0.0), 1e-300)
    err = np.abs(got - ref).max(initial=0.0)
    assert err <= 1e-10 * scale, f"{name}: {err:.2e} of {scale:.2e}"


@pytest.mark.parametrize("degree", [2, 5, 8])
def test_planner_matches_public_pipeline(degree):
    p = PmsmParams()
    scenario = Scenario(degree=degree)
    planner = _Planner(p, scenario)
    rng = np.random.default_rng(degree)
    s3 = math.sqrt(3.0) / 2.0
    for trial in range(50):
        omega = 0.0 if trial == 0 else rng.uniform(-500.0, 900.0)
        x0 = np.array([rng.uniform(-p.I_max / 2.0, 0.0),
                       rng.uniform(-s3 * p.I_max, s3 * p.I_max)])
        tau_star = rng.uniform(-10.0, 10.0)
        ldp, (u0, u0_lin) = planner.plan(x0, omega, tau_star)
        ref, u_poly = reference_ldp(p, scenario, x0, omega, tau_star)
        assert ldp.tags == ref.tags
        for name in ("F", "alpha0", "c", "G", "h"):
            assert_close(getattr(ldp, name), getattr(ref, name), name)
        ref_u0, ref_u0_lin = u_poly.affine_eval(0.0)
        assert_close(u0, ref_u0, "u0")
        assert_close(u0_lin, ref_u0_lin, "u0_lin")
        for solve in (solve_qp, solve_lp):
            a, b = solve(ldp), solve(ref)
            assert (a.status, a.iterations) == (b.status, b.iterations), (
                f"{solve.__name__} trial {trial}")


def first_step_inputs(scenario):
    tau, _ = pi_speed_controller(
        scenario.speed_setpoints[0][1], 0.0, scenario.k_p, scenario.k_i,
        scenario.tau_limit, scenario.dt)
    return np.zeros(2), 0.0, tau


@pytest.mark.parametrize("scenario, error", [
    (Scenario(q=-1.0), DimensionMismatch),
    (Scenario(q=-0.5), DimensionMismatch),
    (Scenario(degree=16), DegreeOutOfRange),
])
def test_planner_build_raises_like_first_step(scenario, error):
    p = PmsmParams()
    with pytest.raises(error) as ref:
        reference_ldp(p, scenario, *first_step_inputs(scenario))
    with pytest.raises(error) as got:
        _Planner(p, scenario)
    assert str(got.value) == str(ref.value)
    # The structure is checked before the first step, so even a run
    # without steps rejects the data.
    with pytest.raises(error):
        run_closed_loop(dataclasses.replace(scenario, duration=0.0), "qp")


def test_planner_step_raises_like_public_pipeline():
    p = PmsmParams()
    c = torque_constant(p)
    scenario = Scenario(q=1.0)
    planner = _Planner(p, scenario)
    x0 = np.array([-1.0, 2.0])
    # At -5000 rad/s the iron-loss term makes the q-axis weight negative.
    with pytest.raises(DimensionMismatch) as ref:
        pmsm_cost(p, scenario.q, -5000.0, 1.0, scenario.T_horizon)
    with pytest.raises(DimensionMismatch) as got:
        planner.plan(x0, -5000.0, 1.0)
    assert str(got.value) == str(ref.value) == "Q is not positive semidefinite"
    # Where that weight is slightly negative, within the PSD test's
    # tolerance, the conditioned cost fails its Cholesky certificate.
    omega = -p.R_m * (scenario.q * c**2 + p.R) - 1e-6
    with pytest.raises(NotPositiveDefinite) as ref:
        reference_ldp(p, scenario, x0, omega, 1.0)
    with pytest.raises(NotPositiveDefinite) as got:
        planner.plan(x0, omega, 1.0)
    assert str(got.value) == str(ref.value)


@pytest.mark.parametrize("x0, omega, tau_star", [
    ((math.nan, 0.0), 0.0, 1.0),
    ((0.0, 0.0), math.inf, 1.0),
    ((0.0, 0.0), 0.0, math.nan),
])
def test_planner_rejects_non_finite_inputs(x0, omega, tau_star):
    planner = _Planner(PmsmParams(), Scenario())
    with pytest.raises(NonFinite):
        planner.plan(np.array(x0), omega, tau_star)
