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
from flatpoly import pmsm_sim
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
    """Worst signed residual of the machine's polytope over the trace."""
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


def numpy_rk4(state, u, tau_load, p, J_m, b, dt):
    """The plant's RK4 step on 3-element arrays, the reference step_plant
    must reproduce bit for bit."""
    def rhs(s):
        i_d, i_q, w = s
        a = p.n_p * w
        return np.array([
            (-p.R * i_d + p.L * a * i_q + u[0]) / p.L,
            (-p.L * a * i_d - p.R * i_q + u[1] - a * p.K) / p.L,
            (torque_constant(p) * i_q - tau_load - b * w) / J_m,
        ])

    s = np.asarray(state, dtype=float)
    k1 = rhs(s)
    k2 = rhs(s + 0.5 * dt * k1)
    k3 = rhs(s + 0.5 * dt * k2)
    k4 = rhs(s + dt * k3)
    return s + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def test_step_plant_matches_numpy_rk4_bit_for_bit():
    rng = np.random.default_rng(1602)
    for _ in range(2000):
        p = PmsmParams(R=rng.uniform(0.1, 3.0), L=rng.uniform(1e-3, 2e-2),
                       n_p=int(rng.integers(1, 8)), K=rng.uniform(0.05, 1.0))
        state = rng.standard_normal(3) * [10.0, 10.0, 500.0]
        u = rng.standard_normal(2) * 300.0
        tau_load = rng.uniform(-10.0, 10.0)
        J_m, b = rng.uniform(1e-4, 1e-2), rng.uniform(0.0, 1e-2)
        dt = 10.0 ** rng.uniform(-6, -3)
        out = step_plant(state, u, tau_load, p, J_m, b, dt)
        ref = numpy_rk4(state, u, tau_load, p, J_m, b, dt)
        assert isinstance(out, np.ndarray) and out.dtype == float
        assert np.array_equal(out, ref)
    # A zero inertia gives inf or nan on arrays; the float step says so too.
    with pytest.raises(NonFinite):
        step_plant(np.ones(3), np.ones(2), 0.0, PmsmParams(), 0.0, 0.0, 1e-4)


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
    p = PmsmParams()
    scenario = Scenario(duration=0.01, speed_setpoints=((0.0, 0.0),),
                        load_torque=((0.0, 0.0),))
    bound = landing_backoff(p, scenario, 0.0)
    trace = run_closed_loop(scenario, "qp")
    assert len(trace) == 100
    assert all(-bound - 1e-6 <= r.i_d <= 0.0 for r in trace)
    assert max(abs(r.i_q) for r in trace) < 1e-6
    assert max(abs(r.omega) for r in trace) < 1e-6
    assert all(r.status == "optimal" for r in trace)


def test_closed_loop_margin_parks_id_at_backoff():
    # The landing row i_d <= -backoff is active at zero load, so the loop
    # idles at exactly the back-off at rest: 0.0157 A for the stock drive.
    p = PmsmParams()
    scenario = Scenario(duration=0.005, speed_setpoints=((0.0, 0.0),),
                        load_torque=((0.0, 0.0),))
    bound = landing_backoff(p, scenario, 0.0)
    assert bound == pytest.approx(0.0157, abs=5e-5)
    trace = run_closed_loop(scenario, "qp")
    assert trace[-1].i_d == pytest.approx(-bound, abs=1e-6)


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
    acs = condition_constraints(x_poly, u_poly, pmsm_constraints(p))
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


def test_closed_loop_reversal_sweep_holds_constraints():
    # Speed reversals under opposing load steps move the speed fastest
    # while the q-current sits on its bound; without the landing back-off
    # these runs leave the polytope by about 4e-3 A.
    p = PmsmParams()
    rng = np.random.default_rng(6)
    for _ in range(3):
        scenario = Scenario(
            duration=0.06,
            speed_setpoints=((0.0, rng.uniform(150.0, 420.0)),
                             (0.025, -rng.uniform(150.0, 420.0))),
            load_torque=((0.0, 0.0), (0.015, rng.uniform(2.0, 8.0)),
                         (0.04, -rng.uniform(2.0, 8.0))))
        for kind in ("qp", "lp"):
            trace = run_closed_loop(scenario, kind)
            assert all(r.status == "optimal" for r in trace)
            worst = polytope_residuals(trace, p)
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
    # So small an inertia makes the back-off exceed I_max / 4, so the
    # landing rows -I_max / 2 + backoff <= i_d <= -backoff contradict.
    p = PmsmParams()
    scenario = Scenario(duration=0.002, J_m=1e-6)
    assert landing_backoff(p, scenario, 0.0) > p.I_max / 4.0
    for kind in ("qp", "lp"):
        trace = run_closed_loop(scenario, kind)
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


def test_scenario_rejects_bad_scalars():
    # An infinite or NaN duration has no step count; the other values
    # would run a loop whose plant or speed controller means nothing.
    bad = {
        "duration": [math.inf, math.nan],
        "J_m": [-1e-4, 0.0, math.nan],
        "b": [-1e-4, math.inf, math.nan],
        "tau_limit": [-1.0, 0.0, math.nan],
        "k_p": [math.inf, math.nan],
        "k_i": [-math.inf, math.nan],
    }
    for field, values in bad.items():
        for value in values:
            with pytest.raises(ValueError, match=field):
                Scenario(**{field: value})
    Scenario(b=0.0, k_p=0.0, k_i=0.0)


def test_non_integral_and_non_finite_inputs_rejected():
    # int() would truncate degree 5.5 to 5 and 2.5 pole pairs to 2; an
    # infinite setpoint would run and a NaN load fail in the plant.
    with pytest.raises(DegreeOutOfRange):
        _Planner(PmsmParams(), Scenario(degree=5.5))
    for value in (2.5, math.inf, math.nan):
        with pytest.raises(ValueError, match="n_p"):
            PmsmParams(n_p=value)
    PmsmParams(n_p=2.0)
    # An empty schedule has no value at t = 0.
    bad = ((), ((0.0, math.inf),), ((0.0, 1.0), (0.05, math.nan)),
           ((0.0, 1.0), (math.inf, 2.0)))
    for field in ("speed_setpoints", "load_torque"):
        for schedule in bad:
            with pytest.raises(ValueError, match=field):
                Scenario(**{field: schedule})


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


def landing_backoff(p, scenario, omega):
    """The plant's largest one-step distance from the frozen-speed landing
    point: (n_p dt^2 / 2) (I_max + K / L) times the largest speed slope,
    (torque at I_max + largest |load| + friction at omega) / J_m."""
    torque = 1.5 * p.n_p * p.K * p.I_max
    load = max(abs(v) for _, v in scenario.load_torque)
    slope = (torque + load + scenario.b * abs(omega)) / scenario.J_m
    return p.n_p * scenario.dt**2 / 2.0 * slope * (p.I_max + p.K / p.L)


def reference_ldp(p, scenario, x0, omega, tau_star):
    """The closed loop's least-distance problem built from the public
    pipeline at one instant: the conditioned cost and Bernstein rows, minus
    the rows whose gradient vanishes, plus the one-step landing rows of the
    current constraints, discretized through the matrix exponential and
    tightened by landing_backoff."""
    T = scenario.T_horizon
    sys = pmsm_linearize(p, omega)
    fm = flat_transform(sys)
    cost = pmsm_cost(p, scenario.q, omega, tau_star, T)
    _, y = parameterize_outputs(fm, x0, scenario.degree, T)
    x_poly, u_poly = parameterize_states_inputs(y, fm)
    pc = condition_cost(x_poly, u_poly, cost)
    spec = pmsm_constraints(p)
    acs = condition_constraints(x_poly, u_poly, spec)
    norms = np.linalg.norm(acs.G, axis=1)
    keep = norms > 1e-10 * max(1.0, norms.max())
    Ad, Bd, dd = expm_discretization(sys, scenario.dt)
    u0_c0, u0_lin = u_poly.affine_eval(0.0)
    current = np.abs(spec.G_x).max(axis=1) > 0
    land_c0 = Ad @ np.asarray(x0, dtype=float) + Bd @ u0_c0 + dd
    acs = AffineConstraintSet(
        G=np.vstack([acs.G[keep], spec.G_x[current] @ (Bd @ u0_lin)]),
        h=np.concatenate([acs.h[keep],
                          -(spec.G_x[current] @ land_c0 + spec.g0[current])
                          - landing_backoff(p, scenario, omega)]),
        tags=tuple(t for t, k in zip(acs.tags, keep) if k)
        + tuple((int(k), -1) for k in np.flatnonzero(current)),
    )
    return least_distance_transform(pc, acs), u_poly


@pytest.mark.parametrize("omega", [0.0, 1.0, -1.0, 314.0, -420.0, 628.0])
def test_discretize_matches_matrix_exponential(omega):
    p = PmsmParams()
    dt = Scenario().dt
    c, s = _discretize(p, omega, dt)
    got = np.array([[c, s], [-s, c]])
    ref = expm_discretization(pmsm_linearize(p, omega), dt)[1]
    err = np.abs(got - ref).max()
    assert err <= 1e-13 * np.abs(ref).max(), f"Bd: {err:.2e}"


@pytest.mark.parametrize("load_torque", [
    pytest.param(((0.0, 0.0), (0.07, 8.0)), id="stock-load"),
    pytest.param(((0.0, 0.0),), id="no-load"),
])
def test_landing_backoff_bounds_one_step_error(load_torque):
    # From a state in the polytope, at any speed up to twice rated, with a
    # voltage in its polytope and a load within the schedule's largest,
    # the plant lands within the planner's back-off of the frozen-speed
    # landing point.  The bound takes the currents within I_max over the
    # step, so only draws that land inside the polytope count, as the
    # landing rows make every applied step do.
    p = PmsmParams()
    scenario = Scenario(load_torque=load_torque)
    planner = _Planner(p, scenario)
    spec = pmsm_constraints(p)
    current = spec.G_x.any(axis=1)
    load = max(abs(v) for _, v in load_torque)
    s3 = math.sqrt(3.0) / 2.0
    rng = np.random.default_rng(19)
    landed = 0
    for _ in range(2000):
        x0 = np.array([rng.uniform(-p.I_max / 2.0, 0.0),
                       rng.uniform(-s3 * p.I_max, s3 * p.I_max)])
        omega = rng.uniform(-2.0, 2.0) * p.rated_speed
        u = np.array([rng.uniform(-p.V_max / 2.0, p.V_max / 2.0),
                      rng.uniform(-s3 * p.V_max, s3 * p.V_max)])
        Ad, Bd, dd = expm_discretization(pmsm_linearize(p, omega),
                                         scenario.dt)
        land = Ad @ x0 + Bd @ u + dd
        if np.any(spec.G_x[current] @ land + spec.g0[current] > 0.0):
            continue
        landed += 1
        out = step_plant([*x0, omega], u, rng.uniform(-load, load), p,
                         scenario.J_m, scenario.b, scenario.dt)
        err = np.linalg.norm(out[:2] - land)
        assert err <= planner.landing_backoff(omega), (x0, omega, u)
    assert landed >= 1000


def assert_close(got, ref, name):
    got, ref = np.asarray(got, dtype=float), np.asarray(ref, dtype=float)
    assert got.shape == ref.shape, name
    scale = max(np.abs(ref).max(initial=0.0), 1e-300)
    err = np.abs(got - ref).max(initial=0.0)
    assert err <= 1e-10 * scale, f"{name}: {err:.2e} of {scale:.2e}"


@pytest.mark.parametrize("degree", [1, 2, 3, 5, 8])
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


class ReferencePlanner:
    """_Planner's interface over the public pipeline, rebuilt every step."""

    def __init__(self, p, scenario):
        self.p, self.scenario = p, scenario

    def plan(self, x0, omega, tau_star):
        ldp, u_poly = reference_ldp(self.p, self.scenario, x0, omega, tau_star)
        return ldp, u_poly.affine_eval(0.0)


@pytest.mark.parametrize("kind", ["qp", "lp"])
def test_closed_loop_matches_public_pipeline(monkeypatch, kind):
    # A short low-degree run and the stock run.
    for scenario, steps in (
            (Scenario(degree=3, q=5.0, speed_setpoints=((0.0, 200.0),),
                      duration=0.02), 200),
            (Scenario(), 1200)):
        fast = run_closed_loop(scenario, kind)
        with monkeypatch.context() as patch:
            patch.setattr(pmsm_sim, "_Planner", ReferencePlanner)
            ref = run_closed_loop(scenario, kind)
        assert len(fast) == len(ref) == steps
        assert [(r.status, r.iterations) for r in fast] == [
            (r.status, r.iterations) for r in ref]
        for field in ("t", "i_d", "i_q", "v_d", "v_q", "omega", "tau",
                      "tau_ref", "J"):
            got = np.array([getattr(r, field) for r in fast])
            want = np.array([getattr(r, field) for r in ref])
            err = np.abs(got - want).max()
            assert err <= 1e-9 * np.abs(want).max(), (
                f"{steps} steps, {field}: {err:.2e}")


def test_lp_loop_warm_start_matches_cold_loop(monkeypatch, default_traces):
    # The stock LP loop reuses the previous step's basis at most steps,
    # takes a few dual pivots from it at the others, and gives the trace
    # that solving every step cold gives.
    warm = default_traces["lp"]
    assert all(r.status == "optimal" for r in warm)
    assert sum(r.iterations == 0 for r in warm) >= 1100
    assert max(r.iterations for r in warm[1:]) <= 10
    monkeypatch.setattr(pmsm_sim, "solve_lp",
                        lambda ldp, warm_start=None: solve_lp(ldp))
    cold = run_closed_loop(default_traces["scenario"], "lp")
    assert all(r.iterations > 0 for r in cold)
    for field in ("t", "i_d", "i_q", "v_d", "v_q", "omega", "tau", "tau_ref",
                  "J"):
        got = np.array([getattr(r, field) for r in warm])
        want = np.array([getattr(r, field) for r in cold])
        err = np.abs(got - want).max()
        assert err <= 1e-9 * np.abs(want).max(), f"{field}: {err:.2e}"


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


def test_zero_cost_weight_raises_flatpoly_error():
    # a_d = R + omega L^2 / R_m and a_q = q c^2 + R + omega / R_m vanish at
    # these speeds; the tracking cost then has no minimum.
    p = PmsmParams()
    scenario = Scenario(q=1.0)
    planner = _Planner(p, scenario)
    c = torque_constant(p)
    speeds = {"d": -p.R * p.R_m / p.L**2,
              "q": -(scenario.q * c**2 + p.R) * p.R_m}
    for axis, omega in speeds.items():
        with pytest.raises(NotPositiveDefinite) as ref:
            pmsm_cost(p, scenario.q, omega, 1.0, scenario.T_horizon)
        with pytest.raises(NotPositiveDefinite) as got:
            planner.plan(np.array([-1.0, 2.0]), omega, 1.0)
        assert str(got.value) == str(ref.value)
        assert f"{axis}-axis cost weight is zero" in str(ref.value)


def test_planner_rejects_overflowing_rows():
    # At these finite speeds the model's rotation and back-EMF terms
    # overflow, so the constraint rows are not finite; at 1e308 the
    # rotation rate n_p omega itself is inf.
    planner = _Planner(PmsmParams(), Scenario())
    for omega in (1e307, 1e308):
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                DimensionMismatch,
                match="constraint rows contain non-finite entries"):
            planner.plan(np.array([-1.0, 2.0]), omega, 1.0)


@pytest.mark.parametrize("x0, omega, tau_star", [
    ((math.nan, 0.0), 0.0, 1.0),
    ((0.0, 0.0), math.inf, 1.0),
    ((0.0, 0.0), 0.0, math.nan),
])
def test_planner_rejects_non_finite_inputs(x0, omega, tau_star):
    planner = _Planner(PmsmParams(), Scenario())
    with pytest.raises(NonFinite):
        planner.plan(np.array(x0), omega, tau_star)
