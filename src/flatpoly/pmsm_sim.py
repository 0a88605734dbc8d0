"""Receding-horizon predictive torque control of a non-salient PMSM.

The electrical subsystem in the rotor frame,

    L di_d/dt = -R i_d + n_p w L i_q + v_d
    L di_q/dt = -n_p w L i_d - R i_q + v_q - n_p w K

is linear in (i_d, i_q) once the speed w is frozen over the short prediction
horizon; the back-EMF term enters as a constant drift.  Each sampling
instant plans a current trajectory at the measured speed that minimizes
weighted torque error plus copper and iron losses subject to
current/voltage polytope constraints, applies the first input sample, and
integrates the full nonlinear machine (including the mechanical equation)
one step.  A cascaded PI controller turns the speed error into the torque
reference.

The planning problem has the same structure at every instant: B = I / L,
so both flat outputs are the currents with relative degree one, and the
degree, horizon, basis and constraint rows are fixed.  The closed loop
builds and validates that structure once (_Planner) and updates only the
numbers that depend on the speed, the measured currents and the torque
reference at each step.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFinite
from .flat import (
    LinearConstraintSpec,
    LtiSystem,
    QuadraticCostSpec,
    _require_psd,
    flat_transform,
)
from .polybasis import AffinePolyVector, _chain_coefficients, parameterize_outputs
from .costcond import (
    ParameterizedCost,
    _cost_terms,
    gram_weights,
    least_distance_transform,
)
from .polyconstraint import (
    AffineConstraintSet,
    _bernstein_rows,
    constraint_polynomials,
)
from .solver import solve_lp, solve_qp

# The closed loop does not call these; they stay importable here because
# perfbench/worker.py wraps every name in its PMSM_NAMES list on this module.
from .costcond import condition_cost  # noqa: F401
from .polybasis import parameterize_states_inputs  # noqa: F401
from .polyconstraint import compute_delta, condition_constraints  # noqa: F401

__all__ = [
    "PmsmParams",
    "Scenario",
    "TraceRow",
    "pmsm_linearize",
    "pmsm_cost",
    "pmsm_constraints",
    "torque_constant",
    "step_plant",
    "pi_speed_controller",
    "run_closed_loop",
]

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class PmsmParams:
    """Machine constants of the non-salient PMSM under test.

    Defaults are the 3.4 kW drive of the motivating experiment: R = 0.86
    ohm, L = 6 mH, 3 pole pairs, flux constant 0.236 Vs, iron-loss
    resistance 1800 ohm, 10 A current and 330 V voltage amplitude limits.
    """

    R: float = 0.86
    L: float = 6e-3
    n_p: int = 3
    K: float = 0.236
    R_m: float = 1800.0
    I_max: float = 10.0
    V_max: float = 330.0
    rated_speed: float = 314.0
    rated_torque: float = 8.0

    def __post_init__(self):
        for name in ("R", "L", "K", "R_m", "I_max", "V_max",
                     "rated_speed", "rated_torque"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be strictly positive")
        if not self.n_p >= 1:
            raise ValueError("n_p must be a positive integer")


def torque_constant(p: PmsmParams):
    """Torque per ampere of q-current: tau = (3/2) n_p K i_q."""
    return 1.5 * p.n_p * p.K


@dataclass(frozen=True)
class Scenario:
    """Closed-loop experiment description.

    speed_setpoints and load_torque are piecewise-constant schedules given
    as ((t0, value0), (t1, value1), ...) with t0 = 0; the value holds from
    its time until the next breakpoint.

    The mechanical constants and PI gains are no part of the machine data;
    the defaults are tuned so the 0 -> 420 rad/s transient settles well
    before the 8 N.m load step at t = 0.07 s.  current_margin backs the
    planned current bounds off by a small amount so that the applied
    samples stay inside the true polytope despite the frozen-speed model
    error and the zero-order hold of the applied input.
    """

    T_horizon: float = 2e-3
    dt: float = 1e-4
    duration: float = 0.12
    degree: int = 5
    q: float = 20.0
    speed_setpoints: tuple = ((0.0, 420.0),)
    load_torque: tuple = ((0.0, 0.0), (0.07, 8.0))
    J_m: float = 5e-4
    b: float = 1e-4
    k_p: float = 0.24
    k_i: float = 45.0
    tau_limit: float = 10.0
    current_margin: float = 0.05

    def __post_init__(self):
        if not 0 < self.dt <= self.T_horizon:
            raise ValueError("need 0 < dt <= T_horizon")
        if self.duration < 0:
            raise ValueError("duration must be nonnegative")
        for sched in (self.speed_setpoints, self.load_torque):
            times = [t for t, _ in sched]
            if times != sorted(times) or (times and times[0] != 0.0):
                raise ValueError("schedules must start at t=0 and be sorted")
        object.__setattr__(self, "speed_setpoints",
                           tuple((float(t), float(v)) for t, v in self.speed_setpoints))
        object.__setattr__(self, "load_torque",
                           tuple((float(t), float(v)) for t, v in self.load_torque))


def _schedule_value(schedule, t):
    value = schedule[0][1]
    for t_k, v_k in schedule:
        if t >= t_k - 1e-12:
            value = v_k
        else:
            break
    return value


@dataclass(frozen=True)
class TraceRow:
    """One sampling instant of the closed loop (applied values)."""

    t: float
    i_d: float
    i_q: float
    v_d: float
    v_q: float
    omega: float
    tau: float
    tau_ref: float
    J: float
    iterations: int
    solver: str
    status: str


def pmsm_linearize(p: PmsmParams, omega) -> LtiSystem:
    """Electrical subsystem frozen at the measured speed.

    x = (i_d, i_q), u = (v_d, v_q):

        A = [[-R/L,  n_p w], [-n_p w, -R/L]],  B = I / L,
        d = (0, -n_p w K / L).

    Valid for |omega| up to about twice rated speed; beyond that the
    frozen-speed assumption degrades faster than the horizon.
    """
    A, d = _frozen_speed_model(p, omega)
    return LtiSystem(A=A, B=np.eye(2) / p.L, d=d)


def _frozen_speed_model(p: PmsmParams, omega):
    """(A, d) of pmsm_linearize, without building and checking the system."""
    a = p.n_p * float(omega)
    A = np.array([[-p.R / p.L, a], [-a, -p.R / p.L]])
    d = np.array([0.0, -a * p.K / p.L])
    return A, d


def pmsm_cost(p: PmsmParams, q, omega, tau_star, T) -> QuadraticCostSpec:
    """Weighted torque tracking plus electrical losses over the horizon.

    The stage integrand is

        q (tau - tau*)^2 + R (i_d^2 + i_q^2)
        + (w / R_m) ((L i_d + K)^2 + i_q^2),

    with tau = (3/2) n_p K i_q, plus the terminal torque penalty
    q T (tau(T) - tau*)^2.  Completing the square per axis turns this into
    diagonal (x - x_ref)' Q (x - x_ref) weights with zero input weight; the
    trajectory-independent constant is dropped, so reported costs are the
    physical objective up to that constant.
    """
    q_diag, x_ref, x_star = _cost_weights(p, q, omega, tau_star)
    return QuadraticCostSpec(
        Q=np.diag(q_diag),
        R=np.zeros((2, 2)),
        P=np.diag([0.0, q * T * torque_constant(p)**2]),
        x_star=x_star,
        x_ref=x_ref,
        T=T,
    )


def _cost_weights(p: PmsmParams, q, omega, tau_star):
    """(diagonal of Q, x_ref, x_star) of pmsm_cost; R and P depend on
    neither the speed nor the torque reference."""
    c = torque_constant(p)
    w = float(omega)
    a_d = p.R + w * p.L**2 / p.R_m
    a_q = q * c**2 + p.R + w / p.R_m
    b_d = 2.0 * w * p.L * p.K / p.R_m
    x_ref = np.array([-b_d / (2.0 * a_d), q * c * tau_star / a_q])
    x_star = np.array([x_ref[0], tau_star / c])
    return np.array([a_d, a_q]), x_ref, x_star


def pmsm_constraints(p: PmsmParams, current_margin=0.0) -> LinearConstraintSpec:
    """Inscribed-polytope linearization of the current and voltage circles.

    Currents: -I_max/2 <= i_d <= 0 and |i_q| <= (sqrt(3)/2) I_max; every
    vertex such as (-I_max/2, sqrt(3)/2 I_max) lies exactly on the circle
    i_d^2 + i_q^2 = I_max^2.  Voltages analogously with V_max.  Only
    i_d <= 0 is sensible for this machine (field weakening).

    current_margin > 0 tightens all four current rows by that many amperes
    (planner back-off; the reported polytope for checking applied samples
    uses margin zero).
    """
    mu = float(current_margin)
    s3 = math.sqrt(3.0) / 2.0
    G_x = np.array([
        [1.0, 0.0],
        [-1.0, 0.0],
        [0.0, 1.0],
        [0.0, -1.0],
        [0.0, 0.0],
        [0.0, 0.0],
        [0.0, 0.0],
        [0.0, 0.0],
    ])
    G_u = np.array([
        [0.0, 0.0],
        [0.0, 0.0],
        [0.0, 0.0],
        [0.0, 0.0],
        [1.0, 0.0],
        [-1.0, 0.0],
        [0.0, 1.0],
        [0.0, -1.0],
    ])
    g0 = np.array([
        0.0 + mu,
        -p.I_max / 2.0 + mu,
        -s3 * p.I_max + mu,
        -s3 * p.I_max + mu,
        -p.V_max / 2.0,
        -p.V_max / 2.0,
        -s3 * p.V_max,
        -s3 * p.V_max,
    ])
    return LinearConstraintSpec(G_x=G_x, G_u=G_u, g0=g0)


def _plant_rhs(state, v_d, v_q, tau_load, p: PmsmParams, J_m, b):
    i_d, i_q, w = state
    a = p.n_p * w
    did = (-p.R * i_d + p.L * a * i_q + v_d) / p.L
    diq = (-p.L * a * i_d - p.R * i_q + v_q - a * p.K) / p.L
    dw = (torque_constant(p) * i_q - tau_load - b * w) / J_m
    return np.array([did, diq, dw])


def step_plant(state, u, tau_load, p: PmsmParams, J_m, b, dt):
    """One RK4 step of the full nonlinear machine plus mechanics.

    state = (i_d, i_q, omega); u = (v_d, v_q) held constant over the step.
    """
    s = np.asarray(state, dtype=float)
    v_d, v_q = float(u[0]), float(u[1])
    k1 = _plant_rhs(s, v_d, v_q, tau_load, p, J_m, b)
    k2 = _plant_rhs(s + 0.5 * dt * k1, v_d, v_q, tau_load, p, J_m, b)
    k3 = _plant_rhs(s + 0.5 * dt * k2, v_d, v_q, tau_load, p, J_m, b)
    k4 = _plant_rhs(s + dt * k3, v_d, v_q, tau_load, p, J_m, b)
    out = s + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if not np.all(np.isfinite(out)):
        raise NonFinite("plant integration diverged")
    return out


def pi_speed_controller(omega_ref, omega, k_p, k_i, tau_limit, dt,
                        integrator=0.0):
    """One update of the PI speed loop with conditional anti-windup.

    Returns (tau_ref, integrator).  The integrator is frozen whenever the
    output saturates, so it cannot wind up during torque-limited ramps.
    """
    e = float(omega_ref) - float(omega)
    candidate = integrator + e * dt
    raw = k_p * e + k_i * candidate
    if raw > tau_limit:
        return tau_limit, integrator
    if raw < -tau_limit:
        return -tau_limit, integrator
    return raw, candidate


def _discretize(p: PmsmParams, omega, dt):
    """Exact zero-order-hold discretization of the frozen-speed model.

    A = -(R/L) I + n_p w [[0, 1], [-1, 0]] is a damped rotation, so
    e^{A dt} = e^{-R dt / L} [[cos, sin], [-sin, cos]](n_p w dt); R > 0
    makes A invertible, so S = int_0^dt e^{A s} ds = A^{-1} (e^{A dt} - I).
    Returns (Ad, Bd, dd) with x(dt) = Ad x0 + Bd u + dd for constant u,
    where Bd = S B = S / L and dd = S d.
    """
    A, d = _frozen_speed_model(p, omega)
    sigma, a = p.R / p.L, A[0, 1]
    theta = a * dt
    decay = math.exp(-sigma * dt)
    cos, sin = math.cos(theta), math.sin(theta)
    Ad = decay * np.array([[cos, sin], [-sin, cos]])
    # e^{A dt} - I without cancellation: decay cos - 1 is
    # expm1(-sigma dt) cos - 2 sin^2(theta / 2).
    diag = math.expm1(-sigma * dt) * cos - 2.0 * math.sin(0.5 * theta) ** 2
    E_minus_I = np.array([[diag, decay * sin], [-decay * sin, diag]])
    A_inv = np.array([[-sigma, -a], [a, -sigma]]) / (sigma**2 + a**2)
    S = A_inv @ E_minus_I
    return Ad, S / p.L, S @ d


class _Planner:
    """The receding-horizon planning problem of run_closed_loop.

    Built once per run through the public pipeline at standstill: the flat
    transform (r = (1, 1): the flat outputs are the currents, x = z, and
    u = L (z' - A z - d) because B = I / L at every speed), the cost weights
    (which check Q(0), R and P), the basis (which checks the degree), the
    constraint spec and the landing-row selection.  plan() then updates
    only the numbers that depend on the speed, the measured currents and
    the torque reference.

    The Bernstein coefficient p = 0 of a state-only row is a fact about the
    measured state, which pins x(0), and not a planner decision; those rows
    are left out by structure.  One-step landing rows are appended: the
    first input sample is held for one sampling period, so the state the
    plant lands on is Ad x0 + Bd u(0) + dd (exact for the frozen-speed
    model).  Constraining that point with the backed-off current bounds
    keeps the applied samples inside the true polytope, which the planned
    polynomial alone does not guarantee: it follows the frozen-speed model,
    not the held input the plant receives.
    """

    def __init__(self, p: PmsmParams, scenario: Scenario):
        T = scenario.T_horizon
        fm = flat_transform(pmsm_linearize(p, 0.0))
        cost = pmsm_cost(p, scenario.q, 0.0, 0.0, T)
        _, y = parameterize_outputs(fm, np.zeros(2), scenario.degree, T)
        spec = pmsm_constraints(p, current_margin=scenario.current_margin)
        _, z_cl, _, v_cl = _chain_coefficients(y, fm.r)
        self.p, self.q, self.T, self.dt = p, scenario.q, T, scenario.dt
        self.R, self.P = cost.R, cost.P
        self.x_cl = z_cl
        self.Lv_cl = p.L * v_cl
        self.Ws = T * gram_weights(y.degree, 1.0)
        self.spec = spec

        state_only = ~spec.G_u.any(axis=1)
        rows = [(k, j) for k in range(spec.n_rows) for j in range(y.degree + 1)]
        self.keep = np.array([i for i, (k, j) in enumerate(rows)
                              if not (state_only[k] and j == 0)])
        current = np.flatnonzero(spec.G_x.any(axis=1))
        self.G_land, self.g_land = spec.G_x[current], spec.g0[current]
        self.tags = (tuple(rows[i] for i in self.keep)
                     + tuple((int(k), -1) for k in current))

    def plan(self, x0, omega, tau_star):
        """The least-distance problem at one instant and the applied input
        u(0) = u0 + u0_lin @ alpha as the pair (u0, u0_lin).

        Raises NonFinite for non-finite inputs, DimensionMismatch when Q is
        not positive semidefinite at this speed, NotPositiveDefinite when
        the conditioned cost fails its Cholesky certificate.
        """
        x0 = np.asarray(x0, dtype=float)
        if not (np.isfinite(x0).all() and math.isfinite(omega)
                and math.isfinite(tau_star)):
            raise NonFinite("planner inputs are not finite")
        p, T = self.p, self.T
        A, d = _frozen_speed_model(p, omega)
        q_diag, x_ref, x_star = _cost_weights(p, self.q, omega, tau_star)
        _require_psd("Q", q_diag)

        x_c0 = np.zeros(self.x_cl.shape[:2])
        x_c0[:, 0] = x0
        u_c0 = np.zeros_like(x_c0)
        u_c0[:, 0] = -p.L * (A @ x0 + d)
        u_cl = self.Lv_cl - p.L * np.einsum("ij,jkp->ikp", A, self.x_cl)
        x_poly = AffinePolyVector(x_c0, self.x_cl, T, role="state")
        u_poly = AffinePolyVector(u_c0, u_cl, T, role="input")

        K, k, k0 = _cost_terms(self.Ws, x_poly, u_poly, np.diag(q_diag),
                               self.R, self.P, x_ref, x_star)
        G, h = _bernstein_rows(constraint_polynomials(x_poly, u_poly, self.spec))
        Ad, Bd, dd = _discretize(p, omega, self.dt)
        land_c0 = Ad @ x0 + Bd @ u_c0[:, 0] + dd
        land_lin = Bd @ u_cl[:, 0]
        acs = AffineConstraintSet(
            G=np.vstack([G[self.keep], self.G_land @ land_lin]),
            h=np.concatenate([h[self.keep],
                              -(self.G_land @ land_c0 + self.g_land)]),
            tags=self.tags,
        )
        ldp = least_distance_transform(ParameterizedCost(K=K, k=k, k0=k0), acs)
        return ldp, (u_c0[:, 0], u_cl[:, 0])


def run_closed_loop(scenario: Scenario, solver_kind="qp",
                    params: PmsmParams = None):
    """Simulate the cascaded speed / predictive-torque control loop.

    The planning problem's structure is built and validated once, before
    the first step, so invalid machine or scenario data raises even when
    the run has no steps.  At every sampling instant the measured state
    re-seeds the planner: update the speed-dependent model, cost and
    constraint numbers, solve, apply u(0) for one step of the nonlinear
    plant.  Infeasible or non-optimal solves fall back to the previously
    applied voltage and are flagged in the trace; the run never aborts on
    a solver failure.

    Parameters
    ----------
    scenario : Scenario
    solver_kind : 'qp' or 'lp'
    params : PmsmParams, optional

    Returns
    -------
    list of TraceRow
    """
    if solver_kind not in ("qp", "lp"):
        raise ValueError(f"solver_kind must be 'qp' or 'lp', got {solver_kind!r}")
    p = params if params is not None else PmsmParams()
    planner = _Planner(p, scenario)
    n_steps = int(round(scenario.duration / scenario.dt))
    state = np.zeros(3)
    integrator = 0.0
    prev_u = np.zeros(2)
    warm = None
    trace = []
    for k in range(n_steps):
        t = k * scenario.dt
        omega_ref = _schedule_value(scenario.speed_setpoints, t)
        tau_load = _schedule_value(scenario.load_torque, t)
        tau_ref, integrator = pi_speed_controller(
            omega_ref, state[2], scenario.k_p, scenario.k_i,
            scenario.tau_limit, scenario.dt, integrator,
        )
        ldp, (u0, u0_lin) = planner.plan(state[:2], state[2], tau_ref)
        if solver_kind == "qp":
            result = solve_qp(ldp, warm_start=warm)
        else:
            result = solve_lp(ldp)
        if result.status == "optimal":
            u = u0 + u0_lin @ result.alpha
            warm = result.active_rows if solver_kind == "qp" else None
            status = "optimal"
        else:
            u = prev_u
            warm = None
            status = f"fallback:{result.status}"
            log.info("step %d (t=%.4f): %s, reusing previous input",
                     k, t, result.status)
        trace.append(TraceRow(
            t=t,
            i_d=float(state[0]),
            i_q=float(state[1]),
            v_d=float(u[0]),
            v_q=float(u[1]),
            omega=float(state[2]),
            tau=float(torque_constant(p) * state[1]),
            tau_ref=float(tau_ref),
            J=float(result.quadratic_cost),
            iterations=int(result.iterations),
            solver=solver_kind,
            status=status,
        ))
        state = step_plant(state, u, tau_load, p, scenario.J_m, scenario.b,
                           scenario.dt)
        prev_u = np.asarray(u, dtype=float)
    return trace
