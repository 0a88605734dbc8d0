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
builds and validates that structure once (_Planner), together with every
array that does not depend on the step: the cost's Gram blocks, the
constraint rows' constant part and their part proportional to the speed.
Each step then combines these with the speed, the measured currents and
the torque reference, adds the backed-off landing rows and runs the
least-distance transform.  The solve starts from the previous step's
answer: the QP from its active rows, the LP from its optimal basis, which
solve_lp accepts without pivoting while it stays optimal and otherwise
takes a few dual simplex pivots from.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFinite, NotPositiveDefinite
from .flat import (
    LinearConstraintSpec,
    LtiSystem,
    QuadraticCostSpec,
    _require_psd,
    flat_transform,
)
from .polybasis import AffinePolyVector, _chain_polynomials, parameterize_outputs
from .costcond import _least_distance, _linear_terms
from .polyconstraint import (
    _bernstein_rows,
    _require_finite_rows,
    constraint_polynomials,
)
from .solver import solve_lp, solve_qp

# The closed loop does not call these; they stay importable here because
# perfbench/worker.py wraps every name in its PMSM_NAMES list on this module.
from .costcond import condition_cost, least_distance_transform  # noqa: F401
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
        if not (self.n_p >= 1 and float(self.n_p).is_integer()):
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
    before the 8 N.m load step at t = 0.07 s.  dt, J_m, b and the largest
    |load_torque| also set the planner's landing back-off (_Planner).

    Construction raises ValueError for a duration or b that is negative or
    not finite, a J_m or tau_limit that is not positive, PI gains that are
    not finite, or a schedule that is empty or whose times or values are
    not finite.
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

    def __post_init__(self):
        if not 0 < self.dt <= self.T_horizon:
            raise ValueError("need 0 < dt <= T_horizon")
        if not 0 <= self.duration < math.inf:
            raise ValueError("duration must be finite and nonnegative")
        if not self.J_m > 0:
            raise ValueError("J_m must be strictly positive")
        if not 0 <= self.b < math.inf:
            raise ValueError("b must be finite and nonnegative")
        if not self.tau_limit > 0:
            raise ValueError("tau_limit must be strictly positive")
        if not (math.isfinite(self.k_p) and math.isfinite(self.k_i)):
            raise ValueError("k_p and k_i must be finite")
        for name in ("speed_setpoints", "load_torque"):
            sched = tuple((float(t), float(v)) for t, v in getattr(self, name))
            if not sched:
                raise ValueError(f"{name} must not be empty")
            if not np.isfinite(sched).all():
                raise ValueError(f"{name} times and values must be finite")
            times = [t for t, _ in sched]
            if times != sorted(times) or times[0] != 0.0:
                raise ValueError("schedules must start at t=0 and be sorted")
            object.__setattr__(self, name, sched)


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
    a = p.n_p * float(omega)
    A = np.array([[-p.R / p.L, a], [-a, -p.R / p.L]])
    d = np.array([0.0, -a * p.K / p.L])
    return LtiSystem(A=A, B=np.eye(2) / p.L, d=d)


def pmsm_cost(p: PmsmParams, q, omega, tau_star, T) -> QuadraticCostSpec:
    """Weighted torque tracking plus electrical losses over the horizon.

    The stage integrand is

        q (tau - tau*)^2 + R (i_d^2 + i_q^2)
        + (w / R_m) ((L i_d + K)^2 + i_q^2),

    with tau = (3/2) n_p K i_q, plus the terminal torque penalty
    q T (tau(T) - tau*)^2.  Completing the square per axis turns this into
    diagonal (x - x_ref)' Q (x - x_ref) weights with zero input weight; the
    trajectory-independent constant is dropped, so reported costs are the
    physical objective up to that constant.  Raises NotPositiveDefinite at
    a speed where a diagonal weight is zero, because the stage cost is
    then linear in that current and has no minimum.
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
    for axis, a in (("d", a_d), ("q", a_q)):
        if a == 0.0:
            raise NotPositiveDefinite(
                f"the {axis}-axis cost weight is zero at omega = {w!r} rad/s")
    b_d = 2.0 * w * p.L * p.K / p.R_m
    x_ref = np.array([-b_d / (2.0 * a_d), q * c * tau_star / a_q])
    x_star = np.array([x_ref[0], tau_star / c])
    return np.array([a_d, a_q]), x_ref, x_star


def pmsm_constraints(p: PmsmParams) -> LinearConstraintSpec:
    """Inscribed-polytope linearization of the current and voltage circles.

    Currents: -I_max/2 <= i_d <= 0 and |i_q| <= (sqrt(3)/2) I_max; every
    vertex such as (-I_max/2, sqrt(3)/2 I_max) lies exactly on the circle
    i_d^2 + i_q^2 = I_max^2.  Voltages analogously with V_max.  Only
    i_d <= 0 is sensible for this machine (field weakening).  The closed
    loop plans against this polytope and checks its applied samples
    against it.
    """
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
        0.0,
        -p.I_max / 2.0,
        -s3 * p.I_max,
        -s3 * p.I_max,
        -p.V_max / 2.0,
        -p.V_max / 2.0,
        -s3 * p.V_max,
        -s3 * p.V_max,
    ])
    return LinearConstraintSpec(G_x=G_x, G_u=G_u, g0=g0)


def _plant_rhs(i_d, i_q, w, v_d, v_q, tau_load, p: PmsmParams, J_m, b):
    a = p.n_p * w
    did = (-p.R * i_d + p.L * a * i_q + v_d) / p.L
    diq = (-p.L * a * i_d - p.R * i_q + v_q - a * p.K) / p.L
    dw = (torque_constant(p) * i_q - tau_load - b * w) / J_m
    return did, diq, dw


def step_plant(state, u, tau_load, p: PmsmParams, J_m, b, dt):
    """One RK4 step of the full nonlinear machine plus mechanics.

    state = (i_d, i_q, omega); u = (v_d, v_q) held constant over the step.
    The three states are stepped as Python floats, which spares the numpy
    call overhead of 3-element arrays and rounds exactly as they would.
    """
    x = np.asarray(state, dtype=float).tolist()
    args = float(u[0]), float(u[1]), tau_load, p, J_m, b
    half = 0.5 * dt
    try:
        k1 = _plant_rhs(*x, *args)
        k2 = _plant_rhs(*[s + half * k for s, k in zip(x, k1)], *args)
        k3 = _plant_rhs(*[s + half * k for s, k in zip(x, k2)], *args)
        k4 = _plant_rhs(*[s + dt * k for s, k in zip(x, k3)], *args)
    except ZeroDivisionError:  # a zero J_m or L: no finite state
        raise NonFinite("plant integration diverged") from None
    sixth = dt / 6.0
    out = [s + sixth * (d1 + 2.0 * d2 + 2.0 * d3 + d4)
           for s, d1, d2, d3, d4 in zip(x, k1, k2, k3, k4)]
    if not all(map(math.isfinite, out)):
        raise NonFinite("plant integration diverged")
    return np.array(out)


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

    A = -sigma I + a J (sigma = R/L, a = n_p w, J = [[0, 1], [-1, 0]]) is a
    damped rotation, e^{A dt} = e^{-sigma dt} (cos I + sin J)(a dt), and
    R > 0 makes A invertible: S = int_0^dt e^{A s} ds = A^{-1} (e^{A dt} - I).
    As J J = -I, each is x I + y J.  Returns (c, s) of the input map Bd =
    S / L = c I + s J of x(dt) = e^{A dt} x0 + Bd u + S d for constant u,
    or NaNs where a dt overflows, which the planner's row check rejects.
    """
    sigma, a = p.R / p.L, p.n_p * float(omega)
    theta = a * dt
    if not math.isfinite(theta):  # math.cos would raise on it
        return math.nan, math.nan
    cos, sin = math.cos(theta), math.sin(theta)
    # e^{A dt} - I = e_i I + e_j J without cancellation: e^{-sigma dt} cos
    # - 1 is expm1(-sigma dt) cos - 2 sin^2(theta / 2).
    e_i = math.expm1(-sigma * dt) * cos - 2.0 * math.sin(0.5 * theta) ** 2
    e_j = math.exp(-sigma * dt) * sin
    # A^{-1} = -(sigma I + a J) / (sigma^2 + a^2), folded with 1 / L.
    scale = -1.0 / ((sigma * sigma + a * a) * p.L)
    return (scale * (sigma * e_i - a * e_j),
            scale * (sigma * e_j + a * e_i))


class _Planner:
    """The receding-horizon planning problem of run_closed_loop.

    Built once per run through the public pipeline at standstill: the flat
    transform (r = (1, 1): the flat outputs are the currents, x = z, and
    u = L (z' - A z - d) because B = I / L at every speed), the cost weights
    (which check Q(0), R and P), the basis (which checks the degree), the
    constraint spec and the landing-row selection.

    Everything that does not depend on the step's numbers is stored then:

    - the cost: Q = diag(a_d, a_q) and R = 0, and each free parameter
      belongs to one axis, so K = a_d K_d + a_q K_q + K_P with the per-axis
      Gram blocks K_d, K_q and the terminal block K_P; and the Gram matrix
      applied to the linear part of x, which k uses at every step;
    - Theta, every constraint row of a step as one linear map of the
      step's scalars: G = reshape(Theta @ [1, L a, c, s]) with
      a = n_p omega and Bd = c I + s J from _discretize.  A = A0 + a J, so
      the input's linear part is U0 + (L a) Ua and the polynomial
      rows are the Bernstein rows G0 + (L a) Ga, less the rows left out
      below; columns 0 and 1 of Theta hold G0 and Ga.  The landing rows
      are G_land Bd u0_lin, so columns 2 and 3 hold G_land u0_lin and
      G_land J u0_lin;
    - U and C, the applied-input constant and the right-hand side as linear
      maps of phi = [1, x0_d, x0_q, a x0_d, a x0_q, a K / L]: u0 = U phi
      and h = -C phi, less landing_backoff on the landing rows.  A
      polynomial row of C gives its constraint's value at t = 0,
      G_x x0 + G_u u0 + g0: that is the constant part of the constraint's
      polynomial, and a constant's Bernstein coefficients all equal it, so
      every row of one constraint repeats it.  A landing row of C gives
      its current row's value G_x x0 + g0 at the measured state.  phi
      carries the back-EMF term a K / L and not a itself, so it overflows
      at the speeds where pmsm_linearize's drift does and the row check
      rejects the steps the public pipeline rejects;
    - u0_lin: x(0) is pinned, so u(0) = u0 + u0_lin @ alpha with a
      constant u0_lin at every speed.

    A step then computes only the cost weights at its speed and torque
    reference, k and k0 (through costcond._linear_terms, which
    condition_cost also uses), phi, the exact discretization, the three
    products with Theta, U and C, and the least-distance transform: one
    Cholesky factorization and three triangular solves.  The problem
    agrees with the one condition_cost, condition_constraints and
    least_distance_transform build from the same polynomials to rounding.

    The Bernstein coefficient p = 0 of a state-only row is a fact about the
    measured state, which pins x(0), and not a planner decision; those rows
    are left out by structure.  One-step landing rows are appended: the
    first input sample is held for one sampling period, and the
    frozen-speed model lands on x0 + Bd (u(0) - u0) (its constant input
    u0 = -L (A x0 + d) holds x0 still).  The plant's speed moves by dw(t)
    over the step, so its error obeys e' = A e + n_p dw (i_q, -i_d - K/L);
    A is a damped rotation and |dw(t)| <= t wdot_max, so with the currents
    within I_max, ||e(dt)|| <= (n_p dt^2 / 2) wdot_max (I_max + K/L), where
    J_m wdot_max = (3/2) n_p K I_max + max |load| + b |omega|.  The landing
    rows are tightened by this bound, landing_backoff, so the applied
    samples stay inside the true polytope.
    """

    def __init__(self, p: PmsmParams, scenario: Scenario):
        T = scenario.T_horizon
        model = pmsm_linearize(p, 0.0)
        fm = flat_transform(model)
        cost = pmsm_cost(p, scenario.q, 0.0, 0.0, T)
        _, y = parameterize_outputs(fm, np.zeros(2), scenario.degree, T)
        spec = pmsm_constraints(p)
        x, v = _chain_polynomials(y, fm.r)
        self.p, self.q, self.dt = p, scenario.q, scenario.dt
        self.drift = (0.5 * p.n_p * scenario.dt**2 * (p.I_max + p.K / p.L)
                      / scenario.J_m)
        self.tau_max = (torque_constant(p) * p.I_max
                        + max(abs(v) for _, v in scenario.load_torque))
        self.b = scenario.b

        # The cost, in _quad_block's terms; pmsm_cost has no input weight.
        self.x, self.P = x, cost.P
        self.Ws = x.gram()
        self.Wcl = np.einsum("ij,bjp->bip", self.Ws, x.coef_lin)
        self.K_d, self.K_q = np.einsum("aip,aiq->apq", x.coef_lin, self.Wcl)
        _, self.sTl = x.at_end()
        self.K_P = np.einsum("ab,ap,bq->pq", cost.P, self.sTl, self.sTl)

        # A = A0 + a J with a = n_p omega, so the linear part of
        # u = L v - L A x is that of U0 + (L a) Ua (x(0) = 0 here, and only
        # linear parts enter the rows), and u0 = -L (A x0 + d) with
        # d = -(a K / L) e_q.
        J = np.array([[0.0, 1.0], [-1.0, 0.0]])
        U0 = AffinePolyVector(
            x.coef0, p.L * v.coef_lin - p.L * (model.A @ x).coef_lin, T)
        Ua = AffinePolyVector(x.coef0, -(J @ x).coef_lin, T)
        _, self.u0_lin = U0.at_start()
        self.u0_lin.setflags(write=False)
        self.U = -p.L * np.hstack([np.zeros((2, 1)), model.A, J,
                                   [[0.0], [-1.0]]])

        state_only = ~spec.G_u.any(axis=1)
        rows = [(k, j) for k in range(spec.n_rows) for j in range(y.degree + 1)]
        keep = [i for i, (k, j) in enumerate(rows)
                if not (state_only[k] and j == 0)]

        def bernstein_rows(x_poly, u_poly):
            poly = constraint_polynomials(x_poly, u_poly, spec)
            return _bernstein_rows(poly)[0][keep]

        G0 = bernstein_rows(x, U0)
        Ga = bernstein_rows(
            AffinePolyVector(x.coef0, np.zeros_like(x.coef_lin), T), Ua)
        current = np.flatnonzero(spec.G_x.any(axis=1))
        G_land = spec.G_x[current]
        n_poly, n_free = G0.shape
        theta = np.zeros((n_poly + current.size, n_free, 4))
        theta[:n_poly, :, 0], theta[:n_poly, :, 1] = G0, Ga
        theta[n_poly:, :, 2] = G_land @ self.u0_lin
        theta[n_poly:, :, 3] = G_land @ J @ self.u0_lin
        self.Theta = theta.reshape(-1, 4)
        self.rows_shape = theta.shape[:2]
        self.n_poly = n_poly

        # Each constraint's value at t = 0 and a landing row's at x0, as
        # maps of phi.
        at_x0 = np.hstack([spec.g0[:, None], spec.G_x,
                           np.zeros((spec.n_rows, 3))])
        at_zero = at_x0 + spec.G_u @ self.U
        self.C = np.vstack([at_zero[[rows[i][0] for i in keep]],
                            at_x0[current]])
        self.tags = (tuple(rows[i] for i in keep)
                     + tuple((int(k), -1) for k in current))

    def landing_backoff(self, omega):
        """The class docstring's bound on ||e(dt)|| for a step at omega."""
        return self.drift * (self.tau_max + self.b * abs(omega))

    def plan(self, x0, omega, tau_star):
        """The least-distance problem at one instant and the applied input
        u(0) = u0 + u0_lin @ alpha as the pair (u0, u0_lin).

        Raises NonFinite for non-finite inputs, DimensionMismatch when Q is
        not positive semidefinite at this speed or a constraint row is not
        finite, NotPositiveDefinite when a diagonal weight of Q is zero or
        the conditioned cost fails its Cholesky certificate.
        """
        x0 = np.asarray(x0, dtype=float)
        if not (np.isfinite(x0).all() and math.isfinite(omega)
                and math.isfinite(tau_star)):
            raise NonFinite("planner inputs are not finite")
        p = self.p
        q_diag, x_ref, x_star = _cost_weights(p, self.q, omega, tau_star)
        _require_psd("Q", q_diag)

        # Each entry of K is one weight times one Gram entry, as in
        # _quad_block's einsum.
        K = q_diag[0] * self.K_d + q_diag[1] * self.K_q + self.K_P
        k, k0 = _linear_terms(self.Ws, self.x.constant(x0 - x_ref),
                              self.x.coef_lin, self.Wcl, np.diag(q_diag))
        # The terminal term of condition_cost.  P is diagonal and each
        # column of sTl, the linear part of x(T), is nonzero on one axis,
        # so each entry of sP @ sTl is one product, as in condition_cost's
        # einsum.
        sT0 = x0 - x_star
        sP = sT0 @ self.P
        k += 2.0 * (sP @ self.sTl)
        k0 += float(sP @ sT0)

        a = p.n_p * float(omega)
        i_d, i_q = x0.tolist()
        phi = np.array([1.0, i_d, i_q, a * i_d, a * i_q, a * p.K / p.L])
        h = -(self.C @ phi)
        h[self.n_poly:] -= self.landing_backoff(omega)
        c, s = _discretize(p, omega, self.dt)
        G = (self.Theta @ np.array([1.0, p.L * a, c, s])).reshape(
            self.rows_shape)
        _require_finite_rows(G, h)
        return (_least_distance(K, k, k0, G, h, self.tags),
                (self.U @ phi, self.u0_lin))


def run_closed_loop(scenario: Scenario, solver_kind="qp",
                    params: PmsmParams = None):
    """Simulate the cascaded speed / predictive-torque control loop.

    The planning problem's structure is built and validated once, before
    the first step, so invalid machine or scenario data raises even when
    the run has no steps.  At every sampling instant the measured state
    re-seeds the planner: update the speed-dependent model, cost and
    constraint numbers, solve, apply u(0) for one step of the nonlinear
    plant.  Each solve is warm-started from the previous optimal step: the
    QP from its active rows, the LP from its basis.  Infeasible or
    non-optimal solves fall back to the previously applied voltage and are
    flagged in the trace; the run never aborts on a solver failure.

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
            result = solve_lp(ldp, warm_start=warm)
        if result.status == "optimal":
            u = u0 + u0_lin @ result.alpha
            warm = result.active_rows if solver_kind == "qp" else result.basis
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
