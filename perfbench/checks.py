"""Output checks for the flatpoly benchmark.

The physical checks read only the generated inputs and the outputs flatpoly
wrote, and use numpy alone:

* plan_solve: on the written CSV, x(0) equals the initial state, every
  column is a degree-N polynomial, the dynamics residual x' - (A x + B u + d)
  is small, and the quadrature cost of the trajectory equals the reported
  QP cost; in the JSON, both solves are optimal, J_lp >= J_qp and the
  suboptimality bound holds.
* pmsm_*: every applied sample lies in the machine's true current/voltage
  polytope, no step fell back, and the speed is within 2% of its setpoint
  just before each load step.

The reported `alpha` vectors are coordinates in flatpoly's own
parameterization, so they are checked by decoding them with flatpoly's
public functions (flat_transform, parameterize_outputs,
parameterize_states_inputs): the QP trajectory must reproduce the CSV,
which the checks above verify independently, and the LP trajectory's
quadrature cost must equal the reported LP cost.
"""

from __future__ import annotations

import math

import numpy as np

#: x(0) against initial_state, relative to max(1, |x0|).
X0_TOL = 1e-8
#: CSV samples against their degree-N polynomial fit, and the decoded
#: trajectory against the CSV, relative to each column's largest value.
FIT_TOL = 1e-7
#: Dynamics residual, relative to the largest term of x' = A x + B u + d.
DYNAMICS_TOL = 1e-5
#: Quadrature cost against the reported cost, relative to max(1, |J|).
COST_TOL = 1e-6
#: A constraint row counts as broken above this share of max(1, |g0_k|).
SOUND_TOL = 1e-6
#: Applied pmsm samples: absolute polytope tolerance (A and V).
POLYTOPE_TOL = 1e-6
#: Speed band before each load step, as a share of the setpoint.
SPEED_BAND = 0.02

_GL_S, _GL_W = np.polynomial.legendre.leggauss(40)


# ---------------------------------------------------------------- plan_solve

def parse_csv(text):
    """(header, rows) of a solve trajectory CSV."""
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    return header, rows


def _fit(t, Y, N, T):
    """Chebyshev fits of degree N in s = 2 t / T - 1, one per column."""
    s = 2.0 * t / T - 1.0
    return [np.polynomial.Chebyshev.fit(s, Y[:, j], N, domain=[-1, 1])
            for j in range(Y.shape[1])]


def _eval(polys, s):
    return np.array([p(s) for p in polys]).T


def trajectory_cost(model, x_at, u_at):
    """Gauss-Legendre quadrature of the model's cost.

    x_at(s), u_at(s) give the trajectory at s in [-1, 1] (t = T (s + 1) / 2)
    as arrays of shape (len(s), n) and (len(s), m).
    """
    c = model["cost"]
    T = float(c["T"])
    Q, R, P = (np.asarray(c[k], float) for k in ("Q", "R", "P"))
    x_star = np.asarray(c["x_star"], float)
    x_ref = x_star if c.get("x_ref") is None else np.asarray(c["x_ref"], float)
    ex = x_at(_GL_S) - x_ref
    u = u_at(_GL_S)
    integrand = (np.einsum("ka,ab,kb->k", ex, Q, ex)
                 + np.einsum("ka,ab,kb->k", u, R, u))
    eT = x_at(np.array([1.0]))[0] - x_star
    return float(0.5 * T * (_GL_W @ integrand) + eT @ P @ eT)


def _rel_gap(a, b):
    return abs(a - b) / max(1.0, abs(a), abs(b))


def check_solution(model, sol, header, rows, decode=None):
    """Problems found in one successful `solve --solver both` output.

    decode(alpha) -> (x_at, u_at) is the alpha decoder; when given, the
    reported parameters are checked against the trajectory too.
    """
    problems = []
    qp, lp = sol.get("qp", {}), sol.get("lp", {})
    if qp.get("status") != "optimal" or lp.get("status") != "optimal":
        problems.append("status: exit 0 without two optimal solves")
        return problems
    sub = sol.get("suboptimality")
    if not sub or sub.get("holds") is not True:
        problems.append("suboptimality: bound missing or not holding")
    j_qp, j_lp = float(qp["quadratic_cost"]), float(lp["quadratic_cost"])
    if j_lp < j_qp - COST_TOL * max(1.0, abs(j_qp)):
        problems.append(f"lp_cost: J_lp {j_lp:.10g} below J_qp {j_qp:.10g}")

    A = np.asarray(model["system"]["A"], float)
    B = np.asarray(model["system"]["B"], float)
    d = np.asarray(model["system"].get("d") or np.zeros(len(A)), float)
    n, m = B.shape
    N = int(model["basis"]["N"])
    T = float(model["cost"]["T"])
    x0 = np.asarray(model["initial_state"], float)
    width = 1 + n + m
    if len(header) != width or rows.ndim != 2 or rows.shape[1] != width:
        problems.append(f"csv: shape {rows.shape} vs n={n}, m={m}")
        return problems
    t, X, U = rows[:, 0], rows[:, 1:1 + n], rows[:, 1 + n:]
    if abs(t[0]) > 0 or _rel_gap(t[-1], T) > 1e-9:
        problems.append("csv: time grid does not span [0, T]")
    if np.abs(X[0] - x0).max() > X0_TOL * max(1.0, np.abs(x0).max()):
        problems.append("x0: x(0) differs from initial_state")

    xs, us = _fit(t, X, N, T), _fit(t, U, N, T)
    s = 2.0 * t / T - 1.0
    for name, Y, polys in (("x", X, xs), ("u", U, us)):
        scale = np.maximum(1e-300, np.abs(Y).max(axis=0))
        misfit = (np.abs(_eval(polys, s) - Y).max(axis=0) / scale).max()
        if misfit > FIT_TOL:
            problems.append(f"degree: {name} is not a degree-{N} polynomial "
                            f"(misfit {misfit:.2e})")
    Xf, Uf = _eval(xs, s), _eval(us, s)
    dX = _eval([p.deriv() for p in xs], s) * (2.0 / T)
    terms = [dX, Xf @ A.T, Uf @ B.T, np.broadcast_to(d, Xf.shape)]
    scale = max(1e-300, max(np.abs(v).max() for v in terms))
    resid = np.abs(dX - terms[1] - terms[2] - d).max() / scale
    if resid > DYNAMICS_TOL:
        problems.append(f"dynamics: residual {resid:.2e}")

    def fitted(s_):
        return _eval(xs, s_), _eval(us, s_)

    j_csv = trajectory_cost(model, lambda s_: fitted(s_)[0],
                            lambda s_: fitted(s_)[1])
    if _rel_gap(j_csv, j_qp) > COST_TOL:
        problems.append(f"qp_cost: quadrature {j_csv:.10g} vs reported "
                        f"{j_qp:.10g}")

    if decode is not None:
        x_at, u_at = decode(qp["alpha"])
        for name, Y, at in (("x", X, x_at), ("u", U, u_at)):
            scale = np.maximum(1e-300, np.abs(Y).max(axis=0))
            gap = (np.abs(at(s) - Y).max(axis=0) / scale).max()
            if gap > FIT_TOL:
                problems.append(f"qp_alpha: does not reproduce csv {name} "
                                f"(gap {gap:.2e})")
        j_dec = trajectory_cost(model, *decode(lp["alpha"]))
        if _rel_gap(j_dec, j_lp) > COST_TOL:
            problems.append(f"lp_alpha: quadrature {j_dec:.10g} vs reported "
                            f"{j_lp:.10g}")
    return problems


def unsound(model, rows):
    """True when a CSV sample breaks a constraint row of the model."""
    con = model.get("constraints")
    if not con:
        return False
    n = len(model["initial_state"])
    G_x = np.asarray(con["G_x"], float)
    G_u = np.asarray(con["G_u"], float)
    g0 = np.asarray(con["g0"], float)
    vals = rows[:, 1:1 + n] @ G_x.T + rows[:, 1 + n:] @ G_u.T + g0
    limit = SOUND_TOL * np.maximum(1.0, np.abs(g0))
    return bool((vals.max(axis=0) > limit).any())


def plan_outcome(model, code, sol, csv_text, decode=None):
    """Classify one solve op.

    Returns (kind, detail, is_unsound) where kind is 'solved', 'infeasible'
    (both solvers agree there is no solution) or 'failed'; a failure's
    detail starts with a short label and a colon.  is_unsound is None
    unless the op was solved.
    """
    if code == 3:
        return "failed", "not_convex: exit 3 on a convex instance", None
    if code not in (0, 1):
        return "failed", f"exit_{code}: unexpected exit code", None
    statuses = {k: sol.get(k, {}).get("status") for k in ("qp", "lp")}
    if code == 1:
        if "iteration_limit" in statuses.values():
            return "failed", f"iteration_limit: {statuses}", None
        if set(statuses.values()) == {"infeasible"}:
            return "infeasible", "", None
        return "failed", f"disagree: feasibility {statuses}", None
    header, rows = parse_csv(csv_text)
    problems = check_solution(model, sol, header, rows, decode)
    if problems:
        return "failed", "; ".join(problems), None
    return "solved", "", unsound(model, rows)


def flatpoly_decoder(model):
    """alpha -> (x_at, u_at) through flatpoly's public parameterization."""
    from flatpoly.cli import ModelConfig
    from flatpoly.flat import flat_transform
    from flatpoly.polybasis import (parameterize_outputs,
                                    parameterize_states_inputs)

    cfg = ModelConfig.from_dict(model)
    fm = flat_transform(cfg.system)
    _, y = parameterize_outputs(fm, cfg.x0, cfg.degree, cfg.cost.T)
    x_poly, u_poly = parameterize_states_inputs(y, fm)
    T = cfg.cost.T

    def decode(alpha):
        a = np.asarray(alpha, float)
        return (lambda s: x_poly(a, T * (s + 1.0) / 2.0).T,
                lambda s: u_poly(a, T * (s + 1.0) / 2.0).T)

    return decode


# ---------------------------------------------------------------- pmsm_*

def pmsm_polytope(machine):
    """True polytope rows G [i_d, i_q, v_d, v_q] + g0 <= 0 of the machine.

    The inscribed hexagon of the current circle (i_d <= 0 side) and of the
    voltage circle, from the rated amplitude limits.
    """
    s3 = math.sqrt(3.0) / 2.0
    I, V = float(machine["I_max"]), float(machine["V_max"])
    G = np.array([
        [1, 0, 0, 0], [-1, 0, 0, 0], [0, 1, 0, 0], [0, -1, 0, 0],
        [0, 0, 1, 0], [0, 0, -1, 0], [0, 0, 0, 1], [0, 0, 0, -1],
    ], dtype=float)
    g0 = np.array([0.0, -I / 2, -s3 * I, -s3 * I,
                   -V / 2, -V / 2, -s3 * V, -s3 * V])
    return G, g0


def _schedule_value(schedule, t):
    value = schedule[0][1]
    for t_k, v_k in schedule:
        if t >= t_k - 1e-12:
            value = v_k
    return value


def check_pmsm(rows, scenario, machine):
    """Check one closed-loop trace.

    rows: [t, i_d, i_q, v_d, v_q, omega, tau, tau_ref, J, iters, status].
    Returns (step_problems, loop_problems, torque_rms_err): step_problems
    holds one list per step, each entry starting with 'fallback:' or
    'polytope:'; loop_problems holds the run-level findings.
    """
    G, g0 = pmsm_polytope(machine)
    step_problems = []
    for r in rows:
        found = []
        if r[10] != "optimal":
            found.append(f"fallback: step status {r[10]}")
        worst = float((G @ np.asarray(r[1:5], float) + g0).max())
        if worst > POLYTOPE_TOL:
            found.append(f"polytope: applied sample outside by {worst:.2e}")
        step_problems.append(found)

    loop_problems = []
    speeds = scenario["speed_setpoints"]
    times = np.array([r[0] for r in rows])
    for t_load, _ in scenario["load_torque"][1:]:
        before = np.flatnonzero(times < t_load - 1e-12)
        if before.size == 0 or times[-1] < t_load - 1e-12:
            continue  # the trace does not reach this load step
        row = rows[before[-1]]
        target = _schedule_value(speeds, row[0])
        if abs(row[5] - target) > SPEED_BAND * abs(target):
            loop_problems.append(
                f"speed {row[5]:.3f} not within {SPEED_BAND:.0%} of "
                f"{target} before the load step at {t_load}")
    err = np.array([r[6] - r[7] for r in rows])
    rms = float(np.sqrt(np.mean(err**2))) if err.size else float("nan")
    return step_problems, loop_problems, rms
