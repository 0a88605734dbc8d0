"""Plan a constrained deceleration move for a double integrator.

The state is (position, velocity), the input is acceleration.  We ask for
a degree-7 polynomial that steers (1, 0) toward the origin over one
second with |u| <= 0.6, and compare the exact quadratic solve against the
L1 vertex solve.  The bound is certified through the Bernstein
coefficients of the input polynomial, so it holds on the whole horizon;
the final line checks that on a fine grid.
"""

import numpy as np

from flatpoly import (
    LinearConstraintSpec,
    LtiSystem,
    QuadraticCostSpec,
    condition_constraints,
    condition_cost,
    flat_transform,
    least_distance_transform,
    parameterize_outputs,
    parameterize_states_inputs,
    solve_lp,
    solve_qp,
    suboptimality_report,
)

N = 7
T = 1.0

system = LtiSystem(A=[[0.0, 1.0], [0.0, 0.0]], B=[[0.0], [1.0]])
fm = flat_transform(system)
print(f"chain lengths: {list(fm.r)} (n = {system.n}, m = {system.m})")

basis, y = parameterize_outputs(fm, [1.0, 0.0], N, T)
x_poly, u_poly = parameterize_states_inputs(y, fm)
print(f"free parameters: {basis.n_free} of {system.m * (N + 1)} coefficients")

cost = QuadraticCostSpec(
    Q=np.eye(2), R=[[0.5]], P=5.0 * np.eye(2), x_star=[0.0, 0.0], T=T
)
pc = condition_cost(x_poly, u_poly, cost)

bounds = LinearConstraintSpec(
    G_x=np.zeros((2, 2)), G_u=[[1.0], [-1.0]], g0=[-0.6, -0.6]
)
acs = condition_constraints(x_poly, u_poly, bounds)
print(f"conditioned rows: {acs.n_rows} (2 bounds x {N + 1} Bernstein coefficients)")

ldp = least_distance_transform(pc, acs)
qp = solve_qp(ldp)
lp = solve_lp(ldp)
report = suboptimality_report(qp, lp, ldp)

print(f"qp: J = {qp.quadratic_cost:.6f}, iterations = {qp.iterations}, "
      f"active rows = {list(qp.active_rows)}")
print(f"lp: J = {lp.quadratic_cost:.6f}, iterations = {lp.iterations}")
print(f"lp-vs-qp bound: J_lp = {report.j_lp:.6f} <= {report.bound:.6f} "
      f"(holds: {report.holds})")

t = np.linspace(0.0, T, 9)
x = x_poly(qp.alpha, t)
u = u_poly(qp.alpha, t)
print("\n  t      pos      vel      u")
for k in range(t.size):
    print(f"  {t[k]:.3f}  {x[0, k]: .4f}  {x[1, k]: .4f}  {u[0, k]: .4f}")
peak = np.abs(u_poly(qp.alpha, np.linspace(0, T, 2001))).max()
print(f"\nterminal state: ({x[0, -1]:.4f}, {x[1, -1]:.4f})")
print(f"peak |u| on a fine grid: {peak:.4f} "
      f"({'inside' if peak <= 0.6 + 1e-9 else 'OVER'} the 0.6 bound)")
