"""Seeded input generator for the flatpoly benchmark.

Uses numpy only and never imports flatpoly, so two commits under comparison
receive byte-identical inputs for the same seed.

Run ``python3 perfbench/gen.py --workload plan_solve --seed 3`` to print the
digest of the generated inputs and, for ``plan_solve``, the share of
instances by degree and by scale slice.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
from collections import Counter

import numpy as np

WORKLOADS = ("pmsm_qp", "pmsm_lp", "plan_solve")

#: Degrees accepted by flatpoly's basis; every one of them is generated.
DEGREES = tuple(range(2, 16))

#: plan_solve instances per degree, and how many of them have a huge
#: initial state (up to 1e7) and how many a huge state weight (Q11 up to
#: 1e12): the large-scale slice, a twelfth of the instances.
PER_DEGREE = 144
LARGE_PER_DEGREE = 6

#: Degree of the base instance that goes first, so that the warm-up op,
#: which setup_s includes, costs about the same on every seed (the first
#: use of a degree computes its Delta(N)).
WARMUP_DEGREE = 8

#: The closed-loop workloads run the stock experiment, 0 -> 420 rad/s with
#: an 8 N.m load step at 0.07 s, on every seed.  Perturbing it does not
#: keep the work steady: a setpoint of 411..420 rad/s or a load of 7.6..8 N.m
#: moves the 95th percentile of simplex iterations per step between 21 and
#: 27, so the gated p95 would follow the seed instead of the program.
STOCK_SCENARIO = {
    "dt": 1e-4,
    "duration": 0.12,
    "speed_setpoints": [[0.0, 420.0]],
    "load_torque": [[0.0, 0.0], [0.07, 8.0]],
}

#: Machine data of the stock experiment (flatpoly's PmsmParams defaults),
#: passed explicitly so the output checks use the same numbers.
MACHINE = {"R": 0.86, "L": 6e-3, "n_p": 3, "K": 0.236, "R_m": 1800.0,
           "I_max": 10.0, "V_max": 330.0, "rated_speed": 314.0,
           "rated_torque": 8.0}


def _rng(workload, seed):
    # Each workload draws from its own stream of the same seed.
    return np.random.default_rng([int(seed), WORKLOADS.index(workload)])


def _controllable(A, B):
    n = A.shape[0]
    blocks = [B]
    for _ in range(n - 1):
        blocks.append(A @ blocks[-1])
    s = np.linalg.svd(np.hstack(blocks), compute_uv=False)
    return s[-1] > 1e-6 * s[0] if s.size >= n else False


def _lq_input_peak(A, B, d, Q, R, P, x0, x_star, T, steps=50):
    """Peak |u_j| and |x_i| of an Euler-discretized unconstrained LQ plan.

    A numpy-only proxy of the optimum's input size, used to place bounds
    that cut into it.  U is the stacked input sequence; every state is
    affine in U, so the cost is a dense least-squares problem.
    """
    n, m = B.shape
    h = T / steps
    Ad = np.eye(n) + h * A
    Bd = h * B
    dd = h * d
    # x_k = c_k + L_k U
    c = np.zeros((steps + 1, n))
    L = np.zeros((steps + 1, n, steps * m))
    c[0] = x0
    for k in range(steps):
        c[k + 1] = Ad @ c[k] + dd
        L[k + 1] = Ad @ L[k]
        L[k + 1][:, k * m:(k + 1) * m] += Bd
    sq = np.linalg.cholesky(h * Q + 1e-12 * np.eye(n)).T
    sr = np.linalg.cholesky(h * R).T
    sp = np.linalg.cholesky(P + 1e-12 * np.eye(n)).T
    rows = [np.einsum("ab,kbu->kau", sq, L[:steps]).reshape(-1, steps * m),
            np.kron(np.eye(steps), sr),
            sp @ L[steps]]
    rhs = [-(c[:steps] - x_star) @ sq.T, np.zeros((steps, m)),
           -sp @ (c[steps] - x_star)]
    M = np.vstack(rows)
    b = np.concatenate([r.ravel() for r in rhs])
    U = np.linalg.solve(M.T @ M, M.T @ b).reshape(steps, m)
    X = c + L @ U.ravel()
    return np.abs(U).max(axis=0), np.abs(X).max(axis=0)


def _plan_instance(rng, N, scale):
    n = int(rng.integers(2, min(4, N) + 1))
    m = int(rng.integers(1, min(2, n) + 1))
    while True:
        A = rng.standard_normal((n, n))
        B = rng.standard_normal((n, m))
        if _controllable(A, B):
            break
    d = rng.standard_normal(n)
    T = float(rng.uniform(0.5, 2.0))
    x0 = rng.standard_normal(n)
    x_star = rng.standard_normal(n)
    Mq = rng.standard_normal((n, n))
    Mr = rng.standard_normal((m, m))
    Q = Mq @ Mq.T + 0.1 * np.eye(n)
    R = Mr @ Mr.T + 0.1 * np.eye(m)
    P = 0.1 * np.eye(n)
    if scale == "large_x0":
        x0 = x0 * 10.0 ** rng.uniform(5.0, 7.0)
    elif scale == "large_q":
        Q[0, 0] = 10.0 ** rng.uniform(10.0, 12.0)
    u_peak, x_peak = _lq_input_peak(A, B, d, Q, R, P, x0, x_star, T)
    u_bound = 0.55 * np.maximum(u_peak, 0.1)
    G_x = np.zeros((2 * m, n))
    G_u = np.vstack([np.eye(m), -np.eye(m)])
    g0 = -np.r_[u_bound, u_bound]
    if rng.random() < 0.5:
        # Also bound the first state, never below where it starts.
        x_bound = max(1.05 * abs(x0[0]), 0.7 * x_peak[0])
        row = np.zeros((2, n))
        row[0, 0], row[1, 0] = 1.0, -1.0
        G_x = np.vstack([G_x, row])
        G_u = np.vstack([G_u, np.zeros((2, m))])
        g0 = np.r_[g0, -x_bound, -x_bound]
    return {
        "system": {"A": A.tolist(), "B": B.tolist(), "d": d.tolist()},
        "cost": {"Q": (0.5 * (Q + Q.T)).tolist(),
                 "R": (0.5 * (R + R.T)).tolist(),
                 "P": P.tolist(), "x_star": x_star.tolist(), "T": T},
        "constraints": {"G_x": G_x.tolist(), "G_u": G_u.tolist(),
                        "g0": g0.tolist()},
        "basis": {"N": int(N)},
        "initial_state": x0.tolist(),
    }


def plan_instances(seed):
    """List of (meta, model_doc) for plan_solve, in a seeded order.

    Every degree in DEGREES gets PER_DEGREE instances, so each seed has the
    same degree and slice mix; which instance lands where is seeded, except
    that a base instance of WARMUP_DEGREE comes first.
    """
    rng = _rng("plan_solve", seed)
    out = []
    for N in DEGREES:
        scales = (["base"] * (PER_DEGREE - 2 * LARGE_PER_DEGREE)
                  + ["large_x0", "large_q"] * LARGE_PER_DEGREE)
        for scale in scales:
            out.append(({"N": N, "slice": scale},
                        _plan_instance(rng, N, scale)))
    out = [out[i] for i in rng.permutation(len(out))]
    first = next(i for i, (meta, _) in enumerate(out)
                 if meta == {"N": WARMUP_DEGREE, "slice": "base"})
    return [out[first]] + out[:first] + out[first + 1:]


def generate(workload, seed):
    """All inputs of one workload run, as a JSON-serialisable document."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    if workload == "plan_solve":
        items = plan_instances(seed)
        return {"workload": workload, "seed": seed,
                "instances": [{"meta": meta, "model": model}
                              for meta, model in items]}
    return {"workload": workload, "seed": seed,
            "solver": workload.split("_")[1],
            "scenario": copy.deepcopy(STOCK_SCENARIO),
            "machine": dict(MACHINE)}


def digest(doc):
    """sha256 of the canonical JSON form of a generated document."""
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def summary(doc):
    """Human-readable digest and mix of a generated document."""
    lines = [f"inputs {doc['workload']} seed={doc['seed']} "
             f"sha256={digest(doc)}"]
    if doc["workload"] == "plan_solve":
        metas = [inst["meta"] for inst in doc["instances"]]
        total = len(metas)
        by_n = Counter(m["N"] for m in metas)
        by_slice = Counter(m["slice"] for m in metas)
        lines.append("  by degree: " + " ".join(
            f"N{k}={v / total:.3f}" for k, v in sorted(by_n.items())))
        lines.append("  by slice:  " + " ".join(
            f"{k}={v / total:.3f}" for k, v in sorted(by_slice.items())))
    else:
        lines.append(f"  scenario: {json.dumps(doc['scenario'])}")
    return "\n".join(lines)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)
    print(summary(generate(args.workload, args.seed)))


if __name__ == "__main__":
    main()
