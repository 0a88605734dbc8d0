"""Flatness parameterization of controllable LTI systems.

A controllable pair (A, B) can be brought to controller canonical form by a
state transform built from the controllability matrix.  The m flat outputs
y_f = C_f x and their derivatives up to the per-chain relative degrees r_i
then reconstruct every state and input algebraically, which is the property
the rest of the package builds on: trajectories are planned in y_f and mapped
back through the transform.

The system type carries an optional constant drift term d, so the dynamics
are x' = A x + B u + d.  The drift threads through the chain construction as
constant offsets and keeps the parameterization exact.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, UncontrollableSystem

__all__ = [
    "LtiSystem",
    "FlatMap",
    "QuadraticCostSpec",
    "LinearConstraintSpec",
    "controllability_matrix",
    "brunovsky_indices",
    "flat_transform",
]

# Relative singular-value threshold used for every rank decision in here.
RANK_RTOL = 1e-9


def _as_matrix(x, name, shape=None):
    a = np.atleast_2d(np.asarray(x, dtype=float))
    if shape is not None and a.shape != shape:
        raise DimensionMismatch(f"{name} has shape {a.shape}, expected {shape}")
    if not np.all(np.isfinite(a)):
        raise DimensionMismatch(f"{name} contains non-finite entries")
    return a


@dataclass(frozen=True)
class LtiSystem:
    """Linear time-invariant dynamics x' = A x + B u + d.

    Parameters
    ----------
    A : (n, n) array_like
        State matrix.
    B : (n, m) array_like
        Input matrix, m <= n.
    d : (n,) array_like, optional
        Constant drift, defaults to zero.

    Controllability is evaluated at construction and exposed through the
    ``controllable`` attribute; operations that require it raise
    UncontrollableSystem themselves so that rank-deficient systems can still
    be inspected.
    """

    A: np.ndarray
    B: np.ndarray
    d: np.ndarray = None
    n: int = field(init=False)
    m: int = field(init=False)
    controllable: bool = field(init=False)
    # The controllability matrix's rank and singular values, which
    # brunovsky_indices reuses rather than recomputing the SVD.
    _controllability: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        A = _as_matrix(self.A, "A")
        n = A.shape[0]
        if A.shape != (n, n):
            raise DimensionMismatch(f"A must be square, got {A.shape}")
        B = np.asarray(self.B, dtype=float)
        if B.ndim == 1:
            B = B[:, None]
        B = _as_matrix(B, "B", (n, B.shape[1]))
        m = B.shape[1]
        if not (1 <= m <= n):
            raise DimensionMismatch(f"need 1 <= m <= n, got m={m}, n={n}")
        d = np.zeros(n) if self.d is None else np.asarray(self.d, dtype=float)
        if d.shape != (n,):
            raise DimensionMismatch(f"d has shape {d.shape}, expected ({n},)")
        if not np.all(np.isfinite(d)):
            raise DimensionMismatch("d contains non-finite entries")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", m)
        _, rank, sv = controllability_matrix_raw(A, B)
        object.__setattr__(self, "controllable", rank == n)
        object.__setattr__(self, "_controllability", (rank, sv))


def controllability_matrix_raw(A, B):
    """[B, AB, ..., A^(n-1) B], its numerical rank and its singular values
    (largest first) for raw arrays."""
    n = A.shape[0]
    blocks = [B]
    for _ in range(n - 1):
        blocks.append(A @ blocks[-1])
    C = np.hstack(blocks)
    sv = np.linalg.svd(C, compute_uv=False)
    rank = int(np.sum(sv > RANK_RTOL * sv[0])) if sv[0] > 0 else 0
    return C, rank, sv


def controllability_matrix(sys: LtiSystem):
    """Controllability matrix of ``sys`` and its numerical rank.

    Returns
    -------
    C : (n, n*m) ndarray
        [B, AB, ..., A^(n-1) B].
    rank : int
        Number of singular values above ``RANK_RTOL`` times the largest.
    """
    return controllability_matrix_raw(sys.A, sys.B)[:2]


def _greedy_chain_selection(A, B, rank, sv):
    """Greedy selection of independent columns in the order
    b1..bm, Ab1..Abm, A^2 b1..  Returns the per-input chain lengths.

    rank and sv are those of controllability_matrix_raw(A, B).
    """
    n, m = B.shape
    if rank < n:
        raise UncontrollableSystem(
            f"controllability matrix has rank {rank} < n = {n}"
        )
    thresh = RANK_RTOL * sv[0]

    basis = np.zeros((n, 0))
    r = [0] * m
    cols = [B[:, j].copy() for j in range(m)]
    total = 0
    for power in range(n):
        if total == n:
            break
        for j in range(m):
            # Once A^k b_j fails the independence test, all higher powers of
            # the same column are dependent as well and are skipped.
            if r[j] < power:
                continue
            v = cols[j]
            resid = v - basis @ (basis.T @ v) if basis.shape[1] else v.copy()
            if basis.shape[1]:
                resid -= basis @ (basis.T @ resid)  # re-orthogonalize once
            norm = np.linalg.norm(resid)
            if norm > thresh:
                basis = np.hstack([basis, (resid / norm)[:, None]])
                r[j] += 1
                total += 1
                if total == n:
                    break
        cols = [A @ c for c in cols]
    if total < n:
        raise UncontrollableSystem("chain selection stalled before rank n")
    return r


def brunovsky_indices(sys: LtiSystem):
    """Controllability (Brunovsky) indices r_i of the system.

    The indices are the chain lengths of the controller canonical form,
    obtained by scanning b1..bm, A b1..A bm, ... and keeping each column
    that is independent of everything kept before it.  They sum to n and
    are invariant under nonzero rescaling of the input columns.

    Raises
    ------
    UncontrollableSystem
        If rank [B, AB, ...] < n, or some input contributes no chain.
    """
    r = _greedy_chain_selection(sys.A, sys.B, *sys._controllability)
    if any(ri == 0 for ri in r):
        bad = [i for i, ri in enumerate(r) if ri == 0]
        raise UncontrollableSystem(
            f"input column(s) {bad} are linearly dependent on the others; "
            "every input needs its own chain"
        )
    return list(r)


@dataclass(frozen=True)
class FlatMap:
    """Flatness transform of a controllable LTI system.

    The chain vector z stacks (y_i, y_i', ..., y_i^(r_i - 1)) for each flat
    output i.  States and inputs are affine in z and in the top derivatives
    v_i = y_i^(r_i):

        x = Xi_x @ z + x_off
        u = Xi_u_z @ z + Xi_u_dz @ v + u_off
        z = T_z @ x + z_off

    Attributes
    ----------
    C_f : (m, n) ndarray
        Flat output matrix, y_f = C_f x.
    r : tuple of int
        Per-output relative degrees, sum(r) = n.
    T_z, Xi_x : (n, n) ndarrays
        Chain transform and its inverse.
    """

    C_f: np.ndarray
    r: tuple
    T_z: np.ndarray
    Xi_x: np.ndarray
    x_off: np.ndarray
    Xi_u_z: np.ndarray
    Xi_u_dz: np.ndarray
    u_off: np.ndarray

    @property
    def n(self):
        return self.T_z.shape[0]

    @property
    def m(self):
        return self.C_f.shape[0]

    def state_to_chain(self, x):
        """Map a state to the chain vector z."""
        return self.T_z @ (np.asarray(x, dtype=float) - self.x_off)

    def chain_to_state(self, z):
        """Map a chain vector z back to the state."""
        return self.Xi_x @ np.asarray(z, dtype=float) + self.x_off

    def input_from_chain(self, z, v):
        """Reconstruct the input from z and the top derivatives v."""
        return self.Xi_u_z @ np.asarray(z, float) + self.Xi_u_dz @ np.asarray(v, float) + self.u_off


def flat_transform(sys: LtiSystem) -> FlatMap:
    """Construct the flatness parameterization of a controllable system.

    The rows q_i spanning the flat outputs come from the inverse of the
    chain-ordered controllability columns [b1, Ab1, ..., b2, ...]; row
    sigma_i = r_1 + ... + r_i of that inverse annihilates every selected
    column except A^(r_i-1) b_i, which gives the defining property
    q_i A^k B = 0 for k < r_i - 1.  Each q_i is normalized to unit length
    with a positive leading entry, which fixes the (otherwise arbitrary)
    flat output scaling deterministically.

    The constant drift d adds the offsets z_off, x_off, u_off; for d = 0
    all offsets vanish.
    """
    A, B, d = sys.A, sys.B, sys.d
    n, m = sys.n, sys.m
    r = brunovsky_indices(sys)

    cols = []
    for j in range(m):
        v = B[:, j]
        for _ in range(r[j]):
            cols.append(v)
            v = A @ v
    L = np.stack(cols, axis=1)
    Linv = np.linalg.inv(L)
    sigma = np.cumsum(r)

    q = []
    for i in range(m):
        qi = Linv[sigma[i] - 1]
        norm = np.linalg.norm(qi)
        lead = qi[np.flatnonzero(np.abs(qi) > 1e-12 * norm)[0]]
        q.append(qi / (norm if lead >= 0 else -norm))

    # Chain transform rows q_i A^k and the drift offsets q_i A^(k-1) d.
    Tz_rows, z_off = [], []
    for i in range(m):
        row = q[i]
        for k in range(r[i]):
            Tz_rows.append(row)
            z_off.append(0.0 if k == 0 else prev_row @ d)
            prev_row = row
            row = row @ A
    T_z = np.stack(Tz_rows)
    z_off = np.array(z_off)
    Xi_x = np.linalg.inv(T_z)
    x_off = -Xi_x @ z_off

    # Top-derivative relation v = Phi x + D u + e.
    Phi = np.stack([q[i] @ np.linalg.matrix_power(A, r[i]) for i in range(m)])
    D = np.stack([q[i] @ np.linalg.matrix_power(A, r[i] - 1) @ B for i in range(m)])
    e = np.array([q[i] @ np.linalg.matrix_power(A, r[i] - 1) @ d for i in range(m)])
    try:
        Dinv = np.linalg.inv(D)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - theory says no
        raise UncontrollableSystem(f"decoupling matrix is singular: {exc}") from exc

    Xi_u_dz = Dinv
    Xi_u_z = -Dinv @ Phi @ Xi_x
    u_off = -Dinv @ (Phi @ x_off + e)

    return FlatMap(
        C_f=np.stack(q),
        r=tuple(r),
        T_z=T_z,
        Xi_x=Xi_x,
        x_off=x_off,
        Xi_u_z=Xi_u_z,
        Xi_u_dz=Xi_u_dz,
        u_off=u_off,
    )


def _check_weight(name, M, size):
    M = _as_matrix(M, name, (size, size))
    # np.allclose(M, M.T, atol=...) written out; _as_matrix has already
    # rejected the non-finite entries that allclose treats specially.
    absM = np.abs(M)
    atol = 1e-10 * (1 + absM.max())
    if not (np.abs(M - M.T) <= atol + 1e-5 * absM.T).all():
        raise DimensionMismatch(f"{name} must be symmetric")
    return 0.5 * (M + M.T)


def _require_psd(name, eigenvalues):
    """Raise DimensionMismatch unless no eigenvalue of the weight `name` is
    negative beyond a relative 1e-9."""
    w = np.asarray(eigenvalues)
    if w.min() < -1e-9 * max(1.0, abs(w).max()):
        raise DimensionMismatch(f"{name} is not positive semidefinite")


@dataclass(frozen=True)
class QuadraticCostSpec:
    """Quadratic trajectory cost over a horizon [0, T].

    J = integral of (x - x_ref)' Q (x - x_ref) + u' R u dt
        + (x(T) - x_star)' P (x(T) - x_star)

    Q, R, P must be symmetric positive semidefinite; definiteness of the
    conditioned problem is certified later on the assembled Hessian, so a
    zero R (as in the motor loss cost) is fine.  x_ref defaults to x_star.
    """

    Q: np.ndarray
    R: np.ndarray
    P: np.ndarray
    x_star: np.ndarray
    T: float
    x_ref: np.ndarray = None

    def __post_init__(self):
        n = np.atleast_2d(np.asarray(self.Q)).shape[0]
        m = np.atleast_2d(np.asarray(self.R)).shape[0]
        Q = _check_weight("Q", self.Q, n)
        R = _check_weight("R", self.R, m)
        P = _check_weight("P", self.P, n)
        for name, M in (("Q", Q), ("R", R), ("P", P)):
            _require_psd(name, np.linalg.eigvalsh(M))
        x_star = np.asarray(self.x_star, dtype=float).reshape(n)
        x_ref = x_star if self.x_ref is None else np.asarray(self.x_ref, float).reshape(n)
        if not self.T > 0:
            raise DimensionMismatch(f"horizon T must be positive, got {self.T}")
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "P", P)
        object.__setattr__(self, "x_star", x_star)
        object.__setattr__(self, "x_ref", x_ref)
        object.__setattr__(self, "T", float(self.T))

    @property
    def n(self):
        return self.Q.shape[0]

    @property
    def m(self):
        return self.R.shape[0]


@dataclass(frozen=True)
class LinearConstraintSpec:
    """Pointwise-in-time constraints G_x x(t) + G_u u(t) + g0 <= 0.

    Rows with zero G_x, zero G_u and g0 <= 0 hold trivially at all times;
    they are dropped with a warning.  Rows that are constant and positive
    are kept so that infeasibility surfaces in the solver.
    """

    G_x: np.ndarray
    G_u: np.ndarray
    g0: np.ndarray

    def __post_init__(self):
        G_x = np.atleast_2d(np.asarray(self.G_x, dtype=float))
        G_u = np.atleast_2d(np.asarray(self.G_u, dtype=float))
        g0 = np.atleast_1d(np.asarray(self.g0, dtype=float))
        rows = g0.shape[0]
        if G_x.shape[0] != rows or G_u.shape[0] != rows:
            raise DimensionMismatch(
                f"row mismatch: G_x {G_x.shape[0]}, G_u {G_u.shape[0]}, g0 {rows}"
            )
        vacuous = (
            (np.abs(G_x).max(axis=1) == 0)
            & (np.abs(G_u).max(axis=1) == 0)
            & (g0 <= 0)
        )
        if vacuous.any():
            warnings.warn(
                f"dropping {int(vacuous.sum())} vacuous constraint row(s)",
                stacklevel=2,
            )
            keep = ~vacuous
            G_x, G_u, g0 = G_x[keep], G_u[keep], g0[keep]
        object.__setattr__(self, "G_x", G_x)
        object.__setattr__(self, "G_u", G_u)
        object.__setattr__(self, "g0", g0)

    @property
    def n_rows(self):
        return self.g0.shape[0]
