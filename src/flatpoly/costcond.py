"""Exact conditioning of quadratic trajectory costs onto the free parameters.

Substituting the affine polynomial trajectories into

    J = int_0^T (x - x_ref)' Q (x - x_ref) + u' R u dt
        + (x(T) - x_star)' P (x(T) - x_star)

gives a quadratic J(alpha) = alpha' K alpha + k' alpha + k0.  Products of
polynomials integrate exactly through the monomial Gram matrix, so no
quadrature is involved; K is symmetrized and certified positive definite by
an explicit Cholesky factorization, whose factor F also drives the
least-distance change of variables f = F (alpha - alpha0).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DimensionMismatch, NotPositiveDefinite, SingularFactor
from .flat import QuadraticCostSpec
from .polybasis import AffinePolyVector

__all__ = [
    "ParameterizedCost",
    "LeastDistanceProblem",
    "gram_weights",
    "condition_cost",
    "assert_convexity",
    "unconstrained_optimum",
    "least_distance_transform",
    "quadratic_value",
]


def gram_weights(N, T):
    """Exact monomial Gram matrix over [0, T].

    Parameters
    ----------
    N : int
        Maximum power.
    T : float
        Upper integration limit, T > 0.

    Returns
    -------
    W : (N+1, N+1) ndarray
        W[i, j] = integral of t^i t^j dt from 0 to T = T^(i+j+1)/(i+j+1).
    """
    if N < 0 or not T > 0:
        raise DimensionMismatch(f"need N >= 0 and T > 0, got N={N}, T={T}")
    idx = np.arange(N + 1)
    s = idx[:, None] + idx[None, :] + 1
    return T**s / s


@dataclass(frozen=True)
class ParameterizedCost:
    """Quadratic cost in the free parameters: J(a) = a'Ka + k'a + k0."""

    K: np.ndarray
    k: np.ndarray
    k0: float

    def __post_init__(self):
        K = np.asarray(self.K, dtype=float)
        k = np.asarray(self.k, dtype=float).reshape(-1)
        if K.shape != (k.size, k.size):
            raise DimensionMismatch(f"K shape {K.shape} vs k length {k.size}")
        asym = np.abs(K - K.T).max()
        if asym > 1e-12 * max(1.0, np.abs(K).max()):
            raise DimensionMismatch(f"K is not symmetric (skew magnitude {asym:.3e})")
        object.__setattr__(self, "K", 0.5 * (K + K.T))
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "k0", float(self.k0))

    @property
    def n_free(self):
        return self.k.size


def quadratic_value(pc: ParameterizedCost, alpha):
    """Evaluate J(alpha) = alpha' K alpha + k' alpha + k0."""
    a = np.asarray(alpha, dtype=float)
    return float(a @ pc.K @ a + pc.k @ a + pc.k0)


def _quad_block(W, c0, cl, M):
    """Accumulate sum_ab M_ab * (c0_a + cl_a f)' W (c0_b + cl_b f).

    c0 : (q, N+1), cl : (q, N+1, n_free), W : (N+1, N+1), M : (q, q).
    Returns (K, k, k0) contributions.
    """
    Wc0 = np.einsum("ij,bj->bi", W, c0)
    Wcl = np.einsum("ij,bjp->bip", W, cl)
    K = np.einsum("ab,aip,biq->pq", M, cl, Wcl)
    k = np.einsum("ab,aip,bi->p", M, cl, Wc0) + np.einsum(
        "ab,ai,bip->p", M, c0, Wcl
    )
    k0 = np.einsum("ab,ai,bi->", M, c0, Wc0)
    return K, k, float(k0)


def condition_cost(x_poly: AffinePolyVector, u_poly: AffinePolyVector,
                   cost: QuadraticCostSpec) -> ParameterizedCost:
    """Condition the continuous quadratic cost onto the free parameters.

    The state/input polynomials are in the scaled basis (t/T)^j, for which
    the Gram integral is int_0^T s^i s^j dt = T/(i+j+1); the terminal term
    evaluates at s=1, i.e. plain coefficient sums.  Everything is closed
    form, so the result is exact up to floating point.

    Parameters
    ----------
    x_poly, u_poly : AffinePolyVector
        Trajectories from parameterize_states_inputs.
    cost : QuadraticCostSpec

    Returns
    -------
    ParameterizedCost
    """
    n, m = cost.n, cost.m
    if x_poly.q != n:
        raise DimensionMismatch(f"state rows {x_poly.q} vs Q dimension {n}")
    if u_poly.q != m:
        raise DimensionMismatch(f"input rows {u_poly.q} vs R dimension {m}")
    if x_poly.n_free != u_poly.n_free:
        raise DimensionMismatch("state/input polynomials disagree on n_free")
    if not np.isclose(x_poly.T, cost.T):
        raise DimensionMismatch(
            f"polynomial horizon {x_poly.T} vs cost horizon {cost.T}"
        )
    # Gram of the scaled basis: T * (unit-interval monomial Gram).
    Ws = cost.T * gram_weights(x_poly.degree, 1.0)
    K, k, k0 = _cost_terms(Ws, x_poly, u_poly, cost.Q, cost.R, cost.P,
                           cost.x_ref, cost.x_star)
    return ParameterizedCost(K=K, k=k, k0=k0)


def _cost_terms(Ws, x_poly, u_poly, Q, R, P, x_ref, x_star):
    """(K, k, k0) of the conditioned cost, without condition_cost's checks.

    Ws is the Gram matrix of the scaled basis, T * gram_weights(N, 1).  An
    all-zero R contributes nothing, so its block is skipped.
    """
    ex0 = x_poly.coef0.copy()
    ex0[:, 0] -= x_ref
    K, k, k0 = _quad_block(Ws, ex0, x_poly.coef_lin, Q)

    if R.any():
        Ku, ku, k0u = _quad_block(Ws, u_poly.coef0, u_poly.coef_lin, R)
        K, k, k0 = K + Ku, k + ku, k0 + k0u

    # Terminal term at s = 1: coefficient sums.
    sT0 = x_poly.coef0.sum(axis=1) - x_star
    sTl = x_poly.coef_lin.sum(axis=1)
    K += np.einsum("ab,ap,bq->pq", P, sTl, sTl)
    k += 2.0 * np.einsum("ab,a,bp->p", P, sT0, sTl)
    k0 += float(sT0 @ P @ sT0)

    return 0.5 * (K + K.T), k, k0


def assert_convexity(pc: ParameterizedCost):
    """Certify positive definiteness of K by Cholesky factorization.

    Returns
    -------
    F : (n_free, n_free) ndarray
        Upper-triangular factor with F' F = K.

    Raises
    ------
    NotPositiveDefinite
        With the 1-based index of the failing pivot.  Typically signals a
        degenerate weighting that leaves some parameter direction free.
    """
    K = pc.K
    if not np.all(np.isfinite(K)):
        raise NotPositiveDefinite("K contains non-finite entries")
    F, info = scipy.linalg.lapack.dpotrf(K, lower=0, overwrite_a=0)
    if info > 0:
        raise NotPositiveDefinite(
            f"K is not positive definite: leading minor of order {info} "
            "is not positive",
            pivot=int(info),
        )
    if info < 0:  # pragma: no cover - argument error
        raise NotPositiveDefinite(f"Cholesky failed with LAPACK info={info}")
    return np.triu(F)


def _solve_upper(F, b, trans=False):
    """F^{-1} b, or F^{-T} b when trans, for an upper-triangular F.

    The same LAPACK call that scipy.linalg.solve_triangular makes for a
    C-ordered F, with its finiteness check on b, but without its per-call
    wrapper, which costs several times the solve at these sizes.
    """
    if not np.isfinite(b).all():
        raise ValueError("array must not contain infs or NaNs")
    x, info = scipy.linalg.lapack.dtrtrs(F.T, b, lower=1, trans=0 if trans else 1)
    if info > 0:
        raise np.linalg.LinAlgError(
            f"singular matrix: resolution failed at diagonal {info - 1}")
    return x


def unconstrained_optimum(pc: ParameterizedCost, F=None):
    """Unconstrained minimizer alpha0 = -K^{-1} k / 2.

    Solves through the Cholesky factor (computed here when not supplied),
    so the gradient 2 K alpha0 + k vanishes to factorization accuracy.
    """
    if F is None:
        F = assert_convexity(pc)
    y = _solve_upper(F, -0.5 * pc.k, trans=True)
    return _solve_upper(F, y)


@dataclass(frozen=True)
class LeastDistanceProblem:
    """min f'f + c over G f <= h, with alpha = alpha0 + F^{-1} f.

    F is the upper-triangular Cholesky factor of K; c = J(alpha0).  The
    constraint rows keep their original order and provenance tags.
    """

    F: np.ndarray
    alpha0: np.ndarray
    c: float
    G: np.ndarray
    h: np.ndarray
    tags: tuple

    @property
    def n_free(self):
        return self.alpha0.size

    @property
    def n_rows(self):
        return self.h.size

    def alpha_from_f(self, f):
        """Invert the change of variables: alpha = alpha0 + F^{-1} f."""
        return self.alpha0 + _solve_upper(self.F, np.asarray(f, dtype=float))


def least_distance_transform(pc: ParameterizedCost, constraints=None
                             ) -> LeastDistanceProblem:
    """Re-express the conditioned problem as a least-distance problem.

    With F'F = K and alpha0 the unconstrained optimum, f = F (alpha -
    alpha0) turns the cost into f'f + J(alpha0) and each constraint row
    G alpha <= h into (G F^{-1}) f <= h - G alpha0.  The row count is
    unchanged.

    Parameters
    ----------
    pc : ParameterizedCost
    constraints : AffineConstraintSet or None
        None means unconstrained.
    """
    F = assert_convexity(pc)
    if np.abs(np.diag(F)).min() <= 0:  # pragma: no cover - dpotrf guards this
        raise SingularFactor("Cholesky factor has a zero diagonal entry")
    alpha0 = unconstrained_optimum(pc, F)
    c = quadratic_value(pc, alpha0)
    if constraints is None or constraints.G.shape[0] == 0:
        G = np.zeros((0, pc.n_free))
        h = np.zeros(0)
        tags = ()
    else:
        if constraints.G.shape[1] != pc.n_free:
            raise DimensionMismatch(
                f"constraint columns {constraints.G.shape[1]} vs "
                f"n_free {pc.n_free}"
            )
        # Solve X F = G, i.e. F' X' = G'.
        G = _solve_upper(F, constraints.G.T, trans=True).T
        h = constraints.h - constraints.G @ alpha0
        tags = tuple(constraints.tags)
    return LeastDistanceProblem(F=F, alpha0=alpha0, c=c, G=G, h=h, tags=tags)
