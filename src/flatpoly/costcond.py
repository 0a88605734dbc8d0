"""Exact conditioning of quadratic trajectory costs onto the free parameters.

Substituting the affine polynomial trajectories into

    J = int_0^T (x - x_ref)' Q (x - x_ref) + u' R u dt
        + (x(T) - x_star)' P (x(T) - x_star)

gives a quadratic J(alpha) = alpha' K alpha + k' alpha + k0.  Products of
polynomials integrate exactly through the Gram matrix of the basis, and the
terminal term takes the trajectory's value at t = T, both from
polybasis.AffinePolyVector, so no quadrature is involved and this module
does not depend on the basis; K is symmetrized and certified positive
definite by an explicit Cholesky factorization, whose factor F also drives
the least-distance change of variables f = F (alpha - alpha0).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._lapack import lapack
from .errors import DimensionMismatch, NotPositiveDefinite
from .flat import QuadraticCostSpec
from .polybasis import AffinePolyVector

__all__ = [
    "ParameterizedCost",
    "LeastDistanceProblem",
    "condition_cost",
    "assert_convexity",
    "unconstrained_optimum",
    "least_distance_transform",
    "quadratic_value",
]


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
    return _quadratic(pc.K, pc.k, pc.k0, np.asarray(alpha, dtype=float))


def _quadratic(K, k, k0, a):
    """a' K a + k' a + k0 as a float; quadratic_value and the least-distance
    constant J(alpha0) both evaluate J here, so they agree to the last bit."""
    return float(a @ K @ a + k @ a + k0)


def _quad_block(W, c0, cl, M):
    """Accumulate sum_ab M_ab * (c0_a + cl_a f)' W (c0_b + cl_b f).

    c0 : (q, N+1), cl : (q, N+1, n_free), W : (N+1, N+1), M : (q, q).
    Returns (K, k, k0) contributions.
    """
    Wcl = np.einsum("ij,bjp->bip", W, cl)
    K = np.einsum("ab,aip,biq->pq", M, cl, Wcl)
    k, k0 = _linear_terms(W, c0, cl, Wcl, M)
    return K, k, k0


def _linear_terms(W, c0, cl, Wcl, M):
    """(k, k0) of _quad_block, given its Wcl = W cl.

    Callers whose cl is fixed keep Wcl and call this for the parts that
    depend on c0.  Every caller goes through these einsums, so they agree
    to the last bit; that matters because alpha0 = -K^{-1} k / 2 amplifies
    rounding in k by up to cond(K).
    """
    Wc0 = np.einsum("ij,bj->bi", W, c0)
    k = np.einsum("ab,aip,bi->p", M, cl, Wc0) + np.einsum(
        "ab,ai,bip->p", M, c0, Wcl
    )
    k0 = np.einsum("ab,ai,bi->", M, c0, Wc0)
    return k, float(k0)


def condition_cost(x_poly: AffinePolyVector, u_poly: AffinePolyVector,
                   cost: QuadraticCostSpec) -> ParameterizedCost:
    """Condition the continuous quadratic cost onto the free parameters.

    The integrals go through the basis's Gram matrix and the terminal term
    through the value at t = T (AffinePolyVector.gram and .at_end).
    Everything is closed form, so the result is exact up to floating point.

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
    Ws = x_poly.gram()
    ex0 = x_poly.plus(-cost.x_ref).coef0
    K, k, k0 = _quad_block(Ws, ex0, x_poly.coef_lin, cost.Q)

    # An all-zero R contributes nothing, so its block is skipped.
    if cost.R.any():
        Ku, ku, k0u = _quad_block(Ws, u_poly.coef0, u_poly.coef_lin, cost.R)
        K, k, k0 = K + Ku, k + ku, k0 + k0u

    xT0, sTl = x_poly.at_end()
    sT0 = xT0 - cost.x_star
    K += np.einsum("ab,ap,bq->pq", cost.P, sTl, sTl)
    k += 2.0 * np.einsum("ab,a,bp->p", cost.P, sT0, sTl)
    k0 += float(sT0 @ cost.P @ sT0)
    return ParameterizedCost(K=0.5 * (K + K.T), k=k, k0=k0)


def assert_convexity(pc: ParameterizedCost):
    """Certify positive definiteness of K by Cholesky factorization.

    Returns
    -------
    F : (n_free, n_free) ndarray
        Upper-triangular factor with F' F = K.

    Raises
    ------
    NotPositiveDefinite
        With the 1-based index of the failing pivot.  K is PSD by
        construction, so this signals a weighting that leaves some
        parameter direction free, or a K too ill-conditioned to factor.
    """
    return _cholesky(pc.K)


def _cholesky(K):
    """assert_convexity on a bare symmetric K."""
    if not np.isfinite(K).all():
        raise NotPositiveDefinite("K contains non-finite entries")
    # dpotrf zeroes the lower triangle (clean=1).
    F, info = lapack.dpotrf(K, lower=0, overwrite_a=0)
    if info > 0:
        raise NotPositiveDefinite(
            f"K is not positive definite: leading minor of order {info} "
            "is not positive",
            pivot=int(info),
        )
    if info < 0:  # pragma: no cover - argument error
        raise NotPositiveDefinite(f"Cholesky failed with LAPACK info={info}")
    # C order, so that _solve_upper passes F.T to LAPACK without a copy.
    return np.ascontiguousarray(F)


def _solve_upper(F, b, trans=False):
    """F^{-1} b, or F^{-T} b when trans, for an upper-triangular F.

    The same LAPACK call that scipy.linalg.solve_triangular makes for a
    C-ordered F, with its finiteness check on b, but without its per-call
    wrapper, which costs several times the solve at these sizes.
    """
    if not np.isfinite(b).all():
        raise ValueError("array must not contain infs or NaNs")
    x, info = lapack.dtrtrs(F.T, b, lower=1, trans=0 if trans else 1)
    if info > 0:
        raise np.linalg.LinAlgError(
            f"singular matrix: resolution failed at diagonal {info - 1}")
    return x


def unconstrained_optimum(pc: ParameterizedCost):
    """Unconstrained minimizer alpha0 = -K^{-1} k / 2, the alpha0 of
    least_distance_transform(pc).

    Solves through the Cholesky factor, so the gradient 2 K alpha0 + k
    vanishes to factorization accuracy.
    """
    return least_distance_transform(pc).alpha0


@dataclass(frozen=True)
class LeastDistanceProblem:
    """min f'f + c over G f <= h, with alpha = alpha0 + F^{-1} f.

    F is the upper-triangular Cholesky factor of K; c = J(alpha0).  These
    are the conditioned problem's only F, alpha0 and J(alpha0): the
    unconstrained solve and the suboptimality report read them here
    instead of factoring K again.  The constraint rows keep their original
    order and provenance tags.
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
    if constraints is None or constraints.G.shape[0] == 0:
        G, h, tags = np.zeros((0, pc.n_free)), np.zeros(0), ()
    else:
        if constraints.G.shape[1] != pc.n_free:
            raise DimensionMismatch(
                f"constraint columns {constraints.G.shape[1]} vs "
                f"n_free {pc.n_free}"
            )
        G, h, tags = constraints.G, constraints.h, tuple(constraints.tags)
    return _least_distance(pc.K, pc.k, pc.k0, G, h, tags)


def _least_distance(K, k, k0, G, h, tags):
    """least_distance_transform on checked arrays: K symmetric, G and h
    finite, G with K's column count.  Certifies K by its Cholesky factor."""
    F = _cholesky(K)
    # alpha0 = -K^{-1} k / 2 through F.
    alpha0 = _solve_upper(F, _solve_upper(F, -0.5 * k, trans=True))
    c = _quadratic(K, k, k0, alpha0)
    # Solve X F = G, i.e. F' X' = G'.
    return LeastDistanceProblem(
        F=F, alpha0=alpha0, c=c,
        G=_solve_upper(F, G.T, trans=True).T, h=h - G @ alpha0, tags=tags,
    )
