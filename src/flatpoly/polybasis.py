"""Affine polynomial trajectories in the scaled time s = t / T.

Flat outputs are degree-N power series y_i(t) = sum_j a_ij (t/T)^j.  Initial
conditions pin the first r_i coefficients of each output; the remaining ones
are collected into a free parameter vector alpha of length m(N+1) - n.  Every
trajectory signal (outputs, chain states, inputs) is then affine in alpha,

    p(t) = c0(t) + c_lin(t) @ alpha,

which AffinePolyVector stores coefficient-wise.  Costs and constraints
downstream reduce to quadratic/linear functions of alpha.

This module is the only one that knows the basis.  AffinePolyVector
applies matrices to its rows, adds stacks and constants, and gives its
Gram matrix, its values at t = 0 and t = T and its Bernstein
coefficients; the cost, the constraint rows and the closed-loop planner
go through these and read no coefficient by position.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .errors import DegreeOutOfRange, DegreeTooLow, DimensionMismatch
from .flat import FlatMap

__all__ = [
    "BasisSpec",
    "AffinePoly",
    "AffinePolyVector",
    "ExtrapolationWarning",
    "gram_weights",
    "apply_initial_conditions",
    "parameterize_outputs",
    "parameterize_states_inputs",
    "evaluate",
]

#: Degrees above this are rejected; the scaled power basis becomes too
#: ill-conditioned for the downstream Cholesky factor to be trustworthy.
MAX_DEGREE = 15

#: Degrees from here up are accepted with a conditioning warning.
WARN_DEGREE = 13


class ExtrapolationWarning(UserWarning):
    """Evaluation at t outside the planning horizon [0, T]."""


@dataclass(frozen=True)
class BasisSpec:
    """Power basis setup for one planning problem.

    Parameters
    ----------
    degree : int
        Polynomial degree N of every flat output.
    T : float
        Horizon length; the basis functions are (t/T)^j.
    r : sequence of int
        Relative degrees of the flat outputs (from the flat transform).

    Raises
    ------
    DegreeTooLow
        If N < max(r), so some output cannot meet its initial conditions
        while keeping a free coefficient.
    DegreeOutOfRange
        If N is not an integer in 1..15.
    """

    degree: int
    T: float
    r: tuple

    def __post_init__(self):
        if not (float(self.degree).is_integer()
                and 1 <= self.degree <= MAX_DEGREE):
            raise DegreeOutOfRange(
                f"degree must be an integer in 1..{MAX_DEGREE}, "
                f"got {self.degree}"
            )
        N = int(self.degree)
        r = tuple(int(ri) for ri in self.r)
        if N < max(r):
            raise DegreeTooLow(
                f"degree {N} < max relative degree {max(r)}; "
                "initial conditions would use up every coefficient"
            )
        if not self.T > 0:
            raise DimensionMismatch(f"horizon T must be positive, got {self.T}")
        if N >= WARN_DEGREE:
            warnings.warn(
                f"degree {N} power basis is poorly conditioned; "
                "expect reduced accuracy in the cost factorization",
                stacklevel=2,
            )
        object.__setattr__(self, "degree", N)
        object.__setattr__(self, "T", float(self.T))
        object.__setattr__(self, "r", r)

    @property
    def m(self):
        return len(self.r)

    @property
    def n(self):
        return sum(self.r)

    @property
    def n_free(self):
        """Number of free parameters, m(N+1) - n."""
        return self.m * (self.degree + 1) - self.n


def _powers(t, T, N):
    """Powers s^0..s^N of the scaled time, shape (N+1,) + t.shape."""
    s = np.asarray(t, dtype=float) / T
    out = np.ones((N + 1,) + s.shape)
    for j in range(1, N + 1):
        out[j] = out[j - 1] * s
    return out


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


@lru_cache(maxsize=None)
def _bernstein_matrix(N):
    """Power-to-Bernstein map on [0, 1]: B[p, j] = C(p, j) / C(N, j), j <= p.

    B @ a gives the Bernstein coefficients of sum_j a_j s^j; row 0 is the
    value at s = 0, row N the value at s = 1.  Read-only, cached per degree.
    """
    B = np.zeros((N + 1, N + 1))
    for p in range(N + 1):
        for j in range(p + 1):
            B[p, j] = math.comb(p, j) / math.comb(N, j)
    B.setflags(write=False)
    return B


def _check_horizon(t, T):
    t = np.asarray(t, dtype=float)
    if np.any(t < -1e-12 * T) or np.any(t > T * (1 + 1e-12)):
        warnings.warn(
            f"evaluating outside the horizon [0, {T}]; the polynomial "
            "parameterization is not designed to extrapolate",
            ExtrapolationWarning,
            stacklevel=3,
        )
    return t


@dataclass(frozen=True)
class AffinePolyVector:
    """One polynomial, or a stack of q, affine in the free parameters.

    coef0 : (N+1,) or (q, N+1) ndarray
    coef_lin : (N+1, n_free) or (q, N+1, n_free) ndarray
        Coefficient j is coef0[..., j] + coef_lin[..., j, :] @ alpha.
    T : float
        Horizon used to scale the basis.
    role : str
        What the rows represent: 'output', 'chain', 'state', 'input' or
        'constraint'.

    M @ stack applies the matrix M to the rows, and stack + other adds two
    stacks row by row; both keep the left stack's role.
    """

    coef0: np.ndarray
    coef_lin: np.ndarray
    T: float
    role: str = "output"

    # numpy hands M @ stack to __rmatmul__ instead of converting the stack.
    __array_ufunc__ = None

    @property
    def q(self):
        """Number of rows of a stack."""
        return self.coef0.shape[0]

    @property
    def degree(self):
        return self.coef0.shape[-1] - 1

    @property
    def n_free(self):
        return self.coef_lin.shape[-1]

    def row(self, i):
        """Row i of a stack as a single polynomial."""
        return AffinePolyVector(self.coef0[i], self.coef_lin[i], self.T, self.role)

    def derivative(self, order=1):
        """Time derivative of the same shape (trailing coefficients zero)."""
        c0, cl, T = self.coef0, self.coef_lin, self.T
        for _ in range(order):
            j = np.arange(1, c0.shape[-1])
            d0, dl = np.zeros(c0.shape), np.zeros(cl.shape)
            d0[..., :-1] = c0[..., 1:] * j / T
            dl[..., :-1, :] = cl[..., 1:, :] * j[:, None] / T
            c0, cl = d0, dl
        return AffinePolyVector(c0, cl, T, self.role)

    def affine_eval(self, t):
        """(b0, b_lin) with value = b0 + b_lin @ alpha, shaped lead + t.shape
        and lead + t.shape + (n_free,); lead is (q,) for a stack, else ()."""
        p = _powers(t, self.T, self.degree)
        b0 = np.tensordot(self.coef0, p, axes=(-1, 0))
        b_lin = np.moveaxis(
            np.tensordot(self.coef_lin, p, axes=(-2, 0)), self.coef0.ndim - 1, -1
        )
        return b0, b_lin

    def __call__(self, alpha, t):
        b0, b_lin = self.affine_eval(t)
        return b0 + b_lin @ np.asarray(alpha, dtype=float)

    def __rmatmul__(self, M):
        return AffinePolyVector(M @ self.coef0,
                                np.einsum("ij,jkp->ikp", M, self.coef_lin),
                                self.T, self.role)

    def __add__(self, other):
        return AffinePolyVector(self.coef0 + other.coef0,
                                self.coef_lin + other.coef_lin, self.T, self.role)

    def plus(self, c):
        """The stack with the constant c_i added to row i."""
        coef0 = self.coef0.copy()
        coef0[..., 0] += c
        return AffinePolyVector(coef0, self.coef_lin, self.T, self.role)

    def constant(self, c):
        """coef0 of a stack of this shape whose row i is the constant c_i."""
        coef0 = np.zeros(self.coef0.shape)
        coef0[..., 0] = c
        return coef0

    def gram(self):
        """Gram matrix of the basis on [0, T]: W[i, j] is the integral of
        (t/T)^i (t/T)^j over [0, T], T / (i + j + 1)."""
        return self.T * gram_weights(self.degree, 1.0)

    def at_start(self):
        """(b0, b_lin) with the value at t = 0 equal to b0 + b_lin @ alpha."""
        return self.coef0[..., 0], self.coef_lin[..., 0, :]

    def at_end(self):
        """(b0, b_lin) with the value at t = T equal to b0 + b_lin @ alpha."""
        return self.coef0.sum(axis=-1), self.coef_lin.sum(axis=-2)

    def bernstein(self):
        """(b0, b_lin): a row's Bernstein coefficient p on [0, T] is
        b0[..., p] + b_lin[..., p, :] @ alpha, p = 0..N.  The row lies in
        the convex hull of its coefficients on the whole horizon, and a
        constant's Bernstein coefficients all equal it."""
        B = _bernstein_matrix(self.degree)
        return self.coef0 @ B.T, B @ self.coef_lin


#: A single polynomial is an AffinePolyVector without the leading row axis.
AffinePoly = AffinePolyVector


def apply_initial_conditions(fm: FlatMap, x0, basis: BasisSpec):
    """Pin the low-order output coefficients to match the initial state.

    The chain value at t = 0 is z0 = T_z (x0 - x_off); entry (i, k) equals
    y_i^(k)(0) = a_ik k! / T^k, so a_ik = z0_ik T^k / k! for k < r_i.  All
    higher coefficients become free parameters, ordered output-major:
    alpha = (a_1,r1 .. a_1,N, a_2,r2 .. a_2,N, ...).

    Returns
    -------
    AffinePolyVector
        The m flat outputs, role 'output'.
    """
    if tuple(basis.r) != tuple(fm.r):
        raise DimensionMismatch(
            f"basis relative degrees {basis.r} do not match the flat map {fm.r}"
        )
    x0 = np.asarray(x0, dtype=float).reshape(fm.n)
    z0 = fm.state_to_chain(x0)
    N, T, m = basis.degree, basis.T, basis.m
    n_free = basis.n_free

    coef0 = np.zeros((m, N + 1))
    coef_lin = np.zeros((m, N + 1, n_free))
    pos = 0
    offset = 0
    for i, ri in enumerate(basis.r):
        fact = 1.0
        for k in range(ri):
            coef0[i, k] = z0[offset + k] * T**k / fact
            fact *= k + 1
        for k in range(ri, N + 1):
            coef_lin[i, k, pos] = 1.0
            pos += 1
        offset += ri
    return AffinePolyVector(coef0, coef_lin, T, role="output")


def parameterize_outputs(fm: FlatMap, x0, degree, T):
    """Convenience wrapper: build the BasisSpec and apply initial conditions.

    Returns
    -------
    basis : BasisSpec
    y : AffinePolyVector
    """
    basis = BasisSpec(degree=degree, T=T, r=fm.r)
    return basis, apply_initial_conditions(fm, x0, basis)


def _chain_polynomials(y: AffinePolyVector, r):
    """Chain rows and top derivatives of the output polynomials.

    Returns (z, v), role 'chain': the chain vector z stacks
    (y_i, y_i', ..., y_i^(r_i-1)) for each output i, n rows, and
    v_i = y_i^(r_i), m rows.
    """
    n, m = sum(r), len(r)
    Np1, n_free = y.degree + 1, y.n_free
    z_c0 = np.zeros((n, Np1))
    z_cl = np.zeros((n, Np1, n_free))
    v_c0 = np.zeros((m, Np1))
    v_cl = np.zeros((m, Np1, n_free))
    row = 0
    for i, ri in enumerate(r):
        der = y.row(i)
        for _ in range(ri):
            z_c0[row], z_cl[row] = der.coef0, der.coef_lin
            row += 1
            der = der.derivative()
        v_c0[i], v_cl[i] = der.coef0, der.coef_lin
    return (AffinePolyVector(z_c0, z_cl, y.T, role="chain"),
            AffinePolyVector(v_c0, v_cl, y.T, role="chain"))


def parameterize_states_inputs(y: AffinePolyVector, fm: FlatMap):
    """Map output polynomials through the flat transform.

    Builds the chain vector rows (y_i, y_i', ..., y_i^(r_i-1)), applies
    x = Xi_x z + x_off and u = Xi_u_z z + Xi_u_dz v + u_off with
    v_i = y_i^(r_i); the offsets are constants added to the rows.

    Returns
    -------
    x : AffinePolyVector, role 'state'
    u : AffinePolyVector, role 'input'
    """
    if y.q != fm.m:
        raise DimensionMismatch(f"expected {fm.m} output rows, got {y.q}")
    z, v = _chain_polynomials(y, fm.r)
    x = (fm.Xi_x @ z).plus(fm.x_off)
    u = (fm.Xi_u_z @ z + fm.Xi_u_dz @ v).plus(fm.u_off)
    return replace(x, role="state"), replace(u, role="input")


def evaluate(poly, alpha, t):
    """Evaluate an AffinePolyVector (one polynomial or a stack) at times t.

    Warns with ExtrapolationWarning when any t falls outside [0, T].
    """
    t = _check_horizon(t, poly.T)
    return poly(alpha, t)
