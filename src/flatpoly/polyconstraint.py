"""Bernstein-coefficient certificates for polynomial nonpositivity.

A degree-N constraint polynomial P on [0, T] lies in the convex hull of its
N+1 Bernstein coefficients b_0..b_N (Farouki, "The Bernstein polynomial
basis: a centennial retrospective", CAGD 2012).  So b_p <= 0 for every p is
sufficient for P <= 0 on the whole horizon.  The coefficients are affine in
the free parameters, and polybasis.AffinePolyVector.bernstein gives them;
conditioning a pointwise constraint G_x x(t) + G_u u(t) + g0 <= 0 therefore
produces N_c (N+1) affine inequality rows in the free parameters.

The module also keeps the paper's sampled margin Delta(N): the supremum
over [0, 1] of eps(s) = -prod_{i=1..N} (1 - N s / i), the degree-N
polynomial that is -1 at s = 0 and 0 at every sample s = i/N.  The rows
P(0) <= 0 and P(pT/N) - Delta(N) P(0) <= 0 built from it are tight for eps
but not sufficient for N >= 2 (see demos/demo_delta_certificate.py), so
the conditioned rows do not use it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DegreeOutOfRange, DimensionMismatch
from .flat import LinearConstraintSpec
from .polybasis import MAX_DEGREE, AffinePoly, AffinePolyVector

__all__ = [
    "AffineConstraintSet",
    "DeltaTable",
    "sample_matrix",
    "compute_delta",
    "delta_table",
    "constraint_polynomials",
    "condition_constraints",
    "verify_nonpositivity",
]


def sample_matrix(N):
    """Uniform-sample power matrix Q with Q[i-1, j-1] = (i/N)^j, i,j = 1..N.

    Q maps the nonconstant coefficients of a degree-N polynomial (in the
    unit-interval variable) to its values at the sample points i/N, up to
    the constant term.  It is invertible for every N >= 1.
    """
    if N < 1:
        raise DegreeOutOfRange(f"need N >= 1, got {N}")
    i = np.arange(1, N + 1)[:, None] / N
    j = np.arange(1, N + 1)[None, :]
    return i**j


@lru_cache(maxsize=None)
def compute_delta(N):
    """Nonpositivity margin Delta(N) = sup over [0,1] of eps(s).

    eps(s) = -prod_{i=1..N} (1 - N s / i) is the worst-case overshoot of a
    degree-N polynomial that is -1 at zero and 0 at all uniform samples;
    any polynomial meeting the tightened sample conditions stays below
    -Delta * P(0) between samples in the regime the bound covers.

    Each of the N - 1 critical points of eps lies alone between two
    neighbouring roots i/N and (i+1)/N (Rolle's theorem), where
    eps'/eps = sum_i 1/(s - i/N) falls from +inf to -inf; one Brent solve
    per gap finds it.

    Parameters
    ----------
    N : int
        Polynomial degree, 1 <= N <= MAX_DEGREE.

    Returns
    -------
    float
        Delta(N) >= 0; Delta(1) = 0 and Delta decreases with N.
    """
    if not 1 <= N <= MAX_DEGREE:
        raise DegreeOutOfRange(f"degree must be in 1..{MAX_DEGREE}, got {N}")
    # Imported here, not at module level: solve and the closed loop never
    # call this, so they do not pay for loading scipy.optimize.
    import scipy.optimize

    i = np.arange(1, N + 1)
    crit = [
        scipy.optimize.brentq(lambda s: np.sum(1.0 / (s - i / N)),
                              np.nextafter(a, b), np.nextafter(b, a))
        for a, b in zip(i[:-1] / N, i[1:] / N)
    ]
    return max([0.0] + [-float(np.prod(1.0 - N * s / i)) for s in crit])


@dataclass(frozen=True)
class DeltaTable:
    """Cached map N -> Delta(N) for N = 1..max_degree."""

    values: tuple

    def __getitem__(self, N):
        if not 1 <= N <= len(self.values):
            raise DegreeOutOfRange(
                f"degree must be in 1..{len(self.values)}, got {N}"
            )
        return self.values[N - 1]

    def __len__(self):
        return len(self.values)

    def items(self):
        return [(N, self.values[N - 1]) for N in range(1, len(self.values) + 1)]


@lru_cache(maxsize=None)
def delta_table(max_degree=MAX_DEGREE):
    """Precompute Delta(N) for N = 1..max_degree (defaults to the cap)."""
    if not 1 <= max_degree <= MAX_DEGREE:
        raise DegreeOutOfRange(
            f"max_degree must be in 1..{MAX_DEGREE}, got {max_degree}"
        )
    return DeltaTable(values=tuple(compute_delta(N) for N in range(1, max_degree + 1)))


@dataclass(frozen=True)
class AffineConstraintSet:
    """Affine rows G alpha <= h with per-row provenance.

    tags[r] = (k, p): row r is Bernstein coefficient p of constraint k,
    whose control point sits at t = p T / N; p = 0 is the value at t = 0
    and p = N the value at t = T.
    """

    G: np.ndarray
    h: np.ndarray
    tags: tuple

    def __post_init__(self):
        G = np.atleast_2d(np.asarray(self.G, dtype=float))
        h = np.atleast_1d(np.asarray(self.h, dtype=float))
        if G.shape[0] != h.size or len(self.tags) != h.size:
            raise DimensionMismatch(
                f"rows disagree: G {G.shape[0]}, h {h.size}, tags {len(self.tags)}"
            )
        _require_finite_rows(G, h)
        object.__setattr__(self, "G", G)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "tags", tuple(self.tags))

    @property
    def n_rows(self):
        return self.h.size


def _require_finite_rows(G, h):
    """Raise DimensionMismatch unless every entry of G and h is finite."""
    if not (np.isfinite(G).all() and np.isfinite(h).all()):
        raise DimensionMismatch("constraint rows contain non-finite entries")


def constraint_polynomials(x_poly: AffinePolyVector, u_poly: AffinePolyVector,
                           spec: LinearConstraintSpec) -> AffinePolyVector:
    """Stack the N_c constraint rows as polynomials in scaled time.

    Row k is P_k(t) = G_x[k] x(t) + G_u[k] u(t) + g0[k], affine in alpha.
    """
    n, m = x_poly.q, u_poly.q
    if spec.G_x.shape[1] != n or spec.G_u.shape[1] != m:
        raise DimensionMismatch(
            f"constraint columns ({spec.G_x.shape[1]}, {spec.G_u.shape[1]}) "
            f"vs trajectory dimensions ({n}, {m})"
        )
    if x_poly.T != u_poly.T or x_poly.n_free != u_poly.n_free:
        raise DimensionMismatch("state/input polynomials are inconsistent")
    return (spec.G_x @ x_poly + spec.G_u @ u_poly).plus(spec.g0)


def condition_constraints(x_poly: AffinePolyVector, u_poly: AffinePolyVector,
                          spec: LinearConstraintSpec) -> AffineConstraintSet:
    """Emit the sufficient affine rows for all pointwise constraints.

    For every constraint row k with polynomial P_k of degree N, the emitted
    conditions are b_{k,p} <= 0 for its Bernstein coefficients p = 0..N on
    the horizon, i.e. N_c (N+1) rows total, each affine in alpha (row:
    grad' alpha <= h).  Any alpha meeting them keeps every P_k <= 0 on all
    of the polynomials' horizon [0, T].  A spec with no rows gives a set
    with no rows.
    """
    P = constraint_polynomials(x_poly, u_poly, spec)
    G, h = _bernstein_rows(P)
    return AffineConstraintSet(
        G=G, h=h,
        tags=tuple((k, p) for k in range(P.q) for p in range(P.degree + 1)),
    )


def _bernstein_rows(P: AffinePolyVector):
    """(G, h) of the rows b_{k,p} <= 0 for a stack of constraint polynomials,
    ordered constraint-major; the core of condition_constraints."""
    b0, b_lin = P.bernstein()
    return b_lin.reshape(P.q * (P.degree + 1), P.n_free), -b0.ravel()


def verify_nonpositivity(P: AffinePoly, alpha, grid_size=100_000):
    """Max of the instantiated polynomial over a dense uniform grid on its
    horizon [0, P.T].

    A test oracle: conditioned constraints promise this stays at or below
    zero (up to rounding in the rows and the solver's feasibility
    tolerance).  Use at least ~10^3 points for the grid to resolve
    interior maxima.
    """
    t = np.linspace(0.0, P.T, int(grid_size))
    return float(np.max(P(np.asarray(alpha, dtype=float), t)))
