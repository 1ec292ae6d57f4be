"""Orthonormal polynomial bases, quadrature rules, and local L2 projections.

Everything is set up on the reference triangle That = {(x, y) : x, y >= 0,
x + y <= 1} and the reference edge [0, 1].  Physical bases are pullbacks
phi(x) = phihat(xhat) under the element's affine map, so the physical mass
matrix is det(B) times the identity and projections reduce to quadrature
moments on the reference element.

Edge bases are shifted Legendre polynomials, which gives the parity
psi_g(1 - t) = (-1)^g psi_g(t) used when two elements traverse a shared
face in opposite directions.
"""

import math
from functools import lru_cache

import numpy as np
from numpy.polynomial import legendre as npleg
from scipy.special import eval_jacobi, roots_jacobi, roots_legendre


def tri_dim(degree):
    return (degree + 1) * (degree + 2) // 2


def _collapsed_coords(points):
    """Square coordinates (a, b) of triangle points, with the apex regularised."""
    pts = np.asarray(points, dtype=float)
    x = pts[..., 0]
    y = pts[..., 1]
    omy = 1.0 - y
    safe = np.where(np.abs(omy) > 1e-14, omy, 1.0)
    a = np.where(np.abs(omy) > 1e-14, 2.0 * x / safe - 1.0, -1.0)
    return a, 2.0 * y - 1.0, omy


def _jacobi_deriv(n, alpha, x):
    """d/dx P_n^(alpha,0)(x)."""
    if n == 0:
        return np.zeros_like(x)
    return 0.5 * (n + alpha + 1) * eval_jacobi(n - 1, alpha + 1.0, 1.0, x)


class ScalarBasis:
    """Orthonormal scalar polynomial basis on the reference triangle or edge.

    Parameters
    ----------
    degree : int
        Maximal total degree.
    shape : str
        "triangle" (dim = (degree+1)(degree+2)/2) or "edge" (dim = degree+1).

    The triangle basis is the Jacobi-polynomial construction on collapsed
    coordinates a = 2x/(1-y) - 1, b = 2y - 1,

        phi_{m,n} = sqrt(2 (2m+1) (m+n+1)) P_m(a) (1-y)^m P_n^(2m+1,0)(b),

    which is orthonormal in exact arithmetic (no Gram matrix to invert), so
    the discrete orthonormality defect stays at machine precision for any
    degree.  Members are ordered by total degree m+n, so every lower-degree
    basis is a prefix of the higher-degree ones; the first member is the
    constant sqrt(2).  The edge basis is sqrt(2g+1) P_g(2t - 1) on [0, 1].
    """

    def __init__(self, degree, shape="triangle"):
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        self.degree = degree
        self.shape = shape
        if shape == "triangle":
            self.mn = [(m, d - m) for d in range(degree + 1) for m in range(d + 1)]
            self.dim = len(self.mn)
        elif shape == "edge":
            self.dim = degree + 1
        else:
            raise ValueError("shape must be 'triangle' or 'edge'")

    def eval(self, points):
        """Basis values; (npts, dim)."""
        if self.shape == "edge":
            t = np.asarray(points, dtype=float)
            out = np.empty(t.shape + (self.dim,))
            for g in range(self.dim):
                coef = np.zeros(g + 1)
                coef[g] = math.sqrt(2 * g + 1)
                out[..., g] = npleg.legval(2.0 * t - 1.0, coef)
            return out
        a, b, omy = _collapsed_coords(points)
        out = np.empty(a.shape + (self.dim,))
        for i, (m, n) in enumerate(self.mn):
            norm = math.sqrt(2.0 * (2 * m + 1) * (m + n + 1))
            out[..., i] = (norm * eval_jacobi(m, 0.0, 0.0, a) * omy ** m
                           * eval_jacobi(n, 2 * m + 1.0, 0.0, b))
        return out

    def grad(self, points):
        """Gradients of the triangle basis with respect to reference
        coordinates; (npts, dim, 2)."""
        a, b, omy = _collapsed_coords(points)
        out = np.empty(a.shape + (self.dim, 2))
        omy_pow = {}  # (1-y)^p with negative powers clamped (coefficient is 0 there)
        for i, (m, n) in enumerate(self.mn):
            norm = math.sqrt(2.0 * (2 * m + 1) * (m + n + 1))
            Pm = eval_jacobi(m, 0.0, 0.0, a)
            Pn = eval_jacobi(n, 2 * m + 1.0, 0.0, b)
            dPm = _jacobi_deriv(m, 0.0, a)
            dPn = _jacobi_deriv(n, 2 * m + 1.0, b)
            p = max(m - 1, 0)
            if p not in omy_pow:
                omy_pow[p] = omy ** p
            if m not in omy_pow:
                omy_pow[m] = omy ** m
            out[..., i, 0] = norm * 2.0 * dPm * omy_pow[p] * Pn
            out[..., i, 1] = norm * ((a + 1.0) * dPm * omy_pow[p] * Pn
                                     - m * omy_pow[p] * Pm * Pn
                                     + 2.0 * omy_pow[m] * Pm * dPn)
        return out


@lru_cache(maxsize=None)
def scalar_basis(degree, shape="triangle"):
    """Cached ScalarBasis instances (they are immutable in practice)."""
    return ScalarBasis(degree, shape)


class QuadratureRule:
    """Quadrature nodes and positive weights on a reference cell."""

    def __init__(self, points, weights):
        self.points = np.asarray(points, dtype=float)
        self.weights = np.asarray(weights, dtype=float)

    @classmethod
    def triangle(cls, degree):
        """Rule exact for total degree `degree` on the reference triangle.

        A Duffy-type product rule: Gauss-Jacobi (weight 1 - s) in the first
        coordinate absorbs the Jacobian of the square-to-triangle map
        (x, y) = (s, t (1 - s)), Gauss-Legendre handles the second.
        """
        n = max(1, (degree + 2) // 2)
        xj, wj = roots_jacobi(n, 1.0, 0.0)
        s = 0.5 * (xj + 1.0)
        ws = 0.25 * wj
        xl, wl = roots_legendre(n)
        t = 0.5 * (xl + 1.0)
        wt = 0.5 * wl
        S, T = np.meshgrid(s, t, indexing="ij")
        pts = np.column_stack([S.ravel(), (T * (1.0 - S)).ravel()])
        w = np.outer(ws, wt).ravel()
        return cls(pts, w)

    @classmethod
    def edge(cls, degree):
        """Gauss-Legendre rule on [0, 1] exact for `degree`."""
        n = max(1, (degree + 2) // 2)
        x, w = roots_legendre(n)
        return cls(0.5 * (x + 1.0), 0.5 * w)


@lru_cache(maxsize=None)
def quad_rule(degree, shape="triangle"):
    """Cached QuadratureRule.triangle or .edge rules, by shape (they are
    immutable in practice)."""
    return getattr(QuadratureRule, shape)(degree)


# ----------------------------------------------------------------------
# local projections


def project_interior(mesh, elems, degree, f, quad_degree):
    """Coefficients of the elementwise L2 projection of f onto P_degree.

    Parameters
    ----------
    f : callable
        f(x, y) with array arguments, returning values of matching shape,
        possibly with trailing axes (a vector field gives (..., 2)).

    Returns
    -------
    (len(elems), ..., dim) array in the orthonormal pullback basis, one
    row per component of f.
    """
    elems = np.atleast_1d(np.asarray(elems, dtype=np.int64))
    quad = quad_rule(quad_degree, "triangle")
    basis = scalar_basis(degree, "triangle")
    pts = mesh.map_points(elems, quad.points)            # (E, Q, 2)
    vals = f(pts[..., 0], pts[..., 1])                   # (E, Q, ...)
    phi = basis.eval(quad.points)                        # (Q, dim)
    return np.einsum("q,eq...,qd->e...d", quad.weights, vals, phi)


def project_face(mesh, fids, degree, f, quad_degree):
    """Coefficients of the facewise L2 projection of f onto P_degree(e).

    Faces are parameterised from their lower-index vertex to the higher one.
    """
    fids = np.atleast_1d(np.asarray(fids, dtype=np.int64))
    quad = quad_rule(quad_degree, "edge")
    basis = scalar_basis(degree, "edge")
    pts = mesh.face_points(fids, quad.points)            # (F, Q, 2)
    vals = f(pts[..., 0], pts[..., 1])                   # (F, Q)
    psi = basis.eval(quad.points)                        # (Q, dim)
    return np.einsum("q,fq,qd->fd", quad.weights, vals, psi)
