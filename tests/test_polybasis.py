import math

import numpy as np
import pytest

import oracles
from wgconvect import polybasis as pb
from wgconvect.mesh import build_structured_mesh

UNIT = (0.0, 1.0, 0.0, 1.0)


def tri_monomial_integral(a, b):
    return math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)


# ----------------------------------------------------------------------
# quadrature


def test_triangle_quadrature_exactness():
    for degree in range(0, 16):
        quad = pb.QuadratureRule.triangle(degree)
        assert np.all(quad.weights > 0)
        for a, b in oracles.tri_monomial_powers(degree):
            val = np.sum(quad.weights * quad.points[:, 0] ** a
                         * quad.points[:, 1] ** b)
            assert abs(val - tri_monomial_integral(a, b)) <= 1e-12


def test_triangle_quadrature_weight_sum():
    for degree in (1, 4, 9):
        quad = pb.QuadratureRule.triangle(degree)
        assert np.sum(quad.weights) == pytest.approx(0.5, abs=1e-14)


def test_edge_quadrature_exactness():
    for degree in range(0, 20):
        quad = pb.QuadratureRule.edge(degree)
        assert np.all(quad.weights > 0)
        for a in range(degree + 1):
            val = np.sum(quad.weights * quad.points ** a)
            assert abs(val - 1.0 / (a + 1)) <= 1e-13


# ----------------------------------------------------------------------
# scalar bases


def test_triangle_basis_dims_and_constant():
    for degree in range(5):
        basis = pb.ScalarBasis(degree, "triangle")
        assert basis.dim == (degree + 1) * (degree + 2) // 2
    basis = pb.ScalarBasis(0, "triangle")
    val = basis.eval(np.array([[0.3, 0.2]]))
    assert val[0, 0] == pytest.approx(math.sqrt(2.0), abs=1e-14)


def test_triangle_basis_orthonormal():
    for degree in range(7):
        basis = pb.ScalarBasis(degree, "triangle")
        quad = pb.QuadratureRule.triangle(2 * degree)
        phi = basis.eval(quad.points)
        G = np.einsum("q,qi,qj->ij", quad.weights, phi, phi)
        assert np.abs(G - np.eye(basis.dim)).max() < 1e-13


def test_triangle_basis_nested_by_degree():
    lo = pb.ScalarBasis(1, "triangle")
    hi = pb.ScalarBasis(3, "triangle")
    pts = np.array([[0.1, 0.1], [0.5, 0.25], [0.05, 0.8]])
    assert np.allclose(hi.eval(pts)[:, :lo.dim], lo.eval(pts), atol=1e-13)


def test_triangle_basis_gradient_matches_fd():
    basis = pb.ScalarBasis(4, "triangle")
    pts = np.array([[0.2, 0.3], [0.6, 0.1], [0.15, 0.55]])
    grad = basis.grad(pts)
    h = 1e-6
    for d in range(2):
        step = np.zeros(2)
        step[d] = h
        fd = (basis.eval(pts + step) - basis.eval(pts - step)) / (2 * h)
        assert np.abs(fd - grad[:, :, d]).max() < 1e-6 * max(1.0, np.abs(grad).max())


def test_edge_basis_orthonormal_and_parity():
    basis = pb.ScalarBasis(4, "edge")
    assert basis.dim == 5
    quad = pb.QuadratureRule.edge(8)
    psi = basis.eval(quad.points)
    G = np.einsum("q,qi,qj->ij", quad.weights, psi, psi)
    assert np.abs(G - np.eye(5)).max() < 1e-13
    # reversing the parameterisation flips every odd member's sign
    t = np.linspace(0.0, 1.0, 11)
    signs = (-1.0) ** np.arange(5)
    assert np.allclose(basis.eval(1.0 - t), basis.eval(t) * signs, atol=1e-12)


# ----------------------------------------------------------------------
# projections


def _pullback_poly(mesh, elem, degree, coeffs):
    """Physical-coordinates callable for an interior polynomial."""
    basis = pb.scalar_basis(degree, "triangle")
    v0 = mesh.elem_origin[elem]
    inv_bt = mesh.inv_bt[elem]

    def f(x, y):
        xy = np.stack([x - v0[0], y - v0[1]], axis=-1)
        ref = xy @ inv_bt  # (x - v0) B^{-T T} = B^{-1} (x - v0)
        return basis.eval(ref.reshape(-1, 2)).reshape(x.shape + (basis.dim,)) @ coeffs

    return f


def test_project_face_cubic_oracle():
    # best P1 fit of s^3 on [0, 1] is -0.2 + 0.9 s (normal equations by hand)
    mesh = build_structured_mesh(1, 1, UNIT, UNIT)
    # pick the face from (0,0) to (1,0): parameter s equals x
    fid = [i for i in range(mesh.n_faces)
           if set(mesh.faces[i]) == {0, 1}][0]
    coeffs = pb.project_face(mesh, [fid], 1, lambda x, y: x ** 3, 8)
    t = np.linspace(0.0, 1.0, 7)
    vals = pb.scalar_basis(1, "edge").eval(t) @ coeffs[0]
    assert np.allclose(vals, -0.2 + 0.9 * t, atol=1e-13)


def test_project_interior_idempotent():
    mesh = build_structured_mesh(3, 2, UNIT, UNIT)
    rng = np.random.default_rng(20240811)
    for degree in (1, 2, 3):
        dim = pb.tri_dim(degree)
        for _ in range(10):
            elem = int(rng.integers(mesh.n_elems))
            coeffs = rng.normal(size=dim)
            f = _pullback_poly(mesh, elem, degree, coeffs)
            out = pb.project_interior(mesh, [elem], degree, f, 2 * degree)[0]
            assert np.abs(out - coeffs).max() < 1e-12 * max(1.0, np.abs(coeffs).max())


def test_project_interior_stability():
    # an orthogonal projection never increases the L2 norm
    mesh = build_structured_mesh(2, 2, UNIT, UNIT)
    rng = np.random.default_rng(7)
    degree, extra = 2, 3
    hi_dim = pb.tri_dim(degree + extra)
    quad = pb.quad_rule(2 * (degree + extra), "triangle")
    for _ in range(50):
        elem = int(rng.integers(mesh.n_elems))
        hi_coeffs = rng.normal(size=hi_dim)
        f = _pullback_poly(mesh, elem, degree + extra, hi_coeffs)
        out = pb.project_interior(mesh, [elem], degree, f, 2 * (degree + extra))[0]
        det = mesh.det_b[elem]
        norm_proj = math.sqrt(det * np.sum(out ** 2))
        pts = mesh.map_points(np.array([elem]), quad.points)[0]
        fvals = f(pts[:, 0], pts[:, 1])
        norm_f = math.sqrt(det * np.sum(quad.weights * fvals ** 2))
        assert norm_proj <= norm_f + 1e-12


def test_project_interior_matches_least_squares():
    # independent route: weighted least squares at the same quadrature nodes
    mesh = build_structured_mesh(2, 1, UNIT, UNIT)
    degree, qd = 2, 12
    f = lambda x, y: np.sin(1.3 * x) * np.cos(0.7 * y) + x * y
    elem = 1
    mine = pb.project_interior(mesh, [elem], degree, f, qd)[0]
    quad = pb.quad_rule(qd, "triangle")
    phi = pb.scalar_basis(degree, "triangle").eval(quad.points)
    pts = mesh.map_points(np.array([elem]), quad.points)[0]
    sw = np.sqrt(quad.weights)
    ls, *_ = np.linalg.lstsq(phi * sw[:, None], f(pts[:, 0], pts[:, 1]) * sw,
                             rcond=None)
    assert np.abs(mine - ls).max() < 1e-12


# ----------------------------------------------------------------------
# Raviart-Thomas


def test_rt_dims():
    for j in range(4):
        assert oracles.RtBasis(j).dim == (j + 1) * (j + 3)


def test_rt_divergence_lies_in_pj():
    # the divergence of every basis field is a polynomial of degree <= j
    for j in (0, 1, 2):
        basis = oracles.RtBasis(j)
        quad = pb.quad_rule(2 * (j + 1) + 2, "triangle")
        divs = basis.div(quad.points)                     # (Q, dim)
        chi = pb.scalar_basis(j, "triangle").eval(quad.points)
        # project each basis divergence onto P_j and measure the remainder
        mom = np.einsum("q,qi,qb->ib", quad.weights, divs, chi)
        recon = mom @ chi.T                               # (dim, Q)
        resid = np.einsum("q,iq->i", quad.weights, (recon - divs.T) ** 2)
        assert np.sqrt(np.abs(resid)).max() < 1e-10


def test_rt_project_idempotent():
    mesh = build_structured_mesh(4, 4, UNIT, UNIT)
    rng = np.random.default_rng(11)
    for j in (0, 1, 2):
        basis = oracles.RtBasis(j)
        elem = int(rng.integers(mesh.n_elems))
        center = mesh.vertices[mesh.triangles[elem]].mean(axis=0)
        scale = mesh.h_K[elem]
        coeffs = rng.normal(size=basis.dim)
        ref_field = oracles.RtField(basis, elem, center, scale, coeffs)

        def v(x, y):
            return ref_field.eval(np.column_stack([np.ravel(x), np.ravel(y)]))

        out = oracles.rt_project(mesh, elem, j, v)
        pts = mesh.map_points(np.array([elem]),
                              pb.quad_rule(4, "triangle").points)[0]
        assert np.abs(out.eval(pts) - ref_field.eval(pts)).max() < 1e-10 * max(
            1.0, np.abs(ref_field.eval(pts)).max())


def test_rt_face_normal_moments_preserved():
    mesh = build_structured_mesh(3, 3, UNIT, UNIT)
    elem, j = 7, 1

    def v(x, y):
        return np.stack([np.sin(x + 2 * y), np.cos(x) * y], axis=-1)

    field = oracles.rt_project(mesh, elem, j, v, quad_degree=14)
    equad = pb.quad_rule(14, "edge")
    psi = pb.scalar_basis(j, "edge").eval(equad.points)
    for lf in range(3):
        fid = mesh.elem_faces[elem, lf]
        pts = mesh.face_points(np.array([fid]), equad.points)[0]
        n = mesh.elem_face_normal[elem, lf]
        gap = (field.eval(pts) - v(pts[:, 0], pts[:, 1])) @ n
        mom = np.einsum("q,qg,q->g", equad.weights, psi, gap)
        assert np.abs(mom).max() < 1e-10


def test_divergence_moment_identity():
    mesh = build_structured_mesh(3, 3, UNIT, UNIT)

    def v(x, y):
        return np.stack([np.sin(x) * np.cos(y), x ** 2 * y ** 3], axis=-1)

    def div_v(x, y):
        return np.cos(x) * np.cos(y) + 3 * x ** 2 * y ** 2

    for j in (0, 1, 2):
        resid = oracles.divergence_moment_check(mesh, 4, j, v, div_v,
                                                quad_degree=16)
        assert resid < 1e-10
