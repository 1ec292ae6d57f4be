import numpy as np
import pytest

import oracles
from wgconvect import polybasis as pb
from wgconvect import weakops as wo
from wgconvect.mesh import build_structured_mesh

UNIT = (0.0, 1.0, 0.0, 1.0)
TWO_BY_ONE = (-1.0, 1.0, 0.0, 1.0)


def pullback_poly(mesh, elem, degree, coeffs):
    """Physical callable and physical-gradient callable of an interior poly."""
    basis = pb.scalar_basis(degree, "triangle")
    v0 = mesh.elem_origin[elem]
    inv_bt = mesh.inv_bt[elem]

    def f(x, y):
        xy = np.stack([np.ravel(x) - v0[0], np.ravel(y) - v0[1]], axis=-1)
        return (basis.eval(xy @ inv_bt) @ coeffs).reshape(np.shape(x))

    def g(x, y):
        xy = np.stack([np.ravel(x) - v0[0], np.ravel(y) - v0[1]], axis=-1)
        gr = basis.grad(xy @ inv_bt)
        out = np.einsum("b,qbp,dp->qd", coeffs, gr, inv_bt)
        return out.reshape(np.shape(x) + (2,))

    return f, g


def weak_gradient(mesh, elem, k, l, r, interior, traces):
    """Weak-gradient coefficients (2, dim_r) of one element's weak function
    given its interior and its three face traces."""
    G = wo.gradient_matrix(mesh, [elem], k, l, r)[0]
    return (G @ np.concatenate([interior, *traces])).reshape(2, pb.tri_dim(r))


# ----------------------------------------------------------------------
# the trivial identities


def test_constant_weak_function_has_zero_gradient_and_divergence():
    mesh = build_structured_mesh(2, 2, UNIT, UNIT)
    k = l = 1
    for elem in (0, 3, 5):
        interior = np.zeros(pb.tri_dim(k))
        interior[0] = 4.2 / np.sqrt(2.0)          # v0 = 4.2 everywhere
        traces = [np.array([4.2] + [0.0] * l) for _ in range(3)]
        g = weak_gradient(mesh, elem, k, l, 1, interior, traces)
        assert np.abs(g).max() < 1e-12


def test_weak_gradient_of_matching_pair_is_classical_gradient():
    mesh = build_structured_mesh(2, 2, TWO_BY_ONE, UNIT)
    rng = np.random.default_rng(3)
    for k in (1, 2):
        l = k
        for r in (k - 1, k):
            elem = int(rng.integers(mesh.n_elems))
            coeffs = rng.normal(size=pb.tri_dim(k))
            f, g = pullback_poly(mesh, elem, k, coeffs)
            traces = [pb.project_face(mesh, [mesh.elem_faces[elem, lf]], l, f,
                                      2 * k + 2)[0] for lf in range(3)]
            got = weak_gradient(mesh, elem, k, l, r, coeffs, traces)
            want = np.stack([
                pb.project_interior(mesh, [elem], r,
                                    lambda x, y, d=d: g(x, y)[..., d],
                                    2 * k + 2)[0]
                for d in range(2)])
            assert np.abs(got - want).max() < 1e-12 * max(1, np.abs(want).max())


def test_single_face_indicator_oracle():
    # v0 = 0, vb = 1 on one face: the r=0 weak gradient is (|e|/|K|) n_e
    mesh = build_structured_mesh(1, 1, UNIT, UNIT)
    elem, k, l = 0, 1, 1
    area = 0.5 * mesh.det_b[elem]
    for lf in range(3):
        traces = [np.zeros(l + 1) for _ in range(3)]
        traces[lf][0] = 1.0
        g = weak_gradient(mesh, elem, k, l, 0, np.zeros(pb.tri_dim(k)),
                          traces)                       # (2, 1)
        # constant field value = coeff * sqrt(2)
        val = g[:, 0] * np.sqrt(2.0)
        expect = (mesh.elem_face_len[elem, lf] / area
                  * mesh.elem_face_normal[elem, lf])
        assert np.allclose(val, expect, atol=1e-13)


def test_all_faces_normal_trace_divergence_oracle():
    # vb = outward normal on every face: r=0 weak divergence is |dK| / |K|;
    # it is the sum over d of row d of the weak gradient of component d
    mesh = build_structured_mesh(2, 1, UNIT, UNIT)
    k = l = 1
    for elem in range(mesh.n_elems):
        d = 0.0
        for comp in range(2):
            traces = []
            for lf in range(3):
                t = np.zeros(l + 1)
                t[0] = mesh.elem_face_normal[elem, lf, comp]
                traces.append(t)
            g = weak_gradient(mesh, elem, k, l, 0, np.zeros(pb.tri_dim(k)),
                              traces)                   # (2, 1)
            d = d + g[comp]
        val = d[0] * np.sqrt(2.0)
        expect = mesh.elem_face_len[elem].sum() / (0.5 * mesh.det_b[elem])
        assert val == pytest.approx(expect, rel=1e-13)


# ----------------------------------------------------------------------
# reconstruction identity (the defining moment equations)


def _reconstruction_residual(mesh, elem, k, l, r, rng):
    interior = rng.normal(size=pb.tri_dim(k))
    traces = [rng.normal(size=l + 1) for _ in range(3)]
    g = weak_gradient(mesh, elem, k, l, r, interior, traces)   # (2, dim_r)

    quad = pb.quad_rule(k + r + 2, "triangle")
    basis_r = pb.scalar_basis(r, "triangle")
    phi_r = basis_r.eval(quad.points)
    grad_r = basis_r.grad(quad.points)
    phi_k = pb.scalar_basis(k, "triangle").eval(quad.points)
    det = mesh.det_b[elem]
    inv_bt = mesh.inv_bt[elem]
    v0 = phi_k @ interior                               # (Q,)

    equad = pb.quad_rule(r + l + 2, "edge")
    psi = pb.scalar_basis(l, "edge").eval(equad.points)
    worst = 0.0
    scale = 0.0
    for d in range(2):
        for a in range(basis_r.dim):
            lhs = det * g[d, a]
            # -(v0, div tau) with tau = phi_a e_d
            div_tau = np.einsum("qp,p->q", grad_r[:, a, :], inv_bt[d])
            rhs = -det * np.sum(quad.weights * v0 * div_tau)
            for lf in range(3):
                fid = mesh.elem_faces[elem, lf]
                n = mesh.elem_face_normal[elem, lf]
                # reference coordinates of the face's quadrature points
                pts = mesh.face_points(np.array([fid]), equad.points)[0]
                ref = (pts - mesh.elem_origin[elem]) @ inv_bt
                vb = psi @ traces[lf]
                rhs += (mesh.elem_face_len[elem, lf] * n[d]
                        * np.sum(equad.weights * vb * basis_r.eval(ref)[:, a]))
            worst = max(worst, abs(lhs - rhs))
            scale = max(scale, abs(lhs), abs(rhs))
    return worst / max(scale, 1e-30)


def test_reconstruction_identity():
    mesh = build_structured_mesh(4, 2, TWO_BY_ONE, UNIT)
    rng = np.random.default_rng(17)
    for k, l, r in [(1, 1, 1), (1, 0, 0), (2, 2, 2), (2, 1, 1), (2, 2, 3)]:
        for _ in range(5):
            elem = int(rng.integers(mesh.n_elems))
            assert _reconstruction_residual(mesh, elem, k, l, r, rng) < 1e-11


# ----------------------------------------------------------------------
# commutativity with projections


def test_commutativity_linear_field():
    mesh = build_structured_mesh(2, 2, UNIT, UNIT)

    def v(x, y):
        return np.stack([2.0 * x - y + 1.0, x + 3.0 * y], axis=-1)

    def gv(x, y):
        shp = np.shape(x)
        g = np.zeros(shp + (2, 2))
        g[..., 0, 0] = 2.0
        g[..., 0, 1] = -1.0
        g[..., 1, 0] = 1.0
        g[..., 1, 1] = 3.0
        return g

    assert oracles.commutativity_check(mesh, v, gv, 1, 1, 1) < 1e-12


def test_commutativity_quadratic_vector_field():
    mesh = build_structured_mesh(8, 4, TWO_BY_ONE, UNIT)

    def v(x, y):
        return np.stack([x ** 2 * y, -x * y ** 2], axis=-1)

    def gv(x, y):
        g = np.empty(np.shape(x) + (2, 2))
        g[..., 0, 0] = 2 * x * y
        g[..., 0, 1] = x ** 2
        g[..., 1, 0] = -(y ** 2)
        g[..., 1, 1] = -2 * x * y
        return g

    assert oracles.commutativity_check(mesh, v, gv, 1, 1, 1) < 1e-10


def test_commutativity_scalar_cubic():
    mesh = build_structured_mesh(4, 2, TWO_BY_ONE, UNIT)

    def s(x, y):
        return x ** 3 + y ** 3

    def gs(x, y):
        return np.stack([3 * x ** 2, 3 * y ** 2], axis=-1)

    assert oracles.commutativity_check(mesh, s, gs, 2, 2, 2,
                                       kind="scalar") < 1e-10


def _random_poly_field(rng, degree):
    powers = oracles.tri_monomial_powers(degree)
    c = rng.normal(size=(2, len(powers)))

    def v(x, y):
        x = np.asarray(x, dtype=float)[..., None]
        y = np.asarray(y, dtype=float)[..., None]
        mono = x ** powers[:, 0] * y ** powers[:, 1]
        return np.stack([mono @ c[0], mono @ c[1]], axis=-1)

    def gv(x, y):
        x = np.asarray(x, dtype=float)[..., None]
        y = np.asarray(y, dtype=float)[..., None]
        a, b = powers[:, 0], powers[:, 1]
        dx = a * x ** np.maximum(a - 1, 0) * y ** b
        dy = b * x ** a * y ** np.maximum(b - 1, 0)
        out = np.empty(np.shape(x[..., 0]) + (2, 2))
        for i in range(2):
            out[..., i, 0] = dx @ c[i]
            out[..., i, 1] = dy @ c[i]
        return out

    return v, gv


def _grad_norm(mesh, gv):
    quad = pb.quad_rule(10, "triangle")
    elems = np.arange(mesh.n_elems)
    pts = mesh.map_points(elems, quad.points)
    g = gv(pts[..., 0], pts[..., 1])
    return np.sqrt(np.einsum("e,q,eqid->", mesh.det_b, quad.weights, g ** 2))


def test_commutativity_random_polynomials():
    mesh = build_structured_mesh(4, 2, TWO_BY_ONE, UNIT)
    rng = np.random.default_rng(2024)
    cases = [(1, 1, 1), (1, 1, 0), (2, 2, 2), (2, 1, 1)]
    per_case = 50 // len(cases) + 1
    for k, l, m in cases:
        for _ in range(per_case):
            v, gv = _random_poly_field(rng, k + 1)
            resid = oracles.commutativity_check(mesh, v, gv, k, l, m)
            assert resid <= 1e-9 * _grad_norm(mesh, gv)


# ----------------------------------------------------------------------
# norm equivalence and affine behaviour


def _norm_parts(mesh, elem, k, l, m, interior, traces):
    quad = pb.quad_rule(2 * k, "triangle")
    basis_k = pb.scalar_basis(k, "triangle")
    det = mesh.det_b[elem]
    gphys = np.einsum("b,qbp,dp->qd", interior, basis_k.grad(quad.points),
                      mesh.inv_bt[elem])
    broken = np.sqrt(det * np.sum(quad.weights[:, None] * gphys ** 2))

    g = weak_gradient(mesh, elem, k, l, m, interior, traces)
    weak = np.sqrt(det * np.sum(g ** 2))

    E = wo.edge_table(k, l)
    signs = wo.flip_signs(l)
    stab2 = 0.0
    for lf in range(3):
        proj = E[lf].T @ interior
        if mesh.elem_face_flip[elem, lf]:
            proj = proj * signs
        stab2 += mesh.elem_face_len[elem, lf] * np.sum((proj - traces[lf]) ** 2)
    stab = np.sqrt(stab2 / mesh.h_K[elem])
    return broken, weak, stab


def test_norm_equivalence_bounded_and_refinement_stable():
    rng = np.random.default_rng(99)
    draws = [(int(rng.integers(2)), rng.normal(size=pb.tri_dim(1)),
              [rng.normal(size=2) for _ in range(3)]) for _ in range(200)]
    k = l = m = 1
    maxima = []
    for n in (4, 8):
        mesh = build_structured_mesh(n, n, UNIT, UNIT)
        worst = 0.0
        for shape, interior, traces in draws:
            elem = shape  # elements 0 (lower) and 1 (upper) fix the two shapes
            broken, weak, stab = _norm_parts(mesh, elem, k, l, m,
                                             interior, traces)
            c1 = broken / (weak + stab)
            c2 = weak / (broken + stab)
            worst = max(worst, c1, c2)
        maxima.append(worst)
        assert worst <= 20.0
    print("norm-equivalence constants by mesh:", maxima)
    assert maxima[1] <= maxima[0] + 1e-9


def test_affine_invariance_translation_and_scaling():
    coarse = build_structured_mesh(2, 2, UNIT, UNIT)
    fine = build_structured_mesh(4, 4, UNIT, UNIT)
    k, l, r = 2, 1, 1
    # columns [interior | face 0 | face 1 | face 2] of the weak gradient
    a, b = wo.gradient_matrix(coarse, [0, 2], k, l, r)  # b: translated copy
    assert np.abs(a - b).max() < 1e-12
    c = wo.gradient_matrix(fine, [0], k, l, r)[0]        # half-size copy
    assert np.allclose(c, 2.0 * a, atol=1e-12)
