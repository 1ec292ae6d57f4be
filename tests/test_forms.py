import numpy as np
import pytest

from wgconvect import forms
from wgconvect import polybasis as pb
from wgconvect import weakops as wo
from wgconvect import mesh as msh
from wgconvect.mesh import build_structured_mesh

UNIT = (0.0, 1.0, 0.0, 1.0)
TWO_BY_ONE = (-1.0, 1.0, 0.0, 1.0)


def scalar_triple_norm_sq(mesh, elem, params, vec):
    """|||.|||^2 on one element for a scalar weak function, computed from the
    weak-gradient operator and the face-projection jumps directly."""
    k, l, m = params.degree, params.trace_degree, params.grad_degree
    nk, nt = params.interior_dim, params.trace_dim
    interior = vec[:nk]
    traces = [vec[nk + lf * nt: nk + (lf + 1) * nt] for lf in range(3)]
    g = wo.gradient_matrix(mesh, [elem], k, l, m)[0] @ vec
    total = mesh.det_b[elem] * np.sum(g ** 2)
    P = forms.face_projection_matrix(mesh, [elem], k, l)[0]
    for lf in range(3):
        jump = P[lf] @ interior - traces[lf]
        total += (mesh.elem_face_len[elem, lf] / mesh.h_K[elem]
                  * np.sum(jump ** 2))
    return total


def transport(mesh, elem, params, w0, wb):
    """Scalar skew transport block (ns, ns) of one element."""
    return forms.skew_convection_blocks(mesh, [elem], params,
                                        w0[None], wb[None])[0]


def velocity_transport(mesh, elem, params, w0, wb):
    """Velocity-velocity transport block (2ns, 2ns): the scalar block on
    each component."""
    S = transport(mesh, elem, params, w0, wb)
    ns = params.scalar_size
    out = np.zeros((2 * ns, 2 * ns))
    out[:ns, :ns] = S
    out[ns:, ns:] = S
    return out


def full_pressure_block(mesh, elem, params):
    """Velocity-rows by pressure-columns block (trace rows are zero)."""
    blk = forms.pressure_blocks(mesh, [elem], params)[0]   # (2, nk, np)
    ns = params.scalar_size
    nk = params.interior_dim
    out = np.zeros((2 * params.scalar_size, params.pressure_size))
    out[:nk] = blk[0]
    out[ns:ns + nk] = blk[1]
    return out


def full_buoyancy_block(mesh, elem, params, pr, ra):
    """Velocity-rows by temperature-interior block of Pr Ra (T0 j, v0)."""
    nk = params.interior_dim
    ns = params.scalar_size
    out = np.zeros((2 * params.scalar_size, nk))
    out[ns:ns + nk] = (forms.buoyancy_factor(mesh, [elem], pr, ra)[0]
                       * np.eye(nk))
    return out


def interior_coeffs(mesh, elem, degree, f):
    return pb.project_interior(mesh, [elem], degree, f, 2 * degree + 4)[0]


def matching_scalar_vec(mesh, elem, params, f):
    """Local vector whose traces are the face projections of f."""
    nk, nt = params.interior_dim, params.trace_dim
    vec = np.empty(params.scalar_size)
    vec[:nk] = interior_coeffs(mesh, elem, params.degree, f)
    for lf in range(3):
        fid = mesh.elem_faces[elem, lf]
        vec[nk + lf * nt: nk + (lf + 1) * nt] = pb.project_face(
            mesh, [fid], params.trace_degree, f, 2 * params.degree + 4)[0]
    return vec


# ----------------------------------------------------------------------
# MethodParams


def test_method_params_variants():
    p = forms.MethodParams.from_variant("wg1", 2)
    assert (p.degree, p.trace_degree, p.grad_degree) == (2, 2, 2)
    p = forms.MethodParams.from_variant("WG-II", 2)
    assert (p.degree, p.trace_degree, p.grad_degree) == (2, 2, 1)
    p = forms.MethodParams.from_variant("wg3", 1)
    assert (p.degree, p.trace_degree, p.grad_degree) == (1, 0, 0)
    assert p.variant == "WG-III"


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("label", ["wg1", "wg2", "wg3"])
def test_method_params_name_follows_the_degrees(label, k):
    named = forms.MethodParams.from_variant(label, k)
    p = forms.MethodParams(k, named.trace_degree, named.grad_degree)
    assert p.variant == named.variant == forms.VARIANTS[label]


def test_method_params_rejections():
    with pytest.raises(ValueError):
        forms.MethodParams(0)
    with pytest.raises(ValueError):
        forms.MethodParams(2, trace_degree=0)
    with pytest.raises(ValueError):
        forms.MethodParams(2, trace_degree=2, grad_degree=0)
    with pytest.raises(ValueError):
        forms.MethodParams.from_variant("wg4", 1)


# ----------------------------------------------------------------------
# viscous / conduction


def test_viscous_zero_at_zero():
    mesh = build_structured_mesh(2, 2, UNIT, UNIT)
    params = forms.MethodParams(1)
    A = forms.viscous_blocks(mesh, [0], params, 0.71)[0]
    v = np.zeros(2 * params.scalar_size)
    assert v @ A @ v == 0.0


def test_viscous_coercivity_identity_random():
    mesh = build_structured_mesh(2, 2, UNIT, UNIT)
    rng = np.random.default_rng(42)
    pr = 0.71
    for variant in ("wg1", "wg2"):
        for k in (1, 2):
            params = forms.MethodParams.from_variant(variant, k)
            ns = params.scalar_size
            for _ in range(25):
                elem = int(rng.integers(mesh.n_elems))
                A = forms.viscous_blocks(mesh, [elem], params, pr)[0]
                v = rng.normal(size=2 * ns)
                norm2 = (scalar_triple_norm_sq(mesh, elem, params, v[:ns])
                         + scalar_triple_norm_sq(mesh, elem, params, v[ns:]))
                assert v @ A @ v == pytest.approx(pr * norm2, rel=1e-10)


def test_conduction_coercivity_identity_random():
    mesh = build_structured_mesh(4, 2, TWO_BY_ONE, UNIT)
    rng = np.random.default_rng(43)
    kappa = 1.7
    params = forms.MethodParams.from_variant("wg3", 2)
    for _ in range(25):
        elem = int(rng.integers(mesh.n_elems))   # solid ones included
        A = forms.conduction_blocks(mesh, [elem], params, kappa)[0]
        s = rng.normal(size=params.scalar_size)
        assert s @ A @ s == pytest.approx(
            kappa * scalar_triple_norm_sq(mesh, elem, params, s), rel=1e-10)


def test_viscous_linear_shear_oracle():
    # v0 = (x, 0) with matching traces: gradient has a single unit entry and
    # the stabilization vanishes, so the value is Pr |K|
    mesh = build_structured_mesh(2, 1, UNIT, UNIT)
    params = forms.MethodParams(1)
    pr = 2.5
    for elem in range(mesh.n_elems):
        vec = np.zeros(2 * params.scalar_size)
        vec[:params.scalar_size] = matching_scalar_vec(mesh, elem, params,
                                                       lambda x, y: x)
        A = forms.viscous_blocks(mesh, [elem], params, pr)[0]
        assert vec @ A @ vec == pytest.approx(pr * 0.5 * mesh.det_b[elem],
                                              rel=1e-12)


def test_stabilization_vanishes_for_matching_traces():
    mesh = build_structured_mesh(2, 2, UNIT, UNIT)
    rng = np.random.default_rng(4)
    for k in (1, 2):
        params = forms.MethodParams(k)
        elem = int(rng.integers(mesh.n_elems))
        coeffs = rng.normal(size=params.interior_dim)
        nk, nt = params.interior_dim, params.trace_dim
        P = forms.face_projection_matrix(mesh, [elem], k, params.trace_degree)[0]
        vec = np.empty(params.scalar_size)
        vec[:nk] = coeffs
        for lf in range(3):
            vec[nk + lf * nt: nk + (lf + 1) * nt] = P[lf] @ coeffs
        A = forms.conduction_blocks(mesh, [elem], params, 1.0)[0]
        # total energy must equal the weak-gradient part alone
        G = wo.gradient_matrix(mesh, [elem], k, params.trace_degree,
                               params.grad_degree)[0]
        g = G @ vec
        grad_part = mesh.det_b[elem] * np.sum(g ** 2)
        assert vec @ A @ vec == pytest.approx(grad_part, abs=1e-12, rel=1e-12)


def test_parameter_scaling_is_exact():
    mesh = build_structured_mesh(2, 2, UNIT, UNIT)
    params = forms.MethodParams(1)
    elems = np.arange(mesh.n_elems)
    assert np.array_equal(forms.viscous_blocks(mesh, elems, params, 2.0),
                          2.0 * forms.viscous_blocks(mesh, elems, params, 1.0))
    assert np.array_equal(forms.conduction_blocks(mesh, elems, params, 2.0),
                          2.0 * forms.conduction_blocks(mesh, elems, params, 1.0))
    assert np.array_equal(forms.buoyancy_factor(mesh, elems, 1.0, 2.0),
                          2.0 * forms.buoyancy_factor(mesh, elems, 1.0, 1.0))


# ----------------------------------------------------------------------
# pressure coupling


def test_pressure_block_kills_constants():
    mesh = build_structured_mesh(2, 2, UNIT, UNIT)
    params = forms.MethodParams(2)
    B = full_pressure_block(mesh, 1, params)
    q = np.zeros(params.pressure_size)
    q[0] = 3.0 / np.sqrt(2.0)                     # interior constant 3
    npd = params.pressure_trace_dim
    for lf in range(3):
        q[params.pressure_interior_dim + lf * npd] = 3.0
    assert np.abs(B @ q).max() < 1e-12


def test_pressure_single_face_trace_oracle():
    # q = {0, 1 on face lf}: b(v, q) = |e| (n . c) for constant v0 = c
    mesh = build_structured_mesh(1, 1, UNIT, UNIT)
    params = forms.MethodParams(1)
    elem = 0
    B = full_pressure_block(mesh, elem, params)
    c = np.array([0.7, -1.2])
    v = np.zeros(2 * params.scalar_size)
    v[0] = c[0] / np.sqrt(2.0)
    v[params.scalar_size] = c[1] / np.sqrt(2.0)
    for lf in range(3):
        q = np.zeros(params.pressure_size)
        q[params.pressure_interior_dim + lf * params.pressure_trace_dim] = 1.0
        want = (mesh.elem_face_len[elem, lf]
                * mesh.elem_face_normal[elem, lf] @ c)
        assert v @ B @ q == pytest.approx(want, rel=1e-12)


def test_pressure_block_commutes_with_projection():
    # with q the projected smooth pressure, b(v, q) = (grad p, v0)
    mesh = build_structured_mesh(2, 2, TWO_BY_ONE, UNIT)
    rng = np.random.default_rng(8)
    k = 2
    params = forms.MethodParams(k)
    p = lambda x, y: x ** 3 - y ** 3
    gp = lambda x, y: np.stack([3 * x ** 2, -3 * y ** 2], axis=-1)
    for elem in mesh.fluid_elems:
        q = np.empty(params.pressure_size)
        q[:params.pressure_interior_dim] = interior_coeffs(mesh, elem, k - 1, p)
        npd = params.pressure_trace_dim
        for lf in range(3):
            fid = mesh.elem_faces[elem, lf]
            i0 = params.pressure_interior_dim + lf * npd
            q[i0:i0 + npd] = pb.project_face(mesh, [fid], k, p, 2 * k + 4)[0]
        v = rng.normal(size=2 * params.scalar_size)
        B = full_pressure_block(mesh, elem, params)

        quad = pb.quad_rule(2 * k + 4, "triangle")
        phi = pb.scalar_basis(k, "triangle").eval(quad.points)
        pts = mesh.map_points(np.array([elem]), quad.points)[0]
        g = gp(pts[:, 0], pts[:, 1])
        ns = params.scalar_size
        nk = params.interior_dim
        v0 = np.stack([phi @ v[:nk], phi @ v[ns:ns + nk]], axis=-1)
        want = mesh.det_b[elem] * np.einsum("q,qd->", quad.weights,
                                            g * v0 / 1.0)
        assert v @ B @ q == pytest.approx(want, rel=1e-11)


# ----------------------------------------------------------------------
# buoyancy


def test_buoyancy_constant_oracle():
    mesh = build_structured_mesh(2, 2, UNIT, UNIT)
    params = forms.MethodParams(1)
    pr, ra = 1.0, 10.0
    elem = 2
    D = full_buoyancy_block(mesh, elem, params, pr, ra)
    T = np.zeros(params.interior_dim)
    T[0] = 1.0 / np.sqrt(2.0)                      # T0 = 1
    v = np.zeros(2 * params.scalar_size)
    v[params.scalar_size] = 1.0 / np.sqrt(2.0)     # v0 = (0, 1)
    assert v @ D @ T == pytest.approx(pr * ra * 0.5 * mesh.det_b[elem],
                                      rel=1e-13)
    assert np.abs(D @ np.zeros(params.interior_dim)).max() == 0.0


def test_buoyancy_monomial_oracle():
    # T0 = y, v0 = (0, y) on the triangle (0,0),(1,0),(1,1): integral of y^2
    # over it is 1/12, so the value is Pr Ra / 12
    mesh = build_structured_mesh(1, 1, UNIT, UNIT)
    params = forms.MethodParams(1)
    pr, ra = 0.9, 25.0
    elem = 0
    T = interior_coeffs(mesh, elem, 1, lambda x, y: y)
    v = np.zeros(2 * params.scalar_size)
    v[params.scalar_size:params.scalar_size + params.interior_dim] = T
    D = full_buoyancy_block(mesh, elem, params, pr, ra)
    assert v @ D @ T == pytest.approx(pr * ra / 12.0, rel=1e-13)


# ----------------------------------------------------------------------
# convection


def _random_w(params, rng):
    return (rng.normal(size=(2, params.interior_dim)),
            rng.normal(size=(3, 2, params.trace_dim)))


def test_convection_zero_advecting_field():
    mesh = build_structured_mesh(2, 2, UNIT, UNIT)
    params = forms.MethodParams(1)
    w0 = np.zeros((2, params.interior_dim))
    wb = np.zeros((3, 2, params.trace_dim))
    C = velocity_transport(mesh, 0, params, w0, wb)
    assert np.abs(C).max() == 0.0


def test_convection_skew_symmetry():
    mesh = build_structured_mesh(2, 2, UNIT, UNIT)
    rng = np.random.default_rng(12)
    for k in (1, 2):
        params = forms.MethodParams(k)
        for _ in range(50):
            elem = int(rng.integers(mesh.n_elems))
            w0, wb = _random_w(params, rng)
            C = velocity_transport(mesh, elem, params, w0, wb)
            assert np.abs(C + C.T).max() < 1e-14 * max(1, np.abs(C).max())
            v = rng.normal(size=2 * params.scalar_size)
            assert abs(v @ C @ v) < 1e-11 * max(1.0, np.abs(C).max()
                                                * np.sum(v ** 2))
            Cb = transport(mesh, elem, params, w0, wb)
            s = rng.normal(size=params.scalar_size)
            assert abs(s @ Cb @ s) < 1e-11 * max(1.0, np.abs(Cb).max()
                                                 * np.sum(s ** 2))


def test_convection_hand_oracle():
    # w0 = (1,0) with matching trace, u0 = (x,0), v0 = (y,0), zero traces,
    # on the triangle (0,0),(1,0),(1,1):
    #   B(u,v;w) = -int u01 (w . grad v01) = 0
    #   B(v,u;w) = -int y = -1/6
    #   c(w;u,v) = (0 - (-1/6)) / 2 = 1/12
    mesh = build_structured_mesh(1, 1, UNIT, UNIT)
    params = forms.MethodParams(1)
    elem = 0
    nk, ns = params.interior_dim, params.scalar_size
    w_vec = matching_scalar_vec(mesh, elem, params, lambda x, y: 1.0 + 0 * x)
    w0 = np.zeros((2, nk))
    w0[0] = w_vec[:nk]
    wb = np.zeros((3, 2, params.trace_dim))
    for lf in range(3):
        wb[lf, 0] = w_vec[nk + lf * params.trace_dim:
                          nk + (lf + 1) * params.trace_dim]
    u = np.zeros(2 * params.scalar_size)
    u[:nk] = interior_coeffs(mesh, elem, 1, lambda x, y: x)
    v = np.zeros(2 * params.scalar_size)
    v[:nk] = interior_coeffs(mesh, elem, 1, lambda x, y: y)
    C = velocity_transport(mesh, elem, params, w0, wb)
    assert v @ C @ u == pytest.approx(1.0 / 12.0, rel=1e-12)


# ----------------------------------------------------------------------
# global coercivity identities


def _global_wg_draw(mesh, params, rng, elems, faces):
    """Random global WG function: per-element interiors, per-face traces."""
    interiors = {int(e): rng.normal(size=params.interior_dim) for e in elems}
    traces = {int(f): rng.normal(size=params.trace_dim) for f in faces}
    return interiors, traces


def _local_scalar_vec(mesh, params, e, interiors, traces):
    nk, nt = params.interior_dim, params.trace_dim
    vec = np.zeros(params.scalar_size)
    vec[:nk] = interiors[int(e)]
    for lf in range(3):
        fid = int(mesh.elem_faces[e, lf])
        if fid in traces:
            vec[nk + lf * nt: nk + (lf + 1) * nt] = traces[fid]
    return vec


def test_global_momentum_coercivity_identity():
    mesh = build_structured_mesh(4, 2, TWO_BY_ONE, UNIT)
    rng = np.random.default_rng(77)
    pr = 0.71
    for variant, k in [("wg1", 1), ("wg2", 2), ("wg3", 1)]:
        params = forms.MethodParams.from_variant(variant, k)
        for _ in range(9):
            ui, ut = _global_wg_draw(mesh, params, rng, mesh.fluid_elems,
                                     mesh.fluid_faces)
            vi, vt = _global_wg_draw(mesh, params, rng, mesh.fluid_elems,
                                     mesh.fluid_faces)
            total = 0.0
            norm2 = 0.0
            for e in mesh.fluid_elems:
                vecs = []
                for interiors, traces in ((ui, ut), (vi, vt)):
                    a = _local_scalar_vec(mesh, params, e, interiors, traces)
                    b = _local_scalar_vec(
                        mesh, params, e,
                        {int(e): interiors[int(e)][::-1].copy()}, traces)
                    vecs.append(np.concatenate([a, b]))
                wloc, vloc = vecs
                A = forms.viscous_blocks(mesh, [e], params, pr)[0]
                w0 = wloc.reshape(2, params.scalar_size)[:, :params.interior_dim]
                wb = np.stack([
                    wloc.reshape(2, params.scalar_size)[
                        :, params.interior_dim + lf * params.trace_dim:
                        params.interior_dim + (lf + 1) * params.trace_dim]
                    for lf in range(3)])
                C = velocity_transport(mesh, e, params, w0, wb)
                total += vloc @ (A + C) @ vloc
                ns = params.scalar_size
                norm2 += (scalar_triple_norm_sq(mesh, e, params, vloc[:ns])
                          + scalar_triple_norm_sq(mesh, e, params, vloc[ns:]))
            assert total == pytest.approx(pr * norm2, rel=1e-10)


def test_global_heat_coercivity_identity():
    mesh = build_structured_mesh(4, 2, TWO_BY_ONE, UNIT)
    rng = np.random.default_rng(78)
    kappa = 1.3
    params = forms.MethodParams.from_variant("wg1", 1)
    all_elems = np.arange(mesh.n_elems)
    all_faces = np.arange(mesh.n_faces)
    for _ in range(17):
        si, st = _global_wg_draw(mesh, params, rng, all_elems, all_faces)
        wi, wt = _global_wg_draw(mesh, params, rng, mesh.fluid_elems,
                                 mesh.fluid_faces)
        total = 0.0
        norm2 = 0.0
        for e in all_elems:
            svec = _local_scalar_vec(mesh, params, e, si, st)
            A = forms.conduction_blocks(mesh, [e], params, kappa)[0]
            if mesh.elem_subdomain[e] == msh.FLUID:
                w0 = np.stack([wi[int(e)], 2.0 * wi[int(e)]])
                wb = rng.normal(size=(3, 2, params.trace_dim))
            else:
                w0 = np.zeros((2, params.interior_dim))
                wb = np.zeros((3, 2, params.trace_dim))
            C = transport(mesh, e, params, w0, wb)
            total += svec @ (A + C) @ svec
            norm2 += scalar_triple_norm_sq(mesh, e, params, svec)
        assert total == pytest.approx(kappa * norm2, rel=1e-10)
