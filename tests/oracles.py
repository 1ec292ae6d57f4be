"""Verification oracles shared by the tests; the solver does not use them.

* Raviart-Thomas projection on one element (RtBasis, RtField, rt_project)
  and its divergence moment identity;
* the commuting diagram of the weak gradient with the projections;
* the inf-sup constant of the pressure Schur block;
* the WG interpolant of a closed-form solution;
* the pointwise evaluators of a solution and the affine element maps,
  written as per-element einsum contractions;
* the element kernels of the weak gradient, the diffusion and transport
  forms and the triple norm, written as einsum contractions;
* the structured mesh with its cell diagonals alternating;
* a triplet (COO) assembler of one linearized step, and of the coupling
  a Newton step adds to it, from unit advecting fields;
* the shapes of the two trace Schur complements a step factors;
* the forcing of a manufactured problem recomputed by numerical
  differentiation (Chebyshev fits along axis-parallel lines, which are
  exact for polynomial data), and by sympy's exact Poly arithmetic;
* sympy's lambdified evaluator of an expression, against which the
  package's Horner evaluator is checked.
"""

import numpy as np
from numpy.polynomial import chebyshev as cheb
import scipy.linalg as sla
import scipy.sparse as sps
import scipy.sparse.linalg as spla

from wgconvect import forms
from wgconvect import linsys
from wgconvect import polybasis as pb
from wgconvect import postproc
from wgconvect import weakops as wo
from wgconvect.mesh import Mesh, build_structured_mesh


def tri_monomial_powers(degree):
    """Exponent pairs (a, b) of x^a y^b with a + b <= degree, by total degree."""
    powers = []
    for d in range(degree + 1):
        for b in range(d + 1):
            powers.append((d - b, b))
    return np.array(powers, dtype=np.int64)


# ----------------------------------------------------------------------
# Raviart-Thomas utilities


class RtBasis:
    """Monomial basis of RT_j = [P_j]^2 + x Ptilde_j in local coordinates.

    Fields are expressed in centred, h-scaled coordinates xi = (x - c) / h;
    the spanned space is the same as with raw physical monomials, but the
    projection system stays well conditioned under mesh refinement.
    """

    def __init__(self, degree):
        self.degree = degree
        self.scalar_powers = tri_monomial_powers(degree)
        nj = len(self.scalar_powers)
        self.homog_powers = np.array(
            [(degree - b, b) for b in range(degree + 1)], dtype=np.int64)
        self.dim = 2 * nj + len(self.homog_powers)
        assert self.dim == (degree + 1) * (degree + 3)

    def eval(self, xi):
        """Field values at local points; (npts, dim, 2)."""
        xi = np.asarray(xi, dtype=float)
        q = len(xi)
        nj = len(self.scalar_powers)
        mono = (xi[:, 0:1] ** self.scalar_powers[:, 0]
                * xi[:, 1:2] ** self.scalar_powers[:, 1])        # (q, nj)
        hom = (xi[:, 0:1] ** self.homog_powers[:, 0]
               * xi[:, 1:2] ** self.homog_powers[:, 1])          # (q, j+1)
        out = np.zeros((q, self.dim, 2))
        out[:, :nj, 0] = mono
        out[:, nj:2 * nj, 1] = mono
        out[:, 2 * nj:, 0] = xi[:, 0:1] * hom
        out[:, 2 * nj:, 1] = xi[:, 1:2] * hom
        return out

    def div(self, xi):
        """Divergence with respect to the local coordinates; (npts, dim)."""
        xi = np.asarray(xi, dtype=float)
        q = len(xi)
        nj = len(self.scalar_powers)
        a = self.scalar_powers[:, 0]
        b = self.scalar_powers[:, 1]
        x = xi[:, 0:1]
        y = xi[:, 1:2]
        out = np.zeros((q, self.dim))
        out[:, :nj] = a * x ** np.maximum(a - 1, 0) * y ** b
        out[:, nj:2 * nj] = b * x ** a * y ** np.maximum(b - 1, 0)
        hom = (x ** self.homog_powers[:, 0] * y ** self.homog_powers[:, 1])
        out[:, 2 * nj:] = (self.degree + 2) * hom
        return out


class RtField:
    """A projected RT field on one element, in local coordinates."""

    def __init__(self, basis, elem, center, scale, coeffs):
        self.basis = basis
        self.elem = elem
        self.center = center
        self.scale = scale
        self.coeffs = coeffs

    def _local(self, pts):
        return (np.asarray(pts, dtype=float) - self.center) / self.scale

    def eval(self, pts):
        """Values at physical points; (npts, 2)."""
        vals = self.basis.eval(self._local(pts))
        return np.einsum("i,qid->qd", self.coeffs, vals)

    def div(self, pts):
        """Divergence at physical points; (npts,)."""
        d = self.basis.div(self._local(pts))
        return np.einsum("i,qi->q", self.coeffs, d) / self.scale


def rt_project(mesh, elem, degree, v, quad_degree=None):
    """Project a vector field into RT_degree on one element.

    The projection matches face-normal moments against P_degree on each of
    the three faces and, for degree >= 1, interior moments against
    [P_{degree-1}]^2.  `v` is called as v(x, y) -> (..., 2).
    """
    j = degree
    if quad_degree is None:
        quad_degree = 2 * j + 4
    basis = RtBasis(j)
    center = mesh.vertices[mesh.triangles[elem]].mean(axis=0)
    scale = mesh.h_K[elem]

    rows = np.zeros((basis.dim, basis.dim))
    rhs = np.zeros(basis.dim)
    edge_quad = pb.quad_rule(quad_degree, "edge")
    edge_basis = pb.scalar_basis(j, "edge")
    psi = edge_basis.eval(edge_quad.points)                      # (Q, j+1)
    r = 0
    for lf in range(3):
        fid = mesh.elem_faces[elem, lf]
        pts = mesh.face_points(np.array([fid]), edge_quad.points)[0]  # (Q, 2)
        n = mesh.elem_face_normal[elem, lf]
        wvals = basis.eval((pts - center) / scale)               # (Q, dim, 2)
        wn = wvals @ n                                           # (Q, dim)
        vn = np.asarray(v(pts[:, 0], pts[:, 1])) @ n             # (Q,)
        scale_f = mesh.elem_face_len[elem, lf]
        rows[r:r + j + 1] = scale_f * np.einsum("q,qg,qi->gi",
                                                edge_quad.weights, psi, wn)
        rhs[r:r + j + 1] = scale_f * np.einsum("q,qg,q->g",
                                               edge_quad.weights, psi, vn)
        r += j + 1
    if j >= 1:
        tri_quad = pb.quad_rule(quad_degree, "triangle")
        chi = pb.scalar_basis(j - 1, "triangle").eval(tri_quad.points)
        pts = mesh.map_points(np.array([elem]), tri_quad.points)[0]
        wvals = basis.eval((pts - center) / scale)
        vvals = np.asarray(v(pts[:, 0], pts[:, 1]))
        det = mesh.det_b[elem]
        for d in range(2):
            nb = chi.shape[1]
            rows[r:r + nb] = det * np.einsum("q,qb,qi->bi",
                                             tri_quad.weights, chi, wvals[:, :, d])
            rhs[r:r + nb] = det * np.einsum("q,qb,q->b",
                                            tri_quad.weights, chi, vvals[:, d])
            r += nb
    coeffs = np.linalg.solve(rows, rhs)
    return RtField(basis, elem, center, scale, coeffs)


def divergence_moment_check(mesh, elem, degree, v, div_v, quad_degree=None):
    """Residual of the divergence moment identity of the RT projection.

    For w = rt_project(v), the moments of div(w) against P_degree must equal
    those of div(v).  Returns the max moment residual divided by the size of
    the div(v) moments (or 1 if those vanish).
    """
    if quad_degree is None:
        quad_degree = 2 * degree + 6
    field = rt_project(mesh, elem, degree, v, quad_degree)
    quad = pb.quad_rule(quad_degree, "triangle")
    chi = pb.scalar_basis(degree, "triangle").eval(quad.points)
    pts = mesh.map_points(np.array([elem]), quad.points)[0]
    det = mesh.det_b[elem]
    mom_w = det * np.einsum("q,qb,q->b", quad.weights, chi, field.div(pts))
    mom_v = det * np.einsum("q,qb,q->b", quad.weights, chi,
                            np.asarray(div_v(pts[:, 0], pts[:, 1])))
    scale = max(np.abs(mom_v).max(), 1.0)
    return np.abs(mom_w - mom_v).max() / scale


# ----------------------------------------------------------------------
# commuting-diagram verification


def commutativity_check(mesh, v, grad_v, interior_degree, trace_degree,
                        target_degree, kind="vector", quad_degree=None):
    """Max elementwise residual of the projection/weak-gradient commutation.

    For kind="vector" the interior slot holds the RT projection of v (its
    moments against P_k, which is all the weak gradient sees) and the trace
    slot the facewise projection; the weak gradient must reproduce the
    elementwise projection of grad v onto [P_m]^2 componentwise.  For
    kind="scalar" the interior slot is the plain elementwise projection.

    v(x, y) -> (..., 2) and grad_v(x, y) -> (..., 2, 2) with
    grad_v[..., i, d] = d_d v_i for vectors; scalars drop the i axis.
    """
    k, l, m = interior_degree, trace_degree, target_degree
    if quad_degree is None:
        quad_degree = 2 * k + 6
    ncomp = 2 if kind == "vector" else 1
    dim_m = pb.tri_dim(m)
    G = wo.gradient_matrix(mesh, np.arange(mesh.n_elems), k, l, m)
    worst = 0.0
    for e in range(mesh.n_elems):
        if kind == "vector":
            rt = rt_project(mesh, e, k, v, quad_degree)
        resid2 = 0.0
        for i in range(ncomp):
            if kind == "vector":
                def fi(x, y, _i=i):
                    pts = np.column_stack([np.ravel(x), np.ravel(y)])
                    return rt.eval(pts)[:, _i].reshape(np.shape(x))

                def vi(x, y, _i=i):
                    return np.asarray(v(x, y))[..., _i]

                def gi(x, y, _i=i):
                    return np.asarray(grad_v(x, y))[..., _i, :]
            else:
                fi = vi = v

                def gi(x, y):
                    return np.asarray(grad_v(x, y))
            interior = pb.project_interior(mesh, [e], k, fi, quad_degree)[0]
            traces = [pb.project_face(mesh, [mesh.elem_faces[e, lf]], l, vi,
                                      quad_degree)[0] for lf in range(3)]
            got = G[e] @ np.concatenate([interior, *traces])
            got = got.reshape(2, dim_m)
            want = np.stack([
                pb.project_interior(mesh, [e], m,
                                    lambda x, y, d=d: gi(x, y)[..., d],
                                    quad_degree)[0]
                for d in range(2)])
            resid2 += np.sum((got - want) ** 2)
        worst = max(worst, np.sqrt(mesh.det_b[e] * resid2))
    return worst


# ----------------------------------------------------------------------
# saddle-point sanity


def pressure_schur_smallest(mesh, params, problem):
    """Two smallest generalized eigenvalues of the pressure Schur block.

    The block is B A^-1 B^T over free pressure DOFs, measured against the
    discrete pressure norm (interior L2 plus weak-gradient seminorm).  The
    smallest eigenvalue is the known constant-pressure null mode (should be
    ~0); the second is the squared inf-sup constant, which must not collapse
    under refinement.
    """
    dm = linsys.apply_nonhomogeneous_dirichlet(linsys.DofMap(mesh, params),
                                               problem)
    A, _ = coo_step(linsys.StepAssembler(mesh, params, problem, dm))

    fe = mesh.fluid_elems
    u_dofs = np.concatenate([
        dm.free_index[dm.u_interior(fe).ravel()],
        dm.free_index[dm.u_trace(mesh.fluid_faces).ravel()]])
    u_dofs = np.unique(u_dofs[u_dofs >= 0])
    p_dofs = np.unique(np.concatenate([
        dm.free_index[dm.p_interior(fe).ravel()],
        dm.free_index[dm.p_trace(mesh.fluid_faces).ravel()]]))

    Auu = A[u_dofs][:, u_dofs].tocsc()
    Bpu = A[p_dofs][:, u_dofs].tocsr()
    lu = spla.splu(Auu)
    rhsm = np.asarray(Bpu.todense()).T                  # (nu, np)
    S = Bpu @ lu.solve(rhsm)

    # pressure norm Gram matrix in the same DOF order: interior L2 mass plus
    # the h-scaled weak-gradient seminorm (the scaling that makes the inf-sup
    # constant mesh-uniform)
    k = params.degree
    ploc = dm.pressure_local(fe)
    G = wo.gradient_matrix(mesh, fe, k - 1, k, k)
    wgt = mesh.det_b[fe] * mesh.h_K[fe] ** 2
    N_el = np.einsum("e,eia,eib->eab", wgt, G, G)
    nkm1 = params.pressure_interior_dim
    N_el[:, :nkm1, :nkm1] += mesh.det_b[fe][:, None, None] * np.eye(nkm1)
    rowsN = np.repeat(ploc[:, :, None], ploc.shape[1], axis=2).ravel()
    colsN = np.repeat(ploc[:, None, :], ploc.shape[1], axis=1).ravel()
    Nfull = sps.coo_matrix(
        (N_el.ravel(), (dm.free_index[rowsN], dm.free_index[colsN])),
        shape=(dm.n_free, dm.n_free)).tocsr()
    N = np.asarray(Nfull[p_dofs][:, p_dofs].todense())

    vals = sla.eigh((S + S.T) / 2, N, eigvals_only=True,
                    subset_by_index=[0, 1])
    return float(vals[0]), float(vals[1])


# ----------------------------------------------------------------------
# interpolation


def interpolate_exact(mesh, params, dofmap, exact, quad_degree=None):
    """WG interpolant of a closed-form solution (interior and face L2
    projections componentwise).  Fixed DOFs keep their boundary values."""
    k, l = params.degree, params.trace_degree
    if quad_degree is None:
        quad_degree = 2 * k + 12
    coeffs = dofmap.fixed_values.copy()
    fe = mesh.fluid_elems
    ff = mesh.fluid_faces
    all_e = np.arange(mesh.n_elems)
    all_f = np.arange(mesh.n_faces)

    for d in range(2):
        comp = lambda x, y, d=d: exact.u(x, y)[..., d]
        coeffs[dofmap.u_interior(fe)[:, d, :]] = pb.project_interior(
            mesh, fe, k, comp, quad_degree)
        tr = pb.project_face(mesh, ff, l, comp, quad_degree)
        idx = dofmap.u_trace(ff)[:, d, :]
        free = ~dofmap.fixed_mask[idx]
        coeffs[idx[free]] = tr[free]
    coeffs[dofmap.p_interior(fe)] = pb.project_interior(
        mesh, fe, k - 1, exact.p, quad_degree)
    coeffs[dofmap.p_trace(ff)] = pb.project_face(
        mesh, ff, k, exact.p, quad_degree)
    coeffs[dofmap.t_interior(all_e)] = pb.project_interior(
        mesh, all_e, k, exact.T, quad_degree)
    tr = pb.project_face(mesh, all_f, l, exact.T, quad_degree)
    idx = dofmap.t_trace(all_f)
    free = ~dofmap.fixed_mask[idx]
    coeffs[idx[free]] = tr[free]
    return postproc.WgFields(dofmap, coeffs)


# ----------------------------------------------------------------------
# pointwise evaluation by einsum


def map_points(mesh, elems, ref_points):
    """Mesh.map_points: reference points (q, 2) to physical (E, q, 2)."""
    return (np.einsum("eij,qj->eqi", mesh.B[elems], ref_points)
            + mesh.elem_origin[elems][:, None, :])


def to_reference(mesh, elems, points):
    """Mesh.to_reference: physical points (E, q, 2) to reference ones."""
    return np.einsum("eqd,edj->eqj",
                     points - mesh.elem_origin[elems][:, None],
                     mesh.inv_bt[elems])


class EinsumFields:
    """The WgFields evaluators of `fields`, each basis function's physical
    gradient formed first and every contraction written as an einsum over
    the element axis; reference points are (q, 2) or (E, q, 2)."""

    def __init__(self, fields):
        self.fields = fields
        self.mesh, self.params = fields.mesh, fields.params
        self.dofmap, self.coeffs = fields.dofmap, fields.coeffs

    def _basis(self, degree, ref_points):
        phi = pb.scalar_basis(degree).eval(ref_points)
        return phi.reshape((-1,) + phi.shape[-2:])

    def _physical_grad(self, elems, ref_points):
        gphi = pb.scalar_basis(self.params.degree).grad(ref_points)
        gphi = gphi.reshape((-1,) + gphi.shape[-3:])
        return np.einsum("ejk,eqak->eqaj", self.mesh.inv_bt[elems], gphi)

    def velocity_at(self, elems, ref_points):
        ui = self.coeffs[self.dofmap.u_interior(elems)]
        return np.einsum("eda,eqa->eqd", ui,
                         self._basis(self.params.degree, ref_points))

    def velocity_gradient_at(self, elems, ref_points):
        ui = self.coeffs[self.dofmap.u_interior(elems)]
        return np.einsum("eda,eqaj->eqdj", ui,
                         self._physical_grad(elems, ref_points))

    def pressure_at(self, elems, ref_points):
        pi = self.coeffs[self.dofmap.p_interior(elems)]
        return np.einsum("ea,eqa->eq", pi,
                         self._basis(self.params.degree - 1, ref_points))

    def temperature_at(self, elems, ref_points):
        ti = self.coeffs[self.dofmap.t_interior(elems)]
        return np.einsum("ea,eqa->eq", ti,
                         self._basis(self.params.degree, ref_points))

    def temperature_gradient_at(self, elems, ref_points):
        ti = self.coeffs[self.dofmap.t_interior(elems)]
        return np.einsum("ea,eqaj->eqj", ti,
                         self._physical_grad(elems, ref_points))

    def _weak_gradient_at(self, elems, ref_points, kind):
        p = self.params
        G = wo.gradient_matrix(self.mesh, elems, p.degree, p.trace_degree,
                               p.grad_degree)
        vec = self.fields._local_vectors(elems, kind)
        g = np.einsum("eis,ecs->eci", G, vec).reshape(vec.shape[:2] + (2, -1))
        return np.einsum("ecja,eqa->eqcj", g,
                         self._basis(p.grad_degree, ref_points))

    def velocity_weak_gradient_at(self, elems, ref_points):
        return self._weak_gradient_at(elems, ref_points, "velocity")

    def temperature_weak_gradient_at(self, elems, ref_points):
        return self._weak_gradient_at(elems, ref_points, "temperature")[
            :, :, 0]


def divergence_diagnostic(fields):
    """postproc.divergence_diagnostic through EinsumFields and the einsum
    element maps."""
    mesh, params = fields.mesh, fields.params
    ein = EinsumFields(fields)
    qr = pb.QuadratureRule.triangle(2 * params.degree + 2)
    fe = mesh.fluid_elems
    ui = fields.coeffs[fields.dofmap.u_interior(fe)]
    div = np.einsum("eda,eqad->eq", ui, ein._physical_grad(fe, qr.points))
    div_norm = np.sqrt(mesh.det_b[fe] * np.sum(qr.weights * div ** 2, axis=1))
    div_h = float(np.max(div_norm / mesh.h_K[fe])) if len(fe) else 0.0
    eq = pb.QuadratureRule.edge(2 * params.degree + 2)
    ff = mesh.fluid_faces
    pts = mesh.face_points(ff, eq.points)
    jump = np.zeros(pts.shape[:2])
    for side, sign in ((0, 1.0), (1, -1.0)):
        e = mesh.face_elems[ff, side]
        fluid = e >= 0
        fluid[fluid] = mesh.is_fluid[e[fluid]]
        f, e = np.flatnonzero(fluid), e[fluid]
        u = ein.velocity_at(e, to_reference(mesh, e, pts[f]))
        jump[f] += sign * np.einsum("fqd,fd->fq", u, mesh.normals[ff[f]])
    per_face = mesh.h_e[ff] * (np.abs(jump) @ eq.weights)
    return div_h, float(np.max(per_face)) if len(ff) else 0.0


# ----------------------------------------------------------------------
# element kernels by einsum


def gradient_matrix(mesh, elems, interior_degree, trace_degree,
                    target_degree):
    """weakops.gradient_matrix, each product an einsum."""
    elems = np.atleast_1d(np.asarray(elems, dtype=np.int64))
    D = wo.deriv_table(target_degree, interior_degree)
    E = wo.edge_table(target_degree, trace_degree)
    M_int = -np.einsum("edp,pab->edab", mesh.inv_bt[elems], D)
    fac = mesh.elem_face_len[elems] / mesh.det_b[elems][:, None]
    FS = wo.face_signs(mesh, elems, trace_degree)
    M_face = np.einsum("el,eld,lag,elg->eldag", fac,
                       mesh.elem_face_normal[elems], E, FS)
    ne, dim_r, dim_k = len(elems), D.shape[1], D.shape[2]
    nt = trace_degree + 1
    G = np.zeros((ne, 2 * dim_r, dim_k + 3 * nt))
    G[:, :, :dim_k] = M_int.reshape(ne, 2 * dim_r, dim_k)
    for lf in range(3):
        c0 = dim_k + lf * nt
        G[:, :, c0:c0 + nt] = M_face[:, lf].reshape(ne, 2 * dim_r, nt)
    return G


def face_projection_matrix(mesh, elems, interior_degree, trace_degree):
    """forms.face_projection_matrix by einsum."""
    elems = np.atleast_1d(np.asarray(elems, dtype=np.int64))
    E = wo.edge_table(interior_degree, trace_degree)
    FS = wo.face_signs(mesh, elems, trace_degree)
    return np.einsum("elg,lbg->elgb", FS, E)


def scalar_laplacian_blocks(mesh, elems, params):
    """forms.scalar_laplacian_blocks by einsum, face by face."""
    elems = np.atleast_1d(np.asarray(elems, dtype=np.int64))
    k, l, m = params.degree, params.trace_degree, params.grad_degree
    G = gradient_matrix(mesh, elems, k, l, m)
    S = np.einsum("e,eia,eib->eab", mesh.det_b[elems], G, G)
    P = face_projection_matrix(mesh, elems, k, l)
    nk, nt = params.interior_dim, params.trace_dim
    fac = mesh.elem_face_len[elems] / mesh.h_K[elems][:, None]
    S[:, :nk, :nk] += np.einsum("el,elga,elgb->eab", fac, P, P)
    for lf in range(3):
        c0 = nk + lf * nt
        cross = np.einsum("e,ega->eag", fac[:, lf], P[:, lf])
        S[:, :nk, c0:c0 + nt] -= cross
        S[:, c0:c0 + nt, :nk] -= np.swapaxes(cross, 1, 2)
        S[:, c0:c0 + nt, c0:c0 + nt] += fac[:, lf][:, None, None] * np.eye(nt)
    return S


def skew_convection_blocks(mesh, elems, params, w_interior, w_traces):
    """forms.skew_convection_blocks by einsum, face by face."""
    elems = np.atleast_1d(np.asarray(elems, dtype=np.int64))
    k, l = params.degree, params.trace_degree
    nk, nt, ns = params.interior_dim, params.trace_dim, params.scalar_size
    T = wo.conv_volume_table(k)
    W1 = np.einsum("edg,edp->epg", w_interior, mesh.inv_bt[elems])
    B = np.zeros((len(elems), ns, ns))
    B[:, :nk, :nk] = -np.einsum("e,epg,abgp->eab", mesh.det_b[elems], W1, T)
    F = wo.conv_face_table(k, l)
    FS = wo.face_signs(mesh, elems, l)
    wn = np.einsum("eld,eldg->elg", mesh.elem_face_normal[elems], w_traces)
    for lf in range(3):
        r0 = nk + lf * nt
        B[:, r0:r0 + nt, :nk] = np.einsum(
            "e,eg,ea,abg->eab", mesh.elem_face_len[elems, lf],
            wn[:, lf] * FS[:, lf], FS[:, lf], F[lf])
    return 0.5 * (np.swapaxes(B, 1, 2) - B)


def triple_norm(fields, kind, matrices):
    """postproc.triple_norm with its norm matrices, by einsum."""
    elems = (fields.mesh.fluid_elems if kind == "velocity"
             else np.arange(fields.mesh.n_elems))
    vec = fields._local_vectors(elems, kind)
    return np.sqrt(np.einsum("ecs,est,ect->", vec, matrices, vec))


# ----------------------------------------------------------------------
# a mesh the package does not build


def alternating_mesh(nx, ny, domain, fluid_rect):
    """build_structured_mesh's grid, with every other cell, in a
    checkerboard, cut along the other diagonal (lower left to upper
    right)."""
    base = build_structured_mesh(nx, ny, domain, fluid_rect)
    lower, upper = base.triangles[0::2], base.triangles[1::2]
    v00, v10, v01, v11 = lower[:, 0], lower[:, 1], lower[:, 2], upper[:, 1]
    cell = np.arange(nx * ny)
    flip = (cell % nx + cell // nx) % 2 == 1
    triangles = base.triangles.copy()
    triangles[0::2][flip] = np.column_stack([v00, v10, v11])[flip]
    triangles[1::2][flip] = np.column_stack([v00, v11, v01])[flip]
    return Mesh(base.vertices, triangles, base.elem_subdomain, base.domain,
                base.fluid_rect)


# ----------------------------------------------------------------------
# triplet assembly of one step


def coo_step(asm, w_prev=None):
    """(matrix, rhs) of StepAssembler asm's step at the advecting field
    w_prev, assembled from triplets: every local block of the step is
    listed over its global DOFs, entries in fixed columns are lifted into
    the right-hand side in triplet order, and scipy sums the rest, the
    convection triplets and the mean-pressure border into a CSR matrix."""
    mesh, params, problem, dm = asm.mesh, asm.params, asm.problem, asm.dofmap
    fe = mesh.fluid_elems
    all_e = np.arange(mesh.n_elems)
    nk, nt, ns = params.interior_dim, params.trace_dim, params.scalar_size
    triplets = []

    def dense(loc, blocks):
        m = loc.shape[1]
        triplets.append((np.repeat(loc[:, :, None], m, axis=2).ravel(),
                         np.repeat(loc[:, None, :], m, axis=1).ravel(),
                         blocks.ravel()))

    vloc = dm.velocity_local(fe)
    sloc = dm.scalar_local(all_e)
    ploc = dm.pressure_local(fe)
    dense(vloc, forms.viscous_blocks(mesh, fe, params, problem.pr))
    B = forms.pressure_blocks(mesh, fe, params)
    ui = dm.u_interior(fe)
    r_b = np.broadcast_to(ui[:, :, :, None], B.shape).ravel()
    c_b = np.broadcast_to(ploc[:, None, None, :], B.shape).ravel()
    triplets += [(r_b, c_b, B.ravel()), (c_b, r_b, -B.ravel())]
    fac = forms.buoyancy_factor(mesh, fe, problem.pr, problem.ra)
    triplets.append((ui[:, 1, :].ravel(), dm.t_interior(fe).ravel(),
                     -np.repeat(fac, nk)))
    dense(sloc, forms.conduction_blocks(mesh, all_e, params, problem.kappa))

    rhs = np.zeros(dm.n_dofs)
    qd = max(2 * params.degree + 2, problem.forcing_degree + params.degree)
    fmom = np.stack([
        pb.project_interior(mesh, fe, params.degree,
                            lambda x, y, d=d: problem.f(x, y)[..., d], qd)
        for d in range(2)], axis=1)
    rhs[ui.ravel()] += (mesh.det_b[fe][:, None, None] * fmom).ravel()
    gmom = pb.project_interior(mesh, all_e, params.degree, problem.g, qd)
    rhs[dm.t_interior(all_e).ravel()] += (
        mesh.det_b[all_e][:, None] * gmom).ravel()
    rhs = rhs[dm.free_dofs]

    def reduce(rows, cols, vals):
        r_free, c_free = dm.free_index[rows], dm.free_index[cols]
        lift = (r_free >= 0) & (c_free < 0)
        np.subtract.at(rhs, r_free[lift],
                       vals[lift] * dm.fixed_values[cols[lift]])
        keep = (r_free >= 0) & (c_free >= 0)
        return r_free[keep], c_free[keep], vals[keep]

    parts = [reduce(*(np.concatenate(a) for a in zip(*triplets)))]
    if w_prev is not None and np.any(w_prev):
        w_int = w_prev[dm.u_interior(fe)]
        w_tr = w_prev[dm.u_trace(mesh.elem_faces[fe].ravel())].reshape(
            len(fe), 3, 2, nt)
        S = forms.skew_convection_blocks(mesh, fe, params, w_int, w_tr)
        triplets = []
        vloc2 = vloc.reshape(len(fe), 2, ns)
        for c in range(2):
            dense(vloc2[:, c, :], S)
        dense(sloc[fe], S)
        parts.append(reduce(*(np.concatenate(a) for a in zip(*triplets))))
    n = dm.n_free
    con = dm.free_index[dm.p_interior(fe)[:, 0]]
    con_v = mesh.det_b[fe] / np.sqrt(2.0)
    border = np.full(len(con), n)
    parts += [(border, con, con_v), (con, border, con_v)]
    rows, cols, vals = (np.concatenate(a) for a in zip(*parts))
    mat = sps.coo_matrix((vals, (rows, cols)), shape=(n + 1, n + 1)).tocsr()
    return mat, np.append(rhs, 0.0)


def unit_field_coupling(mesh, elems, params, x):
    """forms.skew_convection_coupling's stack, (E, X, ns, 2 ns), built
    column by column: column j applies to x the skew blocks of the
    advecting field that is 1 at local velocity DOF j and 0 elsewhere,
    through forms.skew_convection_blocks (2 ns calls)."""
    nk, nt, ns = params.interior_dim, params.trace_dim, params.scalar_size
    ne = len(elems)
    out = np.zeros((ne, x.shape[1], ns, 2 * ns))
    for j in range(2 * ns):
        w = np.zeros((ne, 2 * ns))
        w[:, j] = 1.0
        w = w.reshape(ne, 2, ns)
        w_tr = np.moveaxis(w[:, :, nk:].reshape(ne, 2, 3, nt), 2, 1)
        S = forms.skew_convection_blocks(mesh, elems, params, w[:, :, :nk],
                                         w_tr)
        out[..., j] = np.einsum("eab,exb->exa", S, x)
    return out


def newton_coupling(asm, about):
    """The coupling J_c of the Newton step about the full-layout vector
    about, c(du; u, v) + cbar(du; T, s), as a CSR matrix over the step's
    unknowns (free DOFs and the multiplier), summed from triplets of the
    unit-field stacks; rows and columns of fixed DOFs are dropped (its
    columns are velocities, and fixed velocities are zero)."""
    mesh, params, dm = asm.mesh, asm.params, asm.dofmap
    fe, ns = mesh.fluid_elems, params.scalar_size
    vloc, sloc = dm.velocity_local(fe), dm.scalar_local(fe)
    x = np.concatenate([about[vloc].reshape(len(fe), 2, ns),
                        about[sloc][:, None]], axis=1)
    J = unit_field_coupling(mesh, fe, params, x).reshape(len(fe), 3 * ns,
                                                         2 * ns)
    rows = np.broadcast_to(np.concatenate([vloc, sloc], axis=1)[:, :, None],
                           J.shape).ravel()
    cols = np.broadcast_to(vloc[:, None, :], J.shape).ravel()
    r, c = dm.free_index[rows], dm.free_index[cols]
    keep = (r >= 0) & (c >= 0)
    n = dm.n_free
    return sps.coo_matrix((J.ravel()[keep], (r[keep], c[keep])),
                          shape=(n + 1, n + 1)).tocsr()


def schur_shapes(system):
    """Shapes of the matrices solve_sparse factors for one step: the trace
    Schur complements of the temperature block (the free temperature
    traces) and of the flow block (the free velocity traces and the
    pressure traces), counted from the DOF map."""
    dm = system.dofmap
    free = ~dm.fixed_mask
    temp = np.count_nonzero(free[dm.offset["t_tr"]:])
    flow = (np.count_nonzero(free[dm.offset["u_tr"]:dm.offset["p_int"]])
            + np.count_nonzero(free[dm.offset["p_tr"]:dm.offset["t_int"]]))
    return [(temp, temp), (flow, flow)]


# ----------------------------------------------------------------------
# manufactured forcing


def cheb_derivative(fn, center, along, order):
    """Derivative of fn along one axis by Chebyshev fitting.

    Fits a degree-22 Chebyshev series to fn at 24 nodes on a 1D window of
    half-width 0.4 through `center` and differentiates the fit; exact (to
    rounding) for polynomial fields, spectrally accurate otherwise.
    """
    half_width, npts = 0.4, 24
    x0, y0 = center
    nodes = np.cos(np.pi * (2 * np.arange(npts) + 1) / (2 * npts))
    if along == 0:
        xs, ys = x0 + half_width * nodes, np.full(npts, y0)
    else:
        xs, ys = np.full(npts, x0), y0 + half_width * nodes
    coef = cheb.chebfit(nodes, fn(xs, ys), npts - 2)   # nodes lie on [-1, 1]
    for _ in range(order):
        coef = cheb.chebder(coef, scl=1.0 / half_width)
    return cheb.chebval(0.0, coef)


def forcing_residual(problem, n=20, seed=1):
    """Max relative gap, over n random points of the fluid rectangle,
    between the forcing of problem (f and the fluid g, derived from its
    exact fields) and the equations with every derivative of the
    exact fields recomputed by cheb_derivative."""
    exact = problem.exact
    pr, ra, kappa = problem.pr, problem.ra, problem.kappa
    rng = np.random.default_rng(seed)
    x0, x1, y0, y1 = exact.fluid_rect
    u = [lambda x, y, d=d: exact.u(x, y)[..., d] for d in range(2)]
    worst, scale = 0.0, 1.0
    for _ in range(n):
        c = (rng.uniform(x0, x1), rng.uniform(y0, y1))
        lap_u = [sum(cheb_derivative(ui, c, d, 2) for d in range(2))
                 for ui in u]
        conv = [sum(cheb_derivative(
                    lambda x, y, i=i, d=d: u[d](x, y) * u[i](x, y), c, d, 1)
                    for d in range(2)) for i in range(2)]
        gp = [cheb_derivative(exact.p, c, d, 1) for d in range(2)]
        want = np.array([
            -pr * lap_u[0] + conv[0] + gp[0],
            -pr * lap_u[1] + conv[1] + gp[1] - pr * ra * exact.T(*c)])
        got = exact.f(*c)
        lap_T = sum(cheb_derivative(exact.T, c, d, 2) for d in range(2))
        conv_T = sum(cheb_derivative(
            lambda x, y, d=d: u[d](x, y) * exact.T(x, y), c, d, 1)
            for d in range(2))
        want_g = -kappa * lap_T + conv_T
        got_g = exact.g(*c)
        worst = max(worst, np.abs(got - want).max(), abs(got_g - want_g))
        scale = max(scale, np.abs(got).max(), abs(got_g))
    return worst / scale


def sympy_exact(fields, pr, ra, kappa):
    """The exact fields of fields["u1" | "u2" | "p" | "T"], their first
    derivatives and the forcing ExactSolution derives, as sympy Polys in
    (x, y) over the rationals, with pr, ra and kappa at their exact binary
    values.  Keys: the field names, "<field>_x" and "<field>_y", and
    "f1", "f2", "g_fluid", "g_solid"."""
    import sympy as sp
    X, Y = sp.symbols("x y")
    pr, ra, kappa = (sp.Rational(v) for v in (pr, ra, kappa))
    out = {k: sp.Poly(sp.sympify(fields[k]), X, Y)
           for k in ("u1", "u2", "p", "T")}
    u1, u2, p, T = (out[k] for k in ("u1", "u2", "p", "T"))
    for k in ("u1", "u2", "p", "T"):
        out[k + "_x"], out[k + "_y"] = out[k].diff(X), out[k].diff(Y)
    lap = lambda w: w.diff((X, 2)) + w.diff((Y, 2))
    conv = [(u1 * w).diff(X) + (u2 * w).diff(Y) for w in (u1, u2, T)]
    out.update({
        "f1": -pr * lap(u1) + conv[0] + p.diff(X),
        "f2": -pr * lap(u2) + conv[1] + p.diff(Y) - pr * ra * T,
        "g_fluid": -kappa * lap(T) + conv[2],
        "g_solid": -kappa * lap(T),
    })
    return out


def dense(poly, shape):
    """The coefficient array of a sympy Poly in (x, y), c[i, j] that of
    x^i y^j, zero-padded to shape; each coefficient rounded once."""
    c = np.zeros(shape)
    for (i, j), a in zip(poly.monoms(), poly.coeffs()):
        c[i, j] = float(a)
    return c


def lambdify(expr):
    """Numpy evaluator of the expression expr in x and y, through sympy,
    with the broadcast shape of its arguments."""
    import sympy as sp
    fn = sp.lambdify(sp.symbols("x y"), sp.sympify(expr), "numpy")

    def wrapped(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        out = fn(x, y)
        shape = np.broadcast_shapes(x.shape, y.shape)
        return np.broadcast_to(np.asarray(out, dtype=float), shape).copy()

    return wrapped
