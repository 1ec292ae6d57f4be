"""Norms, error measures, benchmark quantities, and field export.

The solved coefficient vector is wrapped in WgFields, which gathers it
into local vectors through the DOF map's layouts and evaluates the
piecewise polynomials, their broken gradients and their weak gradients at
reference points shared by all elements or given per element.  Every
quantity here (norms, errors, the divergence scan, the cavity numbers, the
export) is evaluated through WgFields; the rest of this module is a pure
function of (fields, mesh, params).
"""

import numpy as np
import scipy.sparse as sps
import scipy.sparse.linalg as spla

from . import forms
from . import polybasis as pb
from . import weakops as wo
from .mesh import OUTER, mesh_size


class WgFields:
    """Velocity, pressure, and temperature coefficients of one solution.

    coeffs is the global vector laid out by dofmap, whose mesh and method
    parameters the fields take as their own (.mesh, .params); multiplier
    is the mean-pressure Lagrange multiplier.
    """

    def __init__(self, dofmap, coeffs, multiplier=0.0):
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (dofmap.n_dofs,):
            raise ValueError("coefficient vector has length %d, DOF map "
                             "holds %d" % (coeffs.size, dofmap.n_dofs))
        self.mesh = dofmap.mesh
        self.params = dofmap.params
        self.dofmap = dofmap
        self.coeffs = coeffs
        self.multiplier = float(multiplier)

    def copy_with(self, coeffs):
        return WgFields(self.dofmap, coeffs, self.multiplier)

    # -- coefficient views ----------------------------------------------

    def p_interior(self):
        return self.coeffs[self.dofmap.p_interior(self.mesh.fluid_elems)]

    # -- pointwise evaluation: elems are raw element ids, and reference
    #    points are (q, 2), shared by all elements, or (E, q, 2), per element

    def _values(self, coef, degree, ref_points):
        """(E, q, c) values of the c polynomials of degree `degree` whose
        coefficients are coef (E, c, a)."""
        phi = pb.scalar_basis(degree).eval(ref_points)   # (q | E, q, a)
        return np.swapaxes(coef @ np.swapaxes(phi, -1, -2), 1, 2)

    def _gradients(self, coef, elems, ref_points):
        """(E, q, c, 2) physical gradients of the c degree-k polynomials
        whose coefficients are coef (E, c, a): the gradients in reference
        coordinates, mapped by B^{-T}."""
        gphi = pb.scalar_basis(self.params.degree).grad(ref_points)
        gphi = np.swapaxes(gphi, -3, -2)                 # (E |, a, q, 2)
        grad = coef @ gphi.reshape(gphi.shape[:-2] + (-1,))
        e, c = coef.shape[:2]
        grad = grad.reshape(e, -1, 2) @ np.swapaxes(self.mesh.inv_bt[elems],
                                                    1, 2)
        return np.swapaxes(grad.reshape(e, c, -1, 2), 1, 2)

    def velocity_at(self, elems, ref_points):
        """(E, q, 2) values of the interior velocity polynomial."""
        ui = self.coeffs[self.dofmap.u_interior(elems)]
        return self._values(ui, self.params.degree, ref_points)

    def velocity_gradient_at(self, elems, ref_points):
        """(E, q, 2, 2) broken gradient, [d, j] = du_d/dx_j."""
        ui = self.coeffs[self.dofmap.u_interior(elems)]
        return self._gradients(ui, elems, ref_points)

    def pressure_at(self, elems, ref_points):
        pi = self.coeffs[self.dofmap.p_interior(elems)]
        return self._values(pi[:, None], self.params.degree - 1,
                            ref_points)[..., 0]

    def temperature_at(self, elems, ref_points):
        ti = self.coeffs[self.dofmap.t_interior(elems)]
        return self._values(ti[:, None], self.params.degree,
                            ref_points)[..., 0]

    def temperature_gradient_at(self, elems, ref_points):
        ti = self.coeffs[self.dofmap.t_interior(elems)]
        return self._gradients(ti[:, None], elems, ref_points)[:, :, 0]

    def _local_vectors(self, elems, kind):
        """(E, c, ns) coefficients in the local layout [interior | face 0 |
        face 1 | face 2]: the c = 2 velocity components, or the c = 1
        temperature."""
        if kind == "velocity":
            return self.coeffs[self.dofmap.velocity_local(elems)].reshape(
                len(elems), 2, -1)
        return self.coeffs[self.dofmap.scalar_local(elems)][:, None]

    def _weak_gradient_at(self, elems, ref_points, kind):
        """(E, q, c, 2) reconstructed weak gradient of the c components of
        the `kind` field."""
        p = self.params
        G = wo.gradient_matrix(self.mesh, elems, p.degree, p.trace_degree,
                               p.grad_degree)
        vec = self._local_vectors(elems, kind)
        e, c = vec.shape[:2]
        g = (vec @ np.swapaxes(G, 1, 2)).reshape(e, 2 * c, -1)
        return self._values(g, p.grad_degree, ref_points).reshape(
            e, -1, c, 2)

    def velocity_weak_gradient_at(self, elems, ref_points):
        """(E, q, 2, 2) reconstructed weak gradient, [d, j] = d(u_d)/dx_j."""
        return self._weak_gradient_at(elems, ref_points, "velocity")

    def temperature_weak_gradient_at(self, elems, ref_points):
        """(E, q, 2) reconstructed weak gradient of the temperature."""
        return self._weak_gradient_at(elems, ref_points, "temperature")[
            :, :, 0]


# ----------------------------------------------------------------------
# norms


def _norm_elems(mesh, kind):
    """The elements of the `kind` triple norm: the fluid zone for the
    velocity, the whole domain for the temperature."""
    if kind == "velocity":
        return mesh.fluid_elems
    if kind == "temperature":
        return np.arange(mesh.n_elems)
    raise ValueError("kind must be 'velocity' or 'temperature', got %r"
                     % (kind,))


def norm_matrices(mesh, params, kind):
    """The (E, ns, ns) energy blocks of the `kind` triple norm: the
    scheme's scalar diffusion form (forms.scalar_laplacian_blocks) on the
    norm's elements.  They depend only on the geometry, so the two
    velocity components share them, and a caller that takes many norms on
    one mesh builds them once and passes them to triple_norm."""
    return forms.scalar_laplacian_blocks(mesh, _norm_elems(mesh, kind),
                                         params)


def triple_norm(fields, kind, matrices=None):
    """Discrete energy norm of the velocity (fluid zone) or temperature
    (whole domain) part of a WgFields solution: weak-gradient energy plus
    scaled trace jumps, summed over the components.  matrices is
    norm_matrices(mesh, params, kind), built here when None."""
    mesh = fields.mesh
    if matrices is None:
        matrices = norm_matrices(mesh, fields.params, kind)
    vec = fields._local_vectors(_norm_elems(mesh, kind), kind)  # (E, c, ns)
    return np.sqrt(np.einsum("ecs,est,ect->", vec, matrices, vec))


def pressure_l2(fields):
    """L2 norm of the interior pressure over the fluid zone."""
    p = fields.p_interior()
    return float(np.sqrt(np.sum(
        fields.mesh.det_b[fields.mesh.fluid_elems][:, None] * p ** 2)))


# ----------------------------------------------------------------------
# error measurement


class ErrorReport:
    """Relative errors of one solve against a closed-form solution.

    grad_u and grad_t measure the broken gradient of the interior
    polynomials; grad_u_rec and grad_t_rec measure the reconstructed weak
    gradient, which can converge at a different rate when the gradient
    space is smaller than the interior space.
    """

    FIELDS = ("grad_u", "l2_u", "l2_p", "grad_t", "l2_t")

    def __init__(self, grad_u, l2_u, l2_p, grad_t, l2_t, div_h, h,
                 grad_u_rec=None, grad_t_rec=None):
        self.grad_u = grad_u
        self.l2_u = l2_u
        self.l2_p = l2_p
        self.grad_t = grad_t
        self.l2_t = l2_t
        self.div_h = div_h
        self.h = h
        self.grad_u_rec = grad_u_rec
        self.grad_t_rec = grad_t_rec

    def __repr__(self):
        return ("ErrorReport(grad_u=%.4e, l2_u=%.4e, l2_p=%.4e, "
                "grad_t=%.4e, l2_t=%.4e, div_h=%.2e)"
                % (self.grad_u, self.l2_u, self.l2_p, self.grad_t,
                   self.l2_t, self.div_h))


def error_report(fields, exact, div_h=None):
    """Relative L2 and broken-gradient errors against exact fields.

    div_h is the first value of divergence_diagnostic(fields), for a caller
    that has already computed it; None computes it here.
    """
    mesh = fields.mesh
    qr = pb.quad_rule(max(2 * fields.params.degree + 4, 16), "triangle")
    fe = mesh.fluid_elems
    all_e = np.arange(mesh.n_elems)

    def integ(elems, values_sq):
        return np.sum(mesh.det_b[elems][:, None] * qr.weights * values_sq)

    pts_f = mesh.map_points(fe, qr.points)
    xf, yf = pts_f[..., 0], pts_f[..., 1]
    pts_a = mesh.map_points(all_e, qr.points)
    xa, ya = pts_a[..., 0], pts_a[..., 1]

    ue = exact.u(xf, yf)
    ge = exact.grad_u(xf, yf)
    pe = exact.p(xf, yf)
    te = exact.T(xa, ya)
    gte = exact.grad_T(xa, ya)

    uh = fields.velocity_at(fe, qr.points)
    gh = fields.velocity_gradient_at(fe, qr.points)
    ph = fields.pressure_at(fe, qr.points)
    th = fields.temperature_at(all_e, qr.points)
    gth = fields.temperature_gradient_at(all_e, qr.points)

    gh_rec = fields.velocity_weak_gradient_at(fe, qr.points)
    gth_rec = fields.temperature_weak_gradient_at(all_e, qr.points)

    def rel(err_sq, ref_sq):
        return float(np.sqrt(err_sq / ref_sq)) if ref_sq > 0 else \
            float(np.sqrt(err_sq))

    gu_ref = integ(fe, np.sum(ge ** 2, axis=(-2, -1)))
    gt_ref = integ(all_e, np.sum(gte ** 2, axis=-1))
    grad_u = rel(integ(fe, np.sum((gh - ge) ** 2, axis=(-2, -1))), gu_ref)
    l2_u = rel(integ(fe, np.sum((uh - ue) ** 2, axis=-1)),
               integ(fe, np.sum(ue ** 2, axis=-1)))
    l2_p = rel(integ(fe, (ph - pe) ** 2), integ(fe, pe ** 2))
    grad_t = rel(integ(all_e, np.sum((gth - gte) ** 2, axis=-1)), gt_ref)
    l2_t = rel(integ(all_e, (th - te) ** 2), integ(all_e, te ** 2))
    grad_u_rec = rel(integ(fe, np.sum((gh_rec - ge) ** 2, axis=(-2, -1))),
                     gu_ref)
    grad_t_rec = rel(integ(all_e, np.sum((gth_rec - gte) ** 2, axis=-1)),
                     gt_ref)
    if div_h is None:
        div_h, _ = divergence_diagnostic(fields)
    return ErrorReport(grad_u, l2_u, l2_p, grad_t, l2_t, div_h,
                       mesh_size(mesh), grad_u_rec=grad_u_rec,
                       grad_t_rec=grad_t_rec)


def observed_order(errors):
    """Convergence rates log2(e_i / e_{i+1}) for errors on halving meshes."""
    errors = np.asarray(errors, dtype=float)
    if errors.ndim != 1 or len(errors) < 2:
        raise ValueError("need at least two error values")
    if np.any(errors <= 0):
        raise ValueError("errors must be positive to take rates")
    return np.log2(errors[:-1] / errors[1:])


def divergence_diagnostic(fields):
    """(max_K h_K^-1 ||div u0||_K, max_e integral of |[u0 . n]| per face).

    The jump scan covers interior fluid faces (two-sided) and fluid
    boundary faces, where the trace datum is zero.  The element term uses
    the triangle rule of degree 2k+2, which integrates |div u0|^2 (degree
    2k-2) exactly; the face term uses the edge rule of degree 2k+2.
    """
    mesh, params = fields.mesh, fields.params
    qr = pb.quad_rule(2 * params.degree + 2, "triangle")
    fe = mesh.fluid_elems
    grad = fields.velocity_gradient_at(fe, qr.points)
    div = grad[..., 0, 0] + grad[..., 1, 1]
    div_norm = np.sqrt(mesh.det_b[fe] * np.sum(qr.weights * div ** 2, axis=1))
    div_h = float(np.max(div_norm / mesh.h_K[fe])) if len(fe) else 0.0

    # every fluid face, evaluated from each fluid side at once; a side
    # without a fluid element contributes zero (the boundary datum)
    eq = pb.quad_rule(2 * params.degree + 2, "edge")
    ff = mesh.fluid_faces
    pts = mesh.face_points(ff, eq.points)                    # (F, Q, 2)
    jump = np.zeros(pts.shape[:2])
    for side, sign in ((0, 1.0), (1, -1.0)):
        e = mesh.face_elems[ff, side]
        fluid = e >= 0
        fluid[fluid] = mesh.is_fluid[e[fluid]]
        f, e = np.flatnonzero(fluid), e[fluid]
        u = fields.velocity_at(e, mesh.to_reference(e, pts[f]))
        jump[f] += sign * np.einsum("fqd,fd->fq", u, mesh.normals[ff[f]])
    per_face = mesh.h_e[ff] * (np.abs(jump) @ eq.weights)
    worst = float(np.max(per_face)) if len(ff) else 0.0
    return div_h, worst


# ----------------------------------------------------------------------
# cavity benchmark quantities


class CavityReport:
    """Benchmark numbers for the differentially heated cavity."""

    def __init__(self, u1_max, u2_max, nu_bar, nu_max, nu_min, nu_volume):
        self.u1_max = u1_max
        self.u2_max = u2_max
        self.nu_bar = nu_bar
        self.nu_max = nu_max
        self.nu_min = nu_min
        self.nu_volume = nu_volume

    def __repr__(self):
        return ("CavityReport(u1_max=%.4f, u2_max=%.4f, nu_bar=%.4f, "
                "nu_max=%.4f, nu_min=%.4f)" % (
                    self.u1_max, self.u2_max, self.nu_bar, self.nu_max,
                    self.nu_min))


def _segment_in_triangle(verts, axis, value):
    """Intersections of the line {x_axis = value} with closed triangles
    verts (E, 3, 2), as intervals (lo, hi) along the other axis; lo > hi
    where the line misses the triangle."""
    other = 1 - axis
    a, b = verts, np.roll(verts, -1, axis=1)      # edge i runs v_i -> v_i+1
    fa, fb = a[..., axis] - value, b[..., axis] - value
    across = fa * fb < 0
    t = fa / np.where(across, fa - fb, 1.0)
    hits = np.concatenate([np.abs(fa) < 1e-13, across], axis=1)
    spots = np.concatenate(
        [a[..., other], a[..., other] + t * (b[..., other] - a[..., other])],
        axis=1)
    return (np.where(hits, spots, np.inf).min(axis=1),
            np.where(hits, spots, -np.inf).max(axis=1))


# Chebyshev-Lobatto parameters on [0, 1], where the mid-plane velocity and
# the local wall Nusselt number are sampled
_SAMPLES = 0.5 * (1.0 + np.cos(np.pi * np.arange(12) / 11))


def _midplane_extremum(fields, axis, value, component):
    """Largest |u_component| along the line {x_axis = value} through the
    fluid zone, sampling every crossed element (both sides of shared
    edges)."""
    mesh = fields.mesh
    fe = mesh.fluid_elems
    lo, hi = _segment_in_triangle(mesh.vertices[mesh.triangles[fe]], axis,
                                  value)
    crossed = lo <= hi
    if not crossed.any():
        raise ValueError("no fluid element crosses the requested mid-plane")
    e, lo, hi = fe[crossed], lo[crossed], hi[crossed]
    pts = np.empty((len(e), len(_SAMPLES), 2))
    pts[..., axis] = value
    pts[..., 1 - axis] = lo[:, None] + (hi - lo)[:, None] * _SAMPLES
    vals = fields.velocity_at(e, mesh.to_reference(e, pts))[..., component]
    return float(np.max(np.abs(vals)))


def _hot_wall_faces(mesh):
    """Outer fluid faces on the left (heated) wall."""
    ff = mesh.fluid_faces
    faces = ff[(mesh.face_tag[ff] == OUTER) & (mesh.face_wall()[ff] == "left")]
    if not len(faces):
        raise ValueError("the mesh has no fluid faces on the left wall")
    return faces


def _wall_nusselt(fields, faces, t):
    """-dT0/dx of the wall element's polynomial at face points t."""
    mesh = fields.mesh
    e = mesh.face_elems[faces, 0]
    ref = mesh.to_reference(e, mesh.face_points(faces, t))
    return -fields.temperature_gradient_at(e, ref)[..., 0]   # (F, q)


def cavity_report(fields, quad_degree=None):
    """Mid-plane velocity extrema and hot-wall Nusselt numbers.

    nu_bar integrates the local wall Nusselt over the hot wall; nu_volume
    is the cavity-average alternative (u1*T - dT/dx integrated over the
    fluid zone), reported alongside.
    """
    mesh, params = fields.mesh, fields.params
    if quad_degree is None:
        quad_degree = 2 * params.degree + 4
    x0, x1, y0, y1 = mesh.fluid_rect
    u1_max = _midplane_extremum(fields, 0, 0.5 * (x0 + x1), 0)
    u2_max = _midplane_extremum(fields, 1, 0.5 * (y0 + y1), 1)

    faces = _hot_wall_faces(mesh)
    wall = pb.quad_rule(quad_degree, "edge")
    nu_q = _wall_nusselt(fields, faces, wall.points)
    nu_bar = float(np.sum(mesh.h_e[faces][:, None] * wall.weights * nu_q))
    nu_bar /= (y1 - y0)

    nu_s = _wall_nusselt(fields, faces, _SAMPLES)
    nu_max = float(np.max(nu_s))
    nu_min = float(np.min(nu_s))

    qr = pb.quad_rule(quad_degree, "triangle")
    fe = mesh.fluid_elems
    uh = fields.velocity_at(fe, qr.points)
    th = fields.temperature_at(fe, qr.points)
    gth = fields.temperature_gradient_at(fe, qr.points)
    dens = uh[..., 0] * th - gth[..., 0]
    nu_volume = float(np.sum(mesh.det_b[fe][:, None] * qr.weights * dens))
    nu_volume /= (x1 - x0) * (y1 - y0)
    return CavityReport(u1_max, u2_max, nu_bar, nu_max, nu_min, nu_volume)


# ----------------------------------------------------------------------
# stream function


def stream_function(fields):
    """Continuous-P1 stream function of the fluid velocity at mesh vertices.

    Solves -laplace(psi) = curl u_h0 (broken vorticity) with psi = 0 on the
    fluid boundary; vertices outside the fluid zone carry 0.
    """
    mesh = fields.mesh
    fe = mesh.fluid_elems
    tri = mesh.triangles[fe]
    verts = mesh.vertices

    # P1 stiffness on each fluid triangle: the gradient of hat_i is
    # perp(opposite edge) / (2 area)
    v0, v1, v2 = (verts[tri[:, i]] for i in range(3))
    area = 0.5 * mesh.det_b[fe]
    opp = np.stack([v2 - v1, v0 - v2, v1 - v0], axis=1)     # (E, 3, 2)
    perp = np.stack([-opp[..., 1], opp[..., 0]], axis=-1)
    # orient: perp must point toward vertex i; CCW triangles make this hold
    grads = perp / (2.0 * area)[:, None, None]
    K_el = np.einsum("e,eid,ejd->eij", area, grads, grads)

    qr = pb.quad_rule(2 * fields.params.degree + 2, "triangle")
    lam = np.column_stack([1.0 - qr.points.sum(axis=1),
                           qr.points[:, 0], qr.points[:, 1]])
    gu = fields.velocity_gradient_at(fe, qr.points)
    vort = gu[..., 1, 0] - gu[..., 0, 1]
    F_el = np.einsum("e,q,eq,qi->ei", mesh.det_b[fe], qr.weights, vort, lam)

    rows = np.repeat(tri[:, :, None], 3, axis=2)
    cols = np.repeat(tri[:, None, :], 3, axis=1)
    nv = mesh.n_vertices
    K = sps.coo_matrix((K_el.ravel(), (rows.ravel(), cols.ravel())),
                       shape=(nv, nv)).tocsr()
    F = np.zeros(nv)
    np.add.at(F, tri.ravel(), F_el.ravel())

    fluid_verts = np.unique(tri)
    bound = np.unique(mesh.faces[mesh.vel_dirichlet_mask].ravel())
    free = np.setdiff1d(fluid_verts, bound)
    psi = np.zeros(nv)
    if len(free):
        Kff = K[free][:, free].tocsc()
        psi[free] = spla.spsolve(Kff, F[free])
    return psi


# ----------------------------------------------------------------------
# export


def _vertex_averages(fields):
    """Per-vertex averages of the adjacent interior polynomials.

    Returns dict of arrays over mesh vertices: u1, u2 and p averaged over
    adjacent fluid elements (0 where none), T over all adjacent elements.
    """
    mesh = fields.mesh
    nv = mesh.n_vertices
    ref_corners = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    sums = {name: np.zeros(nv) for name in ("u1", "u2", "p", "T")}
    cnt_f = np.zeros(nv)
    cnt_a = np.zeros(nv)

    all_e = np.arange(mesh.n_elems)
    tvals = fields.temperature_at(all_e, ref_corners)      # (E, 3)
    np.add.at(sums["T"], mesh.triangles.ravel(), tvals.ravel())
    np.add.at(cnt_a, mesh.triangles.ravel(), 1.0)

    fe = mesh.fluid_elems
    if len(fe):
        uvals = fields.velocity_at(fe, ref_corners)        # (Ef, 3, 2)
        pvals = fields.pressure_at(fe, ref_corners)
        ids = mesh.triangles[fe].ravel()
        np.add.at(sums["u1"], ids, uvals[..., 0].ravel())
        np.add.at(sums["u2"], ids, uvals[..., 1].ravel())
        np.add.at(sums["p"], ids, pvals.ravel())
        np.add.at(cnt_f, ids, 1.0)

    out = {}
    out["T"] = sums["T"] / np.maximum(cnt_a, 1.0)
    for name in ("u1", "u2", "p"):
        out[name] = sums[name] / np.maximum(cnt_f, 1.0)
    return out


def _lines(fmt, rows):
    """`fmt` filled once per row of `rows`, in a single format operation."""
    return (fmt * len(rows)) % tuple(np.ravel(rows).tolist())


def export_fields(fields, path):
    """Legacy-VTK ASCII dump of vertex-sampled fields (u1, u2, p, T, psi)."""
    mesh = fields.mesh
    data = _vertex_averages(fields)
    data["psi"] = stream_function(fields)
    try:
        with open(path, "w") as fh:
            fh.write("# vtk DataFile Version 3.0\n")
            fh.write("stationary natural convection fields\n")
            fh.write("ASCII\nDATASET UNSTRUCTURED_GRID\n")
            fh.write("POINTS %d double\n" % mesh.n_vertices)
            fh.write(_lines("%.17g %.17g 0\n", mesh.vertices))
            fh.write("CELLS %d %d\n" % (mesh.n_elems, 4 * mesh.n_elems))
            fh.write(_lines("3 %d %d %d\n", mesh.triangles))
            fh.write("CELL_TYPES %d\n" % mesh.n_elems)
            fh.write("5\n" * mesh.n_elems)
            fh.write("POINT_DATA %d\n" % mesh.n_vertices)
            for name in ("u1", "u2", "p", "T", "psi"):
                fh.write("SCALARS %s double 1\nLOOKUP_TABLE default\n"
                         % name)
                fh.write(_lines("%.17g\n", data[name]))
    except OSError as err:
        raise OSError("cannot write field export to %s: %s" % (path, err))
    return path


def write_convergence_csv(reports, path):
    """CSV of error reports plus observed orders, one row per mesh."""
    cols = ErrorReport.FIELDS
    with open(path, "w") as fh:
        fh.write("h," + ",".join(cols) + ","
                 + ",".join("order_" + c for c in cols) + ",div_h\n")
        for i, rep in enumerate(reports):
            row = ["%.17g" % rep.h]
            row += ["%.17g" % getattr(rep, c) for c in cols]
            for c in cols:
                if i == 0:
                    row.append("")
                else:
                    prev = getattr(reports[i - 1], c)
                    row.append("%.3f" % np.log2(prev / getattr(rep, c)))
            row.append("%.3e" % rep.div_h)
            fh.write(",".join(row) + "\n")
    return path


def write_cavity_csv(entries, path):
    """CSV of cavity reports; entries are (label, CavityReport) pairs."""
    with open(path, "w") as fh:
        fh.write("case,u1_max,u2_max,nu_bar,nu_max,nu_min,nu_volume\n")
        for label, rep in entries:
            fh.write("%s,%.10g,%.10g,%.10g,%.10g,%.10g,%.10g\n"
                     % (label, rep.u1_max, rep.u2_max, rep.nu_bar,
                        rep.nu_max, rep.nu_min, rep.nu_volume))
    return path
