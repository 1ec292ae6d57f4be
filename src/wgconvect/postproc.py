"""Norms, error measures, benchmark quantities, and field export.

The solved coefficient vector is wrapped in WgFields, which gathers it
into local vectors through the DOF map's layouts and evaluates the
piecewise polynomials, their broken gradients and their weak gradients at
reference points shared by all elements or given per element.  Every
quantity here (norms, errors, the divergence scan, the cavity numbers, the
export) is evaluated through WgFields; the rest of this module is a pure
function of (fields, mesh, params).
"""

from collections import namedtuple

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
    return np.sqrt(np.sum((vec @ matrices) * vec))


def pressure_l2(fields):
    """L2 norm of the interior pressure over the fluid zone."""
    p = fields.p_interior()
    return float(np.sqrt(np.sum(
        fields.mesh.det_b[fields.mesh.fluid_elems][:, None] * p ** 2)))


# ----------------------------------------------------------------------
# error measurement


class ErrorReport(namedtuple("ErrorReport", "grad_u l2_u l2_p grad_t l2_t "
                             "div_h h grad_u_rec grad_t_rec",
                             defaults=(None, None))):
    """Relative errors of one solve against a closed-form solution.

    grad_u and grad_t measure the broken gradient of the interior
    polynomials; grad_u_rec and grad_t_rec measure the reconstructed weak
    gradient, which can converge at a different rate when the gradient
    space is smaller than the interior space.  FIELDS are the columns of
    the convergence tables.
    """

    __slots__ = ()
    FIELDS = ("grad_u", "l2_u", "l2_p", "grad_t", "l2_t")

    def __repr__(self):
        return ("ErrorReport(grad_u=%.4e, l2_u=%.4e, l2_p=%.4e, "
                "grad_t=%.4e, l2_t=%.4e, div_h=%.2e)" % self[:6])


def error_report(fields, exact, div_h=None):
    """Relative L2 and broken-gradient errors against exact fields.

    div_h is the first value of divergence_diagnostic(fields), for a caller
    that has already computed it; None computes it here.
    """
    mesh = fields.mesh
    qr = pb.quad_rule(max(2 * fields.params.degree + 4, 16), "triangle")
    fe = mesh.fluid_elems
    all_e = np.arange(mesh.n_elems)
    xf, yf = np.moveaxis(mesh.map_points(fe, qr.points), -1, 0)
    xa, ya = np.moveaxis(mesh.map_points(all_e, qr.points), -1, 0)

    def rel(elems, got, want):
        """The L2 error of got against want (values at qr's points of
        elems, summed over their components), relative to want's norm
        where that is not zero."""
        w = mesh.det_b[elems][:, None] * qr.weights
        axes = tuple(range(2, want.ndim))
        err = np.sum(w * np.sum((got - want) ** 2, axis=axes))
        ref = np.sum(w * np.sum(want ** 2, axis=axes))
        return float(np.sqrt(err / ref)) if ref > 0 else float(np.sqrt(err))

    ge, gte = exact.grad_u(xf, yf), exact.grad_T(xa, ya)
    if div_h is None:
        div_h, _ = divergence_diagnostic(fields)
    return ErrorReport(
        rel(fe, fields.velocity_gradient_at(fe, qr.points), ge),
        rel(fe, fields.velocity_at(fe, qr.points), exact.u(xf, yf)),
        rel(fe, fields.pressure_at(fe, qr.points), exact.p(xf, yf)),
        rel(all_e, fields.temperature_gradient_at(all_e, qr.points), gte),
        rel(all_e, fields.temperature_at(all_e, qr.points), exact.T(xa, ya)),
        div_h, mesh_size(mesh),
        rel(fe, fields.velocity_weak_gradient_at(fe, qr.points), ge),
        rel(all_e, fields.temperature_weak_gradient_at(all_e, qr.points),
            gte))


def observed_order(errors):
    """Convergence rates log2(e_i / e_{i+1}) for errors on halving meshes;
    NaN for a pair that holds a zero error, whose rate is undefined."""
    errors = np.asarray(errors, dtype=float)
    if errors.ndim != 1 or len(errors) < 2:
        raise ValueError("need at least two error values")
    if np.any(errors < 0):
        raise ValueError("errors must be nonnegative to take rates")
    coarse, fine = errors[:-1], errors[1:]
    defined = (coarse > 0) & (fine > 0)
    orders = np.full(len(coarse), np.nan)
    orders[defined] = np.log2(coarse[defined] / fine[defined])
    return orders


def convergence_table(reports):
    """(errors, orders), both (n, len(ErrorReport.FIELDS)): the FIELDS
    columns of the n reports on halving meshes, and each row's observed
    orders against the row before; NaN where no order is defined, on the
    first row and where an error of the pair is zero."""
    errors = np.array([[getattr(rep, c) for c in ErrorReport.FIELDS]
                       for rep in reports])
    orders = np.full(errors.shape, np.nan)
    if len(reports) > 1:
        orders[1:] = np.array([observed_order(e) for e in errors.T]).T
    return errors, orders


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


class CavityReport(namedtuple("CavityReport", "u1_max u2_max nu_bar nu_max "
                              "nu_min nu_volume")):
    """Benchmark numbers for the differentially heated cavity."""

    __slots__ = ()

    def __repr__(self):
        return ("CavityReport(u1_max=%.4f, u2_max=%.4f, nu_bar=%.4f, "
                "nu_max=%.4f, nu_min=%.4f)" % self[:5])


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


def cavity_report(fields):
    """Mid-plane velocity extrema and hot-wall Nusselt numbers.

    nu_bar integrates the local wall Nusselt over the hot wall; nu_volume
    is the cavity-average alternative (u1*T - dT/dx integrated over the
    fluid zone), reported alongside.  Both integrals take rules of degree
    2k + 4, exact for u1*T (degree 2k).
    """
    mesh = fields.mesh
    quad_degree = 2 * fields.params.degree + 4
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
    corners = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    fe, all_e = mesh.fluid_elems, np.arange(mesh.n_elems)

    def average(elems, values):
        ids = mesh.triangles[elems].ravel()
        count = np.bincount(ids, minlength=mesh.n_vertices)
        return (np.bincount(ids, values.ravel(), minlength=mesh.n_vertices)
                / np.maximum(count, 1.0))

    u = fields.velocity_at(fe, corners)                     # (Ef, 3, 2)
    return {"u1": average(fe, u[..., 0]), "u2": average(fe, u[..., 1]),
            "p": average(fe, fields.pressure_at(fe, corners)),
            "T": average(all_e, fields.temperature_at(all_e, corners))}


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
    """CSV of error reports plus observed orders, one row per mesh; an
    undefined order is an empty cell."""
    cols = ErrorReport.FIELDS
    errors, orders = convergence_table(reports)
    with open(path, "w") as fh:
        fh.write("h," + ",".join(cols) + ","
                 + ",".join("order_" + c for c in cols) + ",div_h\n")
        for rep, errs, ords in zip(reports, errors, orders):
            row = (["%.17g" % rep.h] + ["%.17g" % e for e in errs]
                   + ["" if np.isnan(o) else "%.3f" % o for o in ords]
                   + ["%.3e" % rep.div_h])
            fh.write(",".join(row) + "\n")
    return path


def write_cavity_csv(entries, path):
    """CSV of cavity reports; entries are (label, CavityReport) pairs."""
    with open(path, "w") as fh:
        fh.write(",".join(("case",) + CavityReport._fields) + "\n")
        for label, rep in entries:
            fh.write(",".join([str(label)] + ["%.10g" % v for v in rep])
                     + "\n")
    return path
