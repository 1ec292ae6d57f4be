"""Global degrees of freedom, assembly of one linearized step, and solves.

Global coefficient layout (all DOFs, fixed ones included), in blocks:

    [ velocity interiors (fluid elements, component-major)
    | velocity traces    (fluid-adjacent faces, component-major)
    | pressure interiors (fluid elements)
    | pressure traces    (fluid-adjacent faces)
    | temperature interiors (all elements)
    | temperature traces (all faces) ]

plus one trailing scalar multiplier enforcing the zero mean of the interior
pressure over the fluid zone; the multiplier lives only in the reduced
(free-DOF) system, at index n_free.

Each linearized step freezes the advecting velocity w and solves

    a(u,v) + c(w;u,v) + b(v,p) - b(u,q) - d(T,v) = (f, v0)
    abar(T,s) + cbar(w;T,s) = (g, s0)

for (u, p, T); Dirichlet data is lifted to the right-hand side.  The
temperature rows do not involve (u, p), so the step matrix is block lower
triangular: it is assembled as one sparse system, and solve_sparse, the one
solve path, solves the temperature block first and then the flow block
(velocity, pressure and the multiplier) with the buoyancy d(T, v) moved to
the right-hand side.  The whole matrix is singular exactly when one of its
diagonal blocks is, so nothing is factored whole.

Each element's interior unknowns (T_0; u_0 and p_0) couple only to each
other and to the element's own traces, so each block is factored by block
LU through its interiors (Condensation), straight from the element
matrices that StepAssembler keeps: the small dense interior blocks are
inverted as one batch, and only the Schur complement on the traces, summed
over the elements, is a sparse factor, ordered by minimum degree on
S + S^T.  No diagonal entry of it is zero, unlike the uncondensed flow
block's pressure rows.  The velocity-pressure part of the flow block fixes
the pressure only up to a constant; its Schur factor is grounded on one
pressure trace, and MeanPressureBlock meets the mean-pressure row and
column through the constant pressure, so the applied inverse is exactly
that of the block.

The step matrix is summed from the same element matrices, plus the
buoyancy and the mean-pressure row and column.  It has the same sparsity
pattern at every advecting field: StepAssembler builds it once, with the
static values, and a step sums its convection values into fixed slots of
it.  solve_sparse solves each block
with a held factor: oseen_solve keeps one HeldFactor per block for its
Picard steps, since both blocks change only through w.  Each block is
solved by sweeps x += M^-1 (b - A x) against its rows of the current step
matrix A, where M is the factored matrix, starting from the block's
solution of the previous step, until the block residual is a tenth of the
1e-10 contract; a held factor that stalls is dropped, the block refactored
and solved from zero.  The sweeps are what make the velocity divergence
free to rounding, at any factor age: the divergence rows b(u,q) and the
mean-pressure row do not depend on w, so M equals A in those rows, A M^-1
is the identity there, and each sweep sets their residual to rounding.
The whole-matrix 1e-10 check, relative to the whole right-hand side, does
not bound those rows on its own, since their right side is zero.  A
singular element interior block or Schur factor, or a residual above
1e-10, raises RuntimeError naming the block (and the element).
"""

import numpy as np
import scipy.sparse as sps
import scipy.sparse.linalg as spla

from . import forms
from . import polybasis as pb
from .mesh import OUTER


class DofMap:
    """Index bookkeeping plus per-DOF fixed/free status.

    Velocity traces on the fluid boundary (outer fluid walls and the
    fluid-solid interface) are fixed to zero at construction; temperature
    conditions are applied afterwards by apply_nonhomogeneous_dirichlet.
    """

    def __init__(self, mesh, params):
        self.mesh = mesh
        self.params = params
        k, l = params.degree, params.trace_degree
        nk, nt = params.interior_dim, params.trace_dim
        nkm1, ntp = params.pressure_interior_dim, params.pressure_trace_dim

        self.n_fluid_elems = len(mesh.fluid_elems)
        self.n_fluid_faces = len(mesh.fluid_faces)
        self.elem_fluid_pos = np.full(mesh.n_elems, -1, dtype=np.int64)
        self.elem_fluid_pos[mesh.fluid_elems] = np.arange(self.n_fluid_elems)
        self.face_fluid_pos = np.full(mesh.n_faces, -1, dtype=np.int64)
        self.face_fluid_pos[mesh.fluid_faces] = np.arange(self.n_fluid_faces)

        sizes = [
            ("u_int", 2 * nk * self.n_fluid_elems),
            ("u_tr", 2 * nt * self.n_fluid_faces),
            ("p_int", nkm1 * self.n_fluid_elems),
            ("p_tr", ntp * self.n_fluid_faces),
            ("t_int", nk * mesh.n_elems),
            ("t_tr", nt * mesh.n_faces),
        ]
        self.offset = {}
        pos = 0
        for name, size in sizes:
            self.offset[name] = pos
            pos += size
        self.n_dofs = pos

        self.fixed_mask = np.zeros(self.n_dofs, dtype=bool)
        self.fixed_values = np.zeros(self.n_dofs)
        vel_faces = np.flatnonzero(mesh.vel_dirichlet_mask)
        self.fixed_mask[self.u_trace(vel_faces).ravel()] = True
        self._rebuild()

    def _rebuild(self):
        self.free_index = np.full(self.n_dofs, -1, dtype=np.int64)
        free = ~self.fixed_mask
        self.n_free = int(np.sum(free))
        # free DOFs keep the global block order: the free velocity and
        # pressure DOFs come first, then the free temperature DOFs
        self.n_free_flow = int(np.sum(free[:self.offset["t_int"]]))
        self.free_index[free] = np.arange(self.n_free)
        self.free_dofs = np.flatnonzero(free)

    # -- index helpers (vectorized over elements/faces) -----------------

    def u_interior(self, elems):
        """(E, 2, nk) global indices; elements must be fluid."""
        nk = self.params.interior_dim
        fe = self.elem_fluid_pos[np.atleast_1d(elems)]
        if np.any(fe < 0):
            raise ValueError("velocity DOFs requested on a solid element")
        base = self.offset["u_int"] + 2 * nk * fe
        return (base[:, None, None] + nk * np.arange(2)[None, :, None]
                + np.arange(nk)[None, None, :])

    def u_trace(self, faces):
        """faces.shape + (2, nt) global indices."""
        nt = self.params.trace_dim
        ff = self.face_fluid_pos[np.atleast_1d(faces)]
        if np.any(ff < 0):
            raise ValueError("velocity trace DOFs requested on a solid face")
        base = self.offset["u_tr"] + 2 * nt * ff
        return (base[..., None, None] + nt * np.arange(2)[:, None]
                + np.arange(nt))

    def p_interior(self, elems):
        """(E, nkm1) global indices; elements must be fluid."""
        nkm1 = self.params.pressure_interior_dim
        fe = self.elem_fluid_pos[np.atleast_1d(elems)]
        if np.any(fe < 0):
            raise ValueError("pressure DOFs requested on a solid element")
        return self.offset["p_int"] + nkm1 * fe[:, None] + np.arange(nkm1)

    def p_trace(self, faces):
        """faces.shape + (ntp,) global indices; faces must be fluid."""
        ntp = self.params.pressure_trace_dim
        ff = self.face_fluid_pos[np.atleast_1d(faces)]
        if np.any(ff < 0):
            raise ValueError("pressure trace DOFs requested on a solid face")
        return self.offset["p_tr"] + ntp * ff[..., None] + np.arange(ntp)

    def t_interior(self, elems):
        nk = self.params.interior_dim
        elems = np.atleast_1d(elems)
        return self.offset["t_int"] + nk * elems[:, None] + np.arange(nk)

    def t_trace(self, faces):
        nt = self.params.trace_dim
        faces = np.atleast_1d(faces)
        return self.offset["t_tr"] + nt * faces[..., None] + np.arange(nt)

    # -- local layouts matching the forms module ------------------------

    def velocity_local(self, elems):
        """(E, 2 ns) indices in the component-major local velocity layout."""
        elems = np.atleast_1d(elems)
        return _local(self.u_interior(elems),
                      self.u_trace(self.mesh.elem_faces[elems])
                      ).reshape(len(elems), -1)

    def scalar_local(self, elems):
        """(E, ns) temperature-layout indices, valid on every element."""
        elems = np.atleast_1d(elems)
        return _local(self.t_interior(elems),
                      self.t_trace(self.mesh.elem_faces[elems]))

    def pressure_local(self, elems):
        elems = np.atleast_1d(elems)
        return _local(self.p_interior(elems),
                      self.p_trace(self.mesh.elem_faces[elems]))


def _local(interior, traces):
    """Join (E, ..., a) interior and (E, 3, ..., t) trace indices into the
    local layout [interior | face 0 | face 1 | face 2], (E, ..., a + 3 t)."""
    traces = np.moveaxis(traces, 1, -2)
    return np.concatenate(
        [interior, traces.reshape(traces.shape[:-2] + (-1,))], axis=-1)


def apply_nonhomogeneous_dirichlet(dofmap, problem):
    """Fix temperature traces on Dirichlet walls to face-projected data.

    Insulated walls stay free.  Returns the updated dofmap.
    """
    mesh = dofmap.mesh
    l = dofmap.params.trace_degree
    quad_degree = 2 * dofmap.params.degree + 4
    wall_of = mesh.face_wall()
    outer = np.flatnonzero(mesh.face_tag == OUTER)
    unassigned = outer[wall_of[outer] == ""]
    if len(unassigned):
        raise ValueError("boundary faces %s lie on no wall"
                         % unassigned.tolist())
    missing = sorted(set(wall_of[outer]) - set(problem.temp_bc))
    if missing:
        raise ValueError("walls %s carry neither temperature data nor an "
                         "insulation flag" % missing)
    for wall, (kind, _) in problem.temp_bc.items():
        faces = outer[wall_of[outer] == wall]
        if kind == "insulated" or len(faces) == 0:
            continue
        data = problem.temp_dirichlet_fn(wall)
        coeffs = pb.project_face(mesh, faces, l, data, quad_degree)
        idx = dofmap.t_trace(faces)
        dofmap.fixed_mask[idx.ravel()] = True
        dofmap.fixed_values[idx.ravel()] = coeffs.ravel()
    dofmap._rebuild()
    return dofmap


class GlobalSystem:
    """One assembled linear step over the free DOFs plus the multiplier.

    border_index is the mean-pressure multiplier's row and column.
    flow_index lists the flow block: the free velocity and pressure DOFs,
    which come first in the free ordering, then the multiplier.  The free
    temperature DOFs fill the range between them, flow_size:border_index,
    and their rows have no entry in the flow columns.  All three are read
    from the DofMap.

    factors is a (temperature, flow) pair of functions: each factors its
    diagonal block of matrix from the element matrices and returns the
    function applying the block's inverse (see Condensation and
    MeanPressureBlock).  StepAssembler.assemble supplies them.
    """

    def __init__(self, matrix, rhs, dofmap, factors):
        self.matrix = matrix
        self.rhs = rhs
        self.dofmap = dofmap
        self.border_index = dofmap.n_free
        self.flow_size = dofmap.n_free_flow
        self.flow_index = np.append(np.arange(self.flow_size),
                                    self.border_index)
        self.factors = factors

    def expand(self, x):
        """Scatter a reduced solution to the full coefficient vector.

        Returns (full_coefficients, multiplier_value).
        """
        dm = self.dofmap
        full = dm.fixed_values.copy()
        full[dm.free_dofs] = x[:dm.n_free]
        return full, float(x[dm.n_free])


def _pattern(keys, size):
    """The compressed sparse pattern of entries keyed major * size + minor,
    duplicates included: (slot, indices, indptr), where slot is each key's
    place in indices.  indices and indptr are int32, scipy's index dtype, so
    a matrix built on them keeps them without a copy."""
    unique, slot = np.unique(keys, return_inverse=True)
    indptr = np.zeros(size + 1, dtype=np.int32)
    np.cumsum(np.bincount(unique // size, minlength=size), out=indptr[1:])
    return slot, (unique % size).astype(np.int32), indptr


def _element_keys(loc, size, stored=True):
    """The keys row * size + col of an element stack's entries over the
    reduced indices loc (E, L) that lie in free rows and columns and in the
    (L, L) mask stored: (keys, kept), kept the (E, L, L) mask of them."""
    kept = (loc[:, :, None] >= 0) & (loc[:, None, :] >= 0) & stored
    return (loc[:, :, None] * size + loc[:, None, :])[kept], kept


def _lifted(loc, dofs, fixed_values):
    """An element stack's entries in a free row and a fixed column, in
    entry order, for the stack over the reduced indices loc (E, L) of the
    DOFs dofs: (at, rows, values), at their flat places in the stack, rows
    their reduced rows and values the fixed data of their columns."""
    lift = (loc[:, :, None] >= 0) & (loc[:, None, :] < 0)
    rows = np.broadcast_to(loc[:, :, None], lift.shape)[lift]
    cols = np.broadcast_to(dofs[:, None, :], lift.shape)[lift]
    return np.flatnonzero(lift), rows, fixed_values[cols]


class Condensation:
    """Block LU of one diagonal block through its element interiors.

    Every element's interior unknowns couple only to each other and to the
    element's own traces, so the block is, in the interiors I and the
    traces B,

        [A_II  A_IB]      A_II block diagonal, one small dense block
        [A_BI  A_BB]      per element,

    and it is the sum of its element matrices, a stack (E, L, L) in the
    elements' local layout.  `local` (E, L) holds each element's reduced
    indices in that layout, -1 for a fixed DOF: its first `n_inner`
    positions are the interiors, the others traces.  `index` lists the
    block's rows and columns in reduced numbering, and `elems` names the
    elements in errors.

    `factor(stack)` inverts the element blocks of A_II all at once, sums
    the elements' A_BB - A_BI A_II^-1 A_IB into the trace Schur complement
    S and factors it; the function it returns applies the exact inverse of
    the block, as y = A_II^-1 r_I, x_B = S^-1 (r_B - A_BI y),
    x_I = y - A_II^-1 A_IB x_B.  With `ground`, a trace, 1 is added to S at
    (ground, ground) first, so the inverse is that of the block with that
    1 added.  S's pattern, the union of the elements' trace blocks, is
    found here once.
    """

    def __init__(self, local, n_inner, size, index, elems, name,
                 ground=None):
        self.name = name
        self._elems = elems
        self._k = n_inner
        traces = local[:, n_inner:]
        # index size - 1 is the border, never a trace, so this also drops -1
        in_tr = np.zeros(size, dtype=bool)
        in_tr[traces] = True
        in_tr[-1] = False
        tr = np.flatnonzero(in_tr)
        m = len(tr)
        pos = np.full(size, -1)
        pos[index] = np.arange(len(index))

        # S numbers the free traces in reduced order, m stands for a fixed
        # one; its pattern is kept in CSC order, and _s_to is the slot of
        # each element's trace block entry (nnz for a fixed row or column)
        spos = np.full(size, m)
        spos[tr] = np.arange(m)
        s = spos[traces]                                    # (E, t)
        valid = (s[:, :, None] < m) & (s[:, None, :] < m)
        pair = (s[:, None, :] * m + s[:, :, None])[valid]   # col * m + row
        to, self._s_rows, self._s_ptr = _pattern(pair, m)
        self._s_nnz = len(self._s_rows)
        self._s_to = np.full(valid.shape, self._s_nnz)
        self._s_to[valid] = to
        self._ground = (None if ground is None else
                        int(to[np.argmax(pair == spos[ground] * (m + 1))]))
        self._s = s
        self._int_pos = pos[local[:, :n_inner]]
        self._tr_pos = pos[tr]
        self._m = m

    def factor(self, stack):
        """Factor the block whose element matrices are stack; returns the
        function applying its inverse to a block vector."""
        k = self._k
        a_ii = stack[:, :k, :k]
        try:
            inv = np.linalg.inv(a_ii)
        except np.linalg.LinAlgError as err:
            for e, block in enumerate(a_ii):
                try:
                    np.linalg.inv(block)
                except np.linalg.LinAlgError:
                    break
            raise RuntimeError("%s: the interior block of element %d is "
                               "singular (%s)" % (self.name, self._elems[e],
                                                  err)) from err
        x_ib = inv @ stack[:, :k, k:]                       # A_II^-1 A_IB
        # a copy, so that a held inverse does not keep the stack alive
        a_bi = stack[:, k:, :k].copy()
        m, nnz = self._m, self._s_nnz
        s_el = a_bi @ x_ib
        np.subtract(stack[:, k:, k:], s_el, out=s_el)
        s_data = np.bincount(self._s_to.ravel(), s_el.ravel(),
                             minlength=nnz + 1)[:nnz]
        if self._ground is not None:
            s_data[self._ground] += 1.0
        schur = sps.csc_matrix((s_data, self._s_rows, self._s_ptr),
                               shape=(m, m))
        schur_inverse = _factor(schur, self.name).solve
        int_pos, tr_pos, s = self._int_pos, self._tr_pos, self._s

        def apply(r):
            y = (inv @ r[int_pos][..., None])[..., 0]
            r_b = r[tr_pos] - np.bincount(
                s.ravel(), (a_bi @ y[..., None]).ravel(),
                minlength=m + 1)[:m]
            x_b = schur_inverse(r_b)
            x = np.empty_like(r)
            x[tr_pos] = x_b
            x[int_pos] = y - (x_ib @ np.append(x_b, 0.0)[s][..., None]
                              )[..., 0]
            return x

        return apply


class MeanPressureBlock:
    """The inverse of the flow block [[K, c], [c^T, 0]]: K on the free
    velocity and pressure DOFs, c (a static vector of the assembler) the
    mean-pressure column, which is also the row.

    K fixes the pressure only up to a constant: the constant pressure z
    (`constant_pressure`, 1 projected onto every pressure interior and
    trace) has K z = 0 = z^T K, and z.c is the fluid area.  `condensed`
    factors K grounded on a pressure trace q, G = K + e_q e_q^T, with
    z_q = 1.  `factor` returns the exact inverse of the block: for the
    block vector [v; s],

        lam = z.v / z.c,   y = G^-1 (v - lam c),   x = y + ((s - c.y) / z.c) z,

    since z^T (v - lam c) = 0 makes y_q = 0 and K y = v - lam c.
    """

    def __init__(self, condensed, dofmap, c):
        self._condensed = condensed

        def one(x, y):
            return np.ones_like(x)

        # a rule exact to degree k: the pressure traces have degree k
        mesh, k = dofmap.mesh, dofmap.params.degree
        fe, faces = mesh.fluid_elems, mesh.fluid_faces
        z = np.zeros(dofmap.n_dofs)
        z[dofmap.p_interior(fe)] = pb.project_interior(mesh, fe, k - 1, one, k)
        z[dofmap.p_trace(faces)] = pb.project_face(mesh, faces, k, one, k)
        self.constant_pressure = z[dofmap.free_dofs[:dofmap.n_free_flow]]
        self._c = c
        self._zc = self.constant_pressure @ c

    def factor(self, stack):
        """Factor the flow block whose element matrices are stack; returns
        the function applying its inverse to a flow block vector."""
        inverse = self._condensed.factor(stack)
        z, c, zc = self.constant_pressure, self._c, self._zc

        def apply(v):
            lam = z @ v[:-1] / zc
            y = inverse(v[:-1] - lam * c)
            return np.append(y + (v[-1] - c @ y) / zc * z, lam)

        return apply


class StepAssembler:
    """Assembles Oseen steps, reusing everything that does not depend on the
    frozen advecting field (diffusion, pressure coupling, buoyancy,
    conduction, forcing moments, the mean-pressure row).

    It keeps the element matrices of both diagonal blocks without
    convection, and sums the static step matrix from them.  A step sums its
    convection blocks into fixed slots of that matrix, and its factor
    functions add them to the element matrices and factor through
    `temperature` (a Condensation) and `flow` (a MeanPressureBlock).
    """

    def __init__(self, mesh, params, problem, dofmap=None):
        self.mesh = mesh
        self.params = params
        self.problem = problem
        if dofmap is None:
            dofmap = apply_nonhomogeneous_dirichlet(DofMap(mesh, params),
                                                    problem)
        self.dofmap = dofmap
        self._build_static()

    def _build_static(self):
        mesh, params, problem = self.mesh, self.params, self.problem
        dm = self.dofmap
        fe = mesh.fluid_elems
        all_e = np.arange(mesh.n_elems)
        nk, ns = params.interior_dim, params.scalar_size

        vloc = dm.velocity_local(fe)                     # (Ef, 2ns)
        sloc = dm.scalar_local(all_e)                    # (E, ns)
        ploc = dm.pressure_local(fe)                     # (Ef, np)
        ui = dm.u_interior(fe)                           # (Ef, 2, nk)

        rhs = np.zeros(dm.n_dofs)
        qd = max(2 * params.degree + 2,
                 problem.forcing_degree + params.degree)
        fmom = pb.project_interior(mesh, fe, params.degree, problem.f,
                                   qd)                   # (Ef, 2, nk)
        rhs[ui.ravel()] += (mesh.det_b[fe][:, None, None] * fmom).ravel()
        gmom = pb.project_interior(mesh, all_e, params.degree, problem.g, qd)
        rhs[dm.t_interior(all_e).ravel()] += (
            mesh.det_b[all_e][:, None] * gmom).ravel()
        self._static_rhs = rhs[dm.free_dofs]

        # the element matrices both the step matrix and the block factors
        # are summed from: C, in scalar_local, and the flow stack in
        # velocity_local ++ pressure_local, with A on the velocity block,
        # B in the u_0 rows and -B^T in the u_0 columns (the entries
        # `stored` marks), both reordered with the interiors [u_0 | p_0]
        # first; _conv_at is where each velocity component's convection
        # block lands in it
        nv = vloc.shape[1]
        u0 = (ns * np.arange(2)[:, None] + np.arange(nk)).ravel()
        p = nv + np.arange(ploc.shape[1])
        flow = np.zeros((len(fe), nv + len(p), nv + len(p)))
        flow[:, :nv, :nv] = forms.viscous_blocks(mesh, fe, params, problem.pr)
        B = forms.pressure_blocks(mesh, fe, params).reshape(len(fe), len(u0),
                                                            len(p))
        flow[:, u0[:, None], p] = B                      # + b(v, p)
        flow[:, p[:, None], u0] = -np.swapaxes(B, 1, 2)  # - b(u, q)
        stored = np.zeros(flow.shape[1:], dtype=bool)
        stored[:nv, :nv] = True
        stored[u0[:, None], p] = stored[p[:, None], u0] = True
        inner = np.append(u0, p[:params.pressure_interior_dim])
        order = np.append(inner, np.setdiff1d(np.arange(flow.shape[1]),
                                              inner))
        self._flow_stack = np.ascontiguousarray(flow[:, order[:, None],
                                                     order])
        del flow, B
        stored = stored[order[:, None], order]
        self._temp_stack = C = forms.conduction_blocks(mesh, all_e, params,
                                                       problem.kappa)
        self._conv_at = np.argsort(order)[:nv].reshape(2, ns)
        # each element's reduced indices in its stack's layout, -1 fixed
        flow_loc = dm.free_index[np.concatenate([vloc, ploc], axis=1)[:, order]]
        temp_loc = dm.free_index[sloc]

        # the step matrix: the stacks' entries in free rows and columns,
        # the buoyancy - d(T, v) and the mean-pressure border, summed once
        # into the static pattern; each slot sums entries of one kind from
        # at most two elements.  Velocity traces are fixed to zero, so only
        # the temperature stack lifts fixed columns into the right-hand side
        n = dm.n_free
        flow_keys, flow_in = _element_keys(flow_loc, n + 1, stored)
        temp_keys, temp_in = _element_keys(temp_loc, n + 1)
        at, rows, fixed = _lifted(temp_loc, sloc, dm.fixed_values)
        np.subtract.at(self._static_rhs, rows, C.ravel()[at] * fixed)
        fac = forms.buoyancy_factor(mesh, fe, problem.pr, problem.ra)
        con_r = dm.free_index[dm.p_interior(fe)[:, 0]]
        con_v = mesh.det_b[fe] / np.sqrt(2.0)  # integral of p0 over the fluid
        slot, self._indices, self._indptr = _pattern(np.concatenate([
            flow_keys, temp_keys,
            (dm.free_index[ui[:, 1, :]] * (n + 1)
             + dm.free_index[dm.t_interior(fe)]).ravel(),
            n * (n + 1) + con_r, con_r * (n + 1) + n]), n + 1)
        del flow_keys, temp_keys
        nnz = len(self._indices)
        self._static_data = np.bincount(slot, np.concatenate([
            self._flow_stack[flow_in], C[temp_in], -np.repeat(fac, nk),
            con_v, con_v]), minlength=nnz)
        self._vel_fixed = dm.fixed_mask.copy()
        self._vel_fixed[dm.offset["p_int"]:] = False

        # a step's convection values: the skew block S of every fluid
        # element, at both velocity components' diagonal blocks and at the
        # temperature, in np.tile(S.ravel(), 3) order; _conv_slot is each
        # one's slot (nnz for a fixed row or column).  S lifts nothing into
        # the right-hand side: its column of a face trace carries w.n on
        # that face, and a fixed temperature trace of a fluid element lies
        # on an outer fluid face, where w vanishes
        n_flow = np.count_nonzero(flow_in)
        flow_slot = np.full(flow_in.shape, nnz)
        flow_slot[flow_in] = slot[:n_flow]
        temp_slot = np.full(temp_in.shape, nnz)
        temp_slot[temp_in] = slot[n_flow:n_flow + np.count_nonzero(temp_in)]
        self._conv_slot = np.concatenate(
            [flow_slot[:, a[:, None], a].ravel() for a in self._conv_at]
            + [temp_slot[fe].ravel()])
        del flow_slot, temp_slot, slot

        f = dm.n_free_flow
        self.temperature = Condensation(temp_loc, nk, n + 1, np.arange(f, n),
                                        all_e, "temperature block")
        mean = np.zeros(f)
        mean[con_r] = con_v
        self.flow = MeanPressureBlock(
            Condensation(flow_loc, len(inner), n + 1, np.arange(f), fe,
                         "flow block",
                         ground=dm.free_index[dm.p_trace(mesh.fluid_faces[0])
                                              [0, 0]]),
            dm, mean)

    def assemble(self, w_prev=None):
        """Assemble the step with frozen advecting field w_prev (full-layout
        coefficients; None means zero, i.e. a Stokes-like step).

        Every step's matrix has the static pattern: its `indices` and
        `indptr` are the same arrays on every step, and only `data` is new.
        """
        dm = self.dofmap
        n = dm.n_free
        rhs = np.append(self._static_rhs, 0.0)
        data = self._static_data
        S = None
        if w_prev is not None:
            w_prev = np.asarray(w_prev, dtype=float)
            if w_prev.shape != (dm.n_dofs,):
                raise ValueError(
                    "w_prev has length %d but the DOF map holds %d"
                    % (w_prev.size, dm.n_dofs))
            if np.any(w_prev[self._vel_fixed] != 0.0):
                raise ValueError("w_prev must vanish at fixed velocity DOFs")
        if w_prev is not None and np.any(w_prev):
            mesh, fe = self.mesh, self.mesh.fluid_elems
            w_int = w_prev[dm.u_interior(fe)]            # (Ef, 2, nk)
            w_tr = w_prev[dm.u_trace(mesh.elem_faces[fe])]   # (Ef, 3, 2, nt)
            S = forms.skew_convection_blocks(mesh, fe, self.params, w_int,
                                             w_tr)            # (Ef, ns, ns)
            data = data + np.bincount(self._conv_slot, np.tile(S.ravel(), 3),
                                      minlength=len(data) + 1)[:len(data)]
        else:
            data = data.copy()
        mat = sps.csr_matrix((data, self._indices, self._indptr),
                             shape=(n + 1, n + 1))
        mat.has_canonical_format = True
        return GlobalSystem(mat, rhs, dm, self._factors(S))

    def _factors(self, S):
        """The (temperature, flow) factor functions of a step with skew
        convection blocks S, None for none.  S is added, on copies of the
        static stacks, to the fluid elements' temperature matrices and to
        both velocity components' diagonal blocks."""
        def temperature():
            stack = self._temp_stack
            if S is not None:
                stack = stack.copy()
                stack[self.mesh.fluid_elems] += S
            return self.temperature.factor(stack)

        def flow():
            stack = self._flow_stack
            if S is not None:
                stack = stack.copy()
                for at in self._conv_at:
                    stack[:, at[:, None], at] += S
            return self.flow.factor(stack)

        return temperature, flow


def assemble_oseen_step(mesh, params, problem, w_prev=None, dofmap=None):
    """One-shot assembly of a linearized step (see StepAssembler)."""
    return StepAssembler(mesh, params, problem, dofmap).assemble(w_prev)


# the sweep loop of solve_sparse: sweep down to a block residual of
# SWEEP_TOL * max(||b||, 1), a tenth of the contract; refactor a held factor
# when one application cuts the residual less than STALL_RATIO-fold, or when
# MAX_SWEEPS sweeps miss the target
SWEEP_TOL = 1e-11
STALL_RATIO = 10.0
MAX_SWEEPS = 8


class HeldFactor:
    """A block inverse kept between solves: `inverse` applies it (None
    until the first factorization), `age` counts the solves it served
    after the one it was built for, and `last` is the block solution of
    the latest solve, from which the next solve starts (None: from zero).
    """

    __slots__ = ("inverse", "age", "last")

    def __init__(self):
        self.inverse = None
        self.age = 0
        self.last = None


# both trace Schur complements are factored with minimum degree on S + S^T
# and threshold pivoting that prefers the diagonal
PERMC_SPEC = "MMD_AT_PLUS_A"
DIAG_PIVOT_THRESH = 1e-3
SPLU_OPTIONS = {"SymmetricMode": True}


def _factor(mat, block):
    """splu of a CSC Schur complement; a failure raises naming the block."""
    try:
        return spla.splu(mat, permc_spec=PERMC_SPEC,
                         diag_pivot_thresh=DIAG_PIVOT_THRESH,
                         options=SPLU_OPTIONS)
    except RuntimeError as err:
        raise RuntimeError("%s factorization failed (%s); the block is "
                           "singular or near-singular" % (block, err)) from err


def _swept(rows, rhs, x, at, target, held, factor):
    """Solve rows @ x = rhs for the block x[at], with the rest of x fixed,
    using held.inverse, built with factor() when there is none.

    rows are the block's rows of the step matrix, over all of x, so the
    columns outside the block multiply the part of x solved before.  The
    first application is the solve: from x[at] = 0, or from the solution
    of an earlier solve when held.last holds one, x[at] += inverse(rhs -
    rows @ x).  Sweeps of the same follow, at least one, until the residual
    is at most target.  A held factor from an earlier solve that stalls
    (one application cuts a residual above target less than
    STALL_RATIO-fold) or misses the target in MAX_SWEEPS sweeps is dropped
    before factor() builds its replacement, and the solve starts over from
    zero at age 0, exactly as a fresh solve would.  A fresh factor is never
    replaced: it makes at least one sweep, and where it stalls after that,
    the caller's residual check decides.  A copy of the block solution is
    kept in held.last.
    """
    while True:
        if held.inverse is None:
            held.inverse = factor()
            held.age = 0
            held.last = None
        x[at] = 0.0 if held.last is None else held.last
        r = rhs - rows @ x
        before = np.linalg.norm(r)
        x[at] += held.inverse(r)
        for sweep in range(MAX_SWEEPS + 1):
            r = rhs - rows @ x
            now = np.linalg.norm(r)
            if sweep > 0 and now <= target:
                break
            # a fresh factor always makes its one sweep
            stalled = (now > target and now * STALL_RATIO > before
                       and (sweep or held.age))
            if stalled or sweep == MAX_SWEEPS:
                if held.age:
                    held.inverse = None
                break
            x[at] += held.inverse(r)
            before = now
        if held.inverse is not None:
            held.last = x[at].copy()
            return


def solve_sparse(system, held=None):
    """Solve one assembled step block by block, with a residual guarantee.

    The temperature block, rows and columns f:n (f = flow_size, n =
    border_index), is solved first.  The flow block, rows and columns
    flow_index, is solved next; its rows' buoyancy columns multiply the
    temperature just solved.  Each block is factored through its element
    interiors by system.factors (see Condensation and MeanPressureBlock)
    and swept with its rows of system.matrix.

    held is a (temperature, flow) pair of HeldFactor that keeps each
    block's inverse and solution between calls; None makes a fresh pair
    for this call.  A held inverse may come from an earlier step with
    another advecting field: its age goes up by one, the solve starts from
    the block's previous solution, and the inverse is refactored only when
    it stalls, after which the block is solved from zero (see _swept).

    Both blocks are swept against their current rows down to a block
    residual of SWEEP_TOL * max(||b||, 1), b the whole right-hand side;
    the sweeps keep the divergence rows at rounding (see the module
    docstring), which the 1e-10 check alone would not: an unswept solve
    leaves them at 1e-9..1e-8 on fine cavity meshes.  That check runs
    against the whole system.matrix, so it also catches a temperature row
    that touches the flow, which the block split would ignore.

    Every failure raises RuntimeError naming the block: a singular
    element interior block (naming the element too), a singular
    temperature or grounded flow Schur factorization, or a residual (NaN
    included) above 1e-10, reported with the residual of the temperature
    rows and of the flow rows.
    """
    mat, rhs = system.matrix, system.rhs
    flow = system.flow_index
    f, n = system.flow_size, system.border_index
    bnorm = np.linalg.norm(rhs)
    target = SWEEP_TOL * max(bnorm, 1.0)
    if held is None:
        held = (HeldFactor(), HeldFactor())
    for block in held:
        if block.inverse is not None:
            block.age += 1
    x = np.zeros_like(rhs)
    temperature, flow_factor = system.factors
    _swept(mat[f:n], rhs[f:n], x, slice(f, n), target, held[0], temperature)
    _swept(mat[flow], rhs[flow], x, flow, target, held[1], flow_factor)

    r = mat @ x - rhs
    resid = np.linalg.norm(r)
    if not resid <= 1e-10 * max(bnorm, 1.0):     # a NaN residual fails too
        raise RuntimeError(
            "block solve residual %.3e exceeds the 1e-10 contract (rhs norm "
            "%.3e; temperature block rows %.3e, flow block rows %.3e)"
            % (resid, bnorm, np.linalg.norm(r[f:n]),
               np.linalg.norm(r[flow])))
    return x
