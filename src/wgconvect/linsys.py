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

solve_sparse factors the temperature block on every call and solves the
flow block with a held factor: oseen_solve keeps one HeldFactor for its
Picard steps, since the flow block changes only through w.  Each block is
solved by sweeps x += M^-1 (b - A x) against its current matrix A, where M
is the factored matrix, until the block residual is a tenth of the 1e-10
contract; a held factor that stalls is dropped and the block refactored.
The sweeps are what make the velocity divergence free to rounding, at any
factor age: the divergence rows b(u,q) and the mean-pressure row do not
depend on w, so M equals A in those rows, A M^-1 is the identity there,
and each sweep sets their residual to rounding.  The whole-matrix
1e-10 check, relative to the whole right-hand side, does not bound those
rows on its own, since their right side is zero.  A singular block
factor, a singular capacitance matrix of the bordered flow factor, or a
residual above 1e-10 raises RuntimeError naming the block.
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
        nt = self.params.trace_dim
        ff = self.face_fluid_pos[np.atleast_1d(faces)]
        if np.any(ff < 0):
            raise ValueError("velocity trace DOFs requested on a solid face")
        base = self.offset["u_tr"] + 2 * nt * ff
        return (base[:, None, None] + nt * np.arange(2)[None, :, None]
                + np.arange(nt)[None, None, :])

    def p_interior(self, elems):
        nkm1 = self.params.pressure_interior_dim
        fe = self.elem_fluid_pos[np.atleast_1d(elems)]
        return self.offset["p_int"] + nkm1 * fe[:, None] + np.arange(nkm1)

    def p_trace(self, faces):
        ntp = self.params.pressure_trace_dim
        ff = self.face_fluid_pos[np.atleast_1d(faces)]
        return self.offset["p_tr"] + ntp * ff[:, None] + np.arange(ntp)

    def t_interior(self, elems):
        nk = self.params.interior_dim
        elems = np.atleast_1d(elems)
        return self.offset["t_int"] + nk * elems[:, None] + np.arange(nk)

    def t_trace(self, faces):
        nt = self.params.trace_dim
        faces = np.atleast_1d(faces)
        return self.offset["t_tr"] + nt * faces[:, None] + np.arange(nt)

    # -- local layouts matching the forms module ------------------------

    def velocity_local(self, elems):
        """(E, 2 ns) indices in the component-major local velocity layout."""
        nk, nt = self.params.interior_dim, self.params.trace_dim
        ns = self.params.scalar_size
        elems = np.atleast_1d(elems)
        ui = self.u_interior(elems)                     # (E, 2, nk)
        ut = self.u_trace(self.mesh.elem_faces[elems].ravel()).reshape(
            len(elems), 3, 2, nt)
        out = np.empty((len(elems), 2, ns), dtype=np.int64)
        out[:, :, :nk] = ui
        for lf in range(3):
            out[:, :, nk + lf * nt: nk + (lf + 1) * nt] = ut[:, lf]
        return out.reshape(len(elems), 2 * ns)

    def scalar_local(self, elems):
        """(E, ns) temperature-layout indices, valid on every element."""
        nk, nt = self.params.interior_dim, self.params.trace_dim
        elems = np.atleast_1d(elems)
        ti = self.t_interior(elems)
        tt = self.t_trace(self.mesh.elem_faces[elems].ravel()).reshape(
            len(elems), 3, nt)
        out = np.empty((len(elems), self.params.scalar_size), dtype=np.int64)
        out[:, :nk] = ti
        for lf in range(3):
            out[:, nk + lf * nt: nk + (lf + 1) * nt] = tt[:, lf]
        return out

    def pressure_local(self, elems):
        nkm1 = self.params.pressure_interior_dim
        ntp = self.params.pressure_trace_dim
        elems = np.atleast_1d(elems)
        pi = self.p_interior(elems)
        pt = self.p_trace(self.mesh.elem_faces[elems].ravel()).reshape(
            len(elems), 3, ntp)
        out = np.empty((len(elems), self.params.pressure_size), dtype=np.int64)
        out[:, :nkm1] = pi
        for lf in range(3):
            out[:, nkm1 + lf * ntp: nkm1 + (lf + 1) * ntp] = pt[:, lf]
        return out


def apply_nonhomogeneous_dirichlet(dofmap, problem, quad_degree=None):
    """Fix temperature traces on Dirichlet walls to face-projected data.

    Insulated walls stay free.  Returns the updated dofmap.
    """
    mesh = dofmap.mesh
    l = dofmap.params.trace_degree
    if quad_degree is None:
        quad_degree = 2 * dofmap.params.degree + 4
    wall_of = mesh.face_wall()
    outer = np.flatnonzero(mesh.face_tag == OUTER)
    unassigned = [int(f) for f in outer if wall_of[f] == ""]
    if unassigned:
        raise ValueError("boundary faces %s lie on no wall" % unassigned)
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

    border_index/ground_index mark the mean-pressure multiplier row and a
    pressure DOF that can ground the constant mode; solve_sparse uses them
    to factor around the dense constraint row (see _bordered_inverse).

    flow_index lists the flow block: the free velocity and pressure DOFs,
    which come first in the free ordering, then the multiplier.  The free
    temperature DOFs fill the range between them, flow_size:border_index,
    and their rows have no entry in the flow columns.
    """

    def __init__(self, matrix, rhs, dofmap, border_index, ground_index,
                 flow_index):
        self.matrix = matrix
        self.rhs = rhs
        self.dofmap = dofmap
        self.border_index = border_index
        self.ground_index = ground_index
        self.flow_index = flow_index

    @property
    def flow_size(self):
        """Number of free velocity and pressure DOFs."""
        return len(self.flow_index) - 1

    @property
    def dim(self):
        return self.dofmap.n_free + 1

    def expand(self, x):
        """Scatter a reduced solution to the full coefficient vector.

        Returns (full_coefficients, multiplier_value).
        """
        dm = self.dofmap
        full = dm.fixed_values.copy()
        full[dm.free_dofs] = x[:dm.n_free]
        return full, float(x[dm.n_free])


class StepAssembler:
    """Assembles Oseen steps, reusing everything that does not depend on the
    frozen advecting field (diffusion, pressure coupling, buoyancy,
    conduction, forcing moments, the mean-pressure row)."""

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
        nk = params.interior_dim

        rows, cols, vals = [], [], []

        def add(block_rows, block_cols, block_vals):
            rows.append(block_rows.ravel())
            cols.append(block_cols.ravel())
            vals.append(block_vals.ravel())

        vloc = dm.velocity_local(fe)                     # (Ef, 2ns)
        sloc = dm.scalar_local(all_e)                    # (E, ns)
        ploc = dm.pressure_local(fe)                     # (Ef, np)

        A = forms.viscous_blocks(mesh, fe, params, problem.pr)
        add(np.repeat(vloc[:, :, None], vloc.shape[1], axis=2),
            np.repeat(vloc[:, None, :], vloc.shape[1], axis=1), A)

        B = forms.pressure_blocks(mesh, fe, params)      # (Ef, 2, nk, np)
        ui = dm.u_interior(fe)                           # (Ef, 2, nk)
        r_b = np.broadcast_to(ui[:, :, :, None], B.shape)
        c_b = np.broadcast_to(ploc[:, None, None, :], B.shape)
        add(r_b, c_b, B)                                 # + b(v, p)
        add(c_b, r_b, -B)                                # - b(u, q)

        fac = forms.buoyancy_factor(mesh, fe, problem.pr, problem.ra)
        ti_f = dm.t_interior(fe)                         # (Ef, nk)
        diag = np.broadcast_to(fac[:, None], (len(fe), nk))
        add(ui[:, 1, :], ti_f, -diag)                    # - d(T, v)

        C = forms.conduction_blocks(mesh, all_e, params, problem.kappa)
        add(np.repeat(sloc[:, :, None], sloc.shape[1], axis=2),
            np.repeat(sloc[:, None, :], sloc.shape[1], axis=1), C)

        rhs = np.zeros(dm.n_dofs)
        qd = max(2 * params.degree + 2,
                 problem.forcing_degree + params.degree)
        fmom = np.stack([
            pb.project_interior(mesh, fe, params.degree,
                                lambda x, y, d=d: problem.f(x, y)[..., d], qd)
            for d in range(2)], axis=1)                  # (Ef, 2, nk)
        rhs[ui.ravel()] += (mesh.det_b[fe][:, None, None] * fmom).ravel()
        gmom = pb.project_interior(mesh, all_e, params.degree, problem.g, qd)
        rhs[dm.t_interior(all_e).ravel()] += (
            mesh.det_b[all_e][:, None] * gmom).ravel()

        # the static triplets land in the same reduced rows and columns on
        # every step, so they are mapped, and their fixed columns lifted
        # into the right-hand side, once
        self._static_rhs = rhs[dm.free_dofs]
        self._static_triplets = self._reduce(
            np.concatenate(rows), np.concatenate(cols), np.concatenate(vals),
            self._static_rhs)

        # mean-pressure constraint: integral of p0 over the fluid zone
        self._constraint_dofs = dm.p_interior(fe)[:, 0]
        self._constraint_vals = mesh.det_b[fe] / np.sqrt(2.0)

        self._vloc = vloc
        self._sloc = sloc

        # free DOFs keep the global block order, so the free flow DOFs are
        # the first flow_size ones and the multiplier follows the rest
        flow_size = int(np.sum(~dm.fixed_mask[:dm.offset["t_int"]]))
        self._flow_index = np.append(np.arange(flow_size), dm.n_free)

    def _reduce(self, rows, cols, vals, rhs):
        """Full-numbering triplets -> the (rows, cols, vals) of the entries
        in free rows and free columns, in reduced numbering.  Entries in
        free rows and fixed columns are lifted into rhs in place, in
        triplet order."""
        dm = self.dofmap
        r_free = dm.free_index[rows]
        c_free = dm.free_index[cols]
        keep_row = r_free >= 0
        lift = keep_row & (c_free < 0)
        np.subtract.at(rhs, r_free[lift],
                       vals[lift] * dm.fixed_values[cols[lift]])
        keep = keep_row & (c_free >= 0)
        return r_free[keep], c_free[keep], vals[keep]

    def _convection_triplets(self, w_full):
        mesh, params = self.mesh, self.params
        dm = self.dofmap
        fe = mesh.fluid_elems
        nk, nt = params.interior_dim, params.trace_dim
        ns = params.scalar_size

        w_int = w_full[dm.u_interior(fe)]                # (Ef, 2, nk)
        w_tr = w_full[dm.u_trace(mesh.elem_faces[fe].ravel())].reshape(
            len(fe), 3, 2, nt)
        S = forms.skew_convection_blocks(mesh, fe, params, w_int, w_tr)

        rows, cols, vals = [], [], []
        vloc2 = self._vloc.reshape(len(fe), 2, ns)
        for c in range(2):                               # momentum transport
            loc = vloc2[:, c, :]
            rows.append(np.repeat(loc[:, :, None], ns, axis=2).ravel())
            cols.append(np.repeat(loc[:, None, :], ns, axis=1).ravel())
            vals.append(S.ravel())
        # the same skew block advects the temperature on fluid elements
        sloc_f = self._sloc[fe]
        rows.append(np.repeat(sloc_f[:, :, None], ns, axis=2).ravel())
        cols.append(np.repeat(sloc_f[:, None, :], ns, axis=1).ravel())
        vals.append(S.ravel())
        return (np.concatenate(rows), np.concatenate(cols),
                np.concatenate(vals))

    def assemble(self, w_prev=None):
        """Assemble the step with frozen advecting field w_prev (full-layout
        coefficients; None means zero, i.e. a Stokes-like step)."""
        dm = self.dofmap
        if w_prev is None:
            w_full = np.zeros(dm.n_dofs)
        else:
            w_prev = np.asarray(w_prev, dtype=float)
            if w_prev.shape != (dm.n_dofs,):
                raise ValueError(
                    "w_prev has length %d but the DOF map holds %d"
                    % (w_prev.size, dm.n_dofs))
            vel_fixed = dm.fixed_mask.copy()
            vel_fixed[dm.offset["p_int"]:] = False
            if np.any(w_prev[vel_fixed] != 0.0):
                raise ValueError("w_prev must vanish at fixed velocity DOFs")
            w_full = w_prev

        rhs = self._static_rhs.copy()
        parts = [self._static_triplets]
        if w_prev is not None and np.any(w_full):
            parts.append(self._reduce(*self._convection_triplets(w_full),
                                      rhs))
        n = dm.n_free
        con_r = dm.free_index[self._constraint_dofs]
        border = np.full(len(con_r), n)
        parts += [(border, con_r, self._constraint_vals),
                  (con_r, border, self._constraint_vals)]
        rows, cols, vals = (np.concatenate(a) for a in zip(*parts))
        mat = sps.coo_matrix((vals, (rows, cols)),
                             shape=(n + 1, n + 1)).tocsr()
        return GlobalSystem(mat, np.append(rhs, 0.0), dm,
                            border_index=n, ground_index=int(con_r[0]),
                            flow_index=self._flow_index)


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
    until the first factorization) and `age` counts the solves it served
    after the one it was built for."""

    __slots__ = ("inverse", "age")

    def __init__(self):
        self.inverse = None
        self.age = 0


def _factor(mat, block):
    """splu of one diagonal block; a failure raises naming the block."""
    try:
        return spla.splu(mat.tocsc())
    except RuntimeError as err:
        raise RuntimeError("%s factorization failed (%s); the block is "
                           "singular or near-singular" % (block, err)) from err


def _bordered_inverse(mat, n, q):
    """Factor a system whose row/column n is dense (the mean constraint).

    Clears row/column n, puts 1 at (n, n) and 1 at (q, q) to ground the
    constant-pressure mode, factors that sparse matrix once, and restores
    the difference as a rank-3 correction (Woodbury).  Returns a function
    applying the approximate inverse of mat: each call costs two triangular
    solves and one 3x3 product, so solve_sparse can sweep against mat, and
    against the flow blocks of later steps, without refactoring.  Raises
    when the grounded factorization or the 3x3 capacitance matrix is
    singular.
    """
    coo = mat.tocoo()
    keep = (coo.row != n) & (coo.col != n)
    size = mat.shape[0]
    grounded = sps.coo_matrix(
        (np.concatenate([coo.data[keep], [1.0, 1.0]]),
         (np.concatenate([coo.row[keep], [n, q]]),
          np.concatenate([coo.col[keep], [n, q]]))),
        shape=mat.shape)
    lu = _factor(grounded, "grounded flow block")
    col = np.asarray(mat[:, n].todense()).ravel()
    row = np.asarray(mat[n].todense()).ravel()
    diag = col[n]
    U = np.zeros((size, 3))
    U[:, 0] = col
    U[n, 1] = 1.0
    U[q, 2] = 1.0
    W = np.zeros((size, 3))
    W[n, 0] = 1.0
    W[:, 1] = row
    W[n, 1] -= diag + 1.0
    W[q, 2] = -1.0
    Z = lu.solve(U)
    try:
        small_inv = np.linalg.inv(np.eye(3) + W.T @ Z)
    except np.linalg.LinAlgError as err:
        raise RuntimeError("flow block: the 3x3 capacitance matrix of the "
                           "mean-pressure border is singular (%s)"
                           % err) from err

    def apply(r):
        y = lu.solve(r)
        return y - Z @ (small_inv @ (W.T @ y))

    return apply


def _swept(mat, rhs, target, held, factor):
    """Solve mat @ x = rhs with held.inverse, building it with factor()
    when there is none.

    The first application is the solve; sweeps x += inverse(rhs - mat @ x)
    follow, at least one, until the residual is at most target.  A held
    factor from an earlier solve that stalls (one application cuts the
    residual less than STALL_RATIO-fold) or misses the target in MAX_SWEEPS
    sweeps is dropped before factor() builds its replacement, and the solve
    starts over at age 0.  A fresh factor is never replaced: it makes at
    least one sweep, and where it stalls after that, the caller's residual
    check decides.
    """
    while True:
        if held.inverse is None:
            held.inverse = factor()
            held.age = 0
        x = held.inverse(rhs)
        before = np.linalg.norm(rhs)
        for sweep in range(MAX_SWEEPS + 1):
            r = rhs - mat @ x
            now = np.linalg.norm(r)
            if sweep > 0 and now <= target:
                return x
            # a fresh factor always makes its one sweep
            stalled = now * STALL_RATIO > before and (sweep or held.age)
            if stalled or sweep == MAX_SWEEPS:
                break
            x = x + held.inverse(r)
            before = now
        if held.age == 0:
            return x
        held.inverse = None


def solve_sparse(system, held=None):
    """Solve one assembled step block by block, with a residual guarantee.

    The temperature block matrix[f:n, f:n] (f = flow_size, n =
    border_index) is factored with splu and solved first.  The flow block,
    rows and columns flow_index, is then solved with the buoyancy columns
    times the temperature moved to its right-hand side, through the
    bordered inverse of _bordered_inverse held in `held` (a HeldFactor;
    None makes a fresh one for this call).  A held inverse may come from an
    earlier step with another advecting field: its age goes up by one, and
    it is refactored only when it stalls (see _swept).

    Both blocks are solved by the sweep loop of _swept against their
    current matrices, down to a block residual of SWEEP_TOL * max(||b||, 1)
    with b the whole right-hand side.  The flow result is divergence free
    to rounding at any factor age: the rows b(u,q) = 0 and the
    mean-pressure row of the flow block do not involve w, so the held
    factor's matrix agrees with the current block there, and every sweep
    solves those rows exactly and leaves their residual at rounding.

    The 1e-10 residual check is relative to the whole right-hand side and
    runs against the whole system.matrix; it also catches a temperature row
    that touches the flow, which the block split would ignore.  On its own
    it does not bound the divergence rows, whose right side is zero: an
    unswept Woodbury solve leaves them at 1e-9..1e-8 on fine cavity
    meshes.

    Every failure raises RuntimeError naming the block: a singular
    temperature or grounded flow factorization, a singular 3x3 capacitance
    matrix, or a residual (NaN included) above 1e-10, reported with the
    residual of the temperature rows and of the flow rows.
    """
    mat, rhs = system.matrix, system.rhs
    flow = system.flow_index
    f, n = system.flow_size, system.border_index
    bnorm = np.linalg.norm(rhs)
    target = SWEEP_TOL * max(bnorm, 1.0)
    temp_mat = mat[f:n, f:n]
    x_temp = _swept(temp_mat, rhs[f:n], target, HeldFactor(),
                    lambda: _factor(temp_mat, "temperature block").solve)
    flow_rows = mat[flow]
    flow_mat = flow_rows[:, flow]
    if held is None:
        held = HeldFactor()
    elif held.inverse is not None:
        held.age += 1
    x = np.empty_like(rhs)
    x[f:n] = x_temp
    x[flow] = _swept(
        flow_mat, rhs[flow] - flow_rows[:, f:n] @ x_temp, target, held,
        lambda: _bordered_inverse(flow_mat, f, system.ground_index))

    r = mat @ x - rhs
    resid = np.linalg.norm(r)
    if not resid <= 1e-10 * max(bnorm, 1.0):     # a NaN residual fails too
        raise RuntimeError(
            "block solve residual %.3e exceeds the 1e-10 contract (rhs norm "
            "%.3e; temperature block rows %.3e, flow block rows %.3e)"
            % (resid, bnorm, np.linalg.norm(r[f:n]),
               np.linalg.norm(r[flow])))
    return x
