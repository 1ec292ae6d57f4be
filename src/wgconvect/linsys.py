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
temperature rows do not involve (u, p), so solve_sparse solves the
temperature block first and then the flow block (velocity, pressure and
the multiplier) with the buoyancy d(T, v) moved to the right-hand side.
No matrix of the whole step is formed.

A Newton step about a solve output x_k = (u_k, p_k, T_k) (JointSystem,
from StepAssembler.linearize) is the Picard step at w = u_k plus the
coupling J_c = c(du; u_k, v) + cbar(du; T_k, s), with right-hand side
b + J_c x_k.  J_c puts velocity columns into the temperature rows, so the
step is no longer block lower triangular: solve_sparse solves it as one
joint block over all the unknowns, condensed through each element's
interiors [u_0 | p_0 | T_0].  Plain runs never take a Newton step, nor
set up its block.

Each element's interior unknowns (T_0; u_0 and p_0) couple only to each
other and to the element's own traces, so a step is kept as element
matrices: the static stacks (E, L, L) of both blocks, which StepAssembler
keeps, and the step's convection blocks.  A block is applied to a vector
element by element (gather, multiply, sum back), and factored by block LU
through its interiors (Condensation): the dense interior blocks are
inverted as one batch, and only the Schur complement on the traces, summed
over the elements, is a sparse factor, ordered by minimum degree on
S + S^T.  The velocity-pressure part of the flow block fixes the pressure
only up to a constant; its Schur factor is grounded on one pressure trace,
and MeanPressureBlock meets the mean-pressure row and column through the
constant pressure, so the applied inverse is exactly that of the block.
The joint block is grounded and bordered the same way: J_c touches no
pressure row or column, so the constant pressure, zero on the temperature,
spans its null space too.

Every step lists its diagonal blocks in solve order (Block): a Picard
step its temperature block, then its flow block, a Newton step its joint
block.  solve_sparse sweeps them in one loop, against one dict of
HeldFactor keyed by block name: oseen_solve holds the temperature and flow
factors across its Picard steps, since both blocks change only through w,
and drops them for the joint factor of its Newton steps, which changes
only through x_k; every block is held, swept and refactored by the same
rule.  Each block is solved by sweeps x += M^-1 (b - A x) against the
current block A, M the factored matrix, from the block's solution of the
previous step, until the block residual is a tenth of the 1e-10 contract;
a held factor that stalls is dropped, the block refactored and solved from
zero.  The sweeps are what make the velocity divergence free to rounding,
at any factor age: the divergence rows b(u,q) and the mean-pressure row do
not depend on w (nor on x_k), so M equals A in those rows, and each sweep
sets their residual to rounding.  The 1e-10 check, relative to the whole
right-hand side, is made on the residuals of the blocks' last sweeps,
which make up the whole step's; it does not bound the divergence rows on
its own, since their right side is zero.  A singular element interior
block or Schur factor raises RuntimeError naming the block (and the
element), and a residual above 1e-10 raises one that names each block's
residual.
"""

import collections
import math

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

    The edge rule integrates data times trace basis exactly, whatever the
    degree of the wall's polynomial data.  Insulated walls stay free.
    Returns the updated dofmap.
    """
    mesh = dofmap.mesh
    l = dofmap.params.trace_degree
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
        quad_degree = max(2 * dofmap.params.degree + 4,
                          problem.temp_degree[wall] + l)
        coeffs = pb.project_face(mesh, faces, l,
                                 problem.temp_dirichlet_fn(wall), quad_degree)
        idx = dofmap.t_trace(faces)
        dofmap.fixed_mask[idx.ravel()] = True
        dofmap.fixed_values[idx.ravel()] = coeffs.ravel()
    dofmap._rebuild()
    return dofmap


# one diagonal block of a step, as solve_sparse sweeps it: `name` keys its
# held factor, `index` is its rows and columns in the step vector, `rows`
# applies it to a block vector, `factor()` factors it and returns the
# function applying its inverse (see Condensation and MeanPressureBlock),
# and `lower(x)` applies its columns of the blocks solved before it to the
# step vector x (None: it has none)
Block = collections.namedtuple("Block", "name index rows factor lower",
                               defaults=[None])


class GlobalSystem:
    """One linear step over the free DOFs plus the multiplier: the static
    element matrices of StepAssembler and the step's skew convection
    blocks S (None for none).

    border_index is the mean-pressure multiplier's row and column.
    flow_index lists the flow block: the free velocity and pressure DOFs,
    which come first in the free ordering, then the multiplier.  The free
    temperature DOFs fill the range between them, flow_size:border_index.
    All three are read from the DofMap.

    temperature_rows and flow_rows apply the diagonal blocks to the block
    vectors x[flow_size:border_index] and x[flow_index]; buoyancy applies
    the flow rows' only temperature columns, - d(T, v).  rows applies the
    whole step, and matrix is a scipy LinearOperator over it.  blocks
    lists the temperature block, then the flow block, whose lower
    columns are the buoyancy.
    """

    def __init__(self, assembler, S):
        dm = assembler.dofmap
        self.rhs = np.append(assembler._static_rhs, 0.0)
        self.dofmap = dm
        self.border_index = dm.n_free
        self.flow_size = dm.n_free_flow
        self.flow_index = np.append(np.arange(self.flow_size), dm.n_free)
        self._asm = assembler
        self._S = S

    # matrix and blocks are made on each access: held, their bound methods
    # would make a reference cycle, and a step would outlive its last
    # reference until the cyclic garbage collector ran
    @property
    def matrix(self):
        n = self.border_index
        return spla.LinearOperator((n + 1, n + 1), matvec=self.rows,
                                   dtype=float)

    @property
    def blocks(self):
        """The temperature block, then the flow block.  S is added, on
        copies of the static stacks, to the fluid elements' temperature
        matrices and to both velocity components' diagonal blocks."""
        asm, S = self._asm, self._S
        f, n = self.flow_size, self.border_index

        def temperature_stack():
            stack = asm._temp_stack
            if S is not None:
                stack = stack.copy()
                stack[asm.mesh.fluid_elems] += S
            return stack

        def flow_stack():
            stack = asm._flow_stack
            if S is not None:
                stack = stack.copy()
                for at in asm._conv_at:
                    stack[:, at[:, None], at] += S
            return stack

        return [Block("temperature", slice(f, n), self.temperature_rows,
                      lambda: asm.temperature.factor(temperature_stack)),
                Block("flow", self.flow_index, self.flow_rows,
                      lambda: asm.flow.factor(flow_stack),
                      lambda x: self.buoyancy(x[f:n]))]

    def rows(self, x):
        x = np.ravel(x)
        f, n, flow = self.flow_size, self.border_index, self.flow_index
        y = np.empty(n + 1)
        y[f:n] = self.temperature_rows(x[f:n])
        y[flow] = self.flow_rows(x[flow]) + self.buoyancy(x[f:n])
        return y

    # each element's values of a block vector x, (E, L, 1), are gathered
    # at its positions, multiplied and summed back (see StepAssembler)
    def temperature_rows(self, x):
        asm, S, pos = self._asm, self._S, self._asm._temp_pos
        local = np.append(x, 0.0)[pos][..., None]
        y = asm._temp_stack @ local
        if S is not None:
            fe = asm.mesh.fluid_elems
            y[fe] += S @ local[fe]
        return np.bincount(pos.ravel(), y.ravel(), minlength=len(x) + 1)[:-1]

    def flow_rows(self, x):
        asm, S, pos = self._asm, self._S, self._asm._flow_pos
        local = np.append(x, 0.0)[pos][..., None]
        y = asm._flow_stack @ local
        if S is not None:
            at = asm._conv_at
            y[:, at] += S[:, None] @ local[:, at]
        y = np.bincount(pos.ravel(), y.ravel(), minlength=len(x) + 1)[:-1]
        y[:-1] += asm._mean * x[-1]
        y[-1] = asm._mean @ x[:-1]
        return y

    def buoyancy(self, t):
        rows, cols, values = self._asm._buoyancy
        y = np.zeros(self.flow_size + 1)
        y[rows] = values * t[cols]
        return y

    def expand(self, x):
        """Scatter a reduced solution to the full coefficient vector.

        Returns (full_coefficients, multiplier_value).
        """
        dm = self.dofmap
        full = dm.fixed_values.copy()
        full[dm.free_dofs] = x[:dm.n_free]
        return full, float(x[dm.n_free])


class JointSystem(GlobalSystem):
    """The Newton step about a solve output x_k = (u_k, p_k, T_k), over
    the same unknowns as a GlobalSystem:

        (P(u_k) + J_c) x = b + J_c x_k,

    P(u_k) the Picard step at w = u_k (the GlobalSystem with S at u_k)
    and J_c the coupling c(du; u_k, v) + cbar(du; T_k, s), velocity
    columns in the velocity and temperature rows, kept as element matrices
    (`coupling`, see forms.skew_convection_coupling).  `rows` applies the
    whole step, and blocks lists it as one joint block (see
    StepAssembler.linearize).
    """

    def __init__(self, assembler, S, coupling, x_k):
        super().__init__(assembler, S)
        self._coupling = coupling
        self.rhs = self.rhs + self._coupled(x_k)

    @property
    def blocks(self):
        asm, S, coupling = self._asm, self._S, self._coupling
        return [Block("joint", slice(None), self.rows,
                      lambda: asm._joint.factor(
                          lambda: asm._joint_stack(S, coupling)))]

    def rows(self, x):
        x = np.ravel(x)
        return super().rows(x) + self._coupled(x)

    def _coupled(self, x):
        # J_c x: gather each fluid element's velocity, multiply, sum back
        pos = self._asm._coupling_pos
        nv = self._coupling.shape[2]
        y = self._coupling @ np.append(x, 0.0)[pos[:, :nv], None]
        return np.bincount(pos.ravel(), y.ravel(),
                           minlength=len(x) + 1)[:len(x)]


def _pattern(keys, size):
    """The compressed sparse pattern of entries keyed major * size + minor,
    duplicates included: (slot, indices, indptr), where slot is each key's
    place in indices.  indices and indptr are int32, scipy's index dtype, so
    a matrix built on them keeps them without a copy."""
    unique, slot = np.unique(keys, return_inverse=True)
    indptr = np.zeros(size + 1, dtype=np.int32)
    np.cumsum(np.bincount(unique // size, minlength=size), out=indptr[1:])
    return slot, (unique % size).astype(np.int32), indptr


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
    positions are the interiors, the others traces.  An interior slot may
    be -1 too, unused (a solid element has no flow interiors in the joint
    block); its stack row and column must be those of the identity.
    `index` lists the block's rows and columns in reduced numbering, and
    `elems` names the elements in errors.

    `factor(build)` takes the stack from build(), so that the stack is
    gone before SuperLU allocates its factor.  It inverts the element
    blocks of A_II all at once, sums the elements' A_BB - A_BI A_II^-1
    A_IB into the trace Schur complement S and factors it; the function it
    returns applies the exact inverse of the block, as y = A_II^-1 r_I,
    x_B = S^-1 (r_B - A_BI y), x_I = y - A_II^-1 A_IB x_B.  With
    `ground`, a trace, 1 is added to S at (ground, ground) first, so the
    inverse is that of the block with that 1 added.  S's pattern, the
    union of the elements' trace blocks, is found here once.
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
        # a -1 (unused) interior slot takes position len(index), a zero
        # appended to the block vector
        pos = np.full(size, len(index))
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
        self._s_to = np.full(valid.shape, self._s_nnz, dtype=np.int32)
        self._s_to[valid] = to
        self._ground = (None if ground is None else
                        int(to[np.argmax(pair == spos[ground] * (m + 1))]))
        self._s = s
        self._int_pos = pos[local[:, :n_inner]]
        self._tr_pos = pos[tr]
        self._m = m

    def factor(self, build):
        """Factor the block whose element matrices build() returns;
        returns the function applying its inverse to a block vector."""
        k = self._k
        stack = build()
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
        del stack, a_ii
        s_data = np.bincount(self._s_to.ravel(), s_el.ravel(),
                             minlength=nnz + 1)[:nnz]
        del s_el
        if self._ground is not None:
            s_data[self._ground] += 1.0
        schur = sps.csc_matrix((s_data, self._s_rows, self._s_ptr),
                               shape=(m, m))
        schur_inverse = _factor(schur, self.name).solve
        int_pos, tr_pos, s = self._int_pos, self._tr_pos, self._s

        def apply(r):
            r = np.append(r, 0.0)
            y = (inv @ r[int_pos][..., None])[..., 0]
            r_b = r[tr_pos] - np.bincount(
                s.ravel(), (a_bi @ y[..., None]).ravel(),
                minlength=m + 1)[:m]
            x_b = schur_inverse(r_b)
            x = np.empty_like(r)
            x[tr_pos] = x_b
            x[int_pos] = y - (x_ib @ np.append(x_b, 0.0)[s][..., None]
                              )[..., 0]
            return x[:-1]

        return apply


class MeanPressureBlock:
    """The inverse of the flow block [[K, c], [c^T, 0]]: K on the free
    velocity and pressure DOFs, c (a static vector of the assembler) the
    mean-pressure column, which is also the row.  The joint block of a
    Newton step is the same with K on every free DOF and c extended by
    zero: the first len(c) free DOFs are K's.

    K fixes the pressure only up to a constant: the constant pressure z
    (`constant_pressure`, 1 projected onto every pressure interior and
    trace, zero on the temperature) has K z = 0 = z^T K, and z.c is the
    fluid area.  `condensed` factors K grounded on a pressure trace q,
    G = K + e_q e_q^T, with z_q = 1.  `factor` returns the exact inverse
    of the block: for the block vector [v; s],

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
        self.constant_pressure = z[dofmap.free_dofs[:len(c)]]
        self._c = c
        self._zc = self.constant_pressure @ c

    def factor(self, build):
        """Factor the block whose element matrices build() returns;
        returns the function applying its inverse to a block vector, the
        multiplier last."""
        inverse = self._condensed.factor(build)
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
    convection, with each element's positions in its block vector.  A
    step's blocks add its convection blocks to copies of them and factor
    through `temperature` (a Condensation) and `flow` (a
    MeanPressureBlock).
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

        # the element matrices both the products and the block factors are
        # summed from: C, in scalar_local, and the flow stack in
        # velocity_local ++ pressure_local, with A on the velocity block,
        # B in the u_0 rows and -B^T in the u_0 columns, both reordered
        # with the interiors [u_0 | p_0] first; _conv_at is where each
        # velocity component's convection block lands in it
        nv = vloc.shape[1]
        u0 = (ns * np.arange(2)[:, None] + np.arange(nk)).ravel()
        p = nv + np.arange(ploc.shape[1])
        flow = np.zeros((len(fe), nv + len(p), nv + len(p)))
        flow[:, :nv, :nv] = forms.viscous_blocks(mesh, fe, params, problem.pr)
        B = forms.pressure_blocks(mesh, fe, params).reshape(len(fe), len(u0),
                                                            len(p))
        flow[:, u0[:, None], p] = B                      # + b(v, p)
        flow[:, p[:, None], u0] = -np.swapaxes(B, 1, 2)  # - b(u, q)
        inner = np.append(u0, p[:params.pressure_interior_dim])
        order = np.append(inner, np.setdiff1d(np.arange(flow.shape[1]),
                                              inner))
        self._flow_stack = np.ascontiguousarray(flow[:, order[:, None],
                                                     order])
        del flow, B
        self._temp_stack = C = forms.conduction_blocks(mesh, all_e, params,
                                                       problem.kappa)
        self._conv_at = np.argsort(order)[:nv].reshape(2, ns)
        # each element's reduced indices in its stack's layout, -1 fixed
        flow_loc = dm.free_index[np.concatenate([vloc, ploc], axis=1)[:, order]]
        temp_loc = dm.free_index[sloc]

        # velocity traces are fixed to zero, so only the temperature stack
        # lifts fixed columns into the right-hand side
        at, rows, fixed = _lifted(temp_loc, sloc, dm.fixed_values)
        np.subtract.at(self._static_rhs, rows, C.ravel()[at] * fixed)

        # the same as positions in the block vectors; the flow block ends
        # in the multiplier, the temperature block starts at f.  A fixed
        # DOF's position is the block size, which gathers a zero appended
        # to the block vector and is summed into a dropped last entry
        n, f = dm.n_free, dm.n_free_flow
        self._flow_pos = np.where(flow_loc >= 0, flow_loc, f + 1)
        self._temp_pos = np.where(temp_loc >= 0, temp_loc - f, n - f)
        # - d(T, v) couples each fluid element's T_0 to the same moments of
        # its second velocity component: (rows, cols, values)
        fac = forms.buoyancy_factor(mesh, fe, problem.pr, problem.ra)
        self._buoyancy = (dm.free_index[ui[:, 1, :]].ravel(),
                          dm.free_index[dm.t_interior(fe)].ravel() - f,
                          -np.repeat(fac, nk))
        # the mean-pressure row and column: the integral of p_0
        con_r = dm.free_index[dm.p_interior(fe)[:, 0]]
        self._mean = np.zeros(f)
        self._mean[con_r] = mesh.det_b[fe] / np.sqrt(2.0)
        self._vel_fixed = dm.fixed_mask.copy()
        self._vel_fixed[dm.offset["p_int"]:] = False

        self._ground = dm.free_index[dm.p_trace(mesh.fluid_faces[0])[0, 0]]
        self._n_inner = len(inner)
        self.temperature = Condensation(temp_loc, nk, n + 1, np.arange(f, n),
                                        all_e, "temperature block")
        self.flow = MeanPressureBlock(
            Condensation(flow_loc, len(inner), n + 1, np.arange(f), fe,
                         "flow block", ground=self._ground),
            dm, self._mean)
        self._joint = None

    def _build_joint(self):
        """Set up the joint block of the Newton steps, once, at the first
        (plain runs never pay for it).

        Its element matrices have the local layout [u_0 | p_0 | T_0 |
        flow traces | temperature traces]: _joint_at holds where the flow
        stack's and the temperature stack's layouts land in it.  The fluid
        elements come first, then the solid ones (_joint_elems), which
        have only their temperature part: their flow interior slots are
        unused and get the identity.  The block is grounded on the flow
        block's pressure trace and bordered by the same mean-pressure row.
        """
        mesh, dm = self.mesh, self.dofmap
        fe = mesh.fluid_elems
        n, f = dm.n_free, dm.n_free_flow
        nk, ns, ni = self.params.interior_dim, self.params.scalar_size, \
            self._n_inner
        nf = self._flow_stack.shape[1]
        jf = np.append(np.arange(ni), ni + nk + np.arange(nf - ni))
        jt = np.append(ni + np.arange(nk), nf + nk + np.arange(ns - nk))
        self._joint_at = jf, jt
        elems = np.append(fe, np.flatnonzero(~mesh.is_fluid))
        self._joint_elems = elems
        loc = np.full((mesh.n_elems, nf + ns), -1)
        loc[:len(fe), jf] = np.where(self._flow_pos < f, self._flow_pos, -1)
        loc[:, jt] = np.where(self._temp_pos < n - f, self._temp_pos + f,
                              -1)[elems]
        # the coupling's velocity columns and its velocity and temperature
        # rows: full-layout DOFs, and positions in the whole step vector
        # (a fixed DOF at n + 1, past the multiplier)
        dofs = np.concatenate([dm.velocity_local(fe), dm.scalar_local(fe)],
                              axis=1)
        free = dm.free_index[dofs]
        self._coupling_dofs = dofs.reshape(len(fe), 3, ns)
        self._coupling_pos = np.where(free >= 0, free, n + 1)
        self._joint = MeanPressureBlock(
            Condensation(loc, ni + nk, n + 1, np.arange(n), elems,
                         "joint block", ground=self._ground),
            dm, np.append(self._mean, np.zeros(n - f)))

    def assemble(self, w_prev=None):
        """Assemble the step with frozen advecting field w_prev (full-layout
        coefficients; None means zero, i.e. a Stokes-like step)."""
        return GlobalSystem(self, self._convection(w_prev))

    def linearize(self, about):
        """The Newton step about a solve output (full-layout coefficients
        x_k = (u_k, p_k, T_k)): a JointSystem, the step assembled at
        w = u_k plus the coupling c(du; u_k, v) + cbar(du; T_k, s)."""
        if self._joint is None:
            self._build_joint()
        fe, ns = self.mesh.fluid_elems, self.params.scalar_size
        S = self._convection(about)
        coupling = forms.skew_convection_coupling(
            self.mesh, fe, self.params, about[self._coupling_dofs])
        return JointSystem(self, S, coupling.reshape(len(fe), 3 * ns, 2 * ns),
                           np.append(about[self.dofmap.free_dofs], 0.0))

    def _convection(self, w_prev):
        """The skew convection block S of every fluid element at the
        advecting field w_prev, None for none (w_prev None or zero).  S
        goes into its temperature matrix and into both velocity
        components' diagonal blocks.  S lifts nothing into the right-hand
        side: its column of a face trace carries w.n on that face, and a
        fixed temperature trace of a fluid element lies on an outer fluid
        face, where w vanishes."""
        if w_prev is None:
            return None
        dm = self.dofmap
        w_prev = np.asarray(w_prev, dtype=float)
        if w_prev.shape != (dm.n_dofs,):
            raise ValueError("w_prev has length %d but the DOF map holds %d"
                             % (w_prev.size, dm.n_dofs))
        if np.any(w_prev[self._vel_fixed] != 0.0):
            raise ValueError("w_prev must vanish at fixed velocity DOFs")
        if not np.any(w_prev):
            return None
        mesh, fe = self.mesh, self.mesh.fluid_elems
        w_int = w_prev[dm.u_interior(fe)]                    # (Ef, 2, nk)
        w_tr = w_prev[dm.u_trace(mesh.elem_faces[fe])]       # (Ef, 3, 2, nt)
        return forms.skew_convection_blocks(mesh, fe, self.params, w_int,
                                            w_tr)            # (Ef, ns, ns)

    def _joint_stack(self, S, coupling):
        """The joint element matrices of a Newton step with skew convection
        blocks S (None for none) and coupling stack `coupling`: the static
        flow and temperature stacks and the buoyancy, S in the same three
        places as in a Picard step, and the coupling in the velocity
        columns of the fluid elements' velocity and temperature rows."""
        jf, jt = self._joint_at
        jv = jf[self._conv_at]                 # each velocity component
        nk, ni = self.params.interior_dim, self._n_inner
        L = len(jf) + len(jt)
        stack = np.zeros((self.mesh.n_elems, L, L))
        stack[:, jt[:, None], jt] = self._temp_stack[self._joint_elems]
        fluid = stack[:len(self.mesh.fluid_elems)]
        stack[len(fluid):, np.arange(ni), np.arange(ni)] = 1.0
        fluid[:, jf[:, None], jf] = self._flow_stack
        fluid[:, jv[1, :nk], jt[:nk]] = self._buoyancy[2].reshape(-1, nk)
        if S is not None:
            for at in (*jv, jt):
                fluid[:, at[:, None], at] += S
        jv = jv.ravel()
        fluid[:, np.append(jv, jt)[:, None], jv] += coupling
        return stack


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
# and threshold pivoting that prefers the diagonal.  The threshold only
# guards against tiny pivots: far from the solution a larger one leaves the
# diagonal of the joint block, and the fill explodes (24x24 cavity, Ra =
# 1e6 from rest: the first three joint factors held 40.8M, 25.1M and 14.3M
# entries at 1e-3, at most 3.00M at 1e-6, against 2.68M once converging;
# 28.7 s against 5.5 s for the solve)
PERMC_SPEC = "MMD_AT_PLUS_A"
DIAG_PIVOT_THRESH = 1e-6
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


def _swept(rows, rhs, target, held, factor):
    """Solve rows(x) = rhs for a block vector x, using held.inverse, built
    with factor() when there is none; returns x and its residual
    rhs - rows(x).

    The first application is the solve: from x = 0, or from the solution
    of an earlier solve when held.last holds one, x += inverse(rhs -
    rows(x)), where rows(0) = 0 is not applied.  Sweeps of the same
    follow, at least one, until the residual is at most target.  A held
    factor from an earlier solve that stalls (one application cuts a
    residual above target less than STALL_RATIO-fold) or misses the
    target in MAX_SWEEPS sweeps is dropped before factor() builds its
    replacement, and the solve starts over from zero at age 0, exactly as
    a fresh solve would.  A fresh factor is never replaced: it makes at
    least one sweep, and where it stalls after that, the caller's residual
    check decides.  A copy of the solution is kept in held.last.
    """
    while True:
        if held.inverse is None:
            held.inverse = factor()
            held.age = 0
            held.last = None
        if held.last is None:
            x, r = np.zeros_like(rhs), rhs      # rows(0) is exactly zero
        else:
            x = held.last.copy()
            r = rhs - rows(x)
        before = np.linalg.norm(r)
        x += held.inverse(r)
        for sweep in range(MAX_SWEEPS + 1):
            r = rhs - rows(x)
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
            x += held.inverse(r)
            before = now
        if held.inverse is not None:
            held.last = x.copy()
            return x, r


def solve_sparse(system, held=None):
    """Solve one assembled step, a GlobalSystem or a JointSystem, with a
    residual guarantee, by one loop over system.blocks.

    Each block, in order, is solved for its part x[index] of the step
    vector: its right-hand side is rhs[index] less lower(x), its columns
    of the blocks solved before it (the buoyancy of the temperature, for
    the flow block of a Picard step), and it is swept with its rows and
    factored by its factor() (see _swept).  A Picard step is its
    temperature block, then its flow block; a Newton step is one joint
    block.

    held is a dict of HeldFactor keyed by block name; it keeps each
    block's inverse and solution between calls, and a block it lacks gets
    a fresh one.  None makes a fresh dict for this call.  A held inverse
    may come from an earlier step with another advecting field (or
    another x_k): its age goes up by one, the solve starts from the
    block's previous solution, and the inverse is refactored only when it
    stalls, after which the block is solved from zero.

    Every block is swept against its current rows down to a block
    residual of SWEEP_TOL * max(||b||, 1), b the whole right-hand side;
    the sweeps keep the divergence rows at rounding (see the module
    docstring), which the 1e-10 check alone would not: an unswept solve
    leaves them at 1e-9..1e-8 on fine cavity meshes.  The check is made
    on the residuals of the blocks' last sweeps, which make up the whole
    step's, as no block has columns of the blocks solved after it.

    Every failure raises RuntimeError naming the block: a singular
    element interior block (naming the element too), a singular
    temperature, grounded flow or grounded joint Schur factorization, or a
    residual (NaN included) above 1e-10, reported with each block's
    residual: "block solve residual ... exceeds the 1e-10 contract (rhs
    norm ...; temperature block rows ..., flow block rows ...)", or "(rhs
    norm ...; joint block rows ...)" for a Newton step.
    """
    held = {} if held is None else held
    rhs = system.rhs
    bnorm = np.linalg.norm(rhs)
    target = SWEEP_TOL * max(bnorm, 1.0)
    x = np.empty_like(rhs)
    residuals = []
    for block in system.blocks:
        h = held.setdefault(block.name, HeldFactor())
        if h.inverse is not None:
            h.age += 1
        b = rhs[block.index]
        if block.lower is not None:
            b = b - block.lower(x)
        x[block.index], r = _swept(block.rows, b, target, h, block.factor)
        residuals.append((block.name, np.linalg.norm(r)))
    resid = math.hypot(*(r for _, r in residuals))
    if not resid <= 1e-10 * max(bnorm, 1.0):     # a NaN residual fails too
        raise RuntimeError(
            "block solve residual %.3e exceeds the 1e-10 contract (rhs norm "
            "%.3e; %s)" % (resid, bnorm, ", ".join(
                "%s block rows %.3e" % nr for nr in residuals)))
    return x
