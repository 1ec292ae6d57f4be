import gc
import re
import types
import weakref

import numpy as np
import pytest
import scipy.sparse as sps
import scipy.sparse.linalg as spla

import oracles
from wgconvect import forms
from wgconvect import linsys
from wgconvect import polybasis as pb
from wgconvect import postproc
from wgconvect import problems
from wgconvect import solver
from wgconvect.mesh import (INTERIOR_FLUID, OUTER, Mesh,
                            build_structured_mesh)


def manufactured_setup(nx, ny, degree=1, variant="wg1",
                       build=build_structured_mesh):
    prob = problems.manufactured_convection()
    mesh = build(nx, ny, prob.domain, prob.fluid_rect)
    params = forms.MethodParams.from_variant(variant, degree)
    return prob, mesh, params


def zero_data_problem():
    return problems.ProblemSpec(
        pr=1.0, ra=10.0, kappa=1.0,
        domain=(-1.0, 1.0, 0.0, 1.0), fluid_rect=(0.0, 1.0, 0.0, 1.0),
        temp_bc={w: ("dirichlet", "0") for w in
                 ("left", "right", "bottom", "top")})


def first_iterate(prob, mesh, params):
    asm = linsys.StepAssembler(mesh, params, prob)
    x = linsys.solve_sparse(asm.assemble(None))
    system = asm.assemble(None)
    full, lam = system.expand(x)
    return asm, full, lam


# ---------------------------------------------------------------- DOF map


def test_dofmap_block_sizes():
    prob, mesh, params = manufactured_setup(4, 2)
    dm = linsys.DofMap(mesh, params)
    nf, nff = len(mesh.fluid_elems), len(mesh.fluid_faces)
    expect = (2 * 3 * nf + 2 * 2 * nff + 1 * nf + 2 * nff
              + 3 * mesh.n_elems + 2 * mesh.n_faces)
    assert dm.n_dofs == expect
    assert dm.offset["u_int"] == 0
    assert dm.offset["u_tr"] == 2 * 3 * nf
    assert dm.offset["t_tr"] + 2 * mesh.n_faces == dm.n_dofs


@pytest.mark.parametrize("variant,degree", [("wg1", 1), ("wg3", 2)])
def test_local_layouts_join_interior_then_faces_in_order(variant, degree):
    prob, mesh, params = manufactured_setup(4, 2, degree, variant)
    dm = linsys.DofMap(mesh, params)
    fe = mesh.fluid_elems
    vloc, sloc, ploc = (dm.velocity_local(fe), dm.scalar_local(fe),
                        dm.pressure_local(fe))
    for i, e in enumerate(fe):
        faces = mesh.elem_faces[e]
        velocity = np.concatenate([
            np.concatenate([dm.u_interior([e])[0, d]]
                           + [dm.u_trace([f])[0, d] for f in faces])
            for d in range(2)])
        scalar = np.concatenate([dm.t_interior([e])[0]]
                                + [dm.t_trace([f])[0] for f in faces])
        pressure = np.concatenate([dm.p_interior([e])[0]]
                                  + [dm.p_trace([f])[0] for f in faces])
        assert np.array_equal(vloc[i], velocity)
        assert np.array_equal(sloc[i], scalar)
        assert np.array_equal(ploc[i], pressure)
    assert vloc.shape == (len(fe), 2 * params.scalar_size)
    assert ploc.shape == (len(fe), params.pressure_size)


def test_dofmap_free_indices_contiguous():
    prob, mesh, params = manufactured_setup(4, 2)
    dm = linsys.apply_nonhomogeneous_dirichlet(linsys.DofMap(mesh, params),
                                               prob)
    free = dm.free_index[dm.free_dofs]
    assert np.array_equal(free, np.arange(dm.n_free))
    assert np.all(dm.free_index[dm.fixed_mask] == -1)
    assert dm.n_free == dm.n_dofs - int(np.sum(dm.fixed_mask))


def test_velocity_traces_fixed_on_fluid_boundary():
    prob, mesh, params = manufactured_setup(4, 2)
    dm = linsys.DofMap(mesh, params)
    fixed_faces = np.flatnonzero(mesh.vel_dirichlet_mask)
    idx = dm.u_trace(fixed_faces).ravel()
    assert np.all(dm.fixed_mask[idx])
    assert np.all(dm.fixed_values[idx] == 0.0)
    free_faces = np.setdiff1d(mesh.fluid_faces,
                              np.flatnonzero(mesh.vel_dirichlet_mask))
    assert not np.any(dm.fixed_mask[dm.u_trace(free_faces).ravel()])


def test_velocity_dofs_rejected_on_solid():
    prob, mesh, params = manufactured_setup(4, 2)
    dm = linsys.DofMap(mesh, params)
    solid = np.flatnonzero(~mesh.is_fluid)[:1]
    with pytest.raises(ValueError, match="solid"):
        dm.u_interior(solid)


def test_pressure_dofs_rejected_on_solid():
    # a solid element or face has no pressure DOFs: asking for them must
    # raise, as for the velocity, not return another block's indices
    prob, mesh, params = manufactured_setup(4, 2)
    dm = linsys.DofMap(mesh, params)
    solid = np.flatnonzero(~mesh.is_fluid)[:1]
    solid_face = np.setdiff1d(np.arange(mesh.n_faces), mesh.fluid_faces)[:1]
    assert len(solid) == 1 and len(solid_face) == 1
    with pytest.raises(ValueError, match="solid element"):
        dm.p_interior(solid)
    with pytest.raises(ValueError, match="solid element"):
        dm.pressure_local(solid)
    with pytest.raises(ValueError, match="solid face"):
        dm.p_trace(solid_face)


def test_temperature_dirichlet_values_projected():
    prob = problems.cavity(1e3)
    mesh = build_structured_mesh(4, 4, prob.domain, prob.fluid_rect)
    params = forms.MethodParams.from_variant("wg1", 1)
    dm = linsys.apply_nonhomogeneous_dirichlet(linsys.DofMap(mesh, params),
                                               prob)
    wall_of = mesh.face_wall()
    left = np.flatnonzero((mesh.face_tag == OUTER) & (wall_of == "left"))
    idx = dm.t_trace(left)
    assert np.all(dm.fixed_mask[idx.ravel()])
    # hot wall holds the constant 1: first Legendre coefficient 1, rest 0
    assert np.allclose(dm.fixed_values[idx][:, 0], 1.0, atol=1e-14)
    assert np.allclose(dm.fixed_values[idx][:, 1:], 0.0, atol=1e-14)
    bottom = np.flatnonzero((mesh.face_tag == OUTER) & (wall_of == "bottom"))
    assert not np.any(dm.fixed_mask[dm.t_trace(bottom).ravel()])


def test_high_degree_wall_data_projected_exactly():
    # y**7 times a linear trace basis is degree 8 along the wall, beyond
    # the 2k + 4 = 6 the other projections use at k = 1
    unit = (0.0, 1.0, 0.0, 1.0)
    prob = problems.ProblemSpec(
        0.71, 1e3, 1.0, unit, unit,
        {"left": ("dirichlet", "y**7"), "right": ("dirichlet", "0"),
         "bottom": ("insulated", None), "top": ("insulated", None)})
    mesh = build_structured_mesh(4, 4, prob.domain, prob.fluid_rect)
    params = forms.MethodParams.from_variant("wg1", 1)
    dm = linsys.apply_nonhomogeneous_dirichlet(linsys.DofMap(mesh, params),
                                               prob)
    left = np.flatnonzero((mesh.face_tag == OUTER)
                          & (mesh.face_wall() == "left"))
    want = pb.project_face(mesh, left, params.trace_degree,
                           lambda x, y: y ** 7, 20)
    assert np.max(np.abs(dm.fixed_values[dm.t_trace(left)] - want)) <= 1e-14


def test_missing_wall_data_rejected():
    prob, mesh, params = manufactured_setup(4, 2)
    dm = linsys.DofMap(mesh, params)
    broken = types.SimpleNamespace(
        temp_bc={"left": ("dirichlet", "0")},
        temp_dirichlet_fn=prob.temp_dirichlet_fn)
    with pytest.raises(ValueError, match="insulation"):
        linsys.apply_nonhomogeneous_dirichlet(dm, broken)


def test_boundary_face_on_no_wall_rejected():
    # the cavity mesh claims a taller domain, so its top faces lie on none
    # of the domain's walls
    prob = problems.cavity(1e3)
    mesh = build_structured_mesh(4, 4, prob.domain, prob.fluid_rect)
    mesh = Mesh(mesh.vertices, mesh.triangles, mesh.elem_subdomain,
                (0, 1, 0, 2), mesh.fluid_rect)
    dm = linsys.DofMap(mesh, forms.MethodParams.from_variant("wg1", 1))
    with pytest.raises(ValueError, match=re.escape(
            "boundary faces [52, 53, 54, 55] lie on no wall")):
        linsys.apply_nonhomogeneous_dirichlet(dm, prob)


# ---------------------------------------------------------------- assembly


def test_system_dimension_is_free_count_plus_multiplier():
    prob, mesh, params = manufactured_setup(4, 2)
    system = linsys.assemble_oseen_step(mesh, params, prob)
    size = system.matrix.shape[0]
    assert size == system.dofmap.n_free + 1
    assert system.matrix.shape == (size, size)
    assert system.rhs.shape == (size,)


def test_stokes_velocity_block_symmetric():
    prob, mesh, params = manufactured_setup(4, 2, degree=2)
    asm = linsys.StepAssembler(mesh, params, prob)
    mat, _ = oracles.coo_step(asm)
    dm = asm.dofmap
    u_free = np.unique(np.concatenate([
        dm.free_index[dm.u_interior(mesh.fluid_elems).ravel()],
        dm.free_index[dm.u_trace(mesh.fluid_faces).ravel()]]))
    u_free = u_free[u_free >= 0]
    block = mat[u_free][:, u_free]
    gap = sps.linalg.norm(block - block.T) / sps.linalg.norm(block)
    assert gap <= 1e-12


def test_heat_rows_do_not_touch_flow_unknowns():
    prob, mesh, params = manufactured_setup(4, 2)
    asm = linsys.StepAssembler(mesh, params, prob)
    x0 = linsys.solve_sparse(asm.assemble(None))
    w, _ = asm.assemble(None).expand(x0)
    system = asm.assemble(w)
    mat, _ = oracles.coo_step(asm, w)
    dm = system.dofmap
    t_rows = np.unique(np.concatenate([
        dm.free_index[dm.t_interior(np.arange(mesh.n_elems)).ravel()],
        dm.free_index[dm.t_trace(np.arange(mesh.n_faces)).ravel()]]))
    t_rows = t_rows[t_rows >= 0]
    flow_cols = np.unique(np.concatenate([
        dm.free_index[dm.u_interior(mesh.fluid_elems).ravel()],
        dm.free_index[dm.u_trace(mesh.fluid_faces).ravel()],
        dm.free_index[dm.p_interior(mesh.fluid_elems).ravel()],
        dm.free_index[dm.p_trace(mesh.fluid_faces).ravel()]]))
    flow_cols = flow_cols[flow_cols >= 0]
    # the split recorded at assembly is the one the DOF map defines
    assert np.array_equal(t_rows, np.arange(system.flow_size,
                                            system.border_index))
    assert np.array_equal(system.flow_index, np.append(flow_cols, dm.n_free))
    assert mat[t_rows][:, system.flow_index].nnz == 0
    # while momentum rows do feel the temperature through buoyancy
    u_rows = dm.free_index[dm.u_interior(mesh.fluid_elems)[:, 1, :].ravel()]
    t_cols = dm.free_index[dm.t_interior(mesh.fluid_elems).ravel()]
    assert mat[u_rows][:, t_cols].nnz > 0


def test_convection_never_reaches_the_solid():
    # the advecting velocity lives on the fluid only: temperature DOFs that
    # belong to solid elements alone (solid interiors, faces with no fluid
    # neighbour) see no convection, in their rows or their columns
    prob, mesh, params = manufactured_setup(4, 2)
    asm = linsys.StepAssembler(mesh, params, prob)
    dm = asm.dofmap
    w = np.random.default_rng(5).normal(size=dm.n_dofs)
    vel_fixed = dm.fixed_mask.copy()
    vel_fixed[dm.offset["p_int"]:] = False
    w[vel_fixed] = 0.0
    diff = abs(oracles.coo_step(asm, w)[0]
               - oracles.coo_step(asm, None)[0]).tocsr()
    solid_only = dm.free_index[np.concatenate([
        dm.t_interior(np.flatnonzero(~mesh.is_fluid)).ravel(),
        dm.t_trace(np.setdiff1d(np.arange(mesh.n_faces),
                                mesh.fluid_faces)).ravel()])]
    solid_only = solid_only[solid_only >= 0]
    assert len(solid_only) > 0
    assert diff[solid_only].max() == 0.0
    assert diff[:, solid_only].max() == 0.0
    # while the fluid temperature rows do carry the transport
    t_fluid = dm.free_index[dm.t_interior(mesh.fluid_elems).ravel()]
    assert diff[t_fluid].max() > 0.0


def test_multiplier_row_is_fluid_mean():
    prob, mesh, params = manufactured_setup(4, 2)
    system = linsys.assemble_oseen_step(mesh, params, prob)
    dm = system.dofmap
    n = dm.n_free
    # the step as a dense matrix, one product per column
    mat = system.matrix @ np.eye(n + 1)
    row, col = mat[n], mat[:, n]
    assert np.allclose(row, col, atol=1e-15)
    p0 = dm.free_index[dm.p_interior(mesh.fluid_elems)[:, 0]]
    expect = np.zeros(n + 1)
    expect[p0] = mesh.det_b[mesh.fluid_elems] / np.sqrt(2.0)
    assert np.allclose(row, expect, atol=1e-15)


def test_w_prev_validation():
    prob, mesh, params = manufactured_setup(4, 2)
    asm = linsys.StepAssembler(mesh, params, prob)
    with pytest.raises(ValueError, match="length"):
        asm.assemble(np.zeros(asm.dofmap.n_dofs + 3))
    bad = np.zeros(asm.dofmap.n_dofs)
    fixed_vel = np.flatnonzero(mesh.vel_dirichlet_mask)[:1]
    bad[asm.dofmap.u_trace(fixed_vel).ravel()[0]] = 0.5
    with pytest.raises(ValueError, match="vanish"):
        asm.assemble(bad)


def pattern_setup(case, variant, degree, build=build_structured_mesh):
    """An assembler for the 6x6 cavity (lifted hot and cold walls) or the
    8x4 conjugate manufactured problem (solid elements), on the mesh build
    makes, plus advecting fields: zero, a random admissible one and the
    first iterate."""
    if case == "cavity":
        prob = problems.cavity(1e4)
        mesh = build(6, 6, prob.domain, prob.fluid_rect)
        params = forms.MethodParams.from_variant(variant, degree)
    else:
        prob, mesh, params = manufactured_setup(8, 4, degree, variant, build)
    asm = linsys.StepAssembler(mesh, params, prob)
    dm = asm.dofmap
    rng = np.random.default_rng(7)
    w_rand = rng.standard_normal(dm.n_dofs)
    w_rand[dm.fixed_mask & (np.arange(dm.n_dofs) < dm.offset["p_int"])] = 0
    first = asm.assemble(None)
    w_first, _ = first.expand(linsys.solve_sparse(first))
    return asm, {"zero": np.zeros(dm.n_dofs), "random": w_rand,
                 "first": w_first}


PATTERN_CASES = [("cavity", "wg1", 1), ("cavity", "wg1", 2),
                 ("cavity", "wg3", 2), ("manufactured", "wg1", 1),
                 ("manufactured", "wg1", 2), ("manufactured", "wg3", 2)]


def assert_steps_match_triplets(asm, fields):
    """Each step of asm, applied from its element stacks over the positions
    fixed at set-up, is the step the triplet oracle sums: on random
    vectors the products agree to rounding, in the temperature rows and in
    the flow rows apart, and the right-hand sides agree bit for bit."""
    rng = np.random.default_rng(2)
    for w in [None, *fields.values()]:
        system = asm.assemble(w)
        mat, rhs = oracles.coo_step(asm, w)
        assert system.matrix.shape == mat.shape
        assert np.array_equal(system.rhs, rhs)
        for _ in range(3):
            v = rng.standard_normal(mat.shape[1])
            got, want = system.matrix @ v, mat @ v
            for rows in (slice(system.flow_size, system.border_index),
                         system.flow_index):
                assert np.linalg.norm(got[rows] - want[rows]) \
                    <= 1e-14 * np.linalg.norm(want[rows])


@pytest.mark.parametrize("case,variant,degree", PATTERN_CASES)
def test_fixed_pattern_assembly_equals_triplet_assembly(case, variant,
                                                        degree):
    assert_steps_match_triplets(*pattern_setup(case, variant, degree))


@pytest.mark.parametrize("case,variant,degree", PATTERN_CASES)
def test_alternating_diagonals_assembly_equals_triplet_assembly(
        case, variant, degree):
    assert_steps_match_triplets(*pattern_setup(case, variant, degree,
                                               oracles.alternating_mesh))


@pytest.mark.parametrize("case,variant,degree", PATTERN_CASES)
def test_advected_step_lifts_nothing(case, variant, degree):
    # the convection blocks vanish in the fixed temperature columns, so an
    # advected step's right-hand side is the Stokes step's, bit for bit
    asm, fields = pattern_setup(case, variant, degree)
    stokes = asm.assemble(None).rhs
    for w in fields.values():
        assert asm.assemble(w).rhs.tobytes() == stokes.tobytes()


def test_steps_share_one_pattern(monkeypatch):
    # the only sparse patterns are the two trace Schur complements', found
    # once, when the assembler is set up: no step builds one, and the
    # Schur complements that two steps factor share their index arrays
    # (scipy wraps them in views) but not their values
    sizes = []
    pattern = linsys._pattern

    def counting(keys, size):
        sizes.append(size)
        return pattern(keys, size)

    monkeypatch.setattr(linsys, "_pattern", counting)
    prob, mesh, params = manufactured_setup(8, 4)
    asm = linsys.StepAssembler(mesh, params, prob)
    first = asm.assemble(None)
    assert [(m, m) for m in sizes] == oracles.schur_shapes(first)
    factored = []
    splu = spla.splu

    def recording_splu(mat, *args, **kwargs):
        factored.append(mat)
        return splu(mat, *args, **kwargs)

    monkeypatch.setattr(spla, "splu", recording_splu)
    w, _ = first.expand(linsys.solve_sparse(first))
    linsys.solve_sparse(asm.assemble(w))
    assert len(sizes) == 2 and len(factored) == 4
    for one, two in zip(factored[:2], factored[2:]):
        assert np.shares_memory(one.indices, two.indices)
        assert np.shares_memory(one.indptr, two.indptr)
        assert not np.shares_memory(one.data, two.data)
        assert not np.array_equal(one.data, two.data)


NEWTON_CASES = [("cavity", "wg1", 1), ("cavity", "wg3", 2),
                ("manufactured", "wg1", 1), ("manufactured", "wg3", 2)]


def coupled_fields(asm, w):
    """(E_f, 3, ns): each fluid element's velocity components and
    temperature of the full-layout vector w, in the scalar layout."""
    dm, fe = asm.dofmap, asm.mesh.fluid_elems
    ns = asm.params.scalar_size
    return np.concatenate([w[dm.velocity_local(fe)].reshape(len(fe), 2, ns),
                           w[dm.scalar_local(fe)][:, None]], axis=1)


@pytest.mark.parametrize("build", [build_structured_mesh,
                                   oracles.alternating_mesh])
@pytest.mark.parametrize("case,variant,degree", NEWTON_CASES)
def test_newton_step_equals_triplet_oracle(case, variant, degree, build):
    # the coupling stacks equal the unit-field oracle's, and the Newton
    # step about a random field and about the first iterate is the Picard
    # step's triplet matrix plus the oracle's coupling, with right-hand
    # side b + J_c x_k, in the temperature and the flow rows apart
    asm, fields = pattern_setup(case, variant, degree, build)
    dm, fe = asm.dofmap, asm.mesh.fluid_elems
    rng = np.random.default_rng(5)
    for w in (fields["random"], fields["first"]):
        x = coupled_fields(asm, w)
        got = forms.skew_convection_coupling(asm.mesh, fe, asm.params, x)
        want = oracles.unit_field_coupling(asm.mesh, fe, asm.params, x)
        assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)
        system = asm.linearize(w)
        coupling = oracles.newton_coupling(asm, w)
        mat = oracles.coo_step(asm, w)[0] + coupling
        x_k = np.append(w[dm.free_dofs], 0.0)
        rhs = asm.assemble(w).rhs + coupling @ x_k
        assert np.linalg.norm(system.rhs - rhs) <= 1e-14 * np.linalg.norm(rhs)
        f, n = dm.n_free_flow, dm.n_free
        for _ in range(3):
            v = rng.standard_normal(mat.shape[1])
            got, want = system.matrix @ v, mat @ v
            for rows in (slice(f, n), np.append(np.arange(f), n)):
                assert np.linalg.norm(got[rows] - want[rows]) \
                    <= 1e-14 * np.linalg.norm(want[rows])


@pytest.mark.parametrize("case,variant,degree", NEWTON_CASES)
def test_newton_step_linearizes_the_residual(case, variant, degree):
    # R(x) = A(u) x - b is quadratic, since the skew form is bilinear:
    # R(x + d) - R(x) - J(x) d is exactly the convection of d by itself,
    # c(d; d, v) + cbar(d; d_T, s), for seeded random x and d
    asm, _ = pattern_setup(case, variant, degree)
    dm = asm.dofmap
    rng = np.random.default_rng(13)
    free = dm.free_dofs

    def draw():
        v = np.where(dm.fixed_mask, 0.0, rng.standard_normal(dm.n_dofs))
        return v, np.append(v[free], rng.standard_normal())

    def residual(full, red):
        system = asm.assemble(full)
        return system.matrix @ red - system.rhs

    for _ in range(2):
        x, xr = draw()
        x += dm.fixed_values
        d, dr = draw()
        change = residual(x + d, xr + dr) - residual(x, xr)
        step = asm.linearize(x).matrix @ dr
        quadratic = (asm.assemble(d).matrix @ dr
                     - asm.assemble(None).matrix @ dr)
        assert np.linalg.norm(quadratic) > 0.0
        assert np.linalg.norm(change - step - quadratic) \
            <= 1e-13 * np.linalg.norm(quadratic)


def test_plain_solves_never_build_the_joint_block(monkeypatch):
    # the joint block is set up at the first Newton step, once: a plain
    # run builds only the temperature and flow blocks, a relaxed one the
    # joint block too
    names = []
    init = linsys.Condensation.__init__

    def counting(self, *args, **kwargs):
        init(self, *args, **kwargs)
        names.append(self.name)

    monkeypatch.setattr(linsys.Condensation, "__init__", counting)
    prob = problems.cavity(1e3)
    mesh = build_structured_mesh(8, 8, prob.domain, prob.fluid_rect)
    params = forms.MethodParams.from_variant("wg1", 1)
    solver.oseen_solve(mesh, params, prob, tol=1e-9)
    assert names == ["temperature block", "flow block"]
    names.clear()
    _, state = solver.oseen_solve(mesh, params, prob, tol=1e-9,
                                  relaxation="aitken")
    assert state.converged
    assert names == ["temperature block", "flow block", "joint block"]


def newton_steps(prob, mesh, params, about):
    """An assembler and its Newton steps about the Picard iterates
    numbered in about (1 is the first)."""
    asm = linsys.StepAssembler(mesh, params, prob)
    w = None
    iterates = []
    for _ in range(max(about)):
        system = asm.assemble(w)
        w, _ = system.expand(linsys.solve_sparse(system))
        iterates.append(w)
    return asm, [asm.linearize(iterates[i - 1]) for i in about]


def scale_first_factor(monkeypatch, kind):
    """Make the first block of every step of class kind factor to 1.5
    times its inverse."""
    blocks = kind.blocks

    def scaled(self):
        first, *rest = blocks.fget(self)

        def factor():
            inverse = first.factor()
            return lambda r: 1.5 * inverse(r)

        return [first._replace(factor=factor), *rest]

    monkeypatch.setattr(kind, "blocks", property(scaled))


def test_joint_solve_that_misses_the_contract_raises(monkeypatch):
    # a fresh joint inverse scaled by 1.5 stalls far above the contract:
    # the error names the joint block, and oseen_solve adds the iteration
    prob, mesh, params = manufactured_setup(8, 4)
    _, (system,) = newton_steps(prob, mesh, params, [1])
    scale_first_factor(monkeypatch, linsys.JointSystem)
    with pytest.raises(RuntimeError, match="joint block rows") as info:
        linsys.solve_sparse(system)
    found = re.search(r"residual (\S+) exceeds the 1e-10 contract \(rhs "
                      r"norm (\S+); joint block rows (\S+)\)",
                      str(info.value))
    resid, bnorm, joint_resid = map(float, found.groups())
    assert bnorm == pytest.approx(np.linalg.norm(system.rhs), rel=1e-3)
    assert resid > 1e-10 * bnorm and joint_resid == resid
    with pytest.raises(RuntimeError, match=r"iteration \d+: block solve "
                                           r"residual .*joint block rows"):
        solver.oseen_solve(mesh, params, prob, relaxation="aitken")


def test_solved_steps_are_freed_without_the_cyclic_collector():
    # a step holds no reference cycle: with the cyclic garbage collector
    # off, a solved Picard step and a solved Newton step are freed as soon
    # as their last reference goes (a cycle would keep each step, its
    # convection blocks included, alive until the collector ran)
    prob, mesh, params = manufactured_setup(8, 4)
    asm, w, _ = first_iterate(prob, mesh, params)
    enabled = gc.isenabled()
    gc.disable()
    try:
        for make in (asm.assemble, asm.linearize):
            system = make(w)
            x = linsys.solve_sparse(system)
            assert np.linalg.norm(system.matrix @ x - system.rhs) \
                <= 1e-10 * np.linalg.norm(system.rhs)
            system.expand(x)
            freed = weakref.ref(system)
            del system
            assert freed() is None
    finally:
        if enabled:
            gc.enable()


def test_zero_data_gives_zero_solution():
    prob = zero_data_problem()
    mesh = build_structured_mesh(4, 2, prob.domain, prob.fluid_rect)
    params = forms.MethodParams.from_variant("wg2", 1)
    system = linsys.assemble_oseen_step(mesh, params, prob)
    x = linsys.solve_sparse(system)
    assert np.max(np.abs(x)) <= 1e-12


def test_dirichlet_lifting_moves_data_to_rhs():
    # the assembled rhs must differ from the raw forcing moments exactly by
    # the lifted hot-wall column sums
    prob = problems.cavity(1e3)
    mesh = build_structured_mesh(4, 4, prob.domain, prob.fluid_rect)
    params = forms.MethodParams.from_variant("wg1", 1)
    system = linsys.assemble_oseen_step(mesh, params, prob)
    x = linsys.solve_sparse(system)
    full, _ = system.expand(x)
    wall_of = mesh.face_wall()
    left = np.flatnonzero((mesh.face_tag == OUTER) & (wall_of == "left"))
    vals = full[system.dofmap.t_trace(left)]
    assert np.allclose(vals[:, 0], 1.0, atol=1e-14)
    # and the interior temperature actually responds
    assert np.max(np.abs(full[system.dofmap.t_interior(
        np.arange(mesh.n_elems))])) > 0.01


# ---------------------------------------------------------------- solving


def test_solve_reports_singular(monkeypatch):
    # a zero row and column of the first interior DOF in the first
    # element's conduction or viscous matrix make that element's interior
    # block of the temperature or flow block singular: each solve must
    # fail, and the error must name the block and the element
    prob, mesh, params = manufactured_setup(4, 2)
    for blocks, block, elem in (
            ("conduction_blocks", "temperature block", 0),
            ("viscous_blocks", "flow block", mesh.fluid_elems[0])):
        real = getattr(forms, blocks)

        def broken(*args, real=real, **kwargs):
            out = real(*args, **kwargs)
            out[0, 0, :] = 0.0
            out[0, :, 0] = 0.0
            return out

        with monkeypatch.context() as patch:
            patch.setattr(forms, blocks, broken)
            system = linsys.assemble_oseen_step(mesh, params, prob)
        with pytest.raises(RuntimeError, match="singular") as info:
            linsys.solve_sparse(system)
        assert ("%s: the interior block of element %d " % (block, elem)
                in str(info.value))


def counting_factorizations(monkeypatch):
    """List that records the shape of every splu factorization."""
    shapes = []
    splu = spla.splu

    def counting_splu(*args, **kwargs):
        shapes.append(args[0].shape)
        return splu(*args, **kwargs)

    monkeypatch.setattr(spla, "splu", counting_splu)
    return shapes


def test_refined_bordered_solve_is_divergence_free(monkeypatch):
    # a Stokes step of the Ra=1e5 cavity meets the residual contract before
    # refinement but leaves the zero-rhs divergence rows at ~8e-10; the
    # refinement must reuse the one factorization of each diagonal block
    prob = problems.cavity(1e5)
    mesh = build_structured_mesh(12, 12, prob.domain, prob.fluid_rect)
    params = forms.MethodParams.from_variant("wg1", 1)
    asm = linsys.StepAssembler(mesh, params, prob)
    system = asm.assemble(None)

    factorizations = counting_factorizations(monkeypatch)
    x = linsys.solve_sparse(system)
    assert factorizations == oracles.schur_shapes(system)

    full, lam = system.expand(x)
    fields = postproc.WgFields(asm.dofmap, full, lam)
    div_h, jump = postproc.divergence_diagnostic(fields)
    assert div_h <= 1e-10
    assert jump <= 1e-10


def test_trace_factors_keep_the_fill_down(monkeypatch):
    # the Stokes step of a 12x12 cavity: the grounded flow Schur complement
    # factors to at most 400k stored entries (the whole grounded flow block
    # took 870,060 under COLAMD), and neither factored Schur complement
    # has a zero on its diagonal
    prob = problems.cavity(1e3)
    mesh = build_structured_mesh(12, 12, prob.domain, prob.fluid_rect)
    params = forms.MethodParams.from_variant("wg1", 1)
    system = linsys.StepAssembler(mesh, params, prob).assemble(None)
    factored = []
    splu = spla.splu

    def recording_splu(mat, *args, **kwargs):
        lu = splu(mat, *args, **kwargs)
        factored.append((mat, lu))
        return lu

    monkeypatch.setattr(spla, "splu", recording_splu)
    linsys.solve_sparse(system)
    assert [mat.shape for mat, _ in factored] == oracles.schur_shapes(system)
    assert factored[1][1].nnz <= 400_000
    for mat, _ in factored:
        assert np.all(mat.diagonal() != 0.0)


@pytest.mark.parametrize("advected", [False, True])
@pytest.mark.parametrize("variant,degree", [("wg1", 1), ("wg1", 2),
                                            ("wg3", 2)])
def test_condensed_inverse_equals_direct_solve(variant, degree, advected):
    # eliminating the element interiors is exact: on the 4x2 conjugate
    # mesh, whose solid elements carry only temperature interiors, the
    # inverse each block's factor applies equals a direct solve with the
    # block of the step matrix (the flow block with its multiplier row and
    # column); the factors are summed from the element matrices, so this
    # ties those to the matrix
    prob, mesh, params = manufactured_setup(4, 2, degree, variant)
    asm = linsys.StepAssembler(mesh, params, prob)
    dm = asm.dofmap
    w = None
    if advected:
        w = np.random.default_rng(3).standard_normal(dm.n_dofs)
        w[dm.fixed_mask & (np.arange(dm.n_dofs) < dm.offset["p_int"])] = 0
    system = asm.assemble(w)
    mat, _ = oracles.coo_step(asm, w)
    flow = system.flow_index
    f, n = system.flow_size, system.border_index
    rng = np.random.default_rng(11)
    for block, mat in zip(system.blocks,
                          (mat[f:n, f:n], mat[flow][:, flow])):
        inverse = block.factor()
        for _ in range(3):
            r = rng.standard_normal(mat.shape[0])
            want = spla.spsolve(mat.tocsc(), r)
            assert np.linalg.norm(inverse(r) - want) \
                <= 1e-10 * np.linalg.norm(want)


@pytest.mark.parametrize("variant,degree", [("wg1", 1), ("wg1", 2),
                                            ("wg3", 2)])
def test_constant_pressure_spans_the_flow_null_space(variant, degree):
    # on the 4x2 conjugate mesh, at a random admissible w, the constant
    # pressure the flow inverse deflates annihilates the velocity-pressure
    # block from both sides, and a solve leaves the mean-pressure
    # multiplier at rounding
    prob, mesh, params = manufactured_setup(4, 2, degree, variant)
    asm = linsys.StepAssembler(mesh, params, prob)
    dm = asm.dofmap
    w = np.random.default_rng(3).standard_normal(dm.n_dofs)
    w[dm.fixed_mask & (np.arange(dm.n_dofs) < dm.offset["p_int"])] = 0
    system = asm.assemble(w)
    f = system.flow_size
    k = oracles.coo_step(asm, w)[0][:f, :f]
    z = asm.flow.constant_pressure
    assert np.max(np.abs(k @ z)) <= 1e-13
    assert np.max(np.abs(k.T @ z)) <= 1e-13
    _, multiplier = system.expand(linsys.solve_sparse(system))
    assert abs(multiplier) <= 1e-12
    # the same for the joint block of the Newton step about w: its
    # coupling touches no pressure row or column, so z, extended by zero
    # on the temperature, spans its null space from both sides
    n = system.border_index
    joint = asm.linearize(w)
    j = (oracles.coo_step(asm, w)[0] + oracles.newton_coupling(asm, w))[:n, :n]
    z = np.append(z, np.zeros(n - f))
    assert np.array_equal(asm._joint.constant_pressure, z)
    assert np.max(np.abs(j @ z)) <= 1e-13
    assert np.max(np.abs(j.T @ z)) <= 1e-13
    _, multiplier = joint.expand(linsys.solve_sparse(joint))
    assert abs(multiplier) <= 1e-12


def flow_rows_without_w(system):
    """Flow-block positions of the rows that do not depend on w: the free
    pressure DOFs (the divergence rows b(u, q)) and the multiplier."""
    dm = system.dofmap
    free_flow = dm.free_dofs[:system.flow_size]
    return np.append(np.flatnonzero(free_flow >= dm.offset["p_int"]),
                     system.flow_size)


def test_stale_factor_keeps_divergence_rows_exact():
    # the held flow factor of the Stokes step of a 12x12 Ra=1e3 cavity is
    # far from the next step's block, yet one application of it leaves
    # the rows that do not involve w at rounding
    prob = problems.cavity(1e3)
    mesh = build_structured_mesh(12, 12, prob.domain, prob.fluid_rect)
    params = forms.MethodParams.from_variant("wg1", 1)
    asm = linsys.StepAssembler(mesh, params, prob)
    held = {}
    first = asm.assemble(None)
    w, _ = first.expand(linsys.solve_sparse(first, held))
    system = asm.assemble(w)
    flow, f = system.flow_index, system.flow_size
    x = linsys.solve_sparse(system)
    b = system.rhs[flow] - system.buoyancy(x[f:system.border_index])
    r = b - system.flow_rows(held["flow"].inverse(b))
    exact = flow_rows_without_w(system)
    rest = np.setdiff1d(np.arange(len(flow)), exact)
    assert np.linalg.norm(r[exact]) <= 1e-12 * np.linalg.norm(b)
    assert np.linalg.norm(r[rest]) >= 1e-3 * np.linalg.norm(b)
    # the joint factor of the Newton step about the first iterate,
    # applied to the step about the third, does the same in the whole
    # step's numbering; and the steps about the third to sixth iterates,
    # solved by sweeps with the factor of the first of them, keep the
    # velocity divergence free
    _, (early, late) = newton_steps(prob, mesh, params, [1, 3])
    (joint,) = early.blocks
    stale = joint.factor()
    b = late.rhs
    r = b - late.rows(stale(b))
    exact = np.append(exact[:-1], late.border_index)
    rest = np.setdiff1d(np.arange(len(b)), exact)
    assert np.linalg.norm(r[exact]) <= 1e-12 * np.linalg.norm(b)
    assert np.linalg.norm(r[rest]) >= 1e-3 * np.linalg.norm(b)
    held = {}
    _, steps = newton_steps(prob, mesh, params, [3, 4, 5, 6])
    for age, step in enumerate(steps):
        x = linsys.solve_sparse(step, held)
        joint = held["joint"]
        if age == 0:
            inverse = joint.inverse
        assert joint.inverse is inverse and joint.age == age
        full, lam = step.expand(x)
        fields = postproc.WgFields(asm.dofmap, full, lam)
        div_h, jump = postproc.divergence_diagnostic(fields)
        assert div_h <= 1e-10
        assert jump <= 1e-10


def test_stale_held_factor_solves_without_refactoring(monkeypatch):
    # the factors of the Stokes step serve the advected step of the
    # conjugate manufactured problem: no block is factored, and the
    # result meets the divergence contract
    prob, mesh, params = manufactured_setup(8, 4)
    asm = linsys.StepAssembler(mesh, params, prob)
    held = {}
    first = asm.assemble(None)
    w, _ = first.expand(linsys.solve_sparse(first, held))
    system = asm.assemble(w)
    stale = [h.inverse for h in held.values()]
    factorizations = counting_factorizations(monkeypatch)
    x = linsys.solve_sparse(system, held)
    assert factorizations == []
    assert list(held) == ["temperature", "flow"]
    assert [h.inverse for h in held.values()] == stale
    assert [h.age for h in held.values()] == [1, 1]
    full, lam = system.expand(x)
    fields = postproc.WgFields(asm.dofmap, full, lam)
    div_h, jump = postproc.divergence_diagnostic(fields)
    assert div_h <= 1e-10
    assert jump <= 1e-10


def test_stalled_held_factor_is_refactored(monkeypatch):
    # on an 8x8 Ra=1e3 cavity the Stokes factors cut the residual of the
    # first advected step less than tenfold: both blocks are factored
    # again and solved from zero, so the step equals a fresh solve bit for
    # bit, and it meets the contract
    prob = problems.cavity(1e3)
    mesh = build_structured_mesh(8, 8, prob.domain, prob.fluid_rect)
    params = forms.MethodParams.from_variant("wg1", 1)
    asm = linsys.StepAssembler(mesh, params, prob)
    held = {}
    first = asm.assemble(None)
    w, _ = first.expand(linsys.solve_sparse(first, held))
    system = asm.assemble(w)
    stale = [h.inverse for h in held.values()]
    factorizations = counting_factorizations(monkeypatch)
    x = linsys.solve_sparse(system, held)
    assert factorizations == oracles.schur_shapes(system)
    for h, old in zip(held.values(), stale):
        assert h.inverse is not old and h.age == 0
    full, lam = system.expand(x)
    fields = postproc.WgFields(asm.dofmap, full, lam)
    div_h, jump = postproc.divergence_diagnostic(fields)
    assert div_h <= 1e-10
    assert jump <= 1e-10
    assert np.array_equal(x, linsys.solve_sparse(system))


def test_warm_start_saves_applications():
    # a late Picard step of a 12x12 Ra=1e3 cavity, with the factors held
    # from the earlier steps: started from the previous step's solution it
    # applies the factors fewer times than from zero, and both starts meet
    # the contract
    prob = problems.cavity(1e3)
    mesh = build_structured_mesh(12, 12, prob.domain, prob.fluid_rect)
    params = forms.MethodParams.from_variant("wg1", 1)
    asm = linsys.StepAssembler(mesh, params, prob)
    held = {}
    w = None
    for _ in range(6):
        system = asm.assemble(w)
        w, _ = system.expand(linsys.solve_sparse(system, held))
    system = asm.assemble(w)

    def counted(warm):
        calls = []
        copies = {}
        for name, h in held.items():
            c = linsys.HeldFactor()
            c.inverse = lambda r, inv=h.inverse: calls.append(1) or inv(r)
            c.age = h.age
            c.last = h.last if warm else None
            copies[name] = c
        x = linsys.solve_sparse(system, copies)
        assert all(copies[name].age == h.age + 1
                   for name, h in held.items())
        return x, len(calls)

    x_warm, warm_calls = counted(True)
    x_cold, cold_calls = counted(False)
    assert warm_calls < cold_calls
    assert np.linalg.norm(x_warm - x_cold) <= 1e-10 * np.linalg.norm(x_cold)
    for x in (x_warm, x_cold):
        full, lam = system.expand(x)
        fields = postproc.WgFields(asm.dofmap, full, lam)
        div_h, jump = postproc.divergence_diagnostic(fields)
        assert div_h <= 1e-10
        assert jump <= 1e-10


def test_fresh_factor_sweeps_once_even_when_it_stalls():
    # a fresh inverse that cuts the residual only twofold is not replaced,
    # but it still makes the one sweep the divergence rows rely on
    mat = sps.identity(4, format="csr") * 3.0
    applied = []

    def inverse(r):
        applied.append(r.copy())
        return r / 2.0

    held = linsys.HeldFactor()
    x, _ = linsys._swept(mat.dot, np.ones(4), 1e-11, held, lambda: inverse)
    assert len(applied) == 2 and held.age == 0
    assert np.array_equal(x, np.full(4, 0.25))
    assert np.array_equal(held.last, x) and not np.shares_memory(held.last, x)


def test_fresh_block_solve_skips_the_product_at_zero():
    # from x = 0 the first residual is the right-hand side itself: a fresh
    # solve that meets its target at the first sweep applies its rows
    # twice (that sweep and the check after it), a warm start from
    # held.last three times (its first residual too)
    mat = sps.identity(4, format="csr") * 4.0
    applied = []

    def rows(x):
        applied.append(x.copy())
        return mat @ x

    rhs = np.arange(1.0, 5.0)
    held = linsys.HeldFactor()
    x, r = linsys._swept(rows, rhs, 1e-11, held, lambda: lambda v: v / 4.0)
    assert len(applied) == 2
    assert np.array_equal(applied[0], rhs / 4.0)
    assert np.array_equal(x, rhs / 4.0) and not np.any(r)
    applied.clear()
    held.age = 1
    x, r = linsys._swept(rows, rhs, 1e-11, held, None)
    assert len(applied) == 3
    assert np.array_equal(applied[0], rhs / 4.0)
    assert np.array_equal(x, rhs / 4.0) and not np.any(r)


def advected_step(variant, degree):
    """A step of the conjugate manufactured problem (fluid plus solid)
    assembled at a nonzero advecting velocity, and its triplet matrix."""
    prob, mesh, params = manufactured_setup(8, 4, degree, variant)
    asm = linsys.StepAssembler(mesh, params, prob)
    first = asm.assemble(None)
    w, _ = first.expand(linsys.solve_sparse(first))
    return asm.assemble(w), oracles.coo_step(asm, w)[0]


@pytest.mark.parametrize("variant,degree", [("wg1", 1), ("wg3", 2)])
def test_block_solve_matches_whole_matrix_solve(monkeypatch, variant,
                                                degree):
    system, mat = advected_step(variant, degree)
    factorizations = counting_factorizations(monkeypatch)
    x_block = linsys.solve_sparse(system)
    assert len(factorizations) == 2             # served by the block solve
    x_whole = spla.splu(mat.tocsc()).solve(system.rhs)
    assert np.linalg.norm(x_block - x_whole) \
        <= 1e-10 * np.linalg.norm(x_whole)


def test_block_solve_that_misses_the_contract_raises(monkeypatch):
    # a fresh temperature inverse scaled by 1.5 halves the error and flips
    # its sign at each application, so the temperature rows stall far
    # above the contract, and a fresh factor is never replaced: the
    # residual check fails, naming the temperature rows, while the flow
    # block meets its rows at the temperature it was given
    prob, mesh, params = manufactured_setup(4, 2)
    system = linsys.assemble_oseen_step(mesh, params, prob)
    scale_first_factor(monkeypatch, linsys.GlobalSystem)
    factorizations = counting_factorizations(monkeypatch)
    with pytest.raises(RuntimeError, match="exceeds the 1e-10") as info:
        linsys.solve_sparse(system)
    assert len(factorizations) == 2             # nothing is factored whole
    found = re.search(r"residual (\S+) .*temperature block rows (\S+), "
                      r"flow block rows (\S+)\)", str(info.value))
    resid, temp_resid, flow_resid = map(float, found.groups())
    limit = 1e-10 * np.linalg.norm(system.rhs)
    assert resid > limit and temp_resid > limit and flow_resid <= limit


def test_solve_is_deterministic():
    prob, mesh, params = manufactured_setup(4, 2)
    system = linsys.assemble_oseen_step(mesh, params, prob)
    x1 = linsys.solve_sparse(system)
    x2 = linsys.solve_sparse(linsys.assemble_oseen_step(mesh, params, prob))
    assert np.array_equal(x1, x2)


# ----------------------------------------------------- discrete invariants


def interior_divergence_max(mesh, dm, params, full):
    basis = pb.scalar_basis(params.degree)
    qr = pb.QuadratureRule.triangle(2 * params.degree)
    gphi = basis.grad(qr.points)
    fe = mesh.fluid_elems
    ui = full[dm.u_interior(fe)]
    gx = np.einsum("edk,qak->eqad", mesh.inv_bt[fe], gphi)
    div = np.einsum("eda,eqad->eq", ui, gx)
    return float(np.max(np.abs(div)))


def normal_jump_max(mesh, dm, params, full):
    basis = pb.scalar_basis(params.degree)
    t = np.linspace(0.04, 0.96, 9)
    worst = 0.0
    for f in np.flatnonzero(mesh.face_tag == INTERIOR_FLUID):
        pts = mesh.face_points(np.array([f]), t)[0]
        n = mesh.normals[f]
        sides = []
        for e in mesh.face_elems[f]:
            ref = (pts - mesh.elem_origin[e]) @ mesh.inv_bt[e]
            phi = basis.eval(ref)
            ui = full[dm.u_interior([e])][0]
            sides.append(np.einsum("da,qa,d->q", ui, phi, n))
        worst = max(worst, float(np.max(np.abs(sides[0] - sides[1]))))
    return worst


@pytest.mark.parametrize("variant,degree", [("wg1", 1), ("wg2", 1),
                                            ("wg3", 2)])
def test_first_iterate_globally_divergence_free(variant, degree):
    prob, mesh, params = manufactured_setup(8, 4, degree, variant)
    asm, full, _ = first_iterate(prob, mesh, params)
    scale = max(1.0, np.max(np.abs(full)))
    assert interior_divergence_max(mesh, asm.dofmap, params, full) \
        <= 1e-10 * scale
    assert normal_jump_max(mesh, asm.dofmap, params, full) <= 1e-10 * scale


def test_mean_interior_pressure_vanishes():
    prob, mesh, params = manufactured_setup(8, 4)
    asm, full, lam = first_iterate(prob, mesh, params)
    fe = mesh.fluid_elems
    p0 = full[asm.dofmap.p_interior(fe)]
    mean = np.sum(mesh.det_b[fe] * p0[:, 0]) / np.sqrt(2.0)
    pnorm = np.sqrt(np.sum(mesh.det_b[fe][:, None] * p0 ** 2))
    fluid_area = 1.0
    assert abs(mean) <= 1e-10 * max(fluid_area * pnorm, 1e-30)
    assert abs(lam) <= 1e-10 * max(pnorm, 1.0)


def test_oseen_iterates_approach_exact_fields():
    prob, mesh, params = manufactured_setup(8, 4)
    asm = linsys.StepAssembler(mesh, params, prob)
    w = None
    for _ in range(12):
        system = asm.assemble(w)
        full, _ = system.expand(linsys.solve_sparse(system))
        inc = np.inf if w is None else np.linalg.norm(full - w)
        w = full
        if inc <= 1e-12 * np.linalg.norm(full):
            break
    qr = pb.QuadratureRule.triangle(8)
    fe = mesh.fluid_elems
    pts = mesh.map_points(fe, qr.points)
    uex = prob.exact.u(pts[..., 0], pts[..., 1])
    phi = pb.scalar_basis(params.degree).eval(qr.points)
    uh = np.einsum("eda,qa->eqd", w[asm.dofmap.u_interior(fe)], phi)
    err = np.sqrt(np.sum(mesh.det_b[fe][:, None] * qr.weights
                         * np.sum((uh - uex) ** 2, axis=-1)))
    assert err <= 8e-4          # second-order accurate at h = sqrt(2)/4


# ------------------------------------------------------------- inf-sup


def test_pressure_schur_uniform_under_refinement():
    prob = problems.manufactured_convection()
    params = forms.MethodParams.from_variant("wg1", 1)
    vals = []
    for nx, ny in ((8, 4), (16, 8)):
        mesh = build_structured_mesh(nx, ny, prob.domain, prob.fluid_rect)
        null, beta_sq = oracles.pressure_schur_smallest(mesh, params, prob)
        assert abs(null) <= 1e-12 * beta_sq
        vals.append(beta_sq)
        print("inf-sup^2 on %dx%d fluid mesh: %.5f" % (nx, ny, beta_sq))
    assert vals[1] >= 0.5 * vals[0]
