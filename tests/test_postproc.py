import numpy as np
import pytest

import oracles
from wgconvect import forms
from wgconvect import linsys
from wgconvect import polybasis as pb
from wgconvect import postproc
from wgconvect import problems
from wgconvect import solver
from wgconvect.mesh import build_structured_mesh

UNIT = (0.0, 1.0, 0.0, 1.0)

VARIANTS = [("wg1", 1), ("wg2", 1), ("wg3", 1), ("wg1", 2), ("wg3", 2)]


def manufactured_setup(nx, ny, degree=1, variant="wg1"):
    prob = problems.manufactured_convection()
    mesh = build_structured_mesh(nx, ny, prob.domain, prob.fluid_rect)
    params = forms.MethodParams.from_variant(variant, degree)
    return prob, mesh, params


def fields_from_callables(mesh, params, u=None, T=None, p=None):
    """WgFields holding componentwise L2 projections of the callables,
    written directly (boundary traces included, no Dirichlet handling)."""
    dm = linsys.DofMap(mesh, params)
    coeffs = np.zeros(dm.n_dofs)
    k, l = params.degree, params.trace_degree
    qd = 2 * k + 8
    fe, ff = mesh.fluid_elems, mesh.fluid_faces
    if u is not None:
        for d in range(2):
            comp = lambda x, y, d=d: u(x, y)[..., d]
            coeffs[dm.u_interior(fe)[:, d, :]] = pb.project_interior(
                mesh, fe, k, comp, qd)
            coeffs[dm.u_trace(ff)[:, d, :]] = pb.project_face(
                mesh, ff, l, comp, qd)
    if p is not None:
        coeffs[dm.p_interior(fe)] = pb.project_interior(
            mesh, fe, k - 1, p, qd)
        coeffs[dm.p_trace(ff)] = pb.project_face(mesh, ff, k, p, qd)
    if T is not None:
        all_e = np.arange(mesh.n_elems)
        all_f = np.arange(mesh.n_faces)
        coeffs[dm.t_interior(all_e)] = pb.project_interior(
            mesh, all_e, k, T, qd)
        coeffs[dm.t_trace(all_f)] = pb.project_face(mesh, all_f, l, T, qd)
    return postproc.WgFields(dm, coeffs)


def linear_velocity(x, y):
    return np.stack([2.0 * x + 3.0 * y - 1.0, x - y], axis=-1)


# ---------------------------------------------------------------- norms


def test_triple_norm_of_zero_fields_is_zero():
    prob, mesh, params = manufactured_setup(4, 2)
    dm = linsys.DofMap(mesh, params)
    fields = postproc.WgFields(dm, np.zeros(dm.n_dofs))
    assert postproc.triple_norm(fields, "velocity") == 0.0
    assert postproc.triple_norm(fields, "temperature") == 0.0


def test_triple_norm_rejects_unknown_kind():
    prob, mesh, params = manufactured_setup(4, 2)
    dm = linsys.DofMap(mesh, params)
    fields = postproc.WgFields(dm, np.zeros(dm.n_dofs))
    with pytest.raises(ValueError):
        postproc.triple_norm(fields, "pressure")


@pytest.mark.parametrize("variant,degree", [("wg1", 1), ("wg3", 2)])
def test_triple_norm_with_held_matrices_is_bitwise(variant, degree):
    # the solver builds the norm matrices once per solve; with them, the
    # norm of any field equals the stand-alone call bit for bit
    prob, mesh, params = manufactured_setup(8, 4, degree, variant)
    dm = linsys.DofMap(mesh, params)
    rng = np.random.default_rng(5)
    for kind in ("velocity", "temperature"):
        mats = postproc.norm_matrices(mesh, params, kind)
        for _ in range(3):
            fields = postproc.WgFields(dm, rng.standard_normal(dm.n_dofs))
            alone = postproc.triple_norm(fields, kind)
            assert alone > 0.0
            assert postproc.triple_norm(fields, kind, matrices=mats) == alone


def test_velocity_triple_norm_matches_momentum_diffusion_energy():
    # Pr * |||v|||^2 is exactly the momentum diffusion quadratic form
    rng = np.random.default_rng(61)
    for variant, degree in VARIANTS:
        prob, mesh, params = manufactured_setup(4, 2, degree, variant)
        dm = linsys.DofMap(mesh, params)
        fe = mesh.fluid_elems
        A = forms.viscous_blocks(mesh, fe, params, prob.pr)
        loc = dm.velocity_local(fe)
        for _ in range(4):
            coeffs = rng.standard_normal(dm.n_dofs)
            fields = postproc.WgFields(dm, coeffs)
            v = coeffs[loc]
            energy = float(np.einsum("ei,eij,ej->", v, A, v))
            norm_sq = prob.pr * postproc.triple_norm(fields, "velocity") ** 2
            assert norm_sq == pytest.approx(energy, rel=1e-10)


def test_temperature_triple_norm_matches_conduction_energy():
    rng = np.random.default_rng(62)
    for variant, degree in VARIANTS:
        prob, mesh, params = manufactured_setup(4, 2, degree, variant)
        dm = linsys.DofMap(mesh, params)
        all_e = np.arange(mesh.n_elems)
        A = forms.conduction_blocks(mesh, all_e, params, prob.kappa)
        loc = dm.scalar_local(all_e)
        for _ in range(4):
            coeffs = rng.standard_normal(dm.n_dofs)
            fields = postproc.WgFields(dm, coeffs)
            s = coeffs[loc]
            energy = float(np.einsum("ei,eij,ej->", s, A, s))
            norm_sq = (prob.kappa
                       * postproc.triple_norm(fields, "temperature") ** 2)
            assert norm_sq == pytest.approx(energy, rel=1e-10)


def test_triple_norm_of_linear_fields_is_exact():
    # grad T = (2, 3) on the whole 2x1 domain; grad u rows (2, 3), (1, -1)
    # on the unit fluid box; projections are exact, jumps vanish
    for variant, degree in VARIANTS:
        prob, mesh, params = manufactured_setup(8, 4, degree, variant)
        fields = fields_from_callables(
            mesh, params, u=linear_velocity,
            T=lambda x, y: 2.0 * x + 3.0 * y - 1.0)
        assert postproc.triple_norm(fields, "temperature") ** 2 \
            == pytest.approx(13.0 * 2.0, rel=1e-12)
        assert postproc.triple_norm(fields, "velocity") ** 2 \
            == pytest.approx(15.0 * 1.0, rel=1e-12)


def test_pressure_l2_of_projected_constant():
    prob, mesh, params = manufactured_setup(4, 2)
    fields = fields_from_callables(mesh, params,
                                   p=lambda x, y: 3.0 * np.ones_like(x))
    assert postproc.pressure_l2(fields) == pytest.approx(3.0, rel=1e-12)


# ------------------------------------------------- weak-gradient values


def test_weak_gradient_of_linear_interpolant_is_exact():
    for variant, degree in VARIANTS:
        prob, mesh, params = manufactured_setup(4, 2, degree, variant)
        fields = fields_from_callables(
            mesh, params, u=linear_velocity,
            T=lambda x, y: 2.0 * x + 3.0 * y - 1.0)
        pts = np.array([[0.2, 0.3], [0.5, 0.1], [0.1, 0.6]])
        gu = fields.velocity_weak_gradient_at(mesh.fluid_elems, pts)
        expect = np.array([[2.0, 3.0], [1.0, -1.0]])
        assert np.max(np.abs(gu - expect)) < 1e-11
        gt = fields.temperature_weak_gradient_at(
            np.arange(mesh.n_elems), pts)
        assert np.max(np.abs(gt - np.array([2.0, 3.0]))) < 1e-11


EVALUATORS = ["velocity_at", "velocity_gradient_at", "pressure_at",
              "temperature_at", "temperature_gradient_at",
              "velocity_weak_gradient_at", "temperature_weak_gradient_at"]


@pytest.mark.parametrize("name", EVALUATORS)
def test_evaluators_take_per_element_points(name):
    prob, mesh, params = manufactured_setup(4, 2, 2, "wg3")
    ex = prob.exact
    fields = fields_from_callables(mesh, params, u=ex.u, T=ex.T, p=ex.p)
    elems = (np.arange(mesh.n_elems) if name.startswith("temperature")
             else mesh.fluid_elems)
    pts = np.array([[0.2, 0.3], [0.5, 0.1], [0.1, 0.6], [0.0, 1.0]])
    shared = getattr(fields, name)(elems, pts)
    each = getattr(fields, name)(elems, np.tile(pts, (len(elems), 1, 1)))
    assert each.shape == shared.shape
    assert np.max(np.abs(each - shared)) <= 1e-14 * np.max(np.abs(shared))


def random_fields(variant, degree):
    prob, mesh, params = manufactured_setup(8, 4, degree, variant)
    dm = linsys.DofMap(mesh, params)
    coeffs = np.random.default_rng(11).standard_normal(dm.n_dofs)
    return postproc.WgFields(dm, coeffs)


def assert_close(got, want, rel):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= rel * np.max(np.abs(want))


@pytest.mark.parametrize("variant,degree", [("wg1", 1), ("wg3", 2)])
@pytest.mark.parametrize("name", EVALUATORS)
def test_evaluators_match_einsum_oracle(name, variant, degree):
    fields = random_fields(variant, degree)
    mesh = fields.mesh
    elems = (np.arange(mesh.n_elems) if name.startswith("temperature")
             else mesh.fluid_elems)
    rng = np.random.default_rng(5)
    shared = pb.QuadratureRule.triangle(2 * degree + 4).points
    each = rng.random((len(elems), 7, 2)) * 0.5
    oracle = oracles.EinsumFields(fields)
    for pts in (shared, each):
        assert_close(getattr(fields, name)(elems, pts),
                     getattr(oracle, name)(elems, pts), 1e-14)


@pytest.mark.parametrize("variant,degree", [("wg1", 1), ("wg3", 2)])
def test_divergence_diagnostic_matches_einsum_oracle(variant, degree):
    fields = random_fields(variant, degree)
    got = postproc.divergence_diagnostic(fields)
    want = oracles.divergence_diagnostic(fields)
    assert_close(np.array(got), np.array(want), 1e-14)


# ---------------------------------------------------------------- errors


def test_interpolant_error_orders():
    prob = problems.manufactured_convection()
    for degree, last in [(1, 8), (2, 8)]:
        params = forms.MethodParams.from_variant("wg1", degree)
        reps = []
        for n in (2, 4, 8):
            mesh = build_structured_mesh(4 * n, 2 * n, prob.domain,
                                         prob.fluid_rect)
            dm = linsys.DofMap(mesh, params)
            fields = oracles.interpolate_exact(mesh, params, dm, prob.exact)
            reps.append(postproc.error_report(fields, prob.exact))
        for name, target in [("grad_u", degree), ("l2_u", degree + 1),
                             ("grad_t", degree), ("l2_t", degree + 1),
                             ("l2_p", degree)]:
            errs = [getattr(r, name) for r in reps]
            order = postproc.observed_order(errs)[-1]
            assert abs(order - target) < 0.15, (name, order)


def test_solved_coarse_mesh_errors_match_frozen_values():
    # frozen regression values for the 8x4 mesh, lowest-order method
    prob, mesh, params = manufactured_setup(8, 4)
    fields, state = solver.oseen_solve(mesh, params, prob, tol=1e-10)
    assert state.converged
    rep = postproc.error_report(fields, prob.exact)
    expect = {"grad_u": 5.9412e-01, "l2_u": 1.6959e-01, "l2_p": 4.4819e-01,
              "grad_t": 2.4656e-01, "l2_t": 2.7341e-02}
    for name, val in expect.items():
        assert getattr(rep, name) == pytest.approx(val, rel=0.02), name
    assert rep.div_h < 1e-10
    assert rep.grad_u_rec < rep.grad_u
    assert rep.h == pytest.approx(0.25)


def test_error_report_of_interpolant_has_machine_zero_divergence():
    prob, mesh, params = manufactured_setup(8, 4)
    dm = linsys.DofMap(mesh, params)
    fields = oracles.interpolate_exact(mesh, params, dm, prob.exact)
    div_h, jump = postproc.divergence_diagnostic(fields)
    # the interpolant of a divergence-free field is not discretely
    # divergence-free, but the diagnostic must at least be finite and the
    # exact-zero case must report zero
    zero = postproc.WgFields(dm, np.zeros(dm.n_dofs))
    assert postproc.divergence_diagnostic(zero) == (0.0, 0.0)
    assert np.isfinite(div_h) and np.isfinite(jump)


def test_divergence_diagnostic_of_identity_field():
    # u = (x, y): div u = 2, ||2||_K = 2 sqrt|K|, h_K = 1/4, so the scaled
    # norm is sqrt(2); the worst boundary face integral of |u.n| is 1/4
    mesh = build_structured_mesh(4, 4, UNIT, UNIT)
    params = forms.MethodParams.from_variant("wg1", 1)
    fields = fields_from_callables(
        mesh, params, u=lambda x, y: np.stack([x, y], axis=-1))
    div_h, jump = postproc.divergence_diagnostic(fields)
    assert div_h == pytest.approx(np.sqrt(2.0), rel=1e-12)
    assert jump == pytest.approx(0.25, rel=1e-12)


def test_divergence_diagnostic_of_interior_face_jumps():
    # u = (3, 0) on the cells of [1/4, 1/2] x [1/4, 3/4], (1, 0) on those
    # of [1/2, 3/4] x [1/4, 3/4] and zero elsewhere: elementwise constant,
    # so div_h = 0, and zero on the boundary.  Normal jumps times face
    # length h_e = 1/4: |3 - 0| / 4 at x = 1/4, |3 - 1| / 4 at x = 1/2 and
    # |1 - 0| / 4 at x = 3/4; the worst is 3/4, on interior faces only
    mesh = build_structured_mesh(4, 4, UNIT, UNIT)
    params = forms.MethodParams.from_variant("wg1", 1)

    def u(x, y):
        rows = (y > 0.25) & (y < 0.75)
        ux = np.where(rows & (x > 0.25) & (x < 0.5), 3.0,
                      np.where(rows & (x > 0.5) & (x < 0.75), 1.0, 0.0))
        return np.stack([ux, np.zeros_like(ux)], axis=-1)

    fields = fields_from_callables(mesh, params, u=u)
    div_h, jump = postproc.divergence_diagnostic(fields)
    assert div_h <= 1e-13
    assert jump == pytest.approx(0.75, rel=1e-12)


def test_observed_order_values_and_rejections():
    orders = postproc.observed_order([1.0, 0.5, 0.25])
    assert np.allclose(orders, [1.0, 1.0])
    with pytest.raises(ValueError):
        postproc.observed_order([1.0])
    with pytest.raises(ValueError):
        postproc.observed_order([1.0, 0.0])
    with pytest.raises(ValueError):
        postproc.observed_order(np.ones((2, 2)))


def test_wgfields_take_mesh_and_params_from_the_dofmap():
    prob, mesh, params = manufactured_setup(4, 2, degree=2, variant="wg3")
    dm = linsys.DofMap(mesh, params)
    fields = postproc.WgFields(dm, np.zeros(dm.n_dofs), 0.5)
    assert fields.mesh is dm.mesh and fields.params is dm.params
    copy = fields.copy_with(np.ones(dm.n_dofs))
    assert copy.dofmap is dm and copy.params is params
    assert copy.multiplier == 0.5


def test_wgfields_rejects_wrong_length():
    prob, mesh, params = manufactured_setup(4, 2)
    dm = linsys.DofMap(mesh, params)
    with pytest.raises(ValueError):
        postproc.WgFields(dm, np.zeros(dm.n_dofs + 1))


# ---------------------------------------------------------------- cavity


def test_cavity_report_of_resting_uniform_state_is_zero():
    mesh = build_structured_mesh(4, 4, UNIT, UNIT)
    params = forms.MethodParams.from_variant("wg1", 1)
    fields = fields_from_callables(mesh, params,
                                   T=lambda x, y: np.ones_like(x))
    rep = postproc.cavity_report(fields)
    for name in ("u1_max", "u2_max", "nu_bar", "nu_max", "nu_min",
                 "nu_volume"):
        assert abs(getattr(rep, name)) < 1e-12, name


def test_cavity_report_of_conduction_profile():
    # T = 1 - x gives local Nusselt -dT/dx = 1 everywhere on the hot wall;
    # T = (1 - x)(1 + y) gives 1 + y, which varies along the wall: mean and
    # volume average 1.5, largest 2 at the top corner, smallest 1 at the
    # bottom
    mesh = build_structured_mesh(5, 5, UNIT, UNIT)
    for degree, T, (mean, top, bottom) in [
            (1, lambda x, y: 1.0 - x, (1.0, 1.0, 1.0)),
            (2, lambda x, y: (1.0 - x) * (1.0 + y), (1.5, 2.0, 1.0))]:
        params = forms.MethodParams.from_variant("wg1", degree)
        rep = postproc.cavity_report(fields_from_callables(mesh, params, T=T))
        assert rep.nu_bar == pytest.approx(mean, abs=1e-12)
        assert rep.nu_max == pytest.approx(top, abs=1e-12)
        assert rep.nu_min == pytest.approx(bottom, abs=1e-12)
        assert rep.nu_volume == pytest.approx(mean, abs=1e-12)


def test_cavity_midplane_extrema_of_quadratic_profile():
    # u1 = y(1-y) peaks at 0.25 on the vertical mid-plane, u2 = x(1-x) on
    # the horizontal one; both are exactly representable at degree 2.  On
    # the even mesh the mid-planes run along grid lines; on the odd one they
    # cut element interiors, and the diagonal of the centre cell crosses
    # them at the peak
    params = forms.MethodParams.from_variant("wg1", 2)
    for n in (4, 5):
        mesh = build_structured_mesh(n, n, UNIT, UNIT)
        fields = fields_from_callables(
            mesh, params,
            u=lambda x, y: np.stack([y * (1.0 - y), x * (1.0 - x)], axis=-1))
        rep = postproc.cavity_report(fields)
        assert rep.u1_max == pytest.approx(0.25, rel=1e-12), n
        assert rep.u2_max == pytest.approx(0.25, rel=1e-12), n


def test_cavity_nusselt_stable_under_quadrature_refinement():
    mesh = build_structured_mesh(5, 5, UNIT, UNIT)
    params = forms.MethodParams.from_variant("wg1", 1)
    rng = np.random.default_rng(7)
    dm = linsys.DofMap(mesh, params)
    fields = postproc.WgFields(dm, rng.standard_normal(dm.n_dofs))
    a = postproc.cavity_report(fields, quad_degree=6)
    b = postproc.cavity_report(fields, quad_degree=12)
    assert a.nu_bar == pytest.approx(b.nu_bar, abs=1e-12)
    assert a.nu_volume == pytest.approx(b.nu_volume, abs=1e-12)


def test_midplane_extremum_outside_fluid_zone_raises():
    prob, mesh, params = manufactured_setup(4, 2)
    dm = linsys.DofMap(mesh, params)
    fields = postproc.WgFields(dm, np.zeros(dm.n_dofs))
    with pytest.raises(ValueError):
        postproc._midplane_extremum(fields, 0, -0.5, 0)


# -------------------------------------------------------- stream function


def test_stream_function_of_zero_velocity_is_zero():
    prob, mesh, params = manufactured_setup(4, 2)
    dm = linsys.DofMap(mesh, params)
    fields = postproc.WgFields(dm, np.zeros(dm.n_dofs))
    assert np.max(np.abs(postproc.stream_function(fields))) == 0.0


def test_stream_function_of_manufactured_interpolant():
    prob, mesh, params = manufactured_setup(32, 16, degree=2)
    dm = linsys.DofMap(mesh, params)
    fields = oracles.interpolate_exact(mesh, params, dm, prob.exact)
    psi = postproc.stream_function(fields)

    def psi_exact(x, y):
        return -0.5 * x ** 2 * (x - 1.0) ** 2 * y ** 2 * (y - 1.0) ** 2

    exact = psi_exact(mesh.vertices[:, 0], mesh.vertices[:, 1])
    exact[~np.isin(np.arange(mesh.n_vertices),
                   np.unique(mesh.triangles[mesh.fluid_elems]))] = 0.0
    scale = np.max(np.abs(exact))
    assert np.max(np.abs(psi - exact)) < 0.05 * scale
    assert np.max(psi) < 1e-12          # the cell rotates clockwise


# ---------------------------------------------------------------- export


def test_export_fields_vtk_structure(tmp_path):
    mesh = build_structured_mesh(6, 6, UNIT, UNIT)
    params = forms.MethodParams.from_variant("wg1", 1)
    fields = fields_from_callables(
        mesh, params, T=lambda x, y: 1.0 - x,
        u=lambda x, y: np.stack([np.sin(3.0 * x) * y, np.cos(2.0 * y) * x],
                                axis=-1),
        p=lambda x, y: np.exp(x) - y)
    path = tmp_path / "fields.vtk"
    postproc.export_fields(fields, path)
    text = path.read_text().splitlines()
    nv, ne = mesh.n_vertices, mesh.n_elems
    assert text[0].startswith("# vtk DataFile")
    assert "POINTS %d double" % nv in text
    assert "CELLS %d %d" % (ne, 4 * ne) in text
    names = [line.split()[1] for line in text
             if line.startswith("SCALARS")]
    assert names == ["u1", "u2", "p", "T", "psi"]

    start = text.index("SCALARS T double 1") + 2
    tvals = np.array([float(v) for v in text[start:start + nv]])
    assert np.allclose(tvals, 1.0 - mesh.vertices[:, 0], atol=1e-12)

    # %.17g round-trips a double, so every exported number reads back bit
    # for bit
    start = text.index("POINTS %d double" % nv) + 1
    points = np.array([[float(v) for v in line.split()]
                       for line in text[start:start + nv]])
    assert np.array_equal(points, np.column_stack([mesh.vertices,
                                                   np.zeros(nv)]))
    start = text.index("CELLS %d %d" % (ne, 4 * ne)) + 1
    cells = np.array([[int(v) for v in line.split()]
                      for line in text[start:start + ne]])
    assert np.array_equal(cells, np.column_stack([np.full(ne, 3),
                                                  mesh.triangles]))
    expect = postproc._vertex_averages(fields)
    expect["psi"] = postproc.stream_function(fields)
    for name in names:
        start = text.index("SCALARS %s double 1" % name) + 2
        got = np.array([float(v) for v in text[start:start + nv]])
        assert np.array_equal(got, expect[name]), name
        assert np.any(got != 0.0), name


def test_export_fields_bad_path_raises():
    prob, mesh, params = manufactured_setup(2, 1)
    dm = linsys.DofMap(mesh, params)
    fields = postproc.WgFields(dm, np.zeros(dm.n_dofs))
    with pytest.raises(OSError):
        postproc.export_fields(fields, "/nonexistent-dir/out.vtk")


def test_write_convergence_csv_orders(tmp_path):
    reps = [postproc.ErrorReport(0.8, 0.4, 0.2, 0.1, 0.05, 1e-14, 0.5),
            postproc.ErrorReport(0.4, 0.2, 0.1, 0.05, 0.025, 1e-14, 0.25)]
    path = tmp_path / "conv.csv"
    postproc.write_convergence_csv(reps, path)
    lines = path.read_text().splitlines()
    assert len(lines) == 3
    header = lines[0].split(",")
    assert header[0] == "h" and header[-1] == "div_h"
    second = lines[2].split(",")
    orders = second[1 + len(postproc.ErrorReport.FIELDS):-1]
    assert orders == ["1.000"] * len(postproc.ErrorReport.FIELDS)


def test_write_cavity_csv_roundtrip(tmp_path):
    rep = postproc.CavityReport(3.653, 3.711, 1.118, 1.506, 0.691, 1.117)
    path = tmp_path / "cavity.csv"
    postproc.write_cavity_csv([("ra1e3", rep)], path)
    lines = path.read_text().splitlines()
    assert lines[0] == "case,u1_max,u2_max,nu_bar,nu_max,nu_min,nu_volume"
    parts = lines[1].split(",")
    assert parts[0] == "ra1e3"
    assert [float(v) for v in parts[1:]] == [3.653, 3.711, 1.118, 1.506,
                                             0.691, 1.117]
