import gc
import os
import subprocess
import sys
import weakref

import numpy as np
import pytest
import scipy.sparse.linalg as spla

import oracles
from wgconvect import forms
from wgconvect import linsys
from wgconvect import postproc
from wgconvect import problems
from wgconvect import solver
from wgconvect.mesh import build_structured_mesh


def manufactured_setup(nx, ny, degree=1, variant="wg1"):
    prob = problems.manufactured_convection()
    mesh = build_structured_mesh(nx, ny, prob.domain, prob.fluid_rect)
    params = forms.MethodParams.from_variant(variant, degree)
    return prob, mesh, params


def cavity_setup(n, ra, degree=1):
    prob = problems.cavity(ra)
    mesh = build_structured_mesh(n, n, prob.domain, prob.fluid_rect)
    params = forms.MethodParams.from_variant("wg1", degree)
    return prob, mesh, params


def zero_data_problem():
    return problems.ProblemSpec(
        pr=1.0, ra=10.0, kappa=1.0,
        domain=(-1.0, 1.0, 0.0, 1.0), fluid_rect=(0.0, 1.0, 0.0, 1.0),
        temp_bc={w: ("dirichlet", "0") for w in
                 ("left", "right", "bottom", "top")})


def increments(state):
    """The trace without its wall times."""
    return [(r.iteration, r.du, r.dt, r.dp) for r in state.trace]


# ------------------------------------------------------------ fixed point


def test_zero_data_converges_to_zero_in_one_iteration():
    prob = zero_data_problem()
    mesh = build_structured_mesh(4, 2, prob.domain, prob.fluid_rect)
    params = forms.MethodParams.from_variant("wg1", 1)
    fields, state = solver.oseen_solve(mesh, params, prob)
    assert state.converged
    assert state.iterations == 1
    assert np.max(np.abs(fields.coeffs)) < 1e-12


def test_manufactured_iteration_contracts():
    prob, mesh, params = manufactured_setup(8, 4)
    fields, state = solver.oseen_solve(mesh, params, prob, tol=1e-10)
    assert state.converged
    assert state.iterations <= 15
    du = [row.du for row in state.trace]
    dt = [row.dt for row in state.trace]
    # the tail of the fixed-point iteration must contract
    for seq in (du, dt):
        for a, b in zip(seq[-3:], seq[-2:]):
            assert b < a


def test_trace_is_deterministic_across_reruns():
    prob, mesh, params = manufactured_setup(4, 2)
    _, s1 = solver.oseen_solve(mesh, params, prob, tol=1e-10)
    _, s2 = solver.oseen_solve(mesh, params, prob, tol=1e-10)
    assert increments(s1) == increments(s2)


def test_max_iter_exhaustion_reports_not_converged():
    prob, mesh, params = manufactured_setup(4, 2)
    fields, state = solver.oseen_solve(mesh, params, prob, tol=1e-14,
                                       max_iter=2)
    assert not state.converged
    assert state.iterations == 2
    assert fields is not None


def test_interpolant_warm_start_does_not_iterate_longer():
    prob, mesh, params = manufactured_setup(8, 4)
    dm = linsys.DofMap(mesh, params)
    seed = oracles.interpolate_exact(mesh, params, dm, prob.exact)
    _, cold = solver.oseen_solve(mesh, params, prob, tol=1e-9)
    _, warm = solver.oseen_solve(mesh, params, prob, tol=1e-9,
                                 initial_velocity=seed)
    assert warm.converged
    assert warm.iterations <= cold.iterations


def test_bad_arguments_rejected():
    prob, mesh, params = manufactured_setup(4, 2)
    for tol in (0.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="tol must be positive and "
                           "finite"):
            solver.oseen_solve(mesh, params, prob, tol=tol)
    with pytest.raises(ValueError):
        solver.oseen_solve(mesh, params, prob, max_iter=0)
    with pytest.raises(ValueError):
        solver.oseen_solve(mesh, params, prob,
                           initial_velocity=np.zeros(3))
    with pytest.raises(ValueError):
        solver.oseen_solve(mesh, params, prob, relaxation="newton")


def test_linear_solve_failure_names_the_iteration(monkeypatch):
    prob, mesh, params = manufactured_setup(4, 2)

    def boom(system, held):
        raise RuntimeError("factorization exploded")

    monkeypatch.setattr(linsys, "solve_sparse", boom)
    with pytest.raises(RuntimeError, match="iteration 1"):
        solver.oseen_solve(mesh, params, prob)


def test_held_flow_factor_cuts_factorizations(monkeypatch):
    # a 12x12 Ra=1e3 cavity takes 12 Picard steps, as with two
    # factorizations per step; each block's held factor is built on the
    # first step and refactored at most twice after it
    prob, mesh, params = cavity_setup(12, 1e3)
    shapes = []
    splu = spla.splu

    def counting_splu(*args, **kwargs):
        shapes.append(args[0].shape)
        return splu(*args, **kwargs)

    monkeypatch.setattr(spla, "splu", counting_splu)
    fields, state = solver.oseen_solve(mesh, params, prob, tol=1e-9)
    assert state.converged and state.iterations == 12
    system = linsys.assemble_oseen_step(mesh, params, prob)
    temp, flow = oracles.schur_shapes(system)
    assert 1 <= shapes.count(temp) <= 3
    assert 1 <= shapes.count(flow) <= 3
    assert len(shapes) == shapes.count(temp) + shapes.count(flow)
    div_h, jump = postproc.divergence_diagnostic(fields)
    assert div_h <= 1e-10
    assert jump <= 1e-10


def loads_sympy(code, *args):
    """Whether a fresh interpreter running code (with args) imports sympy;
    code must end by printing "'sympy' in sys.modules"."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(
        solver.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code, *map(str, args)],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() in (["True"], ["False"]), done.stdout
    return done.stdout.split() == ["True"]


def test_cavity_path_does_not_import_sympy():
    # the cavity's wall temperatures are numbers, so building and solving
    # it through the command line's imports never loads sympy
    code = ("import sys\n"
            "from wgconvect import cli, forms, problems, solver\n"
            "from wgconvect.mesh import build_structured_mesh\n"
            "prob = problems.cavity(1e3)\n"
            "mesh = build_structured_mesh(4, 4, prob.domain, "
            "prob.fluid_rect)\n"
            "params = forms.MethodParams.from_variant('wg1', 1)\n"
            "_, state = solver.oseen_solve(mesh, params, prob)\n"
            "assert state.converged\n"
            "print('sympy' in sys.modules)\n")
    assert not loads_sympy(code)


def test_manufactured_path_does_not_import_sympy(tmp_path):
    # exact fields are parsed and differentiated as coefficient arrays, so
    # the built-in manufactured problem, a config file with an [exact]
    # section and constant walls, a solve and its error report never load
    # sympy
    config = tmp_path / "manu.ini"
    config.write_text(
        "[physics]\npr = 1.0\nra = 10.0\n"
        "[domain]\nrect = -1 1 0 1\nfluid_rect = 0 1 0 1\n"
        "[bc]\nleft = dirichlet 0\nright = dirichlet 0\n"
        "[exact]\n" + "".join("%s = %s\n" % item for item in
                               problems.MANUFACTURED_FIELDS.items()))
    code = ("import sys\n"
            "from wgconvect import cli, forms, postproc, problems, solver\n"
            "from wgconvect.mesh import build_structured_mesh\n"
            "built = problems.manufactured_convection()\n"
            "prob, _, _ = problems.load_config(sys.argv[1])\n"
            "mesh = build_structured_mesh(4, 2, prob.domain, "
            "prob.fluid_rect)\n"
            "params = forms.MethodParams.from_variant('wg1', 1)\n"
            "fields, state = solver.oseen_solve(mesh, params, prob)\n"
            "assert state.converged\n"
            "report = postproc.error_report(fields, prob.exact)\n"
            "assert report == postproc.error_report(fields, "
            "built.exact)\n"
            "assert report.l2_u < 1\n"
            "print('sympy' in sys.modules)\n")
    assert not loads_sympy(code, config)


def test_polynomial_wall_path_does_not_import_sympy(tmp_path):
    # a wall temperature that is not a number is read as a polynomial,
    # as [exact] fields are, so loading and solving it never loads sympy
    config = tmp_path / "wall.ini"
    config.write_text(
        "[physics]\npr = 0.71\nra = 1e3\n[domain]\nrect = 0 1 0 1\n"
        "[bc]\nleft = dirichlet 1 - y\nright = dirichlet 0\n"
        "bottom = insulated\ntop = insulated\n")
    code = ("import sys\n"
            "from wgconvect import cli, forms, problems, solver\n"
            "from wgconvect.mesh import build_structured_mesh\n"
            "prob, _, _ = problems.load_config(sys.argv[1])\n"
            "assert prob.temp_bc['left'] == ('dirichlet', '1 - y')\n"
            "mesh = build_structured_mesh(4, 4, prob.domain, "
            "prob.fluid_rect)\n"
            "params = forms.MethodParams.from_variant('wg1', 1)\n"
            "_, state = solver.oseen_solve(mesh, params, prob)\n"
            "assert state.converged\n"
            "print('sympy' in sys.modules)\n")
    assert not loads_sympy(code, config)


# ---------------------------------------------------------------- ramping


def test_ramp_validates_targets():
    prob, mesh, params = cavity_setup(4, 1e3)
    with pytest.raises(ValueError):
        solver.ramp_rayleigh(mesh, params, prob, [])
    with pytest.raises(ValueError):
        solver.ramp_rayleigh(mesh, params, prob, [1e3, 1e2])


def test_single_stage_ramp_equals_plain_solve():
    prob, mesh, params = cavity_setup(6, 1e3)
    f_plain, s_plain = solver.oseen_solve(mesh, params, prob, tol=1e-9)
    f_ramp, states = solver.ramp_rayleigh(mesh, params, prob, [1e3],
                                          tol=1e-9)
    assert len(states) == 1
    assert np.array_equal(f_plain.coeffs, f_ramp.coeffs)
    assert increments(states[0]) == increments(s_plain)


def test_two_stage_ramp_warm_starts_the_second_stage():
    prob, mesh, params = cavity_setup(6, 1e3)
    _, cold = solver.oseen_solve(mesh, params, prob, tol=1e-9)
    _, states = solver.ramp_rayleigh(mesh, params, prob, [1e2, 1e3],
                                     tol=1e-9)
    assert all(s.converged for s in states)
    assert states[-1].iterations <= cold.iterations


def test_ramp_failure_names_the_stage():
    prob, mesh, params = cavity_setup(4, 1e3)
    with pytest.raises(RuntimeError, match="stage 0"):
        solver.ramp_rayleigh(mesh, params, prob, [1e3], tol=1e-14,
                             max_iter=2)


def test_ramp_linear_solve_failure_names_the_stage(monkeypatch):
    prob, mesh, params = cavity_setup(4, 1e3)

    def boom(system, held):
        raise RuntimeError("factorization exploded")

    monkeypatch.setattr(linsys, "solve_sparse", boom)
    with pytest.raises(RuntimeError,
                       match=r"stage 0 \(Ra=1000\).*iteration 1.*exploded"):
        solver.ramp_rayleigh(mesh, params, prob, [1e3, 1e4])


def test_ramp_rejects_manufactured_forcing():
    prob, mesh, params = manufactured_setup(4, 2)
    with pytest.raises(ValueError):
        solver.ramp_rayleigh(mesh, params, prob, [10.0, 100.0])


# ------------------------------------------------------------- relaxation


def test_relaxed_iteration_converges_where_plain_stalls():
    # at Ra = 1e4 the plain fixed point contracts at roughly 0.89 per
    # iteration, far too slowly for a 30-iteration budget; the relaxed run,
    # one Picard step and then Newton steps, converges well inside it from
    # the same warm start
    prob, mesh, params = cavity_setup(8, 1e3)
    warm, _ = solver.oseen_solve(mesh, params, prob, tol=1e-9)
    hot = prob.with_rayleigh(1e4)
    _, plain = solver.oseen_solve(mesh, params, hot, tol=1e-9, max_iter=30,
                                  initial_velocity=warm)
    assert not plain.converged
    fields, relaxed = solver.oseen_solve(mesh, params, hot, tol=1e-9,
                                         max_iter=30, initial_velocity=warm,
                                         relaxation="aitken")
    assert relaxed.converged
    assert relaxed.iterations <= 30
    # the returned fields are a solve output, so the divergence invariants
    # survive the Newton steps
    div, jump = postproc.divergence_diagnostic(fields)
    assert div < 1e-10
    assert jump < 1e-10


@pytest.mark.parametrize("case", ["cavity", "manufactured"])
def test_newton_and_picard_fixed_points_agree(monkeypatch, case):
    # a relaxed run takes Newton steps after its Picard start; it ends at
    # the plain Picard fixed point, and every Newton iterate meets the
    # divergence and mean-pressure contracts
    if case == "cavity":
        prob, mesh, params = cavity_setup(8, 1e3)
    else:
        prob, mesh, params = manufactured_setup(8, 4)
    plain, _ = solver.oseen_solve(mesh, params, prob, tol=1e-10)
    iterates = []
    solve = linsys.solve_sparse

    def recording(system, held=None):
        x = solve(system, held)
        if isinstance(system, linsys.JointSystem):
            iterates.append(system.expand(x))
        return x

    monkeypatch.setattr(linsys, "solve_sparse", recording)
    newton, state = solver.oseen_solve(mesh, params, prob, tol=1e-10,
                                       relaxation="aitken")
    assert state.converged and iterates
    assert np.linalg.norm(newton.coeffs - plain.coeffs) \
        <= 1e-8 * np.linalg.norm(plain.coeffs)
    for full, lam in iterates:
        fields = postproc.WgFields(newton.dofmap, full, lam)
        div_h, jump = postproc.divergence_diagnostic(fields)
        assert div_h <= 1e-10 and jump <= 1e-10
        fe = mesh.fluid_elems
        p0 = full[fields.dofmap.p_interior(fe)[:, 0]]
        mean = np.sum(mesh.det_b[fe] * p0) / np.sqrt(2.0)
        assert abs(mean) <= 1e-9 * max(postproc.pressure_l2(fields), 1.0)


def test_relaxed_solve_takes_one_picard_step_then_newton_steps(monkeypatch):
    prob, mesh, params = cavity_setup(8, 1e3)
    kinds = []
    solve = linsys.solve_sparse

    def recording(system, held=None):
        kinds.append(type(system))
        return solve(system, held)

    monkeypatch.setattr(linsys, "solve_sparse", recording)
    _, state = solver.oseen_solve(mesh, params, prob, tol=1e-9,
                                  relaxation="aitken")
    assert state.converged and state.iterations >= 3
    assert kinds == [linsys.GlobalSystem] \
        + [linsys.JointSystem] * (state.iterations - 1)


def test_block_factors_are_freed_before_the_joint_block_is_factored(
        monkeypatch):
    # a relaxed solve drops its Picard step's temperature and flow
    # factors before it factors the joint block of its first Newton step,
    # so the block factors and the joint factor are never alive together
    prob, mesh, params = cavity_setup(8, 1e3)
    inverses = {}
    alive = None
    factor = linsys.Condensation.factor

    def recording(self, build):
        nonlocal alive
        if self.name == "joint block" and alive is None:
            alive = sorted(name for name, refs in inverses.items()
                           for ref in refs if ref() is not None)
        inverse = factor(self, build)
        inverses.setdefault(self.name, []).append(weakref.ref(inverse))
        return inverse

    monkeypatch.setattr(linsys.Condensation, "factor", recording)
    enabled = gc.isenabled()
    gc.disable()
    try:
        _, state = solver.oseen_solve(mesh, params, prob, tol=1e-9,
                                      relaxation="aitken")
    finally:
        if enabled:
            gc.enable()
    assert state.converged
    assert sorted(inverses) == ["flow block", "joint block",
                                "temperature block"]
    assert alive == []


def test_relaxed_ramp_reaches_high_rayleigh():
    prob, mesh, params = cavity_setup(8, 1e4)
    fields, states = solver.ramp_rayleigh(mesh, params, prob, [1e3, 1e4],
                                          tol=1e-9, relaxation="aitken")
    assert all(s.converged for s in states)
    rep = postproc.cavity_report(fields)
    assert np.isfinite(rep.nu_bar) and rep.nu_bar > 1.0


def test_direct_high_rayleigh_solve_from_rest_converges():
    # undamped Newton steps from rest run away at Ra = 1e6 until a linear
    # solve misses its contract; damped ones converge to the ramp's answer
    prob, mesh, params = cavity_setup(12, 1e6)
    fields, state = solver.oseen_solve(mesh, params, prob, tol=1e-9,
                                       relaxation="aitken")
    assert state.converged
    div_h, jump = postproc.divergence_diagnostic(fields)
    assert div_h <= 1e-10 and jump <= 1e-10
    rep = postproc.cavity_report(fields)
    assert rep.nu_bar == pytest.approx(4.9510, rel=1e-4)


def test_damped_steps_keep_velocity_divergence_free(monkeypatch):
    # a damped iterate is a convex combination of two solve outputs, so it
    # meets the divergence contract as they do
    prob, mesh, params = cavity_setup(12, 1e6)
    steps = []
    damped = solver._damped

    def recording(residual, start, newton, f_start):
        x, step, f = damped(residual, start, newton, f_start)
        steps.append((step, x, f, f_start))
        return x, step, f

    monkeypatch.setattr(solver, "_damped", recording)
    last, _ = solver.oseen_solve(mesh, params, prob, tol=1e-9, max_iter=8,
                                 relaxation="aitken")
    assert len(steps) == 7                    # one per Newton step
    short = [s for s in steps if s[0] < 1.0]
    assert short
    for step, (full, lam), f, f_start in short:
        assert step >= solver.MIN_STEP
        assert f <= (1.0 - solver.SUFFICIENT_DECREASE * step) * f_start \
            or step == solver.MIN_STEP
        fields = postproc.WgFields(last.dofmap, full, lam)
        div_h, jump = postproc.divergence_diagnostic(fields)
        assert div_h <= 1e-10 and jump <= 1e-10


def test_full_newton_steps_are_the_solve_outputs(monkeypatch):
    # where every step is full, the iterates are the Newton solve outputs
    # themselves, bit for bit; the last step, which meets the tolerance,
    # ends the solve without the test
    prob, mesh, params = cavity_setup(8, 1e3)
    outputs, accepted = [], []
    solve, damped = linsys.solve_sparse, solver._damped

    def recording_solve(system, held=None):
        x = solve(system, held)
        if isinstance(system, linsys.JointSystem):
            outputs.append(system.expand(x)[0])
        return x

    def recording_damped(residual, start, newton, f_start):
        x, step, f = damped(residual, start, newton, f_start)
        accepted.append((step, x[0]))
        return x, step, f

    monkeypatch.setattr(linsys, "solve_sparse", recording_solve)
    monkeypatch.setattr(solver, "_damped", recording_damped)
    fields, state = solver.oseen_solve(mesh, params, prob, tol=1e-9,
                                       relaxation="aitken")
    assert state.converged and len(outputs) == state.iterations - 1
    assert len(accepted) == len(outputs) - 1
    assert all(step == 1.0 for step, _ in accepted)
    assert all(np.array_equal(x, y) for (_, x), y in zip(accepted, outputs))
    assert np.array_equal(fields.coeffs, outputs[-1])


# ------------------------------------------------------------------ trace


def test_trace_csv_roundtrip(tmp_path):
    trace = [solver.TraceRow(1, 0.5, 0.25, 0.125, 0.01),
             solver.TraceRow(2, 0.05, 0.025, 0.0125, 0.02)]
    path = tmp_path / "trace.csv"
    solver.write_trace_csv(trace, path)
    lines = path.read_text().splitlines()
    assert lines[0] == ("iteration,velocity_increment,"
                        "temperature_increment,pressure_increment,seconds")
    parts = lines[1].split(",")
    assert int(parts[0]) == 1
    assert [float(v) for v in parts[1:4]] == [0.5, 0.25, 0.125]


def test_state_properties_reflect_last_row():
    trace = [solver.TraceRow(1, 0.5, 0.25, 0.125, 0.0),
             solver.TraceRow(2, 0.05, 0.025, 0.0125, 0.0)]
    state = solver.OseenState(None, trace, True)
    assert state.iterations == 2
    assert state.du_norm == 0.05
    assert state.dt_norm == 0.025
    assert state.trace[-1].dp == 0.0125
    assert "converged" in repr(state)
