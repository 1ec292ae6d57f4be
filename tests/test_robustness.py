"""Pressure robustness, the property in the method's name.

A fluid at rest under a stable or unstable linear stratification: T = 1 on
one horizontal wall and T = 0 on the other, insulated sides, no forcing,
on the unit square.  The exact solution is u = 0, T linear in y, and a
pressure that balances the buoyancy, p = Pr Ra (integral of T dy) + c.

T lies in the discrete space, so the temperature block returns it exactly;
the buoyancy Pr Ra T e_y is then a gradient, and a velocity that is
divergence free with continuous normal trace is L2-orthogonal to
gradients.  A pressure-robust method therefore returns u = 0 to rounding
whatever the Rayleigh number, with the whole buoyancy carried by the
pressure (see John, Linke, Merdon, Neilan and Rebholz, SIAM Review 59,
2017, 492-544).  The bound is relative to the pressure, which grows with
Ra.

The stratified manufactured problem puts a flow on top of the same
balance: its velocity error must not see the Ra part of the buoyancy.
"""

import numpy as np
import pytest

import oracles
from wgconvect import forms
from wgconvect import polybasis as pb
from wgconvect import postproc
from wgconvect import problems
from wgconvect import solver
from wgconvect.mesh import build_structured_mesh

UNIT = (0.0, 1.0, 0.0, 1.0)
METHODS = [("wg1", 1), ("wg3", 2)]


def stratified(ra, hot_top):
    """The resting stratified square; returns (problem, exact T)."""
    top, bottom = ("1", "0") if hot_top else ("0", "1")
    temp_bc = {"left": ("insulated", None), "right": ("insulated", None),
               "bottom": ("dirichlet", bottom), "top": ("dirichlet", top)}
    prob = problems.ProblemSpec(0.71, ra, 1.0, UNIT, UNIT, temp_bc)
    return prob, (lambda x, y: y) if hot_top else (lambda x, y: 1.0 - y)


def check_at_rest(fields, exact_t):
    """max|velocity coefficients| relative to the pressure, and the
    largest deviation of the temperature coefficients from the projections
    of exact_t."""
    mesh, params, dm = fields.mesh, fields.params, fields.dofmap
    velocity = fields.coeffs[:dm.offset["p_int"]]
    p_norm = postproc.pressure_l2(fields)
    elems, faces = np.arange(mesh.n_elems), np.arange(mesh.n_faces)
    qd = 2 * params.degree + 2
    t_int = pb.project_interior(mesh, elems, params.degree, exact_t, qd)
    t_tr = pb.project_face(mesh, faces, params.trace_degree, exact_t, qd)
    t_err = max(
        np.abs(fields.coeffs[dm.t_interior(elems)] - t_int).max(),
        np.abs(fields.coeffs[dm.t_trace(faces)] - t_tr).max())
    return np.abs(velocity).max() / p_norm, p_norm, t_err


def assert_first_step_at_rest(build, variant, degree, hot_top):
    """The first step on the 12x12 mesh that build makes keeps the fluid
    at rest, from Ra = 1e3 to 1e7."""
    params = forms.MethodParams.from_variant(variant, degree)
    for ra in (1e3, 1e4, 1e5, 1e6, 1e7):
        prob, exact_t = stratified(ra, hot_top)
        mesh = build(12, 12, prob.domain, prob.fluid_rect)
        fields, state = solver.oseen_solve(mesh, params, prob, max_iter=1)
        u_rel, p_norm, t_err = check_at_rest(fields, exact_t)
        assert u_rel <= 1e-13, (ra, u_rel)
        # the buoyancy is carried by a pressure of size Pr Ra
        assert p_norm >= 0.01 * 0.71 * ra
        assert t_err <= 1e-12, (ra, t_err)


@pytest.mark.parametrize("hot_top", [True, False], ids=["stable", "unstable"])
@pytest.mark.parametrize("variant,degree", METHODS)
def test_first_step_keeps_stratified_fluid_at_rest(variant, degree, hot_top):
    assert_first_step_at_rest(build_structured_mesh, variant, degree, hot_top)


@pytest.mark.parametrize("hot_top", [True, False], ids=["stable", "unstable"])
@pytest.mark.parametrize("variant,degree", METHODS)
def test_rest_holds_with_alternating_diagonals(variant, degree, hot_top):
    # the same, with every other cell cut along the other diagonal
    assert_first_step_at_rest(oracles.alternating_mesh, variant, degree,
                              hot_top)


@pytest.mark.parametrize("variant,degree", METHODS)
def test_converged_stratified_fluid_stays_at_rest(variant, degree):
    # the later steps run with the held, warm-started factors
    params = forms.MethodParams.from_variant(variant, degree)
    prob, exact_t = stratified(1e3, hot_top=False)
    mesh = build_structured_mesh(12, 12, prob.domain, prob.fluid_rect)
    fields, state = solver.oseen_solve(mesh, params, prob, tol=1e-9)
    assert state.converged and state.iterations >= 2
    u_rel, _, t_err = check_at_rest(fields, exact_t)
    assert u_rel <= 1e-13
    assert t_err <= 1e-12
    div_h, jump = postproc.divergence_diagnostic(fields)
    assert div_h <= 1e-10
    assert jump <= 1e-10


@pytest.mark.parametrize("hot_top", [True, False], ids=["stable", "unstable"])
@pytest.mark.parametrize("variant,degree", METHODS)
def test_newton_steps_keep_stratified_fluid_at_rest(variant, degree,
                                                    hot_top):
    # a relaxed solve at Ra = 1e6: its Picard step already returns the
    # resting state, and the Newton step about it confirms it
    params = forms.MethodParams.from_variant(variant, degree)
    prob, exact_t = stratified(1e6, hot_top)
    mesh = build_structured_mesh(12, 12, prob.domain, prob.fluid_rect)
    fields, state = solver.oseen_solve(mesh, params, prob, tol=1e-9,
                                       relaxation="aitken")
    assert state.converged and state.iterations <= 2, state
    u_rel, _, t_err = check_at_rest(fields, exact_t)
    assert u_rel <= 1e-13, u_rel
    assert t_err <= 1e-12, t_err


def stratified_manufactured(ra):
    """The manufactured flow of MANUFACTURED_FIELDS over a stable
    stratification on the unit square, all fluid, Pr = kappa = 1: T = y
    with Dirichlet data on every wall, and p = x^6 - y^6 + Pr Ra y^2 / 2,
    so that the Ra part of the buoyancy is a gradient that the pressure
    carries."""
    fld = problems.MANUFACTURED_FIELDS
    p = "x**6 - y**6 + %r*y**2" % (0.5 * ra)
    exact = problems.ExactSolution(fld["u1"], fld["u2"], p, "y",
                                   1.0, ra, 1.0, UNIT)
    temp_bc = {wall: ("dirichlet", "y") for wall in problems.WALLS}
    return problems.ProblemSpec(1.0, ra, 1.0, UNIT, UNIT, temp_bc,
                                exact=exact)


def test_stratified_flow_error_does_not_grow_with_rayleigh():
    # the velocity error of a pressure-robust method does not see the
    # gradient part of the buoyancy, so grad_u at Ra = 1e6 stays within 1%
    # of its Ra = 1 value (0.1599 on this mesh)
    params = forms.MethodParams.from_variant("wg1", 1)
    grad_u = {}
    for ra in (1.0, 1e6):
        prob = stratified_manufactured(ra)
        mesh = build_structured_mesh(16, 16, prob.domain, prob.fluid_rect)
        fields, state = solver.oseen_solve(mesh, params, prob, tol=1e-9,
                                           relaxation="aitken")
        assert state.converged, (ra, state)
        div_h, jump = postproc.divergence_diagnostic(fields)
        assert div_h <= 1e-10 and jump <= 1e-10
        grad_u[ra] = postproc.error_report(fields, prob.exact).grad_u
    assert abs(grad_u[1e6] - grad_u[1.0]) <= 0.01 * grad_u[1.0], grad_u
