"""Acceptance suite: every criterion prints one PASS/FAIL line.

Each criterion is one test; the reference values are frozen benchmark
numbers.  Solves are memoized at module level, so the divergence criterion
audits every solution the other criteria use without solving twice, and
performs the solves itself when it runs alone.  Runtimes on a 2-core
machine with one BLAS thread: the whole suite about 18 s, of which the
cavity chain takes about 9 s, the variant tables 4 s, the degree-two
tables 1.5 s and the base tables 0.8 s; the divergence criterion alone
about 18 s.
"""

import time

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

MESHES = [(8, 4), (16, 8), (32, 16), (64, 32)]

# frozen reference data: relative errors over the halving mesh sequence,
# columns (grad_u, l2_u, l2_p, grad_t, l2_t); one block per method.  For
# the reduced-trace degree-2 method the gradient columns track the
# reconstructed weak gradient, not the broken gradient (REC_GRADIENT).
REFERENCE_ERRORS = {
    ("wg1", 1): [
        (5.9412e-01, 1.6959e-01, 4.4819e-01, 2.4656e-01, 2.7341e-02),
        (3.1494e-01, 4.7778e-02, 2.3637e-01, 1.2464e-01, 6.8747e-03),
        (1.5988e-01, 1.2396e-02, 1.1983e-01, 6.2498e-02, 1.7191e-03),
        (8.0247e-02, 3.1249e-03, 6.0122e-02, 3.1272e-02, 4.2894e-04),
    ],
    ("wg2", 1): [
        (7.0486e-01, 7.8104e-01, 4.7353e-01, 2.6104e-01, 1.3922e-01),
        (3.2996e-01, 1.8899e-01, 2.3962e-01, 1.2868e-01, 3.5017e-02),
        (1.6192e-01, 4.8031e-02, 1.2025e-01, 6.4066e-02, 8.7749e-03),
        (8.0518e-02, 1.2196e-02, 6.0178e-02, 3.1996e-02, 2.1989e-03),
    ],
    ("wg3", 1): [
        (7.4774e-01, 8.3792e-01, 4.7910e-01, 3.1663e-01, 1.6162e-01),
        (3.3583e-01, 1.9985e-01, 2.4031e-01, 1.5503e-01, 4.0626e-02),
        (1.6272e-01, 5.0551e-02, 1.2033e-01, 7.7080e-02, 1.0178e-02),
        (8.0623e-02, 1.2810e-02, 6.0183e-02, 3.8485e-02, 2.5494e-03),
    ],
    ("wg1", 2): [
        (1.6192e-01, 2.8177e-02, 6.6611e-02, 2.3814e-02, 1.5210e-03),
        (4.2800e-02, 3.6801e-03, 1.7476e-02, 5.9899e-03, 1.9029e-04),
        (1.0767e-02, 4.6124e-04, 4.4430e-03, 1.4995e-03, 2.3790e-05),
        (2.6808e-03, 5.7386e-05, 1.1115e-03, 3.7495e-04, 2.9736e-06),
    ],
    ("wg2", 2): [
        (2.5023e-01, 5.9209e-02, 6.6212e-02, 4.1197e-02, 4.9610e-03),
        (6.3163e-02, 7.4474e-03, 1.7485e-02, 1.0276e-02, 6.1111e-04),
        (1.5659e-02, 9.3395e-04, 4.4432e-03, 2.5691e-03, 7.5883e-05),
        (3.8820e-03, 1.1720e-04, 1.1117e-03, 6.4257e-04, 9.4569e-06),
    ],
    ("wg3", 2): [
        (1.3075e-01, 6.2217e-02, 6.6237e-02, 2.1605e-02, 5.3332e-03),
        (3.4979e-02, 7.6750e-03, 1.7492e-02, 5.4667e-03, 6.6033e-04),
        (8.9627e-03, 9.4948e-04, 4.4333e-03, 1.3734e-03, 8.2232e-05),
        (2.2617e-03, 1.1834e-04, 1.1121e-03, 3.4409e-04, 1.0263e-05),
    ],
}
REC_GRADIENT = {("wg3", 2)}

COLUMNS = ("grad_u", "l2_u", "l2_p", "grad_t", "l2_t")

# cavity benchmark references: 40x40, lowest order
CAVITY_REF = {
    1e3: {"u1_max": 3.653, "u2_max": 3.711, "nu_bar": 1.118,
          "nu_max": 1.506, "nu_min": 0.691},
    1e4: {"nu_bar": 2.243},
    1e5: {"nu_bar": 4.519},
}

_table_cache = {}
_cavity_cache = {}


def _table_solves(variant, degree):
    """[(mesh, fields, state, report)] over MESHES, memoized."""
    key = (variant, degree)
    if key not in _table_cache:
        prob = problems.manufactured_convection()
        params = forms.MethodParams.from_variant(variant, degree)
        rows = []
        for nx, ny in MESHES:
            mesh = build_structured_mesh(nx, ny, prob.domain,
                                         prob.fluid_rect)
            fields, state = solver.oseen_solve(mesh, params, prob, tol=1e-9)
            rep = postproc.error_report(fields, prob.exact)
            rows.append((mesh, fields, state, rep))
        _table_cache[key] = rows
    return _table_cache[key]


def _cavity_solves():
    """{ra: (fields, state)} for the ramped 40x40 cavity, memoized."""
    if not _cavity_cache:
        prob = problems.cavity(1e5)
        params = forms.MethodParams.from_variant("wg1", 1)
        mesh = build_structured_mesh(40, 40, prob.domain, prob.fluid_rect)
        targets = [1e3, 1e4, 1e5]
        fields, states = solver.ramp_rayleigh(mesh, params, prob, targets,
                                              tol=1e-9, relaxation="aitken")
        for ra, st in zip(targets, states):
            _cavity_cache[ra] = (st.fields, st)
    return _cavity_cache


def _report_line(label, failures, elapsed=None):
    status = "PASS" if not failures else "FAIL"
    timing = "" if elapsed is None else " [%.0fs]" % elapsed
    print("ACCEPTANCE %s: %s%s" % (label, status, timing))
    for f in failures:
        print("    " + f)
    assert not failures, "%s: %d check(s) failed" % (label, len(failures))


def _grad_attr(key, col):
    if key in REC_GRADIENT and col in ("grad_u", "grad_t"):
        return col + "_rec"
    return col


def _check_table(key, err_tol, order_tol):
    """Failure strings for one method's error table and observed orders.

    Expected orders are recomputed from the frozen errors (one published
    order entry is inconsistent with its own error column; the errors are
    the primary data).
    """
    failures = []
    rows = _table_solves(*key)
    ref = REFERENCE_ERRORS[key]
    for i, (mesh, fields, state, rep) in enumerate(rows):
        if not state.converged:
            failures.append("%s mesh %d did not converge" % (key, i))
    for c, col in enumerate(COLUMNS):
        got = [getattr(rep, _grad_attr(key, col)) for _, _, _, rep in rows]
        want = [ref[i][c] for i in range(len(MESHES))]
        for i, (g, w) in enumerate(zip(got, want)):
            if abs(g - w) > err_tol * w:
                failures.append(
                    "%s %s at mesh %dx%d: got %.4e, want %.4e (%.1f%% off)"
                    % (key, col, MESHES[i][0], MESHES[i][1], g, w,
                       100 * abs(g - w) / w))
        got_orders = postproc.observed_order(got)
        want_orders = postproc.observed_order(want)
        for i, (g, w) in enumerate(zip(got_orders, want_orders)):
            if abs(g - w) > order_tol:
                failures.append("%s %s order %d: got %.3f, want %.3f"
                                % (key, col, i, g, w))
    return failures


def test_criterion_1_convergence_base_method():
    t0 = time.time()
    failures = _check_table(("wg1", 1), err_tol=0.05, order_tol=0.05)
    _report_line("1 (convergence, degree 1)", failures, time.time() - t0)


def test_criterion_2_convergence_degree_two():
    t0 = time.time()
    failures = _check_table(("wg1", 2), err_tol=0.05, order_tol=0.05)
    _report_line("2 (convergence, degree 2)", failures, time.time() - t0)


def test_criterion_3_convergence_variants():
    t0 = time.time()
    failures = []
    for key in [("wg2", 1), ("wg3", 1), ("wg2", 2), ("wg3", 2)]:
        failures += _check_table(key, err_tol=0.10, order_tol=0.10)
    _report_line("3 (variant convergence)", failures, time.time() - t0)


def test_criterion_5_cavity_benchmark():
    t0 = time.time()
    failures = []
    solves = _cavity_solves()

    fields, state = solves[1e3]
    stage_time = sum(r.seconds for r in state.trace)
    if stage_time > 600:
        failures.append("Ra=1e3 stage took %.0fs (> 10 min)" % stage_time)
    rep = postproc.cavity_report(fields)
    tol = {"u1_max": 0.02, "u2_max": 0.02, "nu_bar": 0.02,
           "nu_max": 0.03, "nu_min": 0.03}
    for name, want in CAVITY_REF[1e3].items():
        got = getattr(rep, name)
        if abs(got - want) > tol[name] * want:
            failures.append("Ra=1e3 %s: got %.4f, want %.4f (%.1f%% off)"
                            % (name, got, want,
                               100 * abs(got - want) / want))

    fields, state = solves[1e4]
    got = postproc.cavity_report(fields).nu_bar
    want = CAVITY_REF[1e4]["nu_bar"]
    if abs(got - want) > 0.03 * want:
        failures.append("Ra=1e4 nu_bar: got %.4f, want %.4f" % (got, want))

    fields, state = solves[1e5]
    if not state.converged:
        failures.append("Ra=1e5 ramp stage did not converge")
    got = postproc.cavity_report(fields).nu_bar
    want = CAVITY_REF[1e5]["nu_bar"]
    if abs(got - want) > 0.10 * want:
        failures.append("Ra=1e5 nu_bar: got %.4f, want %.4f" % (got, want))

    _report_line("5 (cavity benchmark)", failures, time.time() - t0)


def test_criterion_6_fixed_point_convergence():
    t0 = time.time()
    failures = []
    prob = problems.manufactured_convection()
    params = forms.MethodParams.from_variant("wg1", 1)
    mesh = build_structured_mesh(16, 8, prob.domain, prob.fluid_rect)
    fields, state = solver.oseen_solve(mesh, params, prob, tol=1e-9,
                                       max_iter=30)
    if not state.converged:
        failures.append("did not reach tol 1e-9 within 30 iterations")
    inc = [r.du + r.dt for r in state.trace]
    ratios = [b / a for a, b in zip(inc, inc[1:])][-3:]
    for i, r in enumerate(ratios):
        if not r < 1.0:
            failures.append("increment ratio %d is %.3f >= 1" % (i, r))
    _report_line("6 (fixed-point convergence)", failures, time.time() - t0)


def test_criterion_4_divergence_free_solutions():
    # audits every converged solve the other criteria produce: all the
    # manufactured tables and the cavity ramp, memoized, so the verdict does
    # not depend on which criteria ran before this one
    t0 = time.time()
    failures = []
    audited = 0
    pool = [(str(key) + " %dx%d" % tuple(MESHES[i]), fields, state)
            for key in REFERENCE_ERRORS
            for i, (_, fields, state, _) in enumerate(_table_solves(*key))]
    pool += [("cavity Ra=%g" % ra, fields, state)
             for ra, (fields, state) in _cavity_solves().items()]
    for label, fields, state in pool:
        if not state.converged:
            failures.append("%s did not converge" % label)
            continue
        div_h, jump = postproc.divergence_diagnostic(fields)
        audited += 1
        if div_h > 1e-10:
            failures.append("%s: scaled divergence %.2e > 1e-10"
                            % (label, div_h))
        if jump > 1e-10:
            failures.append("%s: face normal jump %.2e > 1e-10"
                            % (label, jump))
    print("    audited %d converged solves" % audited)
    if audited != 27:            # six tables of four meshes, three cavities
        failures.append("audited %d converged solves, want 27" % audited)
    _report_line("4 (divergence-free invariant)", failures,
                 time.time() - t0)


def _random_poly_field(rng, degree):
    powers = np.array([(a, b) for a in range(degree + 1)
                       for b in range(degree + 1 - a)])
    c = rng.normal(size=(2, len(powers)))

    def v(x, y):
        x = np.asarray(x, dtype=float)[..., None]
        y = np.asarray(y, dtype=float)[..., None]
        vals = x ** powers[:, 0] * y ** powers[:, 1]
        return np.stack([vals @ c[0], vals @ c[1]], axis=-1)

    def gv(x, y):
        x = np.asarray(x, dtype=float)[..., None]
        y = np.asarray(y, dtype=float)[..., None]
        a, b = powers[:, 0], powers[:, 1]
        dx = a * x ** np.maximum(a - 1, 0) * y ** b
        dy = b * x ** a * y ** np.maximum(b - 1, 0)
        out = np.empty(np.shape(x[..., 0]) + (2, 2))
        for i in range(2):
            out[..., i, 0] = dx @ c[i]
            out[..., i, 1] = dy @ c[i]
        return out

    return v, gv


def _grad_norm(mesh, gv):
    quad = pb.QuadratureRule.triangle(10)
    elems = np.arange(mesh.n_elems)
    pts = mesh.map_points(elems, quad.points)
    g = gv(pts[..., 0], pts[..., 1])
    return np.sqrt(np.einsum("e,q,eqid->", mesh.det_b, quad.weights,
                             g ** 2))


def test_criterion_7_property_suites():
    t0 = time.time()
    failures = []
    mesh = build_structured_mesh(4, 2, (-1.0, 1.0, 0.0, 1.0),
                                 (0.0, 1.0, 0.0, 1.0))
    rng = np.random.default_rng(2024)

    # weak gradient commutes with interpolation: 50 random fields
    cases = [(1, 1, 1), (1, 1, 0), (2, 2, 2), (2, 1, 1)]
    bad = 0
    for trial in range(50):
        k, l, m = cases[trial % len(cases)]
        v, gv = _random_poly_field(rng, k + 1)
        resid = oracles.commutativity_check(mesh, v, gv, k, l, m)
        if resid > 1e-9 * _grad_norm(mesh, gv):
            bad += 1
    if bad:
        failures.append("commutativity residual over 1e-9 in %d/50 fields"
                        % bad)

    # transport form vanishes on repeated arguments: 100 random triples
    bad = 0
    for trial in range(100):
        params = forms.MethodParams(1 + trial % 2)
        e = int(rng.choice(mesh.fluid_elems))
        w0 = rng.normal(size=(2, params.interior_dim))
        wb = rng.normal(size=(3, 2, params.trace_dim))
        Cb = forms.skew_convection_blocks(mesh, [e], params, w0[None],
                                          wb[None])[0]
        ns = params.scalar_size
        C = np.zeros((2 * ns, 2 * ns))       # the scalar block per component
        C[:ns, :ns] = Cb
        C[ns:, ns:] = Cb
        v = rng.normal(size=2 * params.scalar_size)
        s = rng.normal(size=params.scalar_size)
        scale_v = max(1.0, np.abs(C).max() * np.sum(v ** 2))
        scale_s = max(1.0, np.abs(Cb).max() * np.sum(s ** 2))
        if abs(v @ C @ v) > 1e-11 * scale_v:
            bad += 1
        if abs(s @ Cb @ s) > 1e-11 * scale_s:
            bad += 1
    if bad:
        failures.append("transport skew-symmetry violated in %d/100 "
                        "triples" % bad)

    # coercivity: the full momentum and heat operators evaluated on a
    # repeated argument equal the scaled energy norms
    prob = problems.manufactured_convection()
    for variant, degree in [("wg1", 1), ("wg2", 1), ("wg3", 1),
                            ("wg1", 2)]:
        params = forms.MethodParams.from_variant(variant, degree)
        dm = linsys.DofMap(mesh, params)
        fe = mesh.fluid_elems
        all_e = np.arange(mesh.n_elems)
        for trial in range(5):
            coeffs = rng.standard_normal(dm.n_dofs)
            fields = postproc.WgFields(dm, coeffs)
            w0 = coeffs[dm.u_interior(fe)]
            wb = coeffs[dm.u_trace(mesh.elem_faces[fe].ravel())].reshape(
                len(fe), 3, 2, params.trace_dim)
            A = forms.viscous_blocks(mesh, fe, params, prob.pr)
            C = forms.skew_convection_blocks(mesh, fe, params, w0, wb)
            Cfull = np.zeros_like(A)
            ns = params.scalar_size
            Cfull[:, :ns, :ns] = C
            Cfull[:, ns:, ns:] = C
            v = coeffs[dm.velocity_local(fe)]
            energy = float(np.einsum("ei,eij,ej->", v, A + Cfull, v))
            want = prob.pr * postproc.triple_norm(fields, "velocity") ** 2
            if abs(energy - want) > 1e-10 * max(want, 1e-30):
                failures.append("momentum coercivity off for %s-%d"
                                % (variant, degree))
            Ab = forms.conduction_blocks(mesh, all_e, params, prob.kappa)
            Cb = np.zeros((mesh.n_elems, ns, ns))
            Cb[mesh.fluid_elems] = forms.skew_convection_blocks(
                mesh, fe, params, w0, wb)
            s = coeffs[dm.scalar_local(all_e)]
            energy = float(np.einsum("ei,eij,ej->", s, Ab + Cb, s))
            want = prob.kappa * postproc.triple_norm(fields,
                                                     "temperature") ** 2
            if abs(energy - want) > 1e-10 * max(want, 1e-30):
                failures.append("heat coercivity off for %s-%d"
                                % (variant, degree))

    # interior projection is an L2 contraction: 20 transcendental fields
    all_e = np.arange(mesh.n_elems)
    for trial in range(20):
        freq = rng.uniform(0.5, 3.0, size=2)
        f = lambda x, y, a=freq: np.sin(a[0] * x) * np.cos(a[1] * y)
        k = 1 + trial % 2
        once = pb.project_interior(mesh, all_e, k, f, 12)
        basis = pb.scalar_basis(k)
        qr = pb.QuadratureRule.triangle(12)
        vals = np.einsum("ea,qa->eq", once, basis.eval(qr.points))
        pts = mesh.map_points(all_e, qr.points)
        exact = f(pts[..., 0], pts[..., 1])
        norm_p = np.einsum("e,q,eq->", mesh.det_b, qr.weights, vals ** 2)
        norm_f = np.einsum("e,q,eq->", mesh.det_b, qr.weights, exact ** 2)
        if norm_p > norm_f * (1 + 1e-12):
            failures.append("interior projection is not L2-stable")

    # idempotence: projecting a representable polynomial returns its own
    # coefficients, and face projections do not depend on the quadrature
    rngp = np.random.default_rng(77)
    for trial in range(20):
        k = 1 + trial % 2
        basis = pb.scalar_basis(k)
        coeff = rngp.normal(size=basis.dim)
        e = int(rngp.integers(mesh.n_elems))

        def poly(x, y):
            pts = np.column_stack([np.ravel(x) - mesh.elem_origin[e][0],
                                   np.ravel(y) - mesh.elem_origin[e][1]])
            return (basis.eval(pts @ mesh.inv_bt[e]) @ coeff).reshape(
                np.shape(x))

        got = pb.project_interior(mesh, [e], k, poly, 2 * k + 4)[0]
        if np.max(np.abs(got - coeff)) > 1e-11 * max(1.0,
                                                     np.abs(coeff).max()):
            failures.append("interior projection is not idempotent")
        fid = int(mesh.elem_faces[e, 0])
        tr = pb.project_face(mesh, [fid], k, poly, 2 * k + 4)[0]
        tr2 = pb.project_face(
            mesh, [fid], k,
            lambda x, y: poly(x, y), 2 * k + 8)[0]
        if np.max(np.abs(tr - tr2)) > 1e-11:
            failures.append("face projection depends on the quadrature")

    _report_line("7 (property suites)", failures, time.time() - t0)
