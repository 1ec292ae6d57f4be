"""The benchmark's workloads: set-up, one measured round, and its checks.

Every workload goes through the package's public Python API and repeats
the work one `wgconvect` command does.  A round returns its solve time and
its report-phase samples; the checks that follow it are not timed.
"""

import contextlib
import hashlib
import os
import time

import numpy as np

from wgconvect import forms, linsys, mesh, polybasis, postproc, problems
from wgconvect import solver

import refs

DIV_TOL = 1e-10
MEAN_P_TOL = 1e-9
# a converged Picard iterate leaves a nonlinear residual of the size of its
# last increment times the convection operator, and the increments are
# below tol relative to the field norms; the residual relative to the
# right-hand side may exceed tol by the factor the convection term's size
# brings (about 4 at Ra = 1e5 on 12x12), up to RESIDUAL_FACTOR
RESIDUAL_FACTOR = 100
ORDER_TOL = 0.15

WORKLOADS = {
    # `wgconvect cavity --ra 1e5`: a decade ramp with Aitken relaxation
    "cavity_ramp": {
        "kind": "cavity", "variant": "wg1", "degree": 1, "mesh": [12, 12],
        "targets": [1e3, 1e4, 1e5], "tol": 1e-9, "report_repeats": 11,
        "probes": 5,
        # relative tolerance against de Vahl Davis per stage; at h = 1/12
        # the Ra = 1e5 boundary layers are about one cell wide, and u2_max
        # peaks inside the vertical one
        "dvd_tol": [dict.fromkeys(refs.DE_VAHL_DAVIS[1e3], 0.06),
                    dict.fromkeys(refs.DE_VAHL_DAVIS[1e4], 0.06),
                    {"u1_max": 0.05, "u2_max": 0.20, "nu_bar": 0.08,
                     "nu_max": 0.05, "nu_min": 0.05}],
    },
    # `wgconvect converge` on the conjugate manufactured problem, for both
    # trace degrees (l = k with wg1, l = k - 1 with wg3)
    "manufactured_tables": {
        "kind": "tables", "meshes": [[8, 4], [16, 8], [32, 16]],
        "methods": [["wg1", 1], ["wg1", 2], ["wg3", 2]], "tol": 1e-9,
        "report_repeats": 2, "probes": 5, "order_tol": ORDER_TOL,
    },
    # `wgconvect cavity` with its default Ra and plain Picard iteration
    "cavity_default": {
        "kind": "cavity", "variant": "wg1", "degree": 1, "mesh": [20, 20],
        "targets": [1e3], "tol": 1e-9, "report_repeats": 7, "probes": 5,
        "dvd_tol": [dict.fromkeys(refs.DE_VAHL_DAVIS[1e3], 0.03)],
    },
}


class Tally:
    """Operations (solves and checks) attempted and failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok


def setup(spec):
    """Problem, method parameters and meshes: everything before the first
    solve apart from the imports."""
    if spec["kind"] == "cavity":
        problem = problems.cavity(spec["targets"][-1])
        params = forms.MethodParams.from_variant(spec["variant"],
                                                 spec["degree"])
        nx, ny = spec["mesh"]
        return {"problem": problem, "params": params,
                "mesh": mesh.build_structured_mesh(nx, ny, problem.domain,
                                                   problem.fluid_rect)}
    problem = problems.manufactured_convection()
    return {"problem": problem,
            "params": [forms.MethodParams.from_variant(v, k)
                       for v, k in spec["methods"]],
            "meshes": [mesh.build_structured_mesh(nx, ny, problem.domain,
                                                  problem.fluid_rect)
                       for nx, ny in spec["meshes"]]}


def invariants(fields):
    """The CLI's post-solve contract: (div_h, face jump, mean pressure,
    pressure scale)."""
    div_h, jump = postproc.divergence_diagnostic(fields)
    m = fields.mesh
    qr = polybasis.QuadratureRule.triangle(max(fields.params.degree - 1, 1))
    vals = fields.pressure_at(m.fluid_elems, qr.points)
    mean_p = float(np.sum(m.det_b[m.fluid_elems][:, None] * qr.weights
                          * vals))
    return div_h, jump, mean_p, max(postproc.pressure_l2(fields), 1.0)


def nonlinear_residual(fields, problem):
    """||A(u) x - b|| / ||b||: the step re-assembled at the converged
    velocity, applied to the converged solution."""
    dm = fields.dofmap
    system = linsys.assemble_oseen_step(fields.mesh, fields.params, problem,
                                        w_prev=fields.coeffs, dofmap=dm)
    x = np.append(fields.coeffs[dm.free_dofs], fields.multiplier)
    return float(np.linalg.norm(system.matrix @ x - system.rhs)
                 / np.linalg.norm(system.rhs))


def _check_solution(tally, label, fields, state, problem, inv, tol):
    tally.check(state.converged, "%s: did not converge in %d iterations"
                % (label, state.iterations))
    div_h, jump, mean_p, scale = inv
    tally.check(div_h <= DIV_TOL, "%s: divergence %.3e" % (label, div_h))
    tally.check(jump <= DIV_TOL, "%s: face jump %.3e" % (label, jump))
    tally.check(abs(mean_p) <= MEAN_P_TOL * scale,
                "%s: mean pressure %.3e" % (label, mean_p))
    resid = nonlinear_residual(fields, problem)
    tally.check(resid <= RESIDUAL_FACTOR * tol,
                "%s: nonlinear residual %.3e" % (label, resid))


def digest(vectors):
    h = hashlib.sha256()
    for v in vectors:
        h.update(np.ascontiguousarray(v, dtype=np.float64).tobytes())
    return h.hexdigest()


class Round:
    def __init__(self, solve_s, report_samples, iterations, digest):
        self.solve_s = solve_s
        self.report_samples = report_samples
        self.iterations = iterations
        self.digest = digest

    @property
    def command_s(self):
        """The command's time after set-up: the solve and one report
        pass."""
        return self.solve_s + self.report_samples[0]


def run_round(spec, ctx, rng, outdir, tally, tracer=None):
    """One measured round; returns a Round, or None if a solve raised."""
    quiet = tracer.paused() if tracer else contextlib.nullcontext()
    if spec["kind"] == "cavity":
        return _cavity_round(spec, ctx, outdir, tally, quiet)
    return _tables_round(spec, ctx, rng, outdir, tally, quiet)


def _cavity_round(spec, ctx, outdir, tally, quiet):
    problem, params, m = ctx["problem"], ctx["params"], ctx["mesh"]
    targets = spec["targets"]
    t0 = time.perf_counter()
    try:
        if len(targets) > 1:
            fields, states = solver.ramp_rayleigh(
                m, params, problem, targets, tol=spec["tol"],
                relaxation="aitken")
        else:
            fields, state = solver.oseen_solve(m, params, problem,
                                               tol=spec["tol"])
            states = [state]
    except RuntimeError as err:
        tally.check(False, "solve raised: %s" % err)
        return None
    solve_s = time.perf_counter() - t0

    nx, ny = spec["mesh"]
    label = "ra%g-%s-k%d-%dx%d" % (problem.ra, params.variant,
                                   params.degree, nx, ny)
    samples = []
    for _ in range(spec["report_repeats"]):
        t = time.perf_counter()
        inv = invariants(fields)
        rep = postproc.cavity_report(fields)
        postproc.write_cavity_csv([(label, rep)],
                                  os.path.join(outdir, "cavity.csv"))
        solver.write_trace_csv(states[-1].trace,
                               os.path.join(outdir, "trace.csv"))
        postproc.export_fields(fields, os.path.join(outdir, "fields.vtk"))
        samples.append(time.perf_counter() - t)

    with quiet:
        for i, (ra, state) in enumerate(zip(targets, states)):
            stage = "Ra=%g" % ra
            last = i == len(states) - 1
            stage_inv = inv if last else invariants(state.fields)
            stage_rep = rep if last else postproc.cavity_report(state.fields)
            _check_solution(tally, stage, state.fields, state,
                            problem.with_rayleigh(ra), stage_inv,
                            spec["tol"])
            for name, want in refs.DE_VAHL_DAVIS[ra].items():
                got = getattr(stage_rep, name)
                rel = abs(got - want) / want
                tally.check(rel <= spec["dvd_tol"][i][name],
                            "%s %s: %.4f against de Vahl Davis %.4f "
                            "(%.1f%% off)" % (stage, name, got, want,
                                              100 * rel))
    vectors = [np.append(st.fields.coeffs, st.fields.multiplier)
               for st in states]
    return Round(solve_s, samples, sum(st.iterations for st in states),
                 digest(vectors))


def _tables_round(spec, ctx, rng, outdir, tally, quiet):
    problem = ctx["problem"]
    # the seed only permutes the order in which the tables are computed
    order = list(range(len(spec["methods"])))
    rng.shuffle(order)
    solved = {}
    solve_s = 0.0
    for j in order:
        rows = []
        for m in ctx["meshes"]:
            t = time.perf_counter()
            try:
                fields, state = solver.oseen_solve(m, ctx["params"][j],
                                                   problem, tol=spec["tol"])
            except RuntimeError as err:
                tally.check(False, "solve raised: %s" % err)
                return None
            solve_s += time.perf_counter() - t
            rows.append((fields, state))
        solved[j] = rows

    samples = []
    for _ in range(spec["report_repeats"]):
        t = time.perf_counter()
        tables = {}
        for j in order:
            variant, degree = spec["methods"][j]
            rows = [(invariants(f), postproc.error_report(f, problem.exact))
                    for f, _ in solved[j]]
            postproc.write_convergence_csv(
                [rep for _, rep in rows],
                os.path.join(outdir, "convergence-%s-k%d.csv"
                             % (variant, degree)))
            tables[j] = rows
        samples.append(time.perf_counter() - t)

    columns = postproc.ErrorReport.FIELDS
    with quiet:
        for j, (variant, degree) in enumerate(spec["methods"]):
            reports = []
            for (nx, ny), (fields, state), (inv, rep) in zip(
                    spec["meshes"], solved[j], tables[j]):
                label = "%s k=%d %dx%d" % (variant, degree, nx, ny)
                _check_solution(tally, label, fields, state, problem, inv,
                                spec["tol"])
                errs = [getattr(rep, c) for c in columns]
                tally.check(all(0.0 < e < 1.0 for e in errs),
                            "%s: relative errors %s not in (0, 1)"
                            % (label, errs))
                reports.append(rep)
            for c in columns:
                errs = [getattr(r, c) for r in reports]
                label = "%s k=%d %s" % (variant, degree, c)
                tally.check(all(b < a for a, b in zip(errs, errs[1:])),
                            "%s: errors %s do not decrease" % (label, errs))
                got = postproc.observed_order(errs)[-1]
                want = refs.expected_order(c, degree)
                tally.check(abs(got - want) <= spec["order_tol"],
                            "%s: last observed order %.3f, expected %d"
                            % (label, got, want))
    vectors = [np.append(f.coeffs, f.multiplier)
               for j in range(len(spec["methods"])) for f, _ in solved[j]]
    iterations = sum(st.iterations for rows in solved.values()
                     for _, st in rows)
    return Round(solve_s, samples, iterations, digest(vectors))
