"""Command-line driver for convergence studies, cavity benchmarks, and
one-off solves.

Each subcommand names its problem one way: `converge` runs the built-in
manufactured problem, or a `--config` file with an [exact] section, over a
halving mesh sequence and tabulates errors and orders; `cavity` runs the
buoyancy-driven cavity benchmark at `--ra`; and `solve` runs one mesh of
the problem in its required `--config` file.  All three share the other
options and one per-mesh path (`_solve_mesh`): build the mesh, choose the
fixed-point iteration by one rule (`_solve_case`), solve, and check the
invariants.  All numeric tables are printed with 5 significant digits;
the CSV files carry full precision.  Exit status is 0 only if every solve
converged and the divergence and mean-pressure invariants hold.
"""

import argparse
import os
import sys


def _pin_blas_threads(environ):
    """Set the BLAS thread count to WGCONVECT_THREADS, or to 1 when that is
    unset: the sparse factorizations that dominate a solve are
    single-threaded, and a second BLAS thread only burns CPU.  A thread
    variable already set in `environ` wins."""
    threads = environ.get("WGCONVECT_THREADS") or "1"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        environ.setdefault(var, threads)


# must run before the numeric stack loads, so at import of the entry module
_pin_blas_threads(os.environ)

import numpy as np

from . import forms
from . import polybasis as pb
from . import postproc
from . import problems
from . import solver
from .mesh import build_structured_mesh

DIV_TOL = 1e-10
MEAN_P_TOL = 1e-9


def _parse_mesh(text):
    try:
        nx, ny = text.lower().split("x")
        nx, ny = int(nx), int(ny)
    except ValueError:
        raise ValueError("mesh must look like 8x4, got %r" % text)
    if nx < 1 or ny < 1:
        raise ValueError("mesh cells must be positive, got %r" % text)
    return nx, ny


def _parse_mesh_sequence(text):
    meshes = [_parse_mesh(t) for t in text.split(",") if t]
    if len(meshes) < 2:
        raise ValueError("a convergence study needs at least two meshes")
    for (ax, ay), (bx, by) in zip(meshes, meshes[1:]):
        if (bx, by) != (2 * ax, 2 * ay):
            raise ValueError("mesh sequence must halve h at every step; "
                             "%dx%d does not refine %dx%d"
                             % (bx, by, ax, ay))
    return meshes


def _load_problem(args, problem=None):
    """(problem, MethodParams, solver options): the command's built-in
    `problem` when given, else the --config file's problem and settings;
    flags override the config's settings."""
    method, sopts = {}, {}
    if problem is None:
        problem, method, sopts = problems.load_config(args.config)
    if args.degree is not None:
        method["degree"] = args.degree
    if args.variant is not None:
        method["variant"] = args.variant
    if args.tol is not None:
        sopts["tol"] = args.tol
    if args.max_iter is not None:
        sopts["max_iter"] = args.max_iter
    method.setdefault("degree", 1)
    method.setdefault("variant", "wg1")
    params = forms.MethodParams.from_variant(method["variant"],
                                             method["degree"])
    return problem, params, sopts


def _mean_pressure(fields):
    mesh = fields.mesh
    qr = pb.quad_rule(max(fields.params.degree - 1, 1), "triangle")
    vals = fields.pressure_at(mesh.fluid_elems, qr.points)
    return float(np.sum(mesh.det_b[mesh.fluid_elems][:, None]
                        * qr.weights * vals))


def _check_invariants(fields):
    """(ok, message, div_h) for the divergence and mean-pressure
    contracts; div_h is passed on to error reports."""
    div_h, jump = postproc.divergence_diagnostic(fields)
    mean_p = _mean_pressure(fields)
    scale = max(postproc.pressure_l2(fields), 1.0)
    ok = div_h <= DIV_TOL and jump <= DIV_TOL \
        and abs(mean_p) <= MEAN_P_TOL * scale
    msg = ("divergence %.3e, face jump %.3e, mean pressure %.3e -> %s"
           % (div_h, jump, mean_p, "PASS" if ok else "FAIL"))
    return ok, msg, div_h


def _solve_case(mesh, params, problem, sopts):
    """One solve honoring the solver options: (fields, states), one
    OseenState per stage.  Only the tol and max_iter that a flag or the
    config set are passed on; the solver's own defaults hold otherwise.
    Each stage of a Rayleigh ramp (sopts["ramp"]) takes one Picard step,
    then damped Newton steps (relaxation="aitken"), and the fields are its
    final stage's.  Without a ramp, one solve from rest is the one stage:
    relaxed above Ra = 1e3, where plain Picard stops contracting, and
    plain Picard up to it."""
    settings = dict(sopts)
    targets = settings.pop("ramp", None)
    if targets:
        return solver.ramp_rayleigh(mesh, params, problem, targets,
                                    relaxation="aitken", **settings)
    fields, state = solver.oseen_solve(
        mesh, params, problem,
        relaxation="aitken" if problem.ra > 1e3 else None, **settings)
    return fields, [state]


def _print_convergence_table(meshes, reports):
    names = postproc.ErrorReport.FIELDS
    head = "mesh      " + "".join("%-18s" % n for n in names) + "div_h"
    print(head)
    prev = None
    for (nx, ny), rep in zip(meshes, reports):
        cells = []
        for n in names:
            err = getattr(rep, n)
            if prev is None:
                cells.append("%.4E (-)   " % err)
            else:
                order = np.log2(getattr(prev, n) / err)
                cells.append("%.4E (%.2f)" % (err, order))
        print("%-10s%s %.1E" % ("%dx%d" % (nx, ny), " ".join(cells),
                                rep.div_h))
        prev = rep


def _solve_mesh(cells, problem, params, sopts):
    """Build the nx x ny mesh of `cells`, solve on it and check the
    invariants.  Returns (fields, state, ok, div_h, lines): state is the
    final stage's, ok whether it converged and the invariants hold, and
    lines the solve's verdict and the invariants' line, which each command
    prints in its own form."""
    nx, ny = cells
    mesh = build_structured_mesh(nx, ny, problem.domain, problem.fluid_rect)
    fields, states = _solve_case(mesh, params, problem, sopts)
    state = states[-1]
    inv_ok, msg, div_h = _check_invariants(fields)
    verdict = ("%s in %d iterations"
               % ("converged" if state.converged else "NOT converged",
                  state.iterations))
    return fields, state, state.converged and inv_ok, div_h, (verdict, msg)


def _write_solve(outdir, fields, state):
    """trace.csv and fields.vtk of one solve in outdir; returns the path of
    fields.vtk."""
    solver.write_trace_csv(state.trace, os.path.join(outdir, "trace.csv"))
    return postproc.export_fields(fields, os.path.join(outdir, "fields.vtk"))


def cmd_converge(args):
    problem, params, sopts = _load_problem(
        args, None if args.config else problems.manufactured_convection())
    if problem.exact is None:
        raise ValueError("a convergence study needs a problem with an "
                         "exact solution; the config defines none")
    meshes = _parse_mesh_sequence(args.meshes)
    os.makedirs(args.outdir, exist_ok=True)

    reports = []
    ok = True
    for cells in meshes:
        fields, _, mesh_ok, div_h, lines = _solve_mesh(cells, problem,
                                                       params, sopts)
        print("%dx%d: %s; %s" % (cells + lines))
        ok = ok and mesh_ok
        reports.append(postproc.error_report(fields, problem.exact,
                                             div_h=div_h))

    print()
    _print_convergence_table(meshes, reports)
    csv = os.path.join(args.outdir, "convergence.csv")
    postproc.write_convergence_csv(reports, csv)
    print("\nwrote %s" % csv)
    return 0 if ok else 1


def cmd_cavity(args):
    problem, params, sopts = _load_problem(args, problems.cavity(args.ra))
    cells = _parse_mesh(args.mesh)
    os.makedirs(args.outdir, exist_ok=True)

    fields, state, ok, _, lines = _solve_mesh(cells, problem, params, sopts)
    print("Ra=%g: %s\n%s" % ((problem.ra,) + lines))
    rep = postproc.cavity_report(fields)
    for name in ("u1_max", "u2_max", "nu_bar", "nu_max", "nu_min",
                 "nu_volume"):
        print("%-10s %.5g" % (name, getattr(rep, name)))

    label = "ra%g-%s-k%d-%dx%d" % ((problem.ra, params.variant,
                                    params.degree) + cells)
    csv = os.path.join(args.outdir, "cavity.csv")
    postproc.write_cavity_csv([(label, rep)], csv)
    _write_solve(args.outdir, fields, state)
    print("wrote %s" % csv)
    return 0 if ok else 1


def cmd_solve(args):
    problem, params, sopts = _load_problem(args)
    cells = _parse_mesh(args.mesh)
    os.makedirs(args.outdir, exist_ok=True)

    fields, state, ok, div_h, lines = _solve_mesh(cells, problem, params,
                                                  sopts)
    print("%s\n%s" % lines)
    if problem.exact is not None:
        rep = postproc.error_report(fields, problem.exact, div_h=div_h)
        for name in postproc.ErrorReport.FIELDS:
            print("%-10s %.5g" % (name, getattr(rep, name)))
        postproc.write_convergence_csv(
            [rep], os.path.join(args.outdir, "errors.csv"))

    print("wrote %s" % _write_solve(args.outdir, fields, state))
    return 0 if ok else 1


def _add_common(sub):
    sub.add_argument("-k", "--degree", type=int, default=None,
                     help="polynomial degree of the interior spaces")
    sub.add_argument("--variant", choices=("wg1", "wg2", "wg3"),
                     default=None, help="trace/gradient degree pairing")
    sub.add_argument("--tol", type=float, default=None,
                     help="fixed-point relative tolerance")
    sub.add_argument("--max-iter", type=int, default=None,
                     help="fixed-point iteration cap")
    sub.add_argument("-o", "--outdir", default="out",
                     help="directory for CSV/VTK artifacts")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="wgconvect",
        description="Weak Galerkin solver for stationary natural "
                    "convection with exactly divergence-free velocity.",
        epilog="The BLAS runs one thread; set WGCONVECT_THREADS to change "
               "that.")
    sub = ap.add_subparsers(dest="command", required=True)

    conv = sub.add_parser("converge",
                          help="error table over a halving mesh sequence")
    _add_common(conv)
    conv.add_argument("--config", default=None,
                      help="problem config file with an [exact] section "
                           "(default: the built-in manufactured problem)")
    conv.add_argument("--meshes", default="8x4,16x8,32x16,64x32",
                      help="comma-separated cell counts, e.g. 8x4,16x8")
    conv.set_defaults(func=cmd_converge)

    cav = sub.add_parser("cavity", help="buoyancy-driven cavity benchmark")
    _add_common(cav)
    cav.add_argument("--ra", type=float, default=1e3,
                     help="Rayleigh number")
    cav.add_argument("--mesh", default="40x40", help="cell counts, NxM")
    cav.set_defaults(func=cmd_cavity)

    sol = sub.add_parser("solve", help="one solve from a problem config")
    _add_common(sol)
    sol.add_argument("--config", required=True, help="problem config file")
    sol.add_argument("--mesh", default="16x8", help="cell counts, NxM")
    sol.set_defaults(func=cmd_solve)
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as err:
        print("error: %s" % err, file=sys.stderr)
        return 2
    except RuntimeError as err:
        print("error: %s" % err, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
