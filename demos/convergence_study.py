"""Convergence of the weak Galerkin solver on the manufactured benchmark.

The manufactured problem lives on the rectangle [-1,1]x[0,1]: the right
half [0,1]^2 is fluid, the left half is solid, and heat conducts through
both.  The exact velocity derives from a stream function, so it is exactly
divergence free, and the forcing terms are whatever the exact fields demand.

This script solves the coupled flow/heat system on a sequence of halving
meshes and prints the classical convergence table: energy-norm and L2
errors for velocity, pressure, and temperature, with observed orders in
parentheses.  Lowest-order elements (k = 1) give first-order energy norms
and second-order L2 norms; pass a different degree or method variant on
the command line to see the other regimes.

Run from the repository root:

    python3 demos/convergence_study.py
    python3 demos/convergence_study.py --degree 2 --variant wg3
"""

import argparse
import time

from wgconvect import forms, postproc, problems, solver
from wgconvect.mesh import build_structured_mesh


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--degree", "-k", type=int, default=1,
                    help="interior polynomial degree (default 1)")
    ap.add_argument("--variant", default="wg1",
                    choices=["wg1", "wg2", "wg3"],
                    help="discrete space combination (default wg1)")
    ap.add_argument("--levels", type=int, default=3,
                    help="number of mesh refinements (default 3)")
    args = ap.parse_args(argv)

    problem = problems.manufactured_convection()
    params = forms.MethodParams.from_variant(args.variant, args.degree)
    print("problem: %s   method: %s, degree %d"
          % (problem.name, params.variant, params.degree))

    # the coarsest mesh matches the 2:1 aspect ratio of the domain, so the
    # elements are right triangles with legs of equal length
    reports = []
    for level in range(args.levels):
        nx, ny = 8 * 2 ** level, 4 * 2 ** level
        mesh = build_structured_mesh(nx, ny, problem.domain,
                                     problem.fluid_rect)
        t0 = time.perf_counter()
        fields, state = solver.oseen_solve(mesh, params, problem, tol=1e-9)
        elapsed = time.perf_counter() - t0
        if not state.converged:
            raise SystemExit("fixed point stalled on %dx%d: %r"
                             % (nx, ny, state))
        div, jump = postproc.divergence_diagnostic(fields)
        reports.append(postproc.error_report(fields, problem.exact,
                                             div_h=div))
        print("%3dx%-3d  %2d iterations  %6.1fs  element div %.2e, "
              "face jump %.2e" % (nx, ny, state.iterations, elapsed,
                                  div, jump))

    # tabulate errors with the observed order of each column; the order
    # between consecutive meshes is log2(coarse error / fine error)
    print()
    header = "%-8s" % "mesh"
    for name in postproc.ErrorReport.FIELDS:
        header += "  %-18s" % name
    print(header)
    columns = {name: [getattr(r, name) for r in reports]
               for name in postproc.ErrorReport.FIELDS}
    orders = {name: postproc.observed_order(vals)
              for name, vals in columns.items()}
    for i, rep in enumerate(reports):
        nx, ny = 8 * 2 ** i, 4 * 2 ** i
        row = "%-8s" % ("%dx%d" % (nx, ny))
        for name in postproc.ErrorReport.FIELDS:
            order = " (%.2f)" % orders[name][i - 1] if i else "       "
            row += "  %.4E%s" % (columns[name][i], order)
        print(row)

    print()
    print("the velocity error is measured in the mesh-dependent energy "
          "norm;\nits interior part is exactly divergence free on every "
          "mesh, which is\nwhy the divergence column above sits at "
          "rounding level.")


if __name__ == "__main__":
    main()
