"""Reference data that does not come from wgconvect.

DE_VAHL_DAVIS holds the benchmark solution of the differentially heated
square cavity (Pr = 0.71) from G. de Vahl Davis, "Natural convection of air
in a square cavity: a bench mark numerical solution", Int. J. Numer. Meth.
Fluids 3 (1983) 249-264: the largest horizontal velocity on the vertical
mid-plane, the largest vertical velocity on the horizontal mid-plane, and
the mean, largest and smallest Nusselt number on the hot wall, velocities
scaled by kappa / L.

The manufactured problem's reference is its sympy exact solution, which
`postproc.error_report` integrates against; what the method promises about
those errors is the convergence order, EXPECTED_ORDER.
"""

DE_VAHL_DAVIS = {
    1e3: {"u1_max": 3.649, "u2_max": 3.697, "nu_bar": 1.118,
          "nu_max": 1.505, "nu_min": 0.692},
    1e4: {"u1_max": 16.178, "u2_max": 19.617, "nu_bar": 2.243,
          "nu_max": 3.528, "nu_min": 0.586},
    1e5: {"u1_max": 34.73, "u2_max": 68.59, "nu_bar": 4.519,
          "nu_max": 7.717, "nu_min": 0.729},
}


def expected_order(column, degree):
    """Optimal order in h of one ErrorReport column for interior degree k:
    k for the velocity and temperature gradients and the pressure, k + 1
    for the L2 velocity and temperature."""
    return degree + 1 if column in ("l2_u", "l2_t") else degree
