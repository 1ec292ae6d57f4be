import re

import numpy as np
import pytest

import oracles
from wgconvect import problems as pr


def test_manufactured_fields_match_reference_values():
    prob = pr.manufactured_convection()
    assert prob.pr == 1.0 and prob.kappa == 1.0 and prob.ra == 10.0
    assert prob.domain == (-1.0, 1.0, 0.0, 1.0)
    assert prob.fluid_rect == (0.0, 1.0, 0.0, 1.0)
    ex = prob.exact
    # spot values straight from the closed forms
    x, y = 0.3, 0.7
    u1 = -x ** 2 * (x - 1) ** 2 * y * (y - 1) * (2 * y - 1)
    u2 = y ** 2 * (y - 1) ** 2 * x * (x - 1) * (2 * x - 1)
    assert ex.u(x, y) == pytest.approx([u1, u2], abs=1e-15)
    assert ex.p(x, y) == pytest.approx(x ** 6 - y ** 6, abs=1e-15)
    assert ex.T(x, y) == pytest.approx((x - 1) * (x + 1) * y * (y - 1),
                                       abs=1e-15)


def test_manufactured_divergence_free():
    ex = pr.manufactured_convection().exact
    assert ex.divergence_residual() <= 1e-12
    # the trivial spot check
    g = ex.grad_u(0.3, 0.7)
    assert abs(g[0, 0] + g[1, 1]) < 1e-14


def test_manufactured_velocity_vanishes_on_fluid_boundary():
    ex = pr.manufactured_convection().exact
    t = np.linspace(0.0, 1.0, 20)
    for xs, ys in [(t, 0 * t), (t, 1 + 0 * t), (0 * t, t), (1 + 0 * t, t)]:
        assert np.abs(ex.u(xs, ys)).max() < 1e-14


def test_manufactured_temperature_vanishes_on_outer_boundary():
    ex = pr.manufactured_convection().exact
    t = np.linspace(0.0, 1.0, 15)
    xs = np.linspace(-1.0, 1.0, 15)
    for px, py in [(xs, 0 * xs), (xs, 1 + 0 * xs),
                   (-1 + 0 * t, t), (1 + 0 * t, t)]:
        assert np.abs(ex.T(px, py)).max() < 1e-14


def test_manufactured_forcing_consistency():
    prob = pr.manufactured_convection()
    assert oracles.forcing_residual(prob, n=20, seed=3) <= 1e-8
    assert prob.exact.forcing_degree == 13


def test_horner_forcing_matches_lambdify():
    import sympy as sp
    X, Y = sp.symbols("x y")
    ex = pr.manufactured_convection().exact
    assert set(ex.forcing) == {"f1", "f2", "g_fluid", "g_solid"}
    rng = np.random.default_rng(2)
    x, y = rng.uniform(-1.0, 1.0, 500), rng.uniform(0.0, 1.0, 500)
    # (coefficient array, the same polynomial as a sympy expression)
    cases = [(c, sum(float(c[i, j]) * X ** i * Y ** j
                     for i, j in zip(*np.nonzero(c))))
             for c in ex.forcing.values()]
    for poly in (sp.Poly(0, X, Y), sp.Poly(2.5, X, Y),
                 sp.Poly(X ** 3 * Y - Y ** 4, X, Y)):
        shape = np.array(poly.monoms()).max(axis=0) + 1
        cases.append((oracles.dense(poly, shape), poly.as_expr()))
    for coef, expr in cases:
        want = np.broadcast_to(
            sp.lambdify((X, Y), expr, "numpy")(x, y), x.shape)
        got = pr._horner(coef)(x, y)
        assert got.shape == x.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * max(
            np.max(np.abs(want)), np.finfo(float).tiny)
        # scalars and mixed arguments give the broadcast shape, as the
        # lambdified fields do
        for args in ((0.3, 0.7), (x[:4].reshape(2, 2), 0.7)):
            got = pr._horner(coef)(*args)
            want = oracles.lambdify(expr)(*args)
            assert got.shape == want.shape
            assert np.allclose(got, want, rtol=1e-13, atol=0.0)
    assert ex.f(0.3, 0.7).shape == (2,) and ex.g(0.3, 0.7).shape == ()


def _coefficient_gap(got, poly):
    """Largest |got - poly| over the coefficients, relative to the largest
    coefficient of poly (0 when both vanish)."""
    shape = np.maximum(got.shape, np.array(poly.monoms()).max(axis=0) + 1)
    want = oracles.dense(poly, shape)
    padded = np.zeros(shape)
    padded[:got.shape[0], :got.shape[1]] = got
    scale = np.max(np.abs(want))
    gap = np.max(np.abs(padded - want))
    return gap / scale if scale else gap


def _algebra_gaps(fields, pr_, ra, kappa):
    """The coefficient gap of every field, first derivative and forcing
    term of ExactSolution(fields) against sympy's Poly arithmetic."""
    want = oracles.sympy_exact(fields, pr_, ra, kappa)
    ex = pr.ExactSolution(fields["u1"], fields["u2"], fields["p"],
                          fields["T"], pr_, ra, kappa, (0.0, 1.0, 0.0, 1.0))
    gaps = {}
    for name in ("u1", "u2", "p", "T"):
        c = pr._polynomial(fields[name], name)
        gaps[name] = _coefficient_gap(c, want[name])
        for axis, d in enumerate("xy"):
            gaps[name + "_" + d] = _coefficient_gap(pr._diff(c, axis),
                                                    want[name + "_" + d])
    for key, c in ex.forcing.items():
        gaps[key] = _coefficient_gap(c, want[key])
    assert ex.forcing_degree == max(want[k].total_degree() for k in ex.forcing)
    return gaps


def test_polynomial_algebra_matches_sympy_on_the_manufactured_fields():
    gaps = _algebra_gaps(pr.MANUFACTURED_FIELDS, 1.0, 10.0, 1.0)
    assert len(gaps) == 16
    assert all(gap == 0.0 for gap in gaps.values()), gaps


def test_polynomial_algebra_matches_sympy_on_random_polynomials():
    import sympy as sp
    X, Y = sp.symbols("x y")
    rng = np.random.default_rng(11)

    def random_polynomial():
        nx, ny = rng.integers(1, 5, size=2)
        return sum(sp.Rational(int(rng.integers(-9, 10)),
                               int(rng.integers(1, 10))) * X ** i * Y ** j
                   for i in range(nx) for j in range(ny))

    worst = 0.0
    for _ in range(12):
        fields = {k: str(random_polynomial()) for k in ("u1", "u2", "p", "T")}
        gaps = _algebra_gaps(fields, *rng.uniform(0.5, 2.0, 3))
        worst = max(worst, *gaps.values())
    assert worst <= 1e-15


@pytest.mark.parametrize("text, want", [
    ("x^2 - y", [[0.0, -1.0], [0.0, 0.0], [1.0, 0.0]]),
    ("x/2", [[0.0], [0.5]]),
    ("x**0", [[1.0]]),
    ("-(x - 3*y)", [[0.0, 3.0], [-1.0, 0.0]]),
    ("+x*-y", [[0.0, 0.0], [0.0, -1.0]]),
    ("(1 + 1)**3*x / (4*2)", [[0.0], [1.0]]),
], ids=["caret", "half", "power-zero", "unary-minus", "unary-signs",
        "constant-arithmetic"])
def test_polynomial_parser_accepts(text, want):
    got = pr._polynomial(text, "u1")
    assert got.shape == np.shape(want) and np.array_equal(got, want)


def test_polynomial_parser_reads_sympy_expressions():
    import sympy as sp
    X, Y = sp.symbols("x y")
    expr = (sp.Rational(3, 4) * X ** 2 * Y - Y / 7
            + sp.Float(2.5) * (X - 1) ** 3)
    assert _coefficient_gap(pr._polynomial(expr, "p"),
                            sp.Poly(expr, X, Y)) == 0.0


@pytest.mark.parametrize("text", [
    "__import__('os')", "x.real", "1/x", "x/(y - y)", "x**-1", "x**0.5",
    "x**y", "pi*x", "x +* y", "(x", "True*x", "'x'",
], ids=["call", "attribute", "divide-by-x", "divide-by-zero",
        "negative-power", "fractional-power", "power-of-y", "pi", "syntax",
        "unclosed", "bool", "string"])
def test_polynomial_parser_rejects(text):
    with pytest.raises(ValueError, match=r"^exact field T = %s is not a "
                       r"polynomial in x and y$" % re.escape(text)):
        pr._polynomial(text, "exact field T")


def test_forcing_g_is_piecewise():
    # outside the fluid box the transport term drops (u is extended by zero)
    ex = pr.manufactured_convection().exact
    x, y = -0.5, 0.4
    kappa = 1.0
    lap_T = 2 * y * (y - 1) + (x - 1) * (x + 1) * 2
    assert ex.g(x, y) == pytest.approx(-kappa * lap_T, rel=1e-13)
    # inside, the transport part contributes
    xf, yf = 0.43, 0.61
    assert ex.g(xf, yf) != pytest.approx(
        -kappa * (2 * yf * (yf - 1) + (xf - 1) * (xf + 1) * 2), rel=1e-6)


def test_cavity_spec():
    prob = pr.cavity(1e3)
    assert prob.pr == pytest.approx(0.71)
    assert prob.kappa == 1.0
    assert prob.domain == prob.fluid_rect == (0.0, 1.0, 0.0, 1.0)
    assert prob.temp_bc["left"] == ("dirichlet", "1")
    assert prob.temp_bc["right"] == ("dirichlet", "0")
    assert prob.temp_bc["bottom"][0] == "insulated"
    assert prob.temp_bc["top"][0] == "insulated"
    assert prob.temp_dirichlet_fn("left")(0.0, 0.5) == 1.0
    assert prob.temp_dirichlet_fn("right")(1.0, 0.5) == 0.0
    x = np.linspace(0, 1, 5)
    assert np.abs(prob.f(x, x)).max() == 0.0
    assert np.abs(prob.g(x, x)).max() == 0.0


def test_forcing_is_the_exact_solutions_or_zero():
    bc = {w: ("dirichlet", "0") for w in pr.WALLS}
    unit = (0.0, 1.0, 0.0, 1.0)
    x = np.linspace(-1, 1, 6).reshape(2, 3)
    y = np.linspace(0, 1, 3)
    rest = pr.ProblemSpec(0.71, 1e4, 1.0, unit, unit, bc)
    assert rest.f(x, y).shape == (2, 3, 2) and rest.g(x, y).shape == (2, 3)
    assert not rest.f(x, y).any() and not rest.g(x, y).any()
    assert rest.forcing_degree == 0
    ex = pr.manufactured_convection().exact
    spec = pr.ProblemSpec(1.0, 10.0, 1.0, (-1.0, 1.0, 0.0, 1.0), unit, bc,
                          exact=ex)
    assert np.array_equal(spec.f(x, y), ex.f(x, y))
    assert np.array_equal(spec.g(x, y), ex.g(x, y))
    assert np.abs(spec.f(x, y)).max() > 0 and np.abs(spec.g(x, y)).max() > 0
    assert spec.forcing_degree == ex.forcing_degree


def test_numeric_wall_data_matches_the_expression_path():
    # wall temperatures are parsed into polynomials and evaluated by
    # Horner's rule; constants and 1 - y give the very arrays sympy's
    # lambdified expressions give
    unit = (0.0, 1.0, 0.0, 1.0)
    walls = {"left": "1", "right": "0", "bottom": "2.5e-1", "top": "1 - y"}
    spec = pr.ProblemSpec(1.0, 10.0, 1.0, unit, unit,
                          {wall: ("dirichlet", text)
                           for wall, text in walls.items()})
    x = np.linspace(-1, 1, 6).reshape(2, 3)
    for wall, text in walls.items():
        fn = spec.temp_dirichlet_fn(wall)
        for args in ((x, 0.5), (0.25, x), (0.5, 0.5), (x, x[:, :1])):
            got, want = fn(*args), oracles.lambdify(text)(*args)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want)
            # bit for bit, signed zeros included
            assert got.tobytes() == want.tobytes()
    assert spec.temp_degree == {"left": 0, "right": 0, "bottom": 0, "top": 1}


def test_problem_validation():
    unit = (0.0, 1.0, 0.0, 1.0)
    bc = {w: ("dirichlet", "0") for w in ("left", "right", "bottom", "top")}
    with pytest.raises(ValueError, match="Pr"):
        pr.ProblemSpec(0.0, 1.0, 1.0, unit, unit, bc)
    with pytest.raises(ValueError, match="Ra"):
        pr.ProblemSpec(1.0, -1.0, 1.0, unit, unit, bc)
    with pytest.raises(ValueError, match="kappa"):
        pr.ProblemSpec(1.0, 1.0, 0.0, unit, unit, bc)
    # a non-finite number is no physics: inf and nan stop here, not as a
    # nan residual of the first block solve
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError, match="Pr must be positive and finite"):
            pr.ProblemSpec(bad, 1.0, 1.0, unit, unit, bc)
        with pytest.raises(ValueError, match="Ra must be nonnegative and "
                           "finite"):
            pr.ProblemSpec(1.0, bad, 1.0, unit, unit, bc)
        with pytest.raises(ValueError,
                           match="kappa must be positive and finite"):
            pr.ProblemSpec(1.0, 1.0, bad, unit, unit, bc)
    with pytest.raises(ValueError, match="wall"):
        pr.ProblemSpec(1.0, 1.0, 1.0, unit, unit,
                       {"left": ("dirichlet", "0")})
    # wall data is parsed with the problem, before any mesh is built
    with pytest.raises(ValueError, match=r"^wall left temperature = sin\(y\) "
                       r"is not a polynomial in x and y$"):
        pr.ProblemSpec(1.0, 1.0, 1.0, unit, unit,
                       dict(bc, left=("dirichlet", "sin(y)")))


def test_inconsistent_exact_fields_rejected():
    unit = (0.0, 1.0, 0.0, 1.0)
    zero = {w: ("dirichlet", "0") for w in pr.WALLS}
    insulated_top = dict(zero, top=("insulated", None))

    def spec(u1, u2, T, bc):
        ex = pr.ExactSolution(u1, u2, "0", T, 1.0, 1.0, 1.0, unit)
        return pr.ProblemSpec(1.0, 1.0, 1.0, unit, unit, bc, exact=ex)

    for u1, u2, T, bc, match in [
            # u = (x, y) is not divergence-free
            ("x", "y", "0", zero, "divergence"),
            # u = (y(y-1), 0) is, but does not vanish at x = 0 or 1
            ("y*(y-1)", "0", "0", zero, "exact u1 is not zero on the left "
             "side of the fluid zone"),
            # T = x(x-1)y is 0 on three walls, but x(x-1) on top
            ("0", "0", "x*(x-1)*y", zero, "exact T differs from the data "
             "of Dirichlet wall top"),
            # T = x(x-1)y(y-1) has dT/dy = x(x-1) on top
            ("0", "0", "x*(x-1)*y*(y-1)", insulated_top,
             "exact dT/dn is not zero on insulated wall top")]:
        with pytest.raises(ValueError, match=match):
            spec(u1, u2, T, bc)
    # T = x(x-1)(y-1)^2 is x(x-1) on the bottom, 0 on the sides, and has
    # dT/dy = 0 on top
    bc = dict(insulated_top, bottom=("dirichlet", "x*(x-1)"))
    assert spec("0", "0", "x*(x-1)*(y-1)**2", bc).exact is not None


@pytest.mark.parametrize("fields, named", [
    (("sin(y)", "0", "0", "sin(x)*y"), "u1"),
    (("0", "0", "exp(x)", "0"), "p"),
    (("0", "0", "0", "a*x"), "T"),
    (("0", "x**0.5", "0", "0"), "u2"),
], ids=["sin", "exp", "parameter", "root"])
def test_non_polynomial_exact_fields_rejected(fields, named):
    # the forcing quadrature is exact only for polynomial fields
    with pytest.raises(ValueError, match="exact field %s = .* is not a "
                       "polynomial in x and y" % named):
        pr.ExactSolution(*fields, 1.0, 1.0, 1.0, (0.0, 1.0, 0.0, 1.0))


def test_ramp_copy_changes_only_ra():
    prob = pr.cavity(1e3)
    hot = prob.with_rayleigh(1e5)
    assert hot.ra == 1e5
    assert hot.pr == prob.pr and hot.temp_bc == prob.temp_bc
    with pytest.raises(ValueError, match="manufactured"):
        pr.manufactured_convection().with_rayleigh(20.0)


def test_ramp_copy_at_own_ra_is_the_problem():
    # a ramp stage at the problem's own Ra needs no copy, so a manufactured
    # forcing allows it
    man = pr.manufactured_convection()
    assert man.with_rayleigh(man.ra) is man
    prob = pr.cavity(1e3)
    assert prob.with_rayleigh(1e3) is prob


CAVITY_INI = """\
[physics]
pr = 0.71
ra = 1000.0
kappa = 1.0

[domain]
rect = 0.0 1.0 0.0 1.0
fluid_rect = 0.0 1.0 0.0 1.0

[bc]
left = dirichlet 1
right = dirichlet 0
bottom = insulated
top = insulated
"""

MANUFACTURED_INI = """\
[physics]
pr = 1.0
ra = 10.0
kappa = 1.0

[domain]
rect = -1.0 1.0 0.0 1.0
fluid_rect = 0.0 1.0 0.0 1.0

[exact]
u1 = -x**2*(x-1)**2*y*(y-1)*(2*y-1)
u2 = y**2*(y-1)**2*x*(x-1)*(2*x-1)
p = x**6 - y**6
T = (x-1)*(x+1)*y*(y-1)
"""


def test_cavity_config_roundtrip(tmp_path):
    prob = pr.cavity(1e3)
    path = tmp_path / "cavity.ini"
    path.write_text(CAVITY_INI + "[method]\nk = 1\nvariant = wg1\n"
                    "[solver]\ntol = 1e-09\nmax_iter = 50\nramp = 1000.0\n")
    loaded, method, solver = pr.load_config(path)
    assert loaded.pr == prob.pr
    assert loaded.ra == prob.ra
    assert loaded.kappa == prob.kappa
    assert loaded.domain == prob.domain
    assert loaded.fluid_rect == prob.fluid_rect
    assert loaded.temp_bc == prob.temp_bc
    assert method == {"degree": 1, "variant": "wg1"}
    assert solver == {"tol": 1e-9, "max_iter": 50, "ramp": [1e3]}
    x = np.linspace(0, 1, 4)
    assert np.abs(loaded.f(x, x)).max() == 0.0


def test_exact_config_roundtrip(tmp_path):
    prob = pr.manufactured_convection()
    path = tmp_path / "manu.ini"
    path.write_text(MANUFACTURED_INI)
    loaded, _, _ = pr.load_config(path)
    assert loaded.exact is not None
    assert loaded.temp_bc == prob.temp_bc      # every wall defaults to T = 0
    xs = np.array([0.2, 0.5, 0.9])
    ys = np.array([0.1, 0.6, 0.3])
    assert np.allclose(loaded.exact.u(xs, ys), prob.exact.u(xs, ys),
                       atol=1e-14)
    assert np.allclose(loaded.f(xs, ys), prob.f(xs, ys), atol=1e-12)
    assert np.allclose(loaded.g(xs, ys), prob.g(xs, ys), atol=1e-12)


def test_bad_bc_entry_rejected(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[physics]\npr = 1\nra = 1\n"
                    "[domain]\nrect = 0 1 0 1\n"
                    "[bc]\nleft = frozen\n")
    with pytest.raises(ValueError, match="left"):
        pr.load_config(path)


@pytest.mark.parametrize("text, named", [
    ("[physics]\nra = 1\n[domain]\nrect = 0 1 0 1\n", "'pr'"),
    ("[domain]\nrect = 0 1 0 1\n", r"\[physics\]"),
    ("[physics]\npr = 1\nra = 1\n", r"\[domain\]"),
    ("pr = 1\n", "section"),
], ids=["no-pr", "no-physics", "no-domain", "no-header"])
def test_incomplete_config_rejected(tmp_path, text, named):
    path = tmp_path / "bad.ini"
    path.write_text(text)
    with pytest.raises(ValueError, match=named):
        pr.load_config(path)


@pytest.mark.parametrize("extra, named", [
    ("[solver]\ntolerance = 1e-3\nmax_iters = 1\n",
     r"unknown key 'tolerance' in \[solver\]"),
    ("[method]\ndegree = 2\n", r"unknown key 'degree' in \[method\]"),
    ("[problem]\nname = cavity\n", r"unknown section \[problem\]"),
    ("[bc]\nleft = dirichlet 1\nfront = insulated\n",
     r"unknown key 'front' in \[bc\]"),
], ids=["solver-key", "method-key", "section", "wall"])
def test_unknown_config_entry_rejected(tmp_path, extra, named):
    path = tmp_path / "bad.ini"
    path.write_text("[physics]\npr = 1\nra = 1\n[domain]\nrect = 0 1 0 1\n"
                    + extra)
    with pytest.raises(ValueError, match="config .*bad.ini: " + named):
        pr.load_config(path)

