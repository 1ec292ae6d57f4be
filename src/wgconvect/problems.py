"""Built-in problem definitions and the config-file loader.

A problem couples the stationary momentum/continuity equations on the fluid
rectangle with heat transport on the whole domain:

    -Pr Lap(u) + div(u x u) + grad p - Pr Ra j T = f,   div u = 0   (fluid)
    -kappa Lap(T) + div(u T) = g                                    (domain)

with u = 0 on the fluid boundary, u extended by zero outside the fluid zone,
and per-wall temperature conditions (Dirichlet or insulated).  Exact
solutions carry their fields as polynomials in x and y, dense arrays of
coefficients parsed from the expressions; the matching forcings are
derived by differentiating and multiplying those arrays, and every field
is evaluated by Horner's rule.
"""

import ast
import configparser

import numpy as np

from .mesh import WALLS

_VARIABLES = {"x": np.array([[0.0], [1.0]]), "y": np.array([[0.0, 1.0]])}


def _add(*terms):
    """Sum of coefficient arrays, padded to their common shape."""
    out = np.zeros(np.max([c.shape for c in terms], axis=0))
    for c in terms:
        out[:c.shape[0], :c.shape[1]] += c
    return out


def _mul(a, b):
    """Product of two coefficient arrays: b shifted over, and scaled by,
    each nonzero coefficient of a."""
    out = np.zeros((a.shape[0] + b.shape[0] - 1, a.shape[1] + b.shape[1] - 1))
    for i, j in zip(*np.nonzero(a)):
        out[i:i + b.shape[0], j:j + b.shape[1]] += a[i, j] * b
    return out


def _diff(c, axis):
    """Derivative of a coefficient array in x (axis 0) or y (axis 1)."""
    c = np.swapaxes(c, 0, axis)
    d = c[1:] * np.arange(1.0, len(c))[:, None]
    return np.swapaxes(d if len(d) else np.zeros_like(c), 0, axis)


def _polynomial(expr, source):
    """The coefficient array c of expr, c[i, j] that of x^i y^j; source
    names where expr came from in the error ("exact field T", "wall left
    temperature").  expr must be a polynomial in x and y, for the forcing
    quadrature and the wall-data projection are exact only then: numbers,
    x and y, combined by unary and binary + and -, *, / by a number and
    ** (or ^) to a non-negative integer power.  expr is a string or an
    object whose str is one."""
    text = str(expr)

    def constant(c):
        return None if np.any(c.ravel()[1:]) else float(c[0, 0])

    def walk(node):
        if isinstance(node, ast.Constant):
            if type(node.value) in (int, float):
                return np.array([[float(node.value)]])
        elif isinstance(node, ast.Name):
            if node.id in _VARIABLES:
                return _VARIABLES[node.id].copy()
        elif isinstance(node, ast.UnaryOp):
            if isinstance(node.op, (ast.UAdd, ast.USub)):
                c = walk(node.operand)
                return -c if isinstance(node.op, ast.USub) else c
        elif isinstance(node, ast.BinOp):
            a, b = walk(node.left), walk(node.right)
            if isinstance(node.op, ast.Add):
                return _add(a, b)
            if isinstance(node.op, ast.Sub):
                return _add(a, -b)
            if isinstance(node.op, ast.Mult):
                return _mul(a, b)
            value = constant(b)
            if isinstance(node.op, ast.Div) and value:      # nonzero
                return a / value
            if (isinstance(node.op, ast.Pow) and value is not None
                    and value >= 0 and value == int(value)):
                out = np.ones((1, 1))
                for _ in range(int(value)):
                    out = _mul(a, out)
                return out
        raise ValueError

    try:
        # configs written for the earlier expression reader use ^ as a
        # power, with the precedence of **
        return walk(ast.parse(text.strip().replace("^", "**"),
                              mode="eval").body)
    except (ValueError, SyntaxError, OverflowError):
        raise ValueError("%s = %s is not a polynomial in x and y"
                         % (source, text)) from None


def _degree(c):
    """The largest i + j of a nonzero coefficient c[i, j] (0 for zero)."""
    return max((int(i + j) for i, j in zip(*np.nonzero(c))), default=0)


def _horner(c):
    """Numpy evaluator of the polynomial with coefficient array c, with the
    broadcast shape of its arguments: Horner's rule in x, whose
    coefficients are each evaluated by Horner's rule in y."""
    nonzero = np.flatnonzero(np.any(c != 0, axis=1))
    # the zero polynomial takes no row, so it is +0.0 even where x < 0
    top = nonzero[-1] + 1 if len(nonzero) else 0
    rows = [np.trim_zeros(row, "b") for row in c[:top][::-1]]

    def evaluate(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        out = np.zeros(np.broadcast_shapes(x.shape, y.shape))
        acc = np.empty_like(out)
        for row in rows:
            out *= x
            if len(row):
                acc.fill(row[-1])
                for c in row[-2::-1]:
                    acc *= y
                    acc += c
                out += acc
        return out

    return evaluate


class ExactSolution:
    """Closed-form (u, p, T) with the forcing the equations require.

    Expressions must be polynomials in x and y (see _polynomial).  The
    forcing is kept as the coefficient arrays
    `forcing["f1" | "f2" | "g_fluid" | "g_solid"]`, c[i, j] that of x^i y^j,
    whose degree sets the forcing quadrature; every field and forcing is
    evaluated by Horner's rule.
    """

    def __init__(self, u1, u2, p, T, pr, ra, kappa, fluid_rect):
        u1, u2, p, T = (_polynomial(w, "exact field " + name) for name, w in
                        [("u1", u1), ("u2", u2), ("p", p), ("T", T)])
        self.fluid_rect = tuple(float(c) for c in fluid_rect)
        dx, dy = (lambda w: _diff(w, 0)), (lambda w: _diff(w, 1))
        lap = lambda w: _add(dx(dx(w)), dy(dy(w)))
        conv = [_add(dx(_mul(u1, w)), dy(_mul(u2, w))) for w in (u1, u2, T)]
        self.forcing = {
            "f1": _add(-pr * lap(u1), conv[0], dx(p)),
            "f2": _add(-pr * lap(u2), conv[1], dy(p), -(pr * ra * T)),
            "g_fluid": _add(-kappa * lap(T), conv[2]),
            "g_solid": -kappa * lap(T),
        }
        self.forcing_degree = max(map(_degree, self.forcing.values()))
        self._div = _add(dx(u1), dy(u2))

        self._u1, self._u2, self._p, self._T = map(_horner, (u1, u2, p, T))
        self._du = [[_horner(_diff(w, a)) for a in (0, 1)] for w in (u1, u2)]
        self._dT = [_horner(_diff(T, a)) for a in (0, 1)]
        self._f1, self._f2, self._g_fluid, self._g_solid = map(
            _horner, self.forcing.values())

    def _in_fluid(self, x, y):
        x0, x1, y0, y1 = self.fluid_rect
        return (x >= x0) & (x <= x1) & (y >= y0) & (y <= y1)

    def u(self, x, y):
        return np.stack([self._u1(x, y), self._u2(x, y)], axis=-1)

    def grad_u(self, x, y):
        return np.stack([
            np.stack([self._du[i][d](x, y) for d in range(2)], axis=-1)
            for i in range(2)], axis=-2)

    def p(self, x, y):
        return self._p(x, y)

    def T(self, x, y):
        return self._T(x, y)

    def grad_T(self, x, y):
        return np.stack([self._dT[0](x, y), self._dT[1](x, y)], axis=-1)

    def f(self, x, y):
        return np.stack([self._f1(x, y), self._f2(x, y)], axis=-1)

    def g(self, x, y):
        return np.where(self._in_fluid(np.asarray(x, dtype=float),
                                       np.asarray(y, dtype=float)),
                        self._g_fluid(x, y), self._g_solid(x, y))

    # -- consistency check ----------------------------------------------

    def divergence_residual(self):
        """A bound on |div u| over the fluid rectangle: the sum of
        |c[i, j]| max|x|^i max|y|^j over the coefficients c of div u."""
        x0, x1, y0, y1 = np.abs(self.fluid_rect)
        i, j = np.indices(self._div.shape)
        return float(np.sum(np.abs(self._div) * max(x0, x1) ** i
                            * max(y0, y1) ** j))


def _zero_vector(x, y):
    shape = np.broadcast_shapes(np.shape(x), np.shape(y))
    return np.zeros(shape + (2,))


def _zero_scalar(x, y):
    return np.zeros(np.broadcast_shapes(np.shape(x), np.shape(y)))


class ProblemSpec:
    """One complete problem: physics, geometry, forcing, boundary data.

    temp_bc maps each wall name to ("dirichlet", text) or ("insulated",
    None), the text a polynomial in x and y read as [exact] fields are
    (see _polynomial).  Each wall's text is parsed here, once, so that bad
    data raises before a mesh is built; temp_degree maps each Dirichlet
    wall to the degree of its data.  The forcings f (momentum, (..., 2)
    values) and g (heat) are exact's, and zero without one; forcing_degree
    is likewise exact's (0 without one).  Velocity is zero-Dirichlet on
    the whole fluid boundary; the scheme supports nothing else.
    """

    def __init__(self, pr, ra, kappa, domain, fluid_rect, temp_bc,
                 exact=None):
        if not 0 < pr < np.inf:
            raise ValueError("Pr must be positive and finite, got %r" % (pr,))
        if not 0 < kappa < np.inf:
            raise ValueError("kappa must be positive and finite, got %r"
                             % (kappa,))
        if not 0 <= ra < np.inf:
            raise ValueError("Ra must be nonnegative and finite, got %r"
                             % (ra,))
        missing = [w for w in WALLS if w not in temp_bc]
        if missing:
            raise ValueError("missing temperature condition on wall(s): %s"
                             % ", ".join(missing))
        for wall, (kind, _) in temp_bc.items():
            if kind not in ("dirichlet", "insulated"):
                raise ValueError("unknown condition %r on wall %s"
                                 % (kind, wall))
        self.pr = float(pr)
        self.ra = float(ra)
        self.kappa = float(kappa)
        self.domain = tuple(float(c) for c in domain)
        self.fluid_rect = tuple(float(c) for c in fluid_rect)
        self.temp_bc = dict(temp_bc)
        self.exact = exact
        self.f = _zero_vector if exact is None else exact.f
        self.g = _zero_scalar if exact is None else exact.g
        self.forcing_degree = 0 if exact is None else exact.forcing_degree
        walls = {wall: _polynomial(text, "wall %s temperature" % wall)
                 for wall, (kind, text) in self.temp_bc.items()
                 if kind == "dirichlet"}
        self.temp_degree = {wall: _degree(c) for wall, c in walls.items()}
        self._temp_data = {wall: _horner(c) for wall, c in walls.items()}
        if exact is not None:
            div = exact.divergence_residual()
            if div > 1e-12:
                raise ValueError("exact velocity is not divergence-free "
                                 "(residual %.2e)" % div)

    def with_rayleigh(self, ra):
        """Copy of this problem at a different Rayleigh number, or the
        problem itself at its own.

        Only valid for problems whose forcing does not depend on Ra (zero
        forcing); used by the ramping driver.
        """
        if ra == self.ra:
            return self
        if self.exact is not None:
            raise ValueError("cannot retarget Ra with a manufactured forcing")
        return ProblemSpec(self.pr, ra, self.kappa, self.domain,
                           self.fluid_rect, self.temp_bc)

    def temp_dirichlet_fn(self, wall):
        if self.temp_bc[wall][0] != "dirichlet":
            raise ValueError("wall %s is not Dirichlet" % wall)
        return self._temp_data[wall]


MANUFACTURED_FIELDS = {
    "u1": "-x**2*(x-1)**2*y*(y-1)*(2*y-1)",
    "u2": "y**2*(y-1)**2*x*(x-1)*(2*x-1)",
    "p": "x**6 - y**6",
    "T": "(x-1)*(x+1)*y*(y-1)",
}


def manufactured_convection():
    """Manufactured fluid/solid benchmark on [-1,1]x[0,1] with fluid [0,1]^2.

    The velocity derives from a stream function (hence exactly divergence
    free), vanishes on the fluid boundary, and the temperature vanishes on
    the outer boundary; Pr = kappa = 1, Ra = 10.
    """
    pr, ra, kappa = 1.0, 10.0, 1.0
    fluid = (0.0, 1.0, 0.0, 1.0)
    exact = ExactSolution(MANUFACTURED_FIELDS["u1"], MANUFACTURED_FIELDS["u2"],
                          MANUFACTURED_FIELDS["p"], MANUFACTURED_FIELDS["T"],
                          pr, ra, kappa, fluid)
    temp_bc = {w: ("dirichlet", "0") for w in WALLS}
    return ProblemSpec(pr, ra, kappa, (-1.0, 1.0, 0.0, 1.0), fluid, temp_bc,
                       exact=exact)


def cavity(ra):
    """Buoyancy-driven cavity on the unit square.

    No forcing; velocity zero on all walls; hot wall T = 1 at x = 0, cold
    wall T = 0 at x = 1, horizontal walls insulated; Pr = 0.71, kappa = 1.
    """
    unit = (0.0, 1.0, 0.0, 1.0)
    temp_bc = {
        "left": ("dirichlet", "1"),
        "right": ("dirichlet", "0"),
        "bottom": ("insulated", None),
        "top": ("insulated", None),
    }
    return ProblemSpec(0.71, ra, 1.0, unit, unit, temp_bc)


# ----------------------------------------------------------------------
# config files


def _parse_rect(text):
    parts = [float(t) for t in text.replace(",", " ").split()]
    if len(parts) != 4:
        raise ValueError("rectangle needs four numbers, got %r" % text)
    return tuple(parts)


# the sections and keys load_config reads (configparser lowercases keys)
CONFIG_SCHEMA = {
    "physics": ("pr", "ra", "kappa"),
    "domain": ("rect", "fluid_rect"),
    "bc": WALLS,
    "exact": ("u1", "u2", "p", "t"),
    "method": ("k", "variant"),
    "solver": ("tol", "max_iter", "ramp"),
}


def load_config(path):
    """Read a problem (plus method/solver settings) from an INI file.

    Returns (ProblemSpec, method: dict, solver: dict).  If an [exact]
    section provides u1, u2, p, T the forcing is derived from it; otherwise
    the forcing is zero.  A section or key outside CONFIG_SCHEMA raises
    ValueError, so that a misspelt setting is not silently ignored, and so
    does a [solver] ramp (Rayleigh numbers solved in turn) whose last
    target is not [physics] ra, or that has more than one stage alongside
    an [exact] section, whose forcing holds Ra.
    """
    cp = configparser.ConfigParser()
    with open(path) as fh:
        try:
            cp.read_file(fh)
        except configparser.Error as err:
            raise ValueError("config %s: %s" % (path, err))
    for section in cp.sections():
        if section not in CONFIG_SCHEMA:
            raise ValueError("config %s: unknown section [%s]"
                             % (path, section))
        for key in cp[section]:
            if key not in CONFIG_SCHEMA[section]:
                raise ValueError("config %s: unknown key %r in [%s]"
                                 % (path, key, section))
    required = [("physics", "pr"), ("physics", "ra"), ("domain", "rect")]
    if cp.has_section("exact"):
        required += [("exact", key) for key in ("u1", "u2", "p", "T")]
    for section, key in required:
        if not cp.has_option(section, key):
            raise ValueError("config %s: [%s] needs %r" % (path, section, key))

    phys = cp["physics"]
    pr = phys.getfloat("pr")
    ra = phys.getfloat("ra")
    kappa = phys.getfloat("kappa", 1.0)

    dom = cp["domain"]
    rect = _parse_rect(dom.get("rect"))
    fluid_rect = _parse_rect(dom.get("fluid_rect", dom.get("rect")))

    temp_bc = {}
    bc = cp["bc"] if cp.has_section("bc") else {}
    for wall in WALLS:
        raw = bc.get(wall, "dirichlet 0").strip()
        if raw == "insulated":
            temp_bc[wall] = ("insulated", None)
        elif raw.startswith("dirichlet"):
            expr = raw[len("dirichlet"):].strip() or "0"
            temp_bc[wall] = ("dirichlet", expr)
        else:
            raise ValueError("wall %s: expected 'insulated' or "
                             "'dirichlet <expr>', got %r" % (wall, raw))

    exact = None
    if cp.has_section("exact"):
        ex = cp["exact"]
        exact = ExactSolution(ex["u1"], ex["u2"], ex["p"], ex["T"],
                              pr, ra, kappa, fluid_rect)

    problem = ProblemSpec(pr, ra, kappa, rect, fluid_rect, temp_bc,
                          exact=exact)

    method = {}
    if cp.has_section("method"):
        m = cp["method"]
        if "k" in m:
            method["degree"] = m.getint("k")
        if "variant" in m:
            method["variant"] = m.get("variant")

    solver = {}
    if cp.has_section("solver"):
        s = cp["solver"]
        if "tol" in s:
            solver["tol"] = s.getfloat("tol")
        if "max_iter" in s:
            solver["max_iter"] = s.getint("max_iter")
        if "ramp" in s:
            ramp = [float(t) for t in s.get("ramp").replace(",", " ").split()]
            # the ramp's last stage is the solve, so it must be at ra
            if ramp and ramp[-1] != ra:
                raise ValueError("config %s: [solver] ramp ends at Ra = %g, "
                                 "not at [physics] ra = %g"
                                 % (path, ramp[-1], ra))
            if len(ramp) > 1 and exact is not None:
                raise ValueError("config %s: a [solver] ramp of %d stages "
                                 "cannot be used with an [exact] section, "
                                 "whose forcing is fixed at ra = %g"
                                 % (path, len(ramp), ra))
            solver["ramp"] = ramp
    return problem, method, solver
