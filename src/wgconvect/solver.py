"""Fixed-point iteration for the coupled flow-temperature system.

A Picard step freezes the advecting velocity at the previous iterate,
assembles the linearized step, and solves it; the loop stops when the energy
norms of the velocity and temperature increments fall below the tolerance
relative to the current field scale.

The plain iteration contracts quickly at moderate Rayleigh numbers but
slows down near Ra ~ 1e4 and settles into a cycle near Ra ~ 1e5, where it
never converges: Picard lags the coupling du -> T -> buoyancy, so its
contraction worsens as Ra grows.  A relaxed run (`relaxation="aitken"`;
the name is historical) therefore takes one Picard step at the initial
velocity and then, to the end of the solve, Newton steps about the last
solve output x_k,

    (P(u_k) + J_c) x = b + J_c x_k,

P(u_k) the Picard step at w = u_k and J_c the coupling c(du; u_k, v) +
cbar(du; T_k, s) that Picard leaves out (linsys.JointSystem).  Its solve
factors the whole step as one joint block, held and swept across the
Newton steps like the Picard blocks.  A plain run takes only Picard steps.
"""

import time

import numpy as np

from . import linsys
from . import postproc


class TraceRow:
    """Increment norms of one iteration (seconds is wall time, the one
    field that differs between reruns)."""

    __slots__ = ("iteration", "du", "dt", "dp", "seconds")

    def __init__(self, iteration, du, dt, dp, seconds):
        self.iteration = iteration
        self.du = du
        self.dt = dt
        self.dp = dp
        self.seconds = seconds

    def __repr__(self):
        return ("TraceRow(n=%d, du=%.3e, dt=%.3e, dp=%.3e, %.3fs)"
                % (self.iteration, self.du, self.dt, self.dp, self.seconds))


class OseenState:
    """Outcome of a fixed-point run: final fields plus the full trace."""

    def __init__(self, fields, trace, converged):
        self.fields = fields
        self.trace = trace
        self.converged = converged

    @property
    def iterations(self):
        return len(self.trace)

    @property
    def du_norm(self):
        return self.trace[-1].du if self.trace else 0.0

    @property
    def dt_norm(self):
        return self.trace[-1].dt if self.trace else 0.0

    def __repr__(self):
        word = "converged" if self.converged else "NOT converged"
        return ("OseenState(%s in %d iterations, du=%.3e, dt=%.3e)"
                % (word, self.iterations, self.du_norm, self.dt_norm))


def _coeffs_of(initial_velocity, dofmap):
    if initial_velocity is None:
        return np.zeros(dofmap.n_dofs)
    if isinstance(initial_velocity, postproc.WgFields):
        vec = initial_velocity.coeffs
    else:
        vec = np.asarray(initial_velocity, dtype=float)
    if vec.shape != (dofmap.n_dofs,):
        raise ValueError("initial velocity has length %d, DOF map holds %d"
                         % (vec.size, dofmap.n_dofs))
    # only the velocity part seeds the iteration
    out = np.zeros(dofmap.n_dofs)
    stop = dofmap.offset["p_int"]
    out[:stop] = vec[:stop]
    return out


def oseen_solve(mesh, params, problem, tol=1e-9, max_iter=100,
                initial_velocity=None, relaxation=None):
    """Iterate linearized steps to a fixed point.

    Returns (fields, state); state.converged is False when max_iter ran out
    (the trace is still populated, nothing is raised).  relaxation is None
    for the plain Picard iteration or "aitken" for one Picard step followed
    by Newton steps (see the module docstring); either way the returned
    fields are an exact solve output, so the divergence invariants hold
    whenever the linear solves do.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    if relaxation not in (None, "aitken"):
        raise ValueError("relaxation must be None or 'aitken', got %r"
                         % (relaxation,))
    asm = linsys.StepAssembler(mesh, params, problem)
    dm = asm.dofmap
    prev = _coeffs_of(initial_velocity, dm)

    # each block's factor serves the following steps until it stalls, and
    # each block's solve starts from its previous solution: the
    # temperature and flow blocks' in Picard steps, the joint block's once
    # Newton steps start; the factors, like the norm matrices, live only
    # as long as this call
    held = {}
    norm_mats = {kind: postproc.norm_matrices(mesh, params, kind)
                 for kind in ("velocity", "temperature")}

    def norm(f, kind):
        return postproc.triple_norm(f, kind, matrices=norm_mats[kind])

    trace = []
    fields = None
    converged = False
    newton = False
    for n in range(1, max_iter + 1):
        t0 = time.perf_counter()
        system = asm.linearize(prev) if newton else asm.assemble(prev)
        try:
            x = linsys.solve_sparse(system, held)
        except RuntimeError as err:
            raise RuntimeError("linear solve failed at iteration %d: %s"
                               % (n, err)) from err
        full, lam = system.expand(x)
        del system, x
        fields = postproc.WgFields(mesh, params, dm, full, lam)
        diff = fields.copy_with(full - prev)
        du = norm(diff, "velocity")
        dt = norm(diff, "temperature")
        dp = postproc.pressure_l2(diff)
        trace.append(TraceRow(n, du, dt, dp, time.perf_counter() - t0))
        scale = max(norm(fields, "velocity") + norm(fields, "temperature"),
                    1e-14)
        prev = full
        if relaxation is not None and not newton:
            # the block factors go before the joint one is built
            held.clear()
            newton = True
        if du + dt <= tol * scale:
            converged = True
            break
    state = OseenState(fields, trace, converged)
    return fields, state


def ramp_rayleigh(mesh, params, problem, targets, tol=1e-9, max_iter=100,
                  relaxation=None):
    """Solve a sequence of increasing Rayleigh numbers, warm-starting each
    stage from the previous solution.

    Returns (final fields, list of per-stage OseenState).  A stage that
    fails to converge, or whose linear solve fails, raises naming the
    stage and its Rayleigh number.  relaxation is forwarded to every
    stage; pass "aitken" (Newton steps) for targets at or beyond 1e4,
    where the plain Picard iteration stalls.
    """
    targets = [float(t) for t in targets]
    if not targets:
        raise ValueError("the Rayleigh ramp is empty")
    if any(b <= a for a, b in zip(targets, targets[1:])):
        raise ValueError("ramp targets must be strictly increasing")
    fields = None
    states = []
    for i, ra in enumerate(targets):
        stage = problem.with_rayleigh(ra)
        try:
            fields, state = oseen_solve(
                mesh, params, stage, tol=tol, max_iter=max_iter,
                initial_velocity=fields, relaxation=relaxation)
        except RuntimeError as err:
            raise RuntimeError("ramp stage %d (Ra=%g): %s"
                               % (i, ra, err)) from err
        states.append(state)
        if not state.converged:
            raise RuntimeError(
                "ramp stage %d (Ra=%g) did not converge within %d "
                "iterations (last increments du=%.3e, dt=%.3e)"
                % (i, ra, max_iter, state.du_norm, state.dt_norm))
    return fields, states


def write_trace_csv(trace, path):
    """CSV emitter for a convergence trace."""
    with open(path, "w") as fh:
        fh.write("iteration,velocity_increment,temperature_increment,"
                 "pressure_increment,seconds\n")
        for row in trace:
            fh.write("%d,%.17g,%.17g,%.17g,%.6f\n"
                     % (row.iteration, row.du, row.dt, row.dp, row.seconds))
    return path
