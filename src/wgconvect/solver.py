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

Far from the solution, full Newton steps from rest run away at Ra ~ 1e6,
so a Newton step is damped by Armijo backtracking (Dennis & Schnabel 1983,
ch. 6): with x_N the solve output about x_k, the iterate is

    x = x_k + lam (x_N - x_k),

the multiplier interpolated alike, for the first lam of 1, 1/2, ...,
MIN_STEP with ||F(x)|| <= (1 - SUFFICIENT_DECREASE lam) ||F(x_k)||, or
MIN_STEP if none passes.  F(x) is the nonlinear residual: the Picard step
assembled at x, applied to x, less its right-hand side.  A damped iterate
keeps the velocity exactly divergence free: x_k and x_N are both solve
outputs, the divergence constraint b(u, q) = 0 is linear and homogeneous
and both carry the same Dirichlet data, so every convex combination meets
both.  Only a full step ends the solve, and one whose increments meet the
tolerance is taken without the test, since ||F|| is then at its rounding
floor.  Where every step is full, the iterates are the solve outputs
themselves.  Damped Newton steps only decrease ||F||; neither they nor
the Picard steps are claimed to be the paper's convergent iteration.
"""

import collections
import time

import numpy as np

from . import linsys
from . import postproc


# the increment norms of one iteration; seconds is wall time, the one field
# that differs between reruns
TraceRow = collections.namedtuple("TraceRow", "iteration du dt dp seconds")


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


# Armijo backtracking of a Newton step: the first step length of 1, 1/2,
# ..., MIN_STEP that cuts ||F|| by a SUFFICIENT_DECREASE * step share
SUFFICIENT_DECREASE = 1e-4
MIN_STEP = 1.0 / 64


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


def _damped(residual, start, newton, f_start):
    """Armijo backtracking from start to the Newton solve output newton,
    both (coefficients, multiplier) pairs: the first step length of 1,
    1/2, ..., MIN_STEP whose point x = start + step (newton - start) has
    ||F(x)|| = residual(*x) at most (1 - SUFFICIENT_DECREASE * step) *
    f_start, or MIN_STEP if none has.  Returns (x, step, ||F(x)||); a full
    step returns newton itself."""
    step, x = 1.0, newton
    while True:
        f = residual(*x)
        if f <= (1.0 - SUFFICIENT_DECREASE * step) * f_start \
                or step <= MIN_STEP:
            return x, step, f
        step /= 2
        x = tuple(a + step * (b - a) for a, b in zip(start, newton))


def oseen_solve(mesh, params, problem, tol=1e-9, max_iter=100,
                initial_velocity=None, relaxation=None):
    """Iterate linearized steps to a fixed point.

    Returns (fields, state); state.converged is False when max_iter ran out
    (the trace is still populated, nothing is raised).  relaxation is None
    for the plain Picard iteration or "aitken" for one Picard step followed
    by damped Newton steps (see the module docstring).  The returned fields
    are a solve output, or a convex combination of two, so the divergence
    invariants hold whenever the linear solves do.  A Newton step that is
    not yet converged costs one assembly and one application of the step
    per step length tried, for ||F||.
    """
    if not 0 < tol < np.inf:
        raise ValueError("tol must be positive and finite, got %r" % (tol,))
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
    # both norms take the one diffusion form, built once: the velocity
    # norm's blocks are the fluid rows of the temperature norm's
    blocks = postproc.norm_matrices(mesh, params, "temperature")
    norm_mats = {"temperature": blocks, "velocity": blocks[mesh.fluid_elems]}

    def norm(f, kind):
        return postproc.triple_norm(f, kind, matrices=norm_mats[kind])

    def increments(full, lam):
        # the fields (full, lam), their increment from prev and its norms
        fields = postproc.WgFields(dm, full, lam)
        diff = fields.copy_with(full - prev)
        return fields, diff, norm(diff, "velocity"), norm(diff, "temperature")

    def residual(full, lam):
        # ||F(x)||: the step assembled at x, applied to x, less its rhs
        step = asm.assemble(full)
        x = np.append(full[dm.free_dofs], lam)
        return np.linalg.norm(step.rows(x) - step.rhs)

    trace = []
    newton = False
    f_prev = None       # ||F(prev)||, once Newton steps start
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
        fields, diff, du, dt = increments(full, lam)
        scale = max(norm(fields, "velocity") + norm(fields, "temperature"),
                    1e-14)
        # a step that meets the tolerance ends the solve undamped: there
        # ||F|| sits at its rounding floor, and the test would compare noise
        converged = du + dt <= tol * scale
        if newton and not converged:
            if f_prev is None:
                f_prev = residual(prev, prev_lam)
            (full, lam), step, f_prev = _damped(residual, (prev, prev_lam),
                                                (full, lam), f_prev)
            if step < 1.0:
                fields, diff, du, dt = increments(full, lam)
        dp = postproc.pressure_l2(diff)
        trace.append(TraceRow(n, du, dt, dp, time.perf_counter() - t0))
        prev, prev_lam = full, lam
        if relaxation is not None and not newton:
            # the block factors go before the joint one is built
            held.clear()
            newton = True
        if converged:
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
    stage; pass "aitken" (damped Newton steps) for targets beyond 1e3,
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
