"""Frozen reference values and trajectory builders shared across tests.

The endpoint, costate and Hamiltonian fixtures were pinned from the first
verified run of the reference extremal (step 1e-4, horizon 0.7, u2 = -10)
and act as regressions: the integrator is deterministic, so drift here
means the model or the law changed.
"""
import math

import numpy as np

from singarc.arm2dof import _components
from singarc.integrate import Trajectory, _rk4_step
from singarc.liegeom import dyn_jacobian
from singarc.pmp import costate_rate, state_rate

# start of the reference singular extremal
X0 = np.array([math.pi / 20.0, math.pi / 20.0, 0.3, 0.5])
LAMBDA2 = -3.0
LAMBDA4 = -6.0
U2_BANG = -10.0
HORIZON = 0.7
STEP = 1e-4

# lifted initial costate (phi1 = phi1' = 0 at X0, second/fourth entries free)
LAM0 = np.array([-5.853951779322098, -3.0, -10.23295003112202, -6.0])

# endpoint fixtures, first verified run
X_END = np.array([0.4830725161393735, 0.0698789327652737,
                  0.5672600757433793, -0.6402435714845912])
LAM_END = np.array([-5.853951779322098, -3.3634983537376533,
                    -6.517675578841317, -3.8058475544964305])
H_CONST = 1.518439188433181
U1_START = 19.66754463280864
LAW_R_AT_X0 = -22.422893478493258
LAW_S_AT_X0 = 30.878991372055268

# sampling box used by the certificate sweeps
BOX_LOW = np.array([-math.pi, -math.pi, -2.0, -2.0])
BOX_HIGH = np.array([math.pi, math.pi, 2.0, 2.0])


def sample_states(rng, count):
    return rng.uniform(BOX_LOW, BOX_HIGH, size=(count, 4))


def adjoint_rhs(sys_, x, u, lam) -> np.ndarray:
    """-(d(f + Gu)/dx)^T lambda: the integrator's costate equation, on the
    tableau's first-order Jacobian data (``liegeom.dyn_jacobian``)."""
    df_cols, dL = dyn_jacobian(sys_, list(_components(x)))
    return np.asarray(costate_rate(df_cols, dL, _components(u),
                                   _components(lam)))


def bang_run(sys_, x_start, lam_start, u, step, nsteps, forward=True):
    """RK4 on the coupled (x, lambda) system under a constant control.

    forward=False integrates in reversed time (samples still returned in
    the order produced, i.e. from the start point outward).
    """
    h = step if forward else -step
    u = [float(v) for v in u]

    def rate(y, stage):
        x, lam = y[:4], y[4:]
        return (state_rate(*sys_.dyn(x), u)
                + tuple(adjoint_rhs(sys_, x, u, lam)))

    ys = np.empty((nsteps + 1, 8))  # x, then lambda
    y = [float(v) for v in x_start] + [float(v) for v in lam_start]
    for k in range(nsteps + 1):
        ys[k] = y
        if k == nsteps:
            break
        y = _rk4_step(rate, y, h, rate(y, 0))
    return ys[:, :4], ys[:, 4:]


def graft_saturated_flanks(sys_, core, start_idx, stop_idx, n_flank,
                           u1_flank=20.0):
    """Splice constant-bang flanks onto an interior slice of an extremal.

    Integrates (x, lambda) under u = (u1_flank, u2) backward from the left
    junction and forward from the right one, then re-bases time at zero.
    Returns (trajectory, core_start, core_stop) with the core sample range
    in the new indexing.
    """
    step = float(core.t[1] - core.t[0])
    u2 = float(core.u[start_idx, 1])
    u_flank = (u1_flank, u2)
    xs_pre, ls_pre = bang_run(sys_, core.x[start_idx], core.lam[start_idx],
                              u_flank, step, n_flank, forward=False)
    xs_post, ls_post = bang_run(sys_, core.x[stop_idx], core.lam[stop_idx],
                                u_flank, step, n_flank, forward=True)
    xs = np.vstack([xs_pre[:0:-1], core.x[start_idx:stop_idx + 1],
                    xs_post[1:]])
    ls = np.vstack([ls_pre[:0:-1], core.lam[start_idx:stop_idx + 1],
                    ls_post[1:]])
    us = np.vstack([np.tile(u_flank, (n_flank, 1)),
                    core.u[start_idx:stop_idx + 1],
                    np.tile(u_flank, (n_flank, 1))])
    ts = np.arange(xs.shape[0]) * step
    traj = Trajectory(t=ts, x=xs, u=us, lam=ls,
                      meta={"source": "ingested", "flags": []})
    return traj, n_flank, n_flank + (stop_idx - start_idx)


def with_spiked_u1(traj, rng, fraction=0.01, magnitude=5.0):
    """Copy of traj with +-magnitude added to u1 on a random sample subset."""
    n = len(traj)
    count = max(1, int(round(n * fraction)))
    rows = np.sort(rng.choice(n, size=count, replace=False))
    signs = rng.choice([-magnitude, magnitude], size=count)
    u = np.array(traj.u)
    u[rows, 0] += signs
    out = Trajectory(t=traj.t, x=traj.x, u=u, lam=traj.lam,
                     meta={"source": "ingested", "flags": []})
    return out, rows
