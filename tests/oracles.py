"""Reference implementations the package is checked against.

The finite-difference oracles are independent of the dual-number engine:
they differentiate plain float evaluations of the plant with fourth-order
central stencils and use nothing from singarc.duals or singarc.liegeom,
so agreement with the package is a genuine two-route check.  Step sizes
are fixed per derivative depth (tuned once against the arm's magnitudes;
worst observed error ~5e-9 for depth-3 words, well under the 1e-6
tolerance the tests assert).

``audit_labels`` is the per-sample form of ``regularize.pmp_audit``: one
scalar ``singular_u1`` call per sample, the labels decided by branches.
``outside_law_domain`` draws the admissible set's edge with
``math.remainder``, which ``pmp.in_Rk`` replaces by a floating remainder
and two band tests.
``replay_reference`` is ``integrate.resimulate`` with the control read by
a per-stage closure and the RK4 step written out in place, the form the
vectorized control table and the shared step replaced.

``lemma1_certificate``, ``sk_rank``, ``phi_second_derivative`` and
``alpha_beta`` are checks built on the package's bracket columns that no
command runs: Lemma 1's frame property, the S_k frames, and phi_i'' from
the alpha tensor.
"""
import math

import numpy as np

from singarc.arm2dof import _components
from singarc.errors import CostateDegenerate, RkViolation
from singarc.integrate import Trajectory
from singarc.liegeom import _stacked_fields, alpha_coefficients, word_field
from singarc.pmp import (_dot, costate_norm, singular_u1, state_rate,
                         switching)
from singarc.regularize import (LABEL_BANG_IN_BAND, LABEL_LOWER,
                                LABEL_SINGULAR, LABEL_UNCHECKED, LABEL_UPPER,
                                LABEL_VIOLATION, _band_value, switching_series)

H_JACOBIAN = 1e-5
H_DEPTH2 = 1e-4
H_DEPTH3 = 1e-3
H_DEPTH4 = 3e-3


def fd_jacobian(fn, x, h):
    """Fourth-order central-difference Jacobian of fn at x."""
    x = np.asarray(x, dtype=float)
    cols = []
    for i in range(x.size):
        e = np.zeros(x.size)
        e[i] = 1.0
        cols.append((8.0 * (fn(x + h * e) - fn(x - h * e))
                     - (fn(x + 2.0 * h * e) - fn(x - 2.0 * h * e)))
                    / (12.0 * h))
    return np.stack(cols, axis=1)


def fd_bracket(a, b, h):
    """[a, b] as a callable, via finite-difference Jacobians at step h."""
    def br(x):
        return fd_jacobian(b, x, h) @ a(x) - fd_jacobian(a, x, h) @ b(x)
    return br


def plant_fields(sys_):
    """(f, g1, g2) of the plant as plain float-vector callables."""
    def f(x):
        fv, _ = sys_.dyn([float(v) for v in x])
        return np.asarray(fv, dtype=float)

    def make_g(i):
        def g(x):
            _, L = sys_.dyn([float(v) for v in x])
            return np.array([0.0, 0.0, float(L[0][i]), float(L[1][i])])
        return g

    return f, make_g(0), make_g(1)


def fd_word(sys_, word):
    """Right-nested FD bracket for a token word like "ffg2" (length <= 4).

    The innermost bracket uses the tightest step; each additional layer of
    outer differentiation gets a wider one to stay above the noise the
    layer below leaves behind.
    """
    import re

    tokens = re.findall(r"f|g\d+", word)
    assert "".join(tokens) == word and 1 <= len(tokens) <= 4
    f, g1, g2 = plant_fields(sys_)
    base = {"f": f, "g1": g1, "g2": g2}
    steps = {2: H_DEPTH2, 3: H_DEPTH3, 4: H_DEPTH4}
    fld = base[tokens[-1]]
    depth = 1
    for tok in reversed(tokens[:-1]):
        depth += 1
        fld = fd_bracket(base[tok], fld, steps[depth])
    return fld


def fd_adjoint(sys_, x, u, lam):
    """-(d(f+Gu)/dx)^T lam by finite differences."""
    u = np.asarray(u, dtype=float)

    def rhs(y):
        fv, L = sys_.dyn([float(v) for v in y])
        out = np.asarray(fv, dtype=float)
        out[2] += L[0][0] * u[0] + L[0][1] * u[1]
        out[3] += L[1][0] * u[0] + L[1][1] * u[1]
        return out

    J = fd_jacobian(rhs, x, H_JACOBIAN)
    return -J.T @ np.asarray(lam, dtype=float)


def invert_2x2(M):
    """Closed-form inverse, the oracle for input-column checks."""
    (a, b), (c, d) = M
    det = a * d - b * c
    return np.array([[d, -b], [-c, a]]) / det


def rel_err(approx, exact, floor=1.0):
    exact = np.asarray(exact, dtype=float)
    approx = np.asarray(approx, dtype=float)
    return float(np.linalg.norm(approx - exact)
                 / max(np.linalg.norm(exact), floor))


def outside_law_domain(x, band):
    """True where the state x (4 floats) is within band of the law's
    breakdown set: theta2 at a multiple of pi/2, or a zero velocity sum."""
    return (abs(math.remainder(x[1], math.pi / 2.0)) <= band
            or abs(x[2] + x[3]) <= band)


def audit_labels(sys_, traj, bounds, tol):
    """pmp_audit's labels, sample by sample and channel by channel."""
    phi, phi_dot = switching_series(sys_, traj)
    band = _band_value(sys_, traj, tol)
    n_samples, n = phi.shape
    labels = np.full((n_samples, n), LABEL_VIOLATION, dtype="<U18")
    for i in range(n_samples):
        if not traj.lam[i].any():      # an exact zero row
            continue
        for k in range(n):
            u = traj.u[i, k]
            if phi[i, k] > band:
                if abs(u - bounds.upper[k]) <= tol.u_tol:
                    labels[i, k] = LABEL_UPPER
            elif phi[i, k] < -band:
                if abs(u - bounds.lower[k]) <= tol.u_tol:
                    labels[i, k] = LABEL_LOWER
            else:
                if k == 0 and abs(phi_dot[i, k]) <= band:
                    try:
                        want = singular_u1(sys_, traj.x[i], traj.lam[i],
                                           bounds.nearest(1, traj.u[i, 1]))
                    except (RkViolation, CostateDegenerate):
                        want = None
                    if want is not None and abs(u - want) <= tol.law_tol:
                        labels[i, k] = LABEL_SINGULAR
                    elif (phi[i, k] > 0.0
                          and abs(u - bounds.upper[k]) <= tol.u_tol
                          or phi[i, k] < 0.0
                          and abs(u - bounds.lower[k]) <= tol.u_tol):
                        labels[i, k] = LABEL_BANG_IN_BAND
                    elif want is None:
                        labels[i, k] = LABEL_UNCHECKED
                elif abs(u - bounds.upper[k]) <= tol.u_tol:
                    labels[i, k] = LABEL_UPPER
                elif abs(u - bounds.lower[k]) <= tol.u_tol:
                    labels[i, k] = LABEL_LOWER
                elif k != 0 and abs(phi_dot[i, k]) <= band:
                    labels[i, k] = LABEL_UNCHECKED
    return labels


def replay_reference(sys_, x0, control, config):
    """(t, x, u) of resimulate, one control lookup per RK4 stage."""
    if isinstance(control, Trajectory):
        t_knots, u_knots = control.t, control.u
    else:
        t_knots = np.ascontiguousarray(control[0], dtype=float)
        u_knots = np.ascontiguousarray(control[1], dtype=float)
    tmax = float(t_knots[-1])
    last = t_knots.shape[0] - 1

    if config.interp == "zoh":
        def signal(t):
            idx = int(np.searchsorted(t_knots, t, side="right")) - 1
            return u_knots[min(max(idx, 0), last)]
    else:
        def signal(t):
            if t <= t_knots[0]:
                return u_knots[0]
            if t >= tmax:
                return u_knots[last]
            j = int(np.searchsorted(t_knots, t, side="right"))
            t0, t1 = t_knots[j - 1], t_knots[j]
            w = (t - t0) / (t1 - t0)
            return (1.0 - w) * u_knots[j - 1] + w * u_knots[j]

    horizon = config.horizon if config.horizon > 0.0 else tmax
    h = config.step
    nsteps = round(horizon / h)

    def xdot(x, u):
        return state_rate(*sys_.dyn(x), u)

    ts = np.empty(nsteps + 1)
    xs = np.empty((nsteps + 1, 4))
    us = np.empty((nsteps + 1, 2))
    x = [float(v) for v in np.asarray(x0, dtype=float).reshape(-1)]
    for k in range(nsteps + 1):
        t = k * h
        u_here = signal(t)
        ts[k] = t
        xs[k] = x
        us[k] = u_here
        if k == nsteps:
            break
        k1 = xdot(x, u_here)
        u_mid = signal(t + 0.5 * h)
        k2 = xdot([x[i] + 0.5 * h * k1[i] for i in range(4)], u_mid)
        k3 = xdot([x[i] + 0.5 * h * k2[i] for i in range(4)], u_mid)
        u_end = signal(t + h)
        k4 = xdot([x[i] + h * k3[i] for i in range(4)], u_end)
        x = [x[i] + (h / 6.0) * (k1[i] + 2.0 * (k2[i] + k3[i]) + k4[i])
             for i in range(4)]
    return ts, xs, us


def lemma1_certificate(sys, x, lam, tol: float = 1e-12) -> bool:
    """True iff some channel has phi_i or phi_i' away from zero.

    The frame property makes simultaneous vanishing impossible for
    lam != 0, so False flags a degenerate costate.  The band is tol *
    costate_norm(lam): the verdict does not depend on lambda's scale.
    """
    lam = np.asarray(lam, dtype=float)
    rec = switching(sys, x, lam)
    band = tol * costate_norm(lam)
    return bool(np.any(np.abs(rec.phi) > band)
                or np.any(np.abs(rec.phi_dot) > band))


def sk_rank(sys, x, k: int):
    """Smallest singular value of {g_i} + {fg_i, ffg_i : i != k} at x."""
    if not 1 <= k <= sys.n:
        raise ValueError(f"channel k = {k} out of range for n = {sys.n}")
    words = [f"g{i + 1}" for i in range(sys.n)]
    for i in range(sys.n):
        if i + 1 != k:
            words += [f"fg{i + 1}", f"ffg{i + 1}"]
    A = _stacked_fields(sys, words, x)
    s = np.linalg.svd(A, compute_uv=False)
    smin = s[..., -1]
    return float(smin) if smin.ndim == 0 else smin


def alpha_beta(alpha, u) -> np.ndarray:
    """beta[i, k] = sum_j u_j * alpha[i, j, k] for a fixed control u."""
    u = np.asarray(u, dtype=float)
    return np.einsum("j,ijk...->ik...", u, alpha.values)


def phi_second_derivative(sys, x, lam, u) -> np.ndarray:
    """phi_i'' = <lambda, ffg_i> + sum_k beta_ik phi_k for every channel.

    Valid without any singularity assumption; beta folds the controls
    into the alpha tensor.
    """
    n = sys.n
    lam = np.asarray(lam, dtype=float)
    comps = list(_components(x))
    alpha = alpha_coefficients(sys, x)
    beta = alpha_beta(alpha, np.asarray(u, dtype=float))
    rec = switching(sys, x, lam)
    out = np.empty(n)
    for i in range(n):
        ffgi = word_field(sys, f"ffg{i + 1}")(comps)
        out[i] = _dot(lam, ffgi) + float(beta[i] @ rec.phi)
    return out
