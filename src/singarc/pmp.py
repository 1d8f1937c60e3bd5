"""Pontryagin layer: Hamiltonian, adjoint, switching functions, and the
singular control laws.

Two independent routes produce the first-channel singular control: the
closed-form law built from the costate decomposition on the singular
surface, and the generic linear solve over the alpha coefficients.  They
must agree wherever both are defined; the test suite enforces this, since
published displays of the closed form have had sign and index slips.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arm2dof import ControlBounds, FullyActuatedSystem, _components
from .errors import (CostateDegenerate, DegenerateSystem, RkViolation)
from .liegeom import (AlphaTensor, BracketTableau, _stacked_fields,
                      alpha_coefficients, fused_terms, u1_singular_brackets,
                      word_field)

LAMBDA4_RTOL = 1e-9
DEGENERACY_TOL = 1e-12


@dataclass(frozen=True)
class SwitchingRecord:
    """phi_i = <lambda, g_i> and phi_i' = <lambda, fg_i> per channel."""

    phi: np.ndarray
    phi_dot: np.ndarray
    lambda_norm: float | np.ndarray


@dataclass(frozen=True)
class SingularLawCoeffs:
    """Pieces of the closed-form u1 law at one state.

    g1 = [0; 0; mu; nu] and fg1 = [-mu; -nu; 0; gamma]; a_basis and
    b_basis span the costates annihilating both, and u1 = r*l2/l4 + s for
    lambda = l2*a + l4*b with the second control pinned at c.
    """

    mu: float
    nu: float
    gamma: float
    a_basis: np.ndarray
    b_basis: np.ndarray
    r: float
    s: float
    alpha1: float
    alpha2: float
    b_dot_g2: float
    c: float


@dataclass(frozen=True)
class GeneralSingularSystem:
    """The linear system pinning the singular controls when channel k is
    the bang one: 0 = psi_k + b_kk*c_k*phi_k + (A_k ubar)*phi_k."""

    psi_k: np.ndarray
    b_kk: np.ndarray
    A_k: np.ndarray
    delta_k: float
    c_k: float
    k: int
    phi_k: float


def _dot(lam, vec) -> float:
    total = lam[0] * vec[0]
    for i in range(1, len(vec)):
        total = total + lam[i] * vec[i]
    return total


def state_rate(f, L, u):
    """xdot = f + G u from dyn's (f, L); floats or batched arrays."""
    return (f[0], f[1],
            f[2] + L[0][0] * u[0] + L[0][1] * u[1],
            f[3] + L[1][0] * u[0] + L[1][1] * u[1])


def costate_rate(df_cols, dL, u, lam):
    """lambda' = -(d(f + G u)/dx)^T lambda from first-order Jacobian data.

    df_cols[i] = Df . e_i and dL[r][c][i] = d L_rc / d x_i, as in
    BracketTableau; the integrator's association order.
    """
    return tuple(
        -(col[0] * lam[0] + col[1] * lam[1] + col[2] * lam[2] + col[3] * lam[3]
          + (dL[0][0][i] * u[0] + dL[0][1][i] * u[1]) * lam[2]
          + (dL[1][0][i] * u[0] + dL[1][1][i] * u[1]) * lam[3])
        for i, col in enumerate(df_cols))


def hamiltonian(sys: FullyActuatedSystem, x, u, lam):
    """<lambda, f + G u> - 1; constant along autonomous extremals.

    Batched x (4, N), u (2, N) and lam (4, N) give one value per sample.
    """
    xdot = state_rate(*sys.dyn(_components(x)), _components(u))
    return _dot(_components(lam), xdot) - 1.0


def adjoint_rhs(sys: FullyActuatedSystem, x, u, lam) -> np.ndarray:
    """-(d(f + Gu)/dx)^T lambda: the integrator's costate equation, on the
    Jacobian data of the bracket tableau."""
    tab = u1_singular_brackets(sys, x)
    return np.asarray(costate_rate(tab.df_cols, tab.dL, _components(u),
                                   _components(lam)))


def switching(sys: FullyActuatedSystem, x, lam) -> SwitchingRecord:
    """Evaluate phi and phi' on every channel; batched x/lam supported."""
    n = sys.n
    comps = list(_components(x))
    lc = list(_components(lam))
    _, L = sys.dyn(comps)
    phi = []
    phi_dot = []
    for i in range(n):
        gi = [L[r][i] for r in range(n)]
        phi.append(_dot(lc[n:], gi))
        fgi = word_field(sys, f"fg{i + 1}")(comps)
        phi_dot.append(_dot(lc, fgi))
    norm = np.sqrt(sum(np.asarray(c, dtype=float) ** 2 for c in lc))
    return SwitchingRecord(phi=np.asarray(phi), phi_dot=np.asarray(phi_dot),
                           lambda_norm=norm)


def bang_control(switch: SwitchingRecord, bounds: ControlBounds,
                 tol: float = 1e-6):
    """Sign rule u_i = upper if phi_i > 0, lower if phi_i < 0.

    Channels with |phi_i| inside tol*max(1, ||lambda||) are tagged
    'singular-undetermined' and get nan: the maximum principle does not
    select a value there, and silently picking one would hide exactly the
    situation this package exists to handle.
    """
    band = tol * max(1.0, float(switch.lambda_norm))
    values = np.empty(bounds.n)
    tags = []
    for i in range(bounds.n):
        p = float(switch.phi[i])
        if abs(p) <= band:
            values[i] = math.nan
            tags.append("singular-undetermined")
        elif p > 0:
            values[i] = bounds.upper[i]
            tags.append("upper")
        else:
            values[i] = bounds.lower[i]
            tags.append("lower")
    return values, tuple(tags)


def lemma1_certificate(sys: FullyActuatedSystem, x, lam,
                       tol: float = 1e-12) -> bool:
    """True iff some channel has phi_i or phi_i' away from zero.

    The frame property makes simultaneous vanishing impossible for
    lam != 0, so False flags a degenerate costate.
    """
    lam = np.asarray(lam, dtype=float)
    if not np.any(lam):
        return False
    rec = switching(sys, x, lam)
    band = tol * max(1.0, float(rec.lambda_norm))
    return bool(np.any(np.abs(rec.phi) > band)
                or np.any(np.abs(rec.phi_dot) > band))


def in_Rk(x, exclusion: float = 1e-3):
    """Admissible-set membership for the arm's singular law.

    Excludes theta2 within `exclusion` of any multiple of pi/2 and
    |thetadot1 + thetadot2| below `exclusion`; batched input gives a
    boolean array.
    """
    comps = list(_components(x))
    theta2 = np.asarray(comps[1], dtype=float)
    vsum = np.asarray(comps[2], dtype=float) + np.asarray(comps[3],
                                                          dtype=float)
    quarter = math.pi / 2.0
    # |math.remainder(theta2, quarter)| exactly, as the integrator's guard
    # computes it: fmod is exact, and quarter - dist is exact (Sterbenz)
    # wherever dist >= quarter/2, the only place the minimum picks it
    dist = np.abs(np.fmod(theta2, quarter))
    dist = np.minimum(dist, quarter - dist)
    ok = (dist > exclusion) & (np.abs(vsum) > exclusion)
    return bool(ok) if ok.ndim == 0 else ok


def sk_rank(sys: FullyActuatedSystem, x, k: int):
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


def costate_on_surface(sys: FullyActuatedSystem, x, lambda2: float,
                       lambda4: float) -> np.ndarray:
    """Costate with phi_1 = phi_1' = 0 at x and the given free components.

    Published initial costates for singular extremals round (or assume a
    model variant), landing near but not on the singular surface; this
    rebuilds them exactly on it, preserving the second and fourth entries
    that parameterize the law.
    """
    coeffs = singular_law_coeffs(sys, x, c=0.0)
    lam = lambda2 * coeffs.a_basis + lambda4 * coeffs.b_basis
    return lam


def _law_terms(tab: BracketTableau, c: float):
    """r, s and intermediates from a bracket tableau; no admissibility
    checks here (hot path); raises ZeroDivisionError only on exact zeros."""
    L = tab.L
    mu = L[0][0]
    nu = L[1][0]
    gamma = tab.fg1[3]
    ratio = nu / mu
    ffg1 = tab.ffg1
    a_ff = -ratio * ffg1[0] + ffg1[1]
    b_ff = (gamma / mu) * ffg1[0] - ratio * ffg1[2] + ffg1[3]
    b_g2 = -ratio * L[0][1] + L[1][1]
    det_l = L[0][0] * L[1][1] - L[0][1] * L[1][0]
    alpha1 = (L[0][0] * tab.g1fg1[3] - L[1][0] * tab.g1fg1[2]) / det_l
    alpha2 = (L[0][0] * tab.g1fg2[3] - L[1][0] * tab.g1fg2[2]) / det_l
    den = alpha1 * b_g2
    r = -a_ff / den
    s = -b_ff / den - (alpha2 / alpha1) * c
    return mu, nu, gamma, r, s, alpha1, alpha2, b_g2


def singular_law_coeffs(sys: FullyActuatedSystem, x, c: float,
                        exclusion: float = 1e-3) -> SingularLawCoeffs:
    """Closed-form law coefficients at x with the second control at c.

    Raises RkViolation outside the admissible set (band `exclusion`) or
    when any denominator (mu, alpha1, <b, g2>) degenerates numerically.
    Plain-float states take the compiled kernel, which returns the same
    terms as the Dual path, so the regularizer's u1 equals the
    integrator's bit for bit.
    """
    if not in_Rk(x, exclusion):
        raise RkViolation(f"state {np.asarray(x)} outside the admissible "
                          "set for the singular law")
    comps = list(_components(x))
    out = fused_terms(sys, comps, c)
    if out is None:
        tab = u1_singular_brackets(sys, comps)
    mu = tab.L[0][0] if out is None else out[-1][0]
    if abs(mu) <= DEGENERACY_TOL:
        raise RkViolation("mu = 0: costate decomposition undefined")
    law = _law_terms(tab, c) if out is None else out[-1]
    mu, nu, gamma, r, s, alpha1, alpha2, b_g2 = law
    if abs(alpha1) <= DEGENERACY_TOL:
        raise RkViolation("alpha1 = 0: singular law undefined")
    if abs(b_g2) <= DEGENERACY_TOL:
        raise RkViolation("<b, g2> = 0: law denominator vanished")
    ratio = nu / mu
    a_basis = np.array([-ratio, 1.0, 0.0, 0.0])
    b_basis = np.array([gamma / mu, 0.0, -ratio, 1.0])
    return SingularLawCoeffs(mu=mu, nu=nu, gamma=gamma, a_basis=a_basis,
                             b_basis=b_basis, r=r, s=s, alpha1=alpha1,
                             alpha2=alpha2, b_dot_g2=b_g2, c=c)


def singular_u1(sys: FullyActuatedSystem, x, lam, c: float,
                exclusion: float = 1e-3) -> float:
    """u1 = r(x) * lambda2/lambda4 + s(x) on a u1-singular arc."""
    lam = np.asarray(lam, dtype=float)
    if abs(lam[3]) <= LAMBDA4_RTOL * max(1.0, float(np.linalg.norm(lam))):
        raise CostateDegenerate("lambda4 too small for the singular law")
    coeffs = singular_law_coeffs(sys, x, c, exclusion)
    return coeffs.r * (lam[1] / lam[3]) + coeffs.s


def general_singular_system(sys: FullyActuatedSystem, x, lam, k: int,
                            c_k: float) -> GeneralSingularSystem:
    """Assemble the order-two singularity system for bang channel k.

    Built from the alpha tensor and iterated-bracket evaluations only;
    shares no code with the closed-form route above.
    """
    n = sys.n
    if not 1 <= k <= n:
        raise ValueError(f"channel k = {k} out of range for n = {n}")
    lam = np.asarray(lam, dtype=float)
    comps = list(_components(x))
    alpha = alpha_coefficients(sys, x)
    others = [i for i in range(n) if i != k - 1]
    psi = np.array([_dot(lam, word_field(sys, f"ffg{i + 1}")(comps))
                    for i in others])
    b_kk = np.array([alpha.values[i, k - 1, k - 1] for i in others])
    A_k = np.array([[alpha.values[i, j, k - 1] for j in others]
                    for i in others])
    _, L = sys.dyn(comps)
    gk = [L[r][k - 1] for r in range(n)]
    phi_k = float(_dot(lam[n:], gk))
    return GeneralSingularSystem(psi_k=psi, b_kk=b_kk, A_k=A_k,
                                 delta_k=float(np.linalg.det(A_k)),
                                 c_k=c_k, k=k, phi_k=phi_k)


def general_singular_solve(sys: FullyActuatedSystem, x, lam, k: int,
                           c_k: float) -> np.ndarray:
    """The unique ubar with every phi_i'' = 0 (i != k), when it exists."""
    system = general_singular_system(sys, x, lam, k, c_k)
    lam = np.asarray(lam, dtype=float)
    if abs(system.delta_k) <= DEGENERACY_TOL:
        raise DegenerateSystem(
            f"delta_{k} = {system.delta_k:.3e}: no unique singular control")
    if abs(system.phi_k) <= DEGENERACY_TOL * max(1.0, float(np.linalg.norm(lam))):
        raise DegenerateSystem(
            f"phi_{k} = {system.phi_k:.3e}: bang channel not separated")
    rhs = -(system.psi_k + c_k * system.b_kk * system.phi_k)
    return np.linalg.solve(system.A_k * system.phi_k, rhs)


def phi_second_derivative(sys: FullyActuatedSystem, x, lam, u) -> np.ndarray:
    """phi_i'' = <lambda, ffg_i> + sum_k beta_ik phi_k for every channel.

    Valid without any singularity assumption; beta folds the controls
    into the alpha tensor.
    """
    n = sys.n
    lam = np.asarray(lam, dtype=float)
    comps = list(_components(x))
    alpha = alpha_coefficients(sys, x)
    beta = alpha.beta(np.asarray(u, dtype=float))
    rec = switching(sys, x, lam)
    out = np.empty(n)
    for i in range(n):
        ffgi = word_field(sys, f"ffg{i + 1}")(comps)
        out[i] = _dot(lam, ffgi) + float(beta[i] @ rec.phi)
    return out
