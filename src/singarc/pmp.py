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

from .arm2dof import FullyActuatedSystem, _components
from .duals import chunks
from .errors import (CostateDegenerate, DegenerateSystem, RkViolation)
from .liegeom import (AlphaTensor, BracketTableau, _alpha_solve,
                      _dual_tableau, _frame_words, _stacked_fields,
                      _word_columns, alpha_coefficients, batched_law_kernel,
                      fused_terms, u1_singular_brackets, word_field)

LAMBDA4_RTOL = 1e-9
DEGENERACY_TOL = 1e-12
LAW_CHUNK = 1024      # samples per batched kernel call

# per-sample outcome of the singular law: "ok", or the guard that tripped
LAW_REASONS = ("ok", "domain", "lambda4", "mu", "alpha1", "b_g2")
_LAW_ERRORS = {
    "lambda4": (CostateDegenerate, "lambda4 too small for the singular law"),
    "domain": (RkViolation, "state {} outside the admissible set for the "
                            "singular law"),
    "mu": (RkViolation, "mu = 0: costate decomposition undefined"),
    "alpha1": (RkViolation, "alpha1 = 0: singular law undefined"),
    "b_g2": (RkViolation, "<b, g2> = 0: law denominator vanished"),
}


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
    """Evaluate phi and phi' on every channel; batched x/lam supported.

    g_i and fg_i are frame_rank's columns, from word_kernel.
    """
    n = sys.n
    lc = list(_components(lam))
    cols = _word_columns(sys, _frame_words(n), x)
    phi = [_dot(lc[n:], cols[i][n:]) for i in range(n)]
    phi_dot = [_dot(lc, cols[n + i]) for i in range(n)]
    norm = np.sqrt(_dot(lc, lc))
    return SwitchingRecord(phi=np.asarray(phi), phi_dot=np.asarray(phi_dot),
                           lambda_norm=norm)


def sign_rule(phi, lower, upper, band=0.0):
    """The bound the maximum principle selects: upper where phi > band,
    lower where phi < -band, and nan where |phi| <= band, since the sign
    of phi picks no value there.  Floats or arrays, elementwise."""
    out = np.where(phi > band, upper, np.where(phi < -band, lower, np.nan))
    return float(out) if out.ndim == 0 else out


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
    |thetadot1 + thetadot2| up to `exclusion`.  x is 4 floats, or 4
    arrays (columns of a (4, N) block) for one boolean per sample.
    """
    quarter = math.pi / 2.0
    x = _components(x)
    # |math.remainder(theta2, quarter)| is min(dist, quarter - dist)
    # exactly (% of positive floats is exact, and so, by Sterbenz, is
    # quarter - dist where it is the minimum); the minimum clears the band
    # iff both do.  Python operators keep floats floats, arrays arrays
    dist = abs(x[1]) % quarter
    return ((dist > exclusion) & (quarter - dist > exclusion)
            & (abs(x[2] + x[3]) > exclusion))


def lambda4_degenerate(lam):
    """The law's costate guard: |lambda4| <= LAMBDA4_RTOL * max(1, ||lambda||).

    Floats or (4, N) columns.  The norm is a sum of products, not ** 2,
    so a huge finite entry overflows to inf and trips the guard.
    """
    norm = np.sqrt(lam[0] * lam[0] + lam[1] * lam[1] + lam[2] * lam[2]
                   + lam[3] * lam[3])
    return abs(lam[3]) <= LAMBDA4_RTOL * np.fmax(1.0, norm)


def costate_ratio(lam):
    """lambda2/lambda4, the law's only costate dependence, with nan
    wherever lambda4_degenerate trips; floats or (4, N) columns."""
    bad = lambda4_degenerate(lam)
    out = np.where(bad, np.nan, lam[1] / np.where(bad, 1.0, lam[3]))
    return float(out) if out.ndim == 0 else out


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


def _law_guards(x, lam, exclusion, mu, law):
    """The singular law's guards in the order they apply, as (reason,
    tripped) pairs: floats give one flag, (4, N) columns one per sample.

    mu() and law() give the tableau's mu and the _law_terms tuple; each is
    called only once every earlier guard has been yielded, so a scalar
    caller that stops at the first trip evaluates nothing a guard rules
    out.  lam None skips the costate guard.
    """
    if lam is not None:
        yield "lambda4", lambda4_degenerate(lam)
    yield "domain", np.logical_not(in_Rk(x, exclusion))
    yield "mu", abs(mu()) <= DEGENERACY_TOL
    terms = law()
    yield "alpha1", abs(terms[5]) <= DEGENERACY_TOL
    yield "b_g2", abs(terms[7]) <= DEGENERACY_TOL


def _law_at(sys: FullyActuatedSystem, x, lam, c: float, exclusion: float):
    """(reason, law terms) at one state: the first guard that trips and
    None, or "ok" and the _law_terms tuple.

    Plain floats take the compiled kernel; off its branch, or for other
    scalars, the reference, which raises what it always raised (mu is
    guarded before its law divides by it).
    """
    comps = list(_components(x))
    out = tab = None

    def mu():
        nonlocal out, tab
        out = fused_terms(sys, comps, c)
        if out is not None:
            return out[-1][0]
        tab = _dual_tableau(sys, comps)
        return tab.L[0][0]

    def law():
        return out[-1] if out is not None else _law_terms(tab, c)

    for reason, tripped in _law_guards(comps, lam, exclusion, mu, law):
        if tripped:
            return reason, None
    return "ok", law()


def law_u1(law, lam):
    """u1 = r * lambda2/lambda4 + s from the _law_terms tuple; floats or
    arrays, in the one association order every caller shares."""
    return law[3] * (lam[1] / lam[3]) + law[4]


def _law_error(reason: str, x) -> Exception:
    cls, message = _LAW_ERRORS[reason]
    return cls(message.format(np.asarray(x)))


def singular_law_coeffs(sys: FullyActuatedSystem, x, c: float,
                        exclusion: float = 1e-3) -> SingularLawCoeffs:
    """Closed-form law coefficients at x with the second control at c.

    Raises RkViolation outside the admissible set (band `exclusion`) or
    when any denominator (mu, alpha1, <b, g2>) degenerates numerically.
    Plain-float states take the compiled kernel, which returns the same
    terms as the Dual path, so the regularizer's u1 equals the
    integrator's bit for bit.
    """
    reason, law = _law_at(sys, x, None, c, exclusion)
    if law is None:
        raise _law_error(reason, x)
    mu, nu, gamma, r, s, alpha1, alpha2, b_g2 = law
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
    reason, law = _law_at(sys, x, lam, c, exclusion)
    if law is None:
        raise _law_error(reason, x)
    return law_u1(law, lam)


def singular_u1_batch(sys: FullyActuatedSystem, X, Lam, c,
                      exclusion: float = 1e-3):
    """singular_u1 at every column of X and Lam (4, N), without raising.

    c is one float or one per sample.  Returns (u1, reason): reason holds
    the LAW_REASONS name of the guard singular_u1 would raise for, or
    "ok"; u1 is nan where it is not "ok".  The batched kernel runs over
    chunks of LAW_CHUNK samples and gives singular_u1's numbers bit for
    bit.  Samples it masks, where the float kernel would stop, are re-run
    through singular_u1's own path, so they get, or raise, exactly what
    singular_u1 does.
    """
    X = np.asarray(X, dtype=float)
    Lam = np.asarray(Lam, dtype=float)
    n = X.shape[1]
    cs = np.broadcast_to(np.asarray(c, dtype=float), (n,))
    u1 = np.empty(n)
    code = np.zeros(n, dtype=np.int8)
    redo = np.zeros(n, dtype=bool)
    for part, terms, bad in chunks(batched_law_kernel(sys), [*X, cs],
                                   LAW_CHUNK):
        x, lam, first = X[:, part], Lam[:, part], code[part]

        def at_kernel():
            # the samples the scalar path runs the kernel for, and where
            # it stops there
            redo[part] = bad & (first == 0)
            return terms[0]

        for reason, tripped in _law_guards(x, lam, exclusion, at_kernel,
                                           lambda: terms):
            first[(first == 0) & tripped] = LAW_REASONS.index(reason)
        u1[part] = law_u1(terms, lam)
    for i in np.flatnonzero(redo):
        reason, law = _law_at(sys, X[:, i], Lam[:, i], float(cs[i]),
                              exclusion)
        code[i] = LAW_REASONS.index(reason)
        if law is not None:
            u1[i] = law_u1(law, Lam[:, i])
    u1[code != 0] = np.nan
    return u1, np.asarray(LAW_REASONS)[code]


def general_singular_system(sys: FullyActuatedSystem, x, lam, k: int,
                            c_k: float) -> GeneralSingularSystem:
    """Assemble the order-two singularity system for bang channel k.

    Built from the alpha tensor and iterated-bracket evaluations only, on
    word_field: it shares no code with the closed-form route above and
    runs no compiled kernel, so a code-generation fault cannot hit both.
    """
    n = sys.n
    if not 1 <= k <= n:
        raise ValueError(f"channel k = {k} out of range for n = {n}")
    lam = np.asarray(lam, dtype=float)
    comps = list(_components(x))
    _, L = sys.dyn(comps)
    alpha = _alpha_solve(L, [word_field(sys, f"g{i + 1}fg{j + 1}")(comps)
                             for i in range(n) for j in range(i, n)])
    others = [i for i in range(n) if i != k - 1]
    psi = np.array([_dot(lam, word_field(sys, f"ffg{i + 1}")(comps))
                    for i in others])
    b_kk = np.array([alpha.values[i, k - 1, k - 1] for i in others])
    A_k = np.array([[alpha.values[i, j, k - 1] for j in others]
                    for i in others])
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
