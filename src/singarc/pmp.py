"""Pontryagin layer: Hamiltonian, adjoint, switching functions, and the
singular control laws.

Two independent routes produce the first-channel singular control: the
closed-form law built from the costate decomposition on the singular
surface, and the generic solve over the alpha coefficients.  They
must agree wherever both are defined; the test suite enforces this, since
published displays of the closed form have had sign and index slips.

The closed form is one recording, ``_law_terms`` of the reference tableau
``liegeom.u1_singular_brackets``; ``law_kernel`` compiles it as a float
kernel (``singular_u1``) and a batched one (``singular_u1_batch``).  Where
the float kernel stops, the reference runs and raises what it raised.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arm2dof import Arm2DOF, _components
from .duals import STOPS, chunks, compiled
from .errors import (CostateDegenerate, DegenerateSystem, RkViolation)
from .liegeom import (BracketTableau, _alpha_solve, _frame_words,
                      _word_columns, u1_singular_brackets, word_field)

LAMBDA4_RTOL = 1e-9
# R_k's one band: the default of in_Rk and of every law entry point, so the
# integrator's guard, the law's domain guard and diagnose's in_rk column
# give one verdict per state.  It guards the law's actual division; how far
# a state sits from the wall is a margin to report, not a second band.
LAW_EXCLUSION = 1e-6
_EXACT_SUM = 2.0 ** -900    # square sums this large lose nothing to underflow
_SMALLEST_NORMAL = 2.0 ** -1022
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
    """phi_i = <lambda, g_i> and phi_i' = <lambda, fg_i> per channel.  Both
    scale with lambda: judge them against costate_norm(lambda)."""

    phi: np.ndarray
    phi_dot: np.ndarray


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
    """The equation pinning the other channel j's singular control when
    channel k is the bang one: 0 = psi_k + b_kk*c_k*phi_k + A_k*ubar*phi_k,
    psi_k = <lambda, ffg_j>, b_kk = alpha[j, k, k], A_k = alpha[j, j, k],
    phi_k = <lambda, g_k>; a float each at one state, (N,) on columns."""

    psi_k: float | np.ndarray
    b_kk: float | np.ndarray
    A_k: float | np.ndarray
    c_k: float
    k: int
    phi_k: float | np.ndarray


def _dot(lam, vec):
    """sum_i lam[i] * vec[i], left to right; floats or arrays.  What
    overflows gives inf or nan, on arrays as on floats, and no numpy
    warning: every caller judges a non-finite value itself."""
    with np.errstate(over="ignore", invalid="ignore"):
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


def hamiltonian(sys: Arm2DOF, x, u, lam):
    """<lambda, f + G u> - 1; constant along autonomous extremals.

    Batched x (4, N), u (2, N) and lam (4, N) give one value per sample.
    """
    xdot = state_rate(*sys.dyn(_components(x)), _components(u))
    return _dot(_components(lam), xdot) - 1.0


def switching(sys: Arm2DOF, x, lam) -> SwitchingRecord:
    """Evaluate phi and phi' on every channel; batched x/lam supported.

    g_i and fg_i are frame_rank's columns, from word_kernel.
    """
    n = sys.n
    lc = list(_components(lam))
    cols = _word_columns(sys, _frame_words(n), x)
    phi = [_dot(lc[n:], cols[i][n:]) for i in range(n)]
    phi_dot = [_dot(lc, cols[n + i]) for i in range(n)]
    return SwitchingRecord(phi=np.asarray(phi), phi_dot=np.asarray(phi_dot))


def sign_rule(phi, lower, upper, band=0.0):
    """The bound the maximum principle selects: upper where phi > band,
    lower where phi < -band, and nan where |phi| <= band, since the sign
    of phi picks no value there.  Floats or arrays, elementwise."""
    out = np.where(phi > band, upper, np.where(phi < -band, lower, np.nan))
    return float(out) if out.ndim == 0 else out


def on_selected_bound(u, phi, lower, upper, u_tol):
    """|u - sign_rule(phi)| <= u_tol: u sits on the bound the sign of phi
    selects.  False where phi = 0, which selects none.  Floats or arrays,
    elementwise."""
    return abs(u - sign_rule(phi, lower, upper)) <= u_tol


def in_Rk(x, exclusion: float = LAW_EXCLUSION):
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


def costate_norm(lam):
    """||lambda|| for 4 floats or (4, N) columns, one value per column.

    The maximum principle fixes lambda only up to a positive factor, so
    this norm works at every scale.  Where the left-to-right sum of
    squares is free of overflow and underflow, it is that sum's square
    root.  Elsewhere it is the same sum of lambda * 2^-e, with e the frexp
    exponent of the largest |entry|, scaled back by 2^e.  Both give the
    same bits where both are in range, so costate_norm(2^k lambda) is
    2^k costate_norm(lambda) for normal lambda.  The result is finite and
    > 0 for every finite nonzero lambda whose norm is a float, and inf at
    an inf entry; numpy warns of nothing.  Four plain floats stay on
    math: the integrator asks once per step.
    """
    l0, l1, l2, l3 = lam
    if type(l0) is type(l1) is type(l2) is type(l3) is float:
        total = l0 * l0 + l1 * l1 + l2 * l2 + l3 * l3
        if _EXACT_SUM <= total < math.inf:
            return math.sqrt(total)
        return float(costate_norm(np.array(lam)))
    with np.errstate(over="ignore"):
        _, exp = np.frexp(np.maximum(np.maximum(abs(l0), abs(l1)),
                                     np.maximum(abs(l2), abs(l3))))
        scaled = [np.ldexp(v, -exp) for v in lam]
        return np.ldexp(np.sqrt(_dot(scaled, scaled)), exp)


def lambda4_degenerate(lam):
    """The law's costate guard: |lambda4| <= LAMBDA4_RTOL * ||lambda||,
    one relative rule with no floor, so its verdict does not depend on
    lambda's scale.  It also trips at a subnormal lambda4 (below
    _SMALLEST_NORMAL), where lambda2/lambda4 has already lost bits and
    the law cannot be checked.  Floats or (4, N) columns; the norm is
    costate_norm.
    """
    a4 = abs(lam[3])
    return (a4 < _SMALLEST_NORMAL) | (a4 <= LAMBDA4_RTOL * costate_norm(lam))


def costate_ratio(lam):
    """lambda2/lambda4, the law's only costate dependence, with nan
    wherever lambda4_degenerate trips; floats or (4, N) columns."""
    bad = lambda4_degenerate(lam)
    out = np.where(bad, np.nan, lam[1] / np.where(bad, 1.0, lam[3]))
    return float(out) if out.ndim == 0 else out


def costate_on_surface(sys: Arm2DOF, x, lambda2: float,
                       lambda4: float) -> np.ndarray:
    """Costate with phi_1 = phi_1' = 0 at x and the given free components.

    Published initial costates for singular extremals round (or assume a
    model variant), landing near but not on the singular surface; this
    rebuilds them exactly on it, preserving the second and fourth entries
    that parameterize the law.  It takes the reference tableau: one
    evaluation does not pay for recording and compiling the float
    law_kernel, whose terms are the reference's under ==.
    """
    coeffs = _law_coeffs(sys, x, 0.0, kernel=False)
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


def law_kernel(sys: Arm2DOF, batched: bool = False):
    """``(x0, .., x3, c) -> _law_terms(u1_singular_brackets(sys, x), c)`` as
    straight-line code from ``duals.compiled``.  The float form raises
    OffTrace at the singular-mass guard and ZeroDivisionError at an exact
    zero divisor, where the reference raises.  batched=True gives the form
    over 1-D arrays: the float form's terms bit for bit at every sample
    outside the mask ``bad`` of those where the float form raises.
    """
    return compiled(sys, "law_kernel", ("x0", "x1", "x2", "x3", "c"),
                    lambda *v: _law_terms(u1_singular_brackets(sys, v[:4]),
                                          v[4]),
                    batched=batched)


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


def _law_at(sys: Arm2DOF, x, lam, c: float, exclusion: float,
            kernel: bool = True):
    """(reason, law terms) at one state: the first guard that trips and
    None, or "ok" and the _law_terms tuple.

    Plain floats take the float law_kernel unless kernel is False; off its
    branch, or for other scalars, the reference tableau, which raises
    LinearSolveFailure at a singular mass matrix and ZeroDivisionError at
    an exact zero divisor (mu is guarded before _law_terms divides by it).
    """
    comps = list(_components(x))
    terms = tab = None

    def mu():
        nonlocal terms, tab
        if kernel and all(type(v) is float for v in comps):
            try:
                terms = law_kernel(sys)(*comps, c)
                return terms[0]
            except STOPS:
                pass
        tab = u1_singular_brackets(sys, comps)
        return tab.L[0][0]

    def law():
        return terms if terms is not None else _law_terms(tab, c)

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


def singular_law_coeffs(sys: Arm2DOF, x, c: float,
                        exclusion: float = LAW_EXCLUSION
                        ) -> SingularLawCoeffs:
    """Closed-form law coefficients at x with the second control at c.

    Raises RkViolation outside the admissible set (band `exclusion`) or
    when any denominator (mu, alpha1, <b, g2>) degenerates numerically.
    Plain-float states take the compiled kernel, which returns the same
    terms as the Dual path, so the regularizer's u1 equals the
    integrator's bit for bit.
    """
    return _law_coeffs(sys, x, c, exclusion)


def _law_coeffs(sys: Arm2DOF, x, c: float,
                exclusion: float = LAW_EXCLUSION,
                kernel: bool = True) -> SingularLawCoeffs:
    """singular_law_coeffs, through the float law_kernel or, with kernel
    False, the reference tableau."""
    reason, law = _law_at(sys, x, None, c, exclusion, kernel)
    if law is None:
        raise _law_error(reason, x)
    mu, nu, gamma, r, s, alpha1, alpha2, b_g2 = law
    ratio = nu / mu
    a_basis = np.array([-ratio, 1.0, 0.0, 0.0])
    b_basis = np.array([gamma / mu, 0.0, -ratio, 1.0])
    return SingularLawCoeffs(mu=mu, nu=nu, gamma=gamma, a_basis=a_basis,
                             b_basis=b_basis, r=r, s=s, alpha1=alpha1,
                             alpha2=alpha2, b_dot_g2=b_g2, c=c)


def singular_u1(sys: Arm2DOF, x, lam, c: float,
                exclusion: float = LAW_EXCLUSION) -> float:
    """u1 = r(x) * lambda2/lambda4 + s(x) on a u1-singular arc."""
    lam = np.asarray(lam, dtype=float)
    reason, law = _law_at(sys, x, lam, c, exclusion)
    if law is None:
        raise _law_error(reason, x)
    return law_u1(law, lam)


def singular_u1_batch(sys: Arm2DOF, X, Lam, c,
                      exclusion: float = LAW_EXCLUSION):
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
    for part, terms, bad in chunks(law_kernel(sys, batched=True), [*X, cs],
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


def general_singular_system(sys: Arm2DOF, x, lam, k: int,
                            c_k: float) -> GeneralSingularSystem:
    """Assemble the order-two singularity equation for bang channel k, at
    one state or at every column of (4, N) x and lam.

    Built from the alpha tensor and iterated-bracket evaluations only, on
    word_field: it shares no code with the closed-form route above and
    runs no compiled kernel, so a code-generation fault cannot hit both.
    """
    if k not in (1, 2):
        raise ValueError(f"channel k = {k} out of range for n = 2")
    j = 2 - k                            # the other channel, from 0
    lam = np.asarray(lam, dtype=float)
    comps = list(_components(x))
    _, L = sys.dyn(comps)
    alpha = _alpha_solve(L, [word_field(sys, w)(comps)
                             for w in ("g1fg1", "g1fg2", "g2fg2")]).values
    return GeneralSingularSystem(
        psi_k=_dot(lam, word_field(sys, f"ffg{j + 1}")(comps)),
        b_kk=alpha[j, k - 1, k - 1], A_k=alpha[j, j, k - 1], c_k=c_k, k=k,
        phi_k=_dot(lam[2:], [L[0][k - 1], L[1][k - 1]]))


def general_singular_solve(sys: Arm2DOF, x, lam, k: int, c_k: float):
    """The ubar with phi_j'' = 0, a float at one state and (N,) on columns.

    Raises DegenerateSystem, naming the first column where |A_k| or
    |phi_k| / costate_norm(lam) is at most DEGENERACY_TOL.
    """
    system = general_singular_system(sys, x, lam, k, c_k)
    A, phi = np.ravel(system.A_k), np.ravel(system.phi_k)
    bad = (abs(A) <= DEGENERACY_TOL) | (
        abs(phi) <= DEGENERACY_TOL * costate_norm(lam))
    if bad.any():
        i = int(np.argmax(bad))
        raise DegenerateSystem(f"A_{k} = {A[i]:.3e}, phi_{k} = {phi[i]:.3e} "
                               f"at column {i}: no unique singular control")
    return -(system.psi_k + c_k * system.b_kk * system.phi_k) / (
        system.A_k * system.phi_k)
