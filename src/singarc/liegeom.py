"""Lie-bracket calculus over the dual-number engine.

Brackets use the convention [a,b](x) = (db/dx) a(x) - (da/dx) b(x) and
iterated words are right-nested: "ffg1" means [f,[f,g1]].  Every derivative
is exact (nested forward-mode duals); finite differences appear only in the
test oracles.

Fields evaluate on component lists whose entries may be floats, numpy
arrays (batched sweeps) or dual numbers (nesting), so a bracket is itself a
field that can be bracketed again, up to words of length 4.

The fused tableau of the singular law has two evaluations.  The reference
is the hand-written Dual/HyperDual code in ``fused_reference`` (tableau,
then ``pmp._law_terms``); arrays and nested duals always take it.  For
plain floats, ``fused_kernel`` replays it as straight-line code, which
returns the reference's numbers (equal as floats, bit for bit up to the
sign of a zero) wherever the reference stays finite; see ``duals``.
Where it stops (singular mass matrix, exact zero divisor), the callers
re-run the reference, which raises what it always raised.  The law terms
also compile to ``batched_law_kernel`` over arrays of samples; it masks
the samples where the float kernel stops.

Bracket words compile the same way: ``word_kernel`` records
``word_field`` for a tuple of words, and the certificates
(``frame_rank``, ``alpha_coefficients``, ``b_set_certificate``) and
``pmp.switching`` read their columns from it, batches in chunks of
``WORD_CHUNK`` samples.  ``certify_sweep`` runs the three certificates
over a sample of states one such chunk at a time and keeps only their
reductions.  ``word_field`` and
``iterated_bracket`` stay the reference and never run compiled code.

Every kernel is built, cached per plant and chunked by ``duals.compiled``
and ``duals.chunks``; ``integrate.extremal_kernel`` (one extremal RK4
stage, recorded through ``fused_reference``) and ``integrate.replay_kernel``
are two more.
"""
from __future__ import annotations

import math
import re as _re
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .arm2dof import FullyActuatedSystem, _components
from .duals import (STOPS, Dual, HyperDual, Rec, chunks, compiled, seed,
                    value)
from .errors import DerivativeUnavailable, SpanViolation

MAX_WORD = 4
WORD_CHUNK = 4096     # samples per batched word-kernel call
B_SET_WORDS = ("g2", "fg2", "ffg2", "fffg2", "g1ffg2")
B_SET_RTOL = 1e-10


@dataclass(frozen=True)
class VectorField:
    """Named evaluator from 2n component scalars to 2n component scalars."""

    name: str
    fn: Callable[[Sequence], list]

    def __call__(self, x):
        return self.fn(x)


def drift_field(sys: FullyActuatedSystem) -> VectorField:
    def fn(x):
        f, _ = sys.dyn(list(x))
        return f
    return VectorField("f", fn)


def input_field(sys: FullyActuatedSystem, i: int) -> VectorField:
    """g_i = [0; column i of M(q)^-1], 0-based channel index."""
    n = sys.n

    def fn(x):
        _, L = sys.dyn(list(x))
        zero = x[0] * 0.0
        return [zero] * n + [L[r][i] for r in range(n)]
    return VectorField(f"g{i + 1}", fn)


def _bracket_components(a, b, x):
    ax = a(x)
    bx = b(x)
    dba = b(seed(x, ax))
    dab = a(seed(x, bx))
    out = []
    for p, q in zip(dba, dab):
        pim = p.im if type(p) is Dual else p * 0.0
        qim = q.im if type(q) is Dual else q * 0.0
        out.append(pim - qim)
    return out


def bracket_field(a, b) -> VectorField:
    name_a = getattr(a, "name", "a")
    name_b = getattr(b, "name", "b")
    return VectorField(f"[{name_a},{name_b}]",
                       lambda x: _bracket_components(a, b, x))


def lie_bracket(a, b, x) -> np.ndarray:
    """[a,b] evaluated at x (plain float or batched-array components)."""
    return np.asarray(_bracket_components(a, b, list(_components(x))))


def parse_word(word) -> tuple[str, ...]:
    """Split a bracket word like "ffg2" or ("f","g1") into field tokens."""
    if not isinstance(word, str):
        tokens = tuple(word)
    else:
        tokens = tuple(_re.findall(r"f|g\d+", word))
        if "".join(tokens) != word:
            raise ValueError(f"cannot parse bracket word {word!r}")
    if not tokens:
        raise ValueError("empty bracket word")
    return tokens


def field_by_token(sys: FullyActuatedSystem, token: str) -> VectorField:
    if token == "f":
        return drift_field(sys)
    if token.startswith("g"):
        i = int(token[1:]) - 1
        if not 0 <= i < sys.n:
            raise ValueError(f"no input channel {token!r} for n = {sys.n}")
        return input_field(sys, i)
    raise ValueError(f"unknown field token {token!r}")


def word_field(sys: FullyActuatedSystem, word) -> VectorField:
    """Right-nested bracket field for a word over {f, g1..gn}."""
    tokens = parse_word(word)
    if len(tokens) > MAX_WORD:
        raise DerivativeUnavailable(
            f"bracket word {word!r} exceeds supported length {MAX_WORD}")
    fld = field_by_token(sys, tokens[-1])
    for tok in reversed(tokens[:-1]):
        fld = bracket_field(field_by_token(sys, tok), fld)
    return fld


def iterated_bracket(sys: FullyActuatedSystem, word, x) -> np.ndarray:
    """Evaluate the right-nested bracket of a word (length <= 4) at x."""
    return np.asarray(word_field(sys, word)(list(_components(x))))


@dataclass(frozen=True)
class AlphaTensor:
    """Coefficients expressing each g_i f g_j in the {g_k} basis at a point.

    values[i, j, k] multiplies g_k in the expansion of g_i f g_j; symmetric
    in (i, j) because the inputs commute.  Batched evaluation appends the
    sample axis last.
    """

    values: np.ndarray
    residual: float

    def beta(self, u) -> np.ndarray:
        """beta[i, k] = sum_j u_j * alpha[i, j, k] for a fixed control u."""
        u = np.asarray(u, dtype=float)
        return np.einsum("j,ijk...->ik...", u, self.values)


def alpha_coefficients(sys: FullyActuatedSystem, x, rtol: float = 1e-9) -> AlphaTensor:
    """Solve the bottom-block systems (g_i f g_j) = sum_k alpha_ijk g_k.

    Raises SpanViolation when a reconstruction residual exceeds
    rtol * max(||g_i f g_j||, 1) -- the theory guarantees membership, so a
    violation signals a modeling bug.  The columns come from word_kernel.
    """
    n = sys.n
    words = [f"g{k + 1}" for k in range(n)] + \
            [f"g{i + 1}fg{j + 1}" for i in range(n) for j in range(i, n)]
    cols = np.asarray(_word_columns(sys, words, x))
    # the bottom block of g_k is column k of L = M^-1
    return _alpha_solve(np.swapaxes(cols[:n, n:], 0, 1), cols[n:], rtol)


def _alpha_solve(L, gfg, rtol: float = 1e-9) -> AlphaTensor:
    """alpha from L = M^-1 ((n, n) or (n, n, N)) and the columns of
    g_i f g_j for i <= j, in row order ((2n,) or (2n, N) each).

    The one solve behind alpha_coefficients (compiled columns) and
    pmp.general_singular_system (word_field columns).
    """
    Lm = np.asarray(L)                       # (n, n) or (n, n, N)
    n = Lm.shape[0]
    batched = Lm.ndim == 3
    Ab = np.moveaxis(Lm, -1, 0) if batched else Lm
    columns = iter(gfg)

    values = np.empty((n, n, n) + Lm.shape[2:], dtype=float)
    worst = 0.0
    for i in range(n):
        for j in range(i, n):
            w = np.asarray(next(columns))
            bottom = np.moveaxis(w[n:], -1, 0) if batched else w[n:]
            coef = np.linalg.solve(Ab, bottom[..., None])[..., 0]
            coef_t = np.moveaxis(coef, 0, -1) if batched else coef
            recon_bottom = np.einsum("kr...,r...->k...", Lm, coef_t)
            recon = np.concatenate([np.zeros_like(w[:n]), recon_bottom])
            scale = np.maximum(np.linalg.norm(w, axis=0), 1.0)
            res = np.linalg.norm(w - recon, axis=0) / scale
            worst = max(worst, float(np.max(res)))
            values[i, j] = coef_t
            values[j, i] = coef_t
    if worst > rtol:
        raise SpanViolation(
            f"bracket span residual {worst:.3e} exceeds rtol {rtol:.1e}")
    return AlphaTensor(values=values, residual=worst)


def _stacked_fields(sys: FullyActuatedSystem, words, x) -> np.ndarray:
    A = np.asarray(_word_columns(sys, words, x))   # (m, 2n) or (m, 2n, N)
    return A.T if A.ndim == 2 else A.transpose(2, 1, 0)   # (N, 2n, m)


def _frame_words(n: int) -> tuple[str, ...]:
    """The frame (g_1..g_n, fg_1..fg_n), in that order."""
    return tuple(f"g{i + 1}" for i in range(n)) + \
        tuple(f"fg{i + 1}" for i in range(n))


def frame_rank(sys: FullyActuatedSystem, x) -> float | np.ndarray:
    """Smallest singular value of [g_1..g_n, fg_1..fg_n] at x."""
    A = _stacked_fields(sys, _frame_words(sys.n), x)
    s = np.linalg.svd(A, compute_uv=False)
    smin = s[..., -1]
    return float(smin) if smin.ndim == 0 else smin


def b_set_certificate(sys: FullyActuatedSystem, x, c: float,
                      rtol: float = B_SET_RTOL):
    """Independence certificate for {g2, fg2, ffg2, fffg2 + c*g1ffg2}.

    c is the bang value of the first channel.  Returns (ok, evidence) where
    ok is True iff the four vectors are independent at x, judged by
    sigma_min > rtol * sigma_max (scale-invariant).  Batched x returns
    arrays.
    """
    return _b_set_verdict(_b_set_family(sys, x), c, rtol)


def _b_set_family(sys: FullyActuatedSystem, x) -> np.ndarray:
    """The B_SET_WORDS columns at x, which do not depend on the bang value:
    (5, 4) or (5, 4, N)."""
    if sys.n != 2:
        raise ValueError("the B-set certificate is specific to n = 2")
    return np.asarray(_word_columns(sys, B_SET_WORDS, x))


def _b_set_verdict(family, c: float, rtol: float = B_SET_RTOL):
    """b_set_certificate's (ok, evidence) from _b_set_family's columns."""
    g2c, fg2c, ffg2c, fffg2c, g1ffg2c = family
    A = np.stack([g2c, fg2c, ffg2c, fffg2c + c * g1ffg2c], axis=1)
    if A.ndim == 3:
        A = np.moveaxis(A, -1, 0)
    s = np.linalg.svd(A, compute_uv=False)
    smin, smax = s[..., -1], s[..., 0]
    ok = smin > rtol * smax
    evidence = {"sigma_min": smin if smin.ndim else float(smin),
                "sigma_max": smax if smax.ndim else float(smax)}
    if smin.ndim == 0:
        return bool(ok), evidence
    return ok, evidence


@dataclass(frozen=True)
class SweepReduction:
    """What ``certify_sweep`` keeps of the three families over all states.

    b_set holds (c, failures, largest |v1 + v2| over the failing states,
    or None without a failure) per bang value c, in the order given.
    """

    min_frame_rank: float
    max_abs_alpha_ij1: float
    b_set: tuple[tuple[float, int, float | None], ...]


def certify_sweep(sys: FullyActuatedSystem, states,
                  bang_values) -> SweepReduction:
    """frame_rank, alpha_coefficients and b_set_certificate at every row
    of states ((N, 2n)), folded into running reductions WORD_CHUNK rows at
    a time, so nothing N-sized is held but the states.

    The reductions equal those of the three full-batch calls: every
    sample's numbers are computed alike in chunks, and min, max and counts
    do not depend on how the samples are split.  A span violation raises
    SpanViolation from the chunk where it occurs.
    """
    rank, alpha1 = math.inf, -math.inf
    failures = [0] * len(bang_values)
    velocity = [-math.inf] * len(bang_values)
    for start in range(0, len(states), WORD_CHUNK):
        part = states[start:start + WORD_CHUNK]
        x = part.T
        # np.minimum/np.maximum keep a nan, as the full batch's min/max do
        rank = np.minimum(rank, frame_rank(sys, x).min())
        alpha1 = np.maximum(alpha1, np.abs(
            alpha_coefficients(sys, x).values[:, :, 0]).max())
        family = _b_set_family(sys, x)
        for k, c in enumerate(bang_values):
            fails = ~_b_set_verdict(family, c)[0]
            if fails.any():
                failures[k] += int(np.count_nonzero(fails))
                velocity[k] = np.maximum(velocity[k], np.abs(
                    part[fails, 2] + part[fails, 3]).max())
        del family      # not held through the next chunk
    return SweepReduction(
        min_frame_rank=float(rank), max_abs_alpha_ij1=float(alpha1),
        b_set=tuple((c, count, float(v) if count else None)
                    for c, count, v in zip(bang_values, failures, velocity)))


@dataclass(frozen=True)
class BracketTableau:
    """Bracket family entering the first-channel singular law at one state.

    Components are scalar-typed like the input (floats or batched arrays);
    produced by shared dual evaluations and cross-checked against the
    word_field path in the test suite.  df_cols and dL carry the
    first-order Jacobian data (columns of Df, entries of DL) so the
    adjoint equation costs no extra evaluations.
    """

    f: list
    g1: list
    g2: list
    fg1: list
    fg2: list
    ffg1: list
    g1fg1: list
    g1fg2: list
    L: list
    df_cols: list      # df_cols[i] = Df . e_i, length-4 columns
    dL: list           # dL[r][c][i] = d L_rc / d x_i


def u1_singular_brackets(sys: FullyActuatedSystem, x) -> BracketTableau:
    """Fused evaluation of the brackets needed by the u1-singular law.

    Plain-float states go through the compiled kernel; arrays and nested
    duals through the Dual/HyperDual reference it is traced from.
    """
    comps = list(_components(x))
    out = fused_terms(sys, comps, 0.0)
    if out is not None:
        return BracketTableau(*out[:-1])
    return _dual_tableau(sys, comps)


def _dual_tableau(sys: FullyActuatedSystem, comps) -> BracketTableau:
    """The reference tableau over any scalar algebra of ``duals``.

    One plain, four first-order (basis directions, giving the full
    Jacobians of f and G) and four second-order evaluations of sys.dyn;
    all remaining brackets are assembled by matrix-vector work.
    """
    if sys.n != 2:
        raise ValueError("fused tableau implemented for n = 2")
    zero = comps[0] * 0.0
    one = zero + 1.0
    f0, L0 = sys.dyn(comps)
    g1 = [zero, zero, L0[0][0], L0[1][0]]
    g2 = [zero, zero, L0[0][1], L0[1][1]]

    df_cols = []
    dL = [[[None] * 4 for _ in range(2)], [[None] * 4 for _ in range(2)]]
    for i in range(4):
        pt = [Dual(comps[j], one if j == i else zero) for j in range(4)]
        fD, LD = sys.dyn(pt)
        df_cols.append([c.im for c in fD])
        for r in range(2):
            for c in range(2):
                dL[r][c][i] = LD[r][c].im

    def df_dot(v):
        return [df_cols[0][r] * v[0] + df_cols[1][r] * v[1]
                + df_cols[2][r] * v[2] + df_cols[3][r] * v[3]
                for r in range(4)]

    def dg_dot(c, v):
        return [zero, zero,
                dL[0][c][0] * v[0] + dL[0][c][1] * v[1]
                + dL[0][c][2] * v[2] + dL[0][c][3] * v[3],
                dL[1][c][0] * v[0] + dL[1][c][1] * v[1]
                + dL[1][c][2] * v[2] + dL[1][c][3] * v[3]]

    df_g1 = df_dot(g1)
    df_g2 = df_dot(g2)
    df_f = df_dot(f0)
    dg1_f = dg_dot(0, f0)
    dg2_f = dg_dot(1, f0)
    dg1_g1 = dg_dot(0, g1)
    dg2_g1 = dg_dot(1, g1)

    # [f, g] = Dg.f - Df.g
    fg1 = [a - b for a, b in zip(dg1_f, df_g1)]
    fg2 = [a - b for a, b in zip(dg2_f, df_g2)]
    df_fg1 = df_dot(fg1)
    dg1_fg1 = dg_dot(0, fg1)
    dg1_fg2 = dg_dot(0, fg2)

    def d2(v, w, z):
        """dyn at x + eps*v + delta*(w + eps*z); the d-slots carry
        D2phi(v, w) + Dphi.z for phi = f and each entry of L."""
        pt = [HyperDual(comps[i], v[i], w[i], z[i]) for i in range(4)]
        fH, LH = sys.dyn(pt)
        ddf = [c.d for c in fH]
        ddL = [[c.d for c in row] for row in LH]
        return ddf, ddL

    e1f, e1L = d2(f0, g1, dg1_f)     # f-slot: D2f(f,g1) + Df.Dg1.f
    _, e2L = d2(f0, f0, df_f)        # G1-slot: D2g1(f,f) + Dg1.Df.f
    e3f, _ = d2(g1, g1, dg1_g1)      # D2f(g1,g1) + Df.Dg1.g1
    e4f, _ = d2(g1, g2, dg2_g1)      # D2f(g1,g2) + Df.Dg2.g1

    # D(fg1).f = [D2g1(f,f) + Dg1.Df.f] - [D2f(f,g1) + Df.Dg1.f]
    b2 = [zero, zero, e2L[0][0], e2L[1][0]]
    dfg1_f = [b2[i] - e1f[i] for i in range(4)]
    ffg1 = [a - b for a, b in zip(dfg1_f, df_fg1)]

    # Symmetry of second derivatives recovers the (g1, f) pairings from
    # the e1 G-slots: D2gj(g1,f) = e1L_j - Dgj.Dg1.f.
    b1_1 = [zero, zero, e1L[0][0], e1L[1][0]]
    b1_2 = [zero, zero, e1L[0][1], e1L[1][1]]
    dg1_dg1f = dg_dot(0, dg1_f)
    dg2_dg1f = dg_dot(1, dg1_f)
    dg1_dfg1 = dg_dot(0, df_g1)
    dg2_dfg1 = dg_dot(1, df_g1)

    dfg1_g1 = [b1_1[i] - dg1_dg1f[i] + dg1_dfg1[i] - e3f[i] for i in range(4)]
    g1fg1 = [a - b for a, b in zip(dfg1_g1, dg1_fg1)]

    dfg2_g1 = [b1_2[i] - dg2_dg1f[i] + dg2_dfg1[i] - e4f[i] for i in range(4)]
    g1fg2 = [a - b for a, b in zip(dfg2_g1, dg1_fg2)]

    return BracketTableau(f=f0, g1=g1, g2=g2, fg1=fg1, fg2=fg2,
                          ffg1=ffg1, g1fg1=g1fg1, g1fg2=g1fg2, L=L0,
                          df_cols=df_cols, dL=dL)


def fused_reference(sys: FullyActuatedSystem, comps, c):
    """Tableau fields in BracketTableau order, then the law terms at c.

    The Dual/HyperDual evaluation the kernel is recorded from.
    """
    from .pmp import _law_terms   # pmp builds on this module
    tab = _dual_tableau(sys, comps)
    return (tab.f, tab.g1, tab.g2, tab.fg1, tab.fg2, tab.ffg1, tab.g1fg1,
            tab.g1fg2, tab.L, tab.df_cols, tab.dL, _law_terms(tab, c))


_LAW_INPUTS = ("x0", "x1", "x2", "x3", "c")


def fused_kernel(sys: FullyActuatedSystem):
    """``(x0, x1, x2, x3, c) -> fused_reference(sys, [x0..x3], c)`` as
    straight-line float code, built by ``duals.compiled``.

    Raises OffTrace at the singular-mass guard and ZeroDivisionError at an
    exact zero divisor, at the point where the reference raises.
    """
    return compiled(sys, "fused_kernel", _LAW_INPUTS,
                    lambda *v: fused_reference(sys, list(v[:4]), v[4]))


def batched_law_kernel(sys: FullyActuatedSystem):
    """``(x0, x1, x2, x3, c) -> (law terms, bad)`` over numpy arrays.

    The law-terms block of fused_kernel, compiled as a batched function
    (``Tape.compile(batched=True)``): bit for bit fused_kernel's law terms
    at every sample outside the mask ``bad``, which holds the samples
    where fused_kernel raises.
    """
    return compiled(sys, "law_kernel", _LAW_INPUTS,
                    lambda *v: fused_reference(sys, list(v[:4]), v[4])[-1],
                    batched=True)


def fused_terms(sys: FullyActuatedSystem, comps, c):
    """fused_kernel at four plain floats, or None where it does not apply:
    other scalar types, or a state off the recorded branch."""
    if all(type(v) is float for v in comps):
        try:
            return fused_kernel(sys)(*comps, c)
        except STOPS:
            pass
    return None


def word_kernel(sys: FullyActuatedSystem, words, batched: bool = False):
    """``word_field(sys, w)`` for every w in words as straight-line code,
    recorded into one tape (subexpressions the words share run once) and
    built by ``duals.compiled`` per plant, word tuple and form.

    The float form ``(x0, .., x3)`` returns one list of 2n floats per word.
    batched=True gives the ``Tape.compile(batched=True)`` form over 1-D
    arrays, which returns the same nest of arrays and the mask of the
    samples where the float form raises; it takes sin/cos from numpy, as
    word_field does over arrays.  The tape writes a structural zero as the
    constant 0.0; the kernel writes it as the reference's ``x0 * 0.0``,
    which has the reference's sign and the batch's shape.
    """
    words = tuple(words)

    def record(*comps):
        zero = comps[0].tape.op("*", comps[0], 0.0)
        return [[v if type(v) is Rec or v != 0.0 else zero
                 for v in word_field(sys, w)(list(comps))] for w in words]

    return compiled(sys, ("word_kernel", words),
                    [f"x{i}" for i in range(2 * sys.n)], record,
                    batched=batched, numpy_trig=batched)


def _word_columns(sys: FullyActuatedSystem, words, x):
    """``word_field(sys, w)(x)`` for each w in words, through word_kernel.

    Plain floats give one list of 2n floats per word; 1-D array
    components (x of shape (2n, N)) give an (m, 2n, N) array, evaluated
    WORD_CHUNK samples at a time.  The reference runs instead for other
    scalar types, at non-finite states and where the compiled code stops:
    it raises LinearSolveFailure at a singular mass matrix and gives nan
    at a non-finite state, as it always did.
    """
    comps = list(_components(x))
    if all(type(v) is float for v in comps):
        if all(map(math.isfinite, comps)):
            try:
                return word_kernel(sys, words)(*comps)
            except STOPS:
                pass
    elif all(type(v) is np.ndarray and v.ndim == 1 for v in comps):
        return _batched_word_columns(sys, words, comps)
    return [word_field(sys, w)(comps) for w in words]


def _batched_word_columns(sys: FullyActuatedSystem, words, comps):
    size = comps[0].shape[0]
    out = np.empty((len(words), len(comps), size))
    redo = np.empty(size, dtype=bool)
    for part, cols, bad in chunks(word_kernel(sys, words, batched=True),
                                  comps, WORD_CHUNK):
        out[:, :, part] = cols
        del cols        # not held through the next chunk's kernel call
        redo[part] = bad | ~np.isfinite([c[part] for c in comps]).all(axis=0)
    masked = np.flatnonzero(redo)
    if masked.size:
        sub = [c[masked] for c in comps]
        out[:, :, masked] = [word_field(sys, w)(sub) for w in words]
    return out
