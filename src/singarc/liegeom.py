"""Lie-bracket calculus over the dual-number engine.

Brackets use the convention [a,b](x) = (db/dx) a(x) - (da/dx) b(x) and
iterated words are right-nested: "ffg1" means [f,[f,g1]].  Every derivative
is exact (nested forward-mode duals); finite differences appear only in the
test oracles.

Fields evaluate on component lists whose entries may be floats, numpy
arrays (batched sweeps) or dual numbers (nesting), so a bracket is itself a
field that can be bracketed again, up to words of length 4.

The fused tableau of the singular law, ``u1_singular_brackets``, is the
hand-written Dual/HyperDual reference for every input; ``pmp.law_kernel``
and ``integrate.extremal_kernel`` compile it, with what follows it, into
straight-line code.  ``dyn_jacobian`` is its first-order block, alone.

Bracket words compile through ``word_kernel``, which records
``word_field`` for a tuple of words.  The certificates (``frame_rank``,
``alpha_coefficients``, ``b_set_certificate``) and ``pmp.switching`` read
their columns from it, batches in chunks of ``WORD_CHUNK`` samples.
``certify_sweep`` runs the three certificates over blocks of states one
such chunk at a time and keeps only their reductions, so a sweep holds
no N-sized array.  Two screens with a priori rounding bounds keep
LAPACK off most states there: ``_frame_screen`` brackets each frame's
sigma_min through the Pfaffian of its skew part, so only the states
that can hold the minimum take frame_rank's SVD, and ``_b_set_screen``
decides, from one cofactor vector, the B-set failures that no SVD could
pass, so only the undecided states take ``_b_set_verdict``'s SVD.
``word_field`` and ``iterated_bracket`` stay the reference and never run
compiled code.  Every kernel is built, cached per plant and chunked by
``duals.compiled`` and ``duals.chunks``.
"""
from __future__ import annotations

import math
import re as _re
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .arm2dof import Arm2DOF, _components
from .duals import STOPS, Dual, HyperDual, Rec, chunks, compiled, seed
from .errors import DerivativeUnavailable, SpanViolation

MAX_WORD = 4
WORD_CHUNK = 2048     # samples per batched word-kernel call
B_SET_WORDS = ("g2", "fg2", "ffg2", "fffg2", "g1ffg2")
B_SET_RTOL = 1e-10


@dataclass(frozen=True)
class VectorField:
    """Named evaluator from 2n component scalars to 2n component scalars."""

    name: str
    fn: Callable[[Sequence], list]

    def __call__(self, x):
        return self.fn(x)


def drift_field(sys: Arm2DOF) -> VectorField:
    def fn(x):
        f, _ = sys.dyn(list(x))
        return f
    return VectorField("f", fn)


def input_field(sys: Arm2DOF, i: int) -> VectorField:
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


def field_by_token(sys: Arm2DOF, token: str) -> VectorField:
    if token == "f":
        return drift_field(sys)
    if token.startswith("g"):
        i = int(token[1:]) - 1
        if not 0 <= i < sys.n:
            raise ValueError(f"no input channel {token!r} for n = {sys.n}")
        return input_field(sys, i)
    raise ValueError(f"unknown field token {token!r}")


def word_field(sys: Arm2DOF, word) -> VectorField:
    """Right-nested bracket field for a word over {f, g1..gn}."""
    tokens = parse_word(word)
    if len(tokens) > MAX_WORD:
        raise DerivativeUnavailable(
            f"bracket word {word!r} exceeds supported length {MAX_WORD}")
    fld = field_by_token(sys, tokens[-1])
    for tok in reversed(tokens[:-1]):
        fld = bracket_field(field_by_token(sys, tok), fld)
    return fld


def iterated_bracket(sys: Arm2DOF, word, x) -> np.ndarray:
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


def alpha_coefficients(sys: Arm2DOF, x, rtol: float = 1e-9) -> AlphaTensor:
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


def _stacked_fields(sys: Arm2DOF, words, x) -> np.ndarray:
    A = np.asarray(_word_columns(sys, words, x))   # (m, 2n) or (m, 2n, N)
    return A.T if A.ndim == 2 else A.transpose(2, 1, 0)   # (N, 2n, m)


def _frame_words(n: int) -> tuple[str, ...]:
    """The frame (g_1..g_n, fg_1..fg_n), in that order."""
    return tuple(f"g{i + 1}" for i in range(n)) + \
        tuple(f"fg{i + 1}" for i in range(n))


def frame_rank(sys: Arm2DOF, x) -> float | np.ndarray:
    """Smallest singular value of [g_1..g_n, fg_1..fg_n] at x."""
    A = _stacked_fields(sys, _frame_words(sys.n), x)
    s = np.linalg.svd(A, compute_uv=False)
    smin = s[..., -1]
    return float(smin) if smin.ndim == 0 else smin


def b_set_certificate(sys: Arm2DOF, x, c: float, rtol: float = B_SET_RTOL):
    """Independence certificate for {g2, fg2, ffg2, fffg2 + c*g1ffg2}.

    c is the bang value of the first channel.  Returns (ok, evidence) where
    ok is True iff the four vectors are independent at x, judged by
    sigma_min > rtol * sigma_max (scale-invariant).  Batched x returns
    arrays.
    """
    return _b_set_verdict(_b_set_family(sys, x), c, rtol)


def _b_set_family(sys: Arm2DOF, x) -> np.ndarray:
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


_SCREEN_SLACK = 2.0 ** -47        # 64 u, u = 2^-53 the unit roundoff
# The six 2x2 minors of two columns, by row pair (_PAIR_I, _PAIR_J); for
# each deleted row l = 0..3, the rows (i, j, k) left and the minors of the
# pairs (j, k), (i, k) and (i, j); and the cofactor signs (-1)^(l+3).
_PAIR_I, _PAIR_J = [0, 0, 0, 1, 1, 2], [1, 2, 3, 2, 3, 3]
_ROWS_LEFT = ([1, 0, 0, 0], [2, 2, 1, 1], [3, 3, 3, 2])
_MINORS_LEFT = ([5, 5, 4, 3], [4, 2, 2, 1], [3, 1, 0, 0])
_COFACTOR_SIGNS = np.array([[-1.0], [1.0], [-1.0], [1.0]])


def _in_range(a, axis):
    """Whether every entry along axis is 0 or of magnitude in [2^-100,
    2^100]: the range in which the screens' rounding bounds hold.  False
    at inf and nan."""
    m = np.abs(a)
    return ((m == 0.0) | ((m >= 2.0 ** -100) & (m <= 2.0 ** 100))
            ).all(axis=axis)


def _b_set_screen(family, bang_values, rtol: float = B_SET_RTOL):
    """Per bang value c, the mask of the samples of family ((5, 4, N), from
    _b_set_family) that certainly fail _b_set_verdict at c; False means
    undecided, never a pass.

    A = [a b w v] with a, b, w = g2, fg2, ffg2 and v = fffg2 + c*g1ffg2,
    computed as _b_set_verdict computes it.  The cofactor vector n of
    (a, b, w), from 2x2 minors, is orthogonal to a, b and w and gives
    n.v = det A, so with e = n/||n||, sigma_min(A) <= ||A^T e|| =
    |det A|/||n||_2 <= |det A|/||n||_inf; and sigma_max(A) >= the largest
    column norm.  A sample is decided when these bounds give
    sigma_min <= rtol/2 * sigma_max, after allowing for rounding:

    - Range.  Decided samples have every entry 0 or of magnitude in
      [2^-100, 2^100].  A float of magnitude at least 2^-k is a multiple
      of 2^-(k+52), so no nonzero difference of such floats is smaller;
      following the products and sums below, every nonzero intermediate
      lies in [2^-600, 2^420].  Nothing underflows or overflows, and
      fl(x op y) = (x op y)(1 + delta), |delta| <= u, holds throughout.
      Samples with an inf or nan entry are out of range and are zeroed
      before the arithmetic, so they raise no warning.
    - Rounding (Higham, Accuracy and Stability of Numerical Algorithms,
      2nd ed., sec. 3.1).  Each term of a sum of products that passes
      through at most k roundings is off by at most gamma_k = k*u/(1 -
      k*u) of its magnitude.  Each 3x3 minor d_l takes k = 5 (product,
      difference, product, two sums), det A = sum(n_l v_l) k = 9; so
      |d_l| >= |fl(d_l)| - gamma_5 * D_l and |det A| <= |fl(det A)| +
      gamma_9 * P, where D_l and P are the same sums over |entries| (P is
      the permanent of |A|), computed in the same order and so within
      gamma_5 and gamma_9 of their own values.  The slack 64 u covers
      gamma_9/(1 - gamma_9) plus the rounding of the bounds themselves
      with room to spare; it is a power of two, so scaling by it is
      exact.  The computed right-hand side is at most (1 + 8u) times
      rtol/2 * ||n||_inf * sigma_max.
    - The factor 1/2.  LAPACK's computed singular values lie within
      p(4)*u*sigma_max of the exact ones (LAPACK Users' Guide, 3rd ed.,
      sec. 4.9), with p a modest polynomial.  A proven sigma_min <=
      rtol/2 * (1 + 8u) * sigma_max then fails sigma_min > rtol *
      sigma_max in LAPACK's own numbers as long as p(4) < rtol/(2u),
      about 4.5e5.
    """
    ok = _in_range(family, (0, 1))
    fam = np.where(ok, family, 0.0)
    a, b, w = fam[0], fam[1], fam[2]
    p, q = a[_PAIR_I] * b[_PAIR_J], a[_PAIR_J] * b[_PAIR_I]
    m, m_abs = p - q, np.abs(p) + np.abs(q)
    i, j, k = _ROWS_LEFT
    jk, ik, ij = _MINORS_LEFT
    d = w[i] * m[jk] - w[j] * m[ik] + w[k] * m[ij]
    d_abs = (np.abs(w[i]) * m_abs[jk] + np.abs(w[j]) * m_abs[ik]
             + np.abs(w[k]) * m_abs[ij])
    n = d * _COFACTOR_SIGNS
    n_low = (np.abs(d) - _SCREEN_SLACK * d_abs).max(axis=0)
    ok &= n_low > 0.0
    shared_norm = np.sqrt(np.square(fam[:3]).sum(axis=1)).max(axis=0)
    for c in bang_values:
        v = fam[3] + c * fam[4]
        det_high = (np.abs((n * v).sum(axis=0))
                    + _SCREEN_SLACK * (np.abs(v) * d_abs).sum(axis=0))
        col_norm = np.maximum(shared_norm, np.sqrt(np.square(v).sum(axis=0)))
        yield ok & _in_range(v, 0) & (
            det_high <= 0.5 * rtol * n_low * col_norm)


_FRAME_SLACK = 2.0 ** -30         # 2^23 u
_PF_SIGNS = np.array([[1.0], [-1.0], [1.0]])


def _frame_screen(cols):
    """A bracket (low, high) on frame_rank's sigma_min at each sample of
    cols ((4, 4, N), the _frame_words(2) columns: A[i, j] = cols[j, i]);
    (-inf, inf) where undecided.

    A = K + S with K = (A - A^T)/2 skew and S = (A + A^T)/2.  The frame
    is [[0, -L], [L, B]] with L = M^-1 symmetric and B antisymmetric, so
    S is round-off; the bracket is tight because of that, and valid
    without it.  A 4x4 skew K has the singular values (w1, w1, w2, w2),
    w1 >= w2, with w1^2 + w2^2 = s = sum_{i<j} k_ij^2 and w1 * w2 = |Pf|,
    Pf = k01 k23 - k02 k13 + k03 k12.  So the sums of squares

        (k01 + k23)^2 + (k02 - k13)^2 + (k03 + k12)^2 = s + 2 Pf,
        (k01 - k23)^2 + (k02 + k13)^2 + (k03 - k12)^2 = s - 2 Pf

    are (w1 + w2)^2 and (w1 - w2)^2 in some order; with r+ and r- their
    roots, w_max = (r+ + r-)/2 and est = sigma_min(K) = |r+ - r-|/2.  (The
    root of the quadratic in s and Pf^2 is not used: its discriminant
    s^2 - 4 Pf^2 cancels where w1 ~ w2, which costs sqrt(u) of w_max.)
    Weyl's bound gives |sigma_min(A) - est| <= ||S||_2 <= ||S||_F, and
    the bracket is est -+ tol, tol = ||S||_F + 2^-30 (w_max + ||S||_F):

    - Range.  Decided samples have every entry 0 or of magnitude in
      [2^-100, 2^100] (_in_range), so every entry is a multiple of
      2^-152, and every nonzero intermediate below lies in [2^-306,
      2^205].  Nothing underflows or overflows, fl(x op y) = (x op y)(1 +
      delta), |delta| <= u = 2^-53, holds throughout, and halving and the
      signs are exact.  Other samples are undecided; their arithmetic
      runs with its warnings off and is thrown away.
    - Rounding (Higham, 2nd ed., sec. 3.1).  The computed K has k_ij(1 +
      delta) and is skew, so its singular values are within u ||K||_F <=
      2u w_max of K's (Weyl).  Each sum of squares takes at most five
      roundings per term and is within gamma_5 of its value, its root
      within gamma_4, so est is within gamma_6 w_max of the computed K's
      sigma_min, and the computed w_max within gamma_5 of its own.  The
      computed ||S||_F (at most nine roundings per square in S's entries,
      the squares and the sums, and one in the root) is within gamma_10
      of ||S||_F.
    - LAPACK.  Its computed singular values lie within p(4) u sigma_max(A)
      of the exact ones (LAPACK Users' Guide, 3rd ed., sec. 4.9), and
      sigma_max(A) <= w_max + ||S||_F.

    In all, LAPACK's sigma_min is within ||S||_F + (8u + p(4) u) (w_max +
    ||S||_F), up to O(u^2), of est; 2^-30 = 2^23 u leaves room for the
    rounding of tol and of est -+ tol as long as p(4) < 2^22, some 4e6.
    Nothing divides, so a zero K needs no exception.
    """
    ok = _in_range(cols, (0, 1))
    upper, lower = cols[_PAIR_J, _PAIR_I], cols[_PAIR_I, _PAIR_J]
    with np.errstate(over="ignore", invalid="ignore"):
        k = (upper - lower) * 0.5         # k01, k02, k03, k12, k13, k23
        pair = _PF_SIGNS * k[5:2:-1]      # k23, -k13, k12
        r_plus = np.sqrt(np.square(k[:3] + pair).sum(axis=0))
        r_minus = np.sqrt(np.square(k[:3] - pair).sum(axis=0))
        est = np.abs(r_plus - r_minus) * 0.5
        w_max = (r_plus + r_minus) * 0.5
        s_norm = np.sqrt(np.square(cols[range(4), range(4)]).sum(axis=0)
                         + 2.0 * np.square((upper + lower) * 0.5).sum(axis=0))
        tol = s_norm + _FRAME_SLACK * (w_max + s_norm)
        return (np.where(ok, est - tol, -math.inf),
                np.where(ok, est + tol, math.inf))


@dataclass(frozen=True)
class SweepReduction:
    """What ``certify_sweep`` keeps of the three families over all states.

    b_set holds (c, failures, largest |v1 + v2| over the failing states,
    or None without a failure) per bang value c, in the order given.
    frame_svd_states and b_set_svd_states count the states that went
    through LAPACK past the screens (the B-set once per bang value).
    """

    min_frame_rank: float
    max_abs_alpha_ij1: float
    b_set: tuple[tuple[float, int, float | None], ...]
    frame_svd_states: int
    b_set_svd_states: int


def certify_sweep(sys: Arm2DOF, blocks, bang_values) -> SweepReduction:
    """frame_rank, alpha_coefficients and b_set_certificate at every row
    of the state blocks (an iterable of (k, 2n) arrays, read once), folded
    into running reductions WORD_CHUNK rows at a time, so nothing N-sized
    is held when the blocks are drawn one at a time.

    The reductions equal those of the three full-batch calls over all the
    rows stacked: every sample's numbers are computed alike in chunks, and
    min, max and counts do not depend on how the samples are split into
    blocks or chunks.  A span violation raises SpanViolation from the
    chunk where it occurs.

    The frame's minimum is the least of frame_rank's LAPACK values, taken
    only at the states that can hold it: _frame_screen brackets every
    sample's sigma_min, and a state whose lower end lies above an upper
    end or a LAPACK value already seen cannot be the minimum.  LAPACK
    works on one matrix at a time, so a value does not depend on which
    states share its call.

    The B-set verdicts are _b_set_verdict's: _b_set_screen decides the
    samples that certainly fail, from one cofactor vector per chunk, and
    only the rest go through _b_set_verdict's SVD.  Only the counts and the
    failure mask leave the sweep, so the reductions are those of the SVD
    at every sample.
    """
    rank, bound, alpha1 = math.inf, math.inf, -math.inf
    failures = [0] * len(bang_values)
    velocity = [-math.inf] * len(bang_values)
    frame_svd = b_set_svd = 0
    parts = (block[start:start + WORD_CHUNK] for block in blocks
             for start in range(0, len(block), WORD_CHUNK))
    for part in parts:
        x = part.T
        frame = np.asarray(_word_columns(sys, _frame_words(sys.n), x))
        low, high = _frame_screen(frame)
        bound = min(bound, high.min())
        take = np.flatnonzero(low <= bound)
        if take.size:
            # frame_rank's matrices, (N, 4, 4), of the states taken
            s = np.linalg.svd(frame[:, :, take].T, compute_uv=False)
            # np.minimum/np.maximum keep a nan, as the full batch's min/max do
            rank = np.minimum(rank, s[:, -1].min())
            bound = min(bound, rank)
            frame_svd += take.size
        del frame, low, high    # not held through the B-set's kernel
        alpha1 = np.maximum(alpha1, np.abs(
            alpha_coefficients(sys, x).values[:, :, 0]).max())
        family = _b_set_family(sys, x)
        screened = _b_set_screen(family, bang_values)
        for k, (c, fails) in enumerate(zip(bang_values, screened)):
            rest = np.flatnonzero(~fails)
            if rest.size:
                fails[rest] = ~_b_set_verdict(family[:, :, rest], c)[0]
                b_set_svd += rest.size
            if fails.any():
                failures[k] += int(np.count_nonzero(fails))
                velocity[k] = np.maximum(velocity[k], np.abs(
                    part[fails, 2] + part[fails, 3]).max())
        del family, screened    # not held through the next chunk
    return SweepReduction(
        min_frame_rank=float(rank), max_abs_alpha_ij1=float(alpha1),
        b_set=tuple((c, count, float(v) if count else None)
                    for c, count, v in zip(bang_values, failures, velocity)),
        frame_svd_states=frame_svd, b_set_svd_states=b_set_svd)


@dataclass(frozen=True)
class BracketTableau:
    """Bracket family entering the first-channel singular law at one state.

    Components are scalar-typed like the input (floats or batched arrays);
    produced by shared dual evaluations and cross-checked against the
    word_field path in the test suite.  df_cols and dL carry the
    first-order Jacobian data (columns of Df, entries of DL) so the
    extremal's costate rate costs no extra evaluations.
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


def u1_singular_brackets(sys: Arm2DOF, x) -> BracketTableau:
    """Fused evaluation of the brackets needed by the u1-singular law.

    The Dual/HyperDual reference over any scalar algebra of ``duals``
    (floats, arrays, nested duals, or ``Rec`` while ``pmp.law_kernel`` and
    ``integrate.extremal_kernel`` are recorded from it).  One plain, four
    first-order (``dyn_jacobian``) and four second-order evaluations of
    sys.dyn; all remaining brackets are assembled by matrix-vector work.
    """
    if sys.n != 2:
        raise ValueError("fused tableau implemented for n = 2")
    comps = list(_components(x))
    zero = comps[0] * 0.0
    f0, L0 = sys.dyn(comps)
    g1 = [zero, zero, L0[0][0], L0[1][0]]
    g2 = [zero, zero, L0[0][1], L0[1][1]]
    df_cols, dL = dyn_jacobian(sys, comps)

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


def dyn_jacobian(sys: Arm2DOF, comps):
    """(df_cols, dL) at comps: df_cols[i] = Df . e_i and dL[r][c][i] =
    d L_rc / d x_i, from one first-order Dual evaluation of sys.dyn per
    basis direction."""
    zero = comps[0] * 0.0
    one = zero + 1.0
    df_cols = []
    dL = [[[None] * 4 for _ in range(2)], [[None] * 4 for _ in range(2)]]
    for i in range(4):
        pt = [Dual(comps[j], one if j == i else zero) for j in range(4)]
        fD, LD = sys.dyn(pt)
        df_cols.append([c.im for c in fD])
        for r in range(2):
            for c in range(2):
                dL[r][c][i] = LD[r][c].im
    return df_cols, dL


def word_kernel(sys: Arm2DOF, words, batched: bool = False):
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


def _word_columns(sys: Arm2DOF, words, x):
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


def _batched_word_columns(sys: Arm2DOF, words, comps):
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
