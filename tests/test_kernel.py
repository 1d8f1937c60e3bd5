"""The compiled kernels against their references: the law kernel against
_law_terms of the Dual/HyperDual tableau, the extremal step kernel against
_rk4_step over _extremal_rate, the bracket-word kernels against word_field,
the replay step kernel against the Python RK4 stages; and the one store
they are all built and cached in."""
import gc
import math
import os
import re
import subprocess
import sys

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reference as ref
from oracles import replay_reference, sk_rank
from singarc import cli, integrate, pmp
from singarc.arm2dof import Arm2DOF, ArmParams
from singarc.duals import _COMPILED, OffTrace, compiled, cos
from singarc.errors import (EXIT_CODES, CostateDegenerate, LinearSolveFailure,
                            NaNError, RkViolation)
from singarc.integrate import (IntegratorConfig, Trajectory, _extremal_rate,
                               _extremal_step, _rk4_step, extremal_step_kernel,
                               integrate_extremal, replay_kernel, resimulate,
                               save_trajectory)
from singarc.liegeom import (B_SET_WORDS, WORD_CHUNK, _word_columns,
                             alpha_coefficients, b_set_certificate,
                             frame_rank, u1_singular_brackets, word_field,
                             word_kernel)
from singarc.pmp import (LAMBDA4_RTOL, LAW_CHUNK, _law_terms, costate_norm,
                         costate_on_surface, in_Rk, lambda4_degenerate,
                         law_kernel, singular_law_coeffs, singular_u1,
                         singular_u1_batch, state_rate, switching)

LAW_TERMS = ("mu", "nu", "gamma", "r", "s", "alpha1", "alpha2", "b_g2")


def _flat(v):
    if isinstance(v, (list, tuple)):
        for e in v:
            yield from _flat(e)
    else:
        yield v


def _law_reference(plant, x, c):
    """What law_kernel is recorded from, evaluated on floats."""
    return _law_terms(u1_singular_brackets(plant, x), c)


def _assert_same_numbers(got, want):
    """Same nest, every entry a float equal to the reference's (identical
    bits up to the sign of a zero)."""
    got, want = list(_flat(got)), list(_flat(want))
    assert len(got) == len(want)
    for k, (a, b) in enumerate(zip(got, want)):
        assert type(a) is float and type(b) is float, k
        assert a == b, (k, a, b)


angles = st.floats(-math.pi, math.pi)
rates = st.floats(-5.0, 5.0)


# -- the kernel store ------------------------------------------------------

def test_the_kernel_store_builds_on_first_use_and_frees_with_the_plant():
    """duals.compiled builds nothing at import and each kernel once per
    owner, key and form; a dropped plant's kernels go with it."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    subprocess.run([sys.executable, "-c", "import singarc.cli, singarc.duals"
                    " as d; assert len(d._COMPILED) == 0"], check=True,
                   env={**os.environ, "PYTHONPATH": src})

    recorded = []

    def record(x, y):
        recorded.append(1)
        return [x * y]

    owner = Arm2DOF()
    kernel = compiled(owner, "product", ("x", "y"), record)
    assert compiled(owner, "product", ("x", "y"), record) is kernel
    assert kernel(3.0, 4.0) == [12.0] and len(recorded) == 1
    assert compiled(owner, "product", ("x", "y"), record,
                    batched=True) is not kernel
    assert compiled(Arm2DOF(), "product", ("x", "y"), record) is not kernel
    assert len(recorded) == 3
    assert set(_COMPILED[owner]) == {("product", False), ("product", True)}

    plant = Arm2DOF()
    law_kernel(plant)
    replay_kernel(plant)
    gc.collect()
    owners = len(_COMPILED)
    del plant, owner
    gc.collect()
    assert len(_COMPILED) == owners - 2


# -- the law kernel against the Dual/HyperDual reference -------------------

@settings(max_examples=300, deadline=None, derandomize=True)
@given(x=st.tuples(angles, angles, rates, rates), c=st.floats(-10.0, 10.0))
def test_kernel_equals_the_dual_reference_bit_for_bit(arm, x, c):
    x = list(x)
    assume(in_Rk(x, 1e-3))
    got = law_kernel(arm)(*x, c)
    _assert_same_numbers(got, _law_reference(arm, x, c))
    # the law terms, in _law_terms order
    assert len(got) == len(LAW_TERMS)


def test_kernel_is_recorded_once_per_plant_and_lazily():
    plant = Arm2DOF()
    assert plant not in _COMPILED
    u1_singular_brackets(plant, np.asarray(ref.X0)[:, None])  # arrays: no
    assert plant not in _COMPILED
    kernel = law_kernel(plant)
    assert law_kernel(plant) is kernel
    assert set(_COMPILED[plant]) == {("law_kernel", False)}
    assert law_kernel(Arm2DOF()) is not kernel
    # the tableau of the reference state through both public paths
    single = u1_singular_brackets(plant, ref.X0)
    batch = u1_singular_brackets(plant, np.asarray(ref.X0)[:, None])
    np.testing.assert_array_equal(np.asarray(single.ffg1),
                                  np.asarray(batch.ffg1)[:, 0])


def test_plants_with_different_parameters_get_their_own_kernels():
    light = Arm2DOF(ArmParams(mass=(10.0, 3.0), inertia_z=(1.0, 0.5)))
    heavy = Arm2DOF()
    x = [float(v) for v in ref.X0]
    for plant in (light, heavy):
        _assert_same_numbers(law_kernel(plant)(*x, -10.0),
                             _law_reference(plant, x, -10.0))
    assert law_kernel(light) is not law_kernel(heavy)
    assert law_kernel(light)(*x, -10.0) != law_kernel(heavy)(*x, -10.0)


class SingularAtElbow(Arm2DOF):
    """Test plant whose mass matrix loses rank (to rounding) at q2 = Q2."""

    Q2 = 0.7

    def mass_entries(self, q):
        (m11, m12), _ = super().mass_entries(q)
        m22 = m12 * m12 / m11 + 2.0 * (cos(q[1]) - math.cos(self.Q2))
        return [[m11, m12], [m12, m22]]


SINGULAR_PLANT = SingularAtElbow()


def test_mass_guard_survives_code_generation():
    plant = SingularAtElbow()
    x = [0.1, SingularAtElbow.Q2, 0.3, 0.5]
    with pytest.raises(LinearSolveFailure):
        u1_singular_brackets(plant, x)                       # floats
    with pytest.raises(LinearSolveFailure):
        u1_singular_brackets(plant, np.array(x)[:, None])   # arrays
    with pytest.raises(LinearSolveFailure):
        singular_law_coeffs(plant, x, 0.0)          # kernel, then reference
    # the kernel itself stops at the guard, before dividing by the det
    with pytest.raises(OffTrace):
        law_kernel(plant)(*x, 0.0)
    # the reference arm's inertia has no division: the guard is the first
    source = law_kernel(Arm2DOF()).source
    assert source.index("raise OffTrace") < source.index(" / ")
    # away from Q2 the plant is regular and the kernel matches again
    y = [0.1, 1.2, 0.3, 0.5]
    _assert_same_numbers(law_kernel(plant)(*y, -10.0),
                         _law_reference(plant, y, -10.0))


def test_a_stop_on_the_scalar_law_path_runs_the_kernel_once(monkeypatch):
    """Where the kernel stops, singular_u1 runs the reference once, not
    the kernel again first; the reference raises what it raises."""
    calls = []

    def counting(plant, batched=False):
        calls.append(plant)
        return law_kernel(plant, batched)

    monkeypatch.setattr(pmp, "law_kernel", counting)
    x = [0.1, SingularAtElbow.Q2, 0.3, 0.5]
    with pytest.raises(LinearSolveFailure):
        singular_u1(SINGULAR_PLANT, x, ref.LAM0, -10.0)
    assert calls == [SINGULAR_PLANT]


def test_non_float_scalars_take_the_reference_path():
    """np.float64 coordinates give the reference's np.float64 terms, which
    equal the kernel's floats."""
    plant = Arm2DOF()
    x = [np.float64(v) for v in ref.X0]
    coeffs = singular_law_coeffs(plant, x, c=ref.U2_BANG)
    assert type(coeffs.r) is np.float64
    assert plant not in _COMPILED
    want = law_kernel(plant)(*map(float, x), ref.U2_BANG)
    assert (coeffs.mu, coeffs.r, coeffs.s) == (want[0], want[3], want[4])


def test_the_tableau_at_floats_builds_no_kernel():
    plant = Arm2DOF()
    tab = u1_singular_brackets(plant, [float(v) for v in ref.X0])
    u1_singular_brackets(plant, np.asarray(ref.X0))
    assert type(tab.ffg1[0]) is float
    assert plant not in _COMPILED


def test_construct_builds_no_float_law_kernel(monkeypatch, tmp_path):
    """costate_on_surface evaluates the reference tableau once, so
    construct records no float law kernel; the lifted costate is the one
    the kernel's coefficients give, under ==."""
    plants = []
    system = cli.RunConfig.system
    cli._plant.cache_clear()     # a plant of this test's own commands

    def spy(cfg):
        plants.append(system(cfg))
        return plants[-1]

    monkeypatch.setattr(cli.RunConfig, "system", spy)
    assert cli.main(["construct", "--step", "1e-3",
                     "--out", str(tmp_path / "run.csv")]) == 0
    assert len(plants) == 1
    assert ("law_kernel", False) not in _COMPILED[plants[0]]
    plant = Arm2DOF()
    lam = costate_on_surface(plant, ref.X0, ref.LAMBDA2, ref.LAMBDA4)
    assert plant not in _COMPILED
    coeffs = singular_law_coeffs(plant, ref.X0, c=0.0)
    assert set(_COMPILED[plant]) == {("law_kernel", False)}
    npt.assert_array_equal(lam, ref.LAMBDA2 * coeffs.a_basis
                           + ref.LAMBDA4 * coeffs.b_basis)


def test_law_coefficients_match_the_reference_terms(arm):
    x = [float(v) for v in ref.X0]
    coeffs = singular_law_coeffs(arm, x, c=ref.U2_BANG)
    want = _law_reference(arm, x, ref.U2_BANG)
    got = tuple(getattr(coeffs, name if name != "b_g2" else "b_dot_g2")
                for name in LAW_TERMS)
    assert got == want


# -- the extremal step kernel against _rk4_step over _extremal_rate ---------

costates = st.floats(-20.0, 20.0)


def _reference_step(plant, y, c, h):
    """What extremal_step_kernel is recorded from, on floats: _rk4_step
    over _extremal_rate, and u1 at y."""
    k1, u1 = _extremal_rate(plant, y, c)
    return _extremal_step(plant, y, c, h, k1), u1


@settings(max_examples=50, deadline=None, derandomize=True)
@given(x=st.tuples(angles, angles, rates, rates),
       lam=st.tuples(costates, costates, costates, costates),
       c=st.one_of(st.sampled_from((-10.0, 10.0)), st.floats(-10.0, 10.0)),
       h=st.one_of(st.just(1e-4), st.floats(1e-6, 1e-2)))
def test_extremal_step_kernel_equals_the_reference_step(arm, x, lam, c, h):
    """(y after one step, u1 at y) at admissible (x, lambda), c at and
    inside channel 2's bounds: the kernel's numbers are _rk4_step's over
    _extremal_rate and its u1."""
    assume(in_Rk(x, 1e-3) and not lambda4_degenerate(lam))
    y = [*x, *lam]
    got = extremal_step_kernel(arm)(*y, c, h)
    _assert_same_numbers(got, _reference_step(arm, y, c, h))
    assert len(got) == 2 and len(got[0]) == 8


def test_the_extremal_kernel_is_built_by_integrate_extremal_only(
        monkeypatch, tmp_path, lam0):
    """The step kernel is built on the first run, once per plant, alone:
    certify, diagnose and regularize never build it."""
    plant = Arm2DOF()
    config = IntegratorConfig(horizon=0.01)
    assert plant not in _COMPILED
    integrate_extremal(plant, ref.X0, lam0, config, c=ref.U2_BANG)
    assert set(_COMPILED[plant]) == {("extremal_step_kernel", False)}
    kernel = extremal_step_kernel(plant)
    integrate_extremal(plant, ref.X0, lam0, config, c=ref.U2_BANG)
    assert _COMPILED[plant]["extremal_step_kernel", False] is kernel
    assert extremal_step_kernel(Arm2DOF()) is not kernel

    built = []

    def spy(plant):
        built.append(plant)
        return extremal_step_kernel(plant)

    monkeypatch.setattr(integrate, "extremal_step_kernel", spy)
    run = str(tmp_path / "run.csv")
    assert cli.main(["construct", "--step", "1e-3", "--out", run]) == 0
    assert len(built) == 1
    for argv in (["certify", "--samples", "100"],
                 ["diagnose", run, "--out", str(tmp_path / "series.csv")],
                 ["regularize", run, "--out", str(tmp_path / "fixed.csv")]):
        assert cli.main(argv) == 0
    assert len(built) == 1


def test_a_stage_the_kernel_cannot_take_runs_the_reference(monkeypatch,
                                                           arm, lam0):
    """At the singular-mass guard the step kernel stops and the reference
    stage raises LinearSolveFailure, as the run always did; a step with a
    stage at an infinite angle ends the run with a NaNError abort."""
    x = [0.1, SingularAtElbow.Q2, 0.3, 0.5]
    with pytest.raises(OffTrace):
        extremal_step_kernel(SINGULAR_PLANT)(*x, *ref.LAM0, ref.U2_BANG,
                                             1e-3)
    config = IntegratorConfig(step=1e100, horizon=2e100)
    with pytest.raises(ValueError):
        extremal_step_kernel(arm)(*map(float, [*ref.X0, *lam0]), ref.U2_BANG,
                                  config.step)
    calls = []

    def counting(plant, y, c):
        calls.append(plant)
        return _extremal_rate(plant, y, c)

    monkeypatch.setattr(integrate, "_extremal_rate", counting)
    with pytest.raises(LinearSolveFailure):
        integrate_extremal(SINGULAR_PLANT, x, ref.LAM0,
                           IntegratorConfig(horizon=1e-3), c=ref.U2_BANG)
    assert calls == [SINGULAR_PLANT]
    traj = integrate_extremal(arm, ref.X0, lam0, config, c=ref.U2_BANG)
    assert traj.meta["abort"] == {"flag": "NaNError", "t": 1e100}
    # the reference's four stages of the first step; the last one raises
    assert calls == [SINGULAR_PLANT] + [arm] * 4


# -- the batched law against per-sample singular_u1 ------------------------

def _reason_of(exc):
    """The reason code naming the guard a scalar singular_u1 raised for."""
    if isinstance(exc, CostateDegenerate):
        return "lambda4"
    assert type(exc) is RkViolation, exc
    for reason, key in (("domain", "admissible"), ("mu", "mu = 0"),
                        ("alpha1", "alpha1 = 0"), ("b_g2", "<b, g2>")):
        if key in str(exc):
            return reason
    raise AssertionError(f"unnamed guard: {exc}")


def _assert_batch_is_per_sample(plant, X, Lam, c, exclusion):
    """Bit-equal u1 where the law is defined, the reason the scalar path
    raises for where a guard trips, and LinearSolveFailure from the batch
    if the scalar path raises it at any sample."""
    cs = np.broadcast_to(c, (X.shape[1],))
    want = []
    for i in range(X.shape[1]):
        try:
            want.append(("ok", singular_u1(plant, X[:, i], Lam[:, i], cs[i],
                                           exclusion)))
        except (RkViolation, CostateDegenerate) as exc:
            want.append((_reason_of(exc), None))
        except LinearSolveFailure:
            with pytest.raises(LinearSolveFailure):
                singular_u1_batch(plant, X, Lam, c, exclusion)
            return None
    u1, reason = singular_u1_batch(plant, X, Lam, c, exclusion)
    for i, (why, value) in enumerate(want):
        assert reason[i] == why, (i, reason[i], why)
        if value is None:
            assert math.isnan(u1[i])
        else:
            assert np.float64(value).tobytes() == u1[i].tobytes(), i
    return reason


def _nudged(v, ulps):
    for _ in range(abs(ulps)):
        v = math.nextafter(v, math.inf if ulps > 0 else -math.inf)
    return v


ULPS = st.integers(-40, 40)
SIGNS = st.sampled_from((-1.0, 1.0))


def _band_edges(exclusion):
    return st.builds(
        lambda k, s, n: _nudged(k * math.pi / 2 + s * exclusion, n),
        st.integers(-4, 4), SIGNS, ULPS)


@st.composite
def law_sample(draw, exclusion, edges=_band_edges):
    """(x, lambda, c), each coordinate the law guards test either free or
    within 40 ulps of its edge; edges(exclusion) gives theta2's edges."""
    theta2 = draw(st.one_of(angles, edges(exclusion)))
    qd1 = draw(rates)
    qd2 = draw(st.one_of(
        rates,
        st.builds(lambda s, n: _nudged(s * exclusion, n) - qd1,
                  SIGNS, ULPS)))
    lam = [draw(st.floats(-20.0, 20.0)) for _ in range(3)]
    edge = LAMBDA4_RTOL * costate_norm(lam + [0.0])
    free = st.floats(-20.0, 20.0)
    lam.append(draw(st.one_of(
        free, free, st.just(0.0),
        st.builds(lambda s, n: _nudged(s * edge, n), SIGNS, ULPS))))
    c = draw(st.one_of(st.sampled_from((-10.0, 10.0)),
                       st.floats(-10.0, 10.0)))
    return [draw(angles), theta2, qd1, qd2], lam, c


@st.composite
def law_batches(draw, edges=_band_edges):
    exclusion = draw(st.sampled_from((1e-3, 1e-6)))
    samples = draw(st.lists(law_sample(exclusion, edges), min_size=1,
                            max_size=12))
    X, Lam, c = (np.array(v, dtype=float).T for v in zip(*samples))
    return X, Lam, c, exclusion


@settings(max_examples=150, deadline=None, derandomize=True)
@given(batch=law_batches())
def test_batched_law_equals_singular_u1_at_the_band_edges(arm, batch):
    X, Lam, c, exclusion = batch
    _assert_batch_is_per_sample(arm, X, Lam, c, exclusion)
    # one c for the whole batch is the same as that c per sample
    _assert_batch_is_per_sample(arm, X, Lam, float(c[0]), exclusion)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(batch=law_batches(edges=lambda exclusion: st.builds(
    lambda k: SingularAtElbow.Q2 + k * 1e-14, st.integers(-300, 300))))
def test_batched_law_equals_singular_u1_near_a_singular_mass(batch):
    """Around the elbow where the test plant's mass matrix loses rank (the
    guard trips within about 7e-13 of it): the masked samples go through
    the scalar path and raise what it raises."""
    X, Lam, c, exclusion = batch
    _assert_batch_is_per_sample(SINGULAR_PLANT, X, Lam, c, exclusion)


def test_band_edge_batches_reach_every_state_guard(arm):
    """The sweep of the property test crosses each state guard's edge."""
    seen = set()
    edge = LAMBDA4_RTOL * costate_norm([0.0, 0.5, 0.5, 0.0])
    for theta2 in (math.pi / 2 + 1e-6, _nudged(math.pi / 2 + 1e-6, 1)):
        for l4 in (edge, _nudged(edge, 1)):
            X = np.array([[0.1, theta2, 0.3, 0.5]]).T
            Lam = np.array([[0.0, 0.5, 0.5, l4]]).T
            seen |= set(_assert_batch_is_per_sample(arm, X, Lam, -10.0,
                                                    1e-6))
    assert seen == {"ok", "domain", "lambda4"}


def test_batched_law_on_the_extremal_is_the_integrators_u1(arm, extremal):
    """Several chunks, one kernel call each: bit for bit the integrator's
    u1 at every sample."""
    assert len(extremal) > 2 * LAW_CHUNK
    u1, reason = singular_u1_batch(arm, extremal.x.T, extremal.lam.T,
                                   ref.U2_BANG, 1e-6)
    assert set(reason) == {"ok"}
    npt.assert_array_equal(u1.view(np.int64),
                           extremal.u[:, 0].view(np.int64))


def test_batched_law_kernel_is_built_lazily_and_apart():
    """One recording, two forms, each built on its first use."""
    plant = Arm2DOF()
    singular_u1(plant, ref.X0, ref.LAM0, ref.U2_BANG)
    assert set(_COMPILED[plant]) == {("law_kernel", False)}
    X, Lam = np.asarray(ref.X0)[:, None], np.asarray(ref.LAM0)[:, None]
    singular_u1_batch(plant, X, Lam, ref.U2_BANG)
    assert set(_COMPILED[plant]) == {("law_kernel", False),
                                     ("law_kernel", True)}
    other = Arm2DOF()
    singular_u1_batch(other, X, Lam, ref.U2_BANG)
    assert set(_COMPILED[other]) == {("law_kernel", True)}
    assert law_kernel(other, batched=True) is not law_kernel(other)


def test_batched_law_masks_the_singular_mass_guard():
    """A sample at the singular elbow is re-run on the scalar path: it
    raises what singular_u1 raises there, unless a guard before the
    kernel trips first; the regular samples around it are unaffected."""
    plant = SingularAtElbow()
    X = np.array([[0.1, 1.2, 0.3, 0.5], [0.1, SingularAtElbow.Q2, 0.3, 0.5],
                  [0.2, 1.0, -0.4, 0.9]]).T
    Lam = np.tile(np.array(ref.LAM0)[:, None], (1, 3))
    with pytest.raises(LinearSolveFailure):
        singular_u1(plant, X[:, 1], Lam[:, 1], -10.0)
    with pytest.raises(LinearSolveFailure):
        singular_u1_batch(plant, X, Lam, -10.0)
    Lam[3, 1] = 0.0
    reason = _assert_batch_is_per_sample(plant, X, Lam, -10.0, 1e-3)
    assert list(reason) == ["ok", "lambda4", "ok"]
    _assert_batch_is_per_sample(plant, X[:, [0, 2]], Lam[:, [0, 2]], -10.0,
                                1e-3)


def test_batched_law_reports_a_vanishing_mu():
    """Inertia 1e13 times the arm's puts M^-1 inside the degeneracy band."""
    heavy = Arm2DOF(ArmParams(mass=(5e14, 3e14), inertia_z=(5e13, 3e13)))
    X = np.tile(np.array(ref.X0)[:, None], (1, 4))
    X[1] += np.linspace(0.0, 0.3, 4)
    Lam = np.tile(np.array(ref.LAM0)[:, None], (1, 4))
    reason = _assert_batch_is_per_sample(heavy, X, Lam, -10.0, 1e-3)
    assert set(reason) == {"mu"}


# -- the bracket-word kernels against word_field ---------------------------

def _compiled_word_sets(plant):
    """Every word tuple compiled on plant, built by its consumers: the
    frame, alpha, the B-set and switching, and the tests' S_k frames."""
    x = [float(v) for v in ref.X0]
    frame_rank(plant, x)
    alpha_coefficients(plant, x)
    b_set_certificate(plant, x, 20.0)
    switching(plant, x, ref.LAM0)
    for k in (1, 2):
        sk_rank(plant, x, k)
    return list(dict.fromkeys(key[1] for key, _ in _COMPILED[plant]
                              if key[0] == "word_kernel"))


WORD_PLANT = Arm2DOF()
WORD_SETS = _compiled_word_sets(WORD_PLANT)


def _reference_columns(plant, words, x):
    return np.asarray([word_field(plant, w)(x) for w in words], dtype=float)


def test_the_package_compiles_every_certify_and_switching_word():
    words = {w for ws in WORD_SETS for w in ws}
    assert set(B_SET_WORDS) <= words
    assert {"g1", "g2", "fg1", "fg2", "g1fg1", "g1fg2", "g2fg2"} <= words


@settings(max_examples=150, deadline=None, derandomize=True)
@given(x=st.tuples(angles, angles, rates, rates))
def test_word_kernels_equal_word_field_at_float_states(x):
    x = list(x)
    for words in WORD_SETS:
        want = [word_field(WORD_PLANT, w)(x) for w in words]
        _assert_same_numbers(word_kernel(WORD_PLANT, words)(*x), want)
        _assert_same_numbers(_word_columns(WORD_PLANT, words, x), want)


@pytest.mark.parametrize("size", [1, WORD_CHUNK - 1, WORD_CHUNK,
                                  WORD_CHUNK + 1, 2 * WORD_CHUNK - 1,
                                  2 * WORD_CHUNK, 2 * WORD_CHUNK + 1,
                                  4 * WORD_CHUNK + 1])
@settings(max_examples=2, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1))
def test_word_kernels_equal_word_field_on_batches(size, seed):
    """Equal under == (nan equal to nan, the sign of a zero ignored) on
    batches on both sides of one and of two chunks."""
    X = ref.sample_states(np.random.default_rng(seed), size).T
    for words in WORD_SETS:
        got = _word_columns(WORD_PLANT, words, X)
        assert got.shape == (len(words), 4, size)
        npt.assert_array_equal(got, _reference_columns(WORD_PLANT, words, X))


def test_non_finite_states_get_the_reference_values():
    """A non-finite state, here in the second chunk, is re-run on
    word_field: its nan (where the compiled code would keep a structural
    zero) and its neighbours' values are the reference's."""
    X = ref.sample_states(np.random.default_rng(30), WORD_CHUNK + 4).T
    X[0, WORD_CHUNK + 1] = math.inf
    X[1, WORD_CHUNK + 2] = -math.inf
    X[3, 3] = math.nan
    with np.errstate(all="ignore"):
        for words in WORD_SETS:
            want = _reference_columns(WORD_PLANT, words, X)
            npt.assert_array_equal(_word_columns(WORD_PLANT, words, X), want)
    assert np.isnan(want[:, :, WORD_CHUNK + 1]).any()
    # a float state with an infinite coordinate takes the reference too
    y = [math.inf, 0.2, 0.3, 0.5]
    with np.errstate(all="ignore"):
        npt.assert_array_equal(
            np.asarray(_word_columns(WORD_PLANT, B_SET_WORDS, y)),
            _reference_columns(WORD_PLANT, B_SET_WORDS, y))


@st.composite
def elbow_states(draw):
    """States of SingularAtElbow with q2 free or within 3e-12 of Q2, where
    the mass guard trips on some of them."""
    q2 = draw(st.one_of(angles, st.builds(
        lambda k: SingularAtElbow.Q2 + k * 1e-14, st.integers(-300, 300))))
    return [draw(angles), q2, draw(rates), draw(rates)]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(states=st.lists(elbow_states(), min_size=1, max_size=8))
def test_word_kernels_raise_where_word_field_raises(states):
    words = ("g1", "fg1") + B_SET_WORDS
    X = np.array(states).T
    for x in [*states, X]:
        try:
            want = _reference_columns(SINGULAR_PLANT, words, x)
        except LinearSolveFailure:
            with pytest.raises(LinearSolveFailure):
                _word_columns(SINGULAR_PLANT, words, x)
            continue
        npt.assert_array_equal(np.asarray(_word_columns(SINGULAR_PLANT,
                                                        words, x)), want)


def _word_forms(plant):
    return {(key[1], batched) for key, batched in _COMPILED.get(plant, {})
            if key[0] == "word_kernel"}


def test_word_kernels_are_built_lazily_per_plant_word_tuple_and_form():
    plant = Arm2DOF()
    u1_singular_brackets(plant, ref.X0)
    law_kernel(plant)
    assert _word_forms(plant) == set()
    kernel = word_kernel(plant, ("fg1", "fg2"))
    assert word_kernel(plant, ["fg1", "fg2"]) is kernel
    assert word_kernel(plant, ("fg2", "fg1")) is not kernel
    assert word_kernel(Arm2DOF(), ("fg1", "fg2")) is not kernel
    # each form is compiled on its first use: floats build no batched one
    frame_rank(plant, [float(v) for v in ref.X0])
    assert _word_forms(plant) == {(("fg1", "fg2"), False),
                                  (("fg2", "fg1"), False),
                                  (("g1", "g2", "fg1", "fg2"), False)}
    frame_rank(plant, ref.sample_states(np.random.default_rng(33), 3).T)
    assert (("g1", "g2", "fg1", "fg2"), True) in _word_forms(plant)
    assert word_kernel(plant, ("fg1", "fg2"), batched=True) is not kernel


def test_word_kernels_write_a_structural_zero_as_the_references():
    """The g_i tops are the reference's x0 * 0.0, not a bare constant."""
    for batched in (False, True):
        assert "0.0 * x0" in word_kernel(WORD_PLANT, ("g1",), batched).source
    assert [math.copysign(1.0, v) for v in
            word_kernel(WORD_PLANT, ("g1",))(-0.5, 0.2, 0.3, 0.4)[0][:2]] \
        == [-1.0, -1.0]


# -- what the generated source keeps alive ---------------------------------

TEMPORARY = re.compile(r"\bt\d+\b")


def test_batched_kernels_delete_each_dead_temporary_after_its_last_use():
    """In the law kernel and every word tuple's batched kernel, each
    temporary that is not returned is deleted by the statement right after
    the last one that reads it, and nothing reads it afterwards."""
    plant = Arm2DOF()
    sources = [law_kernel(plant, batched=True).source] + [
        word_kernel(plant, words, batched=True).source
        for words in WORD_SETS]
    for source in sources:
        *body, ret = source.splitlines()[1:]
        assert ret.startswith("    return ")
        defined = {line.split()[0] for line in body
                   if TEMPORARY.fullmatch(line.split()[0])}
        deleted = set()
        for n, line in enumerate(body):
            if line.startswith("    del "):
                names = line[len("    del "):].split(", ")
                assert set(names) <= set(TEMPORARY.findall(body[n - 1]))
                deleted.update(names)
            else:
                assert not deleted & set(TEMPORARY.findall(line)), line
        assert deleted == defined - set(TEMPORARY.findall(ret))
        assert not deleted & set(TEMPORARY.findall(ret))


def test_no_kernel_passes_255_local_names():
    """Past 255 local names every further name costs an EXTENDED_ARG
    prefix: the law kernel in both forms, the step and replay kernels and
    every word tuple in both forms stay within 255."""
    plant = Arm2DOF()
    kernels = [law_kernel(plant), law_kernel(plant, batched=True),
               extremal_step_kernel(plant), replay_kernel(plant)] + [
        word_kernel(plant, words, batched)
        for words in WORD_SETS for batched in (False, True)]
    for kernel in kernels:
        assert kernel.__code__.co_nlocals <= 255, kernel.__name__


def test_float_kernels_delete_nothing():
    plant = Arm2DOF()
    sources = [law_kernel(plant).source, extremal_step_kernel(plant).source,
               replay_kernel(plant).source] + [
        word_kernel(plant, words).source for words in WORD_SETS]
    for source in sources:
        assert not re.search(r"^\s+del ", source, re.MULTILINE)


# -- the replay step kernel against _rk4_step over the Python stages -------

def _python_step(plant, x, u, h):
    """The Python step resimulate falls back to: u[s] is the control at
    t, t + h/2 and t + h."""
    def rate(z, stage):
        return state_rate(*plant.dyn(z), u[stage])
    return _rk4_step(rate, x, h, rate(x, 0))


torques = st.floats(-1e3, 1e3)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(x=st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3),
                   st.floats(-50.0, 50.0), st.floats(-50.0, 50.0)),
       u=st.tuples(*[st.tuples(torques, torques)] * 3),
       h=st.floats(1e-8, 0.1))
def test_replay_kernel_equals_the_python_step(arm, x, u, h):
    got = replay_kernel(arm)(*x, *u[0], *u[1], *u[2], h)
    _assert_same_numbers(got, _python_step(arm, list(x), u, h))


def test_replay_kernel_is_built_lazily_once_per_plant(lam0):
    plant = Arm2DOF()
    integrate_extremal(plant, ref.X0, lam0, IntegratorConfig(horizon=0.01),
                       c=ref.U2_BANG)
    assert ("replay_kernel", False) not in _COMPILED[plant]
    control = (np.array([0.0, 0.01]), np.array([[1.0, -2.0], [3.0, -4.0]]))
    config = IntegratorConfig(horizon=0.01, interp="linear")
    first = resimulate(plant, ref.X0, control, config)
    kernel = _COMPILED[plant]["replay_kernel", False]
    assert replay_kernel(plant) is kernel
    again = resimulate(plant, ref.X0, control, config)
    assert _COMPILED[plant]["replay_kernel", False] is kernel
    npt.assert_array_equal(again.x.view(np.int64), first.x.view(np.int64))
    assert replay_kernel(Arm2DOF()) is not kernel
    # a plant with other parameters steps with its own dynamics
    light = Arm2DOF(ArmParams(mass=(10.0, 3.0), inertia_z=(1.0, 0.5)))
    x, u = [0.1, 1.2, 0.3, 0.5], [(1.0, 2.0), (3.0, 4.0), (5.0, 6.0)]
    got = replay_kernel(light)(*x, *u[0], *u[1], *u[2], 1e-3)
    _assert_same_numbers(got, _python_step(light, x, u, 1e-3))
    assert got != kernel(*x, *u[0], *u[1], *u[2], 1e-3)


def test_construct_and_certify_build_no_replay_kernel(monkeypatch, tmp_path):
    built = []

    def spy(plant):
        built.append(plant)
        return replay_kernel(plant)

    monkeypatch.setattr(integrate, "replay_kernel", spy)
    cli._plant.cache_clear()     # a plant of this test's own commands
    run = str(tmp_path / "run.csv")
    assert cli.main(["construct", "--step", "1e-3", "--out", run]) == 0
    assert cli.main(["certify", "--samples", "100"]) == 0
    assert built == []
    # the costate-free diagnose replays, through the same name
    plain = str(tmp_path / "plain.csv")
    traj = integrate.load_trajectory(run)
    save_trajectory(Trajectory(t=traj.t, x=traj.x, u=traj.u), plain)
    assert cli.main(["diagnose", plain]) == 0
    assert len(built) == 1


def test_a_replay_through_a_singular_mass_raises_linear_solve_failure():
    """The kernel stops at the singular-mass guard (OffTrace); the step
    re-runs on the Python stages, which raise LinearSolveFailure."""
    x = [0.1, SingularAtElbow.Q2, 0.3, 0.5]
    with pytest.raises(OffTrace):
        replay_kernel(SINGULAR_PLANT)(*x, *[0.0] * 6, 1e-4)
    control = (np.array([0.0, 1e-3]), np.zeros((2, 2)))
    config = IntegratorConfig(step=1e-4, horizon=1e-3)
    with pytest.raises(LinearSolveFailure):
        resimulate(SINGULAR_PLANT, x, control, config)
    # away from Q2 the kernel steps and matches the per-stage replay
    y = [0.1, 1.2, 0.3, 0.5]
    replay = resimulate(SINGULAR_PLANT, y, control, config)
    want = replay_reference(SINGULAR_PLANT, y, control, config)
    npt.assert_array_equal(replay.x.view(np.int64), want[1].view(np.int64))


def test_a_stage_at_an_infinite_angle_raises_what_the_stages_raise(arm):
    """The midpoint q2 overflows to inf: math.cos raises ValueError in the
    kernel, and the step re-run on the Python stages raises it too."""
    x = [0.0, 1e308, 0.0, 1.5e308]
    with pytest.raises(ValueError):
        replay_kernel(arm)(*x, *[0.0] * 6, 2.0)
    control = (np.array([0.0, 2.0]), np.zeros((2, 2)))
    config = IntegratorConfig(step=2.0, horizon=2.0)
    with pytest.raises(ValueError, match="math domain error"):
        replay_reference(arm, x, control, config)
    with pytest.raises(ValueError, match="math domain error"):
        resimulate(arm, x, control, config)


def test_an_overflowing_costate_free_replay_exits_with_nan_error(tmp_path,
                                                                 capsys):
    """A torque of 1e300 drives the replayed state to inf and nan: the
    replay's trajectory refuses it and diagnose exits with NaNError's code,
    without a traceback."""
    n = 101
    path = str(tmp_path / "huge.csv")
    save_trajectory(Trajectory(t=np.arange(n) * 1e-4,
                               x=np.tile(ref.X0, (n, 1)),
                               u=np.tile([1e300, 0.0], (n, 1))), path)
    code = cli.main(["diagnose", path, "--out", str(tmp_path / "s.csv")])
    err = capsys.readouterr().err
    assert code == EXIT_CODES[NaNError] == 5
    assert "NaNError" in err and "Traceback" not in err
