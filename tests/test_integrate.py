"""Extremal integration, replays, persistence, and the abort guards."""
import json
import os
import subprocess
import sys
import tempfile

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference as ref
from oracles import replay_reference
from singarc import integrate
from singarc.arm2dof import ControlBounds
from singarc.duals import STOPS
from singarc.errors import (CostateDegenerate, MissingCostates,
                            MonotonicityError, NaNError, OutOfBounds,
                            RkViolation, SchemaError)
from singarc.integrate import (IntegratorConfig, Trajectory,
                               hamiltonian_trace, integrate_extremal,
                               load_trajectory, model_signature, resimulate,
                               save_trajectory)
from singarc.pmp import LAW_EXCLUSION, hamiltonian


@pytest.mark.parametrize("bad", [
    {"step": 0.0},
    {"step": float("inf")},
    {"horizon": -0.1},
    {"interp": "cubic"},
    {"step": float("nan")},
    {"horizon": float("nan")},
    {"horizon": float("inf")},
])
def test_config_validation(bad):
    with pytest.raises(ValueError):
        IntegratorConfig(**bad)


def test_config_step_count():
    assert IntegratorConfig(step=1e-3, horizon=0.7).n_steps == 700
    assert IntegratorConfig(horizon=0.0).n_steps == 0


def test_zero_horizon_returns_the_initial_sample(arm, lam0):
    traj = integrate_extremal(arm, ref.X0, lam0,
                              IntegratorConfig(horizon=0.0), c=ref.U2_BANG)
    assert len(traj) == 1 and traj.horizon == 0.0
    npt.assert_array_equal(traj.x[0], ref.X0)
    npt.assert_array_equal(traj.lam[0], ref.LAM0)
    npt.assert_array_equal(traj.u[0], [ref.U1_START, ref.U2_BANG])


def test_integration_is_deterministic(arm, lam0):
    cfg = IntegratorConfig(horizon=0.02)
    a = integrate_extremal(arm, ref.X0, lam0, cfg, c=ref.U2_BANG)
    b = integrate_extremal(arm, ref.X0, lam0, cfg, c=ref.U2_BANG)
    npt.assert_array_equal(a.x, b.x)
    npt.assert_array_equal(a.u, b.u)
    npt.assert_array_equal(a.lam, b.lam)


@pytest.mark.parametrize("stop", STOPS)
def test_the_reference_stages_give_the_kernel_run(arm, lam0, monkeypatch,
                                                  stop):
    """A step kernel that stops at every step sends each one to the
    reference stages: the same run, bit for bit."""
    config = IntegratorConfig(horizon=0.02)
    assert config.n_steps == 200
    fast = integrate_extremal(arm, ref.X0, lam0, config, c=ref.U2_BANG)
    calls = []

    def stopped(*y):
        calls.append(y)
        raise stop

    monkeypatch.setattr(integrate, "extremal_step_kernel",
                        lambda plant: stopped)
    slow = integrate_extremal(arm, ref.X0, lam0, config, c=ref.U2_BANG)
    assert len(calls) == 200 + 1     # one call per sample, the last too
    assert slow.meta == fast.meta
    for name in ("t", "x", "u", "lam"):
        npt.assert_array_equal(getattr(slow, name).view(np.int64),
                               getattr(fast, name).view(np.int64))


def test_reference_run_endpoint_and_metadata(extremal):
    assert len(extremal) == 7001
    npt.assert_allclose(extremal.x[-1], ref.X_END, rtol=0, atol=5e-13)
    npt.assert_allclose(extremal.lam[-1], ref.LAM_END, rtol=0, atol=5e-13)
    assert extremal.meta["source"] == "constructed"
    assert extremal.meta["flags"] == []
    assert extremal.meta["c"] == ref.U2_BANG
    # the first costate is conserved: q1 never enters the dynamics
    assert np.ptp(extremal.lam[:, 0]) == 0.0


def test_hamiltonian_is_conserved_along_the_run(arm, extremal):
    H = hamiltonian_trace(arm, extremal)
    assert H[0] == pytest.approx(ref.H_CONST, rel=1e-12)
    assert float(np.max(np.abs(H - H[0]))) <= 1e-12


def test_hamiltonian_trace_is_affine_in_the_costate(arm, extremal):
    rows = slice(0, 50)
    base = Trajectory(t=extremal.t[rows], x=extremal.x[rows],
                      u=extremal.u[rows], lam=extremal.lam[rows])
    H1 = hamiltonian_trace(arm, base)
    zero = Trajectory(t=base.t, x=base.x, u=base.u,
                      lam=np.zeros_like(base.lam))
    npt.assert_array_equal(hamiltonian_trace(arm, zero), -np.ones(50))
    twice = Trajectory(t=base.t, x=base.x, u=base.u, lam=2.0 * base.lam)
    npt.assert_allclose(hamiltonian_trace(arm, twice), 2.0 * H1 + 1.0,
                        rtol=1e-14, atol=1e-14)


def test_hamiltonian_trace_is_the_pointwise_hamiltonian(arm, extremal):
    H = hamiltonian_trace(arm, extremal)
    pointwise = [hamiltonian(arm, extremal.x[k], extremal.u[k],
                             extremal.lam[k]) for k in range(len(extremal))]
    npt.assert_allclose(H, pointwise, rtol=1e-13)


def test_hamiltonian_trace_needs_costates(arm, extremal):
    bare = Trajectory(t=extremal.t, x=extremal.x, u=extremal.u)
    with pytest.raises(MissingCostates):
        hamiltonian_trace(arm, bare)


def test_step_halving_converges_at_fourth_order(arm, lam0):
    ends = []
    for step in (5e-3, 2.5e-3, 1.25e-3, 6.25e-4):
        traj = integrate_extremal(arm, ref.X0, lam0,
                                  IntegratorConfig(step=step),
                                  c=ref.U2_BANG)
        ends.append(np.concatenate([traj.x[-1], traj.lam[-1]]))
    errs = [np.linalg.norm(ends[i] - ends[i + 1]) for i in range(3)]
    for ratio in (errs[0] / errs[1], errs[1] / errs[2]):
        assert 12.0 <= ratio <= 20.0


def test_reference_step_sits_on_the_convergence_floor(arm, lam0, extremal):
    fine = integrate_extremal(arm, ref.X0, lam0, IntegratorConfig(step=5e-5),
                              c=ref.U2_BANG)
    gap = np.linalg.norm(fine.x[-1] - extremal.x[-1])
    assert gap <= 1e-12


def test_replaying_the_recorded_control_recovers_the_states(arm, extremal):
    cfg = IntegratorConfig(horizon=0.0, interp="linear")
    replay = resimulate(arm, ref.X0, extremal, cfg)
    assert len(replay) == len(extremal)
    scale = np.linalg.norm(extremal.x[-1])
    assert np.linalg.norm(replay.x[-1] - extremal.x[-1]) <= 1e-6 * scale
    assert replay.meta["source"] == "resimulated"
    assert replay.lam is None

    held = resimulate(arm, ref.X0, extremal,
                      IntegratorConfig(horizon=0.0, interp="zoh"))
    zoh_gap = np.linalg.norm(held.x[-1] - extremal.x[-1])
    assert zoh_gap <= 1e-3 * scale
    # linear interpolation is what actually closes the loop
    assert zoh_gap > np.linalg.norm(replay.x[-1] - extremal.x[-1])


def test_replay_of_zero_torque_from_rest_stays_put(arm):
    x0 = [0.3, -0.8, 0.0, 0.0]
    control = (np.array([0.0, 0.1]), np.zeros((2, 2)))
    traj = resimulate(arm, x0, control,
                      IntegratorConfig(step=1e-2, horizon=0.1))
    npt.assert_array_equal(traj.x, np.tile(x0, (len(traj), 1)))


def test_interpolation_semantics_of_the_replay_signal(arm):
    knots = (np.array([0.0, 1.0]), np.array([[0.0, 0.0], [1.0, 0.5]]))
    cfg = dict(step=0.25, horizon=1.0)
    held = resimulate(arm, ref.X0, knots, IntegratorConfig(interp="zoh", **cfg))
    npt.assert_array_equal(held.u[:, 0], [0.0, 0.0, 0.0, 0.0, 1.0])
    lin = resimulate(arm, ref.X0, knots, IntegratorConfig(interp="linear",
                                                          **cfg))
    npt.assert_allclose(lin.u[:, 0], [0.0, 0.25, 0.5, 0.75, 1.0], atol=1e-15)
    npt.assert_allclose(lin.u[:, 1], [0.0, 0.125, 0.25, 0.375, 0.5],
                        atol=1e-15)


def test_linear_replay_holds_a_late_first_knot(arm):
    """Before the first knot the replay holds the first sample; it never
    interpolates between the last and the first knot."""
    control = (np.array([0.5, 1.0]), np.array([[1.0, 0.0], [3.0, 0.0]]))
    config = IntegratorConfig(step=0.125, horizon=1.0, interp="linear")
    traj = resimulate(arm, ref.X0, control, config)
    npt.assert_array_equal(traj.u[:, 0],
                           [1.0, 1.0, 1.0, 1.0, 1.0, 1.5, 2.0, 2.5, 3.0])
    _assert_replay_is_the_reference(arm, ref.X0, control, config)


def _assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    npt.assert_array_equal(got.view(np.int64), want.view(np.int64))


def _assert_replay_is_the_reference(arm, x0, control, config):
    replay = resimulate(arm, x0, control, config)
    for got, want in zip((replay.t, replay.x, replay.u),
                         replay_reference(arm, x0, control, config)):
        _assert_same_bits(got, want)


@pytest.mark.parametrize("interp", ["zoh", "linear"])
def test_replay_equals_the_per_stage_reference(arm, spiked, interp):
    """The control table sampled once per replay gives what one lookup per
    RK4 stage gave, bit for bit, over the full horizon and a partial one."""
    traj, _ = spiked
    for horizon in (0.0, 0.35):
        _assert_replay_is_the_reference(
            arm, ref.X0, traj, IntegratorConfig(horizon=horizon,
                                                interp=interp))


@st.composite
def replays(draw):
    """1-50 strictly increasing knots from t = 0, a step that lands on the
    last knot or near it, and a horizon of 0 (the whole control), inside
    the knots, at the last knot or just past it."""
    n = draw(st.integers(1, 50))
    gaps = draw(st.lists(st.floats(1e-3, 0.05), min_size=n - 1,
                         max_size=n - 1))
    t = np.concatenate(([0.0], np.cumsum(gaps)))
    u = np.array(draw(st.lists(st.tuples(st.floats(-20.0, 20.0),
                                         st.floats(-10.0, 10.0)),
                               min_size=n, max_size=n)))
    tmax = float(t[-1])
    if tmax == 0.0:
        return (t, u), draw(st.floats(1e-3, 0.1)), 0.0
    step = tmax / draw(st.integers(1, 60)) * draw(
        st.one_of(st.just(1.0), st.floats(0.9, 1.1)))
    # resimulate accepts up to 1e-12 * max(1, tmax) past the last knot
    past = tmax + 5e-13 * max(1.0, tmax)
    horizon = draw(st.one_of(st.just(0.0), st.just(tmax),
                             st.floats(0.0, tmax), st.floats(tmax, past)))
    return (t, u), step, horizon


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=replays(), interp=st.sampled_from(["zoh", "linear"]))
def test_replay_equals_the_per_stage_reference_on_any_knots(arm, case,
                                                            interp):
    control, step, horizon = case
    _assert_replay_is_the_reference(
        arm, ref.X0, control,
        IntegratorConfig(step=step, horizon=horizon, interp=interp))


def test_replay_cannot_outrun_the_recorded_control(arm, extremal):
    with pytest.raises(SchemaError):
        resimulate(arm, ref.X0, extremal, IntegratorConfig(horizon=0.8))


@pytest.mark.parametrize("width", [1, 3])
def test_replay_needs_one_control_column_per_channel(arm, width):
    control = (np.array([0.0, 1e-3]), np.ones((2, width)))
    with pytest.raises(SchemaError):
        resimulate(arm, ref.X0, control, IntegratorConfig(horizon=1e-3))


def test_csv_round_trip_is_bit_exact(extremal, extremal_file):
    back = load_trajectory(extremal_file)
    npt.assert_array_equal(back.t, extremal.t)
    npt.assert_array_equal(back.x, extremal.x)
    npt.assert_array_equal(back.u, extremal.u)
    npt.assert_array_equal(back.lam, extremal.lam)
    assert back.meta == extremal.meta
    assert os.path.exists(extremal_file + ".meta.json")
    with open(extremal_file + ".meta.json") as fh:
        assert json.load(fh) == extremal.meta


_CSV_EDGES = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
              1e308, -1e308, 1.7976931348623157e308)
_finite = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                    st.sampled_from(_CSV_EDGES))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(n=st.integers(1, 12), costates=st.booleans(),
       t0=st.sampled_from([0.0, -0.0]),
       later=st.lists(st.floats(5e-324, 1e308), min_size=11, max_size=11,
                      unique=True),
       cells=st.lists(_finite, min_size=12 * 10, max_size=12 * 10))
def test_csv_round_trip_is_bit_exact_for_any_finite_run(n, costates, t0,
                                                       later, cells):
    """Any finite run survives save/load bit for bit: signed zeros,
    subnormals and values near the overflow threshold included."""
    t = np.array([t0] + sorted(later)[:n - 1])
    block = np.array(cells[:n * 10]).reshape(n, 10)
    traj = Trajectory(t=t, x=block[:, :4], u=block[:, 4:6],
                      lam=block[:, 6:] if costates else None,
                      meta={"source": "ingested", "flags": ["x"]})
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.csv")
        save_trajectory(traj, path)
        back = load_trajectory(path)
    assert (back.lam is not None) is costates
    assert back.meta == traj.meta
    for name in ("t", "x", "u") + (("lam",) if costates else ()):
        _assert_same_bits(getattr(back, name), getattr(traj, name))


@pytest.mark.parametrize("rows", [1, integrate.CSV_CHUNK,
                                  2 * integrate.CSV_CHUNK + 3])
def test_the_csv_has_savetxts_bytes(rows, extremal, tmp_path):
    """save_trajectory writes np.savetxt's "%.17g" table under its
    header, across chunk boundaries, and the same bytes from pieces that
    trajectory_csv formatted ahead."""
    traj = Trajectory(t=extremal.t[:rows], x=extremal.x[:rows],
                      u=extremal.u[:rows], lam=extremal.lam[:rows])
    expected = tmp_path / "savetxt.csv"
    np.savetxt(expected, np.column_stack([traj.t, traj.x, traj.u, traj.lam]),
               fmt="%.17g", delimiter=",", comments="",
               header="t,q1,q2,qd1,qd2,u1,u2,l1,l2,l3,l4")
    streamed, ahead = tmp_path / "streamed.csv", tmp_path / "ahead.csv"
    save_trajectory(traj, str(streamed))
    save_trajectory(traj, str(ahead), list(integrate.trajectory_csv(traj)))
    assert streamed.read_bytes() == expected.read_bytes()
    assert ahead.read_bytes() == expected.read_bytes()


def test_loading_without_sidecar_flags_the_gap(extremal, tmp_path):
    path = str(tmp_path / "bare.csv")
    save_trajectory(extremal, path)
    os.remove(path + ".meta.json")
    back = load_trajectory(path)
    assert back.meta["source"] == "ingested"
    assert "no-metadata" in back.meta["flags"]


def test_costate_free_files_round_trip(arm, extremal, tmp_path):
    bare = Trajectory(t=extremal.t[:5], x=extremal.x[:5], u=extremal.u[:5])
    path = str(tmp_path / "states.csv")
    save_trajectory(bare, path)
    back = load_trajectory(path)
    assert back.lam is None
    npt.assert_array_equal(back.x, bare.x)


def test_loader_rejects_unknown_headers(extremal_file, tmp_path):
    with open(extremal_file) as fh:
        lines = fh.readlines()
    bad = tmp_path / "bad.csv"
    bad.write_text("time,a,b\n" + "".join(lines[1:]))
    with pytest.raises(SchemaError):
        load_trajectory(str(bad))


def test_loader_rejects_column_count_mismatch(extremal_file, tmp_path):
    with open(extremal_file) as fh:
        header = fh.readline()
        rows = fh.readlines()
    truncated = [",".join(r.split(",")[:7]) + "\n" for r in rows]
    bad = tmp_path / "short.csv"
    bad.write_text(header + "".join(truncated))
    with pytest.raises(SchemaError):
        load_trajectory(str(bad))


def test_trajectory_validation():
    x = np.zeros((3, 4))
    u = np.zeros((3, 2))
    with pytest.raises(SchemaError):
        Trajectory(t=np.array([0.1, 0.2, 0.3]), x=x, u=u)  # t0 != 0
    with pytest.raises(MonotonicityError):
        Trajectory(t=np.array([0.0, 0.2, 0.1]), x=x, u=u)
    with pytest.raises(NaNError):
        Trajectory(t=np.array([0.0, 0.1, 0.2]), x=x * np.nan, u=u)
    with pytest.raises(SchemaError):
        Trajectory(t=np.array([0.0, 0.1, 0.2]), x=x, u=u,
                   lam=np.zeros((2, 4)))
    with pytest.raises(SchemaError):
        Trajectory(t=np.empty(0), x=np.empty((0, 4)), u=np.empty((0, 2)))
    with pytest.raises(SchemaError):
        Trajectory(t=np.array([0.0]), x=np.zeros(4), u=np.zeros((1, 2)))


def test_trajectory_arrays_are_read_only(extremal):
    assert not extremal.x.flags.writeable
    with pytest.raises(ValueError):
        extremal.x[0, 0] = 1.0
    with pytest.raises(ValueError):
        extremal.u[0, 0] = 1.0


def test_abort_when_the_law_leaves_the_torque_bounds(arm, lam0):
    tight = ControlBounds(lower=(-17.0, -10.0), upper=(20.0, 10.0))
    traj = integrate_extremal(arm, ref.X0, lam0, IntegratorConfig(step=1e-3),
                              c=ref.U2_BANG, bounds=tight)
    assert len(traj) == 339
    assert traj.meta["abort"]["flag"] == "OutOfBounds"
    assert traj.meta["abort"]["t"] == pytest.approx(0.339)
    assert traj.meta["flags"] == ["OutOfBounds"]
    assert np.all(traj.u[:, 0] >= -17.0)


def test_abort_near_the_admissibility_wall(arm, extremal):
    """The run stops where the state comes within pmp.LAW_EXCLUSION of the
    law's breakdown set: from the reference run's last sample before
    thetadot1 + thetadot2 changes sign (1.26e-4), steps of 1e-6 reach it."""
    start = 6595
    assert extremal.x[start + 1, 2] + extremal.x[start + 1, 3] < 0.0
    traj = integrate_extremal(arm, extremal.x[start], extremal.lam[start],
                              IntegratorConfig(step=1e-6, horizon=2e-4),
                              c=ref.U2_BANG)
    assert len(traj) == 83
    assert traj.meta["abort"]["flag"] == "RkViolation"
    assert traj.meta["abort"]["t"] == pytest.approx(8.3e-5)
    # the velocity-sum factor is what degenerates there; the last kept
    # sample is still outside the band
    vsum = traj.x[:, 2] + traj.x[:, 3]
    assert np.all(vsum > LAW_EXCLUSION) and vsum[-1] < 2.0 * LAW_EXCLUSION


def test_inadmissible_initial_samples_raise(arm, lam0):
    with pytest.raises(RkViolation):
        integrate_extremal(arm, [0.1, np.pi / 2, 0.3, 0.5], lam0)
    with pytest.raises(CostateDegenerate):
        integrate_extremal(arm, ref.X0, [1.0, 1.0, 1.0, 0.0])
    with pytest.raises(OutOfBounds):
        integrate_extremal(arm, ref.X0, lam0, c=-11.0)
    with pytest.raises(SchemaError):
        integrate_extremal(arm, [0.1, 0.2, 0.3], lam0)
    with pytest.raises(NaNError):
        integrate_extremal(arm, [np.nan, 0.1, 0.3, 0.5], lam0)
    with pytest.raises(NaNError):
        integrate_extremal(arm, ref.X0, [np.inf, -3.0, -10.0, -6.0])


def test_overflow_mid_run_is_a_nan_abort(arm, lam0):
    # u1 left free: the second step's state overflows to non-finite values
    free = ControlBounds(lower=(-1e300, -10.0), upper=(1e300, 10.0))
    traj = integrate_extremal(arm, ref.X0, lam0,
                              IntegratorConfig(step=10.0, horizon=20.0),
                              c=ref.U2_BANG, bounds=free)
    assert len(traj) == 2
    assert traj.meta["abort"] == {"flag": "NaNError", "t": 20.0}
    # a stage state at inf makes math.sin raise; still a NaN abort
    traj = integrate_extremal(arm, ref.X0, lam0,
                              IntegratorConfig(step=1e100, horizon=2e100),
                              c=ref.U2_BANG)
    assert len(traj) == 1
    assert traj.meta["abort"] == {"flag": "NaNError", "t": 1e100}


def test_only_a_sidecar_loads_hashlib(extremal_file, tmp_path):
    """SHA-256 (and the OpenSSL it loads) is imported by model_signature
    when a sidecar of a new run is written, not by importing the command
    line, nor by regularize, whose endpoint replay builds no metadata."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(
        integrate.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    subprocess.run([sys.executable, "-c", "import sys, singarc.cli; "
                    "assert 'hashlib' not in sys.modules"], check=True,
                   env=env)
    subprocess.run([sys.executable, "-c", "import sys; "
                    "from singarc.cli import main; "
                    "main(['regularize', *sys.argv[1:]]); "
                    "assert not {'hashlib', '_hashlib'} & set(sys.modules)",
                    extremal_file, "--out", str(tmp_path / "fixed.csv")],
                   check=True, env=env, stdout=subprocess.DEVNULL)
    assert (tmp_path / "fixed.csv").exists()


def test_model_signature_tracks_plant_and_bounds(arm, bounds):
    sig = model_signature(arm, bounds)
    assert sig == model_signature(arm, bounds)
    assert len(sig) == 12
    other = ControlBounds(lower=(-15.0, -10.0), upper=(15.0, 10.0))
    assert sig != model_signature(arm, other)
    assert model_signature(arm) != sig
