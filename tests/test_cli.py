"""Command-line front end, exercised in-process through main(argv)."""
import configparser
import contextlib
import gc
import io
import json
import math
import os
import signal
import time
import tracemalloc
import warnings
import weakref
from importlib import resources

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference as ref
from singarc import cli, duals, liegeom
from singarc.cli import _numbers, load_config, main
from singarc.errors import (EXIT_CODES, EXIT_OK, EXIT_PARTIAL_REGULARIZATION,
                            EXIT_UNEXPECTED, EXIT_VIOLATIONS_REMAIN,
                            SpanViolation)
from singarc.integrate import (Trajectory, hamiltonian_trace,
                               load_trajectory, save_trajectory)
from singarc.liegeom import (WORD_CHUNK, alpha_coefficients,
                             b_set_certificate, frame_rank)
from singarc.pmp import (costate_ratio, in_Rk, lambda4_degenerate,
                         singular_law_coeffs, singular_u1_batch)
from singarc.regularize import (LABEL_SINGULAR, LABEL_UNCHECKED, ingest,
                                pmp_audit, switching_series)


@pytest.fixture(scope="module")
def spiked_file(spiked, tmp_path_factory):
    traj, _ = spiked
    path = tmp_path_factory.mktemp("cli") / "spiked.csv"
    save_trajectory(traj, str(path))
    return str(path)


@pytest.fixture(scope="module")
def partial_file(extremal, tmp_path_factory):
    """lambda4 zeroed on two interior rows: the law is undefined there."""
    lam = np.array(extremal.lam)
    lam[3000:3002, 3] = 0.0
    traj = Trajectory(t=extremal.t, x=extremal.x, u=extremal.u, lam=lam)
    path = tmp_path_factory.mktemp("cli") / "partial.csv"
    save_trajectory(traj, str(path))
    return str(path)


@pytest.fixture(scope="module")
def u2_corrupt_file(extremal, tmp_path_factory):
    """u2 zeroed on five rows: a channel the rewrite never touches."""
    u = np.array(extremal.u)
    u[1000:1005, 1] = 0.0
    traj = Trajectory(t=extremal.t, x=extremal.x, u=u, lam=extremal.lam)
    path = tmp_path_factory.mktemp("cli") / "u2bad.csv"
    save_trajectory(traj, str(path))
    return str(path)


def test_load_config_defaults():
    cfg = load_config()
    np.testing.assert_allclose(cfg.x0, ref.X0, rtol=0, atol=1e-16)
    assert cfg.lambda0 is None
    assert cfg.lambda2 == ref.LAMBDA2 and cfg.lambda4 == ref.LAMBDA4
    assert cfg.u2 == ref.U2_BANG
    assert cfg.bounds.lower == (-20.0, -10.0)
    assert cfg.integrator.step == 1e-4 and cfg.integrator.horizon == 0.7
    assert cfg.tolerances.rel_band == 1e-3
    assert cfg.samples == 10000 and cfg.seed == 0
    parser = configparser.ConfigParser()
    parser.read_string("[s]\ncommas = 1, 2\nspaces = 1 2\n")
    assert _numbers(parser["s"], "commas") == (1.0, 2.0) \
        == _numbers(parser["s"], "spaces")


def test_load_config_overrides_and_overlay(tmp_path):
    cfg = load_config(None, {"step": 1e-3, "samples": 50, "seed": 5,
                             "tol_phi": 0.25})
    assert cfg.integrator.step == 1e-3
    assert cfg.samples == 50 and cfg.seed == 5
    assert cfg.tolerances.phi_band == 0.25

    overlay = tmp_path / "overlay.cfg"
    overlay.write_text("[initial]\nlambda0 = -5.85, -3.0, -10.23, -6.0\n")
    cfg = load_config(str(overlay))
    np.testing.assert_array_equal(
        cfg.initial_costate(cfg.system()), [-5.85, -3.0, -10.23, -6.0])
    # without an explicit lambda0 the costate is lifted onto the surface
    base = load_config()
    np.testing.assert_array_equal(base.initial_costate(base.system()),
                                  ref.LAM0)


def test_unknown_config_keys_are_rejected_by_name(tmp_path, capsys):
    """A removed key, a misspelt one and an unknown section end with exit
    1 and are named; nothing runs."""
    bad = tmp_path / "bad.cfg"
    bad.write_text("[integrator]\ninterp = linear\nrk_exclusoin = 0.5\n"
                   "[plotting]\ndpi = 300\n")
    rc = main(["construct", "--config", str(bad),
               "--out", str(tmp_path / "never.csv")])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: unknown config keys in {bad}: [integrator] interp, "
        "[integrator] rk_exclusoin, [plotting] dpi\n")
    assert not (tmp_path / "never.csv").exists()
    # every packaged key, and the optional full costate, still loads
    good = tmp_path / "good.cfg"
    good.write_text("[initial]\nlambda0 = -5.85, -3.0, -10.23, -6.0\n"
                    "[integrator]\nhorizon = 0.5\n")
    assert load_config(str(good)).integrator.horizon == 0.5


@pytest.mark.parametrize("section, key", [("integrator", "rk_exclusion"),
                                          ("tolerances", "law_exclusion")])
def test_removed_band_keys_are_rejected_by_name(section, key, tmp_path,
                                                capsys):
    """R_k's operative band is one constant, pmp.LAW_EXCLUSION, shared by
    the integrator and the law: neither old per-path key sets it."""
    path = tmp_path / "old.cfg"
    path.write_text(f"[{section}]\n{key} = 1e-6\n")
    rc = main(["certify", "--config", str(path),
               "--out", str(tmp_path / "never")])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: unknown config keys in {path}: [{section}] {key}\n")
    assert not (tmp_path / "never").exists()


def _bad_numbers():
    """A bad value for every numeric key of the packaged config and for
    the optional lambda0: its first entry not a number, and for an integer
    key also a fraction."""
    parser = configparser.ConfigParser()
    with resources.files("singarc").joinpath("configs/default.cfg") \
            .open() as fh:
        parser.read_file(fh)
    parser["initial"]["lambda0"] = "-5.85, -3.0, -10.23, -6.0"
    cases = []
    for name in parser.sections():
        for key, text in parser[name].items():
            rest = text.replace(",", " ").split()[1:]
            cases.append((name, key, " ".join(["a"] + rest)))
            if key in ("min_samples", "gap_samples", "samples", "seed"):
                cases.append((name, key, "2.5"))
    return cases


@pytest.mark.parametrize("section, key, text", _bad_numbers())
def test_a_bad_config_number_is_rejected_by_name(section, key, text,
                                                 tmp_path, capsys):
    """A config value that is not a number of the key's kind ends with
    exit 1 and one line naming the key, not Python's own message."""
    path = tmp_path / "bad.cfg"
    path.write_text(f"[{section}]\n{key} = {text}\n")
    rc = main(["certify", "--config", str(path),
               "--out", str(tmp_path / "never")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith(f"error: [{section}] {key} must hold ")
    assert err.endswith(f", got {text!r}\n") and err.count("\n") == 1
    assert not (tmp_path / "never").exists()


def test_missing_config_file_fails_cleanly(capsys):
    rc = main(["construct", "--config", "/nonexistent/file.cfg"])
    assert rc == 1
    assert "not found" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["construct", "--step", "0"], "step must be positive, got 0.0"),
    (["construct", "--step", "-1"], "step must be positive, got -1.0"),
    (["certify", "--samples", "0"], "samples must be >= 1, got 0"),
    (["certify", "--samples", "-5"], "samples must be >= 1, got -5"),
    (["certify", "--seed", "-1"], "seed must be >= 0, got -1"),
], ids=["step-0", "step-negative", "samples-0", "samples-negative",
        "seed-negative"])
def test_zero_and_negative_overrides_are_rejected(argv, message, tmp_path,
                                                  capsys):
    """An explicit 0 is a value, not "use the default"."""
    rc = main(argv + ["--out", str(tmp_path / "never")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err == f"error: {message}\n"
    assert not (tmp_path / "never").exists()


def test_a_negative_seed_in_the_config_is_rejected_by_name(tmp_path,
                                                           capsys):
    """numpy's own refusal does not name the seed; the config check does."""
    path = tmp_path / "seed.cfg"
    path.write_text("[sampling]\nseed = -1\n")
    rc = main(["certify", "--samples", "10", "--config", str(path),
               "--out", str(tmp_path / "never")])
    assert rc == 1
    assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
    assert not (tmp_path / "never").exists()


@pytest.mark.parametrize("argv, config, message", [
    (["--tol-phi", "nan"], None,
     "phi_band must be finite and > 0, got nan"),
    (["--tol-phi", "inf"], None,
     "phi_band must be finite and > 0, got inf"),
    ([], "[tolerances]\nu_tol = nan\n",
     "u_tol must be finite and >= 0, got nan"),
], ids=["tol-phi-nan", "tol-phi-inf", "u-tol-nan"])
def test_non_finite_tolerances_are_rejected(argv, config, message,
                                            extremal_file, tmp_path, capsys):
    """A nan band compares false everywhere: it would detect nothing or
    check nothing, so it ends with exit 1 before any work."""
    if config is not None:
        path = tmp_path / "bad.cfg"
        path.write_text(config)
        argv = argv + ["--config", str(path)]
    rc = main(["regularize", extremal_file, *argv,
               "--out", str(tmp_path / "never.csv")])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "never.csv").exists()


@pytest.mark.parametrize("sampling, message", [
    ("box_low = -1, -1, -1", "[sampling] box_low must hold four finite "
     "values, got '-1, -1, -1'"),
    ("box_high = 1, 1, 1, 1, 1", "[sampling] box_high must hold four finite "
     "values, got '1, 1, 1, 1, 1'"),
    ("box_low = -1, nan, -1, -1", "[sampling] box_low must hold four finite "
     "values, got '-1, nan, -1, -1'"),
    ("box_high = 1, 1, inf, 1", "[sampling] box_high must hold four finite "
     "values, got '1, 1, inf, 1'"),
    ("box_low = 4, -1, -1, -1", "[sampling] box_low must not exceed "
     "box_high, by a finite width, entry by entry"),
    ("box_low = -1e308, 0, 0, 0\nbox_high = 1e308, 1, 1, 1",
     "[sampling] box_low must not exceed box_high, by a finite width, "
     "entry by entry"),
], ids=["three-values", "five-values", "nan", "inf", "low-above-high",
        "infinite-width"])
def test_a_bad_sampling_box_is_rejected_by_name(sampling, message, tmp_path,
                                                capsys):
    """The box certify draws its states in must hold four finite corners,
    low <= high entry by entry, a finite width apart; anything else ends
    with exit 1 and one line naming the key, before any state is drawn."""
    path = tmp_path / "box.cfg"
    path.write_text(f"[sampling]\n{sampling}\n")
    rc = main(["certify", "--samples", "10", "--config", str(path),
               "--out", str(tmp_path / "never")])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "never").exists()


def test_a_degenerate_box_is_a_valid_box(tmp_path, capsys):
    """low == high draws that one state every time."""
    path = tmp_path / "point.cfg"
    path.write_text("[sampling]\nbox_low = 0.1, 0.2, 0.3, 0.4\n"
                    "box_high = 0.1, 0.2, 0.3, 0.4\n")
    assert load_config(str(path)).box_high == (0.1, 0.2, 0.3, 0.4)
    assert main(["certify", "--samples", "3", "--config", str(path)]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("command", ["construct", "regularize"])
@pytest.mark.parametrize("entries", ["lower = -20\nupper = 20",
                                     "lower = -20, -10, -5\n"
                                     "upper = 20, 10, 5",
                                     "upper = inf, 10"],
                         ids=["one-each", "three-each", "infinite"])
def test_bounds_need_one_entry_per_channel(command, entries, extremal_file,
                                          tmp_path, capsys):
    """The arm has two channels, each between two finite bounds: another
    count of entries, or an infinite bound, ends with exit 1 and one error
    line, not a traceback from the first use of the second channel or
    LAPACK's complaints about an infinite bang value."""
    path = tmp_path / "bounds.cfg"
    path.write_text(f"[bounds]\n{entries}\n")
    argv = [command] + ([extremal_file] if command == "regularize" else [])
    rc = main(argv + ["--config", str(path),
                      "--out", str(tmp_path / "never.csv")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: bounds lower and upper must hold two "
                          "finite values each, got ")
    assert err.count("\n") == 1
    assert not (tmp_path / "never.csv").exists()


@pytest.mark.parametrize("text", ["1, 2, 3", "1, 2, 3, 4, 5"])
def test_a_lambda0_of_other_than_four_entries_is_rejected_by_name(
        text, tmp_path, capsys):
    """A full costate, like the initial state x0, has four entries;
    another count ends with exit 1 and names the key before any
    integration, not with the schema error (exit 3) of a malformed
    trajectory file."""
    path = tmp_path / "short.cfg"
    for key in ("lambda0", "x0"):
        path.write_text(f"[initial]\n{key} = {text}\n")
        rc = main(["construct", "--config", str(path),
                   "--out", str(tmp_path / "never.csv")])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: [initial] {key} needs exactly four components, "
            f"got {text!r}\n")
        assert not (tmp_path / "never.csv").exists()


def test_min_samples_below_two_is_rejected_by_name(arm, extremal, tmp_path,
                                                   capsys):
    """A SingularInterval spans two samples or more, so min_samples = 1
    is refused by name before detection, which would meet a one-sample run
    here: the 20-row slice keeps only row 10 on the singular surface."""
    rows = slice(3000, 3020)
    lam = np.array(extremal.lam[rows])
    lam[np.arange(20) != 10, 2] += 5.0        # phi1 = O(1) off row 10
    path = str(tmp_path / "one.csv")
    save_trajectory(Trajectory(t=extremal.t[rows] - extremal.t[3000],
                               x=extremal.x[rows], u=extremal.u[rows],
                               lam=lam), path)
    cfg = tmp_path / "ms.cfg"
    cfg.write_text("[tolerances]\nmin_samples = 1\n")
    rc = main(["regularize", path, "--config", str(cfg),
               "--out", str(tmp_path / "never.csv")])
    assert rc == 1
    assert capsys.readouterr().err == \
        "error: min_samples must be >= 2, got 1\n"
    assert not (tmp_path / "never.csv").exists()
    # at min_samples = 2 the same file runs, and row 10 alone is in the
    # band the report names
    cfg.write_text("[tolerances]\nmin_samples = 2\n")
    main(["regularize", path, "--config", str(cfg),
          "--out", str(tmp_path / "f.csv")])
    capsys.readouterr()
    band = json.loads((tmp_path / "f.csv.report.json").read_text())["band"]
    phi, phi_dot = switching_series(arm, load_trajectory(path))
    in_band = (np.abs(phi[:, 0]) <= band) & (np.abs(phi_dot[:, 0]) <= band)
    assert np.flatnonzero(in_band).tolist() == [10]


def test_cli_requires_a_command():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


# the flags each command reads, and each flag's text, dest and parsed value
_TAKES = {"construct": ("--config", "--out", "--step"),
          "diagnose": ("--config", "--out", "--tol-phi"),
          "regularize": ("--config", "--out", "--tol-phi"),
          "certify": ("--config", "--out", "--samples", "--seed")}
_FLAG_VALUES = {"--config": ("x.cfg", "config", "x.cfg"),
                "--out": ("o.csv", "out", "o.csv"),
                "--step": ("1e-3", "step", 1e-3),
                "--tol-phi": ("0.25", "tol_phi", 0.25),
                "--samples": ("7", "samples", 7),
                "--seed": ("3", "seed", 3)}


@pytest.mark.parametrize("command", list(_TAKES))
@pytest.mark.parametrize("flag", list(_FLAG_VALUES))
def test_a_command_takes_only_the_flags_it_reads(command, flag,
                                                 extremal_file, tmp_path,
                                                 monkeypatch, capsys):
    """A flag changes some output of the command it is given to, or the
    command refuses it with argparse's usage error (exit 2), under its own
    usage line, and writes nothing."""
    monkeypatch.chdir(tmp_path)
    text, dest, value = _FLAG_VALUES[flag]
    argv = [command] + ([extremal_file] if command in ("diagnose",
                                                       "regularize") else [])
    argv += [flag, text]
    if flag in _TAKES[command]:
        assert getattr(cli._build_parser().parse_args(argv), dest) == value
        return
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: singular-arc {command} ")
    assert f"unrecognized arguments: {flag} {text}" in err
    assert os.listdir(tmp_path) == []


def test_construct_writes_run_and_reports(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    rc = main(["construct", "--step", "1e-3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "samples: 701" in out
    assert os.path.exists("extremal.csv")
    assert os.path.exists("extremal.csv.meta.json")
    traj = load_trajectory("extremal.csv")
    assert len(traj) == 701 and traj.lam is not None
    rel = float(out.split("(")[1].split(" of")[0])
    assert rel <= 1e-6


def test_construct_reports_aborts_with_the_matching_exit_code(
        tmp_path, capsys):
    overlay = tmp_path / "tight.cfg"
    overlay.write_text("[bounds]\nlower = -17.0, -10.0\n")
    rc = main(["construct", "--step", "1e-3", "--config", str(overlay),
               "--out", str(tmp_path / "partial_run.csv")])
    out = capsys.readouterr().out
    assert rc == 10  # OutOfBounds
    assert "aborted early" in out
    assert load_trajectory(str(tmp_path / "partial_run.csv")).horizon < 0.7


@pytest.mark.parametrize("step, overlay", [
    # u1 left free: the second step's state overflows
    ("10", "[bounds]\nlower = -1e300, -10.0\nupper = 1e300, 10.0\n"
           "[integrator]\nhorizon = 20.0\n"),
    # the first step's stage states reach inf
    ("1e100", "[integrator]\nhorizon = 2e100\n"),
], ids=["free-u1", "stage-overflow"])
def test_construct_reports_a_nan_abort_with_its_exit_code(step, overlay,
                                                          tmp_path, capsys):
    cfg = tmp_path / "blowup.cfg"
    cfg.write_text(overlay)
    rc = main(["construct", "--step", step, "--config", str(cfg),
               "--out", str(tmp_path / "nan.csv")])
    assert rc == 5  # NaNError
    assert "'flag': 'NaNError'" in capsys.readouterr().out


def test_construct_rejects_inadmissible_starts(tmp_path, capsys):
    overlay = tmp_path / "wall.cfg"
    overlay.write_text(
        "[initial]\nx0 = 0.1, 1.5707963267948966, 0.3, 0.5\n")
    rc = main(["construct", "--config", str(overlay),
               "--out", str(tmp_path / "never.csv")])
    assert rc == 7  # RkViolation
    assert "RkViolation" in capsys.readouterr().err


def test_construct_zero_horizon_is_a_single_sample(tmp_path, capsys):
    overlay = tmp_path / "flat.cfg"
    overlay.write_text("[integrator]\nhorizon = 0.0\n")
    out = tmp_path / "one.csv"
    rc = main(["construct", "--config", str(overlay), "--out", str(out)])
    assert rc == 0
    assert "samples: 1" in capsys.readouterr().out
    assert len(load_trajectory(str(out))) == 1


def test_diagnose_full_summary(extremal_file, tmp_path, capsys):
    series = tmp_path / "series.csv"
    rc = main(["diagnose", extremal_file, "--out", str(series)])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["costates"] is True
    assert summary["samples"] == 7001
    assert summary["max_abs_phi1"] <= 1e-12
    assert summary["H_variation"] <= 1e-12
    # one R_k band: every row the law checks is in R_k, rows 6590-6602
    # (within 1e-3 of the wall) among them
    assert summary["in_rk_fraction"] == 1.0
    assert summary["classification"] == {"lower-bang": 7001,
                                         "singular": 7001}
    assert summary["lambda_degenerate_rows"] == []
    with open(series) as fh:
        header = fh.readline().strip()
    assert header.startswith("t,phi1,phi1_dot,phi2")
    rows = _series(series)
    assert len(rows) == 7001
    assert (rows["in_rk"][6590:6603] == 1).all()


def _series(path):
    return np.genfromtxt(path, delimiter=",", names=True, dtype=None,
                         encoding="utf-8")


def test_diagnose_gives_one_r_k_verdict_per_sample(arm, extremal, tmp_path,
                                                   capsys):
    """in_rk and the audit read one band.  Rows 6500-6699 of the reference
    run hold 6590-6602, within 1e-3 but not 1e-6 of the wall; a few more
    are moved within 1e-6 of it (|thetadot1 + thetadot2| or theta2 - pi/2)
    and given the surface costate with the row's lambda2 and lambda4.
    in_rk is 0 exactly where the law refuses for its domain, the audit
    leaves exactly those u1 rows unchecked, and no other label moves."""
    rows = slice(6500, 6700)
    t = extremal.t[rows] - extremal.t[6500]
    x, u, lam = extremal.x[rows], extremal.u[rows], extremal.lam[rows]
    moved_x, moved_lam = x.copy(), lam.copy()
    for i, wall, d in ((10, 3, 5e-7), (20, 3, -9e-7), (30, 1, 5e-7),
                       (40, 1, -9e-7), (150, 1, -3e-7)):
        moved_x[i, wall] = d - x[i, 2] if wall == 3 else math.pi / 2 + d
        law = singular_law_coeffs(arm, moved_x[i], 0.0, exclusion=0.0)
        moved_lam[i] = lam[i, 1] * law.a_basis + lam[i, 3] * law.b_basis
    assert not lambda4_degenerate(moved_lam.T).any()
    runs = []
    for name, xs, lams in (("kept", x, lam), ("moved", moved_x, moved_lam)):
        path, series = tmp_path / f"{name}.csv", tmp_path / f"{name}.s.csv"
        save_trajectory(Trajectory(t=t, x=xs, u=u, lam=lams), str(path))
        assert main(["diagnose", str(path), "--out", str(series)]) == 0
        capsys.readouterr()
        runs.append(_series(series))
    kept, moved = runs
    _, reason = singular_u1_batch(arm, moved_x.T, moved_lam.T, ref.U2_BANG)
    refused = np.flatnonzero(reason == "domain")
    assert refused.tolist() == [10, 20, 30, 40, 150]
    npt.assert_array_equal(np.flatnonzero(moved["in_rk"] == 0), refused)
    npt.assert_array_equal(
        np.flatnonzero(moved["label_u1"] == LABEL_UNCHECKED), refused)
    assert (kept["in_rk"] == 1).all()
    assert (kept["label_u1"] == LABEL_SINGULAR).all()
    others = np.setdiff1d(np.arange(len(t)), refused)
    for column in ("label_u1", "label_u2"):
        npt.assert_array_equal(moved[column][others], kept[column][others])


def test_huge_costates_are_diagnosed_without_a_warning(extremal, tmp_path,
                                                      capsys):
    """The law sees lambda only through lambda2/lambda4, so its check does
    not depend on the costate scale: at lambda x 1e-300 and 1e-10 the
    lambda4 guard has no absolute floor to trip, at 1e160 and 1e300 its
    norm does not overflow.  The law is checked at every sample, the
    repair succeeds, and nothing reaches stderr.  At 2^-1060 lambda4 is
    subnormal and lambda2/lambda4 has lost bits: every u1 sample is
    unchecked, none a violation, and the repair leaves them alone."""
    n = 300
    path = str(tmp_path / "huge.csv")
    for scale in (1e-300, 1e-10, 1e160, 1e300, 2.0 ** -1060):
        save_trajectory(Trajectory(t=extremal.t[:n], x=extremal.x[:n],
                                   u=extremal.u[:n],
                                   lam=scale * extremal.lam[:n]), path)
        subnormal = scale < 2.0 ** -1022
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["diagnose", path, "--out", str(tmp_path / "s.csv")])
            out, err = capsys.readouterr()
            assert rc == 0 and err == ""
            assert json.loads(out)["classification"] == {
                "lower-bang": n,
                "singular-unchecked" if subnormal else "singular": n}
            rc = main(["regularize", path, "--out", str(tmp_path / "f.csv")])
            assert rc == (EXIT_PARTIAL_REGULARIZATION if subnormal else 0)
            assert capsys.readouterr().err == ""


def _series_labels(path):
    with open(path) as fh:
        next(fh)
        return [line.rstrip("\n").split(",")[-2:] for line in fh]


def test_tiny_costates_are_not_degenerate_rows(extremal, tmp_path, capsys):
    """Costates near 1e-170 underflow every squared costate norm, but no
    row is zero: none is listed as degenerate and u2 keeps its bang label.
    A row of exact zeros is still listed, with both cells violations."""
    n = 300
    lam = 1e-170 * extremal.lam[:n]
    lam[7] = 0.0
    path = str(tmp_path / "tiny.csv")
    series = str(tmp_path / "s.csv")
    save_trajectory(Trajectory(t=extremal.t[:n], x=extremal.x[:n],
                               u=extremal.u[:n], lam=lam), path)
    assert main(["diagnose", path, "--out", series]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["lambda_degenerate_rows"] == [7]
    labels = _series_labels(series)
    assert labels.pop(7) == ["violation", "violation"]
    assert [u2 for _, u2 in labels] == ["lower-bang"] * (n - 1)
    assert summary["classification"]["lower-bang"] == n - 1
    assert summary["classification"]["violation"] == 2 + sum(
        u1 == "violation" for u1, _ in labels)


def test_tiny_costates_keep_their_band(extremal, tmp_path, capsys):
    """With costates near 1e-170 the relative band does not underflow to
    zero: the u1 samples of the singular arc stay in it, and none is
    judged as a bang and labelled a violation."""
    n = 300
    path = str(tmp_path / "tiny.csv")
    save_trajectory(Trajectory(t=extremal.t[:n], x=extremal.x[:n],
                               u=extremal.u[:n],
                               lam=1e-170 * extremal.lam[:n]), path)
    assert main(["diagnose", path, "--out", str(tmp_path / "s.csv")]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["lambda_degenerate_rows"] == []
    assert "violation" not in summary["classification"]


def test_diagnose_counts_bang_in_band_samples(sat_sing_sat, tmp_path,
                                              capsys):
    traj, _, _ = sat_sing_sat
    path = str(tmp_path / "sat.csv")
    save_trajectory(traj, path)
    assert main(["diagnose", path, "--out", str(tmp_path / "s.csv")]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["classification"] == {"bang-in-band": 1000,
                                         "lower-bang": 6001,
                                         "singular": 5001}


def test_diagnose_series_matches_a_per_cell_writer(arm, partial_file,
                                                  tmp_path, capsys):
    """One format per row writes what one "%.17g" per cell wrote, nan
    ratios on the degenerate rows included."""
    series = tmp_path / "series.csv"
    assert main(["diagnose", partial_file, "--out", str(series)]) == 0
    capsys.readouterr()
    traj = ingest(partial_file)
    phi, phi_dot = switching_series(arm, traj)
    H = hamiltonian_trace(arm, traj)
    member = in_Rk(traj.x.T)
    ratio = costate_ratio(traj.lam.T)
    labels = pmp_audit(arm, traj).labels
    want = ["t,phi1,phi1_dot,phi2,phi2_dot,H,in_rk,lam_ratio,"
            "label_u1,label_u2\n"]
    for i in range(len(traj)):
        cells = [traj.t[i], phi[i, 0], phi_dot[i, 0], phi[i, 1],
                 phi_dot[i, 1], H[i]]
        want.append(",".join(["%.17g" % v for v in cells]
                             + [str(int(member[i])), "%.17g" % ratio[i],
                                labels[i, 0], labels[i, 1]]) + "\n")
    assert series.read_text() == "".join(want)
    assert "nan" in want[3001] and "nan" in want[3002]


def test_diagnose_costate_free_files(extremal, tmp_path, capsys):
    bare = Trajectory(t=extremal.t[:101], x=extremal.x[:101],
                      u=extremal.u[:101])
    path = str(tmp_path / "bare.csv")
    save_trajectory(bare, path)
    rc = main(["diagnose", path, "--out", str(tmp_path / "series.csv")])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["costates"] is False
    assert "MissingCostates" in summary["notice"]
    assert summary["resim_endpoint_drift"] <= 1e-6


def test_diagnose_and_regularize_share_one_endpoint_replay(
        extremal, extremal_file, tmp_path, capsys):
    """Both commands report the miss of the same replay: the step of the
    replay is no config value, so [integrator] step does not move it.
    The repair leaves the reference run's u1 as it is (the law's own
    bits), so the costate-free copy records the same controls."""
    cfg = tmp_path / "coarse.cfg"
    cfg.write_text("[integrator]\nstep = 1e-3\n")
    bare = str(tmp_path / "bare.csv")
    save_trajectory(Trajectory(t=extremal.t, x=extremal.x, u=extremal.u),
                    bare)
    assert main(["diagnose", bare, "--config", str(cfg)]) == 0
    drift = json.loads(capsys.readouterr().out)["resim_endpoint_drift"]
    fixed = tmp_path / "fixed.csv"
    assert main(["regularize", extremal_file, "--config", str(cfg),
                 "--out", str(fixed)]) == 0
    capsys.readouterr()
    npt.assert_array_equal(load_trajectory(str(fixed)).u, extremal.u)
    report = json.loads((tmp_path / "fixed.csv.report.json").read_text())
    assert report["endpoint_error_abs"] == drift


def test_diagnose_rejects_malformed_files(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("not,a,trajectory\n1,2,3\n")
    rc = main(["diagnose", str(bad), "--out", str(tmp_path / "s.csv")])
    assert rc == 3  # SchemaError
    assert "SchemaError" in capsys.readouterr().err
    rc = main(["diagnose", str(tmp_path / "missing.csv"),
               "--out", str(tmp_path / "s.csv")])
    assert rc == 1


_BAD_SIDECARS = {
    "sidecar-json": b"{not json",
    "sidecar-not-object": b"5",
    "sidecar-flags-number": b'{"flags": 5}',
    "sidecar-flags-null": b'{"flags": null}',
    "sidecar-flags-mixed": b'{"flags": ["x", 2]}',
}


@pytest.mark.parametrize("case", ["cell", "short-row", "encoding",
                                  "header-only", *_BAD_SIDECARS])
def test_malformed_trajectory_files_exit_with_schema_error(
        case, extremal_file, tmp_path, capsys):
    with open(extremal_file, "rb") as fh:
        header, *rows = fh.readlines()[:6]
    cells = rows[2].split(b",")
    if case == "cell":
        rows[2] = b",".join([cells[0], b"abc"] + cells[2:])
    elif case == "short-row":
        rows[2] = b",".join(cells[:-1]) + b"\n"
    elif case == "encoding":
        header = header.replace(b"q1", b"q\xff")
    elif case == "header-only":
        rows = []
    bad = tmp_path / "bad.csv"
    bad.write_bytes(header + b"".join(rows))
    if case in _BAD_SIDECARS:
        (tmp_path / "bad.csv.meta.json").write_bytes(_BAD_SIDECARS[case])
    for command in ("diagnose", "regularize"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's empty-input warning too
            rc = main([command, str(bad), "--out", str(tmp_path / "s.csv")])
        assert rc == 3  # SchemaError
        assert "SchemaError" in capsys.readouterr().err


DOCUMENTED_EXITS = {EXIT_OK, EXIT_UNEXPECTED, EXIT_PARTIAL_REGULARIZATION,
                    EXIT_VIOLATIONS_REMAIN, *EXIT_CODES.values()}


@pytest.fixture(scope="module")
def short_run(extremal, tmp_path_factory):
    """A directory and the bytes of a 60-row copy of the run: CSV, sidecar."""
    where = tmp_path_factory.mktemp("mutated")
    rows = slice(0, 60)
    save_trajectory(Trajectory(t=extremal.t[rows], x=extremal.x[rows],
                               u=extremal.u[rows], lam=extremal.lam[rows],
                               meta=extremal.meta), str(where / "run.csv"))
    return where, {name: (where / name).read_bytes()
                   for name in ("run.csv", "run.csv.meta.json")}


@settings(max_examples=100, deadline=None, derandomize=True)
@given(name=st.sampled_from(("run.csv", "run.csv.meta.json")),
       edits=st.lists(st.tuples(st.sampled_from(("replace", "insert",
                                                 "delete")),
                                st.integers(0, 2**16), st.binary(max_size=3)),
                      min_size=1, max_size=3))
def test_a_byte_mutated_file_exits_with_a_documented_code(short_run, name,
                                                          edits):
    """Bytes replaced, inserted or deleted anywhere in the CSV or in its
    sidecar: diagnose and regularize end with a documented exit code and
    an error line, never a traceback."""
    where, files = short_run
    data = bytearray(files[name])
    for op, at, chunk in edits:
        at %= len(data) + 1
        if op == "replace":
            data[at:at + len(chunk)] = chunk
        elif op == "insert":
            data[at:at] = chunk
        else:
            del data[at:at + 1 + len(chunk)]
    for other, text in files.items():
        (where / other).write_bytes(bytes(data) if other == name else text)
    for command in ("diagnose", "regularize"):
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            rc = main([command, str(where / "run.csv"),
                       "--out", str(where / "out.csv")])
        assert rc in DOCUMENTED_EXITS, (command, rc, err.getvalue())
        assert "Traceback" not in err.getvalue()


def test_regularize_restores_the_spiked_file(spiked_file, extremal, tmp_path,
                                             capsys):
    out = tmp_path / "fixed.csv"
    rc = main(["regularize", spiked_file, "--out", str(out)])
    text = capsys.readouterr().out
    assert rc == 0
    assert "intervals: 1" in text
    assert "violations after regularization: 0" in text
    fixed = load_trajectory(str(out))
    assert float(np.abs(fixed.u[:, 0] - extremal.u[:, 0]).max()) == 0.0
    report = json.loads(open(str(out) + ".report.json").read())
    assert report["flags"] == []
    assert report["max_deviation"][0] == pytest.approx(5.0, abs=1e-9)
    assert report["endpoint_error"] <= 1e-3
    # the band that decided the interval, and what its edges lost
    assert report["rel_band"] == 1e-3 and report["band"] > 0.0
    assert report["intervals"][0]["trimmed_start"] == 0
    assert report["intervals"][0]["trimmed_stop"] == 0


@pytest.mark.parametrize("workers", [1, 2])
def test_a_replay_out_of_memory_ends_with_one_error_line(
        workers, extremal_file, tmp_path, capsys, monkeypatch):
    """The endpoint replay steps to the file's last t: one edited to 5.9e6 s
    asks numpy for a 472 GB array.  Its MemoryError ends the command with
    exit 1 and one error line, not a traceback, and leaves no file, in
    this process (W = 1) and in a forked replay (W = 2).  The replay is
    stubbed to raise it, so nothing is allocated."""
    message = ("Unable to allocate 440. GiB for an array with shape "
               "(59000000001,) and data type float64")

    def no_memory(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr("singarc.integrate._replay", no_memory)
    monkeypatch.setattr(cli, "_workers", lambda: workers)
    out = tmp_path / "never.csv"
    rc = main(["regularize", extremal_file, "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == f"error: MemoryError: {message}\n"
    assert os.listdir(tmp_path) == []
    _no_child_is_left()


@pytest.mark.parametrize("workers", [1, 2])
def test_a_failed_replay_leaves_an_existing_out_as_it_was(
        workers, extremal_file, tmp_path, capsys, monkeypatch):
    """regularize writes its files only once the replay has its miss: a
    failed replay leaves an earlier --out, its sidecar and its report
    byte for byte, and no file of its own."""
    out = tmp_path / "fixed.csv"
    for suffix in ("", ".meta.json", ".report.json"):
        (tmp_path / f"fixed.csv{suffix}").write_text(f"earlier{suffix}\n")
    before = {p: p.read_bytes() for p in tmp_path.iterdir()}

    def failing(*args, **kwargs):
        raise ValueError("replay failed")

    monkeypatch.setattr("singarc.integrate._replay", failing)
    monkeypatch.setattr(cli, "_workers", lambda: workers)
    assert main(["regularize", extremal_file, "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", "error: replay failed\n")
    assert {p: p.read_bytes() for p in tmp_path.iterdir()} == before
    _no_child_is_left()


@pytest.mark.parametrize("death, status", [
    (lambda: os._exit(3), "exit status 3"),
    (lambda: os.kill(os.getpid(), signal.SIGKILL), "signal 9")])
def test_a_replay_worker_that_dies_ends_regularize_with_one_error_line(
        death, status, extremal_file, tmp_path, monkeypatch, capsys):
    """A forked replay that ends without a result ends regularize with
    exit 1 and one error line naming how it ended; no file, no child."""
    monkeypatch.setattr("singarc.integrate._replay",
                        lambda *args, **kwargs: death())
    monkeypatch.setattr(cli, "_workers", lambda: 2)
    out = tmp_path / "never.csv"
    assert main(["regularize", extremal_file, "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", "error: regularize replay worker "
                                   f"ended with {status} and no result\n")
    assert os.listdir(tmp_path) == []
    _no_child_is_left()


def test_a_failing_parent_kills_the_replay_worker(
        extremal_file, tmp_path, monkeypatch, capsys):
    """An exception in the parent while its replay runs SIGKILLs the
    worker: regularize ends at once with the parent's exit code and
    message, reaps the worker and leaves no file."""
    def slow(*args, **kwargs):
        time.sleep(60)

    def failing(*args, **kwargs):
        raise SpanViolation("audit failed")

    monkeypatch.setattr("singarc.integrate._replay", slow)
    monkeypatch.setattr(cli, "pmp_audit", failing)
    monkeypatch.setattr(cli, "_workers", lambda: 2)
    start = time.monotonic()
    rc = main(["regularize", extremal_file, "--out",
               str(tmp_path / "never.csv")])
    assert time.monotonic() - start < 10.0
    assert rc == EXIT_CODES[SpanViolation]
    assert capsys.readouterr() == ("", "error: SpanViolation: audit failed\n")
    assert os.listdir(tmp_path) == []
    _no_child_is_left()


@pytest.mark.parametrize("name, code", [
    ("extremal_file", EXIT_OK), ("spiked_file", EXIT_OK),
    ("partial_file", EXIT_PARTIAL_REGULARIZATION)])
def test_regularize_writes_the_same_bytes_in_one_or_two_processes(
        name, code, request, tmp_path, monkeypatch, capsys):
    """At W = 1 the replay runs in this process, at W = 2 in a forked
    worker: the CSV, sidecar, report, stdout and exit code are the same."""
    path = request.getfixturevalue(name)
    written = []
    for workers in (1, 2):
        monkeypatch.setattr(cli, "_workers", lambda w=workers: w)
        where = tmp_path / f"w{workers}"
        where.mkdir()
        rc = main(["regularize", path, "--out", str(where / "fixed.csv")])
        stdout = capsys.readouterr().out.replace(str(where), "")
        written.append((rc, stdout, {p.name: p.read_bytes()
                                     for p in where.iterdir()}))
    assert written[0][0] == code
    assert sorted(written[0][2]) == ["fixed.csv", "fixed.csv.meta.json",
                                     "fixed.csv.report.json"]
    assert written[1] == written[0]
    _no_child_is_left()


def test_regularize_writes_through_a_symlinked_out(extremal_file, tmp_path,
                                                   capsys):
    """--out is opened for writing, as a path: a symlink there stays a
    link and its target gets the repaired run."""
    target = tmp_path / "target.csv"
    target.write_text("old\n")
    out = tmp_path / "link.csv"
    out.symlink_to(target)
    assert main(["regularize", extremal_file, "--out", str(out)]) == 0
    capsys.readouterr()
    assert out.is_symlink()
    assert target.read_text().startswith("t,q1,")


@pytest.mark.parametrize("workers, code, error", [
    (1, 1, "error: replay failed\n"),
    (2, EXIT_CODES[SpanViolation], "error: SpanViolation: audit failed\n")])
def test_which_error_a_failed_replay_and_audit_report(
        workers, code, error, extremal_file, tmp_path, capsys, monkeypatch):
    """Where the replay and the audit both fail, one process replays
    first and reports the replay's error; with a forked replay the audit's
    error ends the command and the worker is killed."""
    def failing_replay(*args, **kwargs):
        raise ValueError("replay failed")

    def failing_audit(*args, **kwargs):
        raise SpanViolation("audit failed")

    monkeypatch.setattr("singarc.integrate._replay", failing_replay)
    monkeypatch.setattr(cli, "pmp_audit", failing_audit)
    monkeypatch.setattr(cli, "_workers", lambda: workers)
    assert main(["regularize", extremal_file, "--out",
                 str(tmp_path / "never.csv")]) == code
    assert capsys.readouterr() == ("", error)
    assert os.listdir(tmp_path) == []
    _no_child_is_left()


def test_regularize_flags_partial_coverage(partial_file, tmp_path, capsys):
    out = tmp_path / "fixed.csv"
    rc = main(["regularize", partial_file, "--out", str(out)])
    assert rc == 14
    report = json.loads(open(str(out) + ".report.json").read())
    assert report["skipped_samples"] == [3000, 3001]
    assert "partial" in report["flags"]


def test_regularize_reports_remaining_violations(u2_corrupt_file, tmp_path,
                                                 capsys):
    out = tmp_path / "fixed.csv"
    rc = main(["regularize", u2_corrupt_file, "--out", str(out)])
    text = capsys.readouterr().out
    assert rc == 15
    assert "violations after regularization: 5" in text


def test_partial_takes_precedence_over_violations(extremal, tmp_path, capsys):
    lam = np.array(extremal.lam)
    lam[3000:3002, 3] = 0.0
    u = np.array(extremal.u)
    u[1000:1005, 1] = 0.0
    both = Trajectory(t=extremal.t, x=extremal.x, u=u, lam=lam)
    path = str(tmp_path / "both.csv")
    save_trajectory(both, path)
    rc = main(["regularize", path, "--out", str(tmp_path / "fixed.csv")])
    assert rc == 14


def test_regularize_needs_costates(extremal, tmp_path, capsys):
    bare = Trajectory(t=extremal.t[:30], x=extremal.x[:30],
                      u=extremal.u[:30])
    path = str(tmp_path / "bare.csv")
    save_trajectory(bare, path)
    rc = main(["regularize", path, "--out", str(tmp_path / "f.csv")])
    assert rc == 6  # MissingCostates
    assert "MissingCostates" in capsys.readouterr().err


def test_certify_is_deterministic_and_reports_the_sweep(tmp_path, capsys):
    args = ["certify", "--samples", "300", "--seed", "5",
            "--out", str(tmp_path / "cert.json")]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first

    report = json.loads(first)
    assert report["samples"] == 300 and report["seed"] == 5
    assert report["min_frame_rank"] > 0.0
    assert report["max_abs_alpha_ij1"] <= 1e-9
    for key in ("c=-20", "c=20"):
        # rank three everywhere on this plant (criterion 05)
        assert report["b_set"][key]["pass_rate"] == 0.0
        assert report["b_set"][key]["failures"] == 300
    with open(tmp_path / "cert.json") as fh:
        assert json.load(fh) == report


# certify --samples 5000 --seed 7, as written by the Dual-over-array
# bracket words; the compiled words must reproduce it byte for byte
# (5000 samples cross one evaluation chunk boundary)
CERTIFY_5000_SEED7 = """{
  "b_set": {
    "c=-20": {
      "failures": 5000,
      "max_failure_velocity_sum": 3.9092172606181106,
      "pass_rate": 0.0
    },
    "c=20": {
      "failures": 5000,
      "max_failure_velocity_sum": 3.9092172606181106,
      "pass_rate": 0.0
    }
  },
  "max_abs_alpha_ij1": 2.927342862464309e-16,
  "min_frame_rank": 0.016367850632229092,
  "samples": 5000,
  "seed": 7
}
"""


@pytest.mark.parametrize("samples", [1, WORD_CHUNK - 1, WORD_CHUNK,
                                     WORD_CHUNK + 1, 2 * WORD_CHUNK - 1,
                                     2 * WORD_CHUNK, 2 * WORD_CHUNK + 1,
                                     9000])
@pytest.mark.parametrize("seed", [3, 11])
def test_the_streamed_sweep_reports_the_full_batch_certificates(
        samples, seed, capsys):
    """certify walks its states in chunks; its report is the one the
    full-batch frame_rank, alpha_coefficients and b_set_certificate give
    over all of them at once, field by field under ==."""
    assert main(["certify", "--samples", str(samples),
                 "--seed", str(seed)]) == 0
    report = json.loads(capsys.readouterr().out)
    cfg = load_config()
    arm = cfg.system()
    states = np.random.default_rng(seed).uniform(
        np.asarray(cfg.box_low), np.asarray(cfg.box_high), size=(samples, 4))
    X = states.T
    assert report["samples"] == samples and report["seed"] == seed
    assert report["min_frame_rank"] == float(frame_rank(arm, X).min())
    assert report["max_abs_alpha_ij1"] == float(
        np.abs(alpha_coefficients(arm, X).values[:, :, 0]).max())
    bangs = (cfg.bounds.lower[0], cfg.bounds.upper[0])
    assert set(report["b_set"]) == {f"c={c:g}" for c in bangs}
    for c in bangs:
        ok, _ = b_set_certificate(arm, X, c)
        vel = np.abs(states[~ok, 2] + states[~ok, 3])
        assert report["b_set"][f"c={c:g}"] == {
            "pass_rate": float(ok.mean()),
            "failures": int(np.count_nonzero(~ok)),
            "max_failure_velocity_sum": float(vel.max()) if vel.size
            else None,
        }


def test_certify_sends_few_b_set_verdicts_to_the_svd(monkeypatch, capsys):
    """The screen decides all but a few of the 10^5 B-set verdicts of
    certify --samples 50000 --seed 1: at most 1% reach the SVD.  In one
    worker, so that the spy sees every verdict."""
    verdict = liegeom._b_set_verdict
    sent = []

    def spy(family, c, rtol=liegeom.B_SET_RTOL):
        sent.append(family.shape[-1])
        return verdict(family, c, rtol)

    monkeypatch.setattr(liegeom, "_b_set_verdict", spy)
    monkeypatch.setattr(cli, "_workers", lambda: 1)
    assert main(["certify", "--samples", "50000", "--seed", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert [b["failures"] for b in report["b_set"].values()] == [50000] * 2
    assert sum(sent) <= 1000


def test_certify_takes_lapack_at_few_states(monkeypatch, capsys):
    """certify --samples 50000 --seed 1 sends a few of its 5 * 10^4 frames
    and 13 of its 10^5 B-set verdicts to LAPACK, counted over every
    worker (each worker's frame screen sends at least one); the rest are
    screened.  At W = 1 and 2, pinned, whatever the host's CPUs."""
    merged = []

    def spy(parts):
        merged.append(liegeom.merge_sweeps(parts))
        return merged[-1]

    monkeypatch.setattr(cli, "merge_sweeps", spy)
    for workers in (1, 2):
        monkeypatch.setattr(cli, "_workers", lambda w=workers: w)
        assert main(["certify", "--samples", "50000", "--seed", "1"]) == 0
        capsys.readouterr()
        assert workers <= merged[-1].frame_svd_states <= 10
        assert merged[-1].b_set_svd_states <= 100


def _no_child_is_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("files, cpus", [
    ({"cpu.max": "max 100000\n"}, None),
    ({"cpu.max": "150000 100000\n"}, 2),
    ({"cpu.max": "100000 100000\n"}, 1),
    ({"cpu/cpu.cfs_quota_us": "-1\n", "cpu/cpu.cfs_period_us": "100000\n"},
     None),
    ({"cpu/cpu.cfs_quota_us": "150000\n",
      "cpu/cpu.cfs_period_us": "100000\n"}, 2),
    ({}, None),
    ({"cpu.max": "one hundred\n"}, None),
    ({"cpu.max": ""}, None),
    ({"cpu/cpu.cfs_quota_us": "150000\n"}, None)])
def test_the_worker_count_respects_a_cpu_quota(files, cpus, tmp_path,
                                                monkeypatch):
    """W = min(usable CPUs, ceil(quota / period)) where the cgroup, v2 or
    v1, sets a CPU quota; no limit, a missing or a garbled file leave the
    CPU count."""
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(exist_ok=True)
        (tmp_path / name).write_text(text)
    assert cli._cpu_quota(str(tmp_path)) == cpus
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
    assert cli._workers(str(tmp_path)) == (8 if cpus is None else cpus)


@pytest.mark.parametrize("samples", [1, 2049, 5000])
@pytest.mark.parametrize("second", [False, True])
def test_certify_writes_the_same_bytes_in_any_number_of_workers(
        samples, second, tmp_path, monkeypatch, capsys):
    """certify deals its blocks of states round-robin to W processes (at
    most one per block); at W = 1, 2 and 3 it writes the same report, byte
    for byte, on the packaged arm and on a second plant."""
    argv = ["certify", "--samples", str(samples)]
    if second:
        (tmp_path / "second.cfg").write_text(SECOND_PLANT)
        argv += ["--config", str(tmp_path / "second.cfg")]
    written = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(cli, "_workers", lambda w=workers: w)
        out = tmp_path / f"w{workers}.json"
        assert main(argv + ["--out", str(out)]) == 0
        written.append(out.read_bytes())
    capsys.readouterr()
    assert written[1] == written[0] and written[2] == written[0]
    _no_child_is_left()


@pytest.mark.parametrize("parent_fails", [False, True])
def test_a_span_violation_in_any_worker_keeps_its_exit_code(
        parent_fails, monkeypatch, capsys):
    """A SpanViolation raised in a forked worker, or in the parent while a
    worker runs, ends certify with SpanViolation's exit code and message,
    and every worker has been reaped."""
    parent = os.getpid()
    sweep = liegeom.certify_sweep

    def failing(*args):
        if (os.getpid() == parent) == parent_fails:
            raise SpanViolation("g1ffg2 left the span")
        return sweep(*args)

    monkeypatch.setattr(cli, "certify_sweep", failing)
    monkeypatch.setattr(cli, "_workers", lambda: 2)
    rc = main(["certify", "--samples", "5000"])
    assert rc == EXIT_CODES[SpanViolation]
    assert capsys.readouterr() == (
        "", "error: SpanViolation: g1ffg2 left the span\n")
    _no_child_is_left()


@pytest.mark.parametrize("death, status", [
    (lambda: os._exit(3), "exit status 3"),
    (lambda: os.kill(os.getpid(), signal.SIGKILL), "signal 9")])
def test_a_worker_that_dies_ends_certify_with_one_error_line(
        death, status, monkeypatch, capsys):
    """A worker that ends without a result ends certify with exit 1 and
    one error line naming how it ended; no report, no child left."""
    parent = os.getpid()
    sweep = liegeom.certify_sweep

    def dying(*args):
        if os.getpid() != parent:
            death()
        return sweep(*args)

    monkeypatch.setattr(cli, "certify_sweep", dying)
    monkeypatch.setattr(cli, "_workers", lambda: 2)
    assert main(["certify", "--samples", "5000"]) == 1
    assert capsys.readouterr() == (
        "", f"error: certify worker 1 ended with {status} and no result\n")
    _no_child_is_left()


def _certify_peak(samples):
    """tracemalloc's peak over one certify run of samples states."""
    tracemalloc.start()
    try:
        assert main(["certify", "--samples", str(samples)]) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_certify_memory_does_not_grow_with_the_sweep(monkeypatch, capsys):
    """certify draws its states a chunk at a time: 4 * WORD_CHUNK more
    states add less to the peak than one chunk of states (32 bytes each;
    drawing all the states at once added 32 bytes per extra state).  In
    one worker, so that tracemalloc sees every block."""
    monkeypatch.setattr(cli, "_workers", lambda: 1)
    main(["certify", "--samples", "10"])         # one-time allocations
    small = _certify_peak(WORD_CHUNK)
    large = _certify_peak(5 * WORD_CHUNK)
    capsys.readouterr()
    assert large - small <= 8 * 4 * WORD_CHUNK


# the second plant of the installed-package smoke test
SECOND_PLANT = ("[model]\nlink_length = 0.6, 0.4\ncom_position = 0.3, 0.25\n"
                "mass = 12.0, 4.0\ninertia_z = 0.8, 0.3\n")


def test_commands_in_one_process_keep_the_last_parameter_sets_plant(
        extremal_file, monkeypatch, tmp_path, capsys):
    """The CLI keeps one plant, the last parameter set's: a command on the
    same [model] records no kernel, one on another [model] records its
    own and frees the first plant's, and every output is the one a fresh
    process writes.  regularize records the replay kernel before it forks
    the replay, so the plant keeps it for the next regularize."""
    second = tmp_path / "second.cfg"
    second.write_text(SECOND_PLANT)
    packaged = ["certify", "--samples", "5000"]
    other = packaged + ["--config", str(second)]

    def one_shot(argv):
        cli._plant.cache_clear()
        assert main(argv) == 0
        return capsys.readouterr().out

    want = {"packaged": one_shot(packaged), "other": one_shot(other)}
    assert want["packaged"] != want["other"]

    recorded = []
    compile_ = duals.Tape.compile

    def spy(tape, outputs, name, **kwargs):
        recorded.append(name)
        return compile_(tape, outputs, name, **kwargs)

    monkeypatch.setattr(duals.Tape, "compile", spy)

    def run(argv):
        recorded.clear()
        assert main(argv) == 0
        return capsys.readouterr().out, sorted(recorded)

    cli._plant.cache_clear()
    out, kernels = run(packaged)
    assert out == want["packaged"] and kernels
    first = weakref.ref(load_config().system())
    assert run(other) == (want["other"], kernels)
    gc.collect()
    assert first() is None
    # back on the packaged arm: a new plant, which records again
    assert run(packaged) == (want["packaged"], kernels)
    assert run(packaged) == (want["packaged"], [])

    csv = tmp_path / "run.csv"
    construct = ["construct", "--step", "1e-3", "--out", str(csv)]
    stdout, built = run(construct)
    written = csv.read_bytes()
    assert built
    assert run(construct) == (stdout, [])
    assert csv.read_bytes() == written

    monkeypatch.setattr(cli, "_workers", lambda: 2)
    fixed = tmp_path / "fixed.csv"
    regularize = ["regularize", extremal_file, "--out", str(fixed)]
    cli._plant.cache_clear()
    stdout, built = run(regularize)
    written = fixed.read_bytes()
    assert "replay_kernel" in built
    assert run(regularize) == (stdout, [])
    assert fixed.read_bytes() == written


def test_certify_output_is_pinned_byte_for_byte(tmp_path, capsys):
    out = tmp_path / "cert.json"
    assert main(["certify", "--samples", "5000", "--seed", "7",
                 "--out", str(out)]) == 0
    assert capsys.readouterr().out == CERTIFY_5000_SEED7
    assert out.read_text() == CERTIFY_5000_SEED7
