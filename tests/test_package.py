"""The package's public surface."""
import inspect

import singarc
from singarc import arm2dof, integrate, liegeom, pmp, regularize


def test_star_import_binds_exactly_the_public_names():
    names = {}
    exec("from singarc import *", names)
    names.pop("__builtins__")
    assert len(set(singarc.__all__)) == len(singarc.__all__)
    assert sorted(names) == sorted(singarc.__all__)
    for name in singarc.__all__:
        assert getattr(singarc, name) is names[name]


def test_each_rule_has_one_home():
    """The copies the rules replaced are gone from the package."""
    for name in ("HyperDual", "bang_control", "costate_ratio_trace"):
        assert name not in singarc.__all__
    assert not hasattr(pmp, "bang_control")
    assert not hasattr(regularize, "costate_ratio_trace")
    assert not hasattr(integrate, "_outside_law_domain")
    # one costate norm: no rescale constant, no norm carried per record
    assert not hasattr(pmp, "_NORM_SCALE")
    assert "lambda_norm" not in pmp.SwitchingRecord.__dataclass_fields__
    for name in ("sign_rule", "in_Rk", "costate_norm", "lambda4_degenerate",
                 "costate_ratio"):
        assert getattr(singarc, name) is getattr(pmp, name)
    # one plant class, and no code in the package that only tests run
    removed = {pmp: ("sk_rank", "adjoint_rhs", "lemma1_certificate",
                     "phi_second_derivative"),
               liegeom: ("lie_bracket",), liegeom.AlphaTensor: ("beta",),
               arm2dof: ("FullyActuatedSystem",),
               arm2dof.ControlBounds: ("n",),
               arm2dof.Arm2DOF: ("drift", "input_columns", "mass_matrix",
                                 "coriolis")}
    for home, names in removed.items():
        for name in names:
            assert name not in singarc.__all__
            assert not hasattr(home, name), name
    params = inspect.signature(regularize.regularize_u1).parameters
    assert "resim_config" not in params
    # one R_k band, the default of every predicate the integrator, the
    # law and diagnose read
    assert not {"rk_exclusion", "record_costates"} & set(
        integrate.IntegratorConfig.__dataclass_fields__)
    assert "law_exclusion" not in regularize.Tolerances.__dataclass_fields__
    for fn in (pmp.in_Rk, pmp.singular_u1, pmp.singular_u1_batch,
               pmp.singular_law_coeffs):
        default = inspect.signature(fn).parameters["exclusion"].default
        assert default is pmp.LAW_EXCLUSION, fn.__name__
