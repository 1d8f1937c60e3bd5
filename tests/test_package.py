"""The package's public surface."""
import ast
import inspect
from pathlib import Path

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
                                 "coriolis"),
               integrate.Trajectory: ("has_costates",)}
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


def _walk(paths):
    for path in paths:
        yield from ast.walk(ast.parse(path.read_text(encoding="utf-8"),
                                      str(path)))


def test_no_definition_in_the_package_only_tests_read():
    """Every def and class in src/singarc, methods and properties included,
    is public (in singarc.__all__) or read by name somewhere in the package
    or in the benchmark's own modules; dunders are called by Python."""
    root = Path(__file__).resolve().parents[1]
    package = sorted((root / "src" / "singarc").glob("*.py"))
    bench = sorted(p for p in (root / "perfbench").glob("*.py")
                   if not p.name.startswith("test_"))
    defined = {node.name for node in _walk(package)
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                    ast.ClassDef))}
    read = set()
    for node in _walk(package + bench):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.ctx, ast.Load)):
            read.add(node.attr)
    unread = {name for name in defined - read - set(singarc.__all__)
              if not (name.startswith("__") and name.endswith("__"))}
    assert not unread, sorted(unread)
