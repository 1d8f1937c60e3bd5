"""Unit costs of single layers, timed from outside on fixed inputs.

Every probe calls a public singarc function (``pmp._law_terms`` is the
one private name, timed on a precomputed tableau as the law's own cost)
in a ``timeit`` loop and reports the median over repeats.  Inputs are the
reference state and fixed-seed state batches, so the figures do not depend
on the workload or its seed.
"""
from __future__ import annotations

import math
import statistics
import timeit

import numpy as np

from singarc.arm2dof import Arm2DOF
from singarc.duals import Dual, HyperDual
from singarc.liegeom import u1_singular_brackets
from singarc.pmp import _law_terms, costate_on_surface, singular_u1

X0 = [math.pi / 20.0, math.pi / 20.0, 0.3, 0.5]
BATCH_STATES = 7001
REPEATS = 5


def _per_call(stmt: str, number: int, env: dict) -> float:
    """Median seconds per execution of stmt over REPEATS timed loops."""
    times = timeit.Timer(stmt, globals=env).repeat(REPEATS, number)
    return statistics.median(times) / number


def unit_costs() -> dict[str, float]:
    arm = Arm2DOF()
    lam0 = costate_on_surface(arm, np.array(X0), -3.0, -6.0)
    box = np.array([math.pi, math.pi, 2.0, 2.0])
    batch = np.random.default_rng(0).uniform(
        -box, box, size=(BATCH_STATES, 4)).T
    env = {
        "arm": arm, "x": X0, "lam0": lam0, "batch": batch,
        "xd": [Dual(v, 1.0 if i == 2 else 0.0) for i, v in enumerate(X0)],
        "xh": [HyperDual(v, 0.1 * i, 0.2, -0.1) for i, v in enumerate(X0)],
        "da": Dual(1.25, -0.5), "db": Dual(0.75, 2.0),
        "ha": HyperDual(1.25, -0.5, 0.3, 0.1),
        "hb": HyperDual(0.75, 2.0, -0.2, 0.4),
        "tab": u1_singular_brackets(arm, X0),
        "u1_singular_brackets": u1_singular_brackets,
        "_law_terms": _law_terms, "singular_u1": singular_u1,
    }
    return {
        "arm2dof.dyn.float_us": 1e6 * _per_call("arm.dyn(x)", 4000, env),
        "arm2dof.dyn.dual_us": 1e6 * _per_call("arm.dyn(xd)", 800, env),
        "arm2dof.dyn.hyperdual_us":
            1e6 * _per_call("arm.dyn(xh)", 500, env),
        "duals.Dual.mul_ns": 1e9 * _per_call("da * db", 50_000, env),
        "duals.HyperDual.mul_ns": 1e9 * _per_call("ha * hb", 40_000, env),
        "liegeom.u1_singular_brackets.scalar_us":
            1e6 * _per_call("u1_singular_brackets(arm, x)", 60, env),
        "liegeom.u1_singular_brackets.batch_ns_per_sample":
            1e9 * _per_call("u1_singular_brackets(arm, batch)", 1, env)
            / BATCH_STATES,
        "pmp.law_terms_us": 1e6 * _per_call("_law_terms(tab, -10.0)",
                                            4000, env),
        "pmp.singular_u1.us":
            1e6 * _per_call("singular_u1(arm, x, lam0, -10.0, 1e-6)",
                            60, env),
    }
