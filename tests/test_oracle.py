"""pdNCG against an oracle that shares none of its Newton, PCG or dual code:
L-BFGS-B on the same smoothed objective, through ``objective_value`` and
``objective_grad`` only."""

import math

import numpy as np
import pytest
from scipy.optimize import minimize

from csnewton import cli
from csnewton.problems import make_itv_instance, shepp_logan
from csnewton.smoothing import SmoothedObjective, objective_grad, objective_value
from csnewton.solver import SolverConfig, solve_subproblem


def with_lbfgsb_minimizer(obj):
    """``obj``, its L-BFGS-B minimizer and the minimum."""
    result = minimize(
        lambda x: objective_value(obj, x), np.zeros(obj.n),
        jac=lambda x: objective_grad(obj, x), method="L-BFGS-B",
        options={"maxcor": 50, "gtol": 1e-12, "ftol": 0.0},
    )
    return obj, result.x, result.fun


@pytest.fixture(scope="module")
def instance():
    """The 16x16 phantom from 25% of its DCT, instance seed 0, c = 1e-2,
    mu = 1e-3, and its L-BFGS-B minimizer (about 750 iterations)."""
    inst = make_itv_instance(shepp_logan(16, 16), 0.25, math.inf, 0)
    return with_lbfgsb_minimizer(SmoothedObjective(c=1e-2, mu=1e-3, A=inst.A, W=inst.W, b=inst.b))


@pytest.fixture(scope="module")
def small_mu_instance():
    """The same phantom instance at the benchmark's final mu = 1e-5, where
    the smoothing is nearly l1 (L-BFGS-B takes about 5900 iterations)."""
    inst = make_itv_instance(shepp_logan(16, 16), 0.25, math.inf, 0)
    return with_lbfgsb_minimizer(SmoothedObjective(c=1e-2, mu=1e-5, A=inst.A, W=inst.W, b=inst.b))


@pytest.fixture(scope="module")
def l1_dense_instance():
    """The CLI's l1-dense instance at its defaults (n = 64, seed 0: a dense
    Parseval frame, so the curvature is applied matrix-free), c = 1e-2,
    mu = 1e-3, and its L-BFGS-B minimizer (about 260 iterations)."""
    inst, _ = cli._build_problem(dict(cli._DEFAULTS, problem="l1-dense"))
    assert inst.W.curvature_diagonals is None
    return with_lbfgsb_minimizer(SmoothedObjective(c=1e-2, mu=1e-3, A=inst.A, W=inst.W, b=inst.b))


@pytest.mark.parametrize("oracle, mode", [
    pytest.param(oracle, mode, id=prefix + mode)
    for oracle, prefix in [("instance", ""), ("small_mu_instance", "mu1e-5-"),
                           ("l1_dense_instance", "l1_dense-")]
    for mode in ["none", "exact_banded", "truncated_cg"]
])
def test_solver_matches_lbfgsb_oracle(request, oracle, mode):
    obj, x_ref, f_ref = request.getfixturevalue(oracle)
    state = solve_subproblem(obj, SolverConfig(grad_tol=1e-12, precond_mode=mode))
    assert state.converged
    assert abs(objective_value(obj, state.x) - f_ref) <= 1e-10 * abs(f_ref)
    assert np.linalg.norm(state.x - x_ref) <= 1e-5 * np.linalg.norm(x_ref)
