"""pdNCG against an oracle that shares none of its Newton, PCG or dual code:
L-BFGS-B on the same smoothed objective, through ``objective_value`` and
``objective_grad`` only."""

import math

import numpy as np
import pytest
from scipy.optimize import minimize

from csnewton.problems import make_itv_instance, shepp_logan
from csnewton.smoothing import SmoothedObjective, objective_grad, objective_value
from csnewton.solver import SolverConfig, solve_subproblem


@pytest.fixture(scope="module")
def instance():
    """The 16x16 phantom from 25% of its DCT, instance seed 0, c = 1e-2,
    mu = 1e-3, and its L-BFGS-B minimizer (about 750 iterations)."""
    inst = make_itv_instance(shepp_logan(16, 16), 0.25, math.inf, 0)
    obj = SmoothedObjective(c=1e-2, mu=1e-3, A=inst.A, W=inst.W, b=inst.b)
    result = minimize(
        lambda x: objective_value(obj, x), np.zeros(obj.n),
        jac=lambda x: objective_grad(obj, x), method="L-BFGS-B",
        options={"maxcor": 50, "gtol": 1e-12, "ftol": 0.0},
    )
    return obj, result.x, result.fun


@pytest.mark.parametrize("mode", ["none", "exact_banded", "truncated_cg"])
def test_solver_matches_lbfgsb_oracle(instance, mode):
    obj, x_ref, f_ref = instance
    state = solve_subproblem(obj, SolverConfig(grad_tol=1e-12, precond_mode=mode))
    assert state.converged
    assert abs(objective_value(obj, state.x) - f_ref) <= 1e-10 * abs(f_ref)
    assert np.linalg.norm(state.x - x_ref) <= 1e-5 * np.linalg.norm(x_ref)
