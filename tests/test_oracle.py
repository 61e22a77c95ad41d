"""pdNCG against oracles that share none of its Newton, PCG or dual code:
L-BFGS-B on the same smoothed objective, through ``objective_value`` and
``objective_grad`` only, and Chambolle-Pock on the unsmoothed TV problem
for the limit mu -> 0."""

import math

import numpy as np
import pytest
from scipy.optimize import minimize

from csnewton import cli
from csnewton.continuation import make_schedule, run_continuation
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
    inst = cli._build_problem(dict(cli._DEFAULTS, problem="l1-dense"))
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


def tv_value(inst, c, x):
    """The unsmoothed objective c*TV(x) + 0.5*||A x - b||^2."""
    r = inst.A.apply(x) - inst.b
    return c * float(np.sum(np.abs(inst.W.adjoint_apply(x)))) + 0.5 * float(r @ r)


def chambolle_pock_tv(inst, c, iters):
    """Chambolle-Pock (J. Math. Imaging Vis. 40(1), 2011) on c*TV(x) +
    0.5*||A x - b||^2: the dual p is projected onto the disc of radius c,
    and the data term has an exact prox because A^T A is a projection for
    the partial DCT.  tau = sigma = 0.99/sqrt(8), since ||grad||^2 <= 8."""
    W, A = inst.W, inst.A
    tau = sigma = 0.99 / math.sqrt(8.0)
    atb = A.adjoint_apply(inst.b)
    x = np.zeros(W.rows)
    xbar = x
    p = np.zeros(W.cols, dtype=np.complex128)
    for _ in range(iters):
        p = p + sigma * W.adjoint_apply(xbar)
        p = p / np.maximum(1.0, np.abs(p) / c)
        u = x - tau * W.fast_synth_real(p.real, p.imag) + tau * atb
        x_new = u - tau / (1.0 + tau) * A.adjoint_apply(A.apply(u))
        xbar = 2.0 * x_new - x
        x = x_new
    return x


@pytest.fixture(scope="module")
def tv_oracle():
    """The 16x16 phantom from 25% of its DCT, instance seed 0, c = 1e-2,
    and the unsmoothed minimum F* from 20000 Chambolle-Pock iterations
    (about 0.8 s; within 7e-10 relative of 80000 iterations)."""
    inst = make_itv_instance(shepp_logan(16, 16), 0.25, math.inf, 0)
    c = 1e-2
    return inst, c, tv_value(inst, c, chambolle_pock_tv(inst, c, 20000))


@pytest.mark.parametrize("mu", [1e-3, 1e-5, 1e-7])
def test_smoothed_minimizer_is_within_c_l_mu_of_the_tv_minimum(tv_oracle, mu):
    # 0 <= |t| - (sqrt(mu^2 + t^2) - mu) <= mu, so F(x_mu) - F* <= c*l*mu;
    # measured at about a tenth of that bound
    inst, c, f_star = tv_oracle
    obj = SmoothedObjective(c=c, mu=mu, A=inst.A, W=inst.W, b=inst.b)
    state = run_continuation(obj, SolverConfig(precond_mode="exact_banded"), make_schedule(c, mu))
    assert state.converged
    gap = tv_value(inst, c, state.x) - f_star
    tol = 1e-9 * f_star
    assert -tol <= gap <= c * inst.W.cols * mu + tol
