import math

import numpy as np
import pytest

from csnewton.continuation import make_schedule, run_continuation
from csnewton.diagnostics import check_derivatives, check_solver_invariants, rate_probe
from csnewton.linops import make_zero_operator
from csnewton.problems import make_itv_instance, shepp_logan
from csnewton.smoothing import SmoothedObjective
from csnewton.solver import IterationRecord, SolverConfig, solve_subproblem


def itv_objective(side=8, mu=1e-2, c=0.1, seed=7):
    image = shepp_logan(16, 16)[:side, :side]
    inst = make_itv_instance(image, 0.5, math.inf, seed)
    return SmoothedObjective(c=c, mu=mu, A=inst.A, W=inst.W, b=inst.b)


def test_derivative_check_passes_on_itv():
    rep = check_derivatives(itv_objective(), trials=50, seed=11)
    assert rep.grad_max_rel_err <= 1e-6
    assert rep.hess_max_rel_err <= 1e-5
    assert rep.passed
    assert len(rep.rows()) == 2


def test_derivative_check_with_zero_measurement_operator():
    obj = itv_objective()
    pure = SmoothedObjective(
        c=obj.c, mu=obj.mu, A=make_zero_operator(obj.A.rows, obj.A.cols), W=obj.W,
        b=np.zeros(obj.A.rows),
    )
    rep = check_derivatives(pure, trials=30, seed=12)
    assert rep.passed


def test_derivative_check_rejects_large_instances():
    big = itv_objective()
    from csnewton.linops import make_dense_dictionary

    huge = SmoothedObjective(
        c=1.0, mu=1.0, A=make_dense_dictionary(np.ones((1, 400))),
        W=make_dense_dictionary(np.eye(400)), b=np.zeros(1),
    )
    with pytest.raises(ValueError):
        check_derivatives(huge, trials=1, seed=0)


def record(stage=0, it=1, f=1.0, gnorm=1.0, gnorm_in=1.0, box=1.0, e_expl=None,
           gdx=-1.0, resid=None, eta=0.1, mode="none"):
    return IterationRecord(
        stage=stage, outer_iter=it, f=f, grad_norm=gnorm, grad_norm_in=gnorm_in,
        pcg_iters=3, alpha=1.0, backtracks=0, wall_time=0.0, eta=eta,
        grad_dot_dx=gdx, dual_box=box, accepted=True, pcg_converged=True, max_residual_drift=0.0,
        energy_explicit=e_expl,
        pcg_residual=resid,
        precond_mode=mode,
    )


def test_invariant_checker_healthy_run():
    obj = itv_objective(mu=3e-2)
    state = solve_subproblem(obj, SolverConfig(grad_tol=1e-8, audit=True,
                                               precond_mode="exact_banded"))
    rep = check_solver_invariants(state.trace)
    assert rep.passed
    assert rep.checked_records == len(state.trace)


def test_invariant_checker_flags_corrupted_dual():
    trace = [record(it=1), record(it=2, box=1.5), record(it=3)]
    rep = check_solver_invariants(trace)
    assert not rep.passed
    assert any("iter 2" in v and "dual box" in v for v in rep.violations)


def test_invariant_checker_flags_objective_increase():
    trace = [record(it=1, f=2.0), record(it=2, f=2.5)]
    rep = check_solver_invariants(trace)
    assert any("objective increased" in v for v in rep.violations)


def test_invariant_checker_flags_energy_and_residual():
    trace = [record(it=1, e_expl=1.0, gdx=-0.5, resid=0.2, gnorm_in=1.0)]
    rep = check_solver_invariants(trace)
    assert any("energy identity" in v for v in rep.violations)
    assert any("PCG residual" in v for v in rep.violations)


def test_energy_identity_skipped_only_for_truncated_cg_records():
    gap = dict(e_expl=1.0 + 1e-6, gdx=-1.0)
    assert any("energy identity" in v for v in check_solver_invariants([record(**gap)]).violations)
    assert check_solver_invariants([record(mode="truncated_cg", **gap)]).passed


def test_truncated_cg_continuation_passes_audit():
    # outer PCG runs the flexible recurrence under the nonlinear inner-CG
    # preconditioner, and misses the zero-start energy identity by more than
    # energy_tol on this solve; check_solver_invariants skips that check there
    inst = make_itv_instance(shepp_logan(16, 16), 0.25, math.inf, 0)
    obj = SmoothedObjective(c=1e-2, mu=1e-5, A=inst.A, W=inst.W, b=inst.b)
    config = SolverConfig(precond_mode="truncated_cg", audit=True)
    state = run_continuation(obj, config, make_schedule(1e-2, 1e-5))
    # the early stages run unpreconditioned, whose long solves drift past
    # energy_tol on their own; audit the preconditioned stages
    truncated = [r for r in state.trace if r.precond_mode == "truncated_cg"]
    assert state.converged and truncated
    assert check_solver_invariants(truncated).violations == []


def test_loose_eta_still_monotone():
    obj = itv_objective(mu=3e-2)
    config = SolverConfig(eta=0.99, grad_tol=1e-8, max_outer=200, audit=True,
                          precond_mode="exact_banded")
    state = solve_subproblem(obj, config)
    assert state.converged
    fs = [r.f for r in state.trace]
    assert all(b <= a + 1e-12 * max(1.0, abs(a)) for a, b in zip(fs, fs[1:]))


def test_rate_probe_constant_ratio_trace():
    trace = [record(it=k, gnorm=0.5**k) for k in range(1, 8)]
    ratios = rate_probe(trace)
    np.testing.assert_allclose(ratios, 0.5)


def test_rate_probe_single_record_empty():
    assert rate_probe([record()]) == []
    assert rate_probe([]) == []


def test_rate_probe_uses_final_stage_only():
    trace = [record(stage=0, it=k, gnorm=0.9**k) for k in range(1, 4)]
    trace += [record(stage=1, it=k, gnorm=0.25**k) for k in range(1, 5)]
    ratios = rate_probe(trace)
    np.testing.assert_allclose(ratios, 0.25)
