import math

import numpy as np
import pytest

from csnewton import solver
from csnewton.continuation import make_schedule, run_continuation
from csnewton.diagnostics import check_derivatives, check_solver_invariants, rate_probe
from csnewton.linops import make_dense_dictionary
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
        c=obj.c, mu=obj.mu, A=make_dense_dictionary(np.zeros((obj.A.rows, obj.A.cols))), W=obj.W,
        b=np.zeros(obj.A.rows),
    )
    rep = check_derivatives(pure, trials=30, seed=12)
    assert rep.passed


def test_derivative_check_rejects_large_instances():
    huge = SmoothedObjective(
        c=1.0, mu=1.0, A=make_dense_dictionary(np.ones((1, 400))),
        W=make_dense_dictionary(np.eye(400)), b=np.zeros(1),
    )
    with pytest.raises(ValueError):
        check_derivatives(huge, trials=1, seed=0)


def record(stage=0, it=1, f=1.0, gnorm=1.0, gnorm_in=1.0, box=1.0, resid=0.0, eta=0.1,
           converged=True, accepted=True, f_in=None):
    """A record whose step started from ``f_in``, by default ``f``."""
    return IterationRecord(
        stage=stage, outer_iter=it, f=f, grad_norm=gnorm, grad_norm_in=gnorm_in,
        pcg_iters=3, alpha=1.0, backtracks=0, wall_time=0.0, eta=eta,
        energy=1.0, dual_box=box, accepted=accepted, pcg_converged=converged,
        max_residual_drift=0.0, pcg_residual=resid, precond_mode="none",
        f_in=f if f_in is None else f_in,
    )


def test_invariant_checker_healthy_run():
    obj = itv_objective(mu=3e-2)
    state = solve_subproblem(obj, SolverConfig(grad_tol=1e-8, precond_mode="exact_banded"))
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


def test_invariant_checker_flags_an_accepted_step_that_raises_f():
    # a stage of one step has no consecutive records to compare; each
    # accepted record is checked against the f its step started from
    rep = check_solver_invariants([record(f=2.0, f_in=1.5)])
    assert any("iter 1" in v and "raised f" in v for v in rep.violations)
    assert check_solver_invariants([record(f=2.0, f_in=1.5, accepted=False)]).passed
    assert check_solver_invariants([record(f=2.0, f_in=2.0)]).passed


def test_traced_continuation_records_f_in_and_passes_the_audit():
    inst = make_itv_instance(shepp_logan(16, 16), 0.25, math.inf, 0)
    obj = SmoothedObjective(c=1e-2, mu=1e-5, A=inst.A, W=inst.W, b=inst.b)
    state = run_continuation(obj, SolverConfig(precond_mode="exact_banded"),
                             make_schedule(1e-2, 1e-5))
    assert state.converged
    assert all(r.f <= r.f_in for r in state.trace)
    assert check_solver_invariants(state.trace).violations == []


def test_invariant_checker_flags_pcg_residual():
    # a capped solve misses eta*||grad||, and the checker sees it on any record
    rep = check_solver_invariants([record(it=1, resid=0.2, gnorm_in=1.0, converged=False)])
    assert any("iter 1" in v and "PCG residual" in v for v in rep.violations)
    assert check_solver_invariants([record(resid=0.1, gnorm_in=1.0)]).passed


def test_invariant_checker_flags_non_finite_records():
    # every check is a `>` comparison, which NaN fails; the checker names
    # the fields that are not finite
    nan = float("nan")
    trace = [record(it=1), record(it=2, f=nan, f_in=1.0, box=nan, resid=nan), record(it=3)]
    rep = check_solver_invariants(trace)
    assert not rep.passed
    assert rep.violations == ["stage 0 iter 2: non-finite f, dual_box, pcg_residual"]
    rep = check_solver_invariants([record(f_in=math.inf)])
    assert rep.violations == ["stage 0 iter 1: non-finite f_in"]


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("mode", ["none", "truncated_cg", "exact_banded"])
def test_continuation_passes_the_invariants_in_every_mode(mode, seed, monkeypatch):
    # the line search's curvature is dx^T Bhat dx to rounding, whatever the
    # preconditioner, and every record's PCG residual meets its forcing term
    ops, gaps = [], []
    pcg, search = solver.pcg_solve, solver.line_search

    def pcg_spy(op, *args, **kwargs):
        ops.append(op)
        return pcg(op, *args, **kwargs)

    def search_spy(obj, x, y, dx, energy):
        explicit = float(dx @ ops[-1](dx))
        gaps.append(abs(energy - explicit) / max(1.0, abs(explicit)))
        return search(obj, x, y, dx, energy)

    monkeypatch.setattr(solver, "pcg_solve", pcg_spy)
    monkeypatch.setattr(solver, "line_search", search_spy)
    inst = make_itv_instance(shepp_logan(16, 16), 0.25, math.inf, seed)
    obj = SmoothedObjective(c=1e-2, mu=1e-5, A=inst.A, W=inst.W, b=inst.b)
    state = run_continuation(obj, SolverConfig(precond_mode=mode), make_schedule(1e-2, 1e-5))
    assert state.converged and all(r.pcg_converged for r in state.trace)
    assert mode in {r.precond_mode for r in state.trace}
    assert len(gaps) == len(state.trace) and max(gaps) <= 1e-12
    assert check_solver_invariants(state.trace).violations == []


def test_loose_eta_still_monotone():
    obj = itv_objective(mu=3e-2)
    config = SolverConfig(eta=0.99, grad_tol=1e-8, max_outer=200, precond_mode="exact_banded")
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
