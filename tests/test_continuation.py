import math
from dataclasses import replace

import numpy as np
import pytest

import csnewton.smoothing
import csnewton.solver
from csnewton.continuation import (
    PRECOND_ENABLE_MU,
    StageError,
    make_schedule,
    run_continuation,
)
from csnewton.diagnostics import check_solver_invariants
from csnewton.problems import make_itv_instance, psnr, shepp_logan
from csnewton.smoothing import SmoothedObjective
from csnewton.solver import Counters, SolverConfig, solve_subproblem


def test_schedule_reference_case():
    s = make_schedule(1e-2, 1e-5)
    assert len(s.stages) == 6
    assert s.stages[0] == (1e-1, 1e-1)
    assert s.stages[-1] == (1e-2, 1e-5)  # assigned exactly, not accumulated
    lc = [math.log10(c) for c, _ in s.stages]
    lm = [math.log10(m) for _, m in s.stages]
    for seq in (lc, lm):
        steps = np.diff(seq)
        np.testing.assert_allclose(steps, steps[0], rtol=1e-12)


def test_schedule_single_stage_at_targets():
    s = make_schedule(1e-1, 1e-1)
    assert s.stages == ((1e-1, 1e-1),)


def test_schedule_equal_targets_three_stages():
    s = make_schedule(1e-3, 1e-3)
    assert len(s.stages) == 4
    mus = [m for _, m in s.stages]
    expected = [1e-1, 10 ** (-5.0 / 3.0), 10 ** (-7.0 / 3.0), 1e-3]
    np.testing.assert_allclose(mus, expected, rtol=1e-12)


def test_schedule_monotone_toward_targets():
    s = make_schedule(3e-2, 1e-4)
    cs = [c for c, _ in s.stages]
    mus = [m for _, m in s.stages]
    assert all(b <= a for a, b in zip(cs, cs[1:]))
    assert all(b <= a for a, b in zip(mus, mus[1:]))


def test_schedule_rejects_nonpositive_targets():
    with pytest.raises(ValueError):
        make_schedule(0.0, 1e-3)
    with pytest.raises(ValueError):
        make_schedule(1e-2, -1.0)


@pytest.mark.parametrize("c, mu", [(math.inf, 1e-5), (1e-2, math.inf), (math.nan, 1e-5),
                                   (1e-2, math.nan)])
def test_schedule_rejects_nonfinite_targets(c, mu):
    with pytest.raises(ValueError, match="positive and finite"):
        make_schedule(c, mu)


def small_itv_objective(c, mu, seed=3, side=16, ratio=0.5):
    image = shepp_logan(side, side)
    inst = make_itv_instance(image, ratio, float("inf"), seed)
    return SmoothedObjective(c=c, mu=mu, A=inst.A, W=inst.W, b=inst.b)


def test_single_stage_equals_direct_solve():
    obj = small_itv_objective(1e-1, 1e-1)
    config = SolverConfig(grad_tol=1e-8, max_outer=50)
    direct = solve_subproblem(obj, config)
    via_cont = run_continuation(obj, config, make_schedule(1e-1, 1e-1))
    np.testing.assert_array_equal(via_cont.x, direct.x)


@pytest.fixture
def precond_modes(monkeypatch):
    """Records the mode of every preconditioner the Newton loop builds, one
    entry per outer iteration, so entry i belongs to trace record i."""
    modes = []
    build = csnewton.solver.build_for_system

    def spy(system, mode, *args, **kwargs):
        modes.append(mode)
        return build(system, mode, *args, **kwargs)

    monkeypatch.setattr(csnewton.solver, "build_for_system", spy)
    return modes


def modes_by_stage(trace, modes):
    assert len(modes) == len(trace)
    by_stage = {}
    for rec, mode in zip(trace, modes):
        by_stage.setdefault(rec.stage, set()).add(mode)
    return by_stage


def test_schedule_precond_rule_per_mode():
    sched = make_schedule(1e-2, 1e-5)
    mus = [m for _, m in sched.stages]
    for mode, first_on in (("exact_banded", 2), ("truncated_cg", 4)):
        plan = sched.plan(SolverConfig(precond_mode=mode))
        assert [s.precond_mode for _, _, s in plan] == ["none"] * first_on + [mode] * (6 - first_on)
        assert mus[first_on] <= PRECOND_ENABLE_MU[mode] < mus[first_on - 1]
    plan = sched.plan(SolverConfig(precond_mode="none"))
    assert [s.precond_mode for _, _, s in plan] == ["none"] * 6


@pytest.mark.parametrize(
    "mode, modes, etas",
    [
        ("exact_banded", ["none"] * 2 + ["exact_banded"] * 4, [0.1] * 2 + [1e-2] * 4),
        ("truncated_cg", ["none"] * 4 + ["truncated_cg"] * 2, [0.1] * 6),
        ("none", ["none"] * 6, [0.1] * 6),
    ],
)
def test_plan_default_schedule(mode, modes, etas):
    sched = make_schedule(1e-2, 1e-5)
    config = SolverConfig(precond_mode=mode)
    plan = sched.plan(config)
    assert plan == tuple(
        (c, mu, replace(config, precond_mode=m, max_outer=max_outer, eta=eta))
        for (c, mu), m, max_outer, eta in zip(sched.stages, modes, [1] * 5 + [100], etas)
    )


def test_plan_keeps_tighter_caller_settings():
    # an eta below FACTORED_ETA is kept, and only the last stage runs to
    # the caller's max_outer
    config = SolverConfig(precond_mode="exact_banded", eta=1e-3, max_outer=7)
    plan = make_schedule(1e-2, 1e-5).plan(config)
    assert [s.eta for _, _, s in plan] == [1e-3] * 6
    assert [s.max_outer for _, _, s in plan] == [1] * 5 + [7]
    # a single-stage schedule is the last stage: it keeps the caller's max_outer
    ((_, _, only),) = make_schedule(1e-1, 1e-1).plan(SolverConfig(max_outer=30))
    assert only.max_outer == 30


def test_run_continuation_stage_bookkeeping(precond_modes):
    # reference parameters on a 32x32 instance: five stages beyond the
    # initial one, per-stage traces individually monotone, final gradient
    # below tolerance (the deep-mu stage converges only loosely)
    image = shepp_logan(32, 32)
    inst = make_itv_instance(image, 0.25, float("inf"), seed=5)
    obj = SmoothedObjective(c=1e-2, mu=1e-5, A=inst.A, W=inst.W, b=inst.b)
    sched = make_schedule(1e-2, 1e-5)
    assert len(sched.stages) == 6
    config = SolverConfig(grad_tol=5e-2, max_outer=40, precond_mode="exact_banded")
    state = run_continuation(obj, config, sched)
    assert state.converged
    stages = sorted({r.stage for r in state.trace})
    assert stages == list(range(6))
    for s in stages:
        fs = [r.f for r in state.trace if r.stage == s]
        assert all(b <= a + 1e-12 * max(1.0, abs(a)) for a, b in zip(fs, fs[1:]))
        assert all(np.isfinite(f) for f in fs)
    assert all(r.dual_box <= 1.0 + 1e-12 for r in state.trace)
    # preconditioning gate: the banded mode runs from stage 2 (mu <= 1e-2)
    by_stage = modes_by_stage(state.trace, precond_modes)
    assert by_stage == {0: {"none"}, 1: {"none"}, **{s: {"exact_banded"} for s in range(2, 6)}}


def test_run_continuation_precond_switch_on(precond_modes):
    # two outer iterations per stage are enough to see which mode each stage
    # runs: truncated CG from stage 4 (mu <= 1e-4)
    obj = small_itv_objective(1e-2, 1e-5)
    config = SolverConfig(max_outer=2, precond_mode="truncated_cg")
    state = run_continuation(obj, config, make_schedule(1e-2, 1e-5))
    by_stage = modes_by_stage(state.trace, precond_modes)
    assert sorted(by_stage) == list(range(6))
    for s, modes in by_stage.items():
        assert modes == {"truncated_cg" if s >= 4 else "none"}


def test_flexible_pcg_runs_exactly_in_truncated_cg_stages(precond_modes, monkeypatch):
    # the inner-CG preconditioner is nonlinear, so outer PCG is flexible
    # there; the unpreconditioned stages keep the standard recurrence
    flexible = []
    pcg = csnewton.solver.pcg_solve

    def spy(*args, **kwargs):
        flexible.append(kwargs["flexible"])
        return pcg(*args, **kwargs)

    monkeypatch.setattr(csnewton.solver, "pcg_solve", spy)
    obj = small_itv_objective(1e-2, 1e-5)
    state = run_continuation(obj, SolverConfig(precond_mode="truncated_cg"),
                             make_schedule(1e-2, 1e-5))
    assert state.converged
    assert len(flexible) == len(precond_modes) == len(state.trace)
    assert flexible == [mode == "truncated_cg" for mode in precond_modes]
    assert modes_by_stage(state.trace, precond_modes)[5] == {"truncated_cg"}


def test_one_band_storage_serves_each_stage(monkeypatch):
    # each factor is written into the storage of the one before it
    bands = []
    build = csnewton.solver.build_for_system

    def spy(*args, **kwargs):
        pre = build(*args, **kwargs)
        bands.append(pre.band)
        return pre

    monkeypatch.setattr(csnewton.solver, "build_for_system", spy)
    obj = small_itv_objective(1e-2, 1e-5)
    config = SolverConfig(max_outer=3, precond_mode="exact_banded")
    state = run_continuation(obj, config, make_schedule(1e-2, 1e-5))
    assert len(bands) == len(state.trace)
    # the banded mode runs from stage 2 (mu <= 1e-2); stages 0-1 hold no
    # band, stages 2-4 take one step and so build one band each, and the
    # final stage reuses its first band for every later factor
    for s in range(6):
        stage = [band for band, r in zip(bands, state.trace) if r.stage == s]
        if s < 2:
            assert stage and all(band is None for band in stage)
        elif s < 5:
            assert len(stage) == 1 and stage[0] is not None
        else:
            assert len(stage) >= 2 and stage[0] is not None
            assert all(band is stage[0] for band in stage)


def phantom_continuation(n1, n2, mu, config=SolverConfig(precond_mode="exact_banded"),
                         on_system=None):
    """Continuation to (1e-2, mu) on the noiseless phantom from 25% of its
    DCT coefficients, exact-banded unless ``config`` says otherwise."""
    inst = make_itv_instance(shepp_logan(n1, n2), 0.25, float("inf"), seed=0)
    obj = SmoothedObjective(c=1e-2, mu=mu, A=inst.A, W=inst.W, b=inst.b)
    return run_continuation(obj, config, make_schedule(1e-2, mu), on_system=on_system)


def test_default_config_continuation_converges():
    # unpreconditioned Newton systems at mu = 1e-5 need thousands of PCG
    # iterations; a PCG cap that binds leaves the final stage unconverged
    state = phantom_continuation(20, 20, 1e-5, SolverConfig())
    assert state.converged
    assert all(r.pcg_converged for r in state.trace)
    assert check_solver_invariants(state.trace).violations == []


@pytest.mark.parametrize("n1, n2", [(24, 40), (40, 24), (30, 30)])
def test_exact_banded_continuation_any_image_size(n1, n2):
    state = phantom_continuation(n1, n2, 1e-5)
    assert state.converged
    assert check_solver_invariants(state.trace).violations == []


def test_exact_banded_continuation_at_tiny_mu():
    # D <= 1/mu = 1e11 strains the curvature; twelve stages to mu = 1e-11
    state = phantom_continuation(32, 32, 1e-11)
    assert state.converged
    assert {r.stage for r in state.trace} == set(range(12))
    assert check_solver_invariants(state.trace).violations == []


def test_each_stage_numbers_its_own_steps():
    # every call of the Newton loop counts from its own first step, however
    # many steps the warm-start state's earlier stages took
    built = []  # (stage, k) of each Newton system the loop built
    state = phantom_continuation(16, 16, 1e-5,
                                 on_system=lambda stage, k, system: built.append((stage, k)))
    assert state.converged
    for s in range(6):
        steps = [r.outer_iter for r in state.trace if r.stage == s]
        systems = [k for stage, k in built if stage == s]
        assert steps == list(range(1, len(steps) + 1))
        assert systems == list(range(len(steps)))
    assert len(steps) > 1  # the final stage runs to grad_tol


@pytest.fixture
def grad_calls(monkeypatch):
    """Counts the gradients the Newton loop evaluates; it looks
    ``objective_grad`` up in ``smoothing`` at each call."""
    calls = []
    grad = csnewton.smoothing.objective_grad

    def spy(obj, x):
        calls.append(x)
        return grad(obj, x)

    monkeypatch.setattr(csnewton.smoothing, "objective_grad", spy)
    return calls


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("mode", ["none", "exact_banded", "truncated_cg"])
def test_summed_tallies_count_every_gradient_evaluated(grad_calls, mode, seed):
    inst = make_itv_instance(shepp_logan(16, 16), 0.25, math.inf, seed)
    obj = SmoothedObjective(c=1e-2, mu=1e-5, A=inst.A, W=inst.W, b=inst.b)
    state = run_continuation(obj, SolverConfig(precond_mode=mode), make_schedule(1e-2, 1e-5))
    assert state.converged
    assert state.counters.grad_evals == len(grad_calls)
    assert (state.counters.precond_inner_iters > 0) == (mode == "truncated_cg")


def test_tallies_of_a_solve_without_steps_are_zero(grad_calls):
    # with b = 0 every stage starts at its minimizer x = 0 and takes no
    # step; its entry gradient leaves no record, so the tallies miss it
    inst = make_itv_instance(shepp_logan(16, 16), 0.25, math.inf, 0)
    obj = SmoothedObjective(c=1e-2, mu=1e-5, A=inst.A, W=inst.W, b=np.zeros_like(inst.b))
    schedule = make_schedule(1e-2, 1e-5)
    state = run_continuation(obj, SolverConfig(precond_mode="exact_banded"), schedule)
    assert state.converged and state.trace == []
    assert state.counters == Counters(0, 0, 0, 0) and state.counters.total_matvecs() == 0
    assert len(grad_calls) == len(schedule.stages)


def test_each_record_counts_the_kinks_its_step_crosses(monkeypatch):
    # coefficients on opposite sides of |.| = mu at x and at x + dx, with
    # each stage's own mu
    steps = []
    search = csnewton.solver.line_search

    def spy(obj, x, y, dx, ydx, energy):
        steps.append((obj, x, dx))
        return search(obj, x, y, dx, ydx, energy)

    monkeypatch.setattr(csnewton.solver, "line_search", spy)
    state = phantom_continuation(16, 16, 1e-5)
    assert state.converged and len(steps) == len(state.trace)
    for rec, (obj, x, dx) in zip(state.trace, steps):
        y = obj.W.adjoint_apply(x)
        y_new = y + obj.W.adjoint_apply(dx)
        assert rec.kinks_crossed == np.count_nonzero((np.abs(y) < obj.mu) != (np.abs(y_new) < obj.mu))
        assert 0 <= rec.kinks_crossed <= obj.W.cols
    assert max(rec.kinks_crossed for rec in state.trace) > 0


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("mode", ["none", "truncated_cg", "exact_banded"])
def test_each_step_analyses_its_direction_once(mode, seed):
    # per step: W* x for the Newton system and W* dx, shared by the dual
    # step and the line search; per accepted step and per call that steps:
    # W* x for the gradient (the TV curvature is a stencil, not W*)
    calls = []

    def spy(kernel):
        def counted(*args):
            calls.append(1)
            return kernel(*args)
        return counted

    inst = make_itv_instance(shepp_logan(16, 16), 0.25, math.inf, seed)
    kernels = {"adjoint_apply": spy(inst.W.adjoint_apply)}
    if inst.W.fast_analysis_parts is not None:
        kernels["fast_analysis_parts"] = spy(inst.W.fast_analysis_parts)
    W = replace(inst.W, **kernels)
    obj = SmoothedObjective(c=1e-2, mu=1e-5, A=inst.A, W=W, b=inst.b)
    state = run_continuation(obj, SolverConfig(precond_mode=mode), make_schedule(1e-2, 1e-5))
    assert state.converged
    steps = len(state.trace)
    accepted = sum(r.accepted for r in state.trace)
    stepping_calls = sum(r.outer_iter == 1 for r in state.trace)
    assert len(calls) == 2 * steps + accepted + stepping_calls


def test_stage_error_carries_index():
    obj = small_itv_objective(1e-1, 1e-2)
    bad = SmoothedObjective(
        c=obj.c, mu=obj.mu, A=obj.A, W=obj.W, b=np.full(obj.A.rows, np.nan)
    )
    with pytest.raises(StageError) as err:
        run_continuation(bad, SolverConfig(max_outer=5), make_schedule(1e-1, 1e-2))
    assert err.value.stage == 0


def test_failed_banded_factor_is_a_stage_error(monkeypatch):
    # duals far outside the box from the first banded stage on: its factor
    # fails, and the error names the mode and carries the stage
    newton_system = csnewton.solver.NewtonSystem

    def out_of_box(obj, x, g):
        if obj.mu <= PRECOND_ENABLE_MU["exact_banded"]:
            g = np.full(g.shape, 30.0 + 30.0j)
        return newton_system(obj, x, g)

    monkeypatch.setattr(csnewton.solver, "NewtonSystem", out_of_box)
    obj = small_itv_objective(1e-2, 1e-5)
    config = SolverConfig(precond_mode="exact_banded")
    schedule = make_schedule(1e-2, 1e-5)
    first_banded = [s.precond_mode for _, _, s in schedule.plan(config)].index("exact_banded")
    with pytest.raises(StageError, match="exact_banded") as err:
        run_continuation(obj, config, schedule)
    assert err.value.stage == first_banded == 2
    assert isinstance(err.value.__cause__, np.linalg.LinAlgError)


@pytest.mark.parametrize("mode", ["none", "exact_banded", "truncated_cg"])
def test_intermediate_stages_take_one_step_to_the_same_minimizer(mode):
    # short-step path following: each stage but the last takes one Newton
    # step, and the last still converges to the minimizer at the targets
    inst = make_itv_instance(shepp_logan(32, 32), 0.25, float("inf"), seed=0)
    obj = SmoothedObjective(c=1e-2, mu=1e-5, A=inst.A, W=inst.W, b=inst.b)
    config = SolverConfig(precond_mode=mode)
    state = run_continuation(obj, config, make_schedule(1e-2, 1e-5))
    assert state.converged
    assert [sum(r.stage == s for r in state.trace) for s in range(5)] == [1] * 5
    assert check_solver_invariants(state.trace).violations == []
    direct = solve_subproblem(obj, config)
    assert direct.converged

    def image_psnr(x):
        return psnr(x.reshape((32, 32), order="F"), inst.ground_truth)

    assert image_psnr(state.x) == pytest.approx(image_psnr(direct.x), abs=1e-3)
