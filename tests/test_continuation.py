import math

import numpy as np
import pytest

import csnewton.solver
from csnewton.continuation import (
    FACTORED_ETA,
    PRECOND_ENABLE_MU,
    Stage,
    StageError,
    make_schedule,
    run_continuation,
)
from csnewton.diagnostics import check_solver_invariants
from csnewton.problems import make_itv_instance, shepp_logan
from csnewton.smoothing import SmoothedObjective
from csnewton.solver import SolverConfig, fresh_state, solve_subproblem


def test_schedule_reference_case():
    s = make_schedule(1e-2, 1e-5)
    assert s.vartheta == 5
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
    assert s.vartheta < 2
    assert s.stages == ((1e-1, 1e-1),)


def test_schedule_equal_targets_three_stages():
    s = make_schedule(1e-3, 1e-3)
    assert s.vartheta == 3
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
        assert [s.precond_mode for s in plan] == ["none"] * first_on + [mode] * (6 - first_on)
        assert mus[first_on] <= PRECOND_ENABLE_MU[mode] < mus[first_on - 1]
    plan = sched.plan(SolverConfig(precond_mode="none"))
    assert [s.precond_mode for s in plan] == ["none"] * 6


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
    plan = sched.plan(SolverConfig(precond_mode=mode))
    assert plan == tuple(
        Stage(c, mu, m, tol, eta)
        for (c, mu), m, tol, eta in zip(sched.stages, modes, [1e-3] * 5 + [1e-6], etas)
    )


def test_plan_keeps_tighter_caller_settings():
    # an eta below FACTORED_ETA and a grad_tol above INTERMEDIATE_GRAD_TOL are kept
    config = SolverConfig(precond_mode="exact_banded", eta=1e-3, grad_tol=5e-2)
    plan = make_schedule(1e-2, 1e-5).plan(config)
    assert [s.eta for s in plan] == [1e-3] * 6
    assert [s.grad_tol for s in plan] == [5e-2] * 6
    # the override switches the banded mode on, and with it the tighter eta, everywhere
    sched = make_schedule(1e-2, 1e-5, precond_enable_mu=1.0)
    plan = sched.plan(SolverConfig(precond_mode="exact_banded"))
    assert {(s.precond_mode, s.eta) for s in plan} == {("exact_banded", FACTORED_ETA)}
    # a single-stage schedule is the last stage: it keeps the caller's grad_tol
    (only,) = make_schedule(1e-1, 1e-1).plan(SolverConfig(grad_tol=1e-8))
    assert only.grad_tol == 1e-8


def test_run_continuation_stage_bookkeeping(precond_modes):
    # reference parameters on a 32x32 instance: five stages beyond the
    # initial one, per-stage traces individually monotone, final gradient
    # below tolerance (the deep-mu stage converges only loosely)
    image = shepp_logan(32, 32)
    inst = make_itv_instance(image, 0.25, float("inf"), seed=5)
    obj = SmoothedObjective(c=1e-2, mu=1e-5, A=inst.A, W=inst.W, b=inst.b)
    sched = make_schedule(1e-2, 1e-5)
    assert sched.vartheta == 5
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


@pytest.mark.parametrize(
    "mode, enable_mu, first_on",
    [("truncated_cg", None, 4), ("exact_banded", 1.0, 0), ("truncated_cg", 1.0, 0)],
)
def test_run_continuation_precond_switch_on(precond_modes, mode, enable_mu, first_on):
    # two outer iterations per stage are enough to see which mode each stage runs
    obj = small_itv_objective(1e-2, 1e-5)
    sched = make_schedule(1e-2, 1e-5, precond_enable_mu=enable_mu)
    state = run_continuation(obj, SolverConfig(max_outer=2, precond_mode=mode), sched)
    by_stage = modes_by_stage(state.trace, precond_modes)
    assert sorted(by_stage) == list(range(6))
    for s, modes in by_stage.items():
        assert modes == {mode if s >= first_on else "none"}


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
    sched = make_schedule(1e-2, 1e-5, precond_enable_mu=1.0)
    state = run_continuation(obj, SolverConfig(max_outer=3, precond_mode="exact_banded"), sched)
    assert len(bands) == len(state.trace)
    for s in range(6):
        stage = [band for band, r in zip(bands, state.trace) if r.stage == s]
        assert len(stage) >= 2 and all(band is stage[0] for band in stage)


def phantom_continuation(n1, n2, mu):
    """Default exact-banded continuation to (1e-2, mu) on the noiseless
    phantom from 25% of its DCT coefficients."""
    inst = make_itv_instance(shepp_logan(n1, n2), 0.25, float("inf"), seed=0)
    obj = SmoothedObjective(c=1e-2, mu=mu, A=inst.A, W=inst.W, b=inst.b)
    config = SolverConfig(precond_mode="exact_banded")
    return run_continuation(obj, config, make_schedule(1e-2, mu))


@pytest.mark.parametrize("n1, n2", [(24, 40), (40, 24), (30, 30)])
def test_exact_banded_continuation_any_image_size(n1, n2):
    state = phantom_continuation(n1, n2, 1e-5)
    assert state.converged
    assert check_solver_invariants(state.trace).violations == []


def test_exact_banded_continuation_at_tiny_mu():
    # D <= 1/mu = 1e8 strains the curvature; nine stages to mu = 1e-8
    state = phantom_continuation(32, 32, 1e-8)
    assert state.converged
    assert {r.stage for r in state.trace} == set(range(9))
    assert check_solver_invariants(state.trace).violations == []


def test_warm_start_duals_reprojected():
    obj = small_itv_objective(1e-1, 1e-2)
    init = fresh_state(obj)
    init.g_re = 7.0 * np.ones(obj.W.cols)  # wildly infeasible warm start
    config = SolverConfig(grad_tol=1e-6, max_outer=30)
    state = run_continuation(obj, config, make_schedule(1e-1, 1e-2), init=init)
    assert state.converged
    assert np.max(np.hypot(state.g_re, state.g_im)) <= 1.0 + 1e-12


def test_stage_error_carries_index():
    obj = small_itv_objective(1e-1, 1e-2)
    bad = SmoothedObjective(
        c=obj.c, mu=obj.mu, A=obj.A, W=obj.W, b=np.full(obj.A.rows, np.nan)
    )
    with pytest.raises(StageError) as err:
        run_continuation(bad, SolverConfig(max_outer=5), make_schedule(1e-1, 1e-2))
    assert err.value.stage == 0
