"""The benchmark's tracer wraps csnewton entry points by name from outside
the package; a rename or a changed signature must fail here, not silently
drop a span from the per-layer metrics."""

import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import tracer  # noqa: E402

from csnewton.continuation import make_schedule, run_continuation  # noqa: E402
from csnewton.precond import TRUNCATED_CG_SWEEPS  # noqa: E402
from csnewton.problems import make_itv_instance, shepp_logan  # noqa: E402
from csnewton.smoothing import SmoothedObjective  # noqa: E402
from csnewton.solver import SolverConfig  # noqa: E402

# every span that tracer.traced and tracer.traced_operators record
SPANS = (
    "solver.stage",
    "solver.newton_system",
    "solver.bhat_matvec",
    "solver.dual_step",
    "solver.line_search",
    "krylov.pcg",
    "precond.build",
    "precond.factor",
    "precond.apply",
    "smoothing.grad",
    "linops.A",
    "linops.W",
)


@pytest.fixture(scope="module")
def solves():
    inst = make_itv_instance(shepp_logan(16, 16), 0.25, math.inf, 0)
    config = SolverConfig(precond_mode="exact_banded", max_outer=4)
    schedule = make_schedule(1e-2, 1e-5)

    def solve(A, W):
        obj = SmoothedObjective(c=1e-2, mu=1e-5, A=A, W=W, b=inst.b)
        return run_continuation(obj, config, schedule)

    plain = solve(inst.A, inst.W)
    spans = tracer.Tracer()
    operators = tracer.traced_operators(spans, inst.A, inst.W)
    with tracer.traced(spans):
        traced = solve(*operators)
    return plain, traced, tracer.summarize(spans.spans), spans.spans


@pytest.mark.parametrize("name", SPANS)
def test_every_traced_entry_point_records_calls(solves, name):
    _, _, totals, _ = solves
    assert name in totals and totals[name].calls >= 1


def test_tracing_leaves_the_solve_unchanged(solves):
    plain, traced, _, _ = solves
    assert plain.x.tobytes() == traced.x.tobytes()
    assert plain.counters == traced.counters
    assert traced.counters.total_matvecs() > 0


def test_krylov_counts_match_the_trace(solves):
    _, traced, totals, _ = solves
    infos = totals["krylov.pcg"].infos
    assert sum(i["iters"] for i in infos) == sum(r.pcg_iters for r in traced.trace)
    assert sum(i["capped"] for i in infos) == sum(not r.pcg_converged for r in traced.trace)


def test_every_bhat_action_reaches_the_traced_measurement_operator(solves):
    # each PCG iteration applies A^T A through A's own apply and adjoint_apply,
    # so a fused normal operator would hide the DCT from linops.A
    _, traced, totals, _ = solves
    assert totals["linops.A"].calls >= 2 * sum(r.pcg_iters for r in traced.trace)


def test_each_banded_build_records_one_factor_and_no_shift_retry(solves):
    # every build reports shift_retries 0, and each exact_banded build
    # factors once: a silent precond.build or precond.factor hook fails here
    _, traced, totals, spans = solves
    builds = totals["precond.build"]
    assert builds.calls == len(traced.trace) == len(builds.infos)
    assert all(info["shift_retries"] == 0 for info in builds.infos)
    banded = sum(r.precond_mode == "exact_banded" for r in traced.trace)
    parents = [spans[parent][0] for name, _, _, parent, _ in spans if name == "precond.factor"]
    assert banded >= 1 and parents == ["precond.build"] * banded


def test_precond_inner_iters_match_traced_applications():
    # one inner CG sweep count per preconditioner application that PCG makes
    inst = make_itv_instance(shepp_logan(16, 16), 0.25, math.inf, 0)
    config = SolverConfig(precond_mode="truncated_cg", max_outer=3)
    spans = tracer.Tracer()
    with tracer.traced(spans):
        obj = SmoothedObjective(c=1e-2, mu=1e-5, A=inst.A, W=inst.W, b=inst.b)
        state = run_continuation(obj, config, make_schedule(1e-2, 1e-5))
    applications = tracer.summarize(spans.spans)["precond.apply"].calls
    assert applications > 0
    assert state.counters.precond_inner_iters == TRUNCATED_CG_SWEEPS * applications
