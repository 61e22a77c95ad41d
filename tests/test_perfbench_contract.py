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
    return plain, traced, tracer.summarize(spans.spans)


@pytest.mark.parametrize("name", SPANS)
def test_every_traced_entry_point_records_calls(solves, name):
    _, _, totals = solves
    assert name in totals and totals[name].calls >= 1


def test_tracing_leaves_the_solve_unchanged(solves):
    plain, traced, _ = solves
    assert plain.x.tobytes() == traced.x.tobytes()
    assert plain.counters == traced.counters
    assert traced.counters.total_matvecs() > 0
