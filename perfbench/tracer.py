"""Span tracing of one pdNCG solve, from outside the program.

The tracer wraps the public entry points of each ``csnewton`` layer for
the duration of a ``with traced(...)`` block and restores them on exit.
Each wrapped call records a span ``[name, start, end, parent, info]`` in
memory; ``parent`` is the index of the enclosing span (-1 for none) and
``info`` holds the counts read from the call's arguments or result.  A
span's self time is its duration minus the durations of its children;
calls are nested because the solver runs in one thread.

Layer boundaries:
  linops        A and W ``apply``/``adjoint_apply`` and W's fast kernels
  krylov        ``solver.pcg_solve`` (the outer PCG, not the inner CG
                that the truncated-CG preconditioner runs)
  precond       ``build_for_system``, ``cholesky_banded`` and the returned
                ``Preconditioner.action``
  solver        the ``NewtonSystem`` constructor, ``bhat_matvec``,
                ``dual_step`` and ``line_search``
  smoothing     ``objective_grad``
  continuation  each ``solve_subproblem`` call it makes, one per stage
                (its self time counts as solver work)
"""

from __future__ import annotations

import inspect
import time
from contextlib import contextmanager
from dataclasses import replace
from typing import Callable, Dict, List, Optional

import numpy as np

from csnewton import continuation, krylov, precond, smoothing, solver

_PCG_SIGNATURE = inspect.signature(krylov.pcg_solve)
_STAGE_SIGNATURE = inspect.signature(solver.solve_subproblem)


def _nbytes(value) -> int:
    if isinstance(value, tuple):
        return sum(_nbytes(v) for v in value)
    return value.nbytes if isinstance(value, np.ndarray) else 0


class Tracer:
    def __init__(self):
        self.spans: List[list] = []
        self._stack: List[int] = []

    def wrap(self, name: str, fn: Callable, note: Optional[Callable] = None) -> Callable:
        """``fn`` with a span around each call; ``note(args, kwargs,
        result)`` returns the span's ``info``."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if note is not None:
                span[4] = note(args, kwargs, result)
            return result

        return traced


def _bytes_note(args, kwargs, result):
    return _nbytes(args) + _nbytes(result)


def traced_operators(tracer: Tracer, A, W):
    """Copies of the measurement operator A and the dictionary W whose
    actions record ``linops.A`` and ``linops.W`` spans."""
    def wrap(name, op, fields):
        return replace(op, **{f: tracer.wrap(name, getattr(op, f), _bytes_note) for f in fields})

    return (
        wrap("linops.A", A, ("apply", "adjoint_apply")),
        wrap("linops.W", W, ("apply", "adjoint_apply", "fast_synth_real", "fast_analysis_parts")),
    )


def _pcg_note(args, kwargs, outcome):
    bound = _PCG_SIGNATURE.bind(*args, **kwargs)
    bound.apply_defaults()
    capped = outcome.iterations == bound.arguments["cap"] and not outcome.converged
    return {"iters": outcome.iterations, "converged": outcome.converged, "capped": capped}


def _stage_note(args, kwargs, state):
    bound = _STAGE_SIGNATURE.bind(*args, **kwargs)
    bound.apply_defaults()
    stage, config = bound.arguments["stage"], bound.arguments["config"]
    return {
        "stage": stage,
        "precond_on": config.precond_mode != "none",
        "pcg_iters": sum(rec.pcg_iters for rec in state.trace if rec.stage == stage),
    }


def _line_search_note(args, kwargs, result):
    return {"trials": result.backtracks + 1, "accepted": result.accepted}


@contextmanager
def traced(tracer: Tracer):
    """Install span wrappers on the layer entry points; the operators are
    wrapped separately by :func:`traced_operators`."""

    def build_note(args, kwargs, pre):
        if pre.action is not None:
            pre.action = tracer.wrap("precond.apply", pre.action)
        return {"shift_retries": pre.rebuilds}

    patches = [
        (continuation, "solve_subproblem", "solver.stage", _stage_note),
        (solver.NewtonSystem, "__init__", "solver.newton_system", None),
        (solver.NewtonSystem, "bhat_matvec", "solver.bhat_matvec", None),
        (solver.NewtonSystem, "dual_step", "solver.dual_step", None),
        (solver, "line_search", "solver.line_search", _line_search_note),
        (solver, "pcg_solve", "krylov.pcg", _pcg_note),
        (solver, "build_for_system", "precond.build", build_note),
        (precond, "cholesky_banded", "precond.factor", None),
        # solver looks objective_grad up in smoothing at every call
        (smoothing, "objective_grad", "smoothing.grad", None),
    ]
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in patches]
    try:
        for owner, attr, name, note in patches:
            setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), note))
        yield tracer
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


class _Totals:
    __slots__ = ("calls", "total", "self_time", "infos")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.infos = []


def summarize(spans: List[list]) -> Dict[str, _Totals]:
    """Calls, total time, self time and infos per span name."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, info in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: Dict[str, _Totals] = {}
    for i, (name, start, end, parent, info) in enumerate(spans):
        t = totals.setdefault(name, _Totals())
        t.calls += 1
        t.total += end - start
        t.self_time += end - start - child_time[i]
        if info is not None:
            t.infos.append(info)
    return totals


def layer_metrics(spans: List[list], n_stages: int) -> Dict[str, tuple]:
    """Per-layer metrics as ``name -> (value, unit)``."""
    totals = summarize(spans)
    t = lambda name: totals.get(name, _Totals())  # noqa: E731

    pcg = t("krylov.pcg")
    build, factor, apply_ = t("precond.build"), t("precond.factor"), t("precond.apply")
    searches = t("solver.line_search")
    out = {}
    for op in ("A", "W"):
        ops = t(f"linops.{op}")
        out[f"linops.{op}.calls"] = (ops.calls, "count")
        out[f"linops.{op}.s"] = (ops.total, "s")
        out[f"linops.{op}.bytes"] = (sum(ops.infos), "B_computed")
    out.update({
        "krylov.solves": (pcg.calls, "count"),
        "krylov.iters": (sum(i["iters"] for i in pcg.infos), "count"),
        "krylov.capped": (sum(i["capped"] for i in pcg.infos), "count"),
        "krylov.converged_ratio": (
            sum(i["converged"] for i in pcg.infos) / pcg.calls if pcg.calls else 0.0, "ratio"),
        "krylov.s": (pcg.total, "s"),
        "krylov.self_s": (pcg.self_time, "s"),
        "precond.builds": (build.calls, "count"),
        "precond.build_s": (build.total, "s"),
        "precond.factor_s": (factor.total, "s"),
        "precond.assemble_s": (build.total - factor.total, "s"),
        "precond.shift_retries": (sum(i["shift_retries"] for i in build.infos), "count"),
        "precond.apply_calls": (apply_.calls, "count"),
        "precond.apply_s": (apply_.total, "s"),
        "solver.outer_iters": (t("solver.newton_system").calls, "count"),
        "solver.newton_system_s": (t("solver.newton_system").total, "s"),
        "solver.dual_step_s": (t("solver.dual_step").total, "s"),
        "solver.line_search.calls": (searches.calls, "count"),
        "solver.line_search.trials": (sum(i["trials"] for i in searches.infos), "count"),
        "solver.line_search.rejected": (sum(not i["accepted"] for i in searches.infos), "count"),
        "solver.self_s": (
            sum(v.self_time for k, v in totals.items() if k.startswith("solver.")), "s"),
        "smoothing.grad.calls": (t("smoothing.grad").calls, "count"),
        "smoothing.grad_s": (t("smoothing.grad").total, "s"),
    })
    stages = {info["stage"]: (info, end - start)
              for name, start, end, _, info in spans if name == "solver.stage" and info}
    for j in range(n_stages):
        info, seconds = stages.get(j, ({"pcg_iters": 0, "precond_on": False}, 0.0))
        out[f"continuation.stage{j}.s"] = (seconds, "s")
        out[f"continuation.stage{j}.pcg_iters"] = (info["pcg_iters"], "count")
        out[f"continuation.stage{j}.precond_on"] = (int(info["precond_on"]), "bool")
    return out

