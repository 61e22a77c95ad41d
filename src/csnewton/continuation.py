"""Joint (c, mu) continuation toward target parameters.

The number of stages is the larger order of magnitude of 1/c and 1/mu
(at least the targets themselves); with two or more stages both
parameters start at 1e-1 and move log-linearly, each stage warm-started
with the previous stage's full primal-dual state.

Preconditioning is worth its cost only once mu is small enough for the
regularizer to dominate the Newton matrix, and the point where it pays
off depends on the mode (``PRECOND_ENABLE_MU``):

  * ``exact_banded`` is switched on at mu <= 1e-2, i.e. stages 2-5 of
    the default 6-stage schedule to (c, mu) = (1e-2, 1e-5).  On the
    noiseless phantom from 25% of its DCT coefficients this cuts 128x128
    from 95 outer / 8679 PCG iterations to 74 / 1781 and 64x64 from
    91 / 6703 to 81 / 1442, at the same PSNR.  Switching it on at
    mu = 1e-1 as well is slower at 256x256 (50.0 s against 39.0 s,
    single runs on a 2-vCPU guest, one BLAS thread): there the factor,
    O(n n1^2) per outer iteration, costs more than the PCG iterations
    it saves.
  * ``truncated_cg`` is switched on at mu <= 1e-4 (stages 4-5).  At
    64x64, 1e-3 also converges with a monotone objective and fewer
    iterations (70 / 4829 against 84 / 8755); that retune is not yet
    measured on the benchmark.

``ContinuationSchedule.precond_enable_mu`` overrides the rule for every
mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Tuple

import numpy as np

from .smoothing import SmoothedObjective
from .solver import SolverConfig, SolverState, project_linf, solve_subproblem

__all__ = [
    "ContinuationSchedule",
    "PRECOND_ENABLE_MU",
    "make_schedule",
    "run_continuation",
    "StageError",
]

# Largest mu at which each preconditioner mode is switched on.
PRECOND_ENABLE_MU = {"exact_banded": 1.0e-2, "truncated_cg": 1.0e-4}


class StageError(RuntimeError):
    """A subproblem aborted; carries the continuation stage index."""

    def __init__(self, stage: int, cause: Exception):
        super().__init__(f"continuation stage {stage} aborted: {cause}")
        self.stage = stage


@dataclass(frozen=True)
class ContinuationSchedule:
    """The (c, mu) stages.  A stage runs the configured preconditioner
    once its mu is at most ``precond_enable_mu`` when that is set, else
    at most the mode's ``PRECOND_ENABLE_MU`` entry (1e-2 for
    ``exact_banded``, 1e-4 for ``truncated_cg``)."""

    stages: Tuple[Tuple[float, float], ...]
    vartheta: int
    precond_enable_mu: Optional[float] = None

    def precond_mode(self, mode: str, mu: float) -> str:
        """The preconditioner mode a stage at ``mu`` runs with."""
        if mode == "none":
            return mode
        enable_mu = self.precond_enable_mu
        if enable_mu is None:
            enable_mu = PRECOND_ENABLE_MU[mode]
        return mode if mu <= enable_mu else "none"


def _order_of_magnitude(target: float) -> int:
    # ceil with a guard so exact powers of ten do not round up from
    # binary representation error (1/1e-1 = 10.000000000000002)
    return math.ceil(-math.log10(target) - 1e-9)


def make_schedule(
    c_target: float, mu_target: float, precond_enable_mu: Optional[float] = None
) -> ContinuationSchedule:
    """Log-equispaced stages from (1e-1, 1e-1) down to the targets.

    The final pair is assigned exactly, never accumulated.  Fewer than
    two stages collapses to a single solve at the targets.
    """
    if c_target <= 0 or mu_target <= 0:
        raise ValueError("continuation targets must be positive")
    vartheta = max(_order_of_magnitude(c_target), _order_of_magnitude(mu_target))
    if vartheta < 2:
        return ContinuationSchedule(((c_target, mu_target),), vartheta, precond_enable_mu)
    lc = np.linspace(-1.0, math.log10(c_target), vartheta + 1)
    lm = np.linspace(-1.0, math.log10(mu_target), vartheta + 1)
    stages = [(10.0**a, 10.0**b) for a, b in zip(lc, lm)]
    stages[0] = (1.0e-1, 1.0e-1)
    stages[-1] = (c_target, mu_target)
    return ContinuationSchedule(tuple(stages), vartheta, precond_enable_mu)


def run_continuation(
    obj_targets: SmoothedObjective,
    config: SolverConfig,
    schedule: ContinuationSchedule,
    init: Optional[SolverState] = None,
) -> SolverState:
    """Solve every stage, warm-starting each from the previous solution.

    ``obj_targets`` carries the problem data; its (c, mu) are overridden
    stage by stage.  Early stages run with a 10x looser gradient
    tolerance since they only seed the next warm start.  The returned
    state holds the concatenated trace with a stage column.
    """
    state = init
    last = len(schedule.stages) - 1
    for j, (c_j, mu_j) in enumerate(schedule.stages):
        obj_j = replace(obj_targets, c=c_j, mu=mu_j)
        mode = schedule.precond_mode(config.precond_mode, mu_j)
        tol = config.grad_tol if j == last else 10.0 * config.grad_tol
        config_j = replace(config, precond_mode=mode, grad_tol=tol)
        if state is not None:
            g = project_linf(state.g_re + 1j * state.g_im)
            state.g_re, state.g_im = np.real(g), np.imag(g)
            state.outer_iter = 0
        try:
            state = solve_subproblem(obj_j, config_j, init=state, stage=j)
        except Exception as exc:  # noqa: BLE001 - annotate and re-raise
            raise StageError(j, exc) from exc
    return state
