"""Joint (c, mu) continuation toward target parameters.

The number of stages is the larger order of magnitude of 1/c and 1/mu
(at least the targets themselves); with two or more stages both
parameters start at 1e-1 and move log-linearly, each stage warm-started
with the previous stage's full primal-dual state.

Only the final stage's solution is returned; the earlier ones just seed
a warm start.  How tightly each stage, and each PCG solve inside it, is
converged is therefore a cost choice, not a property of the answer
(inexact Newton: Dembo, Eisenstat & Steihaug, SIAM J. Numer. Anal.
19(2), 1982; forcing terms: Eisenstat & Walker, SIAM J. Sci. Comput.
17(1), 1996).  ``ContinuationSchedule.plan`` resolves every stage's
Newton settings in one place, as a tuple of ``Stage`` records:

  * Preconditioning is worth its cost only once mu is small enough for
    the regularizer to dominate the Newton matrix, and that point depends
    on the mode (``PRECOND_ENABLE_MU``).  ``exact_banded`` is switched on
    at mu <= 1e-2, i.e. stages 2-5 of the default 6-stage schedule to
    (c, mu) = (1e-2, 1e-5); switching it on at mu = 1e-1 as well is
    slower at 256x256 (50.0 s against 39.0 s), because there the factor,
    O(n n1^2) per outer iteration, costs more than the PCG iterations it
    saves.  ``truncated_cg`` is switched on at mu <= 1e-4 (stages 4-5).
    ``ContinuationSchedule.precond_enable_mu`` overrides the rule for
    every mode.
  * Every stage but the last stops at a gradient tolerance of
    ``max(grad_tol, INTERMEDIATE_GRAD_TOL)`` = 1e-3 at the default
    grad_tol.  It is a floor, not a factor of grad_tol, so a caller's
    loose grad_tol cannot let the intermediate stages take no iteration.
  * Stages that run ``exact_banded`` use the forcing term
    ``min(eta, FACTORED_ETA)`` = 1e-2: once a factor is paid for, a
    back-solve is cheap next to it, and the tighter solve saves outer
    iterations, each of which pays for a new factor.  ``none`` and
    ``truncated_cg`` stages keep ``eta``.

On the noiseless phantom from 25% of its DCT coefficients the last two
rules take 128x128 ``exact_banded`` from 74 outer / 1781 PCG iterations
to 46 / 1281 (median solve 5.56 -> 4.06 s on a 2-vCPU guest, one BLAS
thread), 256x256 from 70 / 2237 to 43 / 1093, and 64x64
``truncated_cg`` from 84 / 8755 to 63 / 5689, all at the same PSNR.
Neighbours on 128x128: the floor alone gives 63 / 1093, eta = 3e-2
gives 51 / 1139 and a 1e-4 floor 51 / 1711; a 1e-2 floor gives 41 / 935
but has been measured on that one instance only.
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
    "FACTORED_ETA",
    "INTERMEDIATE_GRAD_TOL",
    "PRECOND_ENABLE_MU",
    "Stage",
    "make_schedule",
    "run_continuation",
    "StageError",
]

# Largest mu at which each preconditioner mode is switched on.
PRECOND_ENABLE_MU = {"exact_banded": 1.0e-2, "truncated_cg": 1.0e-4}
# Floor of the gradient tolerance of every stage but the last.
INTERMEDIATE_GRAD_TOL = 1.0e-3
# Ceiling of the PCG forcing term in stages that run exact_banded.
FACTORED_ETA = 1.0e-2


class StageError(RuntimeError):
    """A subproblem aborted; carries the continuation stage index."""

    def __init__(self, stage: int, cause: Exception):
        super().__init__(f"continuation stage {stage} aborted: {cause}")
        self.stage = stage


@dataclass(frozen=True)
class Stage:
    """One continuation stage and the Newton settings it runs with."""

    c: float
    mu: float
    precond_mode: str
    grad_tol: float
    eta: float


@dataclass(frozen=True)
class ContinuationSchedule:
    """The (c, mu) stages.  ``precond_enable_mu``, when set, replaces
    every mode's ``PRECOND_ENABLE_MU`` entry."""

    stages: Tuple[Tuple[float, float], ...]
    vartheta: int
    precond_enable_mu: Optional[float] = None

    def plan(self, config: SolverConfig) -> Tuple[Stage, ...]:
        """Each stage's (c, mu) with the preconditioner mode, gradient
        tolerance and forcing term it runs with under ``config``."""
        enable_mu = self.precond_enable_mu
        if enable_mu is None:
            # "none" has no entry: it runs unpreconditioned whatever the threshold
            enable_mu = PRECOND_ENABLE_MU.get(config.precond_mode, 0.0)
        last = len(self.stages) - 1
        plan = []
        for j, (c, mu) in enumerate(self.stages):
            mode = config.precond_mode if mu <= enable_mu else "none"
            grad_tol = config.grad_tol if j == last else max(config.grad_tol, INTERMEDIATE_GRAD_TOL)
            eta = min(config.eta, FACTORED_ETA) if mode == "exact_banded" else config.eta
            plan.append(Stage(c, mu, mode, grad_tol, eta))
        return tuple(plan)


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
    """Solve every stage of ``schedule.plan(config)``, warm-starting each
    from the previous solution.

    ``obj_targets`` carries the problem data; its (c, mu) are overridden
    stage by stage, and so are the preconditioner mode, ``grad_tol`` and
    ``eta`` of ``config``: every stage but the last stops at
    ``max(grad_tol, INTERMEDIATE_GRAD_TOL)``, and ``exact_banded`` stages
    solve to ``min(eta, FACTORED_ETA)`` (see the module docstring for the
    measurements).  The returned state holds the concatenated trace with
    a stage column.
    """
    state = init
    for j, stage in enumerate(schedule.plan(config)):
        obj_j = replace(obj_targets, c=stage.c, mu=stage.mu)
        config_j = replace(
            config, precond_mode=stage.precond_mode, grad_tol=stage.grad_tol, eta=stage.eta
        )
        if state is not None:
            g = project_linf(state.g_re + 1j * state.g_im)
            state.g_re, state.g_im = np.real(g), np.imag(g)
            state.outer_iter = 0
        try:
            state = solve_subproblem(obj_j, config_j, init=state, stage=j)
        except Exception as exc:  # noqa: BLE001 - annotate and re-raise
            raise StageError(j, exc) from exc
    return state
