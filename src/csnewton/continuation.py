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
Newton settings in one place, as a ``SolverConfig`` per stage:

  * Every stage but the last takes one inexact Newton step
    (``max_outer`` = 1; none if it starts converged) and hands its
    primal-dual state to the next: short-step path following, as in
    primal-dual interior-point methods (S. J. Wright, Primal-Dual
    Interior-Point Methods, SIAM, 1997).  The last stage runs to
    ``grad_tol`` within the caller's ``max_outer``.
  * Preconditioning is worth its cost only once mu is small enough for
    the regularizer to dominate the Newton matrix, and that point depends
    on the mode (``PRECOND_ENABLE_MU``).  ``exact_banded`` is switched on
    at mu <= 1e-2, i.e. stages 2-5 of the default 6-stage schedule to
    (c, mu) = (1e-2, 1e-5); switching it on at mu = 1e-1 as well is
    slower at 256x256 (23.7 and 38.1 s against 19.4 and 23.7 s in two
    alternated pairs, 24 / 275 against 22 / 282 outer / PCG iterations),
    because there a factor, O(n n1^2), costs more than the PCG
    iterations it saves.  ``truncated_cg`` is switched on at
    mu <= 1e-4 (stages 4-5), which no other switch-on value beats at
    both instance seeds of 64x64 ``truncated_cg``.  Outer / PCG
    iterations and median solve time of three, seed 0 then seed 1, for
    switch-on at mu <= 1e-1: 34 / 1172 in 1.20 s, 34 / 1025 in 1.14 s;
    1e-2: 34 / 1472 in 1.51 s, 34 / 993 in 1.04 s; 1e-3: 33 / 1341 in
    1.32 s, 32 / 1194 in 1.16 s; 1e-4: 34 / 1256 in 1.13 s, 30 / 1280
    in 1.17 s; 1e-5: 35 / 1969 in 1.73 s, 34 / 1596 in 1.41 s.
  * Stages that run ``exact_banded`` use the forcing term
    ``min(eta, FACTORED_ETA)`` = 1e-2: once a factor is paid for, a
    back-solve is cheap next to it, and the tighter solve saves outer
    iterations, each of which pays for a new factor.  ``none`` and
    ``truncated_cg`` stages keep ``eta``.

On the noiseless phantom from 25% of its DCT coefficients, instance
seed 0, one step per intermediate stage in place of running each to a
gradient tolerance of 1e-3 takes outer / PCG iterations from 44 / 1243
to 24 / 372 for 128x128 ``exact_banded`` (50 / 1192 -> 25 / 334 at seed
1), from 43 / 1157 to 22 / 282 at 256x256, from 61 / 3803 to 34 / 1256
for 64x64 ``truncated_cg`` and from 64 / 24736 to 31 / 24614 for 64x64
``none``, all at the same PSNR and with no rejected line search.
Neighbours on 128x128: a 1e-2 floor gives 41 / 896, a 1e-1 floor
34 / 664, two steps per stage 28 / 597, one step at eta = 1e-1 in the
intermediate stages 27 / 367, and no continuation 25 / 492 (but 50 / 704
against 46 / 561 at mu = 1e-7).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Tuple

import numpy as np

from .smoothing import SmoothedObjective
from .solver import NewtonSystem, SolverConfig, SolverState, solve_subproblem

__all__ = [
    "ContinuationSchedule",
    "FACTORED_ETA",
    "PRECOND_ENABLE_MU",
    "make_schedule",
    "run_continuation",
    "StageError",
]

# Largest mu at which each preconditioner mode is switched on.
PRECOND_ENABLE_MU = {"exact_banded": 1.0e-2, "truncated_cg": 1.0e-4}
# Ceiling of the PCG forcing term in stages that run exact_banded.
FACTORED_ETA = 1.0e-2


class StageError(RuntimeError):
    """A subproblem aborted; carries the continuation stage index."""

    def __init__(self, stage: int, cause: Exception):
        super().__init__(f"continuation stage {stage} aborted: {cause}")
        self.stage = stage


@dataclass(frozen=True)
class ContinuationSchedule:
    """The (c, mu) stages; ``plan`` adds the Newton settings of each."""

    stages: Tuple[Tuple[float, float], ...]

    def plan(self, config: SolverConfig) -> Tuple[Tuple[float, float, SolverConfig], ...]:
        """Each stage's (c, mu) with the ``config`` it runs: the mode is
        switched on at mu <= ``PRECOND_ENABLE_MU[mode]``, every stage but
        the last takes one Newton step, and ``exact_banded`` stages solve
        PCG to ``min(eta, FACTORED_ETA)``."""
        # "none" has no entry: it runs unpreconditioned whatever the threshold
        enable_mu = PRECOND_ENABLE_MU.get(config.precond_mode, 0.0)
        last = len(self.stages) - 1
        plan = []
        for j, (c, mu) in enumerate(self.stages):
            mode = config.precond_mode if mu <= enable_mu else "none"
            max_outer = config.max_outer if j == last else 1
            eta = min(config.eta, FACTORED_ETA) if mode == "exact_banded" else config.eta
            plan.append((c, mu, replace(config, precond_mode=mode, max_outer=max_outer, eta=eta)))
        return tuple(plan)


def _order_of_magnitude(target: float) -> int:
    # ceil with a guard so exact powers of ten do not round up from
    # binary representation error (1/1e-1 = 10.000000000000002)
    return math.ceil(-math.log10(target) - 1e-9)


def make_schedule(c_target: float, mu_target: float) -> ContinuationSchedule:
    """Log-equispaced stages from (1e-1, 1e-1) down to the targets.

    The final pair is assigned exactly, never accumulated.  Fewer than
    two stages collapses to a single solve at the targets.
    """
    if not (0.0 < c_target < math.inf and 0.0 < mu_target < math.inf):
        raise ValueError(f"continuation targets must be positive and finite, "
                         f"got c = {c_target}, mu = {mu_target}")
    vartheta = max(_order_of_magnitude(c_target), _order_of_magnitude(mu_target))
    if vartheta < 2:
        return ContinuationSchedule(((c_target, mu_target),))
    lc = np.linspace(-1.0, math.log10(c_target), vartheta + 1)
    lm = np.linspace(-1.0, math.log10(mu_target), vartheta + 1)
    stages = [(10.0**a, 10.0**b) for a, b in zip(lc, lm)]
    stages[0] = (1.0e-1, 1.0e-1)
    stages[-1] = (c_target, mu_target)
    return ContinuationSchedule(tuple(stages))


def run_continuation(
    obj_targets: SmoothedObjective,
    config: SolverConfig,
    schedule: ContinuationSchedule,
    on_system: Optional[Callable[[int, int, NewtonSystem], None]] = None,
) -> SolverState:
    """Solve every stage of ``schedule.plan(config)``, warm-starting each
    from the previous solution.

    ``obj_targets`` carries the problem data; each stage runs it at its
    own (c, mu) under the config ``plan`` gives it: every stage but the
    last takes one Newton step, the last runs to ``grad_tol``, and
    ``exact_banded`` stages solve PCG to ``min(eta, FACTORED_ETA)``.  On
    the 128x128 phantom this takes 24 outer / 372 PCG iterations where
    stages run to a 1e-3 gradient tolerance take 44 / 1243 (see the
    module docstring for the ladder).  The returned state holds the
    concatenated trace with a stage column; each stage's
    ``solve_subproblem`` gets ``on_system``.
    """
    state = None
    for j, (c, mu, stage_config) in enumerate(schedule.plan(config)):
        obj_j = replace(obj_targets, c=c, mu=mu)
        try:  # solve_subproblem projects the warm-start duals
            state = solve_subproblem(obj_j, stage_config, init=state, stage=j, on_system=on_system)
        except Exception as exc:  # noqa: BLE001 - annotate and re-raise
            raise StageError(j, exc) from exc
    return state
