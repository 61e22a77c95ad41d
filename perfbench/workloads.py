"""Workloads of the pdNCG benchmark and the correctness gate they must pass.

Every workload is one isotropic-TV reconstruction of the noiseless head
phantom from 25% of its 2D DCT coefficients, solved with the defaults of
``csnewton solve``: c = 1e-2, mu = 1e-5, continuation on with the
``make_schedule`` stages, and the ``SolverConfig`` defaults.  The CLI's
``audit`` mode stays off because it is a verification mode that adds an
operator call per outer iteration.  Workloads differ only in image size
and preconditioner, chosen so that each stresses a different layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict

from csnewton.continuation import make_schedule, run_continuation
from csnewton.diagnostics import check_solver_invariants
from csnewton.problems import ProblemInstance, make_itv_instance, psnr, shepp_logan
from csnewton.smoothing import SmoothedObjective
from csnewton.solver import SolverConfig, SolverState

C = 1.0e-2
MU = 1.0e-5
SAMPLING_RATIO = 0.25

# A solve fails when its PSNR falls more than this below the reference.
PSNR_TOL_DB = 0.01

SCHEDULE = make_schedule(C, MU)


@dataclass(frozen=True)
class Workload:
    name: str
    size: int
    precond_mode: str
    # PSNR (dB) reached by the code this benchmark was defined on, per
    # instance seed; seed 0 is the tuning seed, seed 1 is held out.
    psnr_ref: Dict[int, float]


WORKLOADS = {
    w.name: w
    for w in (
        # Banded Cholesky preconditioner: the only workload where the
        # precond layer (assembly, factor, back-solves) does much work.
        Workload("tv128_exact", 128, "exact_banded", {0: 32.7056, 1: 30.8192}),
        # Truncated-CG preconditioner: no factorization; the gradient
        # stencil inside the inner CG dominates.
        Workload("tv64_cg15", 64, "truncated_cg", {0: 22.1060, 1: 23.2489}),
        # No preconditioner, the shipped CLI default: the partial DCT and PCG
        # vector work dominate.  It does not converge at seed 0 (248 outer
        # iterations, 31 rejected line searches taken anyway, 31 invariant
        # violations), so every solve fails the gate until the globalization
        # is fixed.
        Workload("tv64_none", 64, "none", {0: 22.0927, 1: 23.2478}),
    )
}


def build_instance(workload: Workload, seed: int) -> ProblemInstance:
    """Phantom, sampling mask, operators and measurements."""
    image = shepp_logan(workload.size, workload.size)
    return make_itv_instance(image, SAMPLING_RATIO, math.inf, seed)


def objective(inst: ProblemInstance, A=None, W=None) -> SmoothedObjective:
    """Objective at the target (c, mu); ``A`` and ``W`` replace the
    instance's operators, which lets the tracer wrap them."""
    return SmoothedObjective(c=C, mu=MU, A=A or inst.A, W=W or inst.W, b=inst.b)


def solve(workload: Workload, obj: SmoothedObjective) -> SolverState:
    config = SolverConfig(precond_mode=workload.precond_mode)
    return run_continuation(obj, config, SCHEDULE)


@dataclass
class Verdict:
    converged: bool
    invariant_violations: int
    psnr_db: float
    psnr_ref: float

    @property
    def passed(self) -> bool:
        return (
            self.converged
            and self.invariant_violations == 0
            and self.psnr_db >= self.psnr_ref - PSNR_TOL_DB
        )


def gate(workload: Workload, inst: ProblemInstance, state: SolverState, seed: int) -> Verdict:
    """Converged, the trace passes the solver invariants (monotone f per
    stage, dual box), and the PSNR reaches the workload's reference."""
    recon = state.x.reshape((inst.n1, inst.n2), order="F")
    return Verdict(
        converged=bool(state.converged),
        invariant_violations=len(check_solver_invariants(state.trace).violations),
        psnr_db=psnr(recon, inst.ground_truth),  # NaN for a non-finite x, which fails
        psnr_ref=workload.psnr_ref[seed],
    )
