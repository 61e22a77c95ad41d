"""Verification harness: derivative checks, invariant sweeps, rate probes.

All checks are deterministic under fixed seeds.  Reports are plain
dataclasses with ``rows()``, which ``csnewton check`` prints one line
each, and a ``passed`` flag for the command-line gate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np

from .smoothing import SmoothedObjective, fd_step, objective_grad, objective_value
from .solver import IterationRecord, NewtonSystem

__all__ = [
    "DerivativeReport",
    "InvariantReport",
    "check_derivatives",
    "check_solver_invariants",
    "rate_probe",
]

# relative error bounds of the finite-difference gradient and Hessian checks
GRAD_TOL = 1.0e-6
HESS_TOL = 1.0e-5
# slack of the dual box |g|_inf <= 1
BOX_TOL = 1.0e-12
# record fields the checks compare; NaN compares false, so each must be finite
FINITE_FIELDS = ("f", "f_in", "dual_box", "pcg_residual")


@dataclass
class DerivativeReport:
    grad_max_rel_err: float
    hess_max_rel_err: float

    @property
    def passed(self) -> bool:
        return self.grad_max_rel_err <= GRAD_TOL and self.hess_max_rel_err <= HESS_TOL

    def rows(self) -> List[Tuple[str, float, float, bool]]:
        return [
            ("gradient", self.grad_max_rel_err, GRAD_TOL, self.grad_max_rel_err <= GRAD_TOL),
            ("hessian_action", self.hess_max_rel_err, HESS_TOL, self.hess_max_rel_err <= HESS_TOL),
        ]


def check_derivatives(obj: SmoothedObjective, trials: int = 50, seed: int = 0) -> DerivativeReport:
    """Compare the analytic gradient and Hessian action against central
    finite differences at random points along random unit directions.

    The Hessian action is the solver's own Newton matrix Bhat at the
    central duals, so the check covers the matrix that PCG solves with."""
    n = obj.n
    if n > 256:
        raise ValueError("derivative checks are meant for small instances (n <= 256)")
    rng = np.random.default_rng(seed)
    grad_err = 0.0
    hess_err = 0.0
    for _ in range(trials):
        x = rng.standard_normal(n)
        v = rng.standard_normal(n)
        v /= np.linalg.norm(v)
        h = fd_step(x)

        fd_dir = (objective_value(obj, x + h * v) - objective_value(obj, x - h * v)) / (2 * h)
        g_dir = float(objective_grad(obj, x) @ v)
        grad_err = max(grad_err, abs(fd_dir - g_dir) / max(1.0, abs(fd_dir)))

        fd_hv = (objective_grad(obj, x + h * v) - objective_grad(obj, x - h * v)) / (2 * h)
        hv = NewtonSystem.at_central_duals(obj, x).bhat_matvec(v)
        hess_err = max(
            hess_err,
            float(np.linalg.norm(fd_hv - hv)) / max(1.0, float(np.linalg.norm(fd_hv))),
        )
    return DerivativeReport(grad_err, hess_err)


@dataclass
class InvariantReport:
    violations: List[str] = field(default_factory=list)
    checked_records: int = 0

    @property
    def passed(self) -> bool:
        return not self.violations

    def rows(self) -> List[Tuple[str, str]]:
        if not self.violations:
            return [("invariants", f"pass ({self.checked_records} records)")]
        return [("violation", v) for v in self.violations]


def check_solver_invariants(trace: Sequence[IterationRecord]) -> InvariantReport:
    """Audit a completed trace: monotone objective, dual box and the PCG
    stopping rule ||Bhat dx + grad f|| <= eta ||grad f|| on every record,
    so a capped solve that missed it is flagged.

    The objective must not rise between consecutive records of a stage,
    nor across any accepted step, f against the ``f_in`` it started
    from; the second check also covers stages of a single step.  A
    record whose compared fields are not all finite is a violation too."""
    def raised(f_old: float, f_new: float) -> bool:
        return f_new > f_old + 1e-12 * max(1.0, abs(f_old))

    report = InvariantReport(checked_records=len(trace))
    prev_f = {}
    for rec in trace:
        tag = f"stage {rec.stage} iter {rec.outer_iter}"
        nonfinite = [name for name in FINITE_FIELDS if not np.isfinite(getattr(rec, name))]
        if nonfinite:
            report.violations.append(f"{tag}: non-finite {', '.join(nonfinite)}")
        if rec.stage in prev_f and raised(prev_f[rec.stage], rec.f):
            report.violations.append(f"{tag}: objective increased {prev_f[rec.stage]} -> {rec.f}")
        prev_f[rec.stage] = rec.f
        if rec.accepted and raised(rec.f_in, rec.f):
            report.violations.append(f"{tag}: accepted step raised f {rec.f_in} -> {rec.f}")
        if rec.dual_box > 1.0 + BOX_TOL:
            report.violations.append(f"{tag}: dual box violated, |g|_inf = {rec.dual_box}")
        if rec.pcg_residual > rec.eta * rec.grad_norm_in * (1.0 + 1e-10):
            report.violations.append(
                f"{tag}: PCG residual {rec.pcg_residual} exceeds "
                f"eta*||grad|| = {rec.eta * rec.grad_norm_in}"
            )
    return report


def rate_probe(trace: Sequence[IterationRecord]) -> List[float]:
    """The last three consecutive gradient-norm ratios of the final stage;
    fewer when the stage has fewer than four records."""
    if not trace:
        return []
    last_stage = trace[-1].stage
    gnorms = [rec.grad_norm for rec in trace if rec.stage == last_stage][-4:]
    return [gnorms[i + 1] / gnorms[i] for i in range(len(gnorms) - 1)]
