"""Discrete Gronwall recursion and end-to-end rollout experiments.

A rollout compares the reference pushforward of one law against repeated
application of a model kernel to another.  Per window the machinery
measures the W2 mismatch, the distance-weighted average-strain exponent of
the reference flow along the optimal coupling, and the one-step defect of
the kernel; the closed-form recursion bound is then checked against the
measured mismatch.  A violated bound is a first-class falsification event,
reported with the full ledger.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ensemble import Ensemble
from .euler import (EulerConfig, _checkpoint_marks, _CoupledStrain, _march,
                    _velocity_batch, evolve)
# evolve and parallel_map are not called here; perfbench/test_perfbench.py
# checks that the tracer rebinds both names in this module
from .runtime import parallel_map
from .sampler import KernelSpec, _step_endpoints
from .transport import wasserstein_exact

__all__ = [
    "RolloutLedger",
    "gronwall_closed_form",
    "rollout_bound",
    "constant_coefficient_bound",
    "push_coupling",
    "run_rollout_experiment",
]


@dataclass
class RolloutLedger:
    """Per-step record: strain exponents, defects, mismatches, bounds."""

    alphas: np.ndarray    # alpha_n, n = 0..N-1
    defects: np.ndarray   # eps_n, n = 1..N
    deltas: np.ndarray    # delta_n, n = 0..N
    bounds: np.ndarray    # closed-form bound on delta_n, n = 0..N

    def __post_init__(self):
        arrays = [np.asarray(arr, dtype=np.float64) for arr in
                  (self.alphas, self.defects, self.deltas, self.bounds)]
        self.alphas, self.defects, self.deltas, self.bounds = arrays
        N = len(self.alphas)
        if len(self.defects) != N or len(self.deltas) != N + 1 \
                or len(self.bounds) != N + 1:
            raise ValueError("ledger length mismatch")
        for arr in arrays:
            if not np.all(np.isfinite(arr)) or np.any(arr < 0):
                raise ValueError("ledger entries must be finite and nonnegative")

    def rows(self):
        return [{"n": n,
                 "alpha": float(self.alphas[n - 1]) if n > 0 else 0.0,
                 "eps": float(self.defects[n - 1]) if n > 0 else 0.0,
                 "delta": float(self.deltas[n]),
                 "bound": float(self.bounds[n])}
                for n in range(len(self.alphas) + 1)]


def gronwall_closed_form(delta0: float, L, eps) -> np.ndarray:
    """delta_N <= (prod L_m) delta_0 + sum_j eps_j prod_{m>=j} L_m.

    Returns the closed-form bound at every step 0..N (empty products = 1).
    """
    L = np.asarray(L, dtype=np.float64)
    eps = np.asarray(eps, dtype=np.float64)
    if len(L) != len(eps):
        raise ValueError("need one defect per factor")
    if delta0 < 0 or np.any(L < 0) or np.any(eps < 0):
        raise ValueError("inputs must be nonnegative")
    out = np.empty(len(L) + 1)
    out[0] = delta0
    for n in range(1, len(L) + 1):
        prod = np.prod(L[:n])
        acc = prod * delta0
        for j in range(1, n + 1):
            acc += eps[j - 1] * np.prod(L[j:n])
        out[n] = acc
    return out


def rollout_bound(delta0: float, alphas, defects) -> np.ndarray:
    """Gronwall bound with multiplicative factors exp(alpha_n)."""
    alphas = np.asarray(alphas, dtype=np.float64)
    return gronwall_closed_form(delta0, np.exp(alphas), defects)


def constant_coefficient_bound(delta0: float, alpha_bar: float,
                               eps_bar: float, N: int) -> float:
    """e^{N a} delta_0 + eps (e^{N a} - 1)/(e^a - 1), or delta_0 + N eps at a=0."""
    if alpha_bar < 0 or eps_bar < 0 or delta0 < 0:
        raise ValueError("inputs must be nonnegative")
    if alpha_bar == 0.0:
        return float(delta0 + N * eps_bar)
    ea = np.exp(alpha_bar)
    return float(np.exp(N * alpha_bar) * delta0
                 + eps_bar * (np.exp(N * alpha_bar) - 1.0) / (ea - 1.0))


def push_coupling(a: Ensemble, b_aligned: Ensemble, cfg: EulerConfig,
                  t: float, checkpoints: int) -> tuple:
    """Push the aligned coupling (a_i, b_aligned_i) through the flow over
    [0, t], the two ensembles stacked into one march of 2N members.

    Returns (times, a_t, b_t, lambda, max|S|, squared distances
    (checkpoints+1, N)): the end states, and the coupled strain at the
    checkpoints+1 times of `evolve`.  The march's workers meet at each
    checkpoint and evaluate its strain there, each on a share of the pairs
    (`euler._CoupledStrain`), so no checkpoint is kept: the checkpoints
    take turns in two velocity buffers."""
    if checkpoints < 1:
        raise ValueError(f"checkpoints must be positive, got {checkpoints}")
    if a.size != b_aligned.size:
        raise ValueError("coupled ensembles must have equal size")
    n_steps, marks, times = _checkpoint_marks(cfg, t, checkpoints)
    values = np.concatenate([_velocity_batch(a, cfg),
                             _velocity_batch(b_aligned, cfg)])
    coupled = _CoupledStrain(a.size, a.grid, [0] + marks)
    bufs = (np.empty_like(values), np.empty_like(values))
    _march(values, cfg, n_steps,
           {s: bufs[c % 2] for c, s in enumerate(marks)}, hook=coupled)
    end = bufs[(checkpoints - 1) % 2]
    return (times, Ensemble(a.grid, end[:a.size]),
            Ensemble(a.grid, end[a.size:]), coupled.lam, coupled.sup,
            coupled.sq)


def run_rollout_experiment(a: Ensemble, b: Ensemble, cfg: EulerConfig,
                           model_spec: KernelSpec, n_steps: int,
                           dt_phys: float, master_seed,
                           checkpoints_per_window: int = 8,
                           slack: float = 5e-2) -> tuple:
    """Reference rollout of `a` against a model rollout of `b`.

    Per window: delta_n by exact W2, alpha_n from the optimal coupling at
    the window start pushed through the reference flow (trapezoid over the
    checkpoints), eps_{n+1} as the one-step defect of the kernel on the
    model law.  Returns (RolloutLedger, report dict); a violated per-step
    or final bound is reported as a falsification with the ledger attached.
    A CFL/NaN guard trip truncates the run and is recorded in
    `guard_events`; `horizon_complete` is then false, and so is `satisfied`.
    """
    if a.size != b.size:
        raise ValueError("ensembles must have equal member counts")
    for name, value in (("n_steps", n_steps), ("dt_phys", dt_phys),
                        ("checkpoints_per_window", checkpoints_per_window)):
        if not value > 0:
            raise ValueError(f"{name} must be positive, got {value}")
    grid = a.grid
    mu, mu_hat = a, b
    delta_0, plan = wasserstein_exact(mu, mu_hat, p=2)
    deltas = [delta_0]
    alphas, defects, guard_events = [], [], []

    for n in range(n_steps):
        # plan: the optimal coupling of (mu, mu_hat) at the window start,
        # solved (and certified) at the end of the previous window
        try:
            times_ref, ref_end, ref_b, lam, _, _ = push_coupling(
                mu, Ensemble(grid, mu_hat.values[plan.permutation]), cfg,
                dt_phys, checkpoints_per_window)
        except RuntimeError as exc:
            # CFL/NaN guard tripped: the run left the admissible data class;
            # truncate here and report the event instead of failing
            guard_events.append({"window": n, "event": str(exc)})
            n_steps = n
            break
        # distance-weighted average strain along the pushed optimal coupling
        alphas.append(float(np.trapezoid(lam, times_ref)))

        # the model kernel acts on mu_hat's members in their own order
        ref_push_hat = Ensemble(grid,
                                ref_b.values[np.argsort(plan.permutation)])
        model_out = _step_endpoints(mu_hat, model_spec, lambda e: ref_push_hat,
                                    master_seed, n)
        try:
            defects.append(wasserstein_exact(ref_push_hat, model_out, p=2)[0])
            mu, mu_hat = ref_end, model_out
            delta, plan = wasserstein_exact(mu, mu_hat, p=2)
        except ValueError as exc:
            # the model law the kernel made overflows the float range
            raise RuntimeError(f"rollout window {n}: {exc}") from None
        deltas.append(delta)

    ledger = RolloutLedger(alphas, defects, deltas,
                           rollout_bound(deltas[0], alphas, defects))
    alphas, defects, deltas, bounds = (ledger.alphas, ledger.defects,
                                       ledger.deltas, ledger.bounds)

    violations = []
    for n in range(n_steps):
        rhs = np.exp(alphas[n]) * deltas[n] + defects[n]
        if deltas[n + 1] > rhs * (1 + slack):
            violations.append({"n": n + 1, "delta": float(deltas[n + 1]),
                               "rhs": float(rhs)})
    per_step_ok = not violations
    final_ok = bool(deltas[-1] <= bounds[-1] * (1 + slack) or bounds[-1] == 0
                    and deltas[-1] <= 1e-12)
    # a guard trip truncates the horizon; a shorter run proves nothing about
    # the requested one
    horizon_complete = not guard_events
    report = {
        "n_steps": n_steps,
        "dt_phys": dt_phys,
        "delta_0": float(deltas[0]),
        "delta_final": float(deltas[-1]),
        "bound_final": float(bounds[-1]),
        "per_step_ok": bool(per_step_ok),
        "final_ok": final_ok,
        "horizon_complete": horizon_complete,
        "satisfied": bool(per_step_ok and final_ok and horizon_complete),
        "violations": violations,
        "guard_events": guard_events,
        "alpha_total": float(alphas.sum()),
        "max_defect": float(defects.max()) if len(defects) else 0.0,
        "slack": slack,
        "ledger": ledger.rows(),
    }
    return ledger, report
