"""Offline utility-optimal planner for proportional-ray admission.

Restricting every queue to admit on the ray lam_nk = a_n * p_on_nk**beta
turns rate planning into a concave program over (a, tau):

    maximize   sum_n sum_k U(a_n * p_on_nk**beta)
    subject to a_n <= sum_s c_n(s) * tau[s, n],   tau[s] in the simplex,

with the service coefficients c_n(s) from `stability.inner_coefficients`.

For the supported logarithmic utility the objective is increasing in each
a_n, so a_n is eliminated (a_n = sum_s c_n(s) tau[s, n]) and the residual
concave objective

    F(tau) = sum_n w_n * log(sum_s c_n(s) tau[s, n]) + const

is maximized by projected gradient ascent with Armijo backtracking, one
simplex {x >= 0, sum x <= 1} per channel state. w_n counts queue n's flows:
each flow's log term contributes marginal weight 1/a_n regardless of its
channel, so flows with p_on = 0 keep their place in the weight while their
admitted rate a_n * 0**beta stays 0 (their unbounded-below constant terms
are dropped from the reported objective).

Convergence is certified by the linearization gap max_d <grad, d - tau>
over the feasible set, which bounds the objective suboptimality from above;
the solver reports it as kkt_residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ConfigError, NetworkConfig

# inner_coefficient stays importable here: perfbench/tracing.py wraps it
from .stability import inner_coefficient, inner_coefficients  # noqa: F401

LOG_FLOOR = 1e-12

ARMIJO_SHRINK = 0.5
ARMIJO_SLOPE = 1e-4


def project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto {x : x >= 0, sum(x) <= 1}, row by row.

    `v` is one vector or a (rows, k) stack, each row projected on its own.
    If clipping negatives already lands inside, that is the projection;
    otherwise project onto the face sum(x) = 1 by the sorted-threshold rule
    (Duchi et al., ICML 2008), with rho the last index passing its test.
    Rows are summed in C order, so a row of a stack gets the same bits as
    the same row projected alone.
    """
    v = np.ascontiguousarray(v, dtype=float)
    clipped = np.maximum(v, 0.0)
    inside = clipped.sum(axis=-1, keepdims=True) <= 1.0
    if inside.all():
        return clipped
    k = v.shape[-1]
    u = np.sort(v, axis=-1)[..., ::-1]
    css = np.cumsum(u, axis=-1) - 1.0
    passed = u * np.arange(1, k + 1) > css
    rho = k - 1 - np.argmax(passed[..., ::-1], axis=-1, keepdims=True)
    theta = np.take_along_axis(css, rho, axis=-1) / (rho + 1.0)
    return np.where(inside, clipped, np.maximum(v - theta, 0.0))


@dataclass
class DfcSolution:
    """Planner output: per-queue scales, scheduler, rates, and diagnostics."""

    a: tuple[float, ...]
    tau: np.ndarray
    lambdas: tuple[tuple[float, ...], ...]
    objective: float
    kkt_residual: float
    iterations: int
    converged: bool


def _weights(cfg: NetworkConfig) -> np.ndarray:
    """Objective weight per queue: utility weight times flow count.

    Queues whose coefficients vanish everywhere cannot carry traffic and get
    weight zero (their rates are identically zero).
    """
    w = np.array([cfg.utility.weight * cfg.n_flows(n) for n in range(cfg.n_queues)])
    for n in range(cfg.n_queues):
        if not any(p > 0.0 for p in cfg.p_on_row(n)):
            w[n] = 0.0
    return w


def _objective_const(cfg: NetworkConfig) -> float:
    """Channel-dependent constant: beta * sum of log p_on over live flows."""
    return cfg.beta * cfg.utility.weight * math.fsum(
        math.log(p)
        for n in range(cfg.n_queues)
        for p in cfg.p_on_row(n)
        if p > 0.0
    )


def objective_and_gradient(
    cfg: NetworkConfig, tau: np.ndarray
) -> tuple[float, np.ndarray]:
    """Reduced objective F(tau) and its gradient, for a (2**N, N) grant table."""
    c = inner_coefficients(cfg)
    w = _weights(cfg)
    const = _objective_const(cfg)
    a = np.maximum((c * tau.T).sum(axis=1), LOG_FLOOR)
    obj = float(np.dot(w, np.log(a))) + const
    grad = (w / a)[:, None] * c  # shape (N, 2**N)
    return obj, grad.T.copy()


def solve_dfc(
    cfg: NetworkConfig,
    tol: float = 1e-6,
    max_iter: int = 100_000,
) -> DfcSolution:
    """Maximize the proportional-ray utility over (a, tau)."""
    n_queues = cfg.n_queues
    n_states = 1 << n_queues
    c = inner_coefficients(cfg)  # (N, S)
    w = _weights(cfg)  # (N,)
    const = _objective_const(cfg)
    if not np.any(w > 0):
        raise ConfigError(
            "queues[*].flows[*].p_off: every flow has p_off = 1, so no queue "
            "can carry traffic and there is no rate plan"
        )

    def f_of(tau_sn: np.ndarray) -> tuple[float, np.ndarray]:
        a = np.maximum((c * tau_sn.T).sum(axis=1), LOG_FLOOR)
        return float(np.dot(w, np.log(a))), a

    tau = np.full((n_states, n_queues), 1.0 / n_queues)
    fval, a = f_of(tau)
    step = 1.0
    gap = math.inf
    it = 0
    for it in range(1, max_iter + 1):
        grad = ((w / a)[:, None] * c).T  # (S, N)
        # linearization gap: per state the best vertex is the largest
        # gradient entry (or idling when none is positive).
        best = np.maximum(grad.max(axis=1), 0.0)
        gap = float(best.sum() - (grad * tau).sum())
        if gap <= tol:
            break
        accepted = False
        while step > 1e-16:
            cand = project_simplex(tau + step * grad)
            f_new, a_new = f_of(cand)
            if f_new >= fval + ARMIJO_SLOPE * float((grad * (cand - tau)).sum()):
                accepted = True
                break
            step *= ARMIJO_SHRINK
        if not accepted:
            break  # step collapsed; gap above reports how close we got
        tau, fval, a = cand, f_new, a_new
        step *= 2.0

    a_final = (c * tau.T).sum(axis=1)
    a_out = tuple(float(x) if x > LOG_FLOOR else 0.0 for x in a_final)
    lambdas = tuple(
        tuple(a_out[n] * p**cfg.beta for p in cfg.p_on_row(n))
        for n in range(n_queues)
    )
    return DfcSolution(
        a=a_out,
        tau=tau,
        lambdas=lambdas,
        objective=fval + const,
        kkt_residual=gap,
        iterations=it,
        converged=gap <= tol,
    )

