"""Offline utility-optimal planner for proportional-ray admission.

Restricting every queue to admit on the ray lam_nk = a_n * p_on_nk**beta
turns rate planning into a concave program over (a, tau):

    maximize   sum_n sum_k U(a_n * p_on_nk**beta)
    subject to a_n <= sum_s c_n(s) * tau[s, n],   tau[s] in the simplex,

with the service coefficients c_n(s) from `stability.inner_coefficients`.

For the supported logarithmic utility the objective is increasing in each
a_n, so a_n = sum_s c_n(s) tau[s, n] and what is left,

    F(tau) = sum_n w_n * log(sum_s c_n(s) tau[s, n]) + const,

is the Eisenberg-Gale program of a linear Fisher market: the queues are the
buyers, with budgets w_n, and the channel states are the goods, one unit
each, which queue n values at c_n(s). w_n counts queue n's flows: each
flow's log term contributes marginal weight 1/a_n regardless of its channel,
so flows with p_on = 0 keep their place in the weight while their admitted
rate a_n * 0**beta stays 0 (their unbounded-below constant terms are dropped
from the reported objective).

The equilibrium is reached by proportional-response dynamics (Wu & Zhang,
STOC 2007; Birnbaum, Devanur & Xiao, EC 2011): each queue bids on each
state in proportion to the utility it got there, b[s, n] = tau[s, n] *
g[s, n] with g = grad F; a state's price is its total bid p_s; each queue
gets the share tau[s, n] = b[s, n] / p_s, and a state nobody bids on grants
nothing. Every iterate is a grant table, so there is no projection and no
step size.

Convergence is certified by the linearization gap max_d <g, d - tau> over
the feasible set, which bounds the objective suboptimality from above; the
solver reports the gap of the table it returns as kkt_residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ConfigError, NetworkConfig

# inner_coefficient stays importable here: perfbench/tracing.py wraps it
from .stability import inner_coefficient, inner_coefficients  # noqa: F401

LOG_FLOOR = 1e-12


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
    # beta first: beta * weight can overflow where every log p_on is 0
    return cfg.utility.weight * (cfg.beta * math.fsum(
        math.log(p)
        for n in range(cfg.n_queues)
        for p in cfg.p_on_row(n)
        if p > 0.0
    ))


def _scales_and_gradient(
    c: np.ndarray, w: np.ndarray, tau: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Scales a_n = sum_s c_n(s) tau[s, n] (floored) and g[s, n] = w_n c_n(s) / a_n.

    `c` is the (N, 2**N) coefficient table and `tau` a (2**N, N) grant
    table; g, the gradient of F at tau, has the shape of tau.
    """
    a = np.maximum((c * tau.T).sum(axis=1), LOG_FLOOR)
    return a, ((w / a)[:, None] * c).T


def solve_dfc(
    cfg: NetworkConfig,
    tol: float = 1e-6,
    max_iter: int = 100_000,
) -> DfcSolution:
    """Maximize the proportional-ray utility over (a, tau)."""
    n_queues = cfg.n_queues
    c = inner_coefficients(cfg)  # (N, S)
    w = _weights(cfg)  # (N,)
    if not np.any(w > 0):
        raise ConfigError(
            "queues[*].flows[*].p_off: every flow has p_off = 1, so no queue "
            "can carry traffic and there is no rate plan"
        )
    # g[s, n] = w_n c_n(s) / a_n is at most w_n / LOG_FLOOR, and the gap sums
    # one per state; under this bound the objective stays finite too
    if not math.isfinite(float(w.max()) / LOG_FLOOR * (1 << n_queues)):
        raise ConfigError(f"utility.weight: {cfg.utility.weight!r} is too large for the "
                          f"planner: weight * flow count / {LOG_FLOOR} leaves float range "
                          f"when summed over {1 << n_queues} channel states")

    tau = np.full((1 << n_queues, n_queues), 1.0 / n_queues)
    a, g = _scales_and_gradient(c, w, tau)
    gap = math.inf
    it = 0
    for it in range(1, max_iter + 1):
        bids = tau * g
        prices = bids.sum(axis=1, keepdims=True)
        tau = np.divide(bids, prices, out=np.zeros_like(bids), where=prices > 0)
        a, g = _scales_and_gradient(c, w, tau)
        # g >= 0, so the best point of each state's simplex grants the whole
        # slot to the largest gradient entry
        gap = float(g.max(axis=1).sum() - (g * tau).sum())
        if gap <= tol:
            break

    a_out = tuple(float(x) if x > LOG_FLOOR else 0.0 for x in a)
    lambdas = tuple(
        tuple(a_out[n] * p**cfg.beta for p in cfg.p_on_row(n))
        for n in range(n_queues)
    )
    return DfcSolution(
        a=a_out,
        tau=tau,
        lambdas=lambdas,
        objective=float(np.dot(w, np.log(a))) + _objective_const(cfg),
        kkt_residual=gap,
        iterations=it,
        converged=gap <= tol,
    )
