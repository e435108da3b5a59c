"""Closed-form steady-state analysis of a saturated FIFO queue.

When a queue is continuously backlogged, its service process is a Markov
chain over which flow sits at the head of the line and whether that flow's
channel is ON. The chain has one serviceable state (HOL channel ON, a packet
departs) and one blocked state per flow (flow k at HOL with channel OFF).

With per-flow arrival rates lam_k, arrival shares alpha_k = lam_k / sum(lam)
and ON probabilities p_on_k, the stationary quantities are

    P[serviceable] = sum(lam) / sum(lam_k / p_on_k)
    P[blocked on k] = P[serviceable] * alpha_k * p_off_k / p_on_k
    P[HOL = k]      = (lam_k / p_on_k) / sum(lam_l / p_on_l)

Flows with lam_k = 0 never occupy the head of line and drop out. A flow with
lam_k > 0 and p_on_k = 0 eventually pins a never-ON packet at the head of the
line, an absorbing blocked state, and is rejected.

Across queues, the per-queue head-of-line processes are independent, so
joint state/HOL probabilities factor into per-queue terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import ON, NetworkConfig, state_bit


@dataclass(frozen=True)
class SteadyState:
    """Stationary distribution of one saturated queue's blocking chain.

    p_serviceable: probability the HOL packet's channel is ON.
    p_blocked[k]:  probability flow k is at HOL with its channel OFF.
    p_hol[k]:      probability flow k occupies the head of line.
    """

    p_serviceable: float
    p_blocked: tuple[float, ...]
    p_hol: tuple[float, ...]


def _check_queue(lambdas: list[float], p_off: list[float]) -> None:
    if len(lambdas) != len(p_off):
        raise ValueError(
            f"got {len(lambdas)} rates for {len(p_off)} flows; lengths must match"
        )
    if not lambdas:
        raise ValueError("queue has no flows")
    for k, (lam, p) in enumerate(zip(lambdas, p_off)):
        if not 0.0 <= lam < math.inf:
            raise ValueError(f"flow {k}: arrival rate must be finite and >= 0, got {lam}")
        if not (0.0 <= p <= 1.0):
            raise ValueError(f"flow {k}: p_off must be in [0, 1], got {p}")
        if lam > 0 and p >= 1.0:
            raise ValueError(
                f"flow {k}: absorbing blocking state (lambda > 0 with p_on = 0)"
            )
    if not any(lam > 0 for lam in lambdas):
        raise ValueError("no traffic: all arrival rates are zero")


def single_queue_steady_state(lambdas: list[float], p_off: list[float]) -> SteadyState:
    """Stationary blocking-chain distribution for one saturated queue."""
    _check_queue(lambdas, p_off)
    weights = [lam / (1.0 - p) if lam > 0 else 0.0 for lam, p in zip(lambdas, p_off)]
    denom = math.fsum(weights)
    total = math.fsum(lambdas)
    p_serviceable = total / denom
    p_blocked = tuple(
        p_serviceable * (lam / total) * (p / (1.0 - p)) if lam > 0 else 0.0
        for lam, p in zip(lambdas, p_off)
    )
    p_hol = tuple(w / denom for w in weights)
    return SteadyState(p_serviceable, p_blocked, p_hol)


def state_marginal(lambdas: list[float], p_off: list[float], s: int) -> float:
    """P[queue's HOL channel state = s] for one saturated queue."""
    _check_queue(lambdas, p_off)
    # P[HOL channel = s | flow k at HOL] / p_on: 1 when s is ON, p_off/p_on when OFF
    num = math.fsum(
        (1.0 if s == ON else p / (1.0 - p)) * lam
        for lam, p in zip(lambdas, p_off)
        if lam > 0
    )
    den = math.fsum(lam / (1.0 - p) for lam, p in zip(lambdas, p_off) if lam > 0)
    return num / den


def joint_state_hol_prob(
    cfg: NetworkConfig,
    lambdas: list[list[float]],
    state: int,
    n: int,
    k: int,
) -> float:
    """P[joint channel state, flow k at queue n's head of line].

    The joint probability factors: queue n contributes its HOL probability
    for flow k times that flow's channel likelihood for its bit of `state`;
    every other queue contributes its marginal state probability.
    """
    if not (0 <= n < cfg.n_queues):
        raise ValueError(f"queue index {n} out of range")
    if not (0 <= k < cfg.n_flows(n)):
        raise ValueError(f"flow index {k} out of range for queue {n}")
    if not (0 <= state < (1 << cfg.n_queues)):
        raise ValueError(f"state {state} out of range for {cfg.n_queues} queues")
    ss = single_queue_steady_state(lambdas[n], cfg.p_off_row(n))
    p = cfg.queues[n].flows[k].p_off
    prob = ss.p_hol[k] * ((1.0 - p) if state_bit(state, n) == ON else p)
    for m in range(cfg.n_queues):
        if m == n:
            continue
        prob *= state_marginal(lambdas[m], cfg.p_off_row(m), state_bit(state, m))
    return prob
