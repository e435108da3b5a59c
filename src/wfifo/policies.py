"""Online admission and scheduling rules driven by queue backlogs.

Two controller families share the engine interface. Both use the weighted
log utility U(x) = w * log(x), the only kind a config may name, so every
admission rule has a closed form:

* qfc: queue-level. Each queue picks one admission scale a_n by maximizing
  M * sum_k U(a_n * p_on_nk**beta) - Q_n * a_n over [0, r_max]. Every flow's
  log term has marginal weight 1/a_n whatever its channel, so
  a_n = min(r_max, M * w * K_n / Q_n), with K_n counting all of queue n's
  flows (a permanently OFF flow admits a_n * 0**beta = 0 but keeps its
  weight). Flow k then admits lam_nk = a_n * p_on_nk**beta. The scheduler
  grants the slot to the serviceable queue with the largest
  Q_n / sum_k p_on_nk**beta.
* maxweight: flow-level. Each flow maximizes M * U(lam) - Q_nk * lam over
  [0, r_max] against its own backlog, giving lam = min(r_max, M * w / Q_nk),
  and the scheduler grants the largest-backlog serviceable queue. It never
  looks at channel statistics, which is exactly the behavior the qfc design
  fixes.

An empty backlog admits at the cap r_max. Ties in either scheduler resolve
to the lowest queue index. A static policy replays fixed admission rates and
a fixed randomized grant table, e.g. a planner solution.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .core import ConfigError, NetworkConfig, SchedulingPolicy
from .dfc import DfcSolution

class Policy:
    """Per-slot admission and scheduling decisions for the simulator.

    `admission` returns per-flow admitted rates for the current backlogs.
    `schedule` picks a queue among the serviceable ones (head-of-line
    channel ON) or None; `u` is a uniform draw from the scheduling stream
    for randomized rules.
    """

    name = "abstract"

    def admission(self, q_totals: list[int], q_flows: list[list[int]]) -> list[list[float]]:
        raise NotImplementedError

    def schedule(
        self, q_totals: list[int], serviceable: list[int], state_bits: int, u: float
    ) -> Optional[int]:
        raise NotImplementedError


class QfcPolicy(Policy):
    name = "qfc"

    def __init__(self, cfg: NetworkConfig):
        self.r_max = cfg.r_max
        self.pon_beta = [
            [p**cfg.beta for p in cfg.p_on_row(n)] for n in range(cfg.n_queues)
        ]
        self.mk = [cfg.M * cfg.utility.weight * cfg.n_flows(n) for n in range(cfg.n_queues)]
        self.sched_w = []
        for n in range(cfg.n_queues):
            denom = math.fsum(self.pon_beta[n])
            # a queue whose flows are all permanently OFF is never serviceable,
            # so its weight is never consulted
            self.sched_w.append(1.0 / denom if denom > 0 else 0.0)

    def admission(self, q_totals, q_flows):
        out = []
        r_max = self.r_max
        for n, q in enumerate(q_totals):
            a = r_max if q == 0 else min(r_max, self.mk[n] / q)
            out.append([a * pb for pb in self.pon_beta[n]])
        return out

    def schedule(self, q_totals, serviceable, state_bits, u):
        best, best_w = None, -1.0
        for n in serviceable:
            w = q_totals[n] * self.sched_w[n]
            if w > best_w:
                best, best_w = n, w
        return best


class MaxWeightPolicy(Policy):
    name = "maxweight"

    def __init__(self, cfg: NetworkConfig):
        self.r_max = cfg.r_max
        self.mw = cfg.M * cfg.utility.weight

    def admission(self, q_totals, q_flows):
        out = []
        r_max = self.r_max
        mw = self.mw
        for row in q_flows:
            out.append([r_max if q == 0 else min(r_max, mw / q) for q in row])
        return out

    def schedule(self, q_totals, serviceable, state_bits, u):
        best, best_w = None, -1.0
        for n in serviceable:
            if q_totals[n] > best_w:
                best, best_w = n, q_totals[n]
        return best


class StaticPolicy(Policy):
    """Open-loop policy: constant admission rates, randomized grant table."""

    name = "static"

    def __init__(self, cfg: NetworkConfig, rates: list[list[float]], tau: np.ndarray):
        table = SchedulingPolicy(np.asarray(tau, dtype=float))
        if table.n_queues != cfg.n_queues:
            raise ValueError("grant table sized for a different number of queues")
        if len(rates) != cfg.n_queues or any(
            len(r) != cfg.n_flows(n) for n, r in enumerate(rates)
        ):
            raise ValueError("rates must give one value per flow")
        for n, row in enumerate(rates):
            for k, lam in enumerate(row):
                if not 0.0 <= lam < math.inf:
                    raise ValueError(f"rates[{n}][{k}] must be finite and >= 0, got {lam}")
        self.rates = [list(map(float, row)) for row in rates]
        self.tau = table.tau.tolist()

    def admission(self, q_totals, q_flows):
        return self.rates

    def schedule(self, q_totals, serviceable, state_bits, u):
        # walk the grant table's cumulative probabilities; a draw landing on
        # a non-serviceable queue (or past the total) idles the slot
        acc = 0.0
        for n, p in enumerate(self.tau[state_bits]):
            acc += p
            if u < acc:
                return n if n in serviceable else None
        return None


def static_dfc_policy(cfg: NetworkConfig, sol: DfcSolution) -> StaticPolicy:
    """Replay a planner solution as an open-loop simulation policy, named
    "dfc-static"; its type stays exactly StaticPolicy, for the block path."""
    policy = StaticPolicy(cfg, [list(r) for r in sol.lambdas], sol.tau)
    policy.name = "dfc-static"
    return policy


def serve_if_on_policy(cfg: NetworkConfig, rates: list[list[float]]) -> StaticPolicy:
    """Open-loop arrivals with the slot split evenly among serviceable queues."""
    table = SchedulingPolicy.uniform_over_on(cfg.n_queues)
    return StaticPolicy(cfg, rates, table.tau)


def build_policy(cfg: NetworkConfig, name: str) -> Policy:
    """Resolve a policy by its public name."""
    if name == "qfc":
        return QfcPolicy(cfg)
    if name == "maxweight":
        return MaxWeightPolicy(cfg)
    if name == "dfc-static":
        from .dfc import solve_dfc

        return static_dfc_policy(cfg, solve_dfc(cfg))
    if name == "static":
        missing = cfg.missing_lambda_fields()
        if missing:
            raise ConfigError(
                "static policy needs explicit arrival rates; missing: " + ", ".join(missing)
            )
        return serve_if_on_policy(cfg, cfg.lambdas())
    raise ValueError(f"unknown policy {name!r} (expected qfc, maxweight, dfc-static, static)")
