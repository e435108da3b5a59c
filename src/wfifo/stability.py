"""Rate-region checks for FIFO queues sharing one transmission slot.

Three nested views of feasibility:

* single queue: total head-of-line work sum(lam_k / p_on_k) <= 1.
* multiqueue, exact: under a stationary scheduler tau, flow (n, k) can be
  served at long-run rate lam_nk * r_n, where r_n averages queue n's grant
  probability over joint channel states weighted by the other queues'
  stationary state marginals. Feasible iff r_n >= 1 for every loaded queue.
* multiqueue, parametric inner region: restrict arrivals to the ray
  lam_nk = a_n * p_on_nk**beta. Then a_n is feasible iff
  a_n <= sum_s c_n(s) * tau[s, n] with the coefficients computed here.

All slacks are reported as (capacity - load); negative means infeasible.
Feasibility uses an absolute tolerance of 1e-9.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .core import FEAS_TOL, OFF, ON, NetworkConfig, SchedulingPolicy, state_bit
from .markov import state_marginal


@dataclass
class Margin:
    """Outcome of a feasibility check: per-constraint slacks, min-aggregated."""

    slacks: dict[str, float] = field(default_factory=dict)
    tol: float = FEAS_TOL

    @property
    def feasible(self) -> bool:
        return all(v >= -self.tol for v in self.slacks.values())

    @property
    def min_slack(self) -> float:
        return min(self.slacks.values()) if self.slacks else math.inf


def single_queue_margin(lambdas: list[float], p_off: list[float]) -> Margin:
    """Slack of the single-queue head-of-line load condition."""
    if len(lambdas) != len(p_off):
        raise ValueError("lambdas and p_off lengths must match")
    load = 0.0
    for k, (lam, p) in enumerate(zip(lambdas, p_off)):
        if lam < 0:
            raise ValueError(f"flow {k}: arrival rate must be >= 0")
        if not (0.0 <= p <= 1.0):
            raise ValueError(f"flow {k}: p_off must be in [0, 1]")
        if lam > 0 and p >= 1.0:
            return Margin({"hol_load": -math.inf})
        if lam > 0:
            load += lam / (1.0 - p)
    return Margin({"hol_load": 1.0 - load})


def _queue_traffic(lambdas: list[list[float]], n: int) -> bool:
    return any(lam > 0 for lam in lambdas[n])


def _queue_absorbing(cfg: NetworkConfig, lambdas: list[list[float]], n: int) -> bool:
    return any(
        lam > 0 and f.p_on <= 0.0
        for lam, f in zip(lambdas[n], cfg.queues[n].flows)
    )


def _state_factor(cfg: NetworkConfig, lambdas: list[list[float]], m: int, s: int) -> float:
    """Stationary P[queue m presents channel state s] seen by the scheduler.

    A queue with no traffic never has a head-of-line packet, so it presents
    OFF with probability 1; one stuck on a never-ON flow does the same.
    """
    if not _queue_traffic(lambdas, m) or _queue_absorbing(cfg, lambdas, m):
        return 1.0 if s == OFF else 0.0
    return state_marginal(lambdas[m], cfg.p_off_row(m), s)


def _grant_rate(
    cfg: NetworkConfig,
    lambdas: list[list[float]],
    policy: SchedulingPolicy,
    n: int,
) -> float:
    """Average probability that queue n is granted a serviceable slot,
    weighted by the other queues' state marginals."""
    total = 0.0
    for s in range(1 << cfg.n_queues):
        if state_bit(s, n) != ON:
            continue
        w = policy.prob(s, n)
        if w == 0.0:
            continue
        for m in range(cfg.n_queues):
            if m != n:
                w *= _state_factor(cfg, lambdas, m, state_bit(s, m))
                if w == 0.0:
                    break
        total += w
    return total


def service_bound(
    cfg: NetworkConfig,
    lambdas: list[list[float]],
    policy: SchedulingPolicy,
    n: int,
    k: int,
) -> float:
    """Long-run service rate available to flow k of queue n under `policy`."""
    if policy.n_queues != cfg.n_queues:
        raise ValueError("policy is sized for a different number of queues")
    lam = lambdas[n][k]
    if lam <= 0.0:
        return 0.0
    if _queue_absorbing(cfg, lambdas, n):
        return 0.0
    hol_work = math.fsum(
        l / (1.0 - p) for l, p in zip(lambdas[n], cfg.p_off_row(n)) if l > 0
    )
    return lam * _grant_rate(cfg, lambdas, policy, n) / hol_work


def check_service_region(
    cfg: NetworkConfig,
    lambdas: list[list[float]],
    policy: SchedulingPolicy,
) -> Margin:
    """Exact feasibility of `lambdas` under a fixed stationary scheduler."""
    if policy.n_queues != cfg.n_queues:
        raise ValueError("policy is sized for a different number of queues")
    slacks: dict[str, float] = {}
    for n in range(cfg.n_queues):
        for k, lam in enumerate(lambdas[n]):
            if lam <= 0.0:
                slacks[f"rate[{n}][{k}]"] = 0.0
            elif _queue_absorbing(cfg, lambdas, n):
                slacks[f"rate[{n}][{k}]"] = -math.inf
            else:
                slacks[f"rate[{n}][{k}]"] = service_bound(cfg, lambdas, policy, n, k) - lam
    for s in range(1 << cfg.n_queues):
        slacks[f"grant_sum[{s}]"] = 1.0 - float(np.sum(policy.tau[s]))
    return Margin(slacks)


# ----- Parametric inner region: lam_nk = a_n * p_on**beta -----


def _live_p_on(cfg: NetworkConfig, n: int) -> list[float]:
    return [p for p in cfg.p_on_row(n) if p > 0.0]


def inner_coefficient(cfg: NetworkConfig, n: int, state: int) -> float:
    """Coefficient c_n(state): the per-slot service weight queue n earns in
    `state` toward its scale a_n, assuming every queue admits on the
    proportional ray lam = a * p_on**beta."""
    if not (0 <= n < cfg.n_queues):
        raise ValueError(f"queue index {n} out of range")
    if not (0 <= state < (1 << cfg.n_queues)):
        raise ValueError(f"state {state} out of range")
    p_on = _live_p_on(cfg, n)
    if not p_on:
        raise ValueError(f"queue {n}: dead queue (every flow has p_on = 0)")
    if state_bit(state, n) != ON:
        return 0.0
    beta = cfg.beta
    c = 1.0 / math.fsum(p**(beta - 1.0) for p in p_on)
    for m in range(cfg.n_queues):
        if m == n:
            continue
        c *= _exponent_state_factor(cfg, m, state_bit(state, m))
        if c == 0.0:
            break
    return c


def _exponent_state_factor(cfg: NetworkConfig, m: int, s: int) -> float:
    """State marginal of queue m when it admits on the ray lam = a * p_on**beta.

    This is the generic state marginal evaluated at synthetic rates
    p_on**beta; the scale a cancels. A dead queue admits nothing and
    presents OFF.
    """
    p_on = cfg.p_on_row(m)
    live = [(p**cfg.beta, 1.0 - p) for p in p_on if p > 0.0]
    if not live:
        return 1.0 if s == OFF else 0.0
    lams = [w for w, _ in live]
    p_offs = [p for _, p in live]
    return state_marginal(lams, p_offs, s)


def inner_coefficients(cfg: NetworkConfig) -> np.ndarray:
    """Table c[n, s] of every `inner_coefficient`; a dead queue's row is zeros.

    c_n(s) = kappa_n * 1[s_n = ON] * prod_{m != n} f_m(s_m) factors per queue,
    so each f_m is evaluated once per channel state and the products are
    taken in increasing m, the order `inner_coefficient` uses: the table
    equals the per-state values bit for bit.
    """
    n_queues = cfg.n_queues
    queues = np.arange(n_queues)
    bits = (np.arange(1 << n_queues) >> queues[:, None]) & 1  # (N, 2**N)
    kappa = np.zeros(n_queues)
    factor = np.empty((n_queues, 2))  # f_m(OFF), f_m(ON)
    for m in range(n_queues):
        p_on = _live_p_on(cfg, m)
        if p_on:
            kappa[m] = 1.0 / math.fsum(p**(cfg.beta - 1.0) for p in p_on)
        factor[m] = [_exponent_state_factor(cfg, m, OFF),
                     _exponent_state_factor(cfg, m, ON)]
    c = np.where(bits == ON, kappa[:, None], 0.0)
    for m in range(n_queues):
        c[queues != m] *= factor[m, bits[m]]
    return c


def check_inner_bound(
    cfg: NetworkConfig,
    a: list[float],
    policy: SchedulingPolicy,
) -> Margin:
    """Feasibility of per-queue scales `a` within the parametric inner region."""
    if len(a) != cfg.n_queues:
        raise ValueError(f"expected {cfg.n_queues} scales, got {len(a)}")
    if policy.n_queues != cfg.n_queues:
        raise ValueError("policy is sized for a different number of queues")
    c = inner_coefficients(cfg)
    slacks: dict[str, float] = {}
    for n, a_n in enumerate(a):
        if a_n < 0:
            raise ValueError(f"queue {n}: scale must be >= 0, got {a_n}")
        if not _live_p_on(cfg, n):
            slacks[f"scale[{n}]"] = 0.0 if a_n == 0.0 else -math.inf
            continue
        cap = math.fsum(c[n] * policy.tau[:, n])
        slacks[f"scale[{n}]"] = cap - a_n
    idle = (1.0 - policy.tau.sum(axis=1)).tolist()
    slacks.update((f"grant_sum[{s}]", v) for s, v in enumerate(idle))
    return Margin(slacks)


# ----- Two-queue boundary and best-policy search -----


def sweep_two_queue_boundary(
    p_off_n: tuple[float, float],
    p_off_m: float,
    grid: int = 21,
) -> list[tuple[float, float, float]]:
    """Boundary of the exact region for two queues and three flows.

    Queue n carries flows 1 and 2 (OFF probabilities `p_off_n`); queue m
    carries a single flow (OFF probability `p_off_m`). For each grid point
    (lam_n1, lam_n2) with sum(lam / p_on) <= 1, returns the largest
    feasible lam_m1 under the best stationary scheduler:

        lam_m1 = min(p_off_m * L / D + p_on_m - L,  p_on_m)

    with L = lam_n1 + lam_n2 and D = lam_n1/p_on_n1 + lam_n2/p_on_n2.
    Rows are (lam_n1, lam_n2, lam_m1_max).
    """
    if grid < 2:
        raise ValueError("grid must have at least 2 points per axis")
    for p in (*p_off_n, p_off_m):
        if not (0.0 <= p < 1.0):
            raise ValueError(f"p_off must be in [0, 1) on the boundary sweep, got {p}")
    pon1, pon2 = 1.0 - p_off_n[0], 1.0 - p_off_n[1]
    pon_m = 1.0 - p_off_m
    rows = []
    for lam1 in np.linspace(0.0, pon1, grid):
        for lam2 in np.linspace(0.0, pon2, grid):
            load = lam1 / pon1 + lam2 / pon2
            if load > 1.0 + FEAS_TOL:
                continue
            total = lam1 + lam2
            if total <= 0.0:
                cap = pon_m
            else:
                cap = min(p_off_m * total / load + pon_m - total, pon_m)
            rows.append((float(lam1), float(lam2), float(cap)))
    return rows


def best_policy_search(
    cfg: NetworkConfig,
    lambdas: list[list[float]],
) -> tuple[SchedulingPolicy, Margin]:
    """Exact scheduler maximizing the worst per-flow rate slack.

    Only networks of one or two queues are supported. Every state with a
    lone serviceable queue grants that queue the whole slot (grant weights
    are nonnegative, so full allocation is never worse), which leaves one
    free split with two queues: x = tau[both ON, queue 0]. With the rates
    fixed, every rate slack is affine in x (an absorbing queue's -inf is a
    constant), so their minimum is concave and piecewise affine: it peaks at
    x = 0, x = 1 or where two slacks cross. The smallest best x is taken.
    Returns the best policy and its feasibility margin.
    """
    n_queues = cfg.n_queues
    if n_queues > 2:
        raise ValueError("best policy search supports at most two queues")
    if n_queues == 1:
        tau = np.zeros((2, 1))
        tau[ON, 0] = 1.0
        best = SchedulingPolicy(tau)
        return best, check_service_region(cfg, lambdas, best)

    def split(x: float) -> SchedulingPolicy:
        tau = np.zeros((4, 2))
        tau[0b01, 0] = 1.0  # only queue 0 serviceable
        tau[0b10, 1] = 1.0  # only queue 1 serviceable
        tau[0b11] = [x, 1.0 - x]
        return SchedulingPolicy(tau)

    def rate_slacks(x: float) -> np.ndarray:
        margin = check_service_region(cfg, lambdas, split(x))
        return np.array([v for key, v in margin.slacks.items() if key.startswith("rate")])

    at0, at1 = rate_slacks(0.0), rate_slacks(1.0)
    finite = np.isfinite(at0)
    slope = np.zeros_like(at0)
    slope[finite] = at1[finite] - at0[finite]
    candidates = {0.0, 1.0}
    for i, j in itertools.combinations(np.flatnonzero(finite), 2):
        if slope[i] != slope[j]:
            x = float((at0[j] - at0[i]) / (slope[i] - slope[j]))
            if 0.0 < x < 1.0:
                candidates.add(x)

    def worst(x: float) -> float:
        return float(np.min(at0 + slope * x, initial=math.inf))

    # max keeps the first of equal values, so ties go to the smallest x
    best_x = max(sorted(candidates), key=worst)
    policy = split(best_x)
    return policy, check_service_region(cfg, lambdas, policy)
