"""Rate-region checks for FIFO queues sharing one transmission slot.

Three nested views of feasibility:

* single queue: total head-of-line work sum(lam_k / p_on_k) <= 1.
* multiqueue, exact: under a stationary scheduler tau, queue n is granted
  a serviceable slot at rate r_n, its grant probability averaged over joint
  channel states weighted by the other queues' stationary state marginals.
  Feasible iff r_n covers the queue's head-of-line work for every loaded
  queue. Under the best tau, feasible iff every subset of queues fits in
  the slots where one of them is serviceable.
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

from .core import FEAS_TOL, OFF, ON, NetworkConfig, SchedulingPolicy
from .markov import state_marginal


@dataclass
class Margin:
    """Outcome of a feasibility check: per-constraint slacks, min-aggregated."""

    slacks: dict[str, float] = field(default_factory=dict)

    @property
    def feasible(self) -> bool:
        return all(v >= -FEAS_TOL for v in self.slacks.values())

    @property
    def min_slack(self) -> float:
        return min(self.slacks.values()) if self.slacks else math.inf


def single_queue_margin(lambdas: list[float], p_off: list[float]) -> Margin:
    """Slack of the single-queue head-of-line load condition."""
    if len(lambdas) != len(p_off):
        raise ValueError("lambdas and p_off lengths must match")
    load = 0.0
    for k, (lam, p) in enumerate(zip(lambdas, p_off)):
        if not 0.0 <= lam < math.inf:
            raise ValueError(f"flow {k}: arrival rate must be finite and >= 0, got {lam}")
        if not (0.0 <= p <= 1.0):
            raise ValueError(f"flow {k}: p_off must be in [0, 1], got {p}")
        if lam > 0 and p >= 1.0:
            return Margin({"hol_load": -math.inf})
        if lam > 0:
            load += lam / (1.0 - p)
    return Margin({"hol_load": 1.0 - load})


def _absorbing(lams: list[float], p_off: list[float]) -> bool:
    """A loaded never-ON flow eventually pins the queue's head of line."""
    return any(lam > 0.0 and p >= 1.0 for lam, p in zip(lams, p_off))


def _state_factor(lams: list[float], p_off: list[float], s: int) -> float:
    """Stationary P[a queue with rates `lams` presents channel state s].

    A queue with no traffic never has a head-of-line packet, so it presents
    OFF with probability 1; an absorbing queue does the same.
    """
    if all(lam <= 0.0 for lam in lams) or _absorbing(lams, p_off):
        return 1.0 if s == OFF else 0.0
    return state_marginal(lams, p_off, s)


def _factors(rows: list[tuple[list[float], list[float]]]) -> np.ndarray:
    """(N, 2) table of each queue's (OFF, ON) factor from its (rates, p_off)."""
    return np.array([[_state_factor(lams, p_off, OFF), _state_factor(lams, p_off, ON)]
                     for lams, p_off in rows])


def _state_products(factor: np.ndarray, first: np.ndarray) -> np.ndarray:
    """The (R, 2**N) table first[r] * prod_m factor[r, m, s_m] over state masks s.

    factor[r, m] is row r's (OFF, ON) factor for queue m. The factors are
    multiplied in increasing m; pass m appends the states with bit m set
    after those with it clear, so the columns come out in mask order.
    """
    table = np.asarray(first, dtype=float)[:, None]
    for m in range(factor.shape[1]):
        table = np.concatenate(
            [table * factor[:, m, OFF, None], table * factor[:, m, ON, None]], axis=1
        )
    return table


def _served_products(factor: np.ndarray, first: np.ndarray) -> np.ndarray:
    """Table w[n, s] = first[n] * 1[s_n = ON] * prod_{m != n} factor[m, s_m]:
    the weight of a grant to queue n in state s."""
    n_queues = len(factor)
    rows = np.repeat(factor[None], n_queues, axis=0)
    rows[np.arange(n_queues), np.arange(n_queues)] = (0.0, 1.0)  # 1[s_n = ON]
    return _state_products(rows, first)


def _grant_sum_slacks(policy: SchedulingPolicy) -> dict[str, float]:
    idle = (1.0 - policy.tau.sum(axis=1)).tolist()
    return {f"grant_sum[{s}]": v for s, v in enumerate(idle)}


def check_service_region(
    cfg: NetworkConfig,
    lambdas: list[list[float]],
    policy: SchedulingPolicy,
) -> Margin:
    """Exact feasibility of `lambdas` under a fixed stationary scheduler.

    Queue n is granted a serviceable slot at rate
    r_n = sum_s tau[s, n] * 1[s_n = ON] * prod_{m != n} f_m(s_m), with f_m
    queue m's state marginal, and flow (n, k) is served at lam_nk * r_n / D_n,
    with D_n = sum_k lam_nk / p_on_nk the queue's head-of-line work.
    """
    if policy.n_queues != cfg.n_queues:
        raise ValueError("policy is sized for a different number of queues")
    rows = [(lambdas[m], cfg.p_off_row(m)) for m in range(cfg.n_queues)]
    weights = _served_products(_factors(rows), np.ones(len(rows)))
    return _service_margin(rows, _queue_work(rows), weights, policy)


def _queue_work(rows: list[tuple[list[float], list[float]]]) -> list[tuple[float, bool]]:
    """Each queue's head-of-line work D_n and whether it is absorbing, from
    its (rates, p_off) row."""
    return [(math.fsum(l / (1.0 - p) for l, p in zip(lams, p_off) if l > 0 and p < 1.0),
             _absorbing(lams, p_off)) for lams, p_off in rows]


def _rate_slacks(rows: list[tuple[list[float], list[float]]], work: list[tuple[float, bool]],
                 weights: np.ndarray, tau: np.ndarray) -> list[float]:
    """Every flow's rate slack under the grant table tau, queue by queue,
    given the queues' rows, their `_queue_work` and `_served_products` from 1."""
    grant = (weights * tau.T).sum(axis=1).tolist()
    return [0.0 if lam <= 0.0 else -math.inf if absorbing else lam * g / hol_work - lam
            for (lams, _), (hol_work, absorbing), g in zip(rows, work, grant) for lam in lams]


def _service_margin(rows: list[tuple[list[float], list[float]]], work: list[tuple[float, bool]],
                    weights: np.ndarray, policy: SchedulingPolicy) -> Margin:
    """`check_service_region`'s margin from the arguments of `_rate_slacks`."""
    keys = [f"rate[{n}][{k}]" for n, (lams, _) in enumerate(rows) for k in range(len(lams))]
    slacks = dict(zip(keys, _rate_slacks(rows, work, weights, policy.tau)))
    slacks.update(_grant_sum_slacks(policy))
    return Margin(slacks)


def check_stability_region(cfg: NetworkConfig, lambdas: list[list[float]]) -> Margin:
    """Exact feasibility of `lambdas` under the best stationary scheduler.

    Over every grant table, x_n = f_n(ON) * r_n (see `check_service_region`)
    ranges over the polymatroid x(A) <= 1 - prod_{m in A} f_m(OFF), A any
    subset of queues: the server-allocation region of Tassiulas and
    Ephremides (IEEE Trans. Inf. Theory 39(2), 1993). Queue n keeps up iff
    x_n >= f_n(ON) * D_n = Lambda_n, its total rate. So the rates are feasible
    iff the queues of every A need at most the slots where one of them is
    serviceable, Lambda(A) <= 1 - prod_{m in A} f_m(OFF); a violated subset
    certifies infeasibility for every tau.

    Slacks are keyed `subset[A]` by the nonzero mask A (bit n: queue n); a
    subset holding an absorbing queue gets -inf.
    """
    rows = [(lambdas[m], cfg.p_off_row(m)) for m in range(cfg.n_queues)]
    off = _factors(rows)[:, OFF]  # P[every queue in A presents OFF] from (1, f_m(OFF))
    all_off = _state_products(np.stack([np.ones_like(off), off], axis=1)[None], np.ones(1))[0]
    need = np.zeros(1)  # Lambda(A), built up one queue at a time like the products
    for lams, p_off in rows:
        total = math.inf if _absorbing(lams, p_off) else math.fsum(lams)
        need = np.concatenate([need, need + total])
    slack = ((1.0 - all_off) - need).tolist()
    return Margin({f"subset[{a}]": slack[a] for a in range(1, len(slack))})


# ----- Parametric inner region: lam_nk = a_n * p_on**beta -----


def _live_p_on(cfg: NetworkConfig, n: int) -> list[float]:
    return [p for p in cfg.p_on_row(n) if p > 0.0]


def _kappa(cfg: NetworkConfig, n: int) -> float:
    """Own-queue factor 1 / sum_k p_on**(beta - 1) over live flows; 0 if dead."""
    p_on = _live_p_on(cfg, n)
    return 1.0 / math.fsum(p**(cfg.beta - 1.0) for p in p_on) if p_on else 0.0


def _ray_row(cfg: NetworkConfig, m: int) -> tuple[list[float], list[float]]:
    """Queue m's (rates, p_off) on the ray lam = a * p_on**beta, with a = 1
    (it cancels from the marginal) and p_off recomputed as 1 - p_on."""
    p_on = cfg.p_on_row(m)
    return [p**cfg.beta for p in p_on], [1.0 - p for p in p_on]


def inner_coefficient(cfg: NetworkConfig, n: int, state: int) -> float:
    """Coefficient c_n(state): the per-slot service weight queue n earns in
    `state` toward its scale a_n, assuming every queue admits on the
    proportional ray lam = a * p_on**beta. One entry of `inner_coefficients`,
    which it builds whole."""
    if not (0 <= n < cfg.n_queues):
        raise ValueError(f"queue index {n} out of range")
    if not (0 <= state < (1 << cfg.n_queues)):
        raise ValueError(f"state {state} out of range")
    if not _live_p_on(cfg, n):
        raise ValueError(f"queue {n}: dead queue (every flow has p_on = 0)")
    return float(inner_coefficients(cfg)[n, state])


def inner_coefficients(cfg: NetworkConfig) -> np.ndarray:
    """Table c[n, s] of every `inner_coefficient`; a dead queue's row is zeros.

    c_n(s) = kappa_n * 1[s_n = ON] * prod_{m != n} f_m(s_m), with f_m queue
    m's state marginal on the ray. The products start from kappa_n and take
    the f_m in increasing m.
    """
    n_queues = cfg.n_queues
    kappa = np.array([_kappa(cfg, n) for n in range(n_queues)])
    return _served_products(_factors([_ray_row(cfg, m) for m in range(n_queues)]), kappa)


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
        if not 0.0 <= a_n < math.inf:
            raise ValueError(f"queue {n}: scale must be finite and >= 0, got {a_n}")
        if not _live_p_on(cfg, n):
            slacks[f"scale[{n}]"] = 0.0 if a_n == 0.0 else -math.inf
            continue
        cap = math.fsum(c[n] * policy.tau[:, n])
        slacks[f"scale[{n}]"] = cap - a_n
    slacks.update(_grant_sum_slacks(policy))
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

    def split(x: float) -> np.ndarray:
        tau = np.zeros((4, 2))
        tau[0b01, 0] = 1.0  # only queue 0 serviceable
        tau[0b10, 1] = 1.0  # only queue 1 serviceable
        tau[0b11] = [x, 1.0 - x]
        return tau

    # the rates are fixed, so one grant-weight table and one set of queue
    # loads serve every split
    rows = [(lambdas[m], cfg.p_off_row(m)) for m in range(n_queues)]
    work = _queue_work(rows)
    weights = _served_products(_factors(rows), np.ones(n_queues))
    at0 = np.array(_rate_slacks(rows, work, weights, split(0.0)))
    at1 = np.array(_rate_slacks(rows, work, weights, split(1.0)))
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
    policy = SchedulingPolicy(split(best_x))
    return policy, _service_margin(rows, work, weights, policy)
