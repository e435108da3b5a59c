"""Shared builders and test-only reference oracles for the test suite."""

import math
from fractions import Fraction

import numpy as np

from wfifo import FlowSpec, NetworkConfig, QueueSpec, RunSpec, SchedulingPolicy
from wfifo.core import OFF, ON, state_bit
from wfifo.dfc import LOG_FLOOR, _objective_const, _scales_and_gradient, _weights, solve_dfc
from wfifo.markov import SteadyState, state_marginal
from wfifo.policies import StaticPolicy, serve_if_on_policy
from wfifo.sim import (_BLOCK, SLOPE_STABLE, SLOPE_UNSTABLE, SaturatedMetrics,
                       StabilityVerdict, _stream)
from wfifo.stability import best_policy_search, inner_coefficients, sweep_two_queue_boundary


def make_cfg(p_off_rows, lambdas=None, beta=1.0, M=1000.0, r_max=2.0):
    """NetworkConfig from nested p_off lists, optionally with arrival rates."""
    queues = []
    for n, row in enumerate(p_off_rows):
        flows = []
        for k, p in enumerate(row):
            lam = None if lambdas is None else lambdas[n][k]
            flows.append(FlowSpec(p_off=p, lam=lam))
        queues.append(QueueSpec(flows=flows))
    return NetworkConfig(queues=queues, beta=beta, M=M, r_max=r_max)


def single_queue_cfg(p_off, lambdas=None, **kw):
    return make_cfg([list(p_off)], None if lambdas is None else [list(lambdas)], **kw)


def uniform_policy(n_queues: int) -> SchedulingPolicy:
    """Grant every queue 1/N of every state, OFF queues included."""
    return SchedulingPolicy(np.full((1 << n_queues, n_queues), 1.0 / n_queues))


def objective_and_gradient(cfg: NetworkConfig, tau: np.ndarray) -> tuple[float, np.ndarray]:
    """The planner's reduced objective F(tau) and its own gradient, for a
    (2**N, N) grant table."""
    w = _weights(cfg)
    a, g = _scales_and_gradient(inner_coefficients(cfg), w, tau)
    return float(np.dot(w, np.log(a))) + _objective_const(cfg), g


# ----- reference per-state region check -----


def _reference_state_factor(lams, p_off, s):
    if not any(lam > 0 for lam in lams) or any(
        lam > 0 and p >= 1.0 for lam, p in zip(lams, p_off)
    ):
        return 1.0 if s == OFF else 0.0
    return state_marginal(lams, p_off, s)


def service_region_reference(cfg: NetworkConfig, lambdas, policy: SchedulingPolicy):
    """Slacks of `stability.check_service_region`, one state at a time.

    Queue n's grant rate sums tau[s, n] times the other queues' state
    marginals over the states where queue n presents ON; flow (n, k) is
    served at lam * rate / (head-of-line work).
    """
    n_queues = cfg.n_queues
    slacks = {}
    for n in range(n_queues):
        p_off = cfg.p_off_row(n)
        absorbing = any(lam > 0 and p >= 1.0 for lam, p in zip(lambdas[n], p_off))
        rate = 0.0
        for s in range(1 << n_queues):
            if state_bit(s, n) != ON:
                continue
            w = float(policy.tau[s, n])
            for m in range(n_queues):
                if m != n:
                    w *= _reference_state_factor(lambdas[m], cfg.p_off_row(m),
                                                 state_bit(s, m))
            rate += w
        for k, lam in enumerate(lambdas[n]):
            if lam <= 0.0:
                slacks[f"rate[{n}][{k}]"] = 0.0
            elif absorbing:
                slacks[f"rate[{n}][{k}]"] = -math.inf
            else:
                work = math.fsum(l / (1.0 - p) for l, p in zip(lambdas[n], p_off) if l > 0)
                slacks[f"rate[{n}][{k}]"] = lam * rate / work - lam
    for s in range(1 << n_queues):
        slacks[f"grant_sum[{s}]"] = 1.0 - float(np.sum(policy.tau[s]))
    return slacks


# ----- reference per-state inner-bound coefficient -----


def inner_coefficient_reference(cfg: NetworkConfig, n: int, state: int) -> float:
    """c_n(state) of `stability.inner_coefficients`, one state at a time.

    With every queue on the ray lam = a * p_on**beta, c_n(s) is
    kappa_n = 1 / sum_k p_on**(beta - 1) over queue n's live flows, times
    1[s_n = ON], times each other queue m's state marginal at a = 1 (a
    cancels from it), taken in increasing m as the table takes them. Queue
    n must have a live flow.
    """
    if state_bit(state, n) != ON:
        return 0.0
    c = 1.0 / math.fsum(p**(cfg.beta - 1.0) for p in cfg.p_on_row(n) if p > 0.0)
    for m in range(cfg.n_queues):
        if m != n:
            p_on = cfg.p_on_row(m)
            c *= _reference_state_factor([p**cfg.beta for p in p_on],
                                         [1.0 - p for p in p_on], state_bit(state, m))
    return c


# ----- reference maximizers -----

GOLDEN_TOL = 1e-10
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_section_max(f, lo: float, hi: float, tol: float = GOLDEN_TOL) -> float:
    """Argmax of a unimodal f on [lo, hi] by golden-section search."""
    a, b = lo, hi
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
    return (a + b) / 2.0


def _grid_candidates(cfg: NetworkConfig, step: float) -> list[np.ndarray]:
    """Grant tables swept by the oracle.

    States where a single queue can benefit (its channel ON with a nonzero
    coefficient) grant that queue the whole slot: coefficients are
    nonnegative, so full allocation is never worse. Only a two-queue
    contended state is left to sweep.
    """
    n_queues = cfg.n_queues
    n_states = 1 << n_queues
    c = inner_coefficients(cfg)
    base = np.zeros((n_states, n_queues))
    contended = None
    for s in range(n_states):
        holders = [n for n in range(n_queues) if c[n, s] > 0.0]
        if len(holders) == 1:
            base[s, holders[0]] = 1.0
        elif len(holders) == 2:
            contended = (s, holders)
    if contended is None:
        return [base]
    s, (n0, n1) = contended
    out = []
    for x in np.arange(0.0, 1.0 + step / 2, step):
        tau = base.copy()
        tau[s, n0] = min(float(x), 1.0)
        tau[s, n1] = 1.0 - tau[s, n0]
        out.append(tau)
    return out


def dfc_gap_vs_oracle(cfg: NetworkConfig, grid_step: float = 0.01) -> float:
    """Solver objective minus the best objective on a dense grant grid.

    Supports one or two queues (at most one contended state). A small
    positive value means the solver beat the grid's resolution; a negative
    value beyond the grid's own error indicates a solver problem.
    """
    if cfg.n_queues > 2:
        raise ValueError("grid oracle supports at most two queues")
    sol = solve_dfc(cfg)
    c = inner_coefficients(cfg)
    w = _weights(cfg)
    const = _objective_const(cfg)
    best = -math.inf
    for tau in _grid_candidates(cfg, grid_step):
        a = np.maximum((c * tau.T).sum(axis=1), LOG_FLOOR)
        best = max(best, float(np.dot(w, np.log(a))) + const)
    return sol.objective - best


# ----- saturated head-of-line runs -----


def saturated_steady_state(sat: SaturatedMetrics, n: int) -> SteadyState:
    """Queue n's empirical HOL statistics, in the closed forms' type."""
    return SteadyState(
        p_serviceable=sat.p_serviceable[n],
        p_blocked=sat.p_blocked[n],
        p_hol=sat.p_hol[n],
    )


def run_saturated_reference(cfg: NetworkConfig, hol_mix: list[list[float]],
                            horizon: int, seed: int = 0) -> SaturatedMetrics:
    """`sim.run_saturated` one slot at a time, for inputs it accepts.

    Every slot reads its channel row and grant draw from the block, counts
    each queue's HOL and ON/OFF state, and on a grant to the pick-th ON queue
    (in queue order) refills that queue's HOL with the next uniform of its
    own stream, "arrivals" for queue 0 and "arrivals.n" for queue n, mapped
    through the queue's cumulative mix. Each queue's first uniform gives its
    initial HOL.
    """
    n_queues = cfg.n_queues
    cum_mix: list[list[float]] = []
    for mix in hol_mix:
        total = math.fsum(mix)
        acc, cum = 0.0, []
        for m in mix:
            acc += m / total
            cum.append(acc)
        cum[-1] = 1.0
        cum_mix.append(cum)

    p_off = [cfg.p_off_row(n) for n in range(n_queues)]
    rng_ch = _stream(seed, "channels")
    rng_ar = [_stream(seed, f"arrivals.{n}" if n else "arrivals") for n in range(n_queues)]
    rng_sc = _stream(seed, "scheduling")

    def draw_hol(n: int) -> int:
        u = rng_ar[n].random()
        cum = cum_mix[n]
        for k, c in enumerate(cum):
            if u < c:
                return k
        return len(cum) - 1

    hol = [draw_hol(n) for n in range(n_queues)]
    max_k = max(cfg.n_flows(n) for n in range(n_queues))
    z0 = [0] * n_queues
    blocked = [[0] * cfg.n_flows(n) for n in range(n_queues)]
    hol_count = [[0] * cfg.n_flows(n) for n in range(n_queues)]
    joint = [
        [[0] * max_k for _ in range(n_queues)] for _ in range(1 << n_queues)
    ]

    block_at = _BLOCK
    ch_block: list = []
    sc_block: list = []
    on_flags = [False] * n_queues
    for _ in range(horizon):
        if block_at == _BLOCK:
            ch_block = rng_ch.random((_BLOCK, n_queues)).tolist()
            sc_block = rng_sc.random(_BLOCK).tolist()
            block_at = 0
        u_row = ch_block[block_at]
        u_pick = sc_block[block_at]
        block_at += 1

        state_bits = 0
        n_on = 0
        for n in range(n_queues):
            k = hol[n]
            hol_count[n][k] += 1
            if u_row[n] >= p_off[n][k]:
                on_flags[n] = True
                state_bits |= 1 << n
                n_on += 1
                z0[n] += 1
            else:
                on_flags[n] = False
                blocked[n][k] += 1
        row = joint[state_bits]
        for n in range(n_queues):
            row[n][hol[n]] += 1
        if n_on:
            pick = int(u_pick * n_on)
            for n in range(n_queues):
                if on_flags[n]:
                    if pick == 0:
                        hol[n] = draw_hol(n)
                        break
                    pick -= 1

    return SaturatedMetrics(
        horizon=horizon,
        p_serviceable=tuple(c / horizon for c in z0),
        p_blocked=tuple(tuple(c / horizon for c in row) for row in blocked),
        p_hol=tuple(tuple(c / horizon for c in row) for row in hol_count),
        joint=np.asarray(joint, dtype=float) / horizon,
    )


# ----- stability verdicts -----


def detect_stability_float(q_trace, warmup=None, backlog_cap=1e4) -> StabilityVerdict:
    """The float64 least-squares detector that `sim.detect_stability`
    replaced: centred slot indexes dotted with the centred trace."""
    q = np.asarray(q_trace)
    if q.ndim == 2:
        q = q.sum(axis=1)
    w = q.size // 10 if warmup is None else warmup
    tail = q[w:].astype(float)
    t = np.arange(tail.size, dtype=float)
    t -= t.mean()
    denom = float(np.dot(t, t))
    slope = float(np.dot(t, tail - tail.mean()) / denom) if denom > 0 else 0.0
    max_backlog = float(tail.max())
    if slope >= SLOPE_UNSTABLE:
        verdict = "unstable"
    elif slope <= SLOPE_STABLE and max_backlog <= backlog_cap:
        verdict = "stable"
    else:
        verdict = "inconclusive"
    return StabilityVerdict(verdict=verdict, slope=slope, max_backlog=max_backlog)


def _window(q_trace, warmup) -> list[int]:
    """The per-slot total backlogs of [warmup, len), as Python ints."""
    q = np.asarray(q_trace)
    rows = q.tolist()
    return [sum(map(int, row)) if q.ndim == 2 else int(row) for row in rows[warmup:]]


def backlog_sums_reference(q_trace, warmup) -> tuple[int, int, int]:
    """(sum q, sum t * q, max q) over [warmup, len), t from warmup."""
    y = _window(q_trace, warmup)
    return sum(y), sum(t * v for t, v in enumerate(y)), max(y)


def exact_slope(q_trace, warmup) -> Fraction:
    """The least-squares slope of the total backlog over [warmup, len), in
    rational arithmetic from its definition."""
    y = _window(q_trace, warmup)
    n = len(y)
    if n < 2:
        return Fraction(0)
    t_bar, y_bar = Fraction(n - 1, 2), Fraction(sum(y), n)
    return (sum((t - t_bar) * (v - y_bar) for t, v in enumerate(y))
            / sum((t - t_bar) ** 2 for t in range(n)))


# ----- the boundary pools of criteria 02 and 04 -----


def boundary_single_queue(rng):
    """Random single-queue instance with rates exactly on the boundary.

    Rates are u_k * p_on_k / sum(u), which makes the blocking-adjusted load
    sum(lam / p_on) equal one by construction. Instances with a tiny total
    rate are resampled: scaling those 5% past the boundary produces growth
    too slow for the detector's unstable threshold to see.
    """
    while True:
        K = int(rng.integers(1, 6))
        p_off = rng.uniform(0.0, 0.9, K)
        u = rng.uniform(0.2, 1.0, K)
        lam = u * (1.0 - p_off) / u.sum()
        if lam.sum() >= 0.3:
            return p_off.tolist(), lam.tolist()


def rate_slack(margin):
    """Worst per-flow service slack, ignoring the grant-mass constraints.

    The grant rows sit at zero whenever a state allocates its whole slot,
    which every sensible policy does, so only the rate keys say how far the
    instance is from the boundary.
    """
    return min(v for key, v in margin.slacks.items() if key.startswith("rate"))


def criterion02_runs(horizon):
    """Criterion 02's 20 runs, as (instance, scale, expected verdict) labels
    and specs: 10 random single-queue boundary instances, each scaled 0.95x
    and 1.05x, under serve-if-on with Poisson arrivals."""
    rng = np.random.default_rng(8252)
    labels, specs = [], []
    for i in range(10):
        p_off, lam = boundary_single_queue(rng)
        cfg = make_cfg([p_off])
        for scale, expected in ((0.95, "stable"), (1.05, "unstable")):
            rates = [[scale * l for l in lam]]
            labels.append((i, scale, expected))
            specs.append(RunSpec(cfg=cfg, policy=serve_if_on_policy(cfg, rates),
                                 horizon=horizon, seed=100 + i,
                                 arrival_mode="stochastic"))
    return labels, specs


def criterion04_runs(horizon):
    """Criterion 04's 20 runs, as (point, expected verdict) labels and
    specs: 10 points of the two-queue boundary whose 0.95x and 1.05x
    perturbations are cleanly inside and outside the region, each under the
    best static policy for its rates, with Poisson arrivals."""
    cfg = make_cfg([[0.6, 0.1], [0.7]])
    picked = []
    for l1, l2, cap in sweep_two_queue_boundary((0.6, 0.1), 0.7, grid=21):
        if min(l1, l2, cap) <= 0.0 or l1 + l2 + cap < 0.35:
            continue
        lo = [[0.95 * l1, 0.95 * l2], [0.95 * cap]]
        hi = [[1.05 * l1, 1.05 * l2], [1.05 * cap]]
        pol_lo, m_lo = best_policy_search(cfg, lo)
        pol_hi, m_hi = best_policy_search(cfg, hi)
        # keep points whose 5% perturbations are cleanly inside/outside,
        # so the detector's thresholds are reachable within the horizon
        if rate_slack(m_lo) >= 0.005 and rate_slack(m_hi) <= -0.01:
            picked.append((lo, pol_lo, hi, pol_hi))
    points = picked[:: max(1, len(picked) // 10)][:10]
    assert len(points) == 10
    labels, specs = [], []
    for i, (lo, pol_lo, hi, pol_hi) in enumerate(points):
        for rates, pol, expected in ((lo, pol_lo, "stable"),
                                     (hi, pol_hi, "unstable")):
            labels.append((i, expected))
            specs.append(RunSpec(cfg=cfg, policy=StaticPolicy(cfg, rates, pol.tau),
                                 horizon=horizon, seed=400 + i,
                                 arrival_mode="stochastic"))
    return labels, specs
