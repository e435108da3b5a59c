"""Slotted-time simulation of FIFO queues sharing one transmission slot.

Slot order, fixed for every policy:

1. draw every flow's channel ON/OFF for this slot;
2. read each queue's head-of-line state (EMPTY, or its HOL packet's channel);
3. ask the policy for admission rates; in fluid mode each flow accumulates
   its rate and materializes the integer part as packets, in stochastic mode
   the packet count is a Poisson draw at that rate;
4. append the new packets, interleaving same-slot arrivals across a queue's
   flows uniformly at random;
5. ask the policy for a grant among serviceable queues (HOL channel ON);
6. serve one packet from the granted queue, if any;
7. record.

Admission and the grant both see start-of-slot backlogs, and a packet
arriving into an empty queue is not serviceable until the next slot, so the
recorded backlog obeys Q(t+1) = Q(t) - served(t) + arrived(t) exactly.

Three independent RNG streams are derived by hashing the master seed with a
stream name: "channels" (step 1), "arrivals" (steps 3-4 and saturated HOL
refills), "scheduling" (randomized grants). Two runs differing only in
policy therefore see identical channel draws.
"""

from __future__ import annotations

import hashlib
import math
from array import array
from collections import deque
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .core import NetworkConfig
from .markov import SteadyState
from .policies import Policy, build_policy

_BLOCK = 4096

# shortest backlog trace `detect_stability` will classify
MIN_VERDICT_SLOTS = 10


def stream_seed(master_seed: int, name: str) -> int:
    digest = hashlib.sha256(f"{master_seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:16], "big")


def stream_hash(master_seed: int, name: str) -> str:
    """Short tag identifying a derived stream; equal tags mean equal draws."""
    return hashlib.sha256(f"{master_seed}:{name}".encode()).hexdigest()[:12]


def _stream(master_seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng(stream_seed(master_seed, name))


@dataclass
class RunSpec:
    """One simulation run: configuration, policy, horizon, seed, modes."""

    cfg: NetworkConfig
    policy: str | Policy = "qfc"
    horizon: int = 1_000_000
    warmup: int | None = None  # default: horizon // 10
    seed: int = 0
    arrival_mode: str = "fluid"  # "fluid" | "stochastic" (Poisson counts)
    record_trace: bool = False  # keep per-slot/per-packet event detail

    def resolved_warmup(self) -> int:
        w = self.horizon // 10 if self.warmup is None else self.warmup
        if not (0 <= w < self.horizon):
            raise ValueError(f"warmup must be in [0, horizon), got {w}")
        return w


@dataclass
class TraceMetrics:
    """Measurements from one run.

    Packet counts cover the whole horizon (queues start empty, so
    admitted - served = final backlog per flow, exactly); the rates and
    per-state frequencies cover only the post-warmup window.
    """

    horizon: int
    warmup: int
    seed: int
    policy_name: str
    admitted_packets: tuple[tuple[int, ...], ...]
    served_packets: tuple[tuple[int, ...], ...]
    admitted_rate: tuple[tuple[float, ...], ...]
    served_rate: tuple[tuple[float, ...], ...]
    final_backlog: tuple[int, ...]
    final_backlog_flow: tuple[tuple[int, ...], ...]
    utility: float
    q_trace: np.ndarray  # (horizon, n_queues) start-of-slot backlogs
    state_visits: np.ndarray  # (2**N,) post-warmup counts
    state_serves: np.ndarray  # (2**N, N) post-warmup grant counts
    rng_streams: dict[str, str]
    trace: dict[str, Any] = field(default_factory=dict)

    def total_admitted_rate(self) -> float:
        return float(sum(sum(row) for row in self.admitted_rate))

    def total_served_rate(self) -> float:
        return float(sum(sum(row) for row in self.served_rate))


def run(spec: RunSpec) -> TraceMetrics:
    """Simulate one run to its horizon and aggregate metrics."""
    cfg = spec.cfg
    errs = cfg.validate()
    if errs:
        raise ValueError("; ".join(errs))
    if spec.horizon <= 0:
        raise ValueError("horizon must be positive")
    if spec.arrival_mode not in ("fluid", "stochastic"):
        raise ValueError(f"unknown arrival mode {spec.arrival_mode!r}")
    warmup = spec.resolved_warmup()
    policy = build_policy(cfg, spec.policy) if isinstance(spec.policy, str) else spec.policy

    n_queues = cfg.n_queues
    flow_counts = [cfg.n_flows(n) for n in range(n_queues)]
    p_off_flat = np.array(
        [f.p_off for q in cfg.queues for f in q.flows], dtype=float
    )
    offsets = []
    acc_off = 0
    for n in range(n_queues):
        offsets.append(acc_off)
        acc_off += flow_counts[n]

    rng_ch = _stream(spec.seed, "channels")
    rng_ar = _stream(spec.seed, "arrivals")
    rng_sc = _stream(spec.seed, "scheduling")

    buffers: list[deque] = [deque() for _ in range(n_queues)]
    q_tot = [0] * n_queues
    q_flow = [[0] * flow_counts[n] for n in range(n_queues)]
    frac = [[0.0] * flow_counts[n] for n in range(n_queues)]

    admitted = [[0] * flow_counts[n] for n in range(n_queues)]
    served = [[0] * flow_counts[n] for n in range(n_queues)]
    admitted_w = [[0] * flow_counts[n] for n in range(n_queues)]
    served_w = [[0] * flow_counts[n] for n in range(n_queues)]
    q_traces = [array("i") for _ in range(n_queues)]
    state_visits = np.zeros(1 << n_queues, dtype=np.int64)
    state_serves = np.zeros((1 << n_queues, n_queues), dtype=np.int64)

    record = spec.record_trace
    arrival_log: list[list[tuple[int, int]]] = [[] for _ in range(n_queues)]
    departure_log: list[list[tuple[int, int]]] = [[] for _ in range(n_queues)]
    served_by_slot = array("b")
    arrivals_by_slot = [array("i") for _ in range(n_queues)]

    fluid = spec.arrival_mode == "fluid"
    horizon = spec.horizon
    on_block: list = []
    sc_block: list = []
    block_at = _BLOCK  # force generation on first slot

    for t in range(horizon):
        if block_at == _BLOCK:
            on_block = (rng_ch.random((_BLOCK, p_off_flat.size)) >= p_off_flat).tolist()
            sc_block = rng_sc.random(_BLOCK).tolist()
            block_at = 0
        on_row = on_block[block_at]
        u_sched = sc_block[block_at]
        block_at += 1

        if t == warmup:
            admitted_w = [list(row) for row in admitted]
            served_w = [list(row) for row in served]

        # 2. head-of-line states; EMPTY presents as OFF and is unserviceable
        state_bits = 0
        serviceable = []
        for n in range(n_queues):
            q_traces[n].append(q_tot[n])
            buf = buffers[n]
            if buf and on_row[offsets[n] + buf[0][0]]:
                state_bits |= 1 << n
                serviceable.append(n)

        # 3-4. admission, materialization, interleaved append; both the
        # admission and the grant below see start-of-slot backlogs
        q_start = list(q_tot)
        rates = policy.admission(q_start, q_flow)
        for n in range(n_queues):
            rates_n = rates[n]
            batch: list[int] | None = None
            single = -1
            if fluid:
                frac_n = frac[n]
                for k in range(flow_counts[n]):
                    r = rates_n[k]
                    if r <= 0.0:
                        continue
                    v = frac_n[k] + r
                    if v >= 1.0:
                        cnt = int(v)
                        frac_n[k] = v - cnt
                        if single < 0 and batch is None:
                            if cnt == 1:
                                single = k
                            else:
                                batch = [k] * cnt
                        else:
                            if batch is None:
                                batch = [single]
                                single = -1
                            batch.extend([k] * cnt)
                    else:
                        frac_n[k] = v
            else:
                for k in range(flow_counts[n]):
                    r = rates_n[k]
                    if r <= 0.0:
                        continue
                    cnt = int(rng_ar.poisson(r))
                    if cnt == 0:
                        continue
                    if cnt == 1 and single < 0 and batch is None:
                        single = k
                    else:
                        if batch is None:
                            batch = [single] if single >= 0 else []
                            single = -1
                        batch.extend([k] * cnt)
            n_new = 0
            if single >= 0:
                n_new = 1
                buffers[n].append((single, t))
                q_flow[n][single] += 1
                admitted[n][single] += 1
                if record:
                    arrival_log[n].append((single, t))
            elif batch is not None:
                n_new = len(batch)
                if n_new == 2:
                    if rng_ar.random() < 0.5:
                        batch[0], batch[1] = batch[1], batch[0]
                elif n_new > 2:
                    rng_ar.shuffle(batch)
                buf = buffers[n]
                qf = q_flow[n]
                adm = admitted[n]
                log_n = arrival_log[n]
                for k in batch:
                    buf.append((k, t))
                    qf[k] += 1
                    adm[k] += 1
                    if record:
                        log_n.append((k, t))
            if n_new:
                q_tot[n] += n_new
            if record:
                arrivals_by_slot[n].append(n_new)

        # 5-6. grant and serve
        chosen = policy.schedule(q_start, serviceable, state_bits, u_sched)
        if chosen is not None:
            if chosen not in serviceable:
                raise RuntimeError(
                    f"slot {t}: policy granted queue {chosen} whose head-of-line "
                    "channel is not ON"
                )
            k, _born = buffers[chosen].popleft()
            q_tot[chosen] -= 1
            q_flow[chosen][k] -= 1
            served[chosen][k] += 1
            if record:
                departure_log[chosen].append((k, _born))
        if t >= warmup:
            state_visits[state_bits] += 1
            if chosen is not None:
                state_serves[state_bits, chosen] += 1
        if record:
            served_by_slot.append(-1 if chosen is None else chosen)

    window = horizon - warmup
    admitted_rate = tuple(
        tuple((a - w) / window for a, w in zip(arow, wrow))
        for arow, wrow in zip(admitted, admitted_w)
    )
    served_rate = tuple(
        tuple((a - w) / window for a, w in zip(arow, wrow))
        for arow, wrow in zip(served, served_w)
    )
    utility = math.fsum(
        cfg.utility.value(r)
        for row in admitted_rate
        for r in row
        if r > 0.0
    )
    q_trace = np.column_stack(
        [np.frombuffer(a, dtype=np.int32) for a in q_traces]
    )

    trace: dict[str, Any] = {}
    if record:
        trace = {
            "arrival_order": arrival_log,
            "departure_order": departure_log,
            "served_by_slot": np.frombuffer(served_by_slot, dtype=np.int8),
            "arrivals_by_slot": np.column_stack(
                [np.frombuffer(a, dtype=np.int32) for a in arrivals_by_slot]
            ),
        }

    return TraceMetrics(
        horizon=horizon,
        warmup=warmup,
        seed=spec.seed,
        policy_name=policy.name,
        admitted_packets=tuple(tuple(row) for row in admitted),
        served_packets=tuple(tuple(row) for row in served),
        admitted_rate=admitted_rate,
        served_rate=served_rate,
        final_backlog=tuple(q_tot),
        final_backlog_flow=tuple(tuple(row) for row in q_flow),
        utility=utility,
        q_trace=q_trace,
        state_visits=state_visits,
        state_serves=state_serves,
        rng_streams={
            name: stream_hash(spec.seed, name)
            for name in ("channels", "arrivals", "scheduling")
        },
        trace=trace,
    )


# ----- Saturated mode -----


@dataclass
class SaturatedMetrics:
    """Empirical head-of-line statistics with queues never emptying."""

    horizon: int
    p_serviceable: tuple[float, ...]
    p_blocked: tuple[tuple[float, ...], ...]
    p_hol: tuple[tuple[float, ...], ...]
    joint: np.ndarray  # (2**N, N, max_K): P[state, HOL_n = k]

    def steady_state(self, n: int) -> SteadyState:
        return SteadyState(
            p_serviceable=self.p_serviceable[n],
            p_blocked=self.p_blocked[n],
            p_hol=self.p_hol[n],
        )


def run_saturated(
    cfg: NetworkConfig,
    hol_mix: list[list[float]],
    horizon: int,
    seed: int = 0,
) -> SaturatedMetrics:
    """Simulate the head-of-line process alone, queues always backlogged.

    Each queue's HOL is refilled on departure by sampling a flow from
    `hol_mix` (the queue's arrival shares). The slot goes to a uniformly
    random serviceable queue, a channel-state-only rule under which the
    stationary HOL statistics factor per queue.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    n_queues = cfg.n_queues
    if len(hol_mix) != n_queues:
        raise ValueError(f"expected {n_queues} mix rows, got {len(hol_mix)}")
    cum_mix: list[list[float]] = []
    for n, mix in enumerate(hol_mix):
        if len(mix) != cfg.n_flows(n):
            raise ValueError(f"queue {n}: mix must give one share per flow")
        if any(m < 0 for m in mix) or math.fsum(mix) <= 0:
            raise ValueError(f"queue {n}: mix must be nonnegative and sum > 0")
        for k, m in enumerate(mix):
            if m > 0 and cfg.queues[n].flows[k].p_on <= 0.0:
                raise ValueError(
                    f"queue {n} flow {k}: absorbing blocking state "
                    "(HOL share > 0 with p_on = 0)"
                )
        total = math.fsum(mix)
        acc, cum = 0.0, []
        for m in mix:
            acc += m / total
            cum.append(acc)
        cum[-1] = 1.0
        cum_mix.append(cum)

    p_off = [cfg.p_off_row(n) for n in range(n_queues)]
    rng_ch = _stream(seed, "channels")
    rng_ar = _stream(seed, "arrivals")
    rng_sc = _stream(seed, "scheduling")

    def draw_hol(n: int) -> int:
        u = rng_ar.random()
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


# ----- Stability detection -----


@dataclass(frozen=True)
class StabilityVerdict:
    verdict: str  # "stable" | "unstable" | "inconclusive"
    slope: float  # least-squares backlog growth, packets/slot
    max_backlog: float

    @property
    def stable(self) -> bool:
        return self.verdict == "stable"


def detect_stability(
    q_trace: np.ndarray,
    warmup: int | None = None,
    slope_stable: float = 1e-4,
    slope_unstable: float = 1e-2,
    backlog_cap: float = 1e4,
) -> StabilityVerdict:
    """Classify a backlog trace by its post-warmup least-squares slope.

    stable:   slope <= slope_stable and the backlog never exceeds backlog_cap;
    unstable: slope >= slope_unstable;
    inconclusive otherwise. `q_trace` is per-slot total backlog (a 2-D
    per-queue trace is summed across queues); warmup defaults to a tenth.
    """
    q = np.asarray(q_trace)
    if q.ndim == 2:
        q = q.sum(axis=1)
    if q.ndim != 1 or q.size < MIN_VERDICT_SLOTS:
        raise ValueError(
            f"need a 1-D backlog trace of at least {MIN_VERDICT_SLOTS} slots"
        )
    w = q.size // 10 if warmup is None else warmup
    if not (0 <= w < q.size):
        raise ValueError("warmup must be in [0, len(trace))")
    tail = q[w:].astype(float)
    t = np.arange(tail.size, dtype=float)
    t -= t.mean()
    denom = float(np.dot(t, t))
    slope = float(np.dot(t, tail - tail.mean()) / denom) if denom > 0 else 0.0
    max_backlog = float(tail.max())
    if slope >= slope_unstable:
        verdict = "unstable"
    elif slope <= slope_stable and max_backlog <= backlog_cap:
        verdict = "stable"
    else:
        verdict = "inconclusive"
    return StabilityVerdict(verdict=verdict, slope=slope, max_backlog=max_backlog)
