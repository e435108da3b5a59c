"""Slotted-time simulation of FIFO queues sharing one transmission slot.

Slot order, fixed for every policy:

1. draw every flow's channel ON/OFF for this slot;
2. read each queue's head-of-line state (EMPTY, or its HOL packet's channel);
3. ask the policy for admission rates; in fluid mode each flow accumulates
   its rate and materializes the integer part as packets; in stochastic mode
   the packet count is the inverse CDF of the block's uniform: the flow's
   uniform for the slot, mapped through the Poisson CDF at that rate
   (`poisson_cdf`);
4. append the new packets, interleaving same-slot arrivals across a queue's
   flows uniformly at random;
5. ask the policy for a grant among serviceable queues (HOL channel ON);
6. serve one packet from the granted queue, if any;
7. record.

Admission and the grant both see start-of-slot backlogs, and a packet
arriving into an empty queue is not serviceable until the next slot, so the
recorded backlog obeys Q(t+1) = Q(t) - served(t) + arrived(t) exactly.

Every engine counts per flow only what its control needs: the packets
admitted and the backlog (the per-slot loop's queues, the block path's
pending sequences, lockstep's flow backlogs), at the end and at the start of
slot `warmup`. By the recurrence, with queues starting empty, the packets
served are admitted - backlog; `_metrics` derives them so. With
`record_trace`, an engine also logs each arrival's (flow, slot) in FIFO
order and each slot's grant, and `_trace` derives the rest: a queue's
departures are the first `served` entries of its log.

RNG streams are derived by hashing the master seed with a stream name, so
two runs differing only in policy see identical channel draws. Each stream
is read in blocks of 4,096 slots:

* "channels": one (4096, F) uniform block per block of slots, F the number
  of flows; flow f is ON in slot t when U[t, f] >= p_off (step 1);
* "scheduling": one 4,096-uniform block, the grant draw of each slot (5);
* "arrivals": in stochastic mode only, one (4096, F) uniform block, flow
  f's count in slot t inverting U[t, f] (step 3).

The interleave of step 4 reads no stream: the batch queue n takes in slot
t, flows in index order each repeated by its count, is ordered by the keys
mix(mix(mix(w ^ t) ^ n) ^ j) of its packets j (ties, which the bijective
mix rules out, by position), with mix SplitMix64's finalizer and w the low
64 bits of the "interleave" seed. So the engines order every batch of a
block or window in one `_order_batches` call, and the per-slot loop orders
each batch with `_ordered`, the same keys in Python ints.

`run_saturated` reads "channels" as one (4096, N) uniform block, one column
per queue (queue n is ON in slot t when U[t, n] >= the p_off of its HOL
flow), and "scheduling" as above (the slot goes to the int(u * n_on)-th ON
queue in queue order). Each queue draws its HOL from a stream of its own,
"arrivals" for queue 0 and "arrivals.n" for queue n, in 4,096-uniform
blocks: its first uniform gives its initial HOL and each departure after
takes the next, mapped through the queue's cumulative mix, so a queue's
refills do not depend on the other queues' departures. A queue whose
cumulative mix opens one interval is fixed: its HOL never changes, so its
departures draw nothing. The HOL vector changes only when a moving queue
departs, and the engine picks its stepping loop by how many queues move. One
mover (a lone queue among them) steps once per departure: with the fixed
queues' HOL held, it wins slot t when it is ON and the grant draw picks it
after the fixed queues before it that are ON in t, so one vectorized pass
per flow of the mover gives the next slot it wins with that flow at its head
(`_next_slots`), and the loop takes the next refill at each. Two or more
movers step slot by slot, from per-(queue, flow) ON bits and a table of the
j-th ON queue of each channel state; no mover, no step. Both loops log the
block's HOL changes, each as the slot from which it holds, the queue and
its new flow (the one-mover loop logs every refill), and one routine
counts the block: it rebuilds every slot's HOL flows from the block's first
HOL vector and the log, reads each slot's channel state from the uniforms,
and adds one bincount over (state, queue, HOL flow) to the joint counts. The
engine draws a queue's next block once fewer unread uniforms are left than
the block has slots, and takes them as vectors, the values one draw per
departure returns, in the same order; nothing reads them after the horizon,
so uniforms drawn past the last departure change nothing.

A `StaticPolicy` (static, dfc-static, serve-if-on) admits independently of
the state, so `run` gives it a block path: a block's arrival counts and
per-queue arrival sequences are drawn and interleaved up front, and the slot
loop only moves one head pointer per queue. A lone queue steps once per
packet instead: per flow, a next-chance table gives the first slot at or
after t in which the flow is ON and the grant draw is below the state-1
grant, so each packet departs at its flow's next chance after the previous
departure and its own arrival, and every slot's state, grant and backlog
come from the departures in vector operations. The block path reads the
streams as the per-slot loop does and gives the same metrics seed for
seed; the per-slot loop stays the reference for every other policy.

`lockstep.run_batch` is the entry point for many runs: it yields `run`'s
metrics for each spec, seed for seed, and advances fluid qfc and max-weight
runs that share a horizon and warmup at once, in lockstep, without
`q_trace`.

Stability verdicts (`detect_stability`, and `TraceMetrics.stability` on a
run's own trace and warmup) come from three exact sums of the start-of-slot
total backlog q over the window [warmup, horizon): S0 = sum q, S1 = sum t * q
with t counted from warmup, and max q, reduced a block of slots at a time
in Python ints, so the least-squares slope is exact and rounded once.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import sys
from array import array
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any

import numpy as np

from .core import ConfigError, NetworkConfig
from .policies import MaxWeightPolicy, Policy, QfcPolicy, StaticPolicy, build_policy

_BLOCK = 4096

# largest rate the Poisson sampler takes: e**-rate stays a normal float
POISSON_RATE_MAX = 700.0

# shortest backlog trace `detect_stability` will classify, and the slopes,
# in packets per slot, at or below which it is stable and at or above which
# it is unstable
MIN_VERDICT_SLOTS = 10
SLOPE_STABLE = 1e-4
SLOPE_UNSTABLE = 1e-2


def stream_seed(master_seed: int, name: str) -> int:
    digest = hashlib.sha256(f"{master_seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:16], "big")


def _stream(master_seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng(stream_seed(master_seed, name))


# SplitMix64's finalizer constants; uint64 copies spare numpy int conversions
_MIX = (30, 0xBF58476D1CE4E5B9, 27, 0x94D049BB133111EB, 31, (1 << 64) - 1)
_MIX_U64 = tuple(map(np.uint64, _MIX))


def _interleave_word(master_seed: int) -> int:
    return stream_seed(master_seed, "interleave") & _MIX[5]


def _mix(z, c=_MIX):
    """SplitMix64's finalizer, a bijection of 64-bit words: of one Python
    int, or with c=_MIX_U64 of each entry of a uint64 array."""
    z = (z ^ z >> c[0]) * c[1] & c[5]
    z = (z ^ z >> c[2]) * c[3] & c[5]
    return z ^ z >> c[4]


def _slot_hash(word, t, n, c=_MIX):
    """Hash of queue n's arrival batch in slot t (Python ints, or uint64
    arrays with c=_MIX_U64): packet j of it has the key _mix(h ^ j)."""
    return _mix(_mix(word ^ t, c) ^ n, c)


def _ordered(batch: list, h: int) -> list:
    """The packets of a batch with slot hash h, in the order of their keys."""
    if len(batch) == 2:  # the common case, without a sort
        return batch[::-1] if _mix(h ^ 1) < _mix(h) else batch
    keys = [_mix(h ^ j) for j in range(len(batch))]
    return [batch[j] for j in sorted(range(len(batch)), key=keys.__getitem__)]


def _order_batches(ids: np.ndarray, sizes: np.ndarray, t0: int, words: np.ndarray,
                   queues: np.ndarray) -> None:
    """Order every batch in `ids` by its interleave keys, in place.

    `ids` holds a grid of batches slot by slot, R rows a slot: batch i, of
    sizes[i] packets, is what row i % R took in slot t0 + i // R, row r being
    queue queues[r] of the run with key word words[r] (uint64 arrays of R).
    """
    u64 = np.uint64
    multi = (sizes > 1).nonzero()[0]
    size, row = sizes[multi], multi % words.size
    h = _slot_hash(words[row], (t0 + multi // words.size).astype(u64), queues[row], _MIX_U64)
    b = np.repeat(np.arange(multi.size), size)  # each packet's batch
    first = np.cumsum(sizes)[multi] - size
    pos = np.arange(b.size) + np.repeat(first - (np.cumsum(size) - size), size)
    keys = _mix(h[b] ^ (pos - first[b]).astype(u64), _MIX_U64)
    ids[pos] = ids[pos[np.lexsort((keys, b))]]


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
    # (horizon, n_queues) start-of-slot backlogs; None from a lockstep run
    q_trace: np.ndarray | None
    state_visits: np.ndarray  # (2**N,) post-warmup counts
    state_serves: np.ndarray  # (2**N, N) post-warmup grant counts
    rng_streams: dict[str, str]
    trace: dict[str, Any] = field(default_factory=dict)

    def total_admitted_rate(self) -> float:
        return float(sum(sum(row) for row in self.admitted_rate))

    def total_served_rate(self) -> float:
        return float(sum(sum(row) for row in self.served_rate))

    def stability(self, backlog_cap: float = 1e4) -> StabilityVerdict:
        """The `detect_stability` verdict on the run's post-warmup window."""
        return detect_stability(self.q_trace, self.warmup, backlog_cap)


@lru_cache(maxsize=4096)
def poisson_cdf(rate: float) -> tuple[float, ...]:
    """Inverse-CDF table of Poisson(rate): c[j] = P[count <= j].

    The pmf is p_0 = e^-rate, p_j = p_{j-1} * rate / j, summed left to right.
    The table ends at the first sum that reaches 1, or at the first term past
    the mode that no longer changes the sum (later terms are smaller, so the
    left-to-right sum never moves again). A uniform u in [0, 1) maps to the
    count bisect_right(c, u). The tail cap: a u at or above the last entry
    gets len(c); that has probability 1 - c[-1], under 1e-14 for every rate
    up to POISSON_RATE_MAX.
    """
    if not 0.0 <= rate <= POISSON_RATE_MAX:
        raise ValueError(
            f"Poisson rate {rate!r} outside [0, {POISSON_RATE_MAX:g}]"
        )
    p = math.exp(-rate)
    c = p
    table = [c]
    j = 0
    while c < 1.0:
        j += 1
        p = p * rate / j
        nxt = c + p
        if nxt == c and j > rate:
            break
        c = nxt
        table.append(c)
    return tuple(table)


def check_poisson_rates(cfg: NetworkConfig, policy: str | Policy,
                        arrival_mode: str = "stochastic") -> None:
    """Reject a run whose admission rates exceed POISSON_RATE_MAX.

    `policy` is a built policy or a policy name. A static policy replays its
    rates, and qfc and max-weight admit at most r_max. dfc-static plans
    rates of at most 1, and any other policy is checked slot by slot by
    `poisson_cdf` in stochastic mode. The cap holds in fluid mode too: a
    fluid run materializes up to one rate's worth of packets per flow and
    slot, so a huge rate would exhaust memory (or overflow a count) long
    before the horizon.
    """
    if isinstance(policy, StaticPolicy) or policy == "static":
        rates = policy.rates if isinstance(policy, StaticPolicy) else cfg.lambdas()
        what, peak = "arrival rate", max(r for row in rates for r in row)
    elif isinstance(policy, (QfcPolicy, MaxWeightPolicy)) or policy in ("qfc", "maxweight"):
        what, peak = "r_max", cfg.r_max
    else:
        return
    if peak > POISSON_RATE_MAX:
        raise ConfigError(
            f"{arrival_mode} arrivals: {what} {peak!r} exceeds "
            f"{POISSON_RATE_MAX:g}, the largest admission rate the engine takes"
        )


def _prepare(spec: RunSpec) -> tuple[Policy, int]:
    """Check a run's spec; returns its built policy and resolved warmup."""
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
    check_poisson_rates(cfg, policy, spec.arrival_mode)
    return policy, warmup


def run(spec: RunSpec) -> TraceMetrics:
    """Simulate one run to its horizon and aggregate metrics.

    A `StaticPolicy` takes the block path `_run_open_loop`; every other
    policy runs the per-slot reference loop. Both give the same metrics seed
    for seed.
    """
    policy, warmup = _prepare(spec)
    # both loops keep a (horizon, N) int32 backlog trace; refuse one that
    # numpy cannot make before any slot runs
    n_queues = spec.cfg.n_queues
    if spec.horizon * n_queues * 4 > np.iinfo(np.intp).max:
        raise MemoryError(f"a backlog trace of {spec.horizon} slots x {n_queues} queues")
    if type(policy) is StaticPolicy:
        return _run_open_loop(spec, policy, warmup)

    cfg = spec.cfg
    flow_counts = [cfg.n_flows(n) for n in range(n_queues)]
    p_off_flat = np.array(
        [f.p_off for q in cfg.queues for f in q.flows], dtype=float
    )
    offsets = []
    acc_off = 0
    for n in range(n_queues):
        offsets.append(acc_off)
        acc_off += flow_counts[n]

    fluid = spec.arrival_mode == "fluid"
    rng_ch = _stream(spec.seed, "channels")
    rng_ar = None if fluid else _stream(spec.seed, "arrivals")
    rng_sc = _stream(spec.seed, "scheduling")
    word = _interleave_word(spec.seed)

    buffers: list[deque] = [deque() for _ in range(n_queues)]  # queued flow ids
    q_flow = [[0] * flow_counts[n] for n in range(n_queues)]
    frac = [[0.0] * flow_counts[n] for n in range(n_queues)]

    admitted = [[0] * flow_counts[n] for n in range(n_queues)]
    admitted_w = q_flow_w = None  # snapshot at the start of slot `warmup`
    q_traces = [array("i") for _ in range(n_queues)]
    state_visits = np.zeros(1 << n_queues, dtype=np.int64)
    state_serves = np.zeros((1 << n_queues, n_queues), dtype=np.int64)

    record = spec.record_trace
    arrival_log: list[list[tuple[int, int]]] = [[] for _ in range(n_queues)]
    grants = array("b")

    horizon = spec.horizon
    on_block: list = []
    sc_block: list = []
    ar_block: list = []
    block_at = _BLOCK  # force generation on first slot

    for t in range(horizon):
        if block_at == _BLOCK:
            on_block = (rng_ch.random((_BLOCK, p_off_flat.size)) >= p_off_flat).tolist()
            sc_block = rng_sc.random(_BLOCK).tolist()
            if not fluid:
                ar_block = rng_ar.random((_BLOCK, p_off_flat.size)).tolist()
            block_at = 0
        on_row = on_block[block_at]
        u_sched = sc_block[block_at]
        u_row = None if fluid else ar_block[block_at]
        block_at += 1

        if t == warmup:
            admitted_w = [list(row) for row in admitted]
            q_flow_w = [list(row) for row in q_flow]

        # 2. head-of-line states; EMPTY presents as OFF and is unserviceable
        state_bits = 0
        serviceable = []
        for n in range(n_queues):
            buf = buffers[n]
            q_traces[n].append(len(buf))
            if buf and on_row[offsets[n] + buf[0]]:
                state_bits |= 1 << n
                serviceable.append(n)

        # 3-4. admission, materialization, interleaved append; both the
        # admission and the grant below see start-of-slot backlogs
        q_start = list(map(len, buffers))
        rates = policy.admission(q_start, q_flow)
        for n in range(n_queues):
            rates_n, qf, adm, frac_n = rates[n], q_flow[n], admitted[n], frac[n]
            off = offsets[n]
            batch: list[int] = []  # flows in index order, each repeated by its count
            for k in range(flow_counts[n]):
                r = rates_n[k]
                if r <= 0.0:
                    continue
                if fluid:
                    v = frac_n[k] + r
                    if v < 1.0:
                        frac_n[k] = v
                        continue
                    cnt = int(v)
                    frac_n[k] = v - cnt
                else:
                    cnt = bisect_right(poisson_cdf(r), u_row[off + k])
                    if not cnt:
                        continue
                batch += [k] * cnt
                qf[k] += cnt
                adm[k] += cnt
            if batch:
                if len(batch) > 1:
                    batch = _ordered(batch, _slot_hash(word, t, n))
                buffers[n].extend(batch)
                if record:
                    arrival_log[n] += [(k, t) for k in batch]

        # 5-6. grant and serve
        chosen = policy.schedule(q_start, serviceable, state_bits, u_sched)
        if chosen is not None:
            if chosen not in serviceable:
                raise RuntimeError(
                    f"slot {t}: policy granted queue {chosen} whose head-of-line "
                    "channel is not ON"
                )
            q_flow[chosen][buffers[chosen].popleft()] -= 1
        if t >= warmup:
            state_visits[state_bits] += 1
            if chosen is not None:
                state_serves[state_bits, chosen] += 1
        if record:
            grants.append(-1 if chosen is None else chosen)

    q_trace = np.column_stack(
        [np.frombuffer(a, dtype=np.int32) for a in q_traces]
    )
    return _metrics(spec, policy.name, warmup, admitted, q_flow, admitted_w,
                    q_flow_w, q_trace, state_visits, state_serves,
                    (arrival_log, grants) if record else None)


def _run_open_loop(spec: RunSpec, policy: StaticPolicy, warmup: int) -> TraceMetrics:
    """`run` for a StaticPolicy, a block of slots at a time.

    Admission does not depend on the state, so each block's arrival counts
    and per-queue arrival sequences (flow ids in service order) are drawn
    before its slots run, from the same streams in the same order as the
    per-slot loop. The only sequential state is one head pointer per queue,
    which `_slot_steps` moves a slot and `_packet_steps` (one queue) a packet
    at a time. Every metric is a per-block reduction. Each queue keeps one
    list of flow ids and the index of its head; a block's steps see only the
    first 4,096 queued ids, as at most one departs per slot, and the served
    ids are dropped once they are most of the list, so a block costs the same
    whatever the backlog.
    """
    cfg = spec.cfg
    horizon = spec.horizon
    n_queues = cfg.n_queues
    qs = range(n_queues)
    # queue n owns the flows bounds[n]:bounds[n + 1] of the flat flow order
    bounds = np.cumsum([0] + [cfg.n_flows(n) for n in qs]).tolist()
    n_flows = bounds[-1]
    queue_of = np.repeat(np.arange(n_queues), np.diff(bounds))  # of each flow
    p_off = np.array([f.p_off for q in cfg.queues for f in q.flows], dtype=float)
    rates = [r for row in policy.rates for r in row]
    live = [f for f, r in enumerate(rates) if r > 0.0]
    fluid = spec.arrival_mode == "fluid"
    cdfs = {} if fluid else {f: np.array(poisson_cdf(rates[f])) for f in live}
    frac = [0.0] * n_flows
    # StaticPolicy.schedule sums each grant row left to right, as cumsum does
    cum = np.cumsum(np.asarray(policy.tau, dtype=float), axis=1)
    cum_rows: dict[int, list[float]] = {}
    # a slot's channels as one integer, flow f's in bit f (Python ints past 62)
    flow_bits = np.array([1 << f for f in range(n_flows)], np.int64 if n_flows < 63 else object)

    rng_ch = _stream(spec.seed, "channels")
    rng_ar = None if fluid else _stream(spec.seed, "arrivals")
    rng_sc = _stream(spec.seed, "scheduling")
    words = np.full(n_queues, _interleave_word(spec.seed), np.uint64)
    queues = np.arange(n_queues, dtype=np.uint64)

    q_trace = np.empty((horizon, n_queues), dtype=np.int32)
    state_visits = np.zeros(1 << n_queues, dtype=np.int64)
    state_serves = np.zeros((1 << n_queues, n_queues), dtype=np.int64)
    admitted = np.zeros(n_flows, dtype=np.int64)
    admitted_w = backlog_w = admitted  # snapshot at the start of slot `warmup`
    fifo: list[list[int]] = [[] for _ in qs]  # flow ids in service order
    head = [0] * n_queues  # fifo[n][head[n]:] are queued

    record = spec.record_trace
    arrival_log: list[list[tuple[int, int]]] = [[] for _ in qs]
    grant_log: list[np.ndarray] = []

    for b0 in range(0, horizon, _BLOCK):
        size = min(_BLOCK, horizon - b0)
        on = rng_ch.random((_BLOCK, n_flows))[:size] >= p_off
        u_sched = rng_sc.random(_BLOCK)[:size]
        counts = np.zeros((size, n_flows), dtype=np.int64)
        if fluid:
            for f in live:
                counts[:, f], frac[f] = _fluid_counts(rates[f], frac[f], size)
        else:
            u_arr = rng_ar.random((_BLOCK, n_flows)).T.copy()  # flow f's in row f
            for f in live:
                # a uniform below the table's first entry draws no packet
                hit = np.flatnonzero(u_arr[f, :size] >= cdfs[f][0])
                counts[hit, f] = np.searchsorted(cdfs[f], u_arr[f, hit], side="right")
        arrived = np.add.reduceat(counts, bounds[:-1], axis=1)  # (size, N)
        firsts = np.cumsum(arrived, axis=0) - arrived  # slot t's first arrival
        # slot-major, then queue, flows in index order, each repeated by its count
        seq = np.repeat(np.tile(np.arange(n_flows), size), counts.ravel())
        _order_batches(seq, arrived.ravel(), b0, words, queues)
        seqs = [seq[queue_of[seq] == n].tolist() for n in qs]

        queued = firsts + np.array([len(f) - h for f, h in zip(fifo, head)])  # start of slot t
        for n in qs:
            if 2 * head[n] > len(fifo[n]):
                del fifo[n][:head[n]]
                head[n] = 0
            fifo[n] += seqs[n]
        seq_q = [f[h:h + size] for f, h in zip(fifo, head)]
        if n_queues == 1:
            # a step per packet, not per slot: the 20 runs of criterion 02's
            # pool (200,000 slots each) took 1.47 s against 2.19 s for the
            # slot loop, faster in 10 of 10 in-process pairs (BENCH_19.json)
            heads, state, grant = _packet_steps(on, u_sched < cum[1, 0], live, seq_q[0],
                                                arrived[:, 0], queued[:, 0])
        else:
            heads, state, grant = _slot_steps(on @ flow_bits, u_sched, cum, cum_rows,
                                              seq_q, queued)
        left = grant[:, None] == np.arange(n_queues)
        done = np.cumsum(left, axis=0) - left  # departures before slot t
        q_trace[b0:b0 + size] = queued - done
        w = min(max(warmup - b0, 0), size)  # first slot of the block in the window
        if w < size:
            state_visits += np.bincount(state[w:], minlength=state_visits.size)
            g = grant[w:]
            hit = g >= 0
            state_serves += np.bincount(state[w:][hit] * n_queues + g[hit],
                                        minlength=state_serves.size).reshape(state_serves.shape)
        if b0 <= warmup < b0 + size:  # counts at the start of slot `warmup`
            admitted_w = admitted + counts[:w].sum(axis=0)
            backlog_w = sum(_flow_counts(fifo[n][head[n] + done[w, n]:head[n] + queued[w, n]],
                                         n_flows) for n in qs)
        admitted = admitted + counts.sum(axis=0)
        head = [h + k for h, k in zip(head, heads)]
        if record:
            for n in qs:
                born = np.repeat(np.arange(b0, b0 + size), arrived[:, n]).tolist()
                local = [f - bounds[n] for f in seqs[n]]
                arrival_log[n].extend(zip(local, born))
            grant_log.append(grant)

    def nest(per_flow: np.ndarray) -> list[list[int]]:
        return [per_flow[bounds[n]:bounds[n + 1]].tolist() for n in qs]

    backlog = sum(_flow_counts(f[h:], n_flows) for f, h in zip(fifo, head))
    return _metrics(spec, policy.name, warmup, nest(admitted), nest(backlog),
                    nest(admitted_w), nest(backlog_w), q_trace, state_visits,
                    state_serves,
                    (arrival_log, np.concatenate(grant_log)) if record else None)


def _slot_steps(on_rows: np.ndarray, u_sched: np.ndarray, cum: np.ndarray,
                cum_rows: dict[int, list[float]], seq_q: list[list[int]],
                queued: np.ndarray) -> tuple[list[int], np.ndarray, np.ndarray]:
    """A block's slots one at a time: reads each queue's HOL channel from
    the slot's channel bits (flow f's in bit f of `on_rows`), walks the
    state's cumulative grant row and moves the granted queue's head. Returns
    each queue's departures, and each slot's state and grant (-1: none)."""
    qs = range(len(seq_q))
    avail = queued.T.tolist()
    on_rows = on_rows.tolist()
    u_sched = u_sched.tolist()
    heads = [0] * len(seq_q)
    states = [0] * len(u_sched)
    grants = [-1] * len(u_sched)
    for t in range(len(u_sched)):
        row = on_rows[t]
        s = 0
        for n in qs:
            h = heads[n]
            if h < avail[n][t] and row >> seq_q[n][h] & 1:
                s |= 1 << n
        if s:
            states[t] = s
            c = cum_rows.get(s)
            if c is None:
                c = cum_rows[s] = cum[s].tolist()
            u = u_sched[t]
            for n in qs:
                if u < c[n]:
                    if s >> n & 1:
                        heads[n] += 1
                        grants[t] = n
                    break
    return heads, np.array(states, dtype=np.int64), np.array(grants, dtype=np.int64)


def _packet_steps(on: np.ndarray, go: np.ndarray, live: list[int], seq: list[int],
                  arrived: np.ndarray,
                  queued: np.ndarray) -> tuple[list[int], np.ndarray, np.ndarray]:
    """`_slot_steps` for one queue, a packet at a time.

    The HOL packet of flow f departs in the first slot where f is ON and
    the grant draw is below the state-1 grant (`go`); nxt[f][t] is that
    first slot at or after t (`size` if none). Packet h of `seq`, ready from
    slot 0 if it was queued before the block and from the slot after its
    arrival if not, departs at nxt[f_h][max(t, ready_h)], t the slot after
    the previous departure. The states and grants follow from the
    departures.
    """
    size = len(go)
    slots = np.arange(size)
    ready = itertools.chain(itertools.repeat(0, int(queued[0])),
                            np.repeat(slots + 1, arrived).tolist())
    nxt: list = [None] * on.shape[1]
    for f in live:
        nxt[f] = _next_slots(on[:, f] & go)
    deps = []
    t = 0
    for f, r in zip(seq, ready):
        if t < r:
            t = r
        t = nxt[f][t]
        if t == size:
            break
        deps.append(t)
        t += 1
    left = np.zeros(size, dtype=np.int64)
    left[deps] = 1
    done = np.cumsum(left) - left  # departures before slot t
    state = np.zeros(size, dtype=np.int64)
    if seq:
        head = np.array(seq[:len(deps) + 1])[np.minimum(done, len(seq) - 1)]
        state[(done < queued) & on[slots, head]] = 1
    return [len(deps)], state, left - 1


def _next_slots(mask: np.ndarray) -> memoryview:
    """nxt[t]: the first slot at or after t where `mask` is set, and
    len(mask) if none, for t up to len(mask) inclusive. A memoryview, as a
    stepping loop reads few of its entries."""
    size = len(mask)
    first = np.where(mask, np.arange(size), size)
    return memoryview(np.append(np.minimum.accumulate(first[::-1])[::-1], size))


def _fluid_counts(rate: float, frac: float, size: int) -> tuple[list[int], float]:
    """A flow's fluid packet counts for `size` slots, and its new fraction."""
    out = [0] * size
    for t in range(size):
        v = frac + rate
        if v >= 1.0:
            cnt = int(v)
            frac = v - cnt
            out[t] = cnt
        else:
            frac = v
    return out, frac


def _flow_counts(flows: list[int], n_flows: int) -> np.ndarray:
    return np.bincount(np.array(flows, dtype=np.int64), minlength=n_flows)


def _metrics(spec: RunSpec, policy_name: str, warmup: int,
             admitted: list[list[int]], backlog: list[list[int]],
             admitted_w: list[list[int]], backlog_w: list[list[int]],
             q_trace: np.ndarray | None, state_visits: np.ndarray,
             state_serves: np.ndarray, log: tuple | None) -> TraceMetrics:
    """A run's metrics from its per-flow admissions and backlogs, at the end
    and at the start of slot `warmup`. Queues start empty, so the packets
    served are admitted - backlog. `log` is None, or the (arrival log,
    grants) pair `_trace` takes.
    """
    def minus(x, y) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(a - b for a, b in zip(xr, yr)) for xr, yr in zip(x, y))

    window = spec.horizon - warmup
    served = minus(admitted, backlog)
    admitted_rate = tuple(tuple(d / window for d in row)
                          for row in minus(admitted, admitted_w))
    served_rate = tuple(tuple(d / window for d in row)
                        for row in minus(served, minus(admitted_w, backlog_w)))
    utility = math.fsum(
        spec.cfg.utility.value(r)
        for row in admitted_rate
        for r in row
        if r > 0.0
    )
    return TraceMetrics(
        horizon=spec.horizon,
        warmup=warmup,
        seed=spec.seed,
        policy_name=policy_name,
        admitted_packets=tuple(tuple(row) for row in admitted),
        served_packets=served,
        admitted_rate=admitted_rate,
        served_rate=served_rate,
        final_backlog=tuple(sum(row) for row in backlog),
        final_backlog_flow=tuple(tuple(row) for row in backlog),
        utility=utility,
        q_trace=q_trace,
        state_visits=state_visits,
        state_serves=state_serves,
        rng_streams={  # the top 48 bits of each stream's seed: equal tags, equal draws
            name: f"{stream_seed(spec.seed, name) >> 80:012x}"
            for name in ("channels", "arrivals", "scheduling", "interleave")
        },
        trace={} if log is None else _trace(spec.horizon, *log, map(sum, served)),
    )


def _trace(horizon: int, arrival_log: list[list[tuple[int, int]]], grants,
           served) -> dict[str, Any]:
    """The `record_trace` fields from each queue's arrival log, (flow, slot)
    pairs in FIFO order, each slot's granted queue (-1: none) and each
    queue's served count: its departures are the first that many arrivals."""
    return {
        "arrival_order": arrival_log,
        "departure_order": [log[:s] for log, s in zip(arrival_log, served)],
        "served_by_slot": np.asarray(grants, dtype=np.int8),
        "arrivals_by_slot": np.column_stack([
            np.bincount(np.array([t for _, t in log], dtype=np.int64), minlength=horizon)
            for log in arrival_log
        ]).astype(np.int32),
    }


# ----- Saturated mode -----


@dataclass
class SaturatedMetrics:
    """Empirical head-of-line statistics with queues never emptying."""

    horizon: int
    p_serviceable: tuple[float, ...]
    p_blocked: tuple[tuple[float, ...], ...]
    p_hol: tuple[tuple[float, ...], ...]
    joint: np.ndarray  # (2**N, N, max_K): P[state, HOL_n = k]


def run_saturated(
    cfg: NetworkConfig,
    hol_mix: list[list[float]],
    horizon: int,
    seed: int = 0,
) -> SaturatedMetrics:
    """Simulate the head-of-line process alone, queues always backlogged.

    Each queue's HOL is refilled on departure by sampling a flow from
    `hol_mix` (the queue's arrival shares), with the next uniform of the
    queue's own stream ("arrivals", then "arrivals.n" for queue n > 0).
    The slot goes to a uniformly random serviceable queue, a
    channel-state-only rule under which the stationary HOL statistics
    factor per queue.

    A queue with one flow that can be drawn is fixed and never steps a
    loop. With one moving queue, the loop runs once per departure of it;
    with two or more, once per slot. Each loop logs the block's HOL changes,
    and one bincount counts the block (see the module docstring). In one
    process: 0.14 µs per slot on one queue x 4 flows, 0.13 µs on 2 queues x
    2+1 flows (one mover), 0.46 µs on 2 queues that both move and 0.8 µs on
    3-8 queues of 2-3 flows (BENCH_22.json).
    """
    errs = cfg.validate()
    if errs:
        raise ValueError("; ".join(errs))
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    n_queues = cfg.n_queues
    if len(hol_mix) != n_queues:
        raise ValueError(f"expected {n_queues} mix rows, got {len(hol_mix)}")
    cum_mix: list[np.ndarray] = []
    for n, mix in enumerate(hol_mix):
        if len(mix) != cfg.n_flows(n):
            raise ValueError(f"queue {n}: mix must give one share per flow")
        if not all(0.0 <= m <= sys.float_info.max for m in mix):  # NaN fails too
            raise ValueError(f"queue {n}: mix shares must be finite and nonnegative")
        try:
            total = math.fsum(mix)
        except OverflowError:
            total = math.inf
        if not 0.0 < total < math.inf:
            raise ValueError(f"queue {n}: mix shares must have a finite sum > 0")
        for k, m in enumerate(mix):
            if m > 0 and cfg.queues[n].flows[k].p_on <= 0.0:
                raise ValueError(
                    f"queue {n} flow {k}: absorbing blocking state "
                    "(HOL share > 0 with p_on = 0)"
                )
        cum = np.cumsum(np.array(mix, dtype=float) / total)  # left to right
        cum[-1] = 1.0
        cum_mix.append(cum)

    qs = range(n_queues)
    k_max = max(cfg.n_flows(n) for n in qs)
    # p_off[n * k_max + k]: of queue n's flow k, each row padded with flows
    # that are never at the head
    p_off = np.array([row + [1.0] * (k_max - len(row)) for row in map(cfg.p_off_row, qs)]).ravel()
    q_ids = np.arange(n_queues)
    weights = (n_queues * k_max) << q_ids  # of each queue's ON bit in a count's index
    on_bit = (np.arange(1 << n_queues)[:, None] >> np.arange(n_queues)) & 1
    # sel[s][j]: the j-th ON queue of channel state s in queue order, for j
    # below n_on[s], its count of ON queues
    sel = np.argsort(1 - on_bit, axis=1, kind="stable").tolist()
    n_on = on_bit.sum(axis=1).tolist()
    # a queue whose cumulative mix opens one interval is fixed: its HOL never
    # changes. The other queues move, and only their departures step a loop
    opens = [(np.diff(c, prepend=0.0) > 0).tolist() for c in cum_mix]
    moves = [sum(o) > 1 for o in opens]
    movers = [n for n in qs if moves[n]]
    rng_ch = _stream(seed, "channels")
    rng_sc = _stream(seed, "scheduling")
    # queue n's HOL draws: 4,096-uniform blocks of its own stream, "arrivals"
    # for queue 0 and "arrivals.n" after, the first for its initial HOL, then
    # one per departure of the queue if it moves. The flow is the count of
    # cumulative shares at or below the uniform, so the first share above it
    rng_ar = [_stream(seed, f"arrivals.{n}" if n else "arrivals") for n in qs]
    draws = [rng.random(_BLOCK) for rng in rng_ar]
    h = [int(np.searchsorted(cum_mix[n], draws[n][0], side="right")) for n in qs]
    draws = [x[1:] for x in draws]
    joint = np.zeros((1 << n_queues, n_queues, k_max), dtype=np.int64)

    for b0 in range(0, horizon, _BLOCK):
        size = min(_BLOCK, horizon - b0)
        u_ch = rng_ch.random((_BLOCK, n_queues))[:size]
        u_sc = rng_sc.random(_BLOCK)[:size]
        for n in qs:  # at most one departure per slot
            if moves[n] and len(draws[n]) < size:
                draws[n] = np.concatenate((draws[n], rng_ar[n].random(_BLOCK)))
        # each mover's refills for the block, and the same last first, so that
        # a departure takes the next by a pop
        refills = [np.searchsorted(c, x[:size], side="right") if m else None
                   for c, x, m in zip(cum_mix, draws, moves)]
        left = [r[::-1].tolist() if m else [] for r, m in zip(refills, moves)]
        take = [rest.pop for rest in left]
        h0 = h[:]
        if len(movers) == 1:
            # the fixed queues' HOL is held, so the mover m wins slot t when
            # ON and the grant draw picks it after the fixed queues before it
            # that are ON in t. It departs in each slot it wins, and its
            # refill holds from the next
            m = movers[0]
            fixed = [u_ch[:, n] >= p_off[n * k_max + h[n]] for n in qs if n != m]
            before = sum(fixed[:m], np.zeros(size, dtype=np.int64))
            win = (u_sc * (sum(fixed[m:], before) + 1)).astype(np.int64) == before
            nexts = [_next_slots((u_ch[:, m] >= p) & win) if o else None
                     for p, o in zip(cfg.p_off_row(m), opens[m])]
            pop = take[m]
            deps = []
            t = nexts[h[m]][0]
            while t < size:
                deps.append(t)
                t = nexts[pop()][t + 1]
            k = refills[m][:len(deps)]
            at, q = np.array(deps, dtype=np.int64) + 1, np.full_like(k, m)
            if deps:
                h[m] = int(k[-1])
        else:  # slot by slot; with no mover, nothing changes
            changes: list[int] = []  # each HOL change: from slot, queue, new flow
            if movers:
                # on[n][k]: queue n's bit of the channel state in each slot,
                # flow k at its head
                on = [[((u_ch[:, n] >= p) << n).tolist() for p in cfg.p_off_row(n)]
                      for n in qs]
                rows = [on[n][h[n]] for n in qs]
                u_pick = u_sc.tolist()
                for t in range(size):
                    s = 0
                    for row in rows:
                        s += row[t]
                    if s:
                        n = sel[s][int(u_pick[t] * n_on[s])]
                        if moves[n]:
                            k = take[n]()
                            if k != h[n]:
                                changes += t + 1, n, k
                                h[n] = k
                                rows[n] = on[n][k]
            at, q, k = np.array(changes, dtype=np.int64).reshape(-1, 3).T
        # the block's count: hq[n, t] = n * k_max + queue n's HOL flow in slot
        # t. Laid out flat, queue n's h0 sits at n * size and a change at
        # q * size + at, and each holds up to the next in order; the stable
        # sort puts a change at slot `size` before the next queue's h0, so it
        # holds for no slot
        pos = np.concatenate((q * size + at, q_ids * size, [n_queues * size]))
        order = np.argsort(pos, kind="stable")
        code = np.concatenate((q * k_max + k, q_ids * k_max + h0))[order[:-1]]
        hq = np.repeat(code, np.diff(pos[order])).reshape(n_queues, size)
        flat = hq + ((u_ch.T >= p_off[hq]) * weights[:, None]).sum(axis=0)
        joint += np.bincount(flat.ravel(), minlength=joint.size).reshape(joint.shape)
        draws = [x[size - len(rest):] for x, rest in zip(draws, left)]

    # every count is a marginal of the joint state-and-HOL counts
    hol_count = joint.sum(axis=0)
    z0 = (joint.sum(axis=2) * on_bit).sum(axis=0)
    blocked = (joint * (1 - on_bit)[:, :, None]).sum(axis=0)

    def rates(rows: np.ndarray) -> tuple[tuple[float, ...], ...]:
        return tuple(tuple(c / horizon for c in rows[n, :cfg.n_flows(n)].tolist())
                     for n in qs)

    return SaturatedMetrics(
        horizon=horizon,
        p_serviceable=tuple(c / horizon for c in z0.tolist()),
        p_blocked=rates(blocked),
        p_hol=rates(hol_count),
        joint=joint / horizon,
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


# per-slot totals below this keep a chunk's sum of i * q, i < _BLOCK, in int64
_EXACT_TOTAL = 1 << 40
_SLOT_INDEX = np.arange(_BLOCK, dtype=np.int64)


def _trace_sums(q: np.ndarray, warmup: int) -> tuple:
    """(sum q, sum t * q, max q) of a 1-D or 2-D (summed across queues) trace
    over [warmup, len), t counted from warmup, reduced a block of slots at a
    time. Integer traces give exact Python ints, float traces floats."""
    dtype = np.int64 if q.dtype.kind in "biu" else np.float64
    s0 = s1 = 0
    top = -math.inf
    for c0 in range(warmup, len(q), _BLOCK):
        rows = q[c0:c0 + _BLOCK]
        rows = rows.sum(1, dtype=dtype) if rows.ndim == 2 else rows.astype(dtype)
        if dtype is np.int64 and not -_EXACT_TOTAL < rows.min() <= rows.max() < _EXACT_TOTAL:
            raise ValueError("per-slot backlog totals must stay below 2**40")
        a = rows.sum().item()
        s0 += a
        s1 += (c0 - warmup) * a + (_SLOT_INDEX[:len(rows)] * rows).sum().item()
        top = max(top, rows.max().item())
    return s0, s1, top


def detect_stability(
    q_trace: np.ndarray | None,
    warmup: int | None = None,
    backlog_cap: float = 1e4,
) -> StabilityVerdict:
    """Classify a backlog trace by its post-warmup least-squares slope.

    stable:   slope <= SLOPE_STABLE and the backlog never exceeds backlog_cap;
    unstable: slope >= SLOPE_UNSTABLE;
    inconclusive otherwise. `q_trace` is per-slot total backlog (a 2-D
    per-queue trace is summed across queues); warmup defaults to a tenth.
    The trace is reduced a block of slots at a time to (S0, S1, max q), and
    the least-squares slope over the window's n slots is
    (12 S1 - 6 (n - 1) S0) / (n (n^2 - 1)): exact for an integer trace, and
    rounded once.
    """
    if q_trace is None:
        raise ValueError("the run kept no backlog trace (a lockstep run of run_batch)")
    q = np.asarray(q_trace)
    if q.ndim not in (1, 2) or len(q) < MIN_VERDICT_SLOTS:
        raise ValueError(
            f"need a 1-D or 2-D backlog trace of at least {MIN_VERDICT_SLOTS} slots"
        )
    w = len(q) // 10 if warmup is None else warmup
    if not (0 <= w < len(q) - 1):  # a slope needs a window of 2 slots
        raise ValueError("warmup must be in [0, len(trace) - 1)")
    n = len(q) - w
    s0, s1, top = _trace_sums(q, w)
    slope = (12 * s1 - 6 * (n - 1) * s0) / (n * (n * n - 1))
    if slope >= SLOPE_UNSTABLE:
        verdict = "unstable"
    elif slope <= SLOPE_STABLE and top <= backlog_cap:
        verdict = "stable"
    else:
        verdict = "inconclusive"
    return StabilityVerdict(verdict=verdict, slope=float(slope), max_backlog=float(top))
