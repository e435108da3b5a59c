"""Lockstep engine: many fluid qfc and max-weight runs advanced together.

`run_batch` is the entry point for many runs, and the one place that
decides which of them run in lockstep: groups of at least
LOCKSTEP_MIN_RUNS fluid runs without a trace whose policy is named "qfc" or
"maxweight" and that share a horizon and warmup (a built policy object runs
through `sim.run`). A lockstep run gives the metrics `sim.run` gives it,
seed for seed, except that `q_trace` is None: it keeps no per-slot backlog
trace, whose size would grow with runs x horizon. One numpy step per slot
advances every run of a group:

1. read each queue's head-of-line channel from the slot's channel row;
2. grant the first maximum of Q_n / sum_k p_on**beta (qfc) or Q_n
   (max-weight) among serviceable queues, as `policies.py` does;
3. admit by each policy's closed form on the start-of-slot backlogs, in the
   same float operations as the policy class, and take the fluid step
   v = frac + rate, count = floor(v), frac = v - count;
4. log the counts, and add them to the per-flow backlogs;
5. serve the granted heads of line, taking them off their flows' backlogs.

Once per window of slots, which lasts as long as the smallest backlog among
queues that can admit (1 to `_WINDOW` slots) and ends at each channel piece
and at warmup, the log is summed into the per-flow admissions and written
to the FIFOs: flows in index order, each repeated by its count, and every
same-slot batch of the window, of every run, ordered by its interleave keys
in one `sim._order_batches` call. Admissions and backlogs are the only
per-flow counts: `sim._metrics` derives the served ones as their
difference, so no FIFO entry is ever counted.

Each run reads "channels" as `sim.run` does, in (1024, F) pieces, which are
the rows of its (4096, F) blocks in order, and opens no other stream: fluid
runs draw no counts, and the grants draw nothing. State visits and grants
are tallied per piece.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from .policies import Policy, QfcPolicy
from .sim import (RunSpec, TraceMetrics, _interleave_word, _metrics, _order_batches,
                  _prepare, _stream, run)

_PIECE = 1024  # slots per channel draw and state tally
_WINDOW = 32  # most slots whose arrivals are written to the FIFOs at once


# fewest runs `run_batch` advances in lockstep; a lockstep slot costs about
# as much as 3 single-run slots (at 10,000 slots, one batch of 3 runs is even
# with run() for each, of 4 runs 1.3x faster)
LOCKSTEP_MIN_RUNS = 4


def run_batch(specs: Sequence[RunSpec]) -> Iterator[TraceMetrics]:
    """Yields run(spec) for each spec, in spec order, equal seed for seed.

    At the first `next`, the specs lockstep takes (fluid arrivals, no
    `record_trace`, and the policy name "qfc" or "maxweight") are checked
    as `run` checks them and grouped by horizon and warmup; each
    group of at least LOCKSTEP_MIN_RUNS runs in lockstep, and its results
    have `q_trace` None. Every other spec runs through `run` when its turn
    comes, so at most one run's trace is held at a time. Within a group,
    configs, policies and seeds may differ; runs are padded to the group's
    largest queue and flow counts, and a padded queue or flow never admits
    and is never ON.

    Per (run, queue) the state is a FIFO buffer of flow ids, a head and a
    tail index into it, and per flow a backlog and an admission count, at
    the end and at warmup, from which `sim._metrics` derives the served
    counts. Entries from the tail on hold the sentinel id K, a channel
    column that is always OFF, so an empty queue reads as blocked without a
    backlog test. Before a tail can pass the end of its row, the rows are
    compacted to their live entries, dropping the served ones, and the
    capacity doubles until it holds twice the largest backlog plus a
    window's most arrivals.
    """
    groups: dict[tuple[int, int], list[tuple[int, Policy]]] = {}
    for i, spec in enumerate(specs):
        if (spec.arrival_mode == "fluid" and not spec.record_trace
                and spec.policy in ("qfc", "maxweight")):
            policy, warmup = _prepare(spec)
            groups.setdefault((spec.horizon, warmup), []).append((i, policy))
    done: dict[int, TraceMetrics] = {}
    for (horizon, warmup), members in groups.items():
        if len(members) >= LOCKSTEP_MIN_RUNS:
            # qfc runs first, as `_lockstep` takes them
            members.sort(key=lambda m: type(m[1]) is not QfcPolicy)
            idx, pols = zip(*members)
            done.update(zip(idx, _lockstep([specs[i] for i in idx], list(pols), horizon, warmup)))
    for i, spec in enumerate(specs):
        yield done.pop(i) if i in done else run(spec)


# most state-counter entries, runs x 2**N x (N + 1) for the largest queue
# count N, that one lockstep batch holds; a larger batch runs in halves
_STATE_ENTRIES_MAX = 1 << 21


def _lockstep(specs: list[RunSpec], pols: list[Policy], horizon: int,
              warmup: int) -> list[TraceMetrics]:
    """The runs of one lockstep group, its qfc runs first."""
    cfgs = [spec.cfg for spec in specs]
    n_runs = len(specs)
    nq = max(cfg.n_queues for cfg in cfgs)
    if n_runs > 1 and n_runs * (nq + 1) << nq > _STATE_ENTRIES_MAX:
        h = n_runs // 2
        return (_lockstep(specs[:h], pols[:h], horizon, warmup)
                + _lockstep(specs[h:], pols[h:], horizon, warmup))
    nk = max(cfg.n_flows(n) for cfg in cfgs for n in range(cfg.n_queues))
    n_rows = n_runs * nq  # row r * nq + n: queue n of run r
    width = nk + 1  # channel columns per row; column nk is the sentinel's

    # admission of flow k in row i: fmin(r_max, num / backlog) * pb, where
    # backlog is the queue's in the first n_qfc rows (qfc) and the flow's own
    # in the rest (max-weight); a zero backlog gives num / 0 = inf, and fmin
    # maps inf (and 0 / 0) to r_max. Per-flow tables have a column for the
    # sentinel too, which never admits
    n_qfc = nq * sum(type(pol) is QfcPolicy for pol in pols)
    num = np.ones((n_rows, width))
    pb = np.zeros((n_rows, width))
    r_max = np.ones((n_rows, width))
    sched_w = np.zeros(n_rows)
    on_cols, p_off, ub = [], [], 1
    for r, (cfg, pol) in enumerate(zip(cfgs, pols)):
        qfc = type(pol) is QfcPolicy
        cols = []
        for n in range(cfg.n_queues):
            i, k = r * nq + n, cfg.n_flows(n)
            r_max[i] = pol.r_max
            num[i, :k] = pol.mk[n] if qfc else pol.mw
            pb[i, :k] = pol.pon_beta[n] if qfc else 1.0
            sched_w[i] = pol.sched_w[n] if qfc else 1.0
            cols.extend(range(i * width, i * width + k))
            # a flow materializes at most int(r_max) + 1 packets a slot
            ub = max(ub, k * (int(pol.r_max) + 1))
        on_cols.append(np.array(cols))
        p_off.append(np.array([f.p_off for q in cfg.queues for f in q.flows]))

    rng_ch = [_stream(spec.seed, "channels") for spec in specs]
    row_word = np.array([_interleave_word(spec.seed) for spec in specs], np.uint64).repeat(nq)
    row_queue = np.tile(np.arange(nq, dtype=np.uint64), n_runs)

    # float64 backlogs (exact integers), so admission divides without a cast;
    # q is each queue's start-of-slot backlog, counting packets not yet written
    frac = np.zeros((n_rows, width))
    v = np.zeros((n_rows, width))
    qf = np.zeros((n_rows, width))  # per-flow backlog
    adm = np.zeros((n_rows, width), dtype=np.int64)  # per-flow admissions
    qf_flat = qf.reshape(-1)  # indexed by a row's flat HOL column, as `on` is
    q = np.zeros(n_rows)
    ones_w = np.ones(width)
    # the two admission divisions, on views that stay current
    v_queue, num_queue, q_queue = v[:n_qfc], num[:n_qfc], q[:n_qfc, None]
    v_flow, num_flow, qf_flow = v[n_qfc:], num[n_qfc:], qf[n_qfc:]
    cnt_log = np.zeros((_WINDOW, n_rows, width))  # a window's admitted counts
    live = (r_max * pb > 0.0).any(1)  # rows whose flows can admit
    flow_ids = np.tile(np.arange(width, dtype=np.min_scalar_type(-width)), _WINDOW * n_rows)
    sentinel = nk
    cap = 64
    while cap < 2 * (ub + 1):
        cap *= 2
    fifo = np.full(n_rows * cap, sentinel, dtype=flow_ids.dtype)
    head = np.arange(n_rows, dtype=np.int64) * cap  # flat index of each HOL
    tail = head.copy()  # flat index of each row's next free entry
    tail_hi = 0  # bound on the largest tail offset within a row
    adm_w = qf_w = None  # snapshot at the start of slot `warmup`
    hol_at = np.zeros(n_rows, dtype=np.int64)  # flat column of each HOL
    hol_base = np.arange(n_rows, dtype=np.int64) * width
    run_base = np.arange(n_runs, dtype=np.int64) * nq

    n_states = 1 << nq
    pow2 = 1 << np.arange(nq, dtype=np.int32)
    state_off = np.arange(n_runs, dtype=np.int32) * n_states  # run r's key 0
    visits = np.zeros(n_runs * n_states, dtype=np.int64)
    serves = np.zeros((nq, n_runs * n_states), dtype=np.int64)

    # channel draws come in (_PIECE, F) pieces, the rows of sim.run's
    # (4096, F) blocks in order, at a quarter of the memory
    on = np.zeros((_PIECE, n_rows * width), dtype=bool)
    sv_blk = np.zeros((_PIECE, n_rows), dtype=bool)  # serviceable rows
    # granted rows; a run's one queue is granted whenever it is serviceable
    sq_blk = sv_blk if nq == 1 else np.zeros((_PIECE, n_rows), dtype=bool)

    with np.errstate(divide="ignore", invalid="ignore"):
        for b0 in range(0, horizon, _PIECE):
            size = min(_PIECE, horizon - b0)
            for r in range(n_runs):
                on[:size, on_cols[r]] = rng_ch[r].random((size, p_off[r].size)) >= p_off[r]
            sq_blk[:size] = False
            t0 = 0
            while t0 < size:
                # a window of wl slots: each FIFO holds all its packets at the
                # start, and a row with m >= 1 of them serves at most one a slot,
                # so its HOL is a written packet for m slots (an empty one, 1)
                if b0 + t0 == warmup:
                    adm_w, qf_w = adm.copy(), qf.astype(np.int64)
                wl = min(max(int(q.min(initial=_WINDOW, where=live)), 1), _WINDOW, size - t0)
                if b0 + t0 < warmup < b0 + t0 + wl:
                    wl = warmup - b0 - t0
                if tail_hi + wl * ub >= cap:
                    tail_hi = int((tail - np.arange(n_rows) * cap).max())
                    if tail_hi + wl * ub >= cap:
                        fifo, head, tail, cap = _compact(fifo, head, tail, cap,
                                                         _WINDOW * ub, sentinel)
                        tail_hi = int((tail - head).max())
                tail_hi += wl * ub

                for t in range(t0, t0 + wl):
                    # HOL channels and the grant, on start-of-slot backlogs
                    np.add(hol_base, fifo[head], out=hol_at)
                    sv, sq = sv_blk[t], sq_blk[t]
                    on[t].take(hol_at, out=sv, mode="clip")  # in range: no bounds buffer
                    if nq > 1:
                        g = np.where(sv, q * sched_w, -1.0).reshape(n_runs, nq).argmax(1)
                        g += run_base
                        sq[g] = sv[g]

                    # admission and the fluid step, counts logged for the window
                    np.divide(num_queue, q_queue, out=v_queue)
                    np.divide(num_flow, qf_flow, out=v_flow)
                    np.fmin(r_max, v, out=v)
                    np.multiply(v, pb, out=v)
                    np.add(frac, v, out=v)
                    cnt = cnt_log[t - t0]
                    np.floor(v, out=cnt)
                    np.subtract(v, cnt, out=frac)
                    qf += cnt

                    # serve the granted HOL packets
                    head += sq
                    qf_flat[hol_at] -= sq
                    np.dot(qf, ones_w, out=q)  # exact: integers below 2**53

                # sum the window's admissions and write its arrivals: slot-major,
                # then row, flows in index order, each repeated by its count;
                # then interleave each (slot, row) batch
                t0 += wl
                cnt_w = cnt_log[:wl].astype(np.int64)
                ids = np.repeat(flow_ids[:cnt_w.size], cnt_w.reshape(-1))
                if not ids.size:
                    continue
                adm += np.add.reduce(cnt_w, 0)
                arr_w = np.add.reduce(cnt_w, 2)
                arr_f = arr_w.reshape(-1)
                _order_batches(ids, arr_f, b0 + t0 - wl, row_word, row_queue)
                end = np.add.accumulate(arr_f)
                # entry e of the flat order goes to tail + acc - end + e: acc and
                # end are the inclusive arrival sums per row and in flat order
                acc = np.add.accumulate(arr_w, 0)
                pos = np.repeat((acc + tail).reshape(-1) - end, arr_f)
                pos += np.arange(pos.size)
                fifo[pos] = ids
                tail += acc[-1]

            w = min(max(warmup - b0, 0), size)  # first slot after warmup
            if w < size:
                key = sv_blk[w:size].reshape(-1, n_runs, nq) @ pow2
                key += state_off
                visits += np.bincount(key.ravel(), minlength=visits.size)
                granted = sq_blk[w:size].reshape(-1, n_runs, nq)
                for n in range(nq):
                    serves[n] += np.bincount(key[granted[..., n]], minlength=visits.size)

    qf = qf.astype(np.int64)
    visits = visits.reshape(n_runs, n_states)
    serves = serves.reshape(nq, n_runs, n_states)

    def nest(a: np.ndarray, r: int) -> list[list[int]]:
        return [a[r * nq + n, :cfgs[r].n_flows(n)].tolist()
                for n in range(cfgs[r].n_queues)]

    return [
        _metrics(spec, pol.name, warmup, nest(adm, r), nest(qf, r),
                 nest(adm_w, r), nest(qf_w, r), None,
                 visits[r, :1 << spec.cfg.n_queues].copy(),
                 serves[:spec.cfg.n_queues, r, :1 << spec.cfg.n_queues].T.copy(), None)
        for r, (spec, pol) in enumerate(zip(specs, pols))
    ]


def _compact(fifo: np.ndarray, head: np.ndarray, tail: np.ndarray, cap: int,
             ub: int, sentinel: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Copy each row's live entries to the front of a fresh buffer, doubling
    the capacity until it is at least twice the largest backlog plus `ub`."""
    q = tail - head
    while cap < 2 * (int(q.max()) + ub + 1):
        cap *= 2
    out = np.full(head.size * cap, sentinel, dtype=fifo.dtype)
    new_head = np.arange(head.size, dtype=np.int64) * cap
    for h, t, nh in zip(head.tolist(), tail.tolist(), new_head.tolist()):
        out[nh:nh + t - h] = fifo[h:t]
    return out, new_head, new_head + q, cap
