import dataclasses
import hashlib
import math
from bisect import bisect_right

import numpy as np
import pytest

from helpers import (
    backlog_sums_reference,
    criterion02_runs,
    criterion04_runs,
    detect_stability_float,
    exact_slope,
    make_cfg,
    run_saturated_reference,
    saturated_steady_state,
    single_queue_cfg,
)
from wfifo import (
    RunSpec,
    detect_stability,
    joint_state_hol_prob,
    run,
    run_batch,
    run_saturated,
    serve_if_on_policy,
    solve_dfc,
    static_dfc_policy,
)
from wfifo.core import ConfigError
from wfifo.policies import Policy, QfcPolicy, StaticPolicy, build_policy
from wfifo import lockstep, sim
from wfifo.sim import (
    _MIX_U64,
    _mix,
    _order_batches,
    _ordered,
    _slot_hash,
    check_poisson_rates,
    poisson_cdf,
    stream_seed,
)


def small_run(**kw):
    defaults = dict(
        cfg=make_cfg([[0.2, 0.5], [0.3]], M=50.0),
        policy="qfc",
        horizon=20_000,
        seed=3,
    )
    defaults.update(kw)
    return run(RunSpec(**defaults))


def test_same_spec_same_metrics():
    a = small_run(record_trace=True)
    b = small_run(record_trace=True)
    assert a.admitted_rate == b.admitted_rate
    assert a.served_rate == b.served_rate
    assert a.final_backlog == b.final_backlog
    assert np.array_equal(a.q_trace, b.q_trace)
    assert a.rng_streams == b.rng_streams
    assert a.trace["arrival_order"] == b.trace["arrival_order"]


def test_different_seed_changes_the_run():
    a = small_run(arrival_mode="stochastic")
    b = small_run(arrival_mode="stochastic", seed=4)
    assert a.admitted_packets != b.admitted_packets


def test_conservation_per_flow():
    for mode in ("fluid", "stochastic"):
        m = small_run(arrival_mode=mode)
        for n in range(2):
            for k in range(len(m.admitted_packets[n])):
                assert (
                    m.admitted_packets[n][k] - m.served_packets[n][k]
                    == m.final_backlog_flow[n][k]
                )
            assert sum(m.final_backlog_flow[n]) == m.final_backlog[n]


def test_fifo_departure_order():
    m = small_run(record_trace=True, arrival_mode="stochastic")
    for n in range(2):
        arrived = m.trace["arrival_order"][n]
        departed = m.trace["departure_order"][n]
        assert departed == arrived[: len(departed)]


def test_backlog_recurrence_replay():
    m = small_run(record_trace=True, arrival_mode="stochastic")
    arrivals = m.trace["arrivals_by_slot"]
    served = m.trace["served_by_slot"]
    for n in range(2):
        g = (served == n).astype(np.int64)
        q = m.q_trace[:, n].astype(np.int64)
        expect = q + arrivals[:, n] - g
        assert np.array_equal(q[1:], expect[:-1])
        assert m.final_backlog[n] == expect[-1]


def test_q_trace_starts_empty():
    m = small_run()
    assert m.q_trace.shape == (20_000, 2)
    assert m.q_trace[0].tolist() == [0, 0]


def test_utility_recomputes_from_admitted_rates():
    m = small_run()
    want = math.fsum(
        math.log(r) for row in m.admitted_rate for r in row if r > 0
    )
    assert m.utility == pytest.approx(want, abs=1e-12)
    assert m.total_admitted_rate() == pytest.approx(
        sum(sum(row) for row in m.admitted_rate)
    )


def test_state_counters_cover_window_and_respect_channels():
    m = small_run()
    window = m.horizon - m.warmup
    assert int(m.state_visits.sum()) == window
    for s in range(1 << 2):
        for n in range(2):
            if m.state_serves[s, n] > 0:
                assert (s >> n) & 1 == 1  # never served while OFF


def test_deterministic_channel_full_throughput():
    cfg = single_queue_cfg([0.0], lambdas=[0.5])
    m = run(RunSpec(cfg=cfg, policy="static", horizon=10_000, seed=0))
    assert m.served_rate[0][0] == pytest.approx(0.5, abs=1e-3)
    assert m.q_trace.max() <= 1


def test_dead_channel_never_serves():
    cfg = single_queue_cfg([1.0], lambdas=[0.5])
    m = run(RunSpec(cfg=cfg, policy="static", horizon=5_000, seed=0))
    assert m.served_packets[0][0] == 0
    assert m.final_backlog[0] == m.admitted_packets[0][0]
    assert int(m.state_serves.sum()) == 0


def test_policy_granting_blocked_queue_is_caught():
    class Rogue(Policy):
        name = "rogue"

        def admission(self, q_totals, q_flows):
            return [[1.0]]

        def schedule(self, q_totals, serviceable, state_bits, u):
            return 0 if q_totals[0] > 0 else None

    cfg = single_queue_cfg([1.0])
    with pytest.raises(RuntimeError, match="head-of-line channel is not ON"):
        run(RunSpec(cfg=cfg, policy=Rogue(), horizon=100, seed=0))


def test_run_validates_inputs():
    cfg = single_queue_cfg([0.2])
    with pytest.raises(ValueError, match="horizon"):
        run(RunSpec(cfg=cfg, horizon=0))
    with pytest.raises(ValueError, match="warmup"):
        run(RunSpec(cfg=cfg, horizon=100, warmup=100))
    with pytest.raises(ValueError, match="arrival mode"):
        run(RunSpec(cfg=cfg, horizon=100, arrival_mode="bursty"))
    with pytest.raises(ValueError, match="beta"):
        run(RunSpec(cfg=single_queue_cfg([0.2], beta=0.5), horizon=100))


def test_stochastic_arrivals_average_out():
    cfg = single_queue_cfg([0.0], lambdas=[0.4])
    m = run(RunSpec(cfg=cfg, policy="static", horizon=50_000, seed=1,
                    arrival_mode="stochastic"))
    assert m.admitted_rate[0][0] == pytest.approx(0.4, abs=0.02)


def test_qfc_settles_at_the_planner_rates():
    cfg = single_queue_cfg([0.1, 0.1], M=100.0)
    m = run(RunSpec(cfg=cfg, policy="qfc", horizon=100_000, seed=2))
    assert m.admitted_rate[0][0] == pytest.approx(0.45, abs=0.01)
    assert m.admitted_rate[0][1] == pytest.approx(0.45, abs=0.01)


def test_static_replay_of_planner_solution_is_stable():
    cfg = make_cfg([[0.1, 0.5], [0.1, 0.5]])
    sol = solve_dfc(cfg)
    pol = static_dfc_policy(cfg, sol)
    m = run(RunSpec(cfg=cfg, policy=pol, horizon=200_000, seed=5))
    for n in range(2):
        for k in range(2):
            assert m.served_rate[n][k] == pytest.approx(sol.lambdas[n][k], rel=0.02)
    # the replay runs exactly on its capacity (the planner's scale constraint
    # is active), so the backlog random-walks; anything but sustained growth
    # is the right outcome here
    assert detect_stability(m.q_trace).verdict != "unstable"
    assert m.final_backlog[0] + m.final_backlog[1] < 5_000


def test_boundary_scaling_flips_the_verdict():
    lam = (0.45, 0.45)  # load boundary for p_on = (0.9, 0.9)
    cfg = single_queue_cfg([0.1, 0.1])
    for factor, want in ((0.95, "stable"), (1.05, "unstable")):
        rates = [[factor * l for l in lam]]
        m = run(RunSpec(cfg=cfg, policy=serve_if_on_policy(cfg, rates),
                        horizon=200_000, seed=11, arrival_mode="stochastic"))
        assert detect_stability(m.q_trace).verdict == want


# ----- Poisson inverse CDF -----


def _direct_cdf(rate, n):
    """P[count <= j] for j < n, each term from its closed form."""
    pmf = [math.exp(-rate + j * math.log(rate) - math.lgamma(j + 1)) for j in range(n)]
    return [math.fsum(pmf[: j + 1]) for j in range(n)]


@pytest.mark.parametrize("rate", [1e-12, 0.01, 0.5, 2.0])
def test_poisson_table_is_the_pmf_sum(rate):
    table = poisson_cdf(rate)
    assert np.allclose(table, _direct_cdf(rate, len(table)), rtol=0.0, atol=1e-15)
    assert all(b >= a for a, b in zip(table, table[1:]))
    assert table[-1] >= 1.0 - 1e-15


def test_poisson_table_tail_is_at_rounding_level():
    # a uniform past the last entry gets the capped count len(table)
    for rate in np.concatenate([np.geomspace(1e-12, 700.0, 200), [700.0]]):
        assert 1.0 - poisson_cdf(float(rate))[-1] < 1e-14


@pytest.mark.parametrize("rate", [0.01, 0.5, 2.0])
def test_poisson_counts_have_mean_and_variance_rate(rate):
    n = 10**6
    u = np.random.default_rng(int(rate * 100)).random(n)
    counts = np.searchsorted(np.array(poisson_cdf(rate)), u, side="right")
    assert abs(counts.mean() - rate) <= 5 * math.sqrt(rate / n)
    # the sample variance of a Poisson(r) sample has variance ~ (r + 2r^2)/n
    assert abs(counts.var() - rate) <= 5 * math.sqrt((rate + 2 * rate**2) / n)


@pytest.mark.parametrize("rate", [0.0, 1e-12, 2.0, 700.0])
def test_poisson_count_is_finite_at_the_largest_uniform(rate):
    table = poisson_cdf(rate)
    top = bisect_right(table, float(np.nextafter(1.0, 0.0)))
    assert 0 <= top <= len(table)
    assert bisect_right(table, 0.0) == (0 if table[0] > 0.0 else 1)
    if rate == 0.0:
        assert table == (1.0,) and top == 0


@pytest.mark.parametrize("rate", [1000.0, 1e20, math.inf, math.nan, -1.0])
def test_poisson_table_rejects_rates_it_cannot_represent(rate):
    with pytest.raises(ValueError, match="Poisson rate"):
        poisson_cdf(rate)


@pytest.mark.parametrize("rate, ok", [
    (0.0, True), (1e-12, True), (2.0, True), (700.0, True),
    (1000.0, False), (1e20, False),
])
def test_stochastic_rates_are_checked_before_the_first_slot(rate, ok):
    cfg = single_queue_cfg([0.2], lambdas=[rate])
    spec = RunSpec(cfg=cfg, policy="static", horizon=20, seed=0,
                   arrival_mode="stochastic")
    if ok:
        assert run(spec).admitted_packets[0][0] >= 0
        assert run(dataclasses.replace(spec, arrival_mode="fluid")).horizon == 20
    else:
        with pytest.raises(ConfigError, match="arrival rate .* exceeds 700"):
            run(spec)
        with pytest.raises(ConfigError):
            check_poisson_rates(cfg, "static")
    # qfc and max-weight admit up to r_max
    capped = single_queue_cfg([0.2], r_max=max(rate, 1e-12))
    for name in ("qfc", "maxweight"):
        if ok:
            check_poisson_rates(capped, name)
        else:
            with pytest.raises(ConfigError, match="r_max .* exceeds"):
                run(RunSpec(cfg=capped, policy=name, horizon=20,
                            arrival_mode="stochastic"))


def _arrivals_per_flow(m, cfg):
    """(horizon, flows) arrival counts, flows in queue-major order."""
    offsets = np.cumsum([0] + [cfg.n_flows(n) for n in range(cfg.n_queues)])
    counts = np.zeros((m.horizon, offsets[-1]), dtype=np.int64)
    for n, log in enumerate(m.trace["arrival_order"]):
        for k, born in log:
            counts[born, offsets[n] + k] += 1
    return counts


@pytest.mark.parametrize("wrap", [False, True])
def test_zero_rate_flow_consumes_its_uniform(wrap):
    # stream layout: each block's first arrivals draw is one (4096, F)
    # uniform block; flow f's count in slot t inverts column f at slot t
    cfg = make_cfg([[0.3, 0.2], [0.5]])
    rates = [[0.0, 0.7], [1.2]]
    pol = serve_if_on_policy(cfg, rates)
    spec = RunSpec(cfg=cfg, policy=_Delegate(pol) if wrap else pol,
                   horizon=3000, seed=12, arrival_mode="stochastic",
                   record_trace=True)
    counts = _arrivals_per_flow(run(spec), cfg)
    u = np.random.default_rng(stream_seed(12, "arrivals")).random((4096, 3))[:3000]
    assert not counts[:, 0].any()
    for f, r in ((1, 0.7), (2, 1.2)):
        want = np.searchsorted(np.array(poisson_cdf(r)), u[:, f], side="right")
        assert np.array_equal(counts[:, f], want)


# ----- open-loop block path against the per-slot loop -----


class _Delegate(Policy):
    """A static policy hidden from run()'s type test: the per-slot loop."""

    def __init__(self, inner):
        self.inner = inner
        self.name = inner.name

    def admission(self, q_totals, q_flows):
        return self.inner.admission(q_totals, q_flows)

    def schedule(self, q_totals, serviceable, state_bits, u):
        return self.inner.schedule(q_totals, serviceable, state_bits, u)


def _assert_same_metrics(a, b):
    for name in (f.name for f in dataclasses.fields(a)):
        x, y = getattr(a, name), getattr(b, name)
        if name == "trace":
            assert x.keys() == y.keys()
            for key in x:
                if isinstance(x[key], np.ndarray):
                    assert x[key].dtype == y[key].dtype, key
                    assert np.array_equal(x[key], y[key]), key
                else:
                    assert x[key] == y[key], key
        elif isinstance(x, np.ndarray):
            assert x.dtype == y.dtype and np.array_equal(x, y), name
        else:
            assert x == y, name


def _open_loop_cases():
    """Static policies on N = 1-4 queues: zero rates, p_off 0 and 1, grant
    rows summing to less than 1, and rates high enough for 3+ arrivals."""
    rng = np.random.default_rng(606)
    cases = []
    for n_queues in (1, 2, 3, 4):
        rows = [[0.0, 1.0, float(rng.uniform(0.1, 0.6))][: 1 + (n + n_queues) % 3]
                for n in range(n_queues)]
        cfg = make_cfg(rows)
        rates = [[0.0 if (n + k) % 3 == 1 else float(rng.uniform(0.2, 1.6 / n_queues))
                  for k in range(len(row))] for n, row in enumerate(rows)]
        tau = rng.uniform(size=(1 << n_queues, n_queues))
        tau /= tau.sum(axis=1, keepdims=True) * rng.choice([1.0, 1.25], size=(1 << n_queues, 1))
        cases.append((cfg, StaticPolicy(cfg, rates, tau)))
    cfg = make_cfg([[0.0, 0.4]])  # serve-if-on, one queue, as criterion 02
    cases.append((cfg, serve_if_on_policy(cfg, [[0.5, 0.4]])))
    cfg = make_cfg([[0.1, 0.2, 0.3]])  # overloaded: 3+ fluid arrivals a slot
    cases.append((cfg, serve_if_on_policy(cfg, [[0.9, 0.8, 2.3]])))
    return cases


@pytest.mark.parametrize("mode", ["fluid", "stochastic"])
@pytest.mark.parametrize("horizon", [10, 4095, 4096, 4097, 3 * 4096 + 5])
def test_open_loop_block_path_equals_per_slot_loop(mode, horizon):
    multi = 0
    for i, (cfg, pol) in enumerate(_open_loop_cases()):
        spec = RunSpec(cfg=cfg, policy=pol, horizon=horizon, seed=40 + i,
                       warmup=0 if i % 2 else horizon // 3,
                       arrival_mode=mode, record_trace=True)
        fast = run(spec)
        ref = run(dataclasses.replace(spec, policy=_Delegate(pol)))
        _assert_same_metrics(fast, ref)
        multi += int((fast.trace["arrivals_by_slot"] >= 3).sum())
    if horizon > 10:
        assert multi > 0  # batches of 3+ packets were interleaved


@pytest.mark.parametrize("mode", ["fluid", "stochastic"])
def test_open_loop_block_path_reads_channels_of_more_flows_than_an_int64_holds(mode):
    # the block path reads a slot's channels as one integer, bit f for flow
    # f; 70 flows over two queues need bits 62 to 69 too
    rng = np.random.default_rng(70)
    rows = [rng.uniform(0.0, 0.6, 40).tolist(), rng.uniform(0.0, 0.6, 30).tolist()]
    cfg = make_cfg(rows)
    rates = [[0.01 * (k % 3) for k in range(len(row))] for row in rows]
    tau = np.full((4, 2), 0.5)
    pol = StaticPolicy(cfg, rates, tau)
    spec = RunSpec(cfg=cfg, policy=pol, horizon=3000, seed=7, warmup=100,
                   arrival_mode=mode, record_trace=True)
    fast = run(spec)
    _assert_same_metrics(fast, run(dataclasses.replace(spec, policy=_Delegate(pol))))
    assert fast.served_packets[1][29] > 0  # flow 69 got through


@pytest.mark.parametrize("name", ["static", "dfc-static"])
def test_named_open_loop_policies_take_the_block_path(name, monkeypatch):
    cfg = make_cfg([[0.2, 0.5], [0.3]], lambdas=[[0.2, 0.1], [0.3]])
    pol = build_policy(cfg, name)
    assert type(pol) is StaticPolicy
    spec = RunSpec(cfg=cfg, policy=pol, horizon=5000, seed=8,
                   arrival_mode="stochastic")
    _assert_same_metrics(run(spec), run(dataclasses.replace(spec, policy=_Delegate(pol))))
    # run by name, a run takes the block path and carries the policy's name
    block_runs = []
    open_loop = sim._run_open_loop
    monkeypatch.setattr(sim, "_run_open_loop",
                        lambda *args: block_runs.append(args) or open_loop(*args))
    m = run(dataclasses.replace(spec, policy=name))
    assert len(block_runs) == 1 and m.policy_name == name
    _assert_same_metrics(m, run(spec))


# one queue: a p_off = 1 flow at a positive rate, whose HOL packet is never
# served once it reaches the head; a zero-rate flow; a state-1 grant
# summing below 1 (the slot can idle) and a grant in the all-OFF state,
# which never serves; and an overloaded queue whose backlog grows across
# blocks
_ONE_QUEUE_CASES = [
    ([0.3, 1.0, 0.5], [0.2, 0.004, 0.0], [[0.6], [0.8]]),
    ([0.1, 0.4], [0.6, 0.5], [[0.0], [1.0]]),
    ([0.0, 0.7, 0.2, 0.5], [0.1, 0.0, 0.3, 0.15], [[0.0], [0.9]]),
]


@pytest.mark.parametrize("mode", ["fluid", "stochastic"])
@pytest.mark.parametrize("horizon", [10, 4095, 4096, 4097, 3 * 4096 + 5])
def test_one_queue_packet_path_equals_per_slot_loop(mode, horizon, monkeypatch):
    steps = []
    packet_steps = sim._packet_steps
    monkeypatch.setattr(sim, "_packet_steps",
                        lambda *args: steps.append(args) or packet_steps(*args))
    for i, (p_off, rates, tau) in enumerate(_ONE_QUEUE_CASES):
        cfg = make_cfg([p_off])
        pol = StaticPolicy(cfg, [rates], np.array(tau))
        for warmup in (0, horizon // 3 + 1, 4096):
            if warmup >= horizon:
                continue
            spec = RunSpec(cfg=cfg, policy=pol, horizon=horizon, seed=70 + i,
                           warmup=warmup, arrival_mode=mode, record_trace=True)
            fast = run(spec)
            _assert_same_metrics(fast, run(dataclasses.replace(spec, policy=_Delegate(pol))))
            assert all(a == 0 for a, r in zip(fast.admitted_packets[0], rates) if r == 0.0)
            if horizon > 4096 and i == 0:
                # the never-ON flow's packet reached the head and pins it
                assert fast.served_packets[0][1] == 0 < fast.admitted_packets[0][1]
                assert fast.q_trace[-1, 0] > fast.q_trace[horizon // 2, 0] > 0
            if horizon > 4096 and i == 1:  # overloaded: carried across blocks
                assert fast.q_trace[4096, 0] > 100
            if horizon > 10 and i == 2 and warmup == 0:  # the slot idles in state 1
                assert fast.state_visits[1] > fast.state_serves[1, 0] > 0
    # one packet-path call per block of each run
    runs = sum(w < horizon for w in (0, horizon // 3 + 1, 4096)) * len(_ONE_QUEUE_CASES)
    assert len(steps) == runs * -(-horizon // 4096)


# ----- lockstep closed-loop engine against run() -----


# (p_off rows, policy, M, r_max, beta): N = 1-3 queues of 1-10 flows, both
# policies, p_off 0 and 1, a dead queue (run 2), and r_max 3.5, so one flow
# alone can bring 3 packets in a slot. Run 1 is max-weight behind a dead
# flow: its backlog outgrows the FIFO many times over, and its queue is
# followed by live queues of the same run, so an entry written past the end
# of its FIFO row would show.
_LOCKSTEP_CASES = [
    ([[0.2, 0.5]], "qfc", 50.0, 2.0, 1.0),
    ([[0.0, 1.0, 0.3], [0.2], [0.4, 0.1]], "maxweight", 1000.0, 3.5, 1.0),
    ([[1.0, 1.0], [0.1]], "qfc", 20.0, 3.5, 1.0),
    ([[0.1, 0.4, 0.6, 0.2], [0.3, 0.0], [0.7]], "maxweight", 5.0, 0.7, 1.0),
    ([[0.05 * k for k in range(10)]], "qfc", 100.0, 2.0, 1.0),
    ([[0.9, 0.1, 0.5, 0.3, 0.7, 0.2, 0.6]], "maxweight", 100.0, 2.0, 1.0),
    ([[0.5, 0.5, 0.5], [0.2], [0.9, 0.1]], "qfc", 1000.0, 2.0, 2.0),
    ([[0.0]], "maxweight", 10.0, 3.5, 1.0),
    ([[0.3, 0.6], [0.3, 0.6]], "qfc", 100.0, 3.5, 2.5),
    ([[0.1, 0.5], [0.1, 0.5]], "maxweight", 100.0, 2.0, 2.5),
]


_HORIZONS = [10, 4095, 4096, 4097, 3 * 4096 + 5]


def _assert_batch_equals_run(horizon, third, policy=None):
    """run_batch on the _LOCKSTEP_CASES of `policy` (all if None) equals run()."""
    warmup = horizon // 3 if third else 0
    specs = {i: RunSpec(cfg=make_cfg(rows, M=M, r_max=r_max, beta=beta), policy=pol,
                        horizon=horizon, warmup=warmup, seed=50 + 7 * i)
             for i, (rows, pol, M, r_max, beta) in enumerate(_LOCKSTEP_CASES)
             if policy in (None, pol)}
    batch = list(run_batch(list(specs.values())))
    sizes = []
    for spec, got in zip(specs.values(), batch):
        # the trace changes no metric; it shows which interleaves ran
        ref = run(dataclasses.replace(spec, record_trace=True))
        assert got.q_trace is None and got.trace == {}
        _assert_same_metrics(dataclasses.replace(got, q_trace=ref.q_trace, trace=ref.trace), ref)
        sizes.append(ref.trace["arrivals_by_slot"])
    sizes = np.concatenate([a.ravel() for a in sizes])
    assert (sizes == 2).any() and (sizes >= 3).any()  # 2-packet and larger batches
    if horizon > 4096 and 1 in specs:
        # the dead-flow max-weight backlog outgrew the FIFO's first capacity
        # (64 entries for this batch) several doublings over
        assert run(specs[1]).q_trace.max() > 1024


@pytest.mark.parametrize("third", [False, True])
@pytest.mark.parametrize("horizon", _HORIZONS)
def test_run_batch_equals_run(horizon, third):
    _assert_batch_equals_run(horizon, third)  # qfc and max-weight runs mixed


@pytest.mark.parametrize("third", [False, True])
@pytest.mark.parametrize("horizon", _HORIZONS)
@pytest.mark.parametrize("policy", ["qfc", "maxweight"])
def test_single_policy_run_batch_equals_run(policy, horizon, third):
    _assert_batch_equals_run(horizon, third, policy)


# A batch whose arrivals are written in wide windows on most slots: large M
# and r_max lift every backlog past 32 within tens of slots. Run 1 is the
# dead-flow max-weight run, whose FIFO is compacted while windows are wide.
# Run 3's one flow is always ON and has M = 0.5: each time its queue is
# empty it admits r_max = 100 packets at once, then drains to empty again
# over about 100 slots, so the batch keeps falling back to one-slot windows.
_WIDE_CASES = [
    ([[0.1, 0.3, 0.2]], "qfc", 1000.0, 3.5, 1.0),
    ([[0.0, 1.0, 0.3], [0.2], [0.4, 0.1]], "maxweight", 1000.0, 3.5, 1.0),
    ([[0.2, 0.4], [0.1, 0.3]], "qfc", 2000.0, 3.5, 1.0),
    ([[0.0]], "qfc", 0.5, 100.0, 1.0),
    ([[0.3, 0.5, 0.1], [0.2, 0.6]], "maxweight", 500.0, 5.0, 1.0),
    ([[0.1, 0.2, 0.3, 0.4]], "maxweight", 3000.0, 2.0, 2.0),
]


@pytest.mark.parametrize("horizon", [1030, 4100])
def test_run_batch_equals_run_in_wide_windows(horizon, monkeypatch):
    specs = [RunSpec(cfg=make_cfg(rows, M=M, r_max=r_max, beta=beta), policy=pol,
                     horizon=horizon, warmup=517, seed=90 + 11 * i)
             for i, (rows, pol, M, r_max, beta) in enumerate(_WIDE_CASES)]
    batch = list(run_batch(specs))
    refs = [run(spec) for spec in specs]
    for got, ref in zip(batch, refs):
        assert got.q_trace is None
        _assert_same_metrics(dataclasses.replace(got, q_trace=ref.q_trace), ref)
    # a window lasts as many slots as the smallest backlog, up to 32
    q = np.column_stack([ref.q_trace for ref in refs])
    assert (q.min(1) >= 32).mean() > 0.6
    assert (q[:, 6] == 0).sum() >= horizon // 110  # run 3 empties again and again
    assert q[:, 1].max() > 1024  # the dead-flow run outgrew several capacities
    # one-slot windows write the same FIFOs
    monkeypatch.setattr(lockstep, "_WINDOW", 1)
    for got, want in zip(run_batch(specs), batch):
        _assert_same_metrics(got, want)


def test_run_batch_runs_a_batch_too_large_for_its_state_counters_in_parts(monkeypatch):
    specs = [RunSpec(cfg=make_cfg(rows, M=M, r_max=r_max, beta=beta), policy=pol,
                     horizon=500, seed=50 + 7 * i)
             for i, (rows, pol, M, r_max, beta) in enumerate(_LOCKSTEP_CASES[:5])]
    whole = list(run_batch(specs))
    monkeypatch.setattr(lockstep, "_STATE_ENTRIES_MAX", 64)  # two runs of 3 queues
    for got, want in zip(run_batch(specs), whole):
        _assert_same_metrics(got, want)


def test_run_batch_routes_each_spec_and_yields_in_spec_order(monkeypatch):
    # lockstep takes the group of 4 fluid runs named qfc or maxweight of
    # horizon 400 and warmup 40 (given, or its default); the 3 of horizon 300
    # are too few, and every other spec is one lockstep cannot take (a built
    # QfcPolicy among them), so each of those runs through run()
    cfg = make_cfg([[0.2, 0.5], [0.3]], lambdas=[[0.1, 0.2], [0.3]], M=50.0)
    one = make_cfg([[0.1, 0.6, 0.3]], lambdas=[[0.2, 0.1, 0.1]], M=20.0, r_max=3.5)
    base = RunSpec(cfg=cfg, policy="qfc", horizon=400, warmup=40, seed=5)
    short = dataclasses.replace(base, horizon=300, warmup=None)
    specs = [
        base,
        dataclasses.replace(short, policy="maxweight"),
        dataclasses.replace(base, arrival_mode="stochastic"),
        dataclasses.replace(base, cfg=one, policy="maxweight", warmup=None, seed=6),
        dataclasses.replace(base, policy="static"),
        dataclasses.replace(short, cfg=one, seed=7),
        dataclasses.replace(base, policy=QfcPolicy(one), cfg=one, seed=8),
        dataclasses.replace(base, policy="dfc-static"),
        dataclasses.replace(base, record_trace=True),
        dataclasses.replace(base, policy=_Delegate(QfcPolicy(cfg))),
        dataclasses.replace(base, policy="maxweight", seed=9),
        dataclasses.replace(short, seed=10),
        dataclasses.replace(base, cfg=one, seed=11),
    ]
    grouped = {0, 3, 10, 12}
    refs = [run(spec) for spec in specs]
    calls = []

    def counting(spec):
        calls.append(spec)
        return run(spec)

    monkeypatch.setattr(lockstep, "run", counting)
    batch = run_batch(specs)
    assert not calls  # nothing runs before the first next
    for i, (spec, ref) in enumerate(zip(specs, refs)):
        got = next(batch)
        # run() is called only for the spec yielded, when its turn comes
        assert calls == [specs[j] for j in range(i + 1) if j not in grouped]
        assert (got.q_trace is None) == (i in grouped), i
        if i in grouped:
            with pytest.raises(ValueError, match="no backlog trace"):
                got.stability()
            got = dataclasses.replace(got, q_trace=ref.q_trace)
        _assert_same_metrics(got, ref)
    assert next(batch, None) is None
    assert list(run_batch([])) == []
    # an invalid warmup raises, in a lockstep group, alone, or in run()
    for bad in (dataclasses.replace(base, warmup=400), dataclasses.replace(base, warmup=-1),
                dataclasses.replace(base, arrival_mode="stochastic", warmup=400)):
        with pytest.raises(ValueError, match="warmup"):
            list(run_batch([bad]))
        with pytest.raises(ValueError, match="warmup"):
            list(run_batch(specs[:1] + [bad] + specs[10:]))


def test_run_batch_reorders_a_lockstep_group_invisibly(monkeypatch):
    # maxweight and qfc specs alternate, with a built policy object and a
    # stochastic spec among them; lockstep takes the named fluid ones, qfc
    # runs first, and run_batch still yields run(spec) in spec order
    specs = []
    for i, (rows, _, M, r_max, beta) in enumerate(_LOCKSTEP_CASES[:8]):
        cfg = make_cfg(rows, M=M, r_max=r_max, beta=beta)
        specs.append(RunSpec(cfg=cfg, policy=("maxweight", "qfc")[i % 2], horizon=3000,
                             warmup=700, seed=120 + i))
    specs.insert(3, dataclasses.replace(specs[2], policy=QfcPolicy(specs[2].cfg)))
    specs.insert(6, dataclasses.replace(specs[5], arrival_mode="stochastic"))
    groups = []
    lockstep_runs = lockstep._lockstep
    monkeypatch.setattr(lockstep, "_lockstep",
                        lambda sp, pols, *a: groups.append(pols) or lockstep_runs(sp, pols, *a))
    batch = list(run_batch(specs))
    [pols] = groups
    assert [p.name for p in pols] == ["qfc"] * 4 + ["maxweight"] * 4
    for i, (spec, got) in enumerate(zip(specs, batch)):
        ref = run(spec)
        assert got.policy_name == ref.policy_name
        assert (got.q_trace is None) == (i not in (3, 6)), i
        _assert_same_metrics(dataclasses.replace(got, q_trace=ref.q_trace), ref)


@pytest.mark.parametrize("policy, field", [("static", "lambda"), ("qfc", "r_max"),
                                           ("maxweight", "r_max")])
def test_fluid_rates_are_capped_too(policy, field):
    rate = 1e20
    cfg = (single_queue_cfg([0.2], lambdas=[rate]) if field == "lambda"
           else single_queue_cfg([0.2], r_max=rate))
    spec = RunSpec(cfg=cfg, policy=policy, horizon=100, seed=0)
    what = "arrival rate" if field == "lambda" else "r_max"
    with pytest.raises(ConfigError, match=f"fluid arrivals: {what} 1e\\+20 exceeds 700"):
        run(spec)
    if policy != "static":
        with pytest.raises(ConfigError, match="fluid arrivals: r_max"):
            list(run_batch([spec]))
    ok = dataclasses.replace(spec, cfg=single_queue_cfg(
        [0.2], lambdas=[700.0] if field == "lambda" else None, r_max=700.0))
    assert run(ok).horizon == 100


# ----- interleave keys -----


def test_scalar_interleave_keys_equal_the_vector_form():
    # random words, slots past 2**24, queues, and packet indexes past 4,096
    rng = np.random.default_rng(11)
    words = rng.integers(0, 1 << 63, 400, dtype=np.uint64) * np.uint64(2) + np.uint64(1)
    slots = rng.integers(0, 1 << 40, 400).astype(np.uint64)
    slots[:5] = [0, 1 << 24, (1 << 24) + 1, 1 << 32, (1 << 62) - 1]
    queues = rng.integers(0, 64, 400).astype(np.uint64)
    js = rng.integers(0, 10_000, 400).astype(np.uint64)
    keys = _mix(_slot_hash(words, slots, queues, _MIX_U64) ^ js, _MIX_U64)
    assert keys.dtype == np.uint64
    assert keys.tolist() == [_mix(_slot_hash(w, t, n) ^ j) for w, t, n, j in zip(
        words.tolist(), slots.tolist(), queues.tolist(), js.tolist())]


@pytest.mark.parametrize("weak", [False, True])
@pytest.mark.parametrize("n_slots", [2, 40])
def test_interleave_orders_each_batch_by_its_scalar_keys(n_slots, weak, monkeypatch):
    if weak:  # 5-bit keys: ties in a batch, which go by position
        monkeypatch.setattr(sim, "_mix", lambda z, c=sim._MIX: z & c[4])
    rng = np.random.default_rng(n_slots)
    words = rng.integers(0, 1 << 63, 3, dtype=np.uint64) * np.uint64(2)
    queues = np.array([0, 1, 5], dtype=np.uint64)
    sizes = rng.integers(0, 6, n_slots * 3)
    sizes[4] = 5000  # packet indexes past 4,096
    t0 = (1 << 24) - 1
    ids = np.arange(int(sizes.sum()))
    _order_batches(ids, sizes, t0, words, queues)
    for i, (k, e) in enumerate(zip(sizes.tolist(), np.cumsum(sizes).tolist())):
        h = _slot_hash(int(words[i % 3]), t0 + i // 3, int(queues[i % 3]))
        keys = [sim._mix(h ^ j) for j in range(k)]
        want = sorted(range(e - k, e), key=lambda p: keys[p - e + k])  # ties by position
        assert ids[e - k:e].tolist() == want == _ordered(list(range(e - k, e)), h), i


# chi-square quantiles at 0.999 for 1, 5 and 23 degrees of freedom
_CHI2_999 = {2: 10.828, 3: 20.515, 4: 49.728}


@pytest.mark.parametrize("k", [2, 3, 4])
def test_interleave_permutations_are_uniform(k):
    n_perms = math.factorial(k)
    n_batches = 1000 * n_perms  # 2 queues of a run, slots 17 onwards
    ids = np.tile(np.arange(k), n_batches)
    words = np.full(2, sim._interleave_word(4), np.uint64)
    _order_batches(ids, np.full(n_batches, k), 17, words, np.arange(2, dtype=np.uint64))
    code = ids.reshape(-1, k) @ (k ** np.arange(k))
    counts = np.unique(code, return_counts=True)[1]
    assert counts.size == n_perms
    chi2 = float(((counts - 1000.0) ** 2).sum() / 1000.0)
    assert chi2 < _CHI2_999[k], counts


def test_interleaving_opens_no_arrivals_stream(monkeypatch):
    opened = []

    def recording(seed, name):
        opened.append(name)
        return np.random.default_rng(stream_seed(seed, name))

    monkeypatch.setattr(sim, "_stream", recording)
    monkeypatch.setattr(lockstep, "_stream", recording)
    specs = [RunSpec(cfg=make_cfg(rows, M=M, r_max=r_max, beta=beta), policy=pol,
                     horizon=300, seed=50 + 7 * i)
             for i, (rows, pol, M, r_max, beta) in enumerate(_LOCKSTEP_CASES)]
    list(run_batch(specs))
    assert opened and set(opened) == {"channels"}
    cfg = make_cfg([[0.1, 0.2, 0.3]])
    pol = serve_if_on_policy(cfg, [[0.9, 0.8, 2.3]])
    for policy in ("qfc", pol, _Delegate(pol)):  # per-slot loop and block path
        opened.clear()
        run(RunSpec(cfg=cfg, policy=policy, horizon=300))
        assert set(opened) == {"channels", "scheduling"}
        opened.clear()
        run(RunSpec(cfg=cfg, policy=policy, horizon=300, arrival_mode="stochastic"))
        assert set(opened) == {"channels", "scheduling", "arrivals"}


# ----- saturated head-of-line process -----


def test_saturated_single_flow_marginal():
    cfg = single_queue_cfg([0.3])
    sat = run_saturated(cfg, [[1.0]], horizon=200_000, seed=7)
    assert sat.p_serviceable[0] == pytest.approx(0.7, abs=0.01)
    assert sat.p_hol[0] == (1.0,)


def test_saturated_two_flow_blocking_stats():
    cfg = single_queue_cfg([0.5, 0.0])
    sat = run_saturated(cfg, [[0.5, 0.5]], horizon=200_000, seed=7)
    assert sat.p_serviceable[0] == pytest.approx(2 / 3, abs=0.01)
    assert sat.p_blocked[0][0] == pytest.approx(1 / 3, abs=0.01)
    assert sat.p_blocked[0][1] == pytest.approx(0.0, abs=1e-12)
    assert sat.p_hol[0][0] == pytest.approx(2 / 3, abs=0.01)
    ss = saturated_steady_state(sat, 0)
    assert ss.p_serviceable == sat.p_serviceable[0]


def test_saturated_two_queue_joint_matches_product_form():
    cfg = make_cfg([[0.4, 0.1], [0.3]])
    lams = [[0.3, 0.3], [0.2]]
    mix = [[0.5, 0.5], [1.0]]
    sat = run_saturated(cfg, mix, horizon=300_000, seed=9)
    for s in range(1 << 2):
        for n in range(2):
            for k in range(cfg.n_flows(n)):
                want = joint_state_hol_prob(cfg, lams, s, n, k)
                assert sat.joint[s, n, k] == pytest.approx(want, abs=0.02)


def test_saturated_rejects_bad_mixes():
    cfg = make_cfg([[0.4, 0.1], [0.3]])
    with pytest.raises(ValueError, match="mix rows"):
        run_saturated(cfg, [[1.0, 0.0]], horizon=100)
    with pytest.raises(ValueError, match="one share per flow"):
        run_saturated(cfg, [[1.0], [1.0]], horizon=100)
    with pytest.raises(ValueError, match="nonnegative"):
        run_saturated(cfg, [[1.0, -1.0], [1.0]], horizon=100)
    with pytest.raises(ValueError, match="absorbing"):
        run_saturated(make_cfg([[1.0, 0.1]]), [[0.5, 0.5]], horizon=100)
    # the config is validated as `run` validates it
    for p_off in (1.5, -0.5, math.nan):
        with pytest.raises(ValueError, match=r"queues\[0\]\.flows\[0\]\.p_off: must be in \[0, 1\]"):
            run_saturated(make_cfg([[p_off, 0.1]]), [[0.5, 0.5]], horizon=100)
    # shares that are not finite, or whose sum is not, name their queue
    for bad in ([math.nan, 1.0], [math.inf, 1.0], [-math.inf, 1.0]):
        with pytest.raises(ValueError, match="queue 1: mix shares must be finite"):
            run_saturated(cfg, [[0.5, 0.5], bad[:1]], horizon=100)
        with pytest.raises(ValueError, match="queue 0: mix shares must be finite"):
            run_saturated(cfg, [bad, [1.0]], horizon=100)
    with pytest.raises(ValueError, match="queue 0: mix shares must have a finite sum"):
        run_saturated(cfg, [[1e308, 1e308], [1.0]], horizon=100)
    with pytest.raises(ValueError, match="queue 1: mix shares must have a finite sum"):
        run_saturated(cfg, [[0.5, 0.5], [0.0]], horizon=100)


# (p_off rows, HOL mix): one to five queues, zero shares on flows whose
# channel is always ON (p_off 0) or never ON (p_off 1), and queues blocked
# often enough that all-OFF and several-ON slots both occur
_SATURATED_CASES = [
    ([[0.3]], [[1.0]]),
    # lone queues whose HOL never changes: no event in any block
    ([[0.3, 0.6]], [[1.0, 1e-300]]),
    ([[0.3, 0.6]], [[0.0, 1.0]]),
    ([[0.0, 1.0, 0.6, 0.2]], [[0.0, 0.0, 0.7, 0.3]]),
    ([[0.4, 0.1], [0.3]], [[0.5, 0.5], [1.0]]),
    ([[0.8, 1.0], [0.0, 0.5, 0.9]], [[1.0, 0.0], [0.0, 0.4, 0.6]]),
    ([[0.2, 0.7], [0.6], [0.5, 1.0, 0.9]], [[0.3, 0.7], [1.0], [0.2, 0.0, 0.8]]),
    ([[0.9], [0.5, 0.0], [0.7, 0.3], [0.85]], [[1.0], [0.6, 0.0], [0.5, 0.5], [1.0]]),
    ([[0.6, 0.2], [0.9], [0.5], [0.3, 1.0, 0.8], [0.75]],
     [[0.5, 0.5], [1.0], [1.0], [0.3, 0.0, 0.7], [1.0]]),
    # a fixed queue (one flow ever at the head) between multi-flow queues
    ([[0.5, 0.1, 0.7], [0.2, 0.6], [0.4, 0.3]],
     [[0.3, 0.3, 0.4], [0.0, 1.0], [0.5, 0.5]]),
    # a positive share too small to open an interval: the queue is fixed
    ([[0.3, 0.6], [0.45, 0.2]], [[1.0, 1e-300], [0.6, 0.4]]),
    # fixed queues only
    ([[0.5], [0.3, 0.9], [0.7, 0.2]], [[1.0], [0.0, 1.0], [1.0, 1e-300]]),
    # every queue multi-flow, with no more HOL vectors (4 and 8) than one
    # block builds tables for
    ([[0.4, 0.1], [0.3, 0.7]], [[0.5, 0.5], [0.4, 0.6]]),
    ([[0.2, 0.6], [0.5, 0.1], [0.35, 0.8]], [[0.7, 0.3], [0.5, 0.5], [0.4, 0.6]]),
    # more HOL vectors than one block builds tables for, with and without a
    # fixed queue
    ([[0.3, 0.6, 0.1], [0.5, 0.2, 0.8], [0.4, 0.7, 0.0], [0.9, 0.35, 0.55]],
     [[0.3, 0.3, 0.4], [0.2, 0.5, 0.3], [0.4, 0.4, 0.2], [0.6, 0.2, 0.2]]),
    ([[0.3, 0.6, 0.1], [0.5, 0.2], [0.4, 0.7, 0.0], [0.8], [0.35, 0.55]],
     [[0.3, 0.3, 0.4], [0.5, 0.5], [0.4, 0.4, 0.2], [1.0], [0.6, 0.4]]),
]


@pytest.mark.parametrize("horizon", [1, 10, 4095, 4096, 4097, 3 * 4096 + 5])
def test_run_saturated_equals_reference_loop(horizon):
    for i, (rows, mix) in enumerate(_SATURATED_CASES):
        cfg = make_cfg(rows)
        for seed in (11 + i, 1_000 + 37 * i):
            got = run_saturated(cfg, mix, horizon, seed)
            want = run_saturated_reference(cfg, mix, horizon, seed)
            assert got.horizon == want.horizon
            assert got.p_serviceable == want.p_serviceable
            assert got.p_blocked == want.p_blocked
            assert got.p_hol == want.p_hol
            assert got.joint.shape == want.joint.shape
            assert np.array_equal(got.joint, want.joint)


def test_run_saturated_does_not_depend_on_the_table_cap(monkeypatch):
    # a cap of 1 takes every slot after a block's first HOL change one by
    # one, and a cap of 2 switches to that at the cap in most blocks
    for i, (rows, mix) in enumerate(_SATURATED_CASES):
        cfg = make_cfg(rows)
        for horizon in (10, 4097, 3 * 4096 + 5):
            want = run_saturated_reference(cfg, mix, horizon, 50 + i)
            for cap in (1, 2, 8):
                monkeypatch.setattr(sim, "_SATURATED_TABLES", cap)
                got = run_saturated(cfg, mix, horizon, 50 + i)
                assert np.array_equal(got.joint, want.joint), (i, horizon, cap)
                assert (got.p_serviceable, got.p_blocked, got.p_hol) == (
                    want.p_serviceable, want.p_blocked, want.p_hol)


def _saturated_digest(n_queues):
    """sha256 prefix over `run_saturated` outputs on two random networks of
    n_queues queues of 2-3 flows, one where every queue moves and one whose
    last queue is fixed, at horizons 4095-4097."""
    rng = np.random.default_rng(2000 + n_queues)
    h = hashlib.sha256()
    for fixed in (False, True):
        rows = [rng.uniform(0.0, 0.8, int(rng.integers(2, 4))).tolist()
                for _ in range(n_queues)]
        mix = [rng.uniform(0.2, 1.0, len(row)).tolist() for row in rows]
        if fixed:
            mix[-1] = [0.0] * (len(rows[-1]) - 1) + [1.0]
        for horizon in (4095, 4096, 4097):
            sat = run_saturated(make_cfg(rows), mix, horizon, seed=horizon + n_queues)
            h.update(repr((sat.p_serviceable, sat.p_blocked, sat.p_hol)).encode())
            h.update(sat.joint.tobytes())
    return h.hexdigest()[:16]


# pinned when each queue began to draw its HOL refills from its own stream;
# the one-queue digest is the one from before, as queue 0 reads "arrivals"
# as the shared draws did. The reference loop moves with the engine, so a
# change to the streams shows here
SATURATED_SHA = {
    1: "7b1dd877fb5d7883",
    2: "9d941f6efcea65dc",
    3: "a8977b11745e774e",
    4: "09dd8f0a409495ca",
    5: "df043ee51ef04f2d",
}


@pytest.mark.parametrize("n_queues", sorted(SATURATED_SHA))
def test_run_saturated_outputs_are_pinned(n_queues):
    assert _saturated_digest(n_queues) == SATURATED_SHA[n_queues]


def test_run_saturated_draws_refills_only_as_a_queue_departs(monkeypatch):
    """Over many blocks, a fixed queue draws one block for its initial HOL
    and a moving queue at most one block more than its departures, however
    often the other queues depart, so the unread draws stay under two blocks
    per queue."""
    drawn: dict[str, int] = {}
    stream = sim._stream

    class Counted:
        def __init__(self, seed, name):
            self.rng, self.name = stream(seed, name), name
            drawn[name] = 0

        def random(self, size=None):
            out = self.rng.random(size)
            drawn[self.name] += np.size(out)
            return out

    monkeypatch.setattr(sim, "_stream", Counted)
    # a fast mover, a fixed queue and a slow mover, as ON rates go
    rows = [[0.05, 0.1], [0.1], [0.9, 0.85]]
    horizon = 40 * 4096
    sat = run_saturated(make_cfg(rows), [[0.5, 0.5], [1.0], [0.5, 0.5]], horizon, seed=3)
    assert drawn["arrivals.1"] == 4096
    # a queue departs only in slots where it is ON
    slow_on = sat.p_serviceable[2] * horizon
    assert slow_on < 0.2 * horizon
    assert drawn["arrivals.2"] <= slow_on + 2 * 4096
    assert drawn["arrivals"] <= horizon + 2 * 4096


# ----- stability detector -----


def test_detector_flat_zero_is_stable():
    v = detect_stability(np.zeros(2_000))
    assert v.verdict == "stable" and v.slope == 0.0 and v.max_backlog == 0.0


def test_detector_steady_growth_is_unstable():
    v = detect_stability(0.05 * np.arange(2_000))
    assert v.verdict == "unstable"
    assert v.slope == pytest.approx(0.05, rel=1e-6)
    assert not v.stable


def test_detector_middling_slope_is_inconclusive():
    assert detect_stability(1e-3 * np.arange(2_000)).verdict == "inconclusive"


def test_detector_flat_but_huge_backlog_is_inconclusive():
    assert detect_stability(np.full(2_000, 2e4)).verdict == "inconclusive"


def test_detector_sums_per_queue_traces():
    two = np.column_stack([0.03 * np.arange(2_000), 0.03 * np.arange(2_000)])
    assert detect_stability(two).verdict == "unstable"


def test_detector_input_validation():
    with pytest.raises(ValueError, match="kept no backlog trace"):
        detect_stability(None)  # the q_trace of a lockstep result
    with pytest.raises(ValueError, match="at least 10"):
        detect_stability(np.zeros(5))
    with pytest.raises(ValueError, match="warmup"):
        detect_stability(np.zeros(100), warmup=100)
    with pytest.raises(ValueError, match="warmup"):  # one slot has no slope
        detect_stability(3 * np.arange(10), warmup=9)


def _int_trace(n, lo, hi, seed, queues=None):
    shape = n if queues is None else (n, queues)
    return np.random.default_rng(seed).integers(lo, hi, shape, dtype=np.int64).astype(np.int32)


@pytest.mark.parametrize("queues", [None, 2])
@pytest.mark.parametrize("n, warmup", [(4095, 0), (4096, 0), (4097, 0), (20_000, 3_000),
                                       (3 * 4096 + 5, 4095), (10, 9), (10, 8)])
def test_detector_slope_is_the_exact_slope_rounded_once(n, warmup, queues):
    # windows at the reduction's block size -1, +0, +1, across block edges,
    # and of 1 and 2 slots; 1-D and per-queue traces. One slot has no slope,
    # so that window is refused; 2 slots are the fewest a slope takes
    q = _int_trace(n, 0, 1000, n + warmup, queues)
    if n - warmup == 1:
        with pytest.raises(ValueError, match="warmup"):
            detect_stability(q, warmup=warmup)
        return
    got = detect_stability(q, warmup=warmup)
    assert got.slope == float(exact_slope(q, warmup))
    assert got.max_backlog == float(backlog_sums_reference(q, warmup)[2])
    if n - warmup == 2:
        assert got.slope == float(int(q[-1].sum()) - int(q[-2].sum()))


@pytest.mark.parametrize("queues", [None, 2])
def test_detector_is_exact_near_int32_limits(queues):
    # totals near 2**31 a queue (2**32 across two) over a long window: the
    # sum of t * q passes 2**63, and a float64 dot rounds it
    top = 2**31 - 1
    q = _int_trace(100_000, top - 50, top, 31, queues)
    q[::7] -= 10  # a sawtooth on the flat top
    got = detect_stability(q, warmup=5_000, backlog_cap=math.inf)
    want = exact_slope(q, 5_000)
    assert got.slope == float(want)
    assert backlog_sums_reference(q, 5_000)[1] > 2**63
    assert got.max_backlog == float(backlog_sums_reference(q, 5_000)[2])
    with pytest.raises(ValueError, match="below 2\\*\\*40"):
        detect_stability(np.full(100, 2**40, dtype=np.int64))


def test_detector_holds_one_block_at_a_time():
    import tracemalloc

    q = _int_trace(1_000_000, 0, 50_000, 5, 2)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        detect_stability(q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak  # the trace itself is 8 MB


def test_detector_slope_does_not_depend_on_blas_threads():
    import os
    import subprocess
    import sys

    code = ("import numpy as np; from wfifo.sim import detect_stability; "
            "q = np.random.default_rng(3).integers(0, 100, 200_000).cumsum() % 5000; "
            "print(detect_stability(q.astype(np.int32)).slope.hex())")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    slopes = set()
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=120)
        slopes.add(out.stdout.strip())
    assert len(slopes) == 1, slopes


@pytest.mark.parametrize("pool", [criterion02_runs, criterion04_runs])
def test_streamed_verdicts_equal_the_float_detector_on_the_criterion_pools(pool):
    # the criterion runs at a tenth of their horizon: every verdict equals
    # the float detector's on the run's trace, and its slope is within
    # 1e-15 packets per slot of the float one (the float detector's own
    # rounding is about n * 1e-16 of the backlog's scale over n slots)
    _, specs = pool(horizon=100_000)
    for spec in specs:
        m = run(spec)
        got, old = m.stability(), detect_stability_float(m.q_trace)
        assert got.verdict == old.verdict
        assert got.max_backlog == old.max_backlog
        assert abs(got.slope - old.slope) <= 1e-15, (got.slope, old.slope)
