"""Release gate for the package.

Eleven numbered checks, one test each, run at full budgets: closed-form
head-of-line statistics against long saturated runs, stability boundary
classification, the planner against exhaustive search and analytic optima,
convergence of the online controller to the planner's operating point, and
the bundled figure recipes' headline behaviors. Under `pytest -v` each
check reports as a single pass/fail line.

This module is the slow part of the suite (several minutes); everything
fine-grained lives in the per-module test files.
"""

import math
import time
from types import SimpleNamespace

import numpy as np
import pytest

from helpers import (
    criterion02_runs,
    criterion04_runs,
    dfc_gap_vs_oracle,
    make_cfg,
    objective_and_gradient,
    single_queue_cfg,
)
from wfifo import RunSpec, SchedulingPolicy, run, run_batch
from wfifo.cli import _fig6
from wfifo.dfc import solve_dfc
from wfifo.markov import joint_state_hol_prob, single_queue_steady_state
from wfifo.policies import Policy
from wfifo.sim import run_saturated
from wfifo.stability import inner_coefficients

FIG7A_ROWS = [[0.1, 0.5], [0.1, 0.5]]


def test_criterion_01_saturated_runs_match_closed_forms():
    rng = np.random.default_rng(20260819)
    t0 = time.monotonic()
    for _ in range(20):
        K = int(rng.integers(1, 6))
        p_off = rng.uniform(0.0, 0.9, K).tolist()
        mix = rng.uniform(0.2, 1.0, K).tolist()
        cfg = single_queue_cfg(p_off)
        sim = run_saturated(cfg, [mix], horizon=1_000_000,
                            seed=int(rng.integers(2**31)))
        ref = single_queue_steady_state(mix, p_off)
        assert sim.p_serviceable[0] == pytest.approx(ref.p_serviceable, abs=0.01)
        for k in range(K):
            assert sim.p_blocked[0][k] == pytest.approx(ref.p_blocked[k], abs=0.01)
            assert sim.p_hol[0][k] == pytest.approx(ref.p_hol[k], abs=0.01)
    assert time.monotonic() - t0 < 120.0


def test_criterion_02_boundary_classification_single_queue():
    labels, specs = criterion02_runs(horizon=1_000_000)
    wrong = []
    for (i, scale, expected), m in zip(labels, run_batch(specs)):
        got = m.stability()
        if got.verdict != expected:
            wrong.append((i, scale, got.verdict, got.slope))
    assert not wrong, f"misclassified boundary instances: {wrong}"


def test_criterion_03_two_queue_joint_distribution():
    rng = np.random.default_rng(33)
    for i in range(5):
        sizes = rng.integers(1, 4, size=2)
        p_rows = [rng.uniform(0.0, 0.85, int(K)).tolist() for K in sizes]
        mix = [rng.uniform(0.2, 1.0, int(K)).tolist() for K in sizes]
        cfg = make_cfg(p_rows)
        sim = run_saturated(cfg, mix, horizon=1_000_000, seed=300 + i)
        for s in range(4):
            for n in range(2):
                for k in range(int(sizes[n])):
                    want = joint_state_hol_prob(cfg, mix, s, n, k)
                    assert sim.joint[s, n, k] == pytest.approx(want, abs=0.02)


def test_criterion_04_two_queue_boundary_points():
    labels, specs = criterion04_runs(horizon=1_000_000)
    wrong = []
    for (i, expected), m in zip(labels, run_batch(specs)):
        got = m.stability()
        if got.verdict != expected:
            wrong.append((i, expected, got.verdict, got.slope))
    assert not wrong, f"misclassified boundary points: {wrong}"


def test_criterion_05_planner_matches_grid_and_analytic_optima():
    t0 = time.monotonic()
    rng = np.random.default_rng(55)
    instances = [
        make_cfg([[0.1, 0.5]]),
        make_cfg([[0.1, 0.5]], beta=2.0),
        make_cfg([[0.2, 0.4, 0.6]]),
        make_cfg([[0.0], [0.0]]),
        make_cfg(FIG7A_ROWS),
        make_cfg(FIG7A_ROWS, beta=2.0),
        make_cfg([[0.3, 0.6], [0.2]], beta=1.5),
    ]
    for _ in range(3):
        n_queues = int(rng.integers(1, 3))
        rows = [rng.uniform(0.0, 0.9, int(rng.integers(1, 3))).tolist()
                for _ in range(n_queues)]
        instances.append(make_cfg(rows, beta=float(rng.uniform(1.0, 3.0))))
    for cfg in instances:
        gap = dfc_gap_vs_oracle(cfg, grid_step=0.01)
        assert gap >= -1e-3, f"planner trails the 0.01 grid by {-gap}"

    # beta = 1 splits the useful rate evenly across flows
    sol = solve_dfc(make_cfg([[0.2, 0.4, 0.6]]))
    for k, p_on in enumerate((0.8, 0.6, 0.4)):
        assert sol.lambdas[0][k] == pytest.approx(p_on / 3.0, abs=1e-6)
    # beta = 2 weights each flow by its channel quality
    sol = solve_dfc(make_cfg([[0.1, 0.5]], beta=2.0))
    assert sol.lambdas[0][0] == pytest.approx(0.81 / 1.4, abs=1e-6)
    assert sol.lambdas[0][1] == pytest.approx(0.25 / 1.4, abs=1e-6)
    assert time.monotonic() - t0 < 60.0


def test_criterion_06_controller_converges_to_planner_point():
    gaps = {}
    for rows, seed, label in ((([[0.1, 0.1]]), 6, "single"),
                              ((FIG7A_ROWS), 7, "pair")):
        cfg = make_cfg(rows, M=1000.0)
        sol = solve_dfc(cfg)
        m = run(RunSpec(cfg=cfg, policy="qfc", horizon=1_000_000, seed=seed))
        for n, row in enumerate(sol.lambdas):
            for k, opt in enumerate(row):
                got = m.admitted_rate[n][k]
                assert got == pytest.approx(opt, rel=0.05), (label, n, k)
        # the controller parks a backlog proportional to M by design, so
        # the boundedness cap scales with M instead of the default
        flows = sum(cfg.n_flows(n) for n in range(cfg.n_queues))
        cap = max(1e4, 4.0 * cfg.M * flows)
        verdict = m.stability(backlog_cap=cap)
        assert verdict.verdict == "stable", (label, verdict)
        if label == "single":
            gaps[1000] = abs(m.utility - sol.objective)

    for M in (10.0, 100.0):
        cfg = make_cfg([[0.1, 0.1]], M=M)
        m = run(RunSpec(cfg=cfg, policy="qfc", horizon=1_000_000, seed=6))
        gaps[int(M)] = abs(m.utility - solve_dfc(cfg).objective)
    assert gaps[10] >= gaps[100] >= gaps[1000], gaps


def test_criterion_07_good_channel_rate_invariant_to_partner():
    # one queue, two flows: however bad flow 2's channel gets, flow 1's
    # optimal rate stays p_on_1 / 2, and the controller holds it there
    p2s = [round(0.1 * i, 1) for i in range(1, 10)]
    specs = [RunSpec(cfg=make_cfg([[0.1, p2]], M=100.0), policy="qfc",
                     horizon=300_000, seed=70) for p2 in p2s]
    for p2, m in zip(p2s, run_batch(specs)):
        assert m.admitted_rate[0][0] == pytest.approx(0.45, abs=0.01), p2


def test_criterion_08_rate_ratio_grows_with_flow_count():
    args = SimpleNamespace(seeds=20, horizon=100_000, seed=0)
    columns, rows, _ = _fig6(args)
    ratios = [row[columns.index("ratio_qfc_mw")] for row in rows]
    assert [row[0] for row in rows] == [2, 4, 6, 8, 10]
    for lo, hi in zip(ratios, ratios[1:]):
        assert hi >= lo, ratios
    assert ratios[-1] >= 1.5, ratios


def test_criterion_09_dead_flow_starves_maxweight_only():
    cfg = make_cfg([[0.1, 1.0], [0.1, 1.0]], beta=2.0, M=100.0)
    qfc = run(RunSpec(cfg=cfg, policy="qfc", horizon=500_000, seed=90))
    mw = run(RunSpec(cfg=cfg, policy="maxweight", horizon=500_000, seed=90))
    assert qfc.total_served_rate() >= 0.8
    assert mw.total_served_rate() <= 0.1


def test_criterion_10_fairness_shifts_as_partner_flow_degrades():
    qfc_m1, qfc_m2, mw_m1 = [], [], []
    batch = run_batch([RunSpec(cfg=make_cfg([[0.0, 0.0], [0.0, pm2]], beta=2.0, M=100.0),
                               policy=p, horizon=500_000, seed=10)
                       for pm2 in (0.0, 0.2, 0.4, 0.6, 0.8, 1.0) for p in ("qfc", "maxweight")])
    for q, w in zip(batch, batch):  # each point's qfc and max-weight run
        qfc_m1.append(q.served_rate[1][0])
        qfc_m2.append(q.served_rate[1][1])
        mw_m1.append(w.served_rate[1][0])
    tol = 0.01
    for lo, hi in zip(qfc_m1, qfc_m1[1:]):
        assert hi >= lo - tol, qfc_m1
    for hi, lo in zip(qfc_m2, qfc_m2[1:]):
        assert lo <= hi + tol, qfc_m2
    for hi, lo in zip(mw_m1, mw_m1[1:]):
        assert lo <= hi + tol, mw_m1


def test_criterion_11_property_suites():
    # conservation, determinism, replay, FIFO order on one traced pair
    cfg = make_cfg([[0.2, 0.5], [0.3]], M=50.0)
    spec = RunSpec(cfg=cfg, policy="qfc", horizon=20_000, seed=4,
                   record_trace=True)
    a, b = run(spec), run(spec)
    assert a.admitted_packets == b.admitted_packets
    assert np.array_equal(a.q_trace, b.q_trace)
    for n, queue in enumerate(cfg.queues):
        for k in range(len(queue.flows)):
            assert (a.admitted_packets[n][k] - a.served_packets[n][k]
                    == a.final_backlog_flow[n][k])
        dep = a.trace["departure_order"][n]
        assert dep == a.trace["arrival_order"][n][:len(dep)]
    arrivals = a.trace["arrivals_by_slot"]
    served = np.zeros_like(arrivals)
    by_slot = a.trace["served_by_slot"]
    for n in range(cfg.n_queues):
        served[by_slot == n, n] = 1
    assert np.array_equal(a.q_trace[1:], (a.q_trace + arrivals - served)[:-1])

    # a grant to a blocked queue trips the head-of-line assertion
    class Rogue(Policy):
        name = "rogue"

        def admission(self, q_totals, q_flows):
            return [[1.0]]

        def schedule(self, q_totals, serviceable, state_bits, u):
            return 0 if q_totals[0] > 0 else None

    with pytest.raises(RuntimeError, match="head-of-line channel is not ON"):
        run(RunSpec(cfg=single_queue_cfg([1.0]), policy=Rogue(), horizon=100,
                    seed=0))

    # every planner iterate is a grant table: a state some queue can use
    # grants the whole slot, a state no queue can use grants nothing
    for rows in ([[0.2, 0.6], [0.4]], [[0.1], [1.0, 1.0], [0.0, 0.5]]):
        cfg = make_cfg(rows, beta=1.5)
        usable = (inner_coefficients(cfg) > 0).any(axis=0)
        for k in range(1, 6):
            tau = solve_dfc(cfg, max_iter=k).tau
            SchedulingPolicy(tau)
            assert np.allclose(tau.sum(axis=1), np.where(usable, 1.0, 0.0),
                               rtol=0.0, atol=1e-12)

    # gradient agrees with central differences
    cfg = make_cfg([[0.2, 0.6], [0.4]], beta=1.5)
    tau = np.array([[0.0, 0.0], [0.9, 0.0], [0.0, 0.8], [0.4, 0.5]])
    _, grad = objective_and_gradient(cfg, tau)
    h = 1e-6
    for s, n in ((1, 0), (2, 1), (3, 0), (3, 1)):
        up, dn = tau.copy(), tau.copy()
        up[s, n] += h
        dn[s, n] -= h
        fd = (objective_and_gradient(cfg, up)[0]
              - objective_and_gradient(cfg, dn)[0]) / (2 * h)
        assert grad[s, n] == pytest.approx(fd, rel=1e-4, abs=1e-8)
