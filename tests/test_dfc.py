import math

import numpy as np
import pytest

from helpers import dfc_gap_vs_oracle, make_cfg, objective_and_gradient, single_queue_cfg
from wfifo import ConfigError, SchedulingPolicy, check_inner_bound, solve_dfc
from wfifo.dfc import _weights
from wfifo.stability import inner_coefficients

# ----- solver on instances with known optima -----


def test_solve_two_flow_queue():
    # one queue, p_on = (0.9, 0.5): both log terms pull on the same scale, so
    # the whole ON slot goes to the queue and a = c(ON) = 1/2
    sol = solve_dfc(single_queue_cfg([0.1, 0.5], beta=1.0))
    assert sol.converged
    assert sol.kkt_residual <= 1e-6
    assert sol.a[0] == pytest.approx(0.5, abs=1e-9)
    assert sol.lambdas[0] == pytest.approx((0.45, 0.25), abs=1e-9)
    assert sol.objective == pytest.approx(math.log(0.45) + math.log(0.25), abs=1e-8)


def test_solve_symmetric_two_queue_split():
    sol = solve_dfc(make_cfg([[0.0], [0.0]], beta=1.0))
    assert sol.converged
    assert sol.a == pytest.approx((0.5, 0.5), abs=1e-7)
    assert sol.lambdas[0][0] == pytest.approx(0.5, abs=1e-7)
    assert sol.lambdas[1][0] == pytest.approx(0.5, abs=1e-7)
    assert sol.objective == pytest.approx(2 * math.log(0.5), abs=1e-7)


def test_solve_beta_two_reweights_toward_good_channels():
    sol = solve_dfc(single_queue_cfg([0.1, 0.5], beta=2.0))
    assert sol.converged
    assert sol.a[0] == pytest.approx(5.0 / 7.0, abs=1e-9)
    assert sol.lambdas[0][0] == pytest.approx(0.81 * 5 / 7, abs=1e-9)
    assert sol.lambdas[0][1] == pytest.approx(0.25 * 5 / 7, abs=1e-9)


def test_solve_four_flow_two_queue_instance():
    # symmetric queues, p_on = (0.9, 0.5) each: the contended state splits
    # evenly and each queue adds its solo state, a = 0.35/2 + 0.15
    cfg = make_cfg([[0.1, 0.5], [0.1, 0.5]], beta=1.0)
    sol = solve_dfc(cfg)
    assert sol.converged
    assert sol.a == pytest.approx((0.325, 0.325), rel=1e-6)
    assert sol.lambdas[0] == pytest.approx((0.2925, 0.1625), rel=1e-6)


def test_solve_with_dead_companion_queue():
    sol = solve_dfc(make_cfg([[1.0], [0.1]], beta=1.0))
    assert sol.converged
    assert sol.a[0] == 0.0
    assert sol.lambdas[0] == (0.0,)
    assert sol.lambdas[1][0] == pytest.approx(0.9, abs=1e-7)


def test_solve_with_dead_flow_in_live_queue():
    # the p_on = 0 flow admits nothing; the live flow gets the whole channel
    sol = solve_dfc(single_queue_cfg([0.1, 1.0], beta=2.0))
    assert sol.converged
    assert sol.lambdas[0][1] == 0.0
    assert sol.lambdas[0][0] == pytest.approx(0.9, abs=1e-7)


def test_solver_reports_nonconvergence_at_iteration_cap():
    sol = solve_dfc(make_cfg([[0.1, 0.5], [0.3, 0.2]], beta=2.0), max_iter=1)
    assert not sol.converged
    assert sol.iterations == 1
    assert np.all(np.isfinite(sol.tau))


def test_weight_that_overflows_the_planner_is_a_config_error():
    # weight * K_n passes validation, but w_n / a_n overflowed once a_n < 1:
    # the planner ran 100,000 NaN iterations and returned an all-zero plan
    for rows in ([[0.5], [0.2], [0.3]], [[0.95]]):
        cfg = make_cfg(rows, M=1.0)
        cfg.utility.weight = 1e308
        assert cfg.validate() == []
        with pytest.raises(ConfigError, match=r"^utility.weight: 1e\+308 is too large"):
            solve_dfc(cfg)
    cfg = make_cfg([[0.5]], M=1.0)
    cfg.utility.weight = 1e290
    assert solve_dfc(cfg).objective == pytest.approx(1e290 * math.log(0.5))


def test_objective_finite_at_huge_beta_with_sure_on_flows():
    # beta * weight overflows, but every log p_on is 0: the constant term was
    # inf * 0 = NaN, written to the plan file as the invalid JSON token NaN
    cfg = make_cfg([[0.0], [0.0]], beta=1e308)
    cfg.utility.weight = 10.0
    sol = solve_dfc(cfg)
    assert sol.a == pytest.approx((0.5, 0.5), abs=1e-7)
    assert sol.objective == pytest.approx(20 * math.log(0.5))


def _linearization_gap(cfg, tau):
    """max over grant tables d of <g, d - tau>, recomputed from the table."""
    c = inner_coefficients(cfg)
    w = _weights(cfg)
    a = np.maximum(np.einsum("ns,sn->n", c, tau), 1e-12)
    g = np.einsum("n,ns->sn", w / a, c)
    return float(np.maximum(g.max(axis=1), 0.0).sum() - (g * tau).sum())


def test_reported_gap_is_the_gap_of_the_returned_table():
    rng = np.random.default_rng(41)
    solved = 0
    for _ in range(80):
        n_queues = int(rng.integers(1, 7))
        rows = []
        for _ in range(n_queues):
            k = int(rng.integers(1, 4))
            if rng.random() < 0.15:  # a dead queue
                rows.append([1.0] * k)
            else:
                rows.append(rng.choice([0.0, 1.0, *rng.uniform(0.0, 0.9, 3)], k).tolist())
        cfg = make_cfg(rows, beta=float(rng.uniform(1.0, 3.0)))
        if all(p == 1.0 for row in rows for p in row):
            with pytest.raises(ValueError, match="p_off = 1"):
                solve_dfc(cfg)
            continue
        for max_iter in (1, 2, 5, 100_000):
            sol = solve_dfc(cfg, max_iter=max_iter)
            assert sol.iterations <= max_iter
            gap = _linearization_gap(cfg, sol.tau)
            assert sol.kkt_residual == pytest.approx(gap, rel=1e-9, abs=1e-12)
            if sol.converged:
                assert gap <= 1e-6 + 1e-12
        assert sol.converged
        solved += 1
    assert solved >= 60


@pytest.mark.parametrize("n_queues", [12, 16])
def test_heterogeneous_networks_converge_in_few_iterations(n_queues):
    # up to the config cap of 16 queues; projected gradient needed 10,768
    # iterations on such an instance at N = 12
    rng = np.random.default_rng([53, n_queues])
    rows = [rng.uniform(0.1, 0.6, int(rng.integers(1, 3))).tolist()
            for _ in range(n_queues)]
    sol = solve_dfc(make_cfg(rows, beta=(1.0, 1.5, 2.0)[n_queues % 3]))
    assert sol.converged and sol.kkt_residual <= 1e-6
    assert sol.iterations <= 100
    assert np.all(sol.tau >= 0.0)
    assert np.all(sol.tau.sum(axis=1) <= 1.0 + 1e-12)


def test_solution_invariants_on_random_instances():
    rng = np.random.default_rng(23)
    for _ in range(15):
        n_queues = int(rng.integers(1, 3))
        rows = [
            rng.uniform(0.0, 0.9, size=int(rng.integers(1, 4))).tolist()
            for _ in range(n_queues)
        ]
        cfg = make_cfg(rows, beta=float(rng.uniform(1.0, 3.0)))
        sol = solve_dfc(cfg)
        assert sol.converged
        # rates tied to the scales exactly
        for n in range(n_queues):
            for k, p in enumerate(cfg.p_on_row(n)):
                assert sol.lambdas[n][k] == pytest.approx(
                    sol.a[n] * p**cfg.beta, abs=1e-12
                )
        # feasible within the parametric region, and the scale constraint is
        # active wherever the queue carries traffic
        margin = check_inner_bound(cfg, list(sol.a), SchedulingPolicy(sol.tau))
        assert margin.min_slack >= -1e-7
        for n in range(n_queues):
            if any(l > 0 for l in sol.lambdas[n]):
                assert margin.slacks[f"scale[{n}]"] == pytest.approx(0.0, abs=1e-6)


def test_objective_never_below_starting_point():
    rng = np.random.default_rng(29)
    for _ in range(10):
        rows = [rng.uniform(0.0, 0.9, size=2).tolist() for _ in range(2)]
        cfg = make_cfg(rows, beta=float(rng.uniform(1.0, 2.5)))
        start, _ = objective_and_gradient(cfg, np.full((4, 2), 0.5))
        sol = solve_dfc(cfg)
        assert sol.objective >= start - 1e-9


def test_larger_beta_tilts_rate_ratio_toward_better_channel():
    # p_on 0.9 vs 0.5: the rate ratio lam_good/lam_bad must grow with beta
    prev = 0.0
    for beta in (1.0, 1.5, 2.0, 3.0):
        sol = solve_dfc(single_queue_cfg([0.1, 0.5], beta=beta))
        ratio = sol.lambdas[0][0] / sol.lambdas[0][1]
        assert ratio > prev
        prev = ratio


def test_gradient_matches_central_differences():
    rng = np.random.default_rng(31)
    h = 1e-6
    for _ in range(10):
        rows = [
            rng.uniform(0.0, 0.9, size=int(rng.integers(1, 4))).tolist()
            for _ in range(2)
        ]
        cfg = make_cfg(rows, beta=float(rng.uniform(1.0, 3.0)))
        tau = rng.uniform(0.05, 0.45, size=(4, 2))  # interior of every simplex
        _, grad = objective_and_gradient(cfg, tau)
        for s in range(4):
            for n in range(2):
                bump = np.zeros_like(tau)
                bump[s, n] = h
                up, _ = objective_and_gradient(cfg, tau + bump)
                dn, _ = objective_and_gradient(cfg, tau - bump)
                fd = (up - dn) / (2 * h)
                assert fd == pytest.approx(grad[s, n], rel=1e-4, abs=1e-8)


# ----- grid-search oracle -----


def test_gap_on_known_instances():
    for cfg in (
        single_queue_cfg([0.1, 0.5], beta=1.0),
        make_cfg([[0.0], [0.0]], beta=1.0),
        single_queue_cfg([0.1, 0.5], beta=2.0),
        make_cfg([[0.1, 0.5], [0.1, 0.5]], beta=1.0),
    ):
        assert abs(dfc_gap_vs_oracle(cfg, grid_step=0.01)) <= 1e-3


def test_gap_zero_when_optimum_is_a_vertex():
    # a single queue always grants its ON state fully; the grid contains
    # that vertex, so solver and oracle coincide
    assert dfc_gap_vs_oracle(single_queue_cfg([0.0, 0.0])) == pytest.approx(0.0, abs=1e-9)


def test_gap_bounded_by_grid_resolution_on_random_instances():
    rng = np.random.default_rng(37)
    for _ in range(8):
        rows = [
            rng.uniform(0.0, 0.85, size=int(rng.integers(1, 3))).tolist()
            for _ in range(2)
        ]
        cfg = make_cfg(rows, beta=float(rng.uniform(1.0, 2.0)))
        step = 0.05
        assert abs(dfc_gap_vs_oracle(cfg, grid_step=step)) <= 2 * step


def test_gap_oracle_rejects_large_networks():
    cfg = make_cfg([[0.1], [0.1], [0.1]])
    with pytest.raises(ValueError):
        dfc_gap_vs_oracle(cfg)
