import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import dfc_gap_vs_oracle, make_cfg, single_queue_cfg
from wfifo import (
    SchedulingPolicy,
    check_inner_bound,
    project_simplex,
    solve_dfc,
)
from wfifo.dfc import objective_and_gradient

vectors = st.lists(
    st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
    min_size=1,
    max_size=6,
).map(np.array)


def test_project_simplex_interior_point_unchanged():
    assert project_simplex(np.array([0.2, 0.3])).tolist() == [0.2, 0.3]


def test_project_simplex_vertex_clamp():
    assert project_simplex(np.array([2.0, 0.0])).tolist() == [1.0, 0.0]


def test_project_simplex_negative_entries_clip():
    assert project_simplex(np.array([-1.0, 0.5])).tolist() == [0.0, 0.5]


def test_project_simplex_oversubscribed_point():
    # (0.8, 0.8) is 0.6 beyond the face x+y=1; the projection splits the
    # excess evenly. Confirmed against a brute-force scan of the simplex.
    got = project_simplex(np.array([0.8, 0.8]))
    assert got == pytest.approx([0.5, 0.5], abs=1e-12)

    xs = np.linspace(0.0, 1.0, 1001)
    gx, gy = np.meshgrid(xs, xs)
    ok = gx + gy <= 1.0 + 1e-12
    d2 = (gx - 0.8) ** 2 + (gy - 0.8) ** 2
    d2[~ok] = np.inf
    i, j = np.unravel_index(np.argmin(d2), d2.shape)
    assert (gx[i, j], gy[i, j]) == pytest.approx((0.5, 0.5), abs=2e-3)


@given(vectors)
def test_project_simplex_idempotent_and_feasible(v):
    x = project_simplex(v)
    assert np.all(x >= 0.0)
    assert float(x.sum()) <= 1.0 + 1e-9
    assert project_simplex(x) == pytest.approx(x, abs=1e-12)


@given(vectors, st.integers(min_value=0, max_value=2**31 - 1))
def test_project_simplex_is_nearest_feasible_point(v, seed):
    x = project_simplex(v)
    rng = np.random.default_rng(seed)
    for _ in range(20):
        w = rng.dirichlet(np.ones(len(v))) * rng.uniform(0.0, 1.0)
        assert np.sum((v - x) ** 2) <= np.sum((v - w) ** 2) + 1e-9


def test_batched_projection_equals_row_by_row():
    rng = np.random.default_rng(47)
    for _ in range(300):
        rows, k = int(rng.integers(1, 40)), int(rng.integers(1, 12))
        kind = rng.integers(0, 3)
        if kind == 0:  # inside the set
            v = rng.dirichlet(np.ones(k + 1), size=rows)[:, :k]
        elif kind == 1:  # outside, nonnegative
            v = rng.uniform(0.0, 2.0, size=(rows, k))
        else:  # mixed, with negative entries and rows of either kind
            v = rng.uniform(-1.0, 1.5, size=(rows, k)) * rng.uniform(0.0, 2.0, (rows, 1))
        got = project_simplex(v)
        assert got.shape == v.shape
        assert np.array_equal(got, np.stack([project_simplex(r) for r in v]))
        # a transposed view holds the same rows in another memory order
        assert np.array_equal(project_simplex(np.asfortranarray(v)), got)


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
