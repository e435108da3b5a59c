import math

import numpy as np
import pytest

from helpers import make_cfg, single_queue_cfg
from wfifo import (
    SchedulingPolicy,
    best_policy_search,
    check_inner_bound,
    check_service_region,
    inner_coefficient,
    service_bound,
    single_queue_margin,
    sweep_two_queue_boundary,
)
from wfifo.stability import Margin, inner_coefficients

SERVE_WHEN_ON_1Q = SchedulingPolicy(np.array([[0.0], [1.0]]))


def test_margin_tolerance():
    assert Margin({"x": -1e-10}).feasible
    assert not Margin({"x": -1e-8}).feasible
    assert Margin({}).min_slack == math.inf


def test_single_queue_boundary_has_zero_slack():
    m = single_queue_margin([0.45, 0.45], [0.1, 0.1])
    assert m.slacks["hol_load"] == pytest.approx(0.0, abs=1e-12)
    assert m.feasible


def test_single_queue_no_traffic():
    m = single_queue_margin([0.0, 0.0], [0.1, 0.1])
    assert m.slacks["hol_load"] == 1.0
    assert m.feasible


def test_single_queue_overload():
    m = single_queue_margin([0.5, 0.5], [0.1, 0.1])
    assert m.slacks["hol_load"] == pytest.approx(-1.0 / 9.0)
    assert not m.feasible


def test_single_queue_dead_loaded_channel():
    m = single_queue_margin([0.1], [1.0])
    assert m.slacks["hol_load"] == -math.inf
    assert not m.feasible


def test_single_queue_margin_input_checks():
    with pytest.raises(ValueError, match=">= 0"):
        single_queue_margin([-0.1], [0.5])
    with pytest.raises(ValueError, match="p_off"):
        single_queue_margin([0.1], [1.5])
    with pytest.raises(ValueError, match="length"):
        single_queue_margin([0.1], [0.5, 0.5])


def test_service_bound_single_queue_reduction():
    # with the whole slot granted on ON, the bound is lam_k / sum(lam/p_on);
    # on the load boundary that is exactly lam_k
    cfg = single_queue_cfg([0.5, 0.0])
    lams = [[0.25, 0.5]]  # load = 0.25/0.5 + 0.5/1.0 = 1
    for k in (0, 1):
        b = service_bound(cfg, lams, SERVE_WHEN_ON_1Q, 0, k)
        assert b == pytest.approx(lams[0][k])


def test_service_bound_degenerate_inputs():
    cfg = single_queue_cfg([0.5, 0.0])
    assert service_bound(cfg, [[0.0, 0.5]], SERVE_WHEN_ON_1Q, 0, 0) == 0.0
    idle = SchedulingPolicy(np.zeros((2, 1)))
    assert service_bound(cfg, [[0.25, 0.5]], idle, 0, 0) == 0.0


def test_service_bound_shrinks_as_own_channel_worsens():
    lams = [[0.2, 0.2]]
    prev = math.inf
    for p in (0.0, 0.3, 0.6, 0.9):
        b = service_bound(single_queue_cfg([p, 0.1]), lams, SERVE_WHEN_ON_1Q, 0, 0)
        assert b <= prev
        prev = b


def test_two_queue_three_flow_instance():
    # queue n: p_on=(0.4, 0.9); queue m: p_on=0.3. At lam_n=(0.2, 0.2) the
    # residual capacity for queue m works out to about 0.288, so 0.2 fits
    # and 0.3 does not, under any stationary scheduler.
    cfg = make_cfg([[0.6, 0.1], [0.7]])
    _, margin = best_policy_search(cfg, [[0.2, 0.2], [0.2]])
    assert margin.feasible
    _, margin = best_policy_search(cfg, [[0.2, 0.2], [0.3]])
    assert not margin.feasible


def test_all_zero_rates_feasible():
    cfg = make_cfg([[0.6, 0.1], [0.7]])
    margin = check_service_region(cfg, [[0.0, 0.0], [0.0]], SchedulingPolicy.uniform(2))
    assert margin.feasible
    assert all(v == 0.0 for k, v in margin.slacks.items() if k.startswith("rate"))


def test_grant_sum_slack_reports_idle_mass():
    cfg = make_cfg([[0.5]])
    half = SchedulingPolicy(np.array([[0.0], [0.5]]))
    margin = check_service_region(cfg, [[0.1]], half)
    assert margin.slacks["grant_sum[1]"] == pytest.approx(0.5)


def test_region_agrees_with_single_queue_margin():
    # single queue granted the slot whenever ON: the exact region check and
    # the closed-form load condition must agree on feasibility
    rng = np.random.default_rng(7)
    for _ in range(1000):
        k = int(rng.integers(1, 6))
        p_off = rng.uniform(0.0, 0.9, size=k)
        lam = rng.uniform(0.05, 1.0, size=k)
        load = float(np.sum(lam / (1.0 - p_off)))
        lam *= rng.uniform(0.5, 1.5) / load  # place load anywhere around 1
        cfg = single_queue_cfg(p_off.tolist())
        region = check_service_region(cfg, [lam.tolist()], SERVE_WHEN_ON_1Q)
        margin = single_queue_margin(lam.tolist(), p_off.tolist())
        assert region.feasible == margin.feasible


def test_single_queue_margin_monotone_in_p_off():
    rng = np.random.default_rng(3)
    for _ in range(200):
        k = int(rng.integers(1, 5))
        p_off = rng.uniform(0.0, 0.8, size=k).tolist()
        lam = rng.uniform(0.01, 0.3, size=k).tolist()
        base = single_queue_margin(lam, p_off).slacks["hol_load"]
        j = int(rng.integers(k))
        p_off[j] += rng.uniform(0.0, 0.9 - p_off[j])
        assert single_queue_margin(lam, p_off).slacks["hol_load"] <= base + 1e-12


# ----- parametric inner region -----


def test_inner_coefficient_single_queue():
    cfg = single_queue_cfg([0.1, 0.5], beta=1.0)
    assert inner_coefficient(cfg, 0, 1) == pytest.approx(0.5)
    assert inner_coefficient(cfg, 0, 0) == 0.0


def test_inner_coefficient_companion_state_weights():
    # queue 0 has a single always-ON flow, so c_0(state) is exactly the state
    # weight of queue 1 (p_on = 0.9, 0.5): 0.7 when ON, 0.3 when OFF
    cfg = make_cfg([[0.0], [0.1, 0.5]], beta=1.0)
    assert inner_coefficient(cfg, 0, 0b11) == pytest.approx(0.7)
    assert inner_coefficient(cfg, 0, 0b01) == pytest.approx(0.3)


def test_companion_weights_sum_to_one_at_beta_one():
    rng = np.random.default_rng(11)
    for _ in range(50):
        k = int(rng.integers(1, 4))
        p_off = rng.uniform(0.0, 0.95, size=k).tolist()
        cfg = make_cfg([[0.0], p_off], beta=1.0)
        pair = inner_coefficient(cfg, 0, 0b11) + inner_coefficient(cfg, 0, 0b01)
        assert pair == pytest.approx(1.0, abs=1e-12)


def test_inner_coefficient_dead_queue_raises():
    cfg = make_cfg([[1.0]])
    with pytest.raises(ValueError, match="dead queue"):
        inner_coefficient(cfg, 0, 1)


def _random_inner_cfg(rng):
    """Random config with sure-ON and sure-OFF flows and whole dead queues."""
    n_queues = int(rng.integers(1, 8))
    rows = []
    for _ in range(n_queues):
        k = int(rng.integers(1, 4))
        if rng.random() < 0.15:
            rows.append([1.0] * k)
        else:
            rows.append(rng.choice([0.0, 1.0, *rng.uniform(0.0, 0.95, 4)], size=k).tolist())
    return make_cfg(rows, beta=float(rng.uniform(1.0, 3.0)))


def _is_dead(cfg, n):
    return all(p <= 0.0 for p in cfg.p_on_row(n))


def test_coefficient_table_equals_per_state_coefficients():
    rng = np.random.default_rng(41)
    dead_rows = 0
    for _ in range(250):
        cfg = _random_inner_cfg(rng)
        table = inner_coefficients(cfg)
        assert table.shape == (cfg.n_queues, 1 << cfg.n_queues)
        for n in range(cfg.n_queues):
            if _is_dead(cfg, n):
                dead_rows += 1
                assert np.all(table[n] == 0.0)
                continue
            for s in range(1 << cfg.n_queues):
                assert table[n, s] == inner_coefficient(cfg, n, s)
    assert dead_rows > 0


def _reference_scale_slack(cfg, a, pol, n):
    """Per-state fsum over the scalar coefficients."""
    if _is_dead(cfg, n):
        return 0.0 if a[n] == 0.0 else -math.inf
    cap = math.fsum(
        inner_coefficient(cfg, n, s) * pol.prob(s, n)
        for s in range(1 << cfg.n_queues)
    )
    return cap - a[n]


def test_inner_bound_slacks_equal_per_state_fsum():
    rng = np.random.default_rng(43)
    for _ in range(200):
        cfg = _random_inner_cfg(rng)
        n_queues = cfg.n_queues
        tau = rng.dirichlet(np.ones(n_queues + 1), size=1 << n_queues)[:, :n_queues]
        pol = SchedulingPolicy(tau)
        a = [0.0 if _is_dead(cfg, n) else float(rng.uniform(0.0, 0.5))
             for n in range(n_queues)]
        slacks = check_inner_bound(cfg, a, pol).slacks
        for n in range(n_queues):
            assert slacks[f"scale[{n}]"] == _reference_scale_slack(cfg, a, pol, n)
        for s in range(1 << n_queues):
            assert slacks[f"grant_sum[{s}]"] == 1.0 - float(np.sum(tau[s]))


def test_inner_bound_single_queue():
    cfg = single_queue_cfg([0.1, 0.5], beta=1.0)
    assert check_inner_bound(cfg, [0.5], SERVE_WHEN_ON_1Q).feasible
    assert check_inner_bound(cfg, [0.5], SERVE_WHEN_ON_1Q).slacks["scale[0]"] == pytest.approx(0.0)
    assert not check_inner_bound(cfg, [0.6], SERVE_WHEN_ON_1Q).feasible
    assert check_inner_bound(cfg, [0.0], SchedulingPolicy(np.zeros((2, 1)))).feasible


def test_inner_bound_dead_queue_scale():
    cfg = make_cfg([[1.0], [0.1]])
    pol = SchedulingPolicy.uniform_over_on(2)
    ok = check_inner_bound(cfg, [0.0, 0.1], pol)
    assert ok.feasible and ok.slacks["scale[0]"] == 0.0
    assert check_inner_bound(cfg, [0.01, 0.1], pol).slacks["scale[0]"] == -math.inf


def test_fair_ray_slacks_coincide_up_to_flow_count():
    # beta=1 single queue: the scale cap is 1/K while the load slack at
    # lam_k = a * p_on_k is 1 - K*a, so the two slacks differ by the factor K
    rng = np.random.default_rng(5)
    for _ in range(100):
        k = int(rng.integers(1, 5))
        p_off = rng.uniform(0.0, 0.9, size=k).tolist()
        a = float(rng.uniform(0.0, 1.2 / k))
        cfg = single_queue_cfg(p_off, beta=1.0)
        inner = check_inner_bound(cfg, [a], SERVE_WHEN_ON_1Q).slacks["scale[0]"]
        lam = [a * (1.0 - p) for p in p_off]
        hol = single_queue_margin(lam, p_off).slacks["hol_load"]
        assert hol == pytest.approx(k * inner, abs=1e-12)


def test_inner_feasible_points_are_region_feasible():
    # containment: any scale vector inside the parametric region maps to
    # arrival rates the exact check accepts, under the same scheduler
    rng = np.random.default_rng(13)
    for _ in range(50):
        n_queues = int(rng.integers(2, 4))
        beta = float(rng.uniform(1.0, 3.0))
        rows = [
            rng.uniform(0.0, 0.9, size=int(rng.integers(1, 4))).tolist()
            for _ in range(n_queues)
        ]
        cfg = make_cfg(rows, beta=beta)
        pol = SchedulingPolicy.uniform_over_on(n_queues)
        caps = [
            sum(inner_coefficient(cfg, n, s) * pol.prob(s, n) for s in range(1 << n_queues))
            for n in range(n_queues)
        ]
        a = [0.9 * c for c in caps]
        assert check_inner_bound(cfg, a, pol).feasible
        lams = [
            [a[n] * (1.0 - p) ** beta for p in rows[n]]
            for n in range(n_queues)
        ]
        assert check_service_region(cfg, lams, pol).feasible


# ----- two-queue boundary sweep -----


def test_sweep_rejects_sure_off_channels():
    with pytest.raises(ValueError, match="p_off"):
        sweep_two_queue_boundary((1.0, 0.1), 0.7)


def test_sweep_degenerate_row_gives_full_capacity():
    rows = sweep_two_queue_boundary((0.6, 0.1), 0.7, grid=5)
    assert rows[0] == (0.0, 0.0, pytest.approx(0.3))
    for lam1, lam2, cap in rows:
        assert 0.0 <= cap <= 0.3 + 1e-12
        assert lam1 / 0.4 + lam2 / 0.9 <= 1.0 + 1e-9


def test_sweep_boundary_points_bracket_feasibility():
    # a shade under each boundary cap must be schedulable, a shade over must
    # not be, judged by the scheduler grid search
    cfg = make_cfg([[0.6, 0.1], [0.7]])
    rows = [
        r for r in sweep_two_queue_boundary((0.6, 0.1), 0.7, grid=9)
        if r[2] > 0.1 and (r[0] / 0.4 + r[1] / 0.9) < 0.9
    ]
    for lam1, lam2, cap in rows[:: max(1, len(rows) // 5)]:
        _, below = best_policy_search(cfg, [[lam1, lam2], [0.85 * cap]])
        _, above = best_policy_search(cfg, [[lam1, lam2], [1.15 * cap]])
        assert below.feasible, (lam1, lam2, cap)
        assert not above.feasible, (lam1, lam2, cap)


def test_best_policy_search_beats_fixed_policies():
    rng = np.random.default_rng(17)

    def worst_rate_slack(margin):
        return min(v for k, v in margin.slacks.items() if k.startswith("rate"))

    for _ in range(20):
        rows = [rng.uniform(0.0, 0.8, size=2).tolist(), [float(rng.uniform(0.0, 0.8))]]
        lams = [rng.uniform(0.01, 0.3, size=2).tolist(), [float(rng.uniform(0.01, 0.3))]]
        cfg = make_cfg(rows)
        _, best = best_policy_search(cfg, lams)
        for fixed in (SchedulingPolicy.uniform(2), SchedulingPolicy.uniform_over_on(2)):
            fixed_margin = check_service_region(cfg, lams, fixed)
            assert worst_rate_slack(best) >= worst_rate_slack(fixed_margin) - 1e-9


def test_best_policy_search_caps_queue_count():
    cfg = make_cfg([[0.1], [0.1], [0.1]])
    with pytest.raises(ValueError, match="two queues"):
        best_policy_search(cfg, [[0.1], [0.1], [0.1]])
