import math

import numpy as np
import pytest

from helpers import (inner_coefficient_reference, make_cfg, service_region_reference,
                     single_queue_cfg, uniform_policy)
from wfifo import (
    SchedulingPolicy,
    best_policy_search,
    check_inner_bound,
    check_service_region,
    check_stability_region,
    single_queue_margin,
    sweep_two_queue_boundary,
)
from wfifo.stability import Margin, inner_coefficient, inner_coefficients

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


def test_single_queue_margin_rejects_non_finite_inputs():
    # a NaN rate passes every comparison, so it would add NaN to the load
    # and leave the margin feasible
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="flow 0: arrival rate must be finite"):
            single_queue_margin([bad, 0.1], [0.2, 0.3])
        with pytest.raises(ValueError, match=r"flow 1: p_off must be in \[0, 1\]"):
            single_queue_margin([0.1, 0.1], [0.2, bad])


def service_bound(cfg, lambdas, policy, n, k):
    """Long-run service rate available to flow k of queue n: its rate slack
    plus its rate."""
    slack = check_service_region(cfg, lambdas, policy).slacks[f"rate[{n}][{k}]"]
    return slack + lambdas[n][k]


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
    margin = check_service_region(cfg, [[0.0, 0.0], [0.0]], uniform_policy(2))
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
                assert table[n, s] == inner_coefficient_reference(cfg, n, s)
            all_on = (1 << cfg.n_queues) - 1
            assert inner_coefficient(cfg, n, all_on) == table[n, all_on]
    assert dead_rows > 0


def _reference_scale_slack(cfg, a, pol, n):
    """Per-state fsum over the reference coefficients."""
    if _is_dead(cfg, n):
        return 0.0 if a[n] == 0.0 else -math.inf
    cap = math.fsum(
        inner_coefficient_reference(cfg, n, s) * pol.tau[s, n]
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


def test_inner_bound_rejects_non_finite_scales():
    cfg = make_cfg([[0.1], [0.2]])
    pol = SchedulingPolicy.uniform_over_on(2)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="queue 1: scale must be finite"):
            check_inner_bound(cfg, [0.1, bad], pol)


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
            sum(inner_coefficient_reference(cfg, n, s) * pol.tau[s, n]
                for s in range(1 << n_queues))
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
    # not be, judged by the best scheduler search
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
        for fixed in (uniform_policy(2), SchedulingPolicy.uniform_over_on(2)):
            fixed_margin = check_service_region(cfg, lams, fixed)
            assert worst_rate_slack(best) >= worst_rate_slack(fixed_margin) - 1e-9


def test_best_policy_search_margin_is_check_service_region():
    # the search builds the grant weights once; its margin must still be
    # check_service_region's on the policy it returns, bit for bit
    rng = np.random.default_rng(18)
    for _ in range(50):
        sizes = rng.integers(1, 4, size=2)
        rows = [rng.uniform(0.0, 0.9, int(k)).tolist() for k in sizes]
        lams = [rng.uniform(0.0, 0.4, int(k)).tolist() for k in sizes]
        cfg = make_cfg(rows)
        policy, margin = best_policy_search(cfg, lams)
        assert margin.slacks == check_service_region(cfg, lams, policy).slacks


def test_best_policy_search_caps_queue_count():
    cfg = make_cfg([[0.1], [0.1], [0.1]])
    with pytest.raises(ValueError, match="two queues"):
        best_policy_search(cfg, [[0.1], [0.1], [0.1]])


def _rate_slacks(margin):
    return np.array([v for k, v in margin.slacks.items() if k.startswith("rate")])


def _split(x):
    """Two-queue policy: lone serviceable queues get the slot, and queue 0
    gets share x of the contended state."""
    tau = np.zeros((4, 2))
    tau[0b01, 0] = 1.0
    tau[0b10, 1] = 1.0
    tau[0b11] = [x, 1.0 - x]
    return SchedulingPolicy(tau)


def _grid_policy_search(cfg, lambdas, step=0.01):
    """Reference: the 101-point grid over the contended split that the exact
    search replaced. Returns the grid x values and the worst rate slack of
    each, from `check_service_region`."""
    xs = np.minimum(np.arange(0.0, 1.0 + step / 2, step), 1.0)
    worst = [_rate_slacks(check_service_region(cfg, lambdas, _split(x))).min() for x in xs]
    return xs, np.array(worst)


def _random_two_queue_instance(rng):
    rows, lams = [], []
    for _ in range(2):
        k = int(rng.integers(1, 4))
        p_off = rng.choice([0.0, 1.0, -1.0], size=k, p=[0.15, 0.1, 0.75])
        p_off = np.where(p_off < 0, rng.uniform(0.0, 0.9, k), p_off)
        lam = rng.uniform(0.0, 0.35, k) * (rng.random(k) > 0.2)
        rows.append(p_off.tolist())
        lams.append(lam.tolist())
    return make_cfg(rows), lams


def test_exact_policy_search_never_trails_the_grid():
    rng = np.random.default_rng(91)
    fine = np.linspace(0.0, 1.0, 1001)
    for _ in range(200):
        cfg, lams = _random_two_queue_instance(rng)
        policy, margin = best_policy_search(cfg, lams)
        exact = _rate_slacks(margin).min()
        grid_x, grid_worst = _grid_policy_search(cfg, lams)
        assert exact >= grid_worst.max() - 1e-12, (cfg.to_dict(), lams)

        # every rate slack is a line through its values at x = 0 and x = 1
        # (a non-finite slack is constant); the lines reproduce the grid's
        # slacks, and none of the 1001 points beats the exact search
        at0 = _rate_slacks(check_service_region(cfg, lams, _split(0.0)))
        at1 = _rate_slacks(check_service_region(cfg, lams, _split(1.0)))
        finite = np.isfinite(at0)
        slope = np.zeros_like(at0)
        slope[finite] = at1[finite] - at0[finite]
        lines = (at0[:, None] + slope[:, None] * grid_x).min(axis=0)
        assert np.allclose(lines, grid_worst, rtol=0.0, atol=1e-12)
        fine_worst = (at0[:, None] + slope[:, None] * fine).min(axis=0)
        assert exact >= fine_worst.max() - 1e-12, (cfg.to_dict(), lams)

        if exact == -math.inf:  # ties go to the smallest split
            assert policy.tau[0b11, 0] == 0.0
        SchedulingPolicy(policy.tau)
        assert policy.tau.shape == (4, 2)
        assert policy.tau[0b11].sum() == pytest.approx(1.0)
        assert policy.tau[0b01].tolist() == [1.0, 0.0]
        assert policy.tau[0b10].tolist() == [0.0, 1.0]


# ----- one product table: the contraction against the per-state loop -----


def _random_region_instance(rng):
    """N = 1-6 queues with sure-ON, sure-OFF and zero-rate flows, absorbing
    queues, and grant rows summing to less than 1."""
    n_queues = int(rng.integers(1, 7))
    rows, lams = [], []
    for _ in range(n_queues):
        k = int(rng.integers(1, 4))
        p_off = rng.choice([0.0, 1.0, -1.0], size=k, p=[0.15, 0.1, 0.75])
        rows.append(np.where(p_off < 0, rng.uniform(0.0, 0.95, k), p_off).tolist())
        lams.append((rng.uniform(0.0, 0.3, k) * (rng.random(k) > 0.2)).tolist())
    states = 1 << n_queues
    tau = rng.dirichlet(np.ones(n_queues + 1), size=states)[:, :n_queues]
    tau *= rng.uniform(0.5, 1.0, (states, 1))
    return make_cfg(rows), lams, SchedulingPolicy(tau)


def test_service_region_equals_the_per_state_loop():
    rng = np.random.default_rng(97)
    infinite = 0
    for _ in range(300):
        cfg, lams, pol = _random_region_instance(rng)
        got = check_service_region(cfg, lams, pol).slacks
        want = service_region_reference(cfg, lams, pol)
        assert list(got) == list(want)
        for key, v in want.items():
            if math.isfinite(v):
                assert abs(got[key] - v) <= 1e-12, (key, got[key], v)
            else:
                infinite += 1
                assert got[key] == v
    assert infinite > 0


# ----- exact region under the best scheduler: the subset test -----


def test_stability_region_single_queue_is_the_load_condition():
    rng = np.random.default_rng(29)
    for _ in range(300):
        k = int(rng.integers(1, 5))
        p_off = rng.uniform(0.0, 0.9, size=k).tolist()
        lam = rng.uniform(0.0, 0.4, size=k).tolist()
        region = check_stability_region(single_queue_cfg(p_off), [lam])
        assert list(region.slacks) == ["subset[1]"]
        assert region.feasible == single_queue_margin(lam, p_off).feasible


def test_stability_region_absorbing_queue_is_minus_infinity():
    cfg = make_cfg([[0.2], [1.0, 0.1], [0.3]])
    slacks = check_stability_region(cfg, [[0.1], [0.05, 0.1], [0.1]]).slacks
    for a in range(1, 8):
        assert (slacks[f"subset[{a}]"] == -math.inf) == bool(a & 0b010)
    # a dead flow without traffic is only a zero-rate flow
    assert check_stability_region(cfg, [[0.1], [0.0, 0.1], [0.1]]).feasible


def test_stability_region_agrees_with_the_two_queue_search():
    rng = np.random.default_rng(53)
    verdicts = set()
    for _ in range(400):
        cfg, lams = _random_two_queue_instance(rng)
        _, best = best_policy_search(cfg, lams)
        subset = check_stability_region(cfg, lams)
        assert subset.feasible == best.feasible, (cfg.to_dict(), lams)
        assert (subset.min_slack == -math.inf) == (best.min_slack == -math.inf)
        verdicts.add(best.feasible)
    assert verdicts == {True, False}


# Three-queue verdicts from a linear program over every grant table (scipy's
# HiGHS, maximizing min_n r_n - D_n over tau), computed once and pinned here;
# every LP margin is at least 4e-3 from zero. The uniform split among
# serviceable queues fails 8 of the 12 feasible ones.
THREE_QUEUE_LP_VERDICTS = [
    ([[0.22, 0.03], [0.73, 0.49], [0.65, 0.0]],
     [[0.004, 0.203], [0.182, 0.136], [0.214, 0.008]], True),
    ([[0.58, 0.14], [0.34], [0.1]], [[0.216, 0.135], [0.007], [0.168]], True),
    ([[0.71], [0.46, 0.26], [0.31]], [[0.234], [0.149, 0.084], [0.223]], True),
    ([[0.24, 0.54], [0.29, 0.08], [0.76]], [[0.05, 0.236], [0.157, 0.232], [0.125]], True),
    ([[0.34], [0.76], [0.61, 0.4]], [[0.155], [0.115], [0.132, 0.196]], True),
    ([[0.59], [0.75], [0.74]], [[0.178], [0.029], [0.242]], True),
    ([[0.5], [0.67], [0.7]], [[0.021], [0.197], [0.015]], True),
    ([[0.75, 0.73], [0.65], [0.0, 0.0]], [[0.0, 0.243], [0.154], [0.104, 0.284]], True),
    ([[0.0], [0.65, 0.0], [0.0, 0.76]], [[0.185], [0.2, 0.015], [0.0, 0.095]], True),
    ([[1.0, 0.3], [0.2], [0.5]], [[0.0, 0.3], [0.25], [0.1]], True),
    ([[0.2], [0.2], [0.2]], [[0.3], [0.3], [0.0]], True),
    ([[0.5], [0.5], [0.5]], [[0.25], [0.25], [0.25]], True),
    ([[0.5], [0.5], [0.5]], [[0.3], [0.3], [0.3]], False),
    ([[0.6, 0.46], [0.13, 0.5], [0.0]], [[0.241, 0.165], [0.163, 0.22], [0.032]], False),
    ([[0.53, 0.53], [0.41, 0.01], [0.0, 0.24]],
     [[0.171, 0.286], [0.126, 0.255], [0.278, 0.084]], False),
    ([[0.49, 0.31], [0.55, 0.52], [0.58, 0.42]],
     [[0.249, 0.245], [0.172, 0.097], [0.078, 0.121]], False),
    ([[0.01, 0.69], [0.78], [0.66]], [[0.245, 0.239], [0.222], [0.12]], False),
    ([[0.37], [0.07, 0.46], [0.39, 0.79]], [[0.127], [0.049, 0.202], [0.046, 0.241]], False),
    ([[0.34, 0.78], [0.73, 0.38], [0.24, 0.61]],
     [[0.243, 0.126], [0.216, 0.175], [0.143, 0.023]], False),
]


@pytest.mark.parametrize("rows, lams, feasible", THREE_QUEUE_LP_VERDICTS)
def test_stability_region_matches_the_pinned_lp_verdicts(rows, lams, feasible):
    assert check_stability_region(make_cfg(rows), lams).feasible == feasible
