import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import golden_section_max, make_cfg, single_queue_cfg
from wfifo import (
    MaxWeightPolicy,
    QfcPolicy,
    StaticPolicy,
    build_policy,
    serve_if_on_policy,
    solve_dfc,
    static_dfc_policy,
)

backlogs = st.integers(min_value=0, max_value=10**9)


def qfc_scale(q, cfg):
    """Admission scale a of single-queue qfc at total backlog q, read off the
    first flow with a live channel (that flow admits a * p_on**beta)."""
    rates = QfcPolicy(cfg).admission([q], [[q] + [0] * (cfg.n_flows(0) - 1)])[0]
    k, p_on = next((k, p) for k, p in enumerate(cfg.p_on_row(0)) if p > 0.0)
    return rates[k] / p_on**cfg.beta


def qfc_pick(q_totals, serviceable, cfg):
    bits = sum(1 << n for n in serviceable)
    return QfcPolicy(cfg).schedule(q_totals, serviceable, bits, 0.0)


def maxweight_rate(q_flow, cfg):
    return MaxWeightPolicy(cfg).admission([q_flow], [[q_flow]])[0][0]


def maxweight_pick(q_totals, serviceable):
    cfg = make_cfg([[0.5]] * len(q_totals))
    bits = sum(1 << n for n in serviceable)
    return MaxWeightPolicy(cfg).schedule(q_totals, serviceable, bits, 0.0)


def test_golden_section_finds_quadratic_peak():
    got = golden_section_max(lambda x: -((x - 0.3) ** 2), 0.0, 1.0)
    assert got == pytest.approx(0.3, abs=1e-6)


def test_qfc_scale_stationarity_point():
    cfg = single_queue_cfg([0.5, 0.5], M=100.0)
    assert qfc_scale(400, cfg) == pytest.approx(0.5)


def test_qfc_scale_empty_queue_admits_at_cap():
    cfg = single_queue_cfg([0.5, 0.5], M=100.0, r_max=2.0)
    assert qfc_scale(0, cfg) == 2.0


def test_qfc_scale_throttles_under_huge_backlog():
    cfg = single_queue_cfg([0.5, 0.5], M=100.0)
    assert qfc_scale(10**9, cfg) == pytest.approx(2e-7)


def test_qfc_scale_counts_all_configured_flows():
    # a permanently OFF flow admits nothing (a * 0**beta) but its log term
    # still has marginal weight 1/a, so it stays in the flow count; this also
    # keeps the controller consistent with the scheduler weight's denominator
    cfg = single_queue_cfg([0.1, 1.0], M=100.0)
    assert qfc_scale(400, cfg) == pytest.approx(0.5)


def test_qfc_scale_matches_direct_maximization():
    cfg = single_queue_cfg([0.1, 0.5, 0.3], beta=2.0, M=50.0)
    for q in (10.0, 200.0, 5000.0):
        direct = golden_section_max(
            lambda a: cfg.M
            * sum(math.log(a * p**cfg.beta) for p in cfg.p_on_row(0))
            - q * a,
            1e-9,
            cfg.r_max,
        )
        assert qfc_scale(q, cfg) == pytest.approx(direct, rel=1e-5)


@given(backlogs, backlogs)
def test_qfc_scale_monotone_in_backlog(q1, q2):
    cfg = single_queue_cfg([0.5, 0.5], M=100.0)
    lo, hi = sorted((q1, q2))
    assert qfc_scale(hi, cfg) <= qfc_scale(lo, cfg)


@given(st.floats(min_value=1.0, max_value=1e4), st.floats(min_value=1.0, max_value=1e4))
def test_qfc_scale_monotone_in_gain(m1, m2):
    lo, hi = sorted((m1, m2))
    q = 500
    a_lo = qfc_scale(q, single_queue_cfg([0.5], M=lo))
    a_hi = qfc_scale(q, single_queue_cfg([0.5], M=hi))
    assert a_hi >= a_lo


def test_qfc_schedule_channel_normalized_tie():
    # weights Q/sum(p_on**beta) = 10/1.0 vs 5/0.5: tied, lowest index wins
    cfg = make_cfg([[0.5, 0.5], [0.5]])
    assert qfc_pick([10, 5], [0, 1], cfg) == 0
    assert qfc_pick([10, 5], [1], cfg) == 1
    assert qfc_pick([10, 5], [], cfg) is None


def test_qfc_schedule_prefers_heavier_normalized_backlog():
    cfg = make_cfg([[0.5, 0.5], [0.5]])
    assert qfc_pick([10, 6], [0, 1], cfg) == 1  # 10 < 12


@given(st.lists(st.floats(min_value=1e-3, max_value=1e6), min_size=2, max_size=2),
       st.floats(min_value=0.25, max_value=4.0))
def test_qfc_schedule_scale_free(q, c):
    cfg = make_cfg([[0.2, 0.7], [0.4]])
    scaled = [x * c for x in q]
    assert qfc_pick(q, [0, 1], cfg) == qfc_pick(scaled, [0, 1], cfg)
    assert qfc_pick([0.0, q[1]], [0, 1], cfg) == qfc_pick([0.0, c * q[1]], [0, 1], cfg)


def test_maxweight_rate_examples():
    cfg = single_queue_cfg([0.5], M=100.0, r_max=2.0)
    assert maxweight_rate(1000, cfg) == pytest.approx(0.1)
    assert maxweight_rate(0, cfg) == 2.0
    assert maxweight_rate(50, cfg) == 2.0  # clip point M / r_max
    assert maxweight_rate(51, cfg) < 2.0


def test_maxweight_schedule_examples():
    assert maxweight_pick([10, 5], [0, 1]) == 0
    assert maxweight_pick([10, 5], [1]) == 1
    assert maxweight_pick([7, 7], [0, 1]) == 0  # tie: lowest index
    assert maxweight_pick([10, 5], []) is None


def test_single_queue_schedulers_coincide():
    cfg = single_queue_cfg([0.3, 0.6])
    for q, serviceable in ((5, [0]), (0, [0]), (3, [])):
        want = 0 if serviceable else None
        assert qfc_pick([q], serviceable, cfg) == want
        assert maxweight_pick([q], serviceable) == want


def test_qfc_policy_admission_follows_channel_profile():
    cfg = single_queue_cfg([0.1, 0.5], beta=2.0, M=100.0)
    pol = QfcPolicy(cfg)
    rates = pol.admission([400], [[250, 150]])
    a = min(cfg.r_max, cfg.M * cfg.n_flows(0) / 400)  # log-utility closed form
    assert rates[0][0] == pytest.approx(a * 0.81)
    assert rates[0][1] == pytest.approx(a * 0.25)


def test_maxweight_policy_admission_is_per_flow():
    cfg = single_queue_cfg([0.1, 0.5], M=100.0, r_max=2.0)
    pol = MaxWeightPolicy(cfg)
    assert pol.admission([1000], [[1000, 0]])[0] == pytest.approx([0.1, 2.0])


def test_static_policy_draw_walks_grant_table():
    cfg = make_cfg([[0.2], [0.2]])
    tau = np.zeros((4, 2))
    tau[0b11] = [0.3, 0.4]
    pol = StaticPolicy(cfg, [[0.1], [0.1]], tau)
    assert pol.schedule([1, 1], [0, 1], 0b11, 0.1) == 0
    assert pol.schedule([1, 1], [0, 1], 0b11, 0.5) == 1
    assert pol.schedule([1, 1], [0, 1], 0b11, 0.95) is None  # idle remainder
    # a draw landing on a queue that cannot transmit idles rather than serving
    assert pol.schedule([1, 1], [1], 0b11, 0.1) is None
    assert pol.schedule([1, 1], [0, 1], 0b00, 0.1) is None


def test_static_policy_grant_frequencies_match_table():
    cfg = make_cfg([[0.2], [0.2]])
    tau = np.zeros((4, 2))
    tau[0b11] = [0.35, 0.25]
    pol = StaticPolicy(cfg, [[0.1], [0.1]], tau)
    rng = np.random.default_rng(41)
    draws = 500_000
    counts = [0, 0]
    for u in rng.random(draws):
        got = pol.schedule([1, 1], [0, 1], 0b11, u)
        if got is not None:
            counts[got] += 1
    assert counts[0] / draws == pytest.approx(0.35, abs=0.005)
    assert counts[1] / draws == pytest.approx(0.25, abs=0.005)


def test_static_policy_input_validation():
    cfg = make_cfg([[0.2], [0.2]])
    with pytest.raises(ValueError, match="one value per flow"):
        StaticPolicy(cfg, [[0.1]], np.zeros((4, 2)))
    with pytest.raises(ValueError, match=">= 0"):
        StaticPolicy(cfg, [[-0.1], [0.1]], np.zeros((4, 2)))
    with pytest.raises(ValueError, match="different number of queues"):
        StaticPolicy(cfg, [[0.1], [0.1]], np.zeros((2, 1)))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_static_policy_rejects_non_finite_inputs(bad):
    # a NaN rate would admit nothing, and a NaN grant table never grants
    cfg = make_cfg([[0.2], [0.2, 0.3]])
    with pytest.raises(ValueError, match=r"rates\[1\]\[0\] must be finite"):
        StaticPolicy(cfg, [[0.1], [bad, 0.1]], np.zeros((4, 2)))
    with pytest.raises(ValueError, match="state 0b0, queue 0: grant probability must be finite"):
        StaticPolicy(cfg, [[0.1], [0.1, 0.1]], np.full((4, 2), bad))


def test_static_dfc_policy_replays_solution():
    cfg = make_cfg([[0.1, 0.5], [0.1, 0.5]])
    sol = solve_dfc(cfg)
    pol = static_dfc_policy(cfg, sol)
    assert pol.admission([5, 5], [[3, 2], [4, 1]]) == [list(r) for r in sol.lambdas]
    # named for what it replays; the exact type sends its runs to the block path
    assert pol.name == "dfc-static" and type(pol) is StaticPolicy


def test_serve_if_on_policy_splits_on_mass():
    cfg = make_cfg([[0.2], [0.2]])
    pol = serve_if_on_policy(cfg, [[0.1], [0.1]])
    assert pol.schedule([1, 1], [0, 1], 0b11, 0.49) == 0
    assert pol.schedule([1, 1], [0, 1], 0b11, 0.51) == 1
    assert pol.schedule([1, 1], [0], 0b01, 0.99) == 0
    assert pol.schedule([1, 1], [], 0b00, 0.5) is None


def test_build_policy_names():
    cfg = single_queue_cfg([0.1, 0.5], lambdas=[0.2, 0.1])
    assert build_policy(cfg, "qfc").name == "qfc"
    assert build_policy(cfg, "maxweight").name == "maxweight"
    for name in ("dfc-static", "static"):
        assert type(build_policy(cfg, name)) is StaticPolicy
        assert build_policy(cfg, name).name == name
    with pytest.raises(ValueError, match="unknown policy"):
        build_policy(cfg, "fifo")


def test_build_static_policy_requires_rates():
    cfg = single_queue_cfg([0.1, 0.5])
    with pytest.raises(ValueError, match=r"queues\[0\].flows\[0\].lambda"):
        build_policy(cfg, "static")
