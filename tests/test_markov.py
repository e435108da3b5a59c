import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_cfg
from wfifo import joint_state_hol_prob, single_queue_steady_state
from wfifo.core import OFF, ON
from wfifo.markov import state_marginal

# Random per-flow (lambda, p_off) rows for property tests. Rates are bounded
# away from zero so the chain is never empty of traffic.
flow_rows = st.lists(
    st.tuples(
        st.floats(min_value=0.01, max_value=1.0),
        st.floats(min_value=0.0, max_value=0.9),
    ),
    min_size=1,
    max_size=5,
)


def test_two_flow_hand_case():
    # lam=(0.2,0.2), p_on=(0.5,1.0): loads are 0.4 and 0.2, so the HOL
    # channel is serviceable 0.4/0.6 of the time and all residual blocking
    # sits on the first flow.
    ss = single_queue_steady_state([0.2, 0.2], [0.5, 0.0])
    assert ss.p_serviceable == pytest.approx(2 / 3)
    assert ss.p_blocked[0] == pytest.approx(1 / 3)
    assert ss.p_blocked[1] == pytest.approx(0.0)
    assert ss.p_hol[0] == pytest.approx(2 / 3)
    assert ss.p_hol[1] == pytest.approx(1 / 3)


def test_single_perfect_flow_never_blocks():
    ss = single_queue_steady_state([0.4], [0.0])
    assert ss.p_serviceable == 1.0
    assert ss.p_hol == (1.0,)


def test_symmetric_flows_collapse_to_p_on():
    ss = single_queue_steady_state([0.1, 0.1], [0.4, 0.4])
    assert ss.p_serviceable == pytest.approx(0.6)


def _p_hol(lambdas, p_off):
    return single_queue_steady_state(lambdas, p_off).p_hol


def test_hol_distribution_hand_case():
    assert _p_hol([0.3, 0.3], [0.4, 0.1]) == pytest.approx((0.6, 0.4))


def test_hol_distribution_equal_channels_gives_traffic_shares():
    assert _p_hol([0.3, 0.1], [0.5, 0.5]) == pytest.approx((0.75, 0.25))
    assert _p_hol([0.7], [0.2]) == (1.0,)


def test_zero_rate_flows_are_dropped_exactly():
    ss = single_queue_steady_state([0.3, 0.0, 0.3], [0.4, 0.8, 0.1])
    assert ss.p_hol[1] == 0.0
    assert ss.p_blocked[1] == 0.0
    ref = single_queue_steady_state([0.3, 0.3], [0.4, 0.1])
    assert ss.p_serviceable == pytest.approx(ref.p_serviceable)


def test_no_traffic_is_an_error():
    with pytest.raises(ValueError, match="no traffic"):
        single_queue_steady_state([0.0, 0.0], [0.5, 0.5])


def test_loaded_dead_channel_is_an_error():
    with pytest.raises(ValueError, match="absorbing blocking state"):
        single_queue_steady_state([0.1, 0.1], [0.5, 1.0])
    # a dead channel with no traffic is dropped, not an error
    ss = single_queue_steady_state([0.1, 0.0], [0.5, 1.0])
    assert ss.p_serviceable == pytest.approx(0.5)


@pytest.mark.parametrize("closed_form", [
    single_queue_steady_state, lambda lams, p_off: state_marginal(lams, p_off, ON)],
    ids=["single_queue_steady_state", "state_marginal"])
def test_non_finite_inputs_are_an_error(closed_form):
    # a NaN passes every comparison, so it would come out as a NaN probability
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="flow 0: arrival rate must be finite"):
            closed_form([bad, 0.1], [0.2, 0.3])
        with pytest.raises(ValueError, match=r"flow 1: p_off must be in \[0, 1\]"):
            closed_form([0.1, 0.1], [0.2, bad])


def test_service_availability_examples():
    def availability(lambdas, p_off):
        return single_queue_steady_state(lambdas, p_off).p_serviceable

    assert availability([0.2, 0.2], [0.5, 0.0]) == pytest.approx(2 / 3)
    assert availability([0.7], [0.3]) == pytest.approx(0.7)
    assert availability([0.45, 0.45], [0.1, 0.1]) == pytest.approx(0.9)


def test_state_marginal_sums_to_one():
    lams, p_off = [0.3, 0.3], [0.4, 0.1]
    on = state_marginal(lams, p_off, ON)
    off = state_marginal(lams, p_off, OFF)
    assert on == pytest.approx(0.72)
    assert on + off == pytest.approx(1.0)


def test_joint_single_queue_reduces_to_xi_times_hol():
    cfg = make_cfg([[0.4, 0.1]])
    lams = [[0.3, 0.3]]
    assert joint_state_hol_prob(cfg, lams, 1, 0, 0) == pytest.approx(0.36)
    # OFF state picks up the blocked mass instead
    assert joint_state_hol_prob(cfg, lams, 0, 0, 0) == pytest.approx(0.4 * 0.6)


def test_joint_always_on_channels():
    cfg = make_cfg([[0.0, 0.0], [0.0]])
    lams = [[0.3, 0.1], [0.2]]
    all_on = 0b11
    assert joint_state_hol_prob(cfg, lams, all_on, 0, 0) == pytest.approx(0.75)
    assert joint_state_hol_prob(cfg, lams, all_on, 0, 1) == pytest.approx(0.25)
    # any OFF component is impossible when p_off = 0
    assert joint_state_hol_prob(cfg, lams, 0b01, 0, 0) == 0.0


def test_joint_propagates_absorbing_error():
    cfg = make_cfg([[0.4], [1.0]])
    with pytest.raises(ValueError, match="absorbing"):
        joint_state_hol_prob(cfg, [[0.3], [0.2]], 0b11, 0, 0)


@given(flow_rows)
def test_components_partition_probability(rows):
    lams = [r[0] for r in rows]
    p_off = [r[1] for r in rows]
    ss = single_queue_steady_state(lams, p_off)
    assert ss.p_serviceable + sum(ss.p_blocked) == pytest.approx(1.0, abs=1e-9)
    assert sum(ss.p_hol) == pytest.approx(1.0, abs=1e-9)
    assert all(0.0 <= x <= 1.0 for x in ss.p_hol)


@given(flow_rows, st.floats(min_value=0.01, max_value=50.0))
def test_scale_invariance(rows, c):
    lams = [r[0] for r in rows]
    p_off = [r[1] for r in rows]
    a = single_queue_steady_state(lams, p_off)
    b = single_queue_steady_state([c * x for x in lams], p_off)
    assert a.p_serviceable == pytest.approx(b.p_serviceable, rel=1e-9)
    assert a.p_hol == pytest.approx(b.p_hol, rel=1e-9)
    assert a.p_blocked == pytest.approx(b.p_blocked, rel=1e-9, abs=1e-12)


@settings(max_examples=25)
@given(flow_rows, flow_rows)
def test_joint_two_queue_probabilities_partition(rows_a, rows_b):
    cfg = make_cfg([[p for _, p in rows_a], [p for _, p in rows_b]])
    lams = [[l for l, _ in rows_a], [l for l, _ in rows_b]]
    for n in range(2):
        total = sum(
            joint_state_hol_prob(cfg, lams, s, n, k)
            for s in range(1 << 2)
            for k in range(cfg.n_flows(n))
        )
        assert total == pytest.approx(1.0, abs=1e-9)
