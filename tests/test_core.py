import json

import math
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_cfg, uniform_policy
from wfifo import (
    ConfigError,
    FlowSpec,
    NetworkConfig,
    QueueSpec,
    SchedulingPolicy,
    Utility,
    config_digest,
    config_from_dict,
    load_config,
)
from wfifo.core import MAX_QUEUES_ENUMERATED, state_bit


def test_valid_config_has_no_errors():
    cfg = make_cfg([[0.6, 0.1]], lambdas=[[0.3, 0.2]])
    assert cfg.validate() == []


def test_p_off_out_of_range_names_the_field():
    errs = FlowSpec(p_off=1.2).validate("queues[0].flows[0]")
    assert len(errs) == 1
    assert "queues[0].flows[0].p_off" in errs[0]
    assert "[0, 1]" in errs[0]


def test_p_off_endpoints_are_legal():
    assert FlowSpec(p_off=0.0).validate("f") == []
    assert FlowSpec(p_off=1.0).validate("f") == []


def test_negative_lambda_rejected():
    errs = FlowSpec(p_off=0.5, lam=-0.1).validate("f")
    assert errs and "lambda" in errs[0]


def test_beta_below_one_rejected():
    cfg = make_cfg([[0.5]], beta=0.5)
    errs = cfg.validate()
    assert any(e.startswith("beta:") for e in errs)


def test_nonpositive_gain_and_cap_rejected():
    errs = make_cfg([[0.5]], M=0.0, r_max=-1.0).validate()
    assert any(e.startswith("M:") for e in errs)
    assert any(e.startswith("r_max:") for e in errs)


def test_empty_queue_rejected():
    cfg = NetworkConfig(queues=[QueueSpec(flows=[])])
    assert any("at least one flow" in e for e in cfg.validate())


def test_empty_network_rejected():
    assert any("at least one queue" in e for e in NetworkConfig(queues=[]).validate())


def test_utility_only_log_supported():
    errs = Utility(kind="sqrt").validate()
    assert errs and "sqrt" in errs[0]
    assert Utility(weight=0.0).validate() != []


def test_utility_value_is_weighted_log():
    assert Utility(weight=2.0).value(math.e) == pytest.approx(2.0)


def test_missing_lambda_fields_lists_paths():
    cfg = make_cfg([[0.6, 0.1], [0.7]])
    cfg.queues[0].flows[0].lam = 0.3  # only one of three provided
    assert cfg.missing_lambda_fields() == [
        "queues[0].flows[1].lambda",
        "queues[1].flows[0].lambda",
    ]


def test_dict_roundtrip_preserves_config_and_digest():
    cfg = make_cfg([[0.6, 0.1], [0.7]], lambdas=[[0.3, 0.2], [0.2]], beta=2.0, M=100.0)
    again = config_from_dict(cfg.to_dict())
    assert again.to_dict() == cfg.to_dict()
    assert config_digest(again) == config_digest(cfg)


def test_config_digest_is_short_hex_and_sensitive():
    cfg = make_cfg([[0.6, 0.1]])
    d = config_digest(cfg)
    assert len(d) == 16
    int(d, 16)  # parses as hex
    cfg.queues[0].flows[0].p_off = 0.6000001
    assert config_digest(cfg) != d


def test_config_from_dict_collects_every_error():
    data = {"beta": 0.0, "queues": [{"flows": [{"p_off": 2.0}]}]}
    with pytest.raises(ConfigError) as ei:
        config_from_dict(data)
    msg = str(ei.value)
    assert "queues[0].flows[0].p_off" in msg
    assert "beta" in msg


def test_config_from_dict_missing_p_off():
    with pytest.raises(ConfigError, match=r"queues\[0\].flows\[1\].p_off"):
        config_from_dict({"queues": [{"flows": [{"p_off": 0.5}, {}]}]})


def test_config_from_dict_wrong_shapes():
    with pytest.raises(ConfigError, match="queues"):
        config_from_dict({"queues": {"flows": []}})
    with pytest.raises(ConfigError, match="config"):
        config_from_dict([1, 2])


@pytest.mark.parametrize("field", ["beta", "M", "r_max", "utility.weight"])
@pytest.mark.parametrize("value", [
    "x", None, [1.0], {}, True, "2", " 1e3 ",
    pytest.param(10**400, id="int-beyond-float"),
])
def test_config_from_dict_non_numeric_constant(field, value):
    data = {"queues": [{"flows": [{"p_off": 0.5}]}]}
    if field == "utility.weight":
        data["utility"] = {"weight": value}
    else:
        data[field] = value
    with pytest.raises(ConfigError, match=rf"^{field}: must be a number"):
        config_from_dict(data)


def test_rate_beyond_float_range_is_a_config_error():
    flows = [{"p_off": 0.5, "lambda": 10**400}]
    with pytest.raises(ConfigError, match=r"flows\[0\]\.lambda: must be finite"):
        config_from_dict({"queues": [{"flows": flows}]})


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=10,
)
# config-shaped objects whose every field may hold any JSON value, so the
# fuzz reaches field validation instead of stopping at the top-level shape
flows_json = st.lists(
    st.fixed_dictionaries({"p_off": json_values}, optional={"lambda": json_values})
    | json_values,
    max_size=3,
)
config_json = st.fixed_dictionaries(
    {"queues": st.lists(st.fixed_dictionaries({"flows": flows_json}) | json_values,
                        max_size=3)},
    optional={key: json_values for key in ("beta", "M", "r_max")}
    | {"utility": st.fixed_dictionaries({}, optional={"kind": json_values,
                                                      "weight": json_values})
       | json_values},
)


@settings(max_examples=400)
@given(json_values | config_json)
def test_any_json_value_gives_a_config_or_a_config_error(data):
    try:
        cfg = config_from_dict(data)
    except ConfigError:
        return
    assert isinstance(cfg, NetworkConfig) and cfg.validate() == []


def test_load_config_bad_json_reports_position(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{ nope }")
    with pytest.raises(ConfigError, match=r"broken\.json:1:\d+.*invalid JSON"):
        load_config(str(p))


def test_load_config_roundtrip(tmp_path):
    cfg = make_cfg([[0.1, 0.5]], lambdas=[[0.2, 0.1]])
    p = tmp_path / "net.json"
    p.write_text(json.dumps(cfg.to_dict()))
    assert load_config(str(p)).to_dict() == cfg.to_dict()


# ----- channel-state encoding -----


def test_state_vector_examples():
    assert [state_bit(0, n) for n in range(3)] == [0, 0, 0]
    assert [state_bit(6, n) for n in range(3)] == [0, 1, 1]
    assert state_bit(6, 0) == 0 and state_bit(6, 1) == 1


def test_config_rejects_more_queues_than_the_state_cap():
    cap = MAX_QUEUES_ENUMERATED
    queues = [{"flows": [{"p_off": 0.5}]}] * (cap + 1)
    with pytest.raises(ConfigError, match=rf"^queues: at most {cap} queues supported"):
        config_from_dict({"queues": queues})
    assert config_from_dict({"queues": queues[:-1]}).n_queues == cap


# ----- scheduling policies -----


def test_uniform_policy_rows():
    pol = uniform_policy(2)
    assert pol.n_queues == 2
    assert pol.tau[3, 0] == pytest.approx(0.5)
    assert np.allclose(pol.tau.sum(axis=1), 1.0)


def test_uniform_over_on_skips_off_queues():
    pol = SchedulingPolicy.uniform_over_on(2)
    assert pol.tau[0].tolist() == [0.0, 0.0]  # all OFF: idle
    assert pol.tau[1, 0] == 1.0 and pol.tau[1, 1] == 0.0
    assert pol.tau[3, 0] == pytest.approx(0.5)


def test_policy_rejects_negative_and_oversubscribed_rows():
    with pytest.raises(ValueError, match=">= 0"):
        SchedulingPolicy(np.array([[-0.1], [0.5]]))
    with pytest.raises(ValueError, match="sum"):
        SchedulingPolicy(np.array([[0.5, 0.5], [0.0, 0.0], [0.0, 0.0], [0.7, 0.5]]))
    with pytest.raises(ValueError, match="states"):
        SchedulingPolicy(np.zeros((3, 1)))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_policy_rejects_non_finite_entries(bad):
    # a NaN grant passes both checks above, and a static run under it never
    # grants the slot
    tau = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
    tau[3, 1] = bad
    with pytest.raises(ValueError, match="state 0b11, queue 1: grant probability must be finite"):
        SchedulingPolicy(tau)


@given(st.integers(min_value=1, max_value=6))
def test_uniform_over_on_grants_exactly_the_on_mass(n):
    pol = SchedulingPolicy.uniform_over_on(n)
    for s in range(1 << n):
        row = pol.tau[s]
        assert row.sum() == pytest.approx(1.0 if s else 0.0)
        for q in range(n):
            if not state_bit(s, q):
                assert row[q] == 0.0
