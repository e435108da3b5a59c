import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import make_cfg
from wfifo import ConfigError, RunSpec, run
from wfifo.cli import (
    _POLICY_CHOICES,
    _UNIT_GRID,
    FIGURES,
    ExperimentPlan,
    _fig8_cfg,
    main,
    plan_rows,
    run_cells,
    run_plan,
)
from wfifo.dfc import solve_dfc
from wfifo.lockstep import LOCKSTEP_MIN_RUNS
from wfifo.stability import inner_coefficients

FIG7A_ROWS = [[0.1, 0.5], [0.1, 0.5]]

# a two-value sweep over a nested field with every budget field set; its
# CSV is pinned below, so the literal config (not a builder) is hashed
SMALL_PLAN = dict(
    config={"beta": 1.5, "M": 100.0, "r_max": 2.0,
            "utility": {"kind": "log", "weight": 1.0},
            "queues": [{"flows": [{"p_off": 0.1}, {"p_off": 0.5}]},
                       {"flows": [{"p_off": 0.2}, {"p_off": 0.4}]}]},
    parameter="queues[1].flows[1].p_off", values=[0.2, 0.7], seeds=2,
    policies=["qfc", "maxweight", "dfc-static"], horizon=2000, warmup=200,
    arrival_mode="stochastic",
)


def write_cfg(tmp_path, name, p_rows, lambdas=None, **kw):
    cfg = make_cfg(p_rows, lambdas=lambdas, **kw)
    path = tmp_path / name
    path.write_text(json.dumps(cfg.to_dict()))
    return str(path)


def write_plan(tmp_path, name, **fields):
    path = tmp_path / name
    path.write_text(json.dumps(fields))
    return str(path)


# ----- analyze -----


def test_analyze_boundary_instance(tmp_path, capsys):
    path = write_cfg(tmp_path, "b.json", [[0.1, 0.1]], lambdas=[[0.45, 0.45]])
    assert main(["analyze", "--config", path]) == 0
    out = capsys.readouterr().out
    assert "slack" in out
    assert "feasible" in out


def test_analyze_infeasible_instance(tmp_path):
    path = write_cfg(tmp_path, "o.json", [[0.1, 0.1]], lambdas=[[0.5, 0.5]])
    assert main(["analyze", "--config", path]) == 2


def test_analyze_missing_lambda(tmp_path, capsys):
    path = write_cfg(tmp_path, "m.json", [[0.1, 0.5]])
    assert main(["analyze", "--config", path]) == 1
    assert "queues[0].flows[0].lambda" in capsys.readouterr().err


def test_analyze_broken_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"queues": [}')
    assert main(["analyze", "--config", str(path)]) == 1
    assert "invalid JSON" in capsys.readouterr().err


def test_analyze_missing_file(tmp_path):
    assert main(["analyze", "--config", str(tmp_path / "gone.json")]) == 1


HUGE_INT = "1" + "0" * 5000  # past int()'s 4,300-digit limit for strings


def _one_error_line(capsys):
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert captured.out == ""
    return captured.err


@pytest.mark.parametrize("text", [
    b'{"beta": %s, "queues": [{"flows": [{"p_off": 0.1, "lambda": 0.2}]}]}'
    % HUGE_INT.encode(),
    b'\xff{}',  # not UTF-8
])
def test_analyze_unreadable_json_is_a_one_line_error(tmp_path, capsys, text):
    path = tmp_path / "c.json"
    path.write_bytes(text)
    assert main(["analyze", "--config", str(path)]) == 1
    assert "invalid JSON" in _one_error_line(capsys)


@pytest.mark.parametrize("where", ["plan", "config file"])
def test_sweep_huge_integer_is_a_one_line_error(tmp_path, capsys, where):
    cfg = json.dumps(make_cfg([[0.2]]).to_dict())
    plan = ('{"config": %s, "parameter": "beta", "values": [1.0], "seeds": %s, '
            '"policies": ["qfc"], "horizon": 50}')
    if where == "plan":
        text = plan % (cfg, HUGE_INT)
    else:
        (tmp_path / "c.json").write_text(cfg[:-1] + ', "M": %s}' % HUGE_INT)
        text = plan % ('"c.json"', 1)
    (tmp_path / "p.json").write_text(text)
    assert main(["sweep", "--plan", str(tmp_path / "p.json")]) == 1
    assert "invalid JSON" in _one_error_line(capsys)


@pytest.mark.parametrize("rate, ok", [
    (0.0, True), (1e-12, True), (2.0, True), (700.0, True),
    (1000.0, False), (1e20, False),
])
def test_simulate_stochastic_rate_limit(tmp_path, capsys, rate, ok):
    path = write_cfg(tmp_path, "r.json", [[0.2]], lambdas=[[rate]])
    rc = main(["simulate", "--config", path, "--policy", "static",
               "--arrival-mode", "stochastic", "--horizon", "100"])
    if ok:
        assert rc in (0, 2)
        assert json.loads(capsys.readouterr().out)["horizon"] == 100
    else:
        assert rc == 1
        assert "exceeds 700" in _one_error_line(capsys)


@pytest.mark.parametrize("policy, field, value", [
    ("static", "queues[0].flows[0].lambda", 1000.0),
    ("qfc", "r_max", 1e20),
])
def test_sweep_stochastic_rate_limit_fails_before_the_first_run(
        tmp_path, capsys, policy, field, value):
    plan = write_plan(tmp_path, "p.json",
                      config=make_cfg([[0.2]], lambdas=[[0.1]]).to_dict(),
                      parameter=field, values=[1.0, value], seeds=1,
                      policies=[policy], horizon=50, arrival_mode="stochastic")
    assert main(["sweep", "--plan", plan]) == 1
    assert "exceeds 700" in _one_error_line(capsys)  # no progress line


def test_analyze_two_queues_with_a_dead_loaded_flow(tmp_path, capsys):
    # every split leaves the dead flow's queue absorbing (slack -inf), so
    # the best split is the first one and the verdict is infeasible
    path = write_cfg(tmp_path, "a.json", [[1.0, 0.2], [0.3]],
                     lambdas=[[0.1, 0.1], [0.2]])
    assert main(["analyze", "--config", path]) == 2
    captured = capsys.readouterr()
    assert "verdict: infeasible" in captured.out
    assert "worst slack = -inf" in captured.out
    assert captured.err == ""


# sha256 prefixes of `analyze`'s stdout for one and two queues; the
# subset test for three or more queues left this output as it was
ANALYZE_PINS = [
    ({"queues": [{"flows": [{"p_off": 0.1, "lambda": 0.45},
                            {"p_off": 0.1, "lambda": 0.45}]}]}, 0, "df62e3e9899d445f"),
    ({"beta": 2.0, "queues": [{"flows": [{"p_off": 0.6, "lambda": 0.2},
                                         {"p_off": 0.1, "lambda": 0.2}]},
                              {"flows": [{"p_off": 0.7, "lambda": 0.2}]}]},
     0, "7995b914af26df87"),
    ({"queues": [{"flows": [{"p_off": 1.0, "lambda": 0.1}, {"p_off": 0.2, "lambda": 0.1}]},
                 {"flows": [{"p_off": 0.3, "lambda": 0.2}]}]}, 2, "f14cc1f50a68efb1"),
    ({"queues": [{"flows": [{"p_off": 0.6, "lambda": 0.2}, {"p_off": 0.1, "lambda": 0.2}]},
                 {"flows": [{"p_off": 0.7, "lambda": 0.3}]}]}, 2, "8b874f4bbf488856"),
]


@pytest.mark.parametrize("data, rc, digest", ANALYZE_PINS)
def test_analyze_output_up_to_two_queues_is_pinned(tmp_path, capsys, data, rc, digest):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(data))
    assert main(["analyze", "--config", str(path)]) == rc
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest


def test_analyze_three_queues_judges_every_split(tmp_path, capsys):
    # feasible under the best split, though the uniform split among
    # serviceable queues starves queue 2
    path = write_cfg(tmp_path, "f.json", [[0.59], [0.75], [0.74]],
                     lambdas=[[0.178], [0.029], [0.242]])
    assert main(["analyze", "--config", path]) == 0
    out = capsys.readouterr().out
    assert "worst subset slack = +0.018\n" in out
    assert "binding subset: queues {2} need 0.242 of the slots" in out
    assert out.endswith("verdict: feasible\n")


def test_analyze_three_queues_names_the_binding_subset(tmp_path, capsys):
    # each queue fits alone and in pairs, but all three need 0.9 of the
    # slots and one of them is serviceable in only 1 - 0.5**3 = 0.875
    path = write_cfg(tmp_path, "i.json", [[0.5]] * 3, lambdas=[[0.3]] * 3)
    assert main(["analyze", "--config", path]) == 2
    out = capsys.readouterr().out
    assert "worst subset slack = -0.025\n" in out
    assert ("binding subset: queues {0,1,2} need 0.9 of the slots, and at least "
            "one of them is serviceable in 0.875\n") in out
    assert out.endswith("verdict: infeasible\n")


def test_analyze_three_queues_with_an_absorbing_queue(tmp_path, capsys):
    path = write_cfg(tmp_path, "a.json", [[0.5], [1.0], [0.5]],
                     lambdas=[[0.1], [0.1], [0.1]])
    assert main(["analyze", "--config", path]) == 2
    out = capsys.readouterr().out
    assert "worst subset slack = -inf\n" in out
    assert "binding subset: queues {1} hold a flow with p_on = 0" in out


def test_analyze_rates_past_float_range_are_a_one_line_error(tmp_path, capsys):
    path = write_cfg(tmp_path, "o.json", [[0.0, 0.0]], lambdas=[[1e308, 1e308]])
    assert main(["analyze", "--config", path]) == 1
    assert "overflows float range" in _one_error_line(capsys)


@pytest.mark.parametrize("argv", [
    ["analyze"],
    ["solve-dfc"],
    ["simulate", "--policy", "dfc-static", "--horizon", "100"],
])
def test_beta_past_float_range_is_a_one_line_error(tmp_path, capsys, argv):
    # 0.5**1100 underflows to 0
    path = write_cfg(tmp_path, "b.json", [[0.5]], lambdas=[[0.1]], beta=1100.0)
    assert main(argv[:1] + ["--config", path] + argv[1:]) == 1
    assert _one_error_line(capsys).startswith("error: beta: p_on**beta leaves float range")


@pytest.mark.parametrize("argv", [
    ["solve-dfc"],
    ["simulate", "--policy", "dfc-static", "--horizon", "100"],
])
@pytest.mark.parametrize("queues,M", [
    # weight * 2 flows overflows: the planner's weights were inf, so it ran
    # NaN iterations, and dfc-static replayed an all-zero plan as stable
    ([{"flows": [{"p_off": 0.5}, {"p_off": 0.2}]}], 1000.0),
    # weight * 1 flow passes validation; w_n / a_n overflowed in the planner,
    # which now refuses the weight before its first iteration
    ([{"flows": [{"p_off": p}]} for p in (0.5, 0.2, 0.3)], 1.0),
])
def test_weight_past_float_range_is_a_one_line_error(tmp_path, capsys, argv, queues, M):
    path = tmp_path / "w.json"
    path.write_text(json.dumps({"queues": queues, "M": M, "utility": {"weight": 1e308}}))
    out = tmp_path / "out.json"
    assert main(argv[:1] + ["--config", str(path), "--out", str(out)] + argv[1:]) == 1
    assert _one_error_line(capsys).startswith("error: utility.weight: ")
    assert not out.exists()


@pytest.mark.parametrize("field", ["beta", "M", "r_max", "utility.weight"])
@pytest.mark.parametrize("value", ["x", None])
def test_analyze_non_numeric_constant_is_a_one_line_error(tmp_path, capsys, field, value):
    data = make_cfg([[0.2]], lambdas=[[0.1]]).to_dict()
    if field == "utility.weight":
        data["utility"]["weight"] = value
    else:
        data[field] = value
    path = tmp_path / "c.json"
    path.write_text(json.dumps(data))
    assert main(["analyze", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field}: must be a number") and err.count("\n") == 1


def test_usage_errors_exit_one():
    with pytest.raises(SystemExit) as ei:
        main([])
    assert ei.value.code == 1
    with pytest.raises(SystemExit) as ei:
        main(["reproduce-fig", "fig99"])
    assert ei.value.code == 1


# config-shaped JSON at the edges of every numeric range the validator
# accepts: sure-ON and sure-OFF flows, subnormal to huge rates, huge beta,
# subnormal to huge M and utility weight
_edge_p_off = st.sampled_from([0.0, 1.0, 0.5]) | st.floats(0.0, 1.0)
_edge_rate = st.sampled_from([0.0, 5e-324, 1e308]) | st.floats(5e-324, 1e308)
_edge_scale = st.sampled_from([5e-324, 1.0, 1e308])
_edge_config = st.fixed_dictionaries(
    {"queues": st.lists(
        st.fixed_dictionaries({"flows": st.lists(
            st.fixed_dictionaries({"p_off": _edge_p_off, "lambda": _edge_rate}),
            min_size=1, max_size=3)}),
        min_size=1, max_size=3)},
    optional={"beta": st.sampled_from([1.0, 1100.0, 1e308]) | st.floats(1.0, 1e308),
              "M": _edge_scale,
              "utility": st.fixed_dictionaries({"weight": _edge_scale})},
)


@settings(max_examples=60, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_edge_config)
def test_commands_end_in_a_verdict_or_one_error_line(data):
    commands = [["analyze"], ["solve-dfc"]] + [
        ["simulate", "--horizon", "20", "--policy", policy]
        for policy in ("qfc", "maxweight", "dfc-static", "static")
    ]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.json"
        path.write_text(json.dumps(data))
        for argv in commands:
            rc, out = _assert_verdict_or_one_error(argv[:1] + ["--config", str(path)] + argv[1:])
            # a planner that did not converge did not run on NaN
            assert not (argv == ["solve-dfc"] and rc == 2 and "residual: nan" in out), data


def _assert_verdict_or_one_error(argv) -> tuple[int, str]:
    """The exit code and stdout of `main(argv)`, which must end in a verdict
    or one error line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    assert rc in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue()
    assert err.getvalue().count("error:") <= 1, (argv, err.getvalue())
    assert (rc == 1) == err.getvalue().startswith("error: "), (argv, err.getvalue())
    return rc, out.getvalue()


# a plan that validates, then up to two fields replaced by any JSON value and
# one maybe removed; counts stay small, so any plan that runs takes well
# under a second
_any_json = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats() | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=2)
                   | st.dictionaries(st.text(max_size=3), inner, max_size=2)),
    max_leaves=4,
)
# swept paths, each with a value that is not a number: the structural paths
# take theirs, but the CSV could not print it
_PLAN_PATHS = {"beta": True, "M": True, "r_max": True, "queues[0].flows[0].p_off": True,
               "queues[0].flows[0].lambda": True, "queues[2].flows[1].p_off": True,
               "queues[0].flows": [{"p_off": 0.2}], "queues[0]": {"flows": [{"p_off": 0.2}]},
               "utility.kind": "log"}


@st.composite
def _plan(draw):
    config = dict(draw(_edge_config), M=draw(st.sampled_from([0.5, 100.0])),
                  r_max=draw(st.sampled_from([0.5, 2.0, 700.0])))
    config.setdefault("beta", 1.0)
    horizon = draw(st.integers(1, 40))
    parameter = draw(st.sampled_from(sorted(_PLAN_PATHS)))
    value = st.sampled_from([1.0, 0.5, 2.0, 0.0, 1e308]) | st.just(_PLAN_PATHS[parameter])
    plan = {"config": config,
            "parameter": parameter,
            "values": draw(st.lists(value, min_size=1, max_size=3)),
            "seeds": draw(st.integers(1, 3)),
            "policies": draw(st.lists(st.sampled_from(_POLICY_CHOICES), min_size=1,
                                      max_size=3, unique=True)),
            "horizon": horizon,
            "arrival_mode": draw(st.sampled_from(["fluid", "stochastic"]))}
    if draw(st.booleans()):
        plan["warmup"] = draw(st.integers(0, horizon - 1))
    return plan


_PLAN_FIELDS = ["config", "parameter", "values", "seeds", "policies", "horizon",
                "warmup", "arrival_mode"]


@settings(max_examples=80, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_plan(), st.just({}) | st.dictionaries(st.sampled_from(_PLAN_FIELDS), _any_json,
                                              min_size=1, max_size=2),
       st.none() | st.sampled_from(_PLAN_FIELDS))
def test_sweep_ends_in_a_verdict_or_one_error_line(plan, replaced, removed):
    plan = {**plan, **replaced}
    plan.pop(removed, None)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "p.json"
        path.write_text(json.dumps(plan))
        _assert_verdict_or_one_error(["sweep", "--plan", str(path)])


# output directories under a scratch root: names that exist as files, are
# too long for the file system, or climb back up; never a NUL, which no
# command line can carry
_out_part = st.sampled_from(["a", "file", ".", "..", "", "x" * 300, "é ü", "b-c"])


@settings(max_examples=30, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(sorted(FIGURES)), st.integers(1, 3) | st.sampled_from([0, -1]),
       st.integers(1, 30) | st.sampled_from([0, -1]),
       st.integers(-(1 << 70), 1 << 70), st.lists(_out_part, max_size=3))
def test_reproduce_fig_ends_in_a_verdict_or_one_error_line(figure, seeds, horizon, seed,
                                                           out_parts):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "d1" / "d2" / "d3"  # no part list climbs out of tmp
        root.mkdir(parents=True)
        (root / "file").write_text("")
        out = "/".join([str(root)] + out_parts)
        _assert_verdict_or_one_error(["reproduce-fig", figure, "--seeds", str(seeds),
                                      "--horizon", str(horizon), "--seed", str(seed),
                                      "--out", out])


# ----- solve-dfc -----


def test_solve_dfc_writes_solution(tmp_path, capsys):
    path = write_cfg(tmp_path, "q.json", [[0.1, 0.5]])
    out = tmp_path / "sol.json"
    assert main(["solve-dfc", "--config", path, "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "converged: True" in stdout
    sol = json.loads(out.read_text())
    assert sol["a"][0] == pytest.approx(0.5, abs=1e-6)
    assert sol["lambdas"][0] == pytest.approx([0.45, 0.25], abs=1e-6)
    assert sol["converged"] is True
    assert set(sol) >= {"config", "tau", "objective", "kkt_residual", "iterations"}


def test_all_dead_config_is_a_one_line_error(tmp_path, capsys):
    path = write_cfg(tmp_path, "d.json", [[1.0], [1.0, 1.0]])
    for argv in (["solve-dfc", "--config", path],
                 ["simulate", "--config", path, "--policy", "dfc-static",
                  "--horizon", "1000"]):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "p_off = 1" in err


# ----- simulate -----


def test_simulate_summary_fields(tmp_path, capsys):
    path = write_cfg(tmp_path, "s.json", [[0.2, 0.5]], M=50.0)
    rc = main(["simulate", "--config", path, "--horizon", "5000", "--seed", "1"])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["policy"] == "qfc"
    assert summary["horizon"] == 5000
    visits, serves = summary["state_visits"], summary["state_serves"]
    assert len(visits) == 2 and len(serves) == 2 and len(serves[0]) == 1
    assert sum(visits) == summary["horizon"] - summary["warmup"]
    assert all(sum(row) <= v for row, v in zip(serves, visits))
    assert serves[0] == [0] and serves[1][0] > 0  # served only when ON
    assert summary["stability"]["verdict"] in ("stable", "inconclusive")
    assert set(summary["rng_streams"]) == {"channels", "arrivals", "scheduling", "interleave"}
    assert len(summary["admitted_rate"][0]) == 2


@pytest.mark.parametrize("policy", _POLICY_CHOICES)
def test_simulate_summary_names_the_policy(tmp_path, capsys, policy):
    path = write_cfg(tmp_path, "s.json", [[0.2, 0.5]], lambdas=[[0.1, 0.1]], M=50.0)
    assert main(["simulate", "--config", path, "--policy", policy,
                 "--horizon", "1000"]) in (0, 2)
    assert json.loads(capsys.readouterr().out)["policy"] == policy


def test_simulate_is_reproducible(tmp_path, capsys):
    path = write_cfg(tmp_path, "s.json", [[0.2, 0.5]], M=50.0)
    args = ["simulate", "--config", path, "--horizon", "5000", "--seed", "9"]
    main(args)
    first = capsys.readouterr().out
    main(args)
    assert capsys.readouterr().out == first


def test_simulate_overload_exits_two(tmp_path, capsys):
    path = write_cfg(tmp_path, "u.json", [[0.1, 0.1]], lambdas=[[0.8, 0.8]])
    rc = main(["simulate", "--config", path, "--policy", "static",
               "--horizon", "20000"])
    assert rc == 2
    assert json.loads(capsys.readouterr().out)["stability"]["verdict"] == "unstable"


@pytest.mark.parametrize("budget, field", [
    (["--horizon", "0"], "--horizon"),
    (["--horizon", "5"], "--horizon"),  # the stability verdict needs 10 slots
    (["--horizon", "100", "--warmup", "100"], "--warmup"),
    (["--horizon", "100", "--warmup", "-1"], "--warmup"),
    (["--horizon", "10", "--warmup", "9"], "--warmup"),  # and a slope needs 2 slots
])
def test_simulate_unusable_budget_is_a_one_line_error(tmp_path, capsys, budget, field):
    path = write_cfg(tmp_path, "s.json", [[0.2, 0.5]])
    out = tmp_path / "out.json"
    assert main(["simulate", "--config", path, "--out", str(out)] + budget) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field}: must be") and err.count("\n") == 1
    assert not out.exists()


def test_simulate_static_needs_rates(tmp_path, capsys):
    path = write_cfg(tmp_path, "n.json", [[0.2]])
    rc = main(["simulate", "--config", path, "--policy", "static",
               "--horizon", "1000"])
    assert rc == 1
    assert "queues[0].flows[0].lambda" in capsys.readouterr().err


def test_simulate_static_needs_rates_writes_no_output(tmp_path, capsys):
    path = write_cfg(tmp_path, "n.json", [[0.2]])
    out = tmp_path / "out.json"
    assert main(["simulate", "--config", path, "--policy", "static", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: static policy needs") and err.count("\n") == 1
    assert not out.exists()


def test_simulate_trace_csv(tmp_path, capsys):
    path = write_cfg(tmp_path, "t.json", [[0.2, 0.5]], M=50.0)
    trace = tmp_path / "trace.csv"
    main(["simulate", "--config", path, "--horizon", "500", "--seed", "2",
          "--trace", str(trace)])
    capsys.readouterr()
    lines = trace.read_text().splitlines()
    assert lines[0].startswith("# config=")
    assert lines[1] == "slot,queue,Q_total,served_flow,admitted_0_0,admitted_0_1"
    assert len(lines) == 2 + 500
    first = lines[2].split(",")
    assert first[0] == "0" and first[2] == "0"  # starts empty
    # replay the backlog from the logged admissions and services
    q = 0
    for row in lines[2:]:
        slot, queue, q_tot, _flow, a0, a1 = row.split(",")
        assert int(q_tot) == q
        q += int(a0) + int(a1) - (1 if int(queue) >= 0 else 0)


# two queues of two flows under Poisson arrivals; the literal config (not
# one made by make_cfg) is hashed into both outputs, as for SMALL_PLAN
TRACE_CFG = {"beta": 1.0, "M": 20.0, "r_max": 1.5,
             "utility": {"kind": "log", "weight": 1.0},
             "queues": [{"flows": [{"p_off": 0.2, "lambda": 0.15},
                                   {"p_off": 0.5, "lambda": 0.1}]},
                        {"flows": [{"p_off": 0.3, "lambda": 0.2},
                                   {"p_off": 0.1, "lambda": 0.05}]}]}
# sha256 prefixes of `simulate --trace` at 5,000 slots (past one 4,096-slot
# block), --seed 4: static takes the block path, qfc the per-slot loop
TRACE_SHA = {
    "static": ("6ad45b22b945806b", "cc5fcd6b2a524b2f"),  # (trace CSV, summary JSON)
    "qfc": ("8473862952d8a227", "2988f8b083466b25"),
}


@pytest.mark.parametrize("policy", sorted(TRACE_SHA))
def test_simulate_trace_bytes_are_pinned(tmp_path, capsys, policy):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(TRACE_CFG))
    trace, out = tmp_path / "t.csv", tmp_path / "s.json"
    assert main(["simulate", "--config", str(path), "--policy", policy,
                 "--arrival-mode", "stochastic", "--horizon", "5000", "--seed", "4",
                 "--trace", str(trace), "--out", str(out)]) == 0
    capsys.readouterr()
    digests = tuple(hashlib.sha256(p.read_bytes()).hexdigest()[:16] for p in (trace, out))
    assert digests == TRACE_SHA[policy]


@pytest.mark.parametrize("argv", [
    ["simulate", "--horizon", "2000", "--trace"],
    ["simulate", "--horizon", "2000", "--out"],
    ["solve-dfc", "--out"],
])
def test_unusable_output_path_fails_before_the_work(tmp_path, capsys, argv):
    path = write_cfg(tmp_path, "s.json", [[0.2, 0.5]])
    assert main(argv[:1] + ["--config", path] + argv[1:] + [str(tmp_path)]) == 1
    _one_error_line(capsys)


@pytest.mark.parametrize("policy, lambdas, r_max", [
    ("static", [[1e20]], 2.0),
    ("qfc", None, 1e20),
])
def test_simulate_fluid_rate_limit(tmp_path, capsys, policy, lambdas, r_max):
    path = write_cfg(tmp_path, "r.json", [[0.2]], lambdas=lambdas, r_max=r_max)
    out, trace = tmp_path / "s.json", tmp_path / "t.csv"
    assert main(["simulate", "--config", path, "--policy", policy,
                 "--horizon", "100", "--out", str(out), "--trace", str(trace)]) == 1
    err = _one_error_line(capsys)
    assert "fluid arrivals" in err and "exceeds 700" in err
    # both outputs were opened before the run failed; neither is left behind
    assert not out.exists() and not trace.exists()


@pytest.mark.parametrize("policy, field", [
    ("static", "queues[0].flows[0].lambda"),
    ("qfc", "r_max"),
])
def test_sweep_fluid_rate_limit_fails_before_the_first_run(tmp_path, capsys, policy, field):
    plan = write_plan(tmp_path, "p.json",
                      config=make_cfg([[0.2]], lambdas=[[0.1]]).to_dict(),
                      parameter=field, values=[1.0, 1e20], seeds=1,
                      policies=[policy], horizon=50)
    assert main(["sweep", "--plan", plan]) == 1
    err = _one_error_line(capsys)  # no progress line
    assert "fluid arrivals" in err and "exceeds 700" in err


# ----- sweep -----


def test_degenerate_sweep_matches_direct_run(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, "c.json", [[0.2, 0.5]], M=50.0)
    plan = write_plan(
        tmp_path, "p.json",
        config="c.json", parameter="beta", values=[1.0],
        seeds=1, policies=["qfc"], horizon=20000,
    )
    assert main(["sweep", "--plan", plan, "--seed", "5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "value,total_qfc,total_qfc_se,utility_qfc,utility_qfc_se"
    total = float(lines[2].split(",")[1])
    direct = run(RunSpec(cfg=make_cfg([[0.2, 0.5]], M=50.0), policy="qfc",
                         horizon=20000, seed=5))
    assert total == pytest.approx(direct.total_served_rate(), rel=1e-5)
    assert float(lines[2].split(",")[2]) == 0.0  # single seed: no spread


def test_policies_share_channel_streams():
    results = run_cells([make_cfg([[0.2, 0.5]], M=50.0)], ["qfc", "maxweight"],
                        horizon=2000, seeds=2, master_seed=7, keep=lambda m: m)
    for j in range(2):
        a = results["qfc"][0][j]
        b = results["maxweight"][0][j]
        assert a.rng_streams == b.rng_streams
        assert a.seed == b.seed == 7 + j


def test_run_cells_stores_only_what_keep_returns():
    cfg = make_cfg([[0.2, 0.5]], M=50.0)
    # a point is one config, or one config per replicate
    points = [cfg, [cfg, make_cfg([[0.3]], M=50.0), cfg]]
    results = run_cells(points, ["qfc", "maxweight"], horizon=50, seeds=3,
                        master_seed=11, keep=lambda m: m.seed)
    assert results == {p: [[11, 12, 13]] * 2 for p in ("qfc", "maxweight")}
    # a policy named twice keeps one list of replicates, in lockstep or not
    for policies in (["qfc", "qfc", "maxweight", "maxweight"], ["static", "static"]):
        twice = run_cells([make_cfg([[0.2]], lambdas=[[0.1]])], policies, horizon=50,
                          seeds=1, master_seed=11, keep=lambda m: m.seed)
        assert twice == {p: [[11]] for p in policies}


def test_run_cells_routes_fluid_closed_loop_cells_through_run_batch(capsys):
    # fluid qfc and max-weight cells run in lockstep (q_trace None); fluid
    # dfc-static and every stochastic cell run through run() (q_trace kept)
    points = [make_cfg([[0.2, 0.5]], M=50.0),
              [make_cfg([[0.1, 0.4], [0.3]], M=50.0), make_cfg([[0.6]], M=50.0),
               make_cfg([[0.2, 0.0, 0.7]], M=50.0)]]
    policies = ["qfc", "dfc-static", "maxweight"]

    def keep(m):
        return (m.q_trace is None, m.seed, m.policy_name, m.admitted_packets,
                m.served_rate, m.state_visits.tolist(), m.state_serves.tolist())

    for mode in ("fluid", "stochastic"):
        got = run_cells(points, policies, horizon=3000, seeds=3, master_seed=21,
                        keep=keep, warmup=300, arrival_mode=mode)
        err = capsys.readouterr().err.splitlines()
        assert [line.split(" done,")[0] for line in err] == [
            "wfifo: point 1/2", "wfifo: point 2/2"]
        for p in policies:
            lockstep = mode == "fluid" and p != "dfc-static"
            for i, point in enumerate(points):
                cfgs = point if isinstance(point, list) else [point] * 3
                want = [keep(run(RunSpec(cfg=cfg, policy=p, horizon=3000, warmup=300,
                                         seed=21 + j, arrival_mode=mode)))
                        for j, cfg in enumerate(cfgs)]
                assert got[p][i] == [(lockstep,) + w[1:] for w in want]
    # too few lockstep cells to pay for a batch: one run() each
    few = run_cells(points[:1], ["qfc"], horizon=100, seeds=3,
                    master_seed=0, keep=lambda m: m.q_trace is None)
    assert 3 < LOCKSTEP_MIN_RUNS and few == {"qfc": [[False] * 3]}
    # as many as LOCKSTEP_MIN_RUNS: one batch
    enough = run_cells(points[:1], ["qfc", "maxweight"], horizon=100, seeds=2,
                       master_seed=0, keep=lambda m: m.q_trace is None)
    assert 2 * 2 == LOCKSTEP_MIN_RUNS and enough == {"qfc": [[True] * 2], "maxweight": [[True] * 2]}


def test_qfc_total_rate_grows_with_beta():
    plan = ExperimentPlan(
        config=make_cfg(FIG7A_ROWS, M=100.0).to_dict(),
        parameter="beta", values=[1.0, 1.5, 2.0], seeds=1,
        policies=["qfc"], horizon=150_000,
    )
    results = run_plan(plan, master_seed=1)
    _, rows = plan_rows(plan, results)
    totals = [row[1] for row in rows]
    for lo, hi in zip(totals, totals[1:]):
        assert hi >= lo - 0.003, totals


def test_plan_validation_errors(tmp_path):
    base = make_cfg([[0.2, 0.5]]).to_dict()
    good = dict(config=base, parameter="beta", values=[1.0],
                seeds=1, policies=["qfc"], horizon=100)

    def load(**overrides):
        fields = dict(good, **overrides)
        return ExperimentPlan.load(write_plan(tmp_path, "bad.json", **fields))

    with pytest.raises(ConfigError, match="seeds"):
        load(seeds=0)
    with pytest.raises(ConfigError, match="unknown policy"):
        load(policies=["edf"])
    with pytest.raises(ConfigError, match="unknown parameter path"):
        load(parameter="queues[0].flows[9].p_off")
    with pytest.raises(ConfigError, match="p_off"):
        load(parameter="queues[0].flows[1].p_off", values=[1.5])
    with pytest.raises(ConfigError, match="missing field"):
        ExperimentPlan.load(write_plan(tmp_path, "empty.json", config=base))
    # a static policy replays the config's rates, so it needs them
    with pytest.raises(ConfigError, match="static policy needs explicit arrival "
                       r"rates .* queues\[0\]\.flows\[0\]\.lambda"):
        load(policies=["qfc", "static"])
    rated = make_cfg([[0.2, 0.5]], lambdas=[[0.1, 0.2]]).to_dict()
    assert load(config=rated, policies=["static"]).policies == ["static"]


def test_sweep_of_a_left_out_optional_field(tmp_path, capsys):
    # config_from_dict gives beta, M, r_max, utility.weight and a flow's
    # lambda defaults, so a plan may sweep them where its config leaves them
    # out; writing the swept field out at its default changes nothing, not
    # even the digest
    flows = [{"p_off": 0.2}, {"p_off": 0.5}]
    plan = dict(parameter="beta", values=[1.0, 2.0], seeds=1, policies=["qfc"], horizon=300)
    for parameter, written in (("beta", {"beta": 1.0}),
                               ("utility.weight", {"utility": {"weight": 1.0}})):
        csv = []
        for config in ({"queues": [{"flows": flows}]},
                       {**written, "queues": [{"flows": flows}]}):
            out = tmp_path / f"s{len(csv)}.csv"
            argv = ["sweep", "--plan", write_plan(tmp_path, "p.json", config=config,
                                                  **dict(plan, parameter=parameter)),
                    "--out", str(out)]
            assert main(argv) == 0
            csv.append(out.read_bytes())
        assert csv[0] == csv[1]
    for parameter in ("M", "r_max", "utility.weight", "queues[0].flows[1].lambda"):
        swept = ExperimentPlan.load(write_plan(
            tmp_path, "q.json", config={"queues": [{"flows": flows}]},
            **dict(plan, parameter=parameter, values=[0.25])))
        assert swept.config_at(0.25).to_dict() != swept.config_at(0.5).to_dict()
    # a name config_from_dict does not read stays an error
    for parameter in ("gamma", "utility.kind", "utility.gamma", "queues[0].flows[1].mu",
                      "queues[0].flows[1].lambda[0]"):
        with pytest.raises(ConfigError, match="unknown parameter path"):
            ExperimentPlan.load(write_plan(
                tmp_path, "r.json", config={"queues": [{"flows": flows}]},
                **dict(plan, parameter=parameter)))
    capsys.readouterr()


def test_plan_cli_error_exit_code(tmp_path, capsys):
    plan = write_plan(tmp_path, "p0.json",
                      config=make_cfg([[0.2]]).to_dict(), parameter="beta",
                      values=[1.0], seeds=0, policies=["qfc"], horizon=100)
    assert main(["sweep", "--plan", plan]) == 1
    assert "seeds" in capsys.readouterr().err


@pytest.mark.parametrize("budget", [{"horizon": 0}, {"warmup": 100}, {"warmup": -1}])
def test_plan_unusable_budget_is_a_one_line_error(tmp_path, capsys, budget):
    fields = dict(config=make_cfg([[0.2]]).to_dict(), parameter="beta",
                  values=[1.0], seeds=1, policies=["qfc"], horizon=100)
    plan = write_plan(tmp_path, "p.json", **(fields | budget))
    assert main(["sweep", "--plan", plan]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: plan: ") and err.count("\n") == 1


@pytest.mark.parametrize("field", [
    {"horizon": "x"}, {"horizon": None}, {"horizon": 100.5}, {"horizon": True},
    {"seeds": "x"}, {"seeds": True}, {"warmup": "x"}, {"warmup": [1]},
    {"values": 3}, {"values": "1.0"}, {"policies": 5}, {"policies": "qfc"},
    {"arrival_mode": "burst"},
])
def test_plan_badly_typed_field_is_a_one_line_error(tmp_path, capsys, field):
    fields = dict(config=make_cfg([[0.2]]).to_dict(), parameter="beta",
                  values=[1.0], seeds=1, policies=["qfc"], horizon=100)
    plan = write_plan(tmp_path, "p.json", **(fields | field))
    assert main(["sweep", "--plan", plan]) == 1
    captured = capsys.readouterr()
    name = next(iter(field))
    assert captured.err.startswith(f"error: plan: {name}: must be")
    assert captured.err.count("\n") == 1 and captured.out == ""


@pytest.mark.parametrize("parameter, value", [
    ("queues[0].flows", [{"p_off": 0.2}]),
    ("queues[0]", {"flows": [{"p_off": 0.2}]}),
    ("utility.kind", "log"),
    ("beta", True),
])
def test_sweep_of_a_value_that_is_not_a_number_is_a_one_line_error(tmp_path, capsys,
                                                                   parameter, value):
    # the config takes each of these values, but the CSV prints every swept
    # value as a number, so the plan is refused before the first run
    plan = write_plan(tmp_path, "p.json", config=make_cfg([[0.2]]).to_dict(),
                      parameter=parameter, values=[1.0, value], seeds=1,
                      policies=["qfc"], horizon=50)
    assert main(["sweep", "--plan", plan]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: plan: values: must be JSON numbers, got ")
    assert captured.err.count("\n") == 1 and captured.out == ""


def test_plan_integral_json_numbers_are_counts(tmp_path):
    fields = dict(config=make_cfg([[0.2]]).to_dict(), parameter="beta",
                  values=[1.0], seeds=2.0, policies=["qfc"], horizon=1e3,
                  warmup=1e2)
    plan = ExperimentPlan.load(write_plan(tmp_path, "p.json", **fields))
    assert (plan.seeds, plan.horizon, plan.warmup) == (2, 1000, 100)
    assert all(type(v) is int for v in (plan.seeds, plan.horizon, plan.warmup))


def test_sweep_output_path_error_is_one_line(tmp_path, capsys):
    plan = write_plan(tmp_path, "p.json", config=make_cfg([[0.2]]).to_dict(),
                      parameter="beta", values=[1.0], seeds=1,
                      policies=["qfc"], horizon=50)
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = str(blocker / "x.csv")
    assert main(["sweep", "--plan", plan, "--out", out]) == 1
    # the path is opened before the first run, so no progress line comes first
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


def test_sweep_prints_one_progress_line_per_value(tmp_path, capsys):
    plan = write_plan(tmp_path, "p.json", **SMALL_PLAN)
    assert main(["sweep", "--plan", plan, "--seed", "3"]) == 0
    captured = capsys.readouterr()
    assert hashlib.sha256(captured.out.encode()).hexdigest()[:16] == "657754d7f2679d30"
    lines = captured.err.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("wfifo: point 1/2 ") and lines[0].endswith(" s elapsed")
    assert lines[1].startswith("wfifo: point 2/2 ")


def test_plan_sweeps_nested_fields(tmp_path):
    plan = ExperimentPlan(
        config=make_cfg([[0.2, 0.5]]).to_dict(),
        parameter="queues[0].flows[1].p_off", values=[0.1, 0.9],
        seeds=1, policies=["qfc"], horizon=100,
    )
    assert plan.config_at(0.9).queues[0].flows[1].p_off == 0.9
    assert plan.config_at(0.9).queues[0].flows[0].p_off == 0.2


# ----- reproduce-fig -----


@pytest.mark.parametrize("budget, field", [
    (["--seeds", "0"], "--seeds"),
    (["--seeds", "-2"], "--seeds"),
    (["--horizon", "0"], "--horizon"),
])
def test_recipe_unusable_budget_is_a_one_line_error(tmp_path, capsys, budget, field):
    assert main(["reproduce-fig", "fig6", "--out", str(tmp_path)] + budget) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field}: must be >= 1") and err.count("\n") == 1
    assert not list(tmp_path.iterdir())


def test_recipe_output_path_error_is_one_line(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main(["reproduce-fig", "fig6", "--seeds", "1", "--horizon", "50",
                 "--out", str(blocker)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


@pytest.mark.parametrize("seeds, expect", [
    (2 ** 61, "too large for this machine"),  # the run list is refused unallocated
    (10 ** 30, "seeds: must be"),  # past any list index: rejected as input
])
@pytest.mark.parametrize("command", ["reproduce-fig", "sweep"])
def test_too_many_replicates_is_a_one_line_error(tmp_path, capsys, command, seeds, expect):
    # fails at once (fig6's pool loop would fill memory slowly instead)
    if command == "sweep":
        plan = write_plan(tmp_path, "p.json", **dict(SMALL_PLAN, seeds=float(seeds)))
        out = tmp_path / "s.csv"
        argv = ["sweep", "--plan", plan, "--out", str(out)]
    else:
        out = tmp_path / "fig5a.csv"
        argv = ["reproduce-fig", "fig5a", "--seeds", str(seeds), "--out", str(tmp_path)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and expect in err and err.count("\n") == 1
    assert not out.exists()  # no empty CSV that looks like a result


@pytest.mark.parametrize("command, horizon, expect", [
    ("simulate", 2 ** 62, "too large for this machine"),
    ("simulate", 10 ** 20, "too large for this machine"),
    ("sweep", 2 ** 62, "too large for this machine"),
    ("sweep", 10 ** 20, "plan: horizon: must be at most"),  # past int64: rejected as input
])
def test_oversized_horizon_is_a_one_line_error(tmp_path, capsys, command, horizon, expect):
    # the block path's (horizon, N) backlog trace is refused before it is
    # allocated: numpy could not make it (2**62 slots x 4 bytes passes its
    # size limit, 10**20 its dimension limit)
    cfg = make_cfg([[0.1, 0.5]], lambdas=[[0.2, 0.1]])
    out = tmp_path / "out"
    if command == "sweep":
        plan = write_plan(tmp_path, "p.json", config=cfg.to_dict(), parameter="beta",
                          values=[1.0], seeds=1, policies=["static"], horizon=horizon)
        argv = ["sweep", "--plan", plan, "--out", str(out)]
    else:
        path = write_cfg(tmp_path, "c.json", [[0.1, 0.5]], lambdas=[[0.2, 0.1]])
        argv = ["simulate", "--config", path, "--policy", "static",
                "--horizon", str(horizon), "--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: " + expect) and err.count("\n") == 1
    assert not out.exists()


# sha256 prefixes of the CSVs at --seeds 2 --horizon 2000 --seed 0, re-pinned
# when same-slot arrivals became ordered by counter-based interleave keys;
# fig8a's one planner cell is the correctly rounded optimum of the closed
# form below since the planner became proportional response
RECIPE_SHA = {
    "fig5a": "072eba0926426916",
    "fig5b": "45401915a695606d",
    "fig6": "553f36f30ea1c30a",
    "fig7a": "3184c51caeea57f2",
    "fig7b": "19c08115c85bbb18",
    "fig8a": "7504ad6a4f6ded38",  # pm2=0.3 lambda_m2_dfc 0.164429 -> 0.16443
    "fig8b": "08d8f480990cac82",
    # SMALL_PLAN at --seed 3; re-pinned when stochastic arrivals became
    # inverse-CDF draws from one uniform block per 4,096 slots, and again
    # with the interleave keys
    "sweep": "657754d7f2679d30",
}


@pytest.mark.parametrize("name", sorted(RECIPE_SHA))
def test_csv_bytes_are_pinned(tmp_path, capsys, name):
    if name == "sweep":
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--plan", write_plan(tmp_path, "p.json", **SMALL_PLAN),
                "--seed", "3", "--out", str(out)]
    else:
        out = tmp_path / f"{name}.csv"
        argv = ["reproduce-fig", name, "--seeds", "2", "--horizon", "2000",
                "--seed", "0", "--out", str(tmp_path)]
    assert main(argv) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest()[:16] == RECIPE_SHA[name]


def test_fig5a_recipe_contract(tmp_path, capsys):
    args = ["reproduce-fig", "fig5a", "--seeds", "1", "--horizon", "3000",
            "--out", str(tmp_path)]
    assert main(args) == 0
    capsys.readouterr()
    out = tmp_path / "fig5a.csv"
    text = out.read_text()
    lines = text.splitlines()
    assert lines[0].startswith("# config=") and "seed=0" in lines[0]
    assert lines[1].startswith(
        "p2,lambda1_qfc,lambda2_qfc,lambda1_mw,lambda2_mw,lambda1_dfc,lambda2_dfc"
    )
    assert len(lines) == 2 + 9  # p2 grid 0.1 .. 0.9
    assert lines[2].split(",")[0] == "0.1"
    # reruns are byte-identical
    main(args)
    capsys.readouterr()
    assert out.read_text() == text


def test_fig6_recipe_reports_rate_ratio(tmp_path, capsys):
    assert main(["reproduce-fig", "fig6", "--seeds", "1", "--horizon", "3000",
                 "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    lines = (tmp_path / "fig6.csv").read_text().splitlines()
    header = lines[1].split(",")
    assert "ratio_qfc_mw" in header
    assert [row.split(",")[0] for row in lines[2:]] == ["2", "4", "6", "8", "10"]


def test_fig8_dfc_rates_match_the_closed_form():
    # queue n's flows are always ON, so the only contended state is both ON
    # (0b11) and the queues' equal weights split it where their marginal
    # utilities meet: x = (c_n(0b11) - c_n(0b01)) / (2 c_n(0b11)) to queue n
    for pm2 in _UNIT_GRID:
        cfg = _fig8_cfg(pm2)
        c = inner_coefficients(cfg)
        x = (c[0, 0b11] - c[0, 0b01]) / (2.0 * c[0, 0b11])
        assert 0.0 < x < 1.0
        a_n = c[0, 0b01] + x * c[0, 0b11]
        a_m = (1.0 - x) * c[1, 0b11]
        want = [(a_n, a_n), (a_m, a_m * (1.0 - pm2) ** 2)]
        got = solve_dfc(cfg).lambdas
        for got_row, want_row in zip(got, want):
            assert got_row == pytest.approx(want_row, abs=1e-6), pm2
