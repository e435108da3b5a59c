import json
from pathlib import Path

import pytest

from helpers import make_cfg
from wfifo import ConfigError, RunSpec, run
from wfifo.cli import ExperimentPlan, main, plan_rows, run_plan

FIG7A_ROWS = [[0.1, 0.5], [0.1, 0.5]]


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


def test_usage_errors_exit_one():
    with pytest.raises(SystemExit) as ei:
        main([])
    assert ei.value.code == 1
    with pytest.raises(SystemExit) as ei:
        main(["reproduce-fig", "fig99"])
    assert ei.value.code == 1


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
    assert summary["stability"]["verdict"] in ("stable", "inconclusive")
    assert set(summary["rng_streams"]) == {"channels", "arrivals", "scheduling"}
    assert len(summary["admitted_rate"][0]) == 2


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


def test_simulate_static_needs_rates(tmp_path, capsys):
    path = write_cfg(tmp_path, "n.json", [[0.2]])
    rc = main(["simulate", "--config", path, "--policy", "static",
               "--horizon", "1000"])
    assert rc == 1
    assert "queues[0].flows[0].lambda" in capsys.readouterr().err


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
    plan = ExperimentPlan(
        config=make_cfg([[0.2, 0.5]], M=50.0).to_dict(),
        parameter="beta", values=[1.0], seeds=2,
        policies=["qfc", "maxweight"], horizon=2000,
    )
    results = run_plan(plan, master_seed=7)
    for j in range(2):
        a = results["qfc"][0][j]
        b = results["maxweight"][0][j]
        assert a.rng_streams == b.rng_streams
        assert a.seed == b.seed == 7 + j


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


def test_plan_cli_error_exit_code(tmp_path, capsys):
    plan = write_plan(tmp_path, "p0.json",
                      config=make_cfg([[0.2]]).to_dict(), parameter="beta",
                      values=[1.0], seeds=0, policies=["qfc"], horizon=100)
    assert main(["sweep", "--plan", plan]) == 1
    assert "seeds" in capsys.readouterr().err


def test_plan_sweeps_nested_fields(tmp_path):
    plan = ExperimentPlan(
        config=make_cfg([[0.2, 0.5]]).to_dict(),
        parameter="queues[0].flows[1].p_off", values=[0.1, 0.9],
        seeds=1, policies=["qfc"], horizon=100,
    )
    assert plan.config_at(0.9).queues[0].flows[1].p_off == 0.9
    assert plan.config_at(0.9).queues[0].flows[0].p_off == 0.2


# ----- reproduce-fig -----


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
