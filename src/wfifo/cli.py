"""Command-line front end: analysis, solving, simulation, sweeps, recipes.

Exit codes: 0 for success (and a feasible/stable verdict where one applies),
1 for usage or parse errors, 2 for an infeasible or unstable verdict.

Every CSV starts with one '#' comment recording the config digest, master
seed, horizon, and package version; bodies are written with 6 significant
digits, ',' separators, '.' decimal points, and LF line endings, so equal
headers imply byte-identical bodies.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import math
import re
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import IO, Any, Callable, Iterator, Optional, Sequence

import numpy as np

from . import __version__
from .core import (
    ConfigError,
    FlowSpec,
    NetworkConfig,
    QueueSpec,
    SchedulingPolicy,
    config_digest,
    config_from_dict,
    load_config,
    read_json,
)
from .dfc import DfcSolution, solve_dfc
from .lockstep import run_batch
from .markov import single_queue_steady_state
from .sim import (
    MIN_VERDICT_SLOTS,
    RunSpec,
    check_poisson_rates,
    run,
    stream_seed,
)
from .stability import (
    Margin,
    best_policy_search,
    check_inner_bound,
    check_stability_region,
    single_queue_margin,
)

RECIPE_M = 100.0  # drift-vs-utility constant used by the bundled recipes
RECIPE_R_MAX = 2.0

_POLICY_CHOICES = ("qfc", "maxweight", "dfc-static", "static")


def _fmt(x: Any) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.6g}"


def _round6(x: float) -> float:
    return float(f"{float(x):.6g}")


def _digest_obj(obj: Any) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@contextlib.contextmanager
def _open_out(out: Optional[str], stdout: bool = True) -> Iterator[Optional[IO[str]]]:
    """Open an output file, creating its directory; when `out` is None,
    stdout, or None if `stdout` is false.

    Entered before the work starts, so an unusable path fails at once. If
    the work raises, a regular file it opened is deleted, so a failed
    command leaves nothing that looks like a result; that includes a file
    that was there before, which opening it truncated.
    """
    if out is None:
        yield sys.stdout if stdout else None
        return
    Path(out).parent.mkdir(parents=True, exist_ok=True)
    fh = open(out, "w", encoding="utf-8", newline="\n")
    try:
        with fh:
            yield fh
    except BaseException:
        if Path(out).is_file():  # not a device such as /dev/null
            Path(out).unlink(missing_ok=True)
        raise


def _write_csv(
    fh: IO[str],
    digest: str,
    seed: int,
    horizon: int,
    columns: list[str],
    rows: list[list[Any]],
) -> None:
    lines = [
        f"# config={digest} seed={seed} horizon={horizon} version={__version__}",
        ",".join(columns),
    ]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    fh.write("\n".join(lines) + "\n")


def _mean_se(xs: list[float]) -> tuple[float, float]:
    n = len(xs)
    m = math.fsum(xs) / n
    if n < 2:
        return m, 0.0
    var = math.fsum((x - m) ** 2 for x in xs) / (n - 1)
    return m, math.sqrt(var / n)


# ----- analyze -----


def _slack_str(v: float) -> str:
    if v == -math.inf:
        return "-inf"
    return f"{v:+.6g}"


def _check_hol_work(cfg: NetworkConfig, lambdas: list[list[float]]) -> None:
    """Reject rates whose total head-of-line work sum(lambda / p_on) leaves
    float range: every closed form divides by a queue's share of it."""
    try:
        work = math.fsum(lam / (1.0 - p) for n in range(cfg.n_queues)
                         for lam, p in zip(lambdas[n], cfg.p_off_row(n)) if lam > 0.0 and p < 1.0)
    except OverflowError:
        work = math.inf
    if work == math.inf:
        raise ConfigError("queues[*].flows[*].lambda: head-of-line work "
                          "sum(lambda / p_on) overflows float range")


def _print_subset_check(service: Margin, lambdas: list[list[float]]) -> None:
    key = min(service.slacks, key=service.slacks.get)  # first of equal slacks
    mask = int(key.removeprefix("subset[").removesuffix("]"))
    queues = [n for n in range(len(lambdas)) if mask >> n & 1]
    slack = service.slacks[key]
    names = "{" + ",".join(map(str, queues)) + "}"
    print("service check (best stationary split, by subsets of queues):")
    print(f"  worst subset slack = {_slack_str(slack)}")
    if slack == -math.inf:
        print(f"  binding subset: queues {names} hold a flow with p_on = 0 and positive rate")
    else:
        need = math.fsum(lam for n in queues for lam in lambdas[n])
        print(f"  binding subset: queues {names} need {_fmt(need)} of the slots, "
              f"and at least one of them is serviceable in {_fmt(need + slack)}")


def cmd_analyze(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    missing = cfg.missing_lambda_fields()
    if missing:
        print(
            "error: analyze needs explicit arrival rates; missing: "
            + ", ".join(missing),
            file=sys.stderr,
        )
        return 1
    lambdas = cfg.lambdas()
    _check_hol_work(cfg, lambdas)
    print(f"config {config_digest(cfg)}: {cfg.n_queues} queue(s), "
          f"{sum(cfg.n_flows(n) for n in range(cfg.n_queues))} flow(s), "
          f"beta={_fmt(cfg.beta)}")

    queue_ok = True
    for n in range(cfg.n_queues):
        lam_row = lambdas[n]
        p_row = cfg.p_off_row(n)
        print(f"queue {n}:")
        print("  lambda = " + ", ".join(_fmt(v) for v in lam_row))
        print("  p_off  = " + ", ".join(_fmt(v) for v in p_row))
        try:
            ss = single_queue_steady_state(lam_row, p_row)
            print(f"  P[serviceable] = {_fmt(ss.p_serviceable)}")
            print("  P[blocked by flow k] = "
                  + ", ".join(_fmt(v) for v in ss.p_blocked))
            print("  P[HOL from flow k]   = "
                  + ", ".join(_fmt(v) for v in ss.p_hol))
        except ValueError as exc:
            print(f"  head-of-line distribution unavailable: {exc}")
        margin = single_queue_margin(lam_row, p_row)
        print(f"  load slack = {_slack_str(margin.min_slack)}")
        queue_ok = queue_ok and margin.feasible

    if cfg.n_queues <= 2:
        policy, service = best_policy_search(cfg, lambdas)
        print("service check (best stationary split):")
        for key, slack in sorted(service.slacks.items()):
            if key.startswith("rate"):
                print(f"  {key}: {_slack_str(slack)}")
        print(f"  worst slack = {_slack_str(service.min_slack)}")
        inner_label = ""
    else:
        service = check_stability_region(cfg, lambdas)
        _print_subset_check(service, lambdas)
        policy = SchedulingPolicy.uniform_over_on(cfg.n_queues)
        inner_label = "uniform split among serviceable queues; "

    absorbing = any(
        lam > 0.0 and p >= 1.0
        for n in range(cfg.n_queues)
        for lam, p in zip(lambdas[n], cfg.p_off_row(n))
    )
    if absorbing:
        print("inner bound: skipped (a flow with p_on = 0 has positive rate)")
    else:
        a = []
        for n in range(cfg.n_queues):
            ratios = [
                lam / (1.0 - p) ** cfg.beta
                for lam, p in zip(lambdas[n], cfg.p_off_row(n))
                if lam > 0.0
            ]
            a.append(max(ratios) if ratios else 0.0)
        inner = check_inner_bound(cfg, a, policy)
        print(f"inner bound ({inner_label}per-queue scale a_n = max_k lambda/p_on^beta):")
        for key, slack in sorted(inner.slacks.items()):
            if key.startswith("scale"):
                print(f"  {key}: {_slack_str(slack)}")

    feasible = queue_ok and service.feasible
    print(f"verdict: {'feasible' if feasible else 'infeasible'}")
    return 0 if feasible else 2


# ----- solve-dfc -----


def _solution_dict(cfg: NetworkConfig, sol: DfcSolution) -> dict[str, Any]:
    return {
        "config": config_digest(cfg),
        "version": __version__,
        "a": [_round6(v) for v in sol.a],
        "lambdas": [[_round6(v) for v in row] for row in sol.lambdas],
        "tau": [[_round6(v) for v in row] for row in sol.tau.tolist()],
        "objective": _round6(sol.objective),
        "kkt_residual": float(sol.kkt_residual),
        "iterations": sol.iterations,
        "converged": sol.converged,
    }


def cmd_solve_dfc(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    with _open_out(args.out, stdout=False) as fh:
        sol = solve_dfc(cfg)
        print(f"config {config_digest(cfg)}")
        print(f"converged: {sol.converged}  iterations: {sol.iterations}  "
              f"residual: {sol.kkt_residual:.3g}")
        print(f"objective: {_fmt(sol.objective)}")
        for n in range(cfg.n_queues):
            print(f"queue {n}: a = {_fmt(sol.a[n])}, rates = "
                  + ", ".join(_fmt(v) for v in sol.lambdas[n]))
        if cfg.n_queues <= 4:
            print("slot shares by channel state (rows: state bits, LSB = queue 0):")
            for s in range(1 << cfg.n_queues):
                bits = format(s, f"0{cfg.n_queues}b")
                print(f"  {bits}: " + ", ".join(_fmt(v) for v in sol.tau[s]))
        if fh is not None:
            json.dump(_solution_dict(cfg, sol), fh, indent=2)
            fh.write("\n")
    return 0 if sol.converged else 2


# ----- simulate -----


def _summary_dict(spec: RunSpec, metrics, verdict) -> dict[str, Any]:
    return {
        "config": config_digest(spec.cfg),
        "version": __version__,
        "policy": metrics.policy_name,
        "horizon": metrics.horizon,
        "warmup": metrics.warmup,
        "seed": metrics.seed,
        "arrival_mode": spec.arrival_mode,
        "admitted_rate": [
            [_round6(v) for v in row] for row in metrics.admitted_rate
        ],
        "served_rate": [
            [_round6(v) for v in row] for row in metrics.served_rate
        ],
        "total_admitted_rate": _round6(metrics.total_admitted_rate()),
        "total_served_rate": _round6(metrics.total_served_rate()),
        "utility": _round6(metrics.utility),
        "final_backlog": list(metrics.final_backlog),
        # post-warmup slots per joint HOL state (bit n: queue n serviceable),
        # and per state the slots granted to each queue
        "state_visits": metrics.state_visits.tolist(),
        "state_serves": metrics.state_serves.tolist(),
        "stability": {
            "verdict": verdict.verdict,
            "slope": _round6(verdict.slope),
            "max_backlog": verdict.max_backlog,
        },
        "rng_streams": metrics.rng_streams,
    }


def _write_trace_csv(fh: IO[str], cfg: NetworkConfig, metrics) -> None:
    horizon = metrics.horizon
    offsets, names = [], []
    total_flows = 0
    for n in range(cfg.n_queues):
        offsets.append(total_flows)
        for k in range(cfg.n_flows(n)):
            names.append(f"admitted_{n}_{k}")
        total_flows += cfg.n_flows(n)
    adm = np.zeros((horizon, total_flows), dtype=np.int32)
    for n, log in enumerate(metrics.trace["arrival_order"]):
        for k, born in log:
            adm[born, offsets[n] + k] += 1
    q_total = metrics.q_trace.sum(axis=1)
    served_by_slot = metrics.trace["served_by_slot"]
    cursors = [0] * cfg.n_queues
    departures = metrics.trace["departure_order"]
    fh.write(f"# config={config_digest(cfg)} seed={metrics.seed} "
             f"horizon={horizon} version={__version__}\n")
    fh.write("slot,queue,Q_total,served_flow," + ",".join(names) + "\n")
    for t in range(horizon):
        q = int(served_by_slot[t])
        if q >= 0:
            flow = departures[q][cursors[q]][0]
            cursors[q] += 1
        else:
            flow = -1
        fh.write(f"{t},{q},{int(q_total[t])},{flow},"
                 + ",".join(str(int(v)) for v in adm[t]) + "\n")


def _check_budget(horizon: int, warmup: Optional[int], min_horizon: int, prefix: str,
                  min_window: int = 1) -> None:
    """Reject a run length the engine (or the stability verdict) cannot use."""
    if horizon < min_horizon:
        raise ConfigError(f"{prefix}horizon: must be >= {min_horizon}, got {horizon}")
    if warmup is not None and not (0 <= warmup <= horizon - min_window):
        raise ConfigError(f"{prefix}warmup: must be in [0, {horizon - min_window}], got {warmup}")


def cmd_simulate(args: argparse.Namespace) -> int:
    # the summary carries a stability verdict, which needs a minimum trace
    # and a window of 2 slots after the warmup
    _check_budget(args.horizon, args.warmup, MIN_VERDICT_SLOTS, "--", min_window=2)
    cfg = load_config(args.config)
    spec = RunSpec(
        cfg=cfg,
        policy=args.policy,
        horizon=args.horizon,
        warmup=args.warmup,
        seed=args.seed,
        arrival_mode=args.arrival_mode,
        record_trace=args.trace is not None,
    )
    with _open_out(args.out) as out, _open_out(args.trace, stdout=False) as trace:
        metrics = run(spec)
        verdict = metrics.stability()
        out.write(json.dumps(_summary_dict(spec, metrics, verdict), indent=2) + "\n")
        if trace is not None:
            _write_trace_csv(trace, cfg, metrics)
    return 2 if verdict.verdict == "unstable" else 0


# ----- sweep -----


_PATH_TOKEN = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)((?:\[\d+\])*)$")

# a flow's arrival rate has no default, so a plan may sweep it where its
# config leaves it out
_FLOW_LAMBDA = re.compile(r"queues\[\d+\]\.flows\[\d+\]\.lambda")


def _fill_default(config: Any, path: str) -> None:
    """Write the numeric field `path` names at its `NetworkConfig` default
    where the config leaves it out (beta, M, r_max, utility.weight), so that
    leaving it out and writing that default out give one plan and one CSV."""
    node, default = config, NetworkConfig(queues=[]).to_dict()
    *heads, leaf = path.split(".")
    for name in heads:
        if not (isinstance(node, dict) and isinstance(default.get(name), dict)):
            return
        node, default = node.setdefault(name, {}), default[name]
    if isinstance(node, dict) and isinstance(default.get(leaf), float):
        node.setdefault(leaf, default[leaf])


def _set_field(data: dict, path: str, value: Any) -> None:
    node: Any = data
    tokens = path.split(".")
    optional = _FLOW_LAMBDA.fullmatch(path) is not None
    for i, token in enumerate(tokens):
        m = _PATH_TOKEN.match(token)
        if m is None:
            raise ConfigError(f"plan: bad parameter path segment {token!r}")
        name, idx_part = m.group(1), m.group(2)
        indexes = [int(v) for v in re.findall(r"\[(\d+)\]", idx_part)]
        last = i == len(tokens) - 1
        if not isinstance(node, dict) or name not in node and not (last and optional):
            raise ConfigError(f"plan: unknown parameter path {path!r}")
        if last and not indexes:
            node[name] = value
            return
        node = node[name]
        for j, idx in enumerate(indexes):
            if not isinstance(node, list) or idx >= len(node):
                raise ConfigError(f"plan: unknown parameter path {path!r}")
            if last and j == len(indexes) - 1:
                node[idx] = value
                return
            node = node[idx]


def _plan_int(key: str, value: Any) -> int:
    # JSON has one number type: 1e6 is an integer count, true is not
    integral = isinstance(value, int) or isinstance(value, float) and value.is_integer()
    if isinstance(value, bool) or not integral:
        raise ConfigError(f"plan: {key}: must be an integer, got {value!r}")
    if value > sys.maxsize:  # no list or array can be that long
        raise ConfigError(f"plan: {key}: must be at most {sys.maxsize}, got {value!r}")
    return int(value)


@dataclass
class ExperimentPlan:
    """A parameter sweep: base config, swept field, grid, seeds, policies."""

    config: dict
    parameter: str
    values: list
    seeds: int
    policies: list[str]
    horizon: int
    warmup: Optional[int] = None
    arrival_mode: str = "fluid"

    @classmethod
    def load(cls, path: str) -> "ExperimentPlan":
        raw = read_json(path)
        if not isinstance(raw, dict):
            raise ConfigError("plan: expected a JSON object")
        required = ("config", "parameter", "values", "seeds", "policies", "horizon")
        for key in required:
            if key not in raw:
                raise ConfigError(f"plan: missing field {key!r}")
        config = raw["config"]
        if isinstance(config, str):
            config = read_json(Path(path).parent / config)
        parameter = str(raw["parameter"])
        _fill_default(config, parameter)
        for key in ("values", "policies"):
            if not isinstance(raw[key], list):
                raise ConfigError(f"plan: {key}: must be a list, got {raw[key]!r}")
        warmup = raw.get("warmup")
        plan = cls(
            config=config,
            parameter=parameter,
            values=raw["values"],
            seeds=_plan_int("seeds", raw["seeds"]),
            policies=[str(p) for p in raw["policies"]],
            horizon=_plan_int("horizon", raw["horizon"]),
            warmup=None if warmup is None else _plan_int("warmup", warmup),
            arrival_mode=str(raw.get("arrival_mode", "fluid")),
        )
        plan.validate()
        return plan

    def validate(self) -> None:
        if self.seeds < 1:
            raise ConfigError("plan: seeds must be >= 1")
        _check_budget(self.horizon, self.warmup, 1, "plan: ")
        if not self.values:
            raise ConfigError("plan: values must be non-empty")
        # the CSV prints each value as a number, so a sweep sets only numbers
        for value in self.values:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ConfigError(f"plan: values: must be JSON numbers, got {value!r}")
        if not self.policies:
            raise ConfigError("plan: policies must be non-empty")
        if self.arrival_mode not in ("fluid", "stochastic"):
            raise ConfigError(f"plan: arrival_mode: must be 'fluid' or "
                              f"'stochastic', got {self.arrival_mode!r}")
        for p in self.policies:
            if p not in _POLICY_CHOICES:
                raise ConfigError(
                    f"plan: unknown policy {p!r} (choose from "
                    + ", ".join(_POLICY_CHOICES) + ")"
                )
        # every swept value must land inside the field's domain, with the
        # arrival rates a static policy replays and rates the engine takes
        for value in self.values:
            cfg = self.config_at(value)
            missing = cfg.missing_lambda_fields()
            if "static" in self.policies and missing:
                raise ConfigError(
                    f"plan: static policy needs explicit arrival rates at "
                    f"value {value!r}; missing: " + ", ".join(missing)
                )
            for p in self.policies:
                check_poisson_rates(cfg, p, self.arrival_mode)

    def config_at(self, value: Any) -> NetworkConfig:
        point = json.loads(json.dumps(self.config))
        _set_field(point, self.parameter, value)
        return config_from_dict(point)


def run_cells(points: list, policies: Sequence[str], horizon: int, seeds: int,
              master_seed: int, keep: Callable[[Any], Any],
              warmup: Optional[int] = None,
              arrival_mode: str = "fluid") -> dict[str, list[list[Any]]]:
    """Run every policy at every point; returns {policy: [[kept] per point]}.

    Replicate j runs with seed master_seed + j, so policies compared under
    one master seed share channel draws. A point is one NetworkConfig, or a
    list of one config per replicate. Every cell goes through one
    `run_batch` call, in (point, policy, replicate) order, which picks the
    cells that run in lockstep; the results equal one `run` per cell either
    way. Only what `keep` returns of each run is stored, so memory does not
    grow with runs x horizon. One progress line per point goes to stderr
    once its cells are done; a lockstep batch runs before the first line.
    """
    cfgs = [point if isinstance(point, list) else [point] * seeds for point in points]
    batch = run_batch([RunSpec(cfg=cfg, policy=p, horizon=horizon, warmup=warmup,
                               seed=master_seed + j, arrival_mode=arrival_mode)
                       for row in cfgs for p in policies for j, cfg in enumerate(row)])
    results: dict[str, list[list[Any]]] = {p: [[] for _ in points] for p in policies}
    t0 = time.perf_counter()
    for i, row in enumerate(cfgs):
        for p in policies:
            results[p][i] = [keep(next(batch)) for _ in row]
        print(f"wfifo: point {i + 1}/{len(points)} done, "
              f"{time.perf_counter() - t0:.1f} s elapsed", file=sys.stderr)
    return results


def run_plan(plan: ExperimentPlan, master_seed: int) -> dict[str, list[list[Any]]]:
    """Execute the sweep grid; returns {policy: [[(total, utility)] per value]}."""
    return run_cells(
        [plan.config_at(value) for value in plan.values],
        plan.policies, plan.horizon, plan.seeds, master_seed,
        keep=lambda m: (m.total_served_rate(), m.utility),
        warmup=plan.warmup, arrival_mode=plan.arrival_mode,
    )


def plan_rows(plan: ExperimentPlan, results) -> tuple[list[str], list[list[Any]]]:
    columns = ["value"]
    for policy in plan.policies:
        tag = policy.replace("-", "_")
        columns += [
            f"total_{tag}", f"total_{tag}_se",
            f"utility_{tag}", f"utility_{tag}_se",
        ]
    rows = []
    for i, value in enumerate(plan.values):
        row: list[Any] = [value]
        for policy in plan.policies:
            cell = results[policy][i]
            tot_m, tot_se = _mean_se([total for total, _ in cell])
            ut_m, ut_se = _mean_se([utility for _, utility in cell])
            row += [tot_m, tot_se, ut_m, ut_se]
        rows.append(row)
    return columns, rows


def cmd_sweep(args: argparse.Namespace) -> int:
    plan = ExperimentPlan.load(args.plan)
    digest = _digest_obj({"plan": asdict(plan)})
    with _open_out(args.out) as fh:
        columns, rows = plan_rows(plan, run_plan(plan, args.seed))
        _write_csv(fh, digest, args.seed, plan.horizon, columns, rows)
    return 0


# ----- reproduce-fig -----


def _recipe_cfg(p_rows: list[list[float]], beta: float) -> NetworkConfig:
    queues = [QueueSpec(flows=[FlowSpec(p_off=p) for p in row]) for row in p_rows]
    return NetworkConfig(queues=queues, beta=beta, M=RECIPE_M, r_max=RECIPE_R_MAX)


Flows = tuple[tuple[str, int, int], ...]  # (column label, queue, flow)


def _total(rates) -> float:
    return math.fsum(v for row in rates for v in row)


def _pick(rates, flows: Optional[Flows]) -> list[float]:
    """Per-flow entries of a nested rate table, or its total when flows is None."""
    if flows is None:
        return [_total(rates)]
    return [rates[n][k] for _, n, k in flows]


_P2_GRID = [round(0.1 * i, 1) for i in range(1, 10)]
_UNIT_GRID = [round(0.1 * i, 1) for i in range(0, 11)]
_BETA_GRID = [1.0, 1.5, 2.0, 2.5, 3.0]
_K_GRID = [2, 4, 6, 8, 10]


@dataclass(frozen=True)
class Recipe:
    """A grid figure: per-policy served-rate means over seeds at each grid
    value, then the dFC plan's rates (optional), then the standard errors.
    Served, not admitted: an unstable policy admits far more than it delivers.
    """

    desc: dict  # hashed into the CSV header
    column: str  # name of the swept column
    grid: list
    config: Callable[[Any], NetworkConfig]
    policies: tuple[str, ...]
    flows: Optional[Flows]  # None: one total per policy
    dfc: bool


def _grid_rows(r: Recipe, args) -> tuple[list[str], list[list[Any]], dict]:
    labels = ["total"] if r.flows is None else [label for label, _, _ in r.flows]
    cfgs = [r.config(x) for x in r.grid]
    sims = run_cells(cfgs, r.policies, args.horizon, args.seeds, args.seed,
                     keep=lambda m: _pick(m.served_rate, r.flows))
    rows = []
    for i, (x, cfg) in enumerate(zip(r.grid, cfgs)):
        stats = [_mean_se([s[c] for s in sims[p][i]])
                 for p in r.policies for c in range(len(labels))]
        dfc = _pick(solve_dfc(cfg).lambdas, r.flows) if r.dfc else []
        rows.append([x] + [m for m, _ in stats] + dfc + [se for _, se in stats])
    tags = ["mw" if p == "maxweight" else p for p in r.policies]
    columns = ([r.column]
               + [f"{label}_{t}" for t in tags for label in labels]
               + ([f"{label}_dfc" for label in labels] if r.dfc else [])
               + [f"{label}_{t}_se" for t in tags for label in labels])
    return columns, rows, r.desc


def _desc(figure: str, **fields: Any) -> dict:
    return {"figure": figure, **fields, "M": RECIPE_M, "r_max": RECIPE_R_MAX}


def _fig5_cfg(p2: float) -> NetworkConfig:
    return _recipe_cfg([[0.1, p2]], beta=1.0)


def _fig8_cfg(pm2: float) -> NetworkConfig:
    return _recipe_cfg([[0.0, 0.0], [0.0, pm2]], beta=2.0)


_FIG5_FLOWS = (("lambda1", 0, 0), ("lambda2", 0, 1))
_FIG8_FLOWS = (("lambda_n1", 0, 0), ("lambda_n2", 0, 1),
               ("lambda_m1", 1, 0), ("lambda_m2", 1, 1))
_BOTH = ("qfc", "maxweight")

RECIPES = {
    "fig5a": Recipe(_desc("fig5a", p1=0.1, p2=_P2_GRID, beta=1.0), "p2",
                    _P2_GRID, _fig5_cfg, _BOTH, _FIG5_FLOWS, dfc=True),
    "fig5b": Recipe(_desc("fig5b", p1=0.1, p2=_P2_GRID, beta=1.0), "p2",
                    _P2_GRID, _fig5_cfg, _BOTH, None, dfc=True),
    "fig7a": Recipe(_desc("fig7a", p=[[0.1, 0.5], [0.1, 0.5]], beta=_BETA_GRID),
                    "beta", _BETA_GRID,
                    lambda b: _recipe_cfg([[0.1, 0.5], [0.1, 0.5]], beta=b),
                    _BOTH, None, dfc=True),
    "fig7b": Recipe(_desc("fig7b", p1=0.1, p2=_UNIT_GRID, beta=2.0), "p2",
                    _UNIT_GRID,
                    lambda p2: _recipe_cfg([[0.1, p2], [0.1, p2]], beta=2.0),
                    _BOTH, None, dfc=True),
    "fig8a": Recipe(_desc("fig8a", p_n=[0.0, 0.0], p_m1=0.0, p_m2=_UNIT_GRID,
                          beta=2.0), "pm2",
                    _UNIT_GRID, _fig8_cfg, ("qfc",), _FIG8_FLOWS, dfc=True),
    "fig8b": Recipe(_desc("fig8b", p_n=[0.0, 0.0], p_m1=0.0, p_m2=_UNIT_GRID,
                          beta=2.0), "pm2",
                    _UNIT_GRID, _fig8_cfg, ("maxweight",), _FIG8_FLOWS, dfc=False),
}


def _fig6(args) -> tuple[list[str], list[list[Any]], dict]:
    desc = _desc("fig6", K=_K_GRID, beta=1.0, p="uniform[0,1] per seed")
    # each replicate draws one pool of channels and reuses its first K
    # entries at every grid point, so the K trend is compared on nested
    # instances instead of independent redraws
    pools = [np.random.default_rng(stream_seed(args.seed, f"fig6:rep={j}"))
             .random(max(_K_GRID)) for j in range(args.seeds)]
    points = [[_recipe_cfg([pool[:K].tolist()], beta=1.0) for pool in pools]
              for K in _K_GRID]
    sims = run_cells(points, _BOTH, args.horizon, args.seeds, args.seed,
                     keep=lambda m: _total(m.served_rate))
    rows = []
    for i, (K, cfgs) in enumerate(zip(_K_GRID, points)):
        tq, tq_se = _mean_se(sims["qfc"][i])
        tm, tm_se = _mean_se(sims["maxweight"][i])
        td, td_se = _mean_se([_total(solve_dfc(cfg).lambdas) for cfg in cfgs])
        # ratio of seed means: per-seed ratios blow up whenever a draw
        # hands max-weight a near-dead flow and its delivered total ~ 0
        if tm > 1e-9:
            r = tq / tm
            r_se = r * math.hypot(tq_se / max(tq, 1e-12), tm_se / tm)
        else:
            r, r_se = math.inf, 0.0
        rows.append([K, tq, tm, td, r, tq_se, tm_se, td_se, r_se])
    columns = ["K", "total_qfc", "total_mw", "total_dfc", "ratio_qfc_mw",
               "total_qfc_se", "total_mw_se", "total_dfc_se",
               "ratio_qfc_mw_se"]
    return columns, rows, desc


FIGURES = {name: functools.partial(_grid_rows, r) for name, r in RECIPES.items()}
FIGURES["fig6"] = _fig6


def cmd_reproduce(args: argparse.Namespace) -> int:
    if args.seeds < 1:
        raise ConfigError(f"--seeds: must be >= 1, got {args.seeds}")
    if args.seeds > sys.maxsize:  # no list or array can be that long
        raise ConfigError(f"--seeds: must be at most {sys.maxsize}, got {args.seeds}")
    _check_budget(args.horizon, None, 1, "--")
    out = str(Path(args.out) / f"{args.figure}.csv")
    with _open_out(out) as fh:
        columns, rows, desc = FIGURES[args.figure](args)
        _write_csv(fh, _digest_obj(desc), args.seed, args.horizon, columns, rows)
    print(f"wrote {out}")
    return 0


# ----- parser -----


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="wfifo",
        description="FIFO queues over ON/OFF channels: analysis, rate "
                    "planning, and slotted simulation.",
    )
    sub = parser.add_subparsers(dest="cmd", metavar="command")
    sub.required = True

    p = sub.add_parser("analyze", parents=[], help="closed-form state "
                       "probabilities and feasibility slacks for a config")
    p.add_argument("--config", required=True, help="config JSON path")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("solve-dfc", help="solve the offline rate plan")
    p.add_argument("--config", required=True)
    p.add_argument("--out", help="write the solution as JSON")
    p.set_defaults(func=cmd_solve_dfc)

    p = sub.add_parser("simulate", help="run one simulation, print JSON summary")
    p.add_argument("--config", required=True)
    p.add_argument("--policy", default="qfc", choices=_POLICY_CHOICES)
    p.add_argument("--horizon", type=int, default=1_000_000)
    p.add_argument("--warmup", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--arrival-mode", default="fluid",
                   choices=("fluid", "stochastic"))
    p.add_argument("--out", help="write the JSON summary here instead of stdout")
    p.add_argument("--trace", help="also write a per-slot trace CSV "
                   "(one row per slot; meant for short horizons)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="run an experiment plan, emit CSV")
    p.add_argument("--plan", required=True, help="plan JSON path")
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument("--out", help="CSV path (stdout when omitted)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("reproduce-fig", help="rerun a bundled experiment "
                       "recipe, emit its CSV")
    p.add_argument("figure", choices=sorted(FIGURES))
    p.add_argument("--seeds", type=int, default=20, help="replicates per point")
    p.add_argument("--horizon", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument("--out", default=".", help="output directory")
    p.set_defaults(func=cmd_reproduce)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # e.g. a list of 2**61 runs
        print(f"error: too large for this machine: {str(exc) or type(exc).__name__}",
              file=sys.stderr)
        return 1
