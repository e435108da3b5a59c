"""The three benchmark workloads: inputs from the seed, jobs, checks, digest.

Each workload is a fixed batch of jobs that one caller runs back to back
(a closed loop with one client). `make_inputs` turns the workload seed into
the batch's inputs and runs during set-up; `run` executes the batch. The
library only ever receives the generated configs and arguments.

Every job feeds its simulated or planned output into the batch digest and
records checks. A *hard* check is an exact property of the outputs
(conservation, a planner certificate, a physical bound); a failed hard
check makes the run incorrect and counts as a failure. The other checks
are the acceptance criteria's statistical claims evaluated at the
benchmark's reduced budget; sampling error at this budget can flip them, so
they are printed and recorded by name but not counted as failures.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import tempfile
import time
from contextlib import contextmanager, redirect_stdout
from pathlib import Path
from typing import Any

import numpy as np
from wfifo import cli, dfc, markov, policies, sim, stability
from wfifo.core import FlowSpec, NetworkConfig, QueueSpec, SchedulingPolicy

# Budgets per workload. "full" is what the benchmark measures; "smoke" only
# exercises the harness end to end in a few seconds.
BUDGETS: dict[str, dict[str, dict[str, Any]]] = {
    "full": {
        "recipes-closed-loop": {"seeds": 4, "horizon": 10_000},
        "validate-open-loop": {"saturated_horizon": 300_000,
                               "boundary_horizon": 200_000},
        "planner-scale": {"random_sizes": (2, 3, 4, 5, 6),
                          "uniform_sizes": (8, 9, 10)},
    },
    "smoke": {
        "recipes-closed-loop": {"seeds": 1, "horizon": 300},
        "validate-open-loop": {"saturated_horizon": 2_000,
                               "boundary_horizon": 2_000},
        "planner-scale": {"random_sizes": (2, 3), "uniform_sizes": (4,)},
    },
}

SATURATED_TOL = 0.01  # closed-form tolerance of acceptance criterion 01
PLANNER_TOL = 1e-6  # solve_dfc's default certificate tolerance
ANALYTIC_TOL = 1e-6  # criterion 05's analytic optima
FIG6_RATIO_AT_K10 = 1.5  # criterion 08
PLANNER_FAMILY_SEED = 20260817  # fixes the planner's random base instances
UNIFORM_ROW = (0.2, 0.5)  # p_off of every queue in the large instances


def _cfg(p_rows, beta: float = 1.0, M: float = 1000.0) -> NetworkConfig:
    return NetworkConfig(
        queues=[QueueSpec(flows=[FlowSpec(p_off=float(p)) for p in row])
                for row in p_rows],
        beta=beta, M=M, r_max=2.0,
    )


def _canon(obj: Any) -> Any:
    """Exact, order-stable form of an output for hashing."""
    if isinstance(obj, np.ndarray):
        data = np.ascontiguousarray(obj).tobytes()
        return [str(obj.dtype), list(obj.shape), hashlib.sha256(data).hexdigest()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj).hex()
    if isinstance(obj, (list, tuple)):
        return [_canon(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): _canon(v) for k, v in sorted(obj.items())}
    return str(obj)


class Batch:
    """Per-batch bookkeeping: job times, checks, digest, optional tracer."""

    def __init__(self, tracer, workdir: Path) -> None:
        self.tracer = tracer
        self.workdir = workdir
        self.jobs: list[dict[str, Any]] = []
        self.checks: list[dict[str, Any]] = []
        self._digest = hashlib.sha256()

    @contextmanager
    def span(self, name: str):
        if self.tracer is None:
            yield None
        else:
            with self.tracer.span(name) as span:
                yield span

    @contextmanager
    def job(self, name: str, slots: int = 0):
        record = {"name": name, "slots": slots}
        t0 = time.perf_counter()
        with self.span(f"job.{name}"):
            yield record
        record["s"] = time.perf_counter() - t0
        self.jobs.append(record)

    def check(self, name: str, ok: bool, hard: bool, detail: Any = None) -> None:
        self.checks.append({"name": name, "ok": bool(ok), "hard": hard,
                            "detail": detail})

    def feed(self, tag: str, obj: Any) -> None:
        blob = json.dumps([tag, _canon(obj)], separators=(",", ":"))
        self._digest.update(blob.encode())

    def digest(self) -> str:
        return self._digest.hexdigest()[:16]

    def cli_main(self, argv: list[str]) -> int:
        with self.span("cli.main"):
            return cli.main(argv)


def _feed_trace(b: Batch, tag: str, m) -> None:
    b.feed(tag, {
        "admitted_packets": m.admitted_packets,
        "served_packets": m.served_packets,
        "admitted_rate": m.admitted_rate,
        "served_rate": m.served_rate,
        "final_backlog_flow": m.final_backlog_flow,
        "state_visits": m.state_visits,
        "state_serves": m.state_serves,
    })


def _check_conservation(b: Batch, tag: str, m) -> None:
    ok = all(
        a - s == q
        for arow, srow, qrow in zip(m.admitted_packets, m.served_packets,
                                    m.final_backlog_flow)
        for a, s, q in zip(arow, srow, qrow)
    ) and all(sum(row) == q for row, q in zip(m.final_backlog_flow, m.final_backlog))
    b.check(f"{tag}.conservation", ok, hard=True)


# ----- recipes-closed-loop -----


def _recipes_inputs(seed: int, budget: dict) -> dict:
    return {
        "figures": ("fig6", "fig7a"),
        "seeds": budget["seeds"],
        "horizon": budget["horizon"],
        "master_seed": seed,
    }


def _read_csv(path: Path) -> tuple[str, list[str], list[list[float]]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    body = "\n".join(lines[1:])
    columns = lines[1].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[2:]]
    return body, columns, rows


def _recipes_run(inp: dict, b: Batch) -> None:
    with tempfile.TemporaryDirectory(dir=b.workdir) as out:
        for fig in inp["figures"]:
            argv = ["reproduce-fig", fig, "--seeds", str(inp["seeds"]),
                    "--horizon", str(inp["horizon"]),
                    "--seed", str(inp["master_seed"]), "--out", out]
            with b.job(f"reproduce-fig.{fig}") as job, redirect_stdout(io.StringIO()):
                rc = b.cli_main(argv)
            b.check(f"{fig}.exit_code", rc == 0, hard=True, detail=rc)
            body, columns, rows = _read_csv(Path(out) / f"{fig}.csv")
            b.feed(f"{fig}.csv", body)
            # every grid row runs qfc and max-weight once per replicate
            job["slots"] = len(rows) * 2 * inp["seeds"] * inp["horizon"]
            # one slot serves at most one packet
            totals = [row[columns.index(c)] for row in rows
                      for c in ("total_qfc", "total_mw")]
            b.check(f"{fig}.delivered_at_most_one_per_slot",
                    all(0.0 <= t <= 1.0 for t in totals), hard=True)
            if fig == "fig6":
                ratios = [row[columns.index("ratio_qfc_mw")] for row in rows]
                b.check("fig6.ratio_reaches_1.5_by_K10",
                        ratios[-1] >= FIG6_RATIO_AT_K10, hard=False, detail=ratios)
                b.check("fig6.ratio_does_not_fall",
                        all(hi >= lo for lo, hi in zip(ratios, ratios[1:])),
                        hard=False, detail=ratios)


# ----- validate-open-loop -----
#
# The instance pools are the acceptance criteria's own (criteria 01-04, with
# their generator seeds); the workload seed picks instances from each pool
# and seeds every simulation.

CRITERION04_P_OFF = ((0.6, 0.1), 0.7)


def _criterion01_pool() -> list[tuple[list[float], list[float]]]:
    rng = np.random.default_rng(20260819)
    pool = []
    for _ in range(20):
        k = int(rng.integers(1, 6))
        p_off = rng.uniform(0.0, 0.9, k).tolist()
        mix = rng.uniform(0.2, 1.0, k).tolist()
        rng.integers(2**31)  # the criterion's simulation seed; not used here
        pool.append((p_off, mix))
    return pool


def _criterion02_pool() -> list[tuple[list[float], list[float]]]:
    """Single-queue instances with rates exactly on the boundary."""
    rng = np.random.default_rng(8252)
    pool = []
    while len(pool) < 10:
        k = int(rng.integers(1, 6))
        p_off = rng.uniform(0.0, 0.9, k)
        u = rng.uniform(0.2, 1.0, k)
        lam = u * (1.0 - p_off) / u.sum()
        if lam.sum() >= 0.3:
            pool.append((p_off.tolist(), lam.tolist()))
    return pool


def _criterion03_pool() -> list[tuple[list[list[float]], list[list[float]]]]:
    rng = np.random.default_rng(33)
    pool = []
    for _ in range(5):
        sizes = rng.integers(1, 4, size=2)
        p_rows = [rng.uniform(0.0, 0.85, int(k)).tolist() for k in sizes]
        mix = [rng.uniform(0.2, 1.0, int(k)).tolist() for k in sizes]
        pool.append((p_rows, mix))
    return pool


def _pick(rng: np.random.Generator, pool: list, n_flows: int):
    """One pool instance with `n_flows` flows in all.

    Per-slot cost grows with the flow count, so drawing only among
    instances of one size keeps the batch's cost independent of the seed.
    """
    sized = [inst for inst in pool if np.hstack(inst[0]).size == n_flows]
    return sized[int(rng.integers(len(sized)))]


def _validate_inputs(seed: int, budget: dict) -> dict:
    rng = np.random.default_rng([seed, 2])
    p_off, mix = _pick(rng, _criterion01_pool(), 4)
    saturated = [([p_off], [mix]), _pick(rng, _criterion03_pool(), 3)]
    return {
        "saturated": [(_cfg(p_rows), mix, int(rng.integers(2**31)))
                      for p_rows, mix in saturated],
        "boundary": _pick(rng, _criterion02_pool(), 5),
        "boundary_seed": int(rng.integers(2**31)),
        "point_index": int(rng.integers(10)),
        "pair_seed": int(rng.integers(2**31)),
        "pair_cfg": _cfg([list(CRITERION04_P_OFF[0]), [CRITERION04_P_OFF[1]]]),
        "saturated_horizon": budget["saturated_horizon"],
        "boundary_horizon": budget["boundary_horizon"],
    }


def _rate_slack(margin) -> float:
    return min(v for key, v in margin.slacks.items() if key.startswith("rate"))


def _boundary_job(b: Batch, tag: str, spec, expected: str) -> None:
    with b.job(tag, slots=spec.horizon):
        m = sim.run(spec)
        verdict = sim.detect_stability(m.q_trace)
    _check_conservation(b, tag, m)
    b.check(f"{tag}.label", verdict.verdict == expected, hard=False,
            detail=[expected, verdict.verdict, verdict.slope])
    _feed_trace(b, tag, m)
    b.feed(f"{tag}.verdict", [verdict.verdict, verdict.slope, verdict.max_backlog])


def _validate_run(inp: dict, b: Batch) -> None:
    horizon = inp["saturated_horizon"]
    for i, (cfg, mix, seed) in enumerate(inp["saturated"]):
        tag = f"saturated{i}"
        with b.job(tag, slots=horizon):
            m = sim.run_saturated(cfg, mix, horizon=horizon, seed=seed)
        with b.span("markov.closed_forms"):
            errs = []
            for n in range(cfg.n_queues):
                ref = markov.single_queue_steady_state(mix[n], cfg.p_off_row(n))
                errs.append(abs(m.p_serviceable[n] - ref.p_serviceable))
                errs += [abs(x - y) for x, y in zip(m.p_blocked[n], ref.p_blocked)]
                errs += [abs(x - y) for x, y in zip(m.p_hol[n], ref.p_hol)]
                if cfg.n_queues > 1:
                    errs += [
                        abs(m.joint[s, n, k]
                            - markov.joint_state_hol_prob(cfg, mix, s, n, k))
                        for s in range(1 << cfg.n_queues)
                        for k in range(cfg.n_flows(n))
                    ]
        b.check(f"{tag}.closed_forms", max(errs) <= SATURATED_TOL, hard=False,
                detail=max(errs))
        b.feed(tag, [m.p_serviceable, m.p_blocked, m.p_hol, m.joint])

    # single queue at 0.95x and 1.05x of the boundary (criterion 02)
    p_off, lam = inp["boundary"]
    cfg = _cfg([p_off])
    for scale, expected in ((0.95, "stable"), (1.05, "unstable")):
        rates = [[scale * x for x in lam]]
        spec = sim.RunSpec(cfg=cfg, policy=policies.serve_if_on_policy(cfg, rates),
                           horizon=inp["boundary_horizon"], seed=inp["boundary_seed"],
                           arrival_mode="stochastic")
        _boundary_job(b, f"single{scale}", spec, expected)

    # two-queue boundary points (criterion 04): pick, then replay one
    cfg = inp["pair_cfg"]
    with b.job("pick_points"):
        picked = []
        for l1, l2, cap in stability.sweep_two_queue_boundary(
                CRITERION04_P_OFF[0], CRITERION04_P_OFF[1], grid=21):
            if min(l1, l2, cap) <= 0.0 or l1 + l2 + cap < 0.35:
                continue
            lo = [[0.95 * l1, 0.95 * l2], [0.95 * cap]]
            hi = [[1.05 * l1, 1.05 * l2], [1.05 * cap]]
            pol_lo, m_lo = stability.best_policy_search(cfg, lo)
            pol_hi, m_hi = stability.best_policy_search(cfg, hi)
            if _rate_slack(m_lo) >= 0.005 and _rate_slack(m_hi) <= -0.01:
                picked.append((lo, pol_lo, hi, pol_hi))
        points = picked[:: max(1, len(picked) // 10)][:10]
    b.check("pick_points.count", len(points) == 10, hard=True, detail=len(points))
    b.feed("pick_points", [[lo, pol_lo.tau, hi, pol_hi.tau]
                           for lo, pol_lo, hi, pol_hi in points])
    lo, pol_lo, hi, pol_hi = points[inp["point_index"] % len(points)]
    for rates, pol, expected in ((lo, pol_lo, "stable"), (hi, pol_hi, "unstable")):
        spec = sim.RunSpec(cfg=cfg, policy=policies.StaticPolicy(cfg, rates, pol.tau),
                           horizon=inp["boundary_horizon"], seed=inp["pair_seed"],
                           arrival_mode="stochastic")
        _boundary_job(b, f"pair.{expected}", spec, expected)


# ----- planner-scale -----


def _random_rows(n_queues: int) -> tuple[list[list[float]], float]:
    rng = np.random.default_rng([PLANNER_FAMILY_SEED, n_queues])
    rows = [rng.uniform(0.1, 0.6, int(rng.integers(1, 3))).tolist()
            for _ in range(n_queues)]
    return rows, (1.0, 1.5, 2.0)[n_queues % 3]


def _uniform_rows(n_queues: int) -> tuple[list[list[float]], float]:
    # every queue alike: the projected-gradient planner needs hundreds to
    # thousands of iterations on heterogeneous instances of this size
    return [list(UNIFORM_ROW)] * n_queues, 1.0


def _relabel(rows: list[list[float]], rng: np.random.Generator) -> list[list[float]]:
    """Permute queues and the flows within each queue.

    Relabeling changes the configs the planner receives (state indexes,
    array layout) but not the optimum or the work to reach it, so the
    batch's cost does not depend on which seed drew it.
    """
    order = rng.permutation(len(rows))
    return [[rows[n][k] for k in rng.permutation(len(rows[n]))] for n in order]


def _planner_inputs(seed: int, budget: dict) -> dict:
    rng = np.random.default_rng([seed, 3])
    instances = [
        # criterion 05's analytic optima
        ("analytic.beta1", _cfg([[0.2, 0.4, 0.6]]), [[0.8 / 3, 0.6 / 3, 0.4 / 3]]),
        ("analytic.beta2", _cfg([[0.1, 0.5]], beta=2.0), [[0.81 / 1.4, 0.25 / 1.4]]),
    ]
    for n in budget["random_sizes"]:
        rows, beta = _random_rows(n)
        instances.append((f"random.N{n}", _cfg(_relabel(rows, rng), beta), None))
    for n in budget["uniform_sizes"]:
        rows, beta = _uniform_rows(n)
        instances.append((f"uniform.N{n}", _cfg(_relabel(rows, rng), beta), None))
    return {"instances": instances}


def _planner_run(inp: dict, b: Batch) -> None:
    for tag, cfg, optimum in inp["instances"]:
        with b.job(tag):
            sol = dfc.solve_dfc(cfg, tol=PLANNER_TOL)
            inner = stability.check_inner_bound(cfg, list(sol.a),
                                                SchedulingPolicy(sol.tau))
        b.check(f"{tag}.converged",
                sol.converged and sol.kkt_residual <= PLANNER_TOL, hard=True,
                detail=[sol.iterations, sol.kkt_residual])
        b.check(f"{tag}.inner_bound_feasible", inner.feasible, hard=True,
                detail=inner.min_slack)
        if optimum is not None:
            err = max(abs(x - y) for got, want in zip(sol.lambdas, optimum)
                      for x, y in zip(got, want))
            b.check(f"{tag}.analytic_optimum", err <= ANALYTIC_TOL, hard=True,
                    detail=err)
        b.feed(tag, [sol.tau, sol.a])


_RUNNERS = {
    "recipes-closed-loop": (_recipes_inputs, _recipes_run),
    "validate-open-loop": (_validate_inputs, _validate_run),
    "planner-scale": (_planner_inputs, _planner_run),
}


def make_inputs(workload: str, seed: int, budget: str) -> dict:
    return _RUNNERS[workload][0](seed, BUDGETS[budget][workload])


def run(workload: str, inputs: dict, b: Batch) -> None:
    _RUNNERS[workload][1](inputs, b)


def sim_seconds(jobs: list[dict[str, Any]]) -> float:
    """Time spent in jobs that simulate slots."""
    return math.fsum(j["s"] for j in jobs if j["slots"] > 0)
