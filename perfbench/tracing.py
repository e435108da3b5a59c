"""Spans and counters recorded from outside the library.

A traced batch replaces the public entry points of the wfifo modules, at
the module attribute their callers look up, with wrappers that record into
one `Tracer`. Nothing in the library is edited. Coarse calls (a simulation,
a planner solve, a recipe) become spans: a name, a start, an end and the
span that was open when they began. Fine-grained calls that happen tens of
thousands of times per batch (region checks, coefficients, state marginals,
and the per-slot policy calls) become counters on the innermost open span,
so the trace stays small and its cost per call stays low.

Spans are kept in memory and written once, when the batch ends.
"""

from __future__ import annotations

import dataclasses
import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable

_clock = time.perf_counter


class Tracer:
    """In-memory span log; span ids are indexes into `spans`."""

    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self._stack: list[int] = []
        self._open("batch")

    def _open(self, name: str) -> dict[str, Any]:
        span = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": _clock(),
            "end": None,
            "counters": {},
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def _close(self, span: dict[str, Any]) -> None:
        span["end"] = _clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def count(self, name: str, calls: int, seconds: float) -> None:
        """Add calls and busy time of `name` to the innermost open span."""
        _bump(self.spans[self._stack[-1]], name, calls, seconds)

    def finish(self) -> None:
        while self._stack:
            self._close(self.spans[self._stack[-1]])

    def write(self, path: Path) -> None:
        path.write_text(json.dumps({"spans": self.spans}) + "\n", encoding="utf-8")

    # ----- wrappers -----

    def spanned(self, name: str, fn: Callable, on_result: Callable | None = None):
        def wrapper(*args, **kwargs):
            with self.span(name) as span:
                result = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(span, result)
            return result

        return wrapper

    def counted(self, name: str, fn: Callable):
        count = self.count

        def wrapper(*args, **kwargs):
            t0 = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                count(name, 1, _clock() - t0)

        return wrapper


def _bump(span: dict[str, Any], name: str, calls: int, value: float) -> None:
    """Counters are [calls, total]: a call count and a summed quantity."""
    c = span["counters"].setdefault(name, [0, 0.0])
    c[0] += calls
    c[1] += value


def install(tracer: Tracer) -> None:
    """Wrap each module's entry points where its callers look them up."""
    from wfifo import cli, dfc, policies, sim, stability

    class TimedPolicy(policies.Policy):
        """Delegates to the built policy and times its per-slot calls."""

        def __init__(self, inner: policies.Policy) -> None:
            self.inner = inner
            self.name = inner.name
            self.adm = [0, 0.0]
            self.sch = [0, 0.0]

        def admission(self, q_totals, q_flows):
            t0 = _clock()
            out = self.inner.admission(q_totals, q_flows)
            self.adm[1] += _clock() - t0
            self.adm[0] += 1
            return out

        def schedule(self, q_totals, serviceable, state_bits, u):
            t0 = _clock()
            out = self.inner.schedule(q_totals, serviceable, state_bits, u)
            self.sch[1] += _clock() - t0
            self.sch[0] += 1
            return out

    run = sim.run

    def traced_run(spec):
        with tracer.span("sim.run") as span:
            inner = spec.policy
            if isinstance(inner, str):
                inner = policies.build_policy(spec.cfg, inner)
            timed = TimedPolicy(inner)
            m = run(dataclasses.replace(spec, policy=timed))
            _bump(span, "policies.admission", *timed.adm)
            _bump(span, "policies.schedule", *timed.sch)
            _bump(span, "slots", 1, m.horizon)
            _bump(span, "window", 1, m.horizon - m.warmup)
            _bump(span, "served_window", 1, int(m.state_serves.sum()))
            _bump(span, f"queues.{spec.cfg.n_queues}", 1, m.horizon)
        return m

    sim.run = traced_run
    cli.run = traced_run

    sim.run_saturated = tracer.spanned(
        "sim.run_saturated", sim.run_saturated,
        lambda span, m: _bump(span, "slots", 1, m.horizon),
    )
    sim.detect_stability = tracer.spanned("sim.detect_stability", sim.detect_stability)

    def solve_result(span, sol):
        _bump(span, "iterations", 1, sol.iterations)
        _bump(span, "gap", 1, sol.kkt_residual)

    solve = tracer.spanned("dfc.solve_dfc", dfc.solve_dfc, solve_result)
    dfc.solve_dfc = solve
    cli.solve_dfc = solve
    dfc.inner_coefficient = tracer.counted(
        "stability.inner_coefficient", dfc.inner_coefficient
    )

    stability.best_policy_search = tracer.spanned(
        "stability.best_policy_search", stability.best_policy_search
    )
    stability.check_service_region = tracer.counted(
        "stability.check_service_region", stability.check_service_region
    )
    stability.sweep_two_queue_boundary = tracer.spanned(
        "stability.sweep_two_queue_boundary", stability.sweep_two_queue_boundary
    )
    stability.state_marginal = tracer.counted(
        "markov.state_marginal", stability.state_marginal
    )


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer totals over one traced batch, keyed by metric name."""
    spans = tracer.spans
    calls: dict[str, int] = {}
    secs: dict[str, float] = {}
    counters: dict[str, list] = {}
    for span in spans:
        name = span["name"]
        calls[name] = calls.get(name, 0) + 1
        secs[name] = secs.get(name, 0.0) + span["end"] - span["start"]
        for key, (n, v) in span["counters"].items():
            acc = counters.setdefault(f"{name}/{key}", [0, 0.0])
            acc[0] += n
            acc[1] += v

    def n_calls(name: str) -> int:
        return calls.get(name, 0)

    def seconds(name: str) -> float:
        return secs.get(name, 0.0)

    def counter(span_name: str, key: str) -> list:
        return counters.get(f"{span_name}/{key}", [0, 0.0])

    def anywhere(key: str) -> list:
        total = [0, 0.0]
        for name, c in counters.items():
            if name.split("/", 1)[1] == key:
                total[0] += c[0]
                total[1] += c[1]
        return total

    def per(num: float, den: float, scale: float = 1.0) -> float:
        return num / den * scale if den else 0.0

    cli_self = 0.0
    for span in spans:
        if span["name"] != "cli.main":
            continue
        covered = sum(
            child["end"] - child["start"]
            for child in spans
            if child["parent"] == span["id"]
            and child["name"] in ("sim.run", "dfc.solve_dfc")
        )
        cli_self += span["end"] - span["start"] - covered

    run_slots = counter("sim.run", "slots")[1]
    adm = counter("sim.run", "policies.admission")
    sch = counter("sim.run", "policies.schedule")
    window = counter("sim.run", "window")[1]
    served = counter("sim.run", "served_window")[1]
    sat_slots = counter("sim.run_saturated", "slots")[1]
    inner = anywhere("stability.inner_coefficient")
    region = anywhere("stability.check_service_region")
    marginal = anywhere("markov.state_marginal")

    out = {
        "cli.main.s": seconds("cli.main"),
        "cli.self_s": cli_self,
        "sim.run.calls": n_calls("sim.run"),
        "sim.run.s": seconds("sim.run"),
        "sim.run.us_per_slot": per(seconds("sim.run"), run_slots, 1e6),
        "sim.run_saturated.calls": n_calls("sim.run_saturated"),
        "sim.run_saturated.us_per_slot": per(seconds("sim.run_saturated"), sat_slots, 1e6),
        "sim.detect_stability.calls": n_calls("sim.detect_stability"),
        "sim.detect_stability.s": seconds("sim.detect_stability"),
        "sim.idle_slot_share": 1.0 - served / window if window else 0.0,
        "policies.admission.calls": adm[0],
        "policies.admission.s": adm[1],
        "policies.admission.us_per_call": per(adm[1], adm[0], 1e6),
        "policies.schedule.calls": sch[0],
        "policies.schedule.s": sch[1],
        "dfc.solve_dfc.calls": n_calls("dfc.solve_dfc"),
        "dfc.solve_dfc.s": seconds("dfc.solve_dfc"),
        "dfc.solve_dfc.iterations": int(counter("dfc.solve_dfc", "iterations")[1]),
        "dfc.solve_dfc.max_gap": max(
            (s["counters"]["gap"][1] for s in spans if s["name"] == "dfc.solve_dfc"),
            default=0.0,
        ),
        "stability.inner_coefficient.calls": inner[0],
        "stability.inner_coefficient.s": inner[1],
        "stability.best_policy_search.calls": n_calls("stability.best_policy_search"),
        "stability.best_policy_search.s": seconds("stability.best_policy_search"),
        "stability.check_service_region.calls": region[0],
        "stability.check_service_region.s": region[1],
        "stability.sweep_two_queue_boundary.s": seconds("stability.sweep_two_queue_boundary"),
        "markov.state_marginal.calls": marginal[0],
        "markov.state_marginal.s": marginal[1],
        "markov.closed_forms.s": seconds("markov.closed_forms"),
    }
    # time per slot by network shape (number of queues)
    for q in (1, 2):
        shape_slots = 0.0
        shape_secs = 0.0
        for span in spans:
            if span["name"] == "sim.run" and f"queues.{q}" in span["counters"]:
                shape_slots += span["counters"]["slots"][1]
                shape_secs += span["end"] - span["start"]
        out[f"sim.run.us_per_slot.q{q}"] = per(shape_secs, shape_slots, 1e6)
    return out
