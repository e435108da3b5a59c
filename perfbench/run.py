"""wfifo benchmark: run one workload for a fixed time and report metrics.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload recipes-closed-loop --seed 1 \
        --seconds 40 --trace 0

The workloads and metrics are declared in BENCHMARK.json; perfbench/README.md
describes them. This process only orchestrates. Each batch runs in a fresh
child process (perfbench/job.py) with PYTHONPATH pointing at the checkout's
`src` and every BLAS thread pool pinned to one thread. The children run one
at a time and are waited for, so at most one job runs at any moment.

* A few set-up-only children come first: one warms the bytecode cache and is
  discarded, the others measure set-up time.
* Then whole batches run back to back for up to `--seconds`: a batch
  starts only if it is expected to end in time. With `--trace 1`, untraced
  and traced batches alternate; the untraced ones give the tracing overhead.
* The run reports medians over batches. Every batch of one run must produce
  the same output digest, traced or not.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. `attempted` and `failed`
count the hard checks, exact properties of the outputs, over all batches.
The statistical claims are printed and recorded but not counted there. A
run record with every batch's figures goes to .bench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
RUN_LIMIT_S = 170.0  # a run must end within 180 s
SETUP_SAMPLES = {"full": 5, "smoke": 2}


class BenchError(RuntimeError):
    pass


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"  # same dict and set layouts in every batch
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


class Runner:
    """Starts batch processes one at a time and collects their results."""

    def __init__(self, args: argparse.Namespace, deadline: float) -> None:
        self.args = args
        self.deadline = deadline
        self.env = _child_env()
        self.count = 0

    def spawn(self, traced: bool = False, setup_only: bool = False) -> dict:
        self.count += 1
        stem = f"{self.args.workload}-s{self.args.seed}-t{self.args.trace}-{self.count}"
        out = OUT_DIR / f"{stem}.json"
        cmd = [sys.executable, str(HERE / "job.py"),
               "--workload", self.args.workload, "--seed", str(self.args.seed),
               "--budget", self.args.budget, "--traced", str(int(traced)),
               "--out", str(out)]
        if setup_only:
            cmd.append("--setup-only")
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("run time limit reached")
        t_spawn = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            _, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            raise BenchError("batch did not finish within the run time limit")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        if proc.returncode != 0:
            tail = err.decode(errors="replace").strip().splitlines()[-20:]
            raise BenchError("batch failed:\n" + "\n".join(tail))
        result = json.loads(out.read_text(encoding="utf-8"))
        out.unlink()
        result["setup_s"] = result["t_ready"] - t_spawn
        result["traced"] = traced
        return result


def _run_record() -> dict:
    src = ROOT / "src" / "wfifo"
    files = sorted(src.rglob("*.py"))
    digest = hashlib.sha256()
    loc = 0
    for path in files:
        data = path.read_bytes()
        loc += data.count(b"\n")
        digest.update(str(path.relative_to(src)).encode() + b"\0" + data)
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        if proc.returncode == 0:
            sha = proc.stdout.strip()
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": sha,
        "src_loc": loc,
        "src_digest": digest.hexdigest()[:16],
    }


def measure(args: argparse.Namespace) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    runner = Runner(args, deadline)
    runner.spawn(setup_only=True)  # warm-up, not counted
    setups = [runner.spawn(setup_only=True)["setup_s"]
              for _ in range(SETUP_SAMPLES[args.budget])]

    results: list[dict] = []
    t_start = time.monotonic()
    while True:
        traced = bool(args.trace) and len(results) % 2 == 1
        t_batch = time.monotonic()
        results.append(runner.spawn(traced=traced))
        now = time.monotonic()
        have_traced = any(r["traced"] for r in results) or not args.trace
        # start another batch only if it should end within --seconds
        if have_traced and now - t_start + (now - t_batch) > args.seconds:
            break

    plain = [r for r in results if not r["traced"]]
    traced = [r for r in results if r["traced"]]
    setups += [r["setup_s"] for r in plain]
    checks = [c for r in results for c in r["checks"] if c["hard"]]
    failed = [c["name"] for c in checks if not c["ok"]]
    digests = sorted({r["digest"] for r in results})
    # equal digests mean equal outputs, so one batch's claims stand for all
    claims = [c for c in results[0]["checks"] if not c["hard"]]

    e2e = {
        "wall_s": median([r["wall_s"] for r in plain]),
        "setup_s": median(setups),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in plain]),
        "fail_ratio": len(failed) / len(checks),
    }
    if plain[0]["slots"]:
        e2e["slots_per_s"] = median([r["slots"] / r["sim_s"] for r in plain])

    layers = {}
    if traced:
        keys = traced[0]["layers"].keys()
        layers = {k: median([r["layers"][k] for r in traced]) for k in keys}
        layers["trace.overhead_s"] = (median([r["wall_s"] for r in traced])
                                      - e2e["wall_s"])
        layers["sim.slots_per_s"] = e2e.get("slots_per_s", 0.0)

    return {
        "correct": len(digests) == 1 and not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "failed_checks": sorted(set(failed)),
        "claims": len(claims),
        "claims_missed": [c["name"] for c in claims if not c["ok"]],
        "digests": digests,
        "end_to_end": e2e,
        "per_layer": layers,
        "batches": [{k: v for k, v in r.items() if k != "checks"} for r in results],
        "checks": results[0]["checks"],
        "setup_samples": setups,
    }


def main(argv: list[str] | None = None) -> int:
    spec = _spec()
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--budget", choices=tuple(SETUP_SAMPLES), default="full",
                   help="smoke: tiny batches that only exercise the harness")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "wfifo" / "__init__.py").is_file():
        print(f"error: no wfifo sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    OUT_DIR.mkdir(exist_ok=True)
    try:
        res = measure(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    record = {"args": vars(args), "record": _run_record(), **res}
    record["record"]["numpy"] = res["batches"][0]["versions"]["numpy"]
    path = OUT_DIR / f"record-{args.workload}-s{args.seed}-t{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    rec = record["record"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(res['batches'])} batches, digest {' '.join(res['digests'])}")
    print(f"run record: python {rec['python']}, numpy {rec['numpy']}, "
          f"nproc {rec['nproc']}, git {rec['git_sha']}, src LOC {rec['src_loc']}, "
          f"src digest {rec['src_digest']} -> {path.relative_to(ROOT)}")
    print(f"hard checks: {res['attempted']} attempted, {res['failed']} failed"
          + (f" ({', '.join(res['failed_checks'])})" if res["failed"] else ""))
    missed = res["claims_missed"]
    print(f"statistical claims at this budget: {res['claims']} evaluated, "
          f"{len(missed)} not met" + (f" ({', '.join(missed)})" if missed else ""))
    units = {"wall_s": "s", "setup_s": "s", "slots_per_s": "1/s",
             "peak_rss_mb": "MB", "fail_ratio": "ratio"}
    for name in ("wall_s", "setup_s", "slots_per_s", "peak_rss_mb", "fail_ratio"):
        value = res["end_to_end"].get(name)
        shown = "n/a (no simulation)" if value is None else f"{value:.6g} {units[name]}"
        print(f"end_to_end {name} = {shown}")
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = res["per_layer"] if args.trace else res["end_to_end"]
    if args.trace:
        for m in declared:
            print(f"per_layer {m['name']} = {values[m['name']]:.6g} {m['unit']}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
