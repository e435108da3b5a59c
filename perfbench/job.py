"""One benchmark batch in a fresh process; started by run.py.

Usage: python3 perfbench/job.py --workload W --seed N --budget full|smoke
                                --traced 0|1 --out RESULT.json [--setup-only]

Set-up is everything before the first timed job: interpreter start,
`import wfifo` and input generation. The process records the monotonic
clock when set-up ends, so the parent can measure set-up from the moment it
started the process. Then it runs the batch once and writes a result file.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--budget", required=True)
    p.add_argument("--traced", type=int, choices=(0, 1), required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()

    import numpy as np
    import wfifo

    # measure the checkout's sources, never an installed copy
    if Path(wfifo.__file__).resolve().parent != ROOT / "src" / "wfifo":
        print(f"error: wfifo imported from {wfifo.__file__}, not {ROOT / 'src'}",
              file=sys.stderr)
        return 1

    import tracing
    import workloads

    inputs = workloads.make_inputs(args.workload, args.seed, args.budget)
    tracer = None
    if args.traced:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    t_ready = time.monotonic()
    result = {"t_ready": t_ready}
    if not args.setup_only:
        workdir = ROOT / ".bench_out"
        batch = workloads.Batch(tracer, workdir)
        t0 = time.perf_counter()
        workloads.run(args.workload, inputs, batch)
        wall = time.perf_counter() - t0
        result.update({
            "wall_s": wall,
            "sim_s": workloads.sim_seconds(batch.jobs),
            "slots": sum(j["slots"] for j in batch.jobs),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "digest": batch.digest(),
            "checks": batch.checks,
            "jobs": batch.jobs,
            "versions": {"numpy": np.__version__, "wfifo": wfifo.__version__},
        })
        if tracer is not None:
            tracer.finish()
            result["layers"] = tracing.layer_metrics(tracer)
            spans_path = Path(args.out).with_suffix(".spans.json")
            tracer.write(spans_path)
            result["spans_file"] = str(spans_path.relative_to(ROOT))
    Path(args.out).write_text(json.dumps(result) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
