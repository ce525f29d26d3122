"""qkdlink benchmark: one command, four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; qkdlink is imported from its ``src``
directory and nowhere else.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: with
``--trace 0`` the end-to-end metrics of BENCHMARK.json, with ``--trace 1``
its per-layer metrics.  The lines before it repeat every figure by name and
unit, name the cause of each failed operation, and give the workload's own
names for its throughput (real-time factor, sync trials per second, OTP
Mbit per second).  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".perfbench-out"

# The one throughput metric, under the name each workload gives it.
THROUGHPUT_NAMES = {
    "burst_inprocess": ("realtime_factor", "simulated s per wall s"),
    "burst_tcp": ("realtime_factor", "simulated s per wall s"),
    "sync_trials": ("sync_trials_per_s", "trials/s"),
    "otp_duplex": ("otp_mbit_per_s", "Mbit/s of plaintext, both directions"),
}


def median_or_zero(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(THROUGHPUT_NAMES))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qkdlink" / "__init__.py").is_file():
        print(f"perfbench: no qkdlink package under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import qkdlink
    if Path(qkdlink.__file__).resolve().parent != SRC / "qkdlink":
        print(f"perfbench: imported qkdlink from {qkdlink.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import spans
    import workloads

    # Children get an absolute import path: they run in another working directory.
    env = dict(os.environ, PYTHONPATH=str(SRC))
    res = workloads.Result()
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    ctx = workloads.Context(seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
                            root=ROOT, workdir=workdir, env=env)
    try:
        if args.trace:
            ctx.tracer = spans.Tracer()
        else:
            if args.workload != "burst_tcp":  # its set-up is timed on the terminals themselves
                ctx.prober = workloads.Prober(env, args.seed)
            if args.workload in workloads.CALIBRATED:
                ctx.calibrator = workloads.Calibrator()
        workloads.WORKLOADS[args.workload](ctx, res)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    rounds = len(res.rates) + len(res.traced_rates)
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} rounds={rounds}")
    print(f"# attempted={res.attempted} failed={res.failed} correct={str(res.correct).lower()}")
    for (cause, fault), count in sorted(res.failures.items(), key=lambda kv: repr(kv[0])):
        print(f"# failed cause={cause} count={count} fault=\"{fault or 'unexplained'}\"")

    throughput = median_or_zero(res.rates)
    if args.trace:
        traced = median_or_zero(res.traced_rates)
        overhead = throughput / traced - 1.0 if traced else 0.0
        metrics = spans.layer_metrics(ctx.tracer.records, overhead)
        TRACE_DIR.mkdir(exist_ok=True)
        ctx.tracer.dump(TRACE_DIR / f"trace-{args.workload}.jsonl")
        print(f"# spans={len(ctx.tracer.records)} written to "
              f"{TRACE_DIR.name}/trace-{args.workload}.jsonl")
    else:
        # Calibrated workloads report throughput at the reference host speed.
        speed = ctx.calibrator.host_speed if ctx.calibrator else 1.0
        probes = ctx.prober.samples if ctx.prober else []
        setup = median_or_zero(probes) + median_or_zero(res.setup_s)
        metrics = {
            "setup_s": (setup, "s"),
            "ops_per_s": (throughput / speed, "1/s"),
            "peak_rss_mb": (res.peak_rss_mb, "MB"),
        }
        alias, unit = THROUGHPUT_NAMES[args.workload]
        named = {alias: (throughput / speed, unit)}
        if probes:
            named["setup_probes"] = (len(probes), "count")
        if ctx.calibrator:
            named.update({"host_speed": (speed, "x reference"),
                          f"{alias}_this_host": (throughput, unit)})
        res.notes = {**named, **res.notes}
    for name, (value, unit) in {**metrics, **res.notes}.items():
        print(f"# {name}={value:.6g} {unit}")

    print(json.dumps({
        "correct": res.correct and res.attempted > 0,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
