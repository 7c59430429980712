#!/usr/bin/env python3
"""Time-to-verdict benchmark of the eclectic verification battery.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds the benchmark package in this
directory (`cargo build --release --offline`) into $CARGO_TARGET_DIR, or
`.bench_build` when that is unset, then drives the binary in a closed loop
with one caller: each pass is a fresh process that constructs the workload's
specs, verifies every spec once and checks each verdict against its known
answer. Passes repeat until --seconds have elapsed, at least 3 passes; no
pass starts after 140 s, so a run ends within 180 s once the binary is built.

Times to verdict are lower quartiles over the run's passes, per spec. The
host's speed drifts in phases of seconds to minutes, by up to half; a median
over a run moves with the share of slow phases in it, the lower quartile much
less, and unlike a minimum it does not fall as more passes fit in a run (see
WORKLOADS.md). `setup_s` is the median over passes of each pass's fastest
construction of the specs.

With --trace 0 the last stdout line reports the end-to-end metrics of
BENCHMARK.json; with --trace 1 it reports the per-layer metrics of one traced
run (see src/trace.rs), whose spans are written to .bench_out/. The line
before it is an `info` object: host, toolchain, sample counts and each
spec's lower-quartile and median time. `attempted` counts verdicts and `failed` counts the verdicts that
differ from the known answer (`wrong_verdicts`). Variables named ECLECTIC_*
are removed from every child's environment, because the library reads
several of them once per process.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

WORKLOADS = ("paper-1w", "paper-2w", "factory-64", "dynamic-bank")
MIN_PASSES = 3
# A run stops starting passes after this many seconds, whatever else holds.
RUN_CAP_S = 140
CHILD_TIMEOUT_S = 170


def child_env():
    return {k: v for k, v in os.environ.items() if not k.startswith("ECLECTIC_")}


def build():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    env = dict(child_env(), CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(BENCH_DIR, "Cargo.toml")]
    subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, check=True, timeout=850)
    return os.path.join(target, "release", "eclectic-perfbench")


def run_child(args, deadline):
    """Runs the binary once; returns its JSON line and its rusage deltas."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    timeout = max(1.0, min(CHILD_TIMEOUT_S, deadline - time.monotonic()))
    proc = subprocess.run(args, cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=timeout)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(args[1:])} exited {proc.returncode}: {proc.stderr.strip()}")
    usage = {
        "minor_faults": after.ru_minflt - before.ru_minflt,
        "sys_ms": (after.ru_stime - before.ru_stime) * 1e3,
    }
    return json.loads(proc.stdout.strip().splitlines()[-1]), usage


def passes(binary, workload, seed, seconds, deadline):
    """Closed loop: one pass after another until `seconds` have elapsed."""
    start = time.monotonic()
    out = []
    while True:
        record, usage = run_child([binary, "pass", workload, str(seed)], deadline)
        record["usage"] = usage
        out.append(record)
        elapsed = time.monotonic() - start
        if (elapsed >= seconds and len(out) >= MIN_PASSES) or elapsed >= RUN_CAP_S:
            return out


def host_info(available_parallelism):
    def cmd(args):
        try:
            return subprocess.run(args, cwd=ROOT, capture_output=True, text=True,
                                  timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            return None

    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        commit = cmd(["git", "-C", ROOT, "rev-parse", "HEAD"])
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "available_parallelism": available_parallelism,
        "rustc": cmd(["rustc", "-V"]),
        "commit": commit,
        "cleared_env": sorted(k for k in os.environ if k.startswith("ECLECTIC_")),
    }


def per_spec_ms(runs):
    """Each spec's verdict times over the run's passes, in ms."""
    by_spec = {}
    for p in runs:
        for v in p["verdicts"]:
            by_spec.setdefault(v["spec"], []).append(v["ms"])
    return by_spec


def wrong_verdicts(runs):
    return [f"{v['spec']}: {v['wrong']}" for p in runs for v in p["verdicts"] if v["wrong"]]


def quantile(xs, k, n):
    """The k-th of the n-quantiles of `xs`, interpolated within the data; the
    value itself when there is one."""
    return statistics.quantiles(xs, n=n, method="inclusive")[k - 1] if len(xs) > 1 else xs[0]


def end_to_end(runs):
    # One sample per spec: the lower quartile of its times to verdict. The
    # 90th percentile of a single spec (dynamic-bank) is that sample.
    q1 = [quantile(ms, 1, 4) for ms in per_spec_ms(runs).values()]
    metrics = {
        "setup_s": (statistics.median(p["setup_s"] for p in runs), "s"),
        "verify_s": (sum(q1) / 1e3, "s"),
        "verdict_ms_p50": (statistics.median(q1), "ms"),
        "verdict_ms_p90": (quantile(q1, 9, 10), "ms"),
        "peak_rss_mb": (statistics.median(p["vmhwm_kb"] for p in runs) / 1024, "MB"),
    }
    pass_s = sorted(p["verify_s"] for p in runs)
    info = {
        "verdict_samples": sum(len(p["verdicts"]) for p in runs),
        "specs": len(q1),
        "pass_s_min_q1_med_q3_max": [pass_s[0], *statistics.quantiles(pass_s, n=4), pass_s[-1]],
    }
    return metrics, info


def process_metrics(runs):
    return {
        "process.minor_faults": (statistics.median(p["usage"]["minor_faults"] for p in runs), "count"),
        "process.sys_ms": (statistics.median(p["usage"]["sys_ms"] for p in runs), "ms"),
    }


def write_trace(workload, seed, traced):
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"trace-{workload}-seed{seed}.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(traced, f)
    return os.path.relpath(path, ROOT)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be a non-negative integer")

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    binary = build()
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    if args.trace:
        traced, _ = run_child([binary, "trace", args.workload, str(args.seed)], deadline)
        runs = passes(binary, args.workload, args.seed, args.seconds, deadline)
        metrics = {k: (m["value"], m["unit"]) for k, m in traced["metrics"].items()}
        metrics.update(process_metrics(runs))
        info["spans_file"] = write_trace(args.workload, args.seed, traced)
        info["traced_verdicts"] = traced["verdicts"]
        wrong = traced["wrong"] + wrong_verdicts(runs)
        attempted = traced["verdicts"] + sum(len(p["verdicts"]) for p in runs)
    else:
        runs = passes(binary, args.workload, args.seed, args.seconds, deadline)
        metrics, extra = end_to_end(runs)
        info.update(extra)
        wrong = wrong_verdicts(runs)
        attempted = sum(len(p["verdicts"]) for p in runs)

    missing = [name for name in wanted if name not in metrics]
    if missing:
        raise RuntimeError(f"metrics missing from the run: {missing}")
    info["passes"] = len(runs)
    info["workers"] = runs[0]["threads"]
    info["per_spec_ms_q1_median"] = {
        spec: [quantile(ms, 1, 4), statistics.median(ms)] for spec, ms in per_spec_ms(runs).items()
    }
    info["wrong"] = wrong[:10]
    info["host"] = host_info(runs[0]["available_parallelism"])
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": not wrong,
        "attempted": attempted,
        "failed": len(wrong),
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]} for name in wanted},
    }))


if __name__ == "__main__":
    try:
        main()
    except (OSError, RuntimeError, ValueError, KeyError, subprocess.SubprocessError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(1)
