#!/usr/bin/env python3
"""End-to-end benchmark of the commroute library.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name|all> --seed <n> \
        --seconds <s> --trace <0|1>

Builds the library from ../src and the benchmark program (perfbench/src)
with CMake in a Release configuration, into $CARGO_TARGET_DIR or
.bench_build, then runs one workload per process. Prints a report: the
host/build stamp, every answer check, and each metric with its unit,
median, quartiles and sample count. With --trace 1 the metrics are the
per-layer ones, each with the end-to-end metric and workload it should
move, plus the tracing overhead. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["explore_bad_gadget", "break_search", "campaign_24"]
BUILD_TIMEOUT_S = 880

# Which end-to-end metric (on which workload) each per-layer metric
# should move.
LAYER_MOVES = {
    "engine.next_ns": "campaign.rows_per_s on campaign_24",
    "engine.execute_ns": "campaign.rows_per_s on campaign_24; "
                         "explore.states_per_s on explore_bad_gadget",
    "engine.state_copy_ns": "explore.states_per_s, peak_rss_mb on "
                            "explore_bad_gadget; not campaign_24",
    "engine.state_hash_ns": "explore.states_per_s, peak_rss_mb on "
                            "explore_bad_gadget; not campaign_24",
    "engine.state_bytes": "explore.states_per_s, peak_rss_mb on "
                          "explore_bad_gadget; not campaign_24",
    "checker.successors_ns": "explore.states_per_s on explore_bad_gadget",
    "checker.successors_per_state": "explore.states_per_s on "
                                    "explore_bad_gadget",
    "checker.intern_ns": "explore.states_per_s on explore_bad_gadget",
    "checker.new_state_ratio": "explore.states_per_s on explore_bad_gadget",
    "checker.bytes_per_state": "peak_rss_mb on explore_bad_gadget",
    "checker.verdict_ms": "search.searches_per_s on break_search",
    "checker.states_explored": "search.searches_per_s on break_search",
    "scenario.explorations": "search.searches_per_s on break_search",
    "scenario.explore_share": "search.searches_per_s on break_search",
    "scenario.perturb_ns": "nothing",
    "sim.events": "campaign.rows_per_s on campaign_24",
    "sim.ns_per_event": "campaign.rows_per_s on campaign_24",
    "sim.queue_ns": "campaign.rows_per_s on campaign_24",
    "sim.sample_ns": "campaign.rows_per_s on campaign_24",
    "study.row_ms_max": "campaign.rows_per_s on campaign_24",
    "study.dispatch_share": "campaign.rows_per_s on campaign_24",
    "trace.replay_mismatch": "nothing (0 = the traced replay did the "
                             "same work as the timed calls)",
    "trace.slowdown": "nothing (untraced / traced end-to-end median)",
}


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; returns the binary."""
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or ".bench_build")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", "4",
                  "--target", "commroute_perfbench"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=BUILD_TIMEOUT_S)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            raise RuntimeError("build step failed: " + " ".join(cmd))
    return os.path.join(build_dir, "commroute_perfbench")


def git_describe():
    """`git describe --always --dirty` of the tree being benchmarked, read
    when the benchmark runs (a value compiled in would keep the commit of
    the build tree's first configure). "none" outside a git checkout."""
    root = os.path.dirname(HERE)
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel"],
                             cwd=root, capture_output=True, text=True,
                             timeout=30)
        if (top.returncode != 0 or os.path.realpath(top.stdout.strip())
                != os.path.realpath(root)):
            return "none"
        out = subprocess.run(["git", "describe", "--always", "--dirty"],
                             cwd=root, capture_output=True, text=True,
                             timeout=30)
        return out.stdout.strip() if out.returncode == 0 else "none"
    except (OSError, subprocess.TimeoutExpired):
        return "none"


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def metric_line(name, unit, values):
    q1, med, q3 = quartiles(values)
    return rate_line(name, unit, {"median": med, "q1": q1, "q3": q3,
                                  "n": len(values)})


def rate_line(name, unit, rate):
    return (f"  {name:<30} {rate['median']:>14.6g} {unit:<10} "
            f"q1 {rate['q1']:.6g}  q3 {rate['q3']:.6g}  n={rate['n']}")


def run_workload(binary, workload, args, spec, git):
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    # The timed passes take --seconds (half untraced, half traced with
    # --trace 1); set-up, warm-up, reference runs and replays take the rest.
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=2 * args.seconds + 110)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload}: benchmark program exited with "
                           f"code {proc.returncode}")
    raw = json.loads(proc.stdout.strip().splitlines()[-1])

    print(f"== {workload} (seed {args.seed}, trace {args.trace})")
    stamp = {"git": git, **raw["stamp"]}
    print("  stamp: " + ", ".join(f"{k}={v}" for k, v in stamp.items()))
    for check in raw["checks"]:
        status = "ok" if check["passed"] == check["total"] else "FAILED"
        detail = f"  ({check['detail']})" if check["detail"] else ""
        print(f"  check {check['name']}: {check['passed']}/{check['total']} "
              f"{status}{detail}")
    for name, value in raw["answers"].items():
        print(f"  answer {name}: {value}")
    attempted, failed = int(raw["attempted"]), int(raw["failed"])
    known = int(raw["known_defect_failures"])
    print(f"  fail_ratio {failed / attempted:.6g} ({failed}/{attempted}; "
          f"{known} of them the known xEO event-driven defect)")

    series = raw["series"]
    work = series["work_per_s"]
    # What work_per_s counts here, e.g. explore.states_per_s.
    work_name, work_unit = raw["work_metric"], raw["work_unit"]
    metrics = {}
    if args.trace == 0:
        print("  metric                          median         unit")
        print(metric_line("setup_s", "s", series["setup_s"]))
        print(rate_line(work_name, work_unit, work))
        # The workload's peak: the largest of the warm-up operations'
        # peaks. The per-operation spread is printed as detail.
        peaks = series["peak_rss_mb"]
        q1, med, q3 = quartiles(peaks)
        print(f"  {'peak_rss_mb':<30} {max(peaks):>14.6g} {'MB':<10} "
              f"max of n={len(peaks)} operations; per operation "
              f"q1 {q1:.6g}  median {med:.6g}  q3 {q3:.6g}")
        values = {"setup_s": statistics.median(series["setup_s"]),
                  "work_per_s": work["median"],
                  "peak_rss_mb": max(peaks)}
        for m in spec["end_to_end"]:
            metrics[m["name"]] = {"value": values[m["name"]],
                                  "unit": m["unit"]}
    else:
        traced = series["traced_work_per_s"]
        print("  tracing overhead (end-to-end, same process):")
        print(rate_line(work_name + " untraced", work_unit, work))
        print(rate_line(work_name + " traced", work_unit, traced))
        print("  per-layer metric                value      unit    "
              "source    should move")
        layers = raw["layers"]
        for m in spec["per_layer"]:
            layer = layers[m["name"]]
            metrics[m["name"]] = {"value": layer["value"], "unit": m["unit"]}
            print(f"  {m['name']:<30} {layer['value']:>12.6g} "
                  f"{m['unit']:<7} {layer['source']:<9} "
                  f"{LAYER_MOVES[m['name']]}")
    return raw, metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    try:
        with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
            spec = json.load(f)
        binary = build()
        git = git_describe()
        workloads = WORKLOADS if args.workload == "all" else [args.workload]
        results = [run_workload(binary, w, args, spec, git)
                   for w in workloads]
    except (OSError, ValueError, KeyError, RuntimeError,
            subprocess.TimeoutExpired) as e:
        log(f"run.py: {e}")
        return 1

    if len(results) == 1:
        metrics = results[0][1]
    else:
        metrics = {f"{w}:{name}": v for w, (_, m) in zip(workloads, results)
                   for name, v in m.items()}
    print(json.dumps({
        "correct": all(raw["correct"] for raw, _ in results),
        "attempted": sum(int(raw["attempted"]) for raw, _ in results),
        "failed": sum(int(raw["failed"]) for raw, _ in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
