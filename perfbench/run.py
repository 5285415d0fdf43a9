#!/usr/bin/env python3
"""Builds the benchmark against the repository's decima library and runs one
workload (perfbench/NOTES.md).

    python3 perfbench/run.py --workload serve_tpch --seed 1 --seconds 10 --trace 0

Run from anywhere; the build lives in .bench_build/ at the repository root
(CMake, Release). Build output goes to standard error. Standard output is the
benchmark's own, whose last line is the JSON result. The exit code is not 0
when the build fails, when an output check fails, or when the result does not
list exactly the workload's metrics for the mode: every end-to-end metric of
BENCHMARK.json, or the workload's own per-layer metrics (LAYERS below).
"""
import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(why):
    print(f"run.py: {why}", file=sys.stderr)
    sys.exit(1)


def build():
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"the repository's {needed} is not beside perfbench/")
    os.makedirs(BUILD, exist_ok=True)
    # One build at a time per checkout; later callers find it up to date.
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                      "-j", "4"])
        for cmd in steps:
            try:
                done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                      timeout=BUILD_TIMEOUT_S)
            except (OSError, subprocess.TimeoutExpired) as e:
                fail(f"build step {cmd[:2]} failed: {e}")
            if done.returncode != 0:
                fail(f"build step {' '.join(cmd[:2])} exited {done.returncode}")


# The per-layer metrics each workload measures, from the "on" column of the
# per-layer table in NOTES.md. A traced run must report exactly its own; every
# other per-layer metric of BENCHMARK.json belongs to a layer the workload
# never calls and is given the value 0 here.
EVERY_WORKLOAD = ["workload.generate_s", "trace.coverage", "trace.wall_ratio"]
LAYERS = {
    "serve_tpch": [
        "serve.overhead_p50_us", "serve.overhead_p99_us",
        "serve.queue_wait_p50_us", "serve.queue_wait_p99_us",
        "serve.batch_infer_p50_us", "serve.batches", "serve.mean_batch_size",
        "core.decide_p50_us", "core.decide_p99_us", "gnn.extract_p50_us",
        "gnn.embed_cached_p50_us", "gnn.cache_hit_rate",
        "gnn.recompute_share", "gnn.nodes_per_decision",
        "sim.client_per_decision_us", "io.load_policy_s",
    ],
    "train_tpch": [
        "rl.rollout_s", "rl.replay_s", "rl.step_s", "rl.pool_utilization",
        "rl.actions_per_iter", "core.sample_p50_us", "core.sample_p99_us",
        "gnn.extract_p50_us", "core.replay_per_action_us",
        "gnn.embed_episode_per_event_us", "nn.backward_per_event_us",
        "nn.adam_step_us",
    ],
    "sim_faults": [
        "sched.schedule_p50_us", "sched.schedule_p99_us", "sched.decisions",
        "sim.self_s", "sim.events", "sim.scheduling_events",
        "sim.killed_tasks",
    ],
}


def listed_metrics(trace):
    """BENCHMARK.json's metrics of the mode, name -> unit."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return {m["name"]: m["unit"]
            for m in bench["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(LAYERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    ap.add_argument("--probe", default="",
                    help="sensitivity probe (never used by measured runs): "
                         "embed_cache_off or batched_replay_off")
    args = ap.parse_args()
    trace = args.trace == "1"

    build()
    work_dir = os.path.join(ROOT, ".bench_build", "work")
    os.makedirs(work_dir, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--work-dir", work_dir]
    if args.probe:
        cmd += ["--probe", args.probe]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"the benchmark ran longer than {RUN_TIMEOUT_S} s")
    if done.returncode != 0:
        sys.stdout.write(done.stdout)
        fail(f"the benchmark exited {done.returncode}")
    lines = done.stdout.rstrip("\n").split("\n")

    result = json.loads(lines[-1])
    listed = listed_metrics(trace)
    own = LAYERS[args.workload] + EVERY_WORKLOAD if trace else list(listed)
    unlisted = [name for name in own if name not in listed]
    if unlisted:
        fail(f"BENCHMARK.json does not list {unlisted}")
    want = {name: listed[name] for name in own}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want or result.get("correct") is not True:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail(f"result metrics {sorted(got.items())} differ from the "
             f"{args.workload} metrics {sorted(want.items())}")
    for name, unit in listed.items():
        result["metrics"].setdefault(name, {"value": 0.0, "unit": unit})
    sys.stdout.write("\n".join(lines[:-1] + [json.dumps(result)]) + "\n")
    sys.stdout.flush()


if __name__ == "__main__":
    main()
