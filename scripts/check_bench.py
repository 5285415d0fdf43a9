#!/usr/bin/env python3
"""CI perf-regression gate over the BENCH_*.json emitters.

Every bench binary that emits BENCH_<name>.json reports within-run ratios of
a batched/cached path against its reference path as keys ending in
``speedup`` (e.g. ``gnn_speedup_median``, ``replay_speedup``,
``n50_d2_speedup``, ``s8_speedup``). Absolute latencies vary with runner
hardware, but these ratios compare two paths measured in the same process on
the same machine — if one drops below 1.0 the optimized path has regressed
behind its own reference, which is exactly the thing that must not land
silently.

Usage: check_bench.py [--dir build] [--min-ratio 0.9] [--strict-keys k ...]
                      [--allow-missing]

* every ``*speedup*`` key in every BENCH_*.json must be >= --min-ratio
  (default 0.9: ratio >= 1.0 with a small tolerance for runner noise);
* keys listed in BENCH_REGISTRY are gated at their registered floor even
  without ``speedup`` in the name (indicator metrics such as the overload
  invariants, where 1.0 = held), and must be present in their file;
* BENCH_REGISTRY below lists every known emitter with its per-key strict
  floors (the headline acceptance ratios); --strict-keys KEY=FLOOR overrides
  a floor from the command line;
* every registered file must be present (--allow-missing relaxes this for
  local partial runs) and every present BENCH file must be registered;
* a markdown table of all ratios goes to $GITHUB_STEP_SUMMARY when set;
* exits 1 on any regression, with a clear error (never a traceback) on
  missing or malformed BENCH files.
"""

import argparse
import json
import os
import sys
from pathlib import Path

# Registry of every BENCH_*.json emitter and the floors its headline ratios
# must meet (keys not listed fall back to --min-ratio). scripts/
# check_invariants.py cross-checks this table against bench/*.cpp in both
# directions: an emitter missing here bypasses the gate (lint error), an
# entry with no emitter is stale (lint error).
BENCH_REGISTRY = {
    "BENCH_embed_cache.json": {"n50_d2_speedup": 1.5},
    "BENCH_fig12.json": {},
    "BENCH_observability.json": {
        # Instrumentation-overhead gate (docs/observability.md): serving
        # throughput with metrics+tracing ON over OFF, the median of the
        # ratios of 9 adjacent on/off pairs (alternating order). Ideal is
        # 1.0 (recording is relaxed atomics behind one flag load); the floor
        # allows 3% for runner noise — below it, the observability layer has
        # grown a real hot-path tax.
        "metrics_on_vs_off_ratio": 0.97,
    },
    "BENCH_scenarios.json": {
        # Clean scenario: the trained policy must not lose to the WORST
        # heuristic (the fault scenarios report ungated plain ratios — the
        # policy may lose there; the suite measures by how much).
        "clean_policy_vs_worst_heuristic_speedup": 1.0,
        # Overload indicators (1.0 = invariant held during the serving-plane
        # saturation phase): every request answered, the bounded queue held
        # its bound, and saturation actually produced fallback answers.
        "overload_all_answered": 1.0,
        "overload_bounded_queue": 1.0,
        "overload_fallback_nonzero": 1.0,
    },
    "BENCH_serve.json": {
        # Adaptive bounded-wait batching (docs/serving.md): with
        # ServeConfig::batch_wait_us on, the batched path must not lose to
        # the sequential reference (ServeConfig::max_batch = 1, one request
        # per inference) at shallow session counts anymore — batching is
        # >= break-even at every row of the sweep.
        "sessions2_speedup": 1.0,
        "sessions4_speedup": 1.0,
    },
    "BENCH_serve_sharded.json": {
        # Sharded serving plane (docs/serving.md): 4 dispatcher shards over
        # the single-dispatcher reference on the 32-session workload. Like
        # rollout_t8_speedup this floor is meaningful on the multi-core CI
        # runners; local 1-core boxes legitimately report ~1.0x.
        "shards4_vs_shards1_speedup": 2.5,
    },
    "BENCH_train.json": {
        # Parallel rollout scaling (fig15 section (d)): 8 workers must at
        # least halve rollout wall-clock vs the sequential reference on the
        # multi-core CI runners. Local 1-core boxes legitimately report ~1.0x
        # — this floor is evaluated only where the benches run in CI.
        "rollout_t8_speedup": 2.0,
        # Determinism indicator (1.0 = final parameters byte-equal across the
        # rollout_threads ∈ {1, 2, 8} sweep). Any drift is a hard failure.
        "rollout_bitexact": 1.0,
    },
}


class BenchError(Exception):
    """A malformed/missing BENCH input — reported, never tracebacked."""


def load_bench_file(path: Path) -> dict:
    """Parses one BENCH_*.json, raising BenchError with a clear message on
    unreadable files, invalid JSON, or a non-object top level."""
    try:
        text = path.read_text()
    except OSError as err:
        raise BenchError(f"cannot read {path}: {err}") from err
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise BenchError(
            f"{path} is not valid JSON ({err}) — did the bench crash "
            f"mid-write?") from err
    if not isinstance(data, dict):
        raise BenchError(
            f"{path} must hold a flat JSON object of key/value metrics, "
            f"got {type(data).__name__}")
    return data


def collect_rows(bench_dir: Path, registry=None, allow_missing=False):
    """Returns (files, rows) where rows is [(file, key, value)] for every
    numeric speedup ratio plus every registry-listed key (some registered
    floors gate indicator metrics — e.g. the overload invariants — whose
    keys deliberately avoid ``speedup``). A present file missing one of its
    registered keys is an error: a silently-dropped gated metric must not
    pass the gate. Raises BenchError on missing/unregistered/malformed
    files."""
    if not bench_dir.is_dir():
        raise BenchError(
            f"bench directory {bench_dir} does not exist — did the benches "
            f"run?")
    files = sorted(bench_dir.glob("BENCH_*.json"))
    if registry is not None:
        present = {f.name for f in files}
        unregistered = sorted(present - set(registry))
        if unregistered:
            raise BenchError(
                f"unregistered BENCH files {unregistered} — add them to "
                f"BENCH_REGISTRY in {__file__} so their ratios are gated")
        missing = sorted(set(registry) - present)
        if missing and not allow_missing:
            raise BenchError(
                f"registered BENCH files missing from {bench_dir}: "
                f"{missing} (run the benches, or pass --allow-missing for "
                f"a partial local run)")
    rows = []
    for path in files:
        data = load_bench_file(path)
        registered = set(registry.get(path.name, {})) if registry else set()
        for key, value in data.items():
            if ("speedup" in key or key in registered) \
                    and isinstance(value, (int, float)) \
                    and not isinstance(value, bool):
                rows.append((path.name, key, float(value)))
        absent = sorted(
            k for k in registered
            if not isinstance(data.get(k), (int, float))
            or isinstance(data.get(k), bool))
        if absent:
            raise BenchError(
                f"{path.name} is missing (or has non-numeric values for) its "
                f"registered gated keys {absent} — did the bench change its "
                f"output without updating BENCH_REGISTRY?")
    return files, rows


def floor_for(fname: str, key: str, min_ratio: float, strict=None,
              registry=None):
    """Floor precedence: CLI --strict-keys > registry per-file floor >
    --min-ratio."""
    if strict and key in strict:
        return strict[key]
    if registry and key in registry.get(fname, {}):
        return registry[fname][key]
    return min_ratio


def check_rows(rows, min_ratio, strict=None, registry=None):
    """Returns (failures, table_lines); a failure is (file, key, value,
    floor)."""
    failures = []
    lines = ["| bench file | ratio | value | floor | status |",
             "|---|---|---|---|---|"]
    for fname, key, value in rows:
        floor = floor_for(fname, key, min_ratio, strict, registry)
        ok = value >= floor
        if not ok:
            failures.append((fname, key, value, floor))
        lines.append(f"| {fname} | `{key}` | {value:.2f} | {floor:.2f} | "
                     f"{'✅' if ok else '❌ regression'} |")
    return failures, lines


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dir", default="build", help="directory holding BENCH_*.json")
    parser.add_argument("--min-ratio", type=float, default=0.9,
                        help="floor for every speedup ratio (>= 1.0 minus noise tolerance)")
    parser.add_argument("--strict-keys", nargs="*", default=[],
                        metavar="KEY=FLOOR",
                        help="per-key floor overrides, e.g. n50_d2_speedup=1.5")
    parser.add_argument("--allow-missing", action="store_true",
                        help="tolerate registered BENCH files that were not produced "
                             "(partial local runs)")
    args = parser.parse_args()

    strict = {}
    for spec in args.strict_keys:
        key, _, floor = spec.partition("=")
        try:
            strict[key] = float(floor)
        except ValueError:
            parser.error(f"--strict-keys entry '{spec}' is not KEY=FLOOR")

    try:
        files, rows = collect_rows(Path(args.dir), BENCH_REGISTRY,
                                   args.allow_missing)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    if not files:
        print(f"error: no BENCH_*.json under {args.dir} — did the benches run?",
              file=sys.stderr)
        return 1
    if not rows:
        print("error: BENCH files contain no speedup ratios", file=sys.stderr)
        return 1

    failures, lines = check_rows(rows, args.min_ratio, strict, BENCH_REGISTRY)
    table = "\n".join(lines)

    print(f"checked {len(rows)} ratios across {len(files)} BENCH files "
          f"(floor {args.min_ratio}, {len(strict)} strict)")
    print(table)

    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary_path:
        with open(summary_path, "a") as summary:
            summary.write("## Benchmark ratio gate\n\n")
            summary.write(table + "\n")

    missing_strict = [k for k in strict if all(k != key for _, key, _ in rows)]
    if missing_strict:
        print(f"error: strict keys never reported: {missing_strict}",
              file=sys.stderr)
        return 1
    if failures:
        for fname, key, value, floor in failures:
            print(f"REGRESSION: {fname}:{key} = {value:.3f} < {floor}",
                  file=sys.stderr)
        return 1
    print("all ratios at or above their floors")
    return 0


if __name__ == "__main__":
    sys.exit(main())
