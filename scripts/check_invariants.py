#!/usr/bin/env python3
"""Repo-invariant lint: the rules the compilers cannot check.

Six standing invariants, enforced at zero findings by the CI
``static-analysis`` job (and by ``ctest -R check_invariants`` locally):

1. **sync-primitives** — no raw ``std::mutex`` / ``std::condition_variable``
   / lock guards outside ``src/util/sync.h``. Every lock goes through the
   annotated ``util::Mutex`` wrappers so Clang's ``-Wthread-safety``
   analysis sees it (docs/concurrency.md).
2. **fast-path-pairing** — every ``*_batched`` / ``*_cached`` / ``*_batch``
   entry point declared in a ``src/**`` header has a reference-path sibling
   in the same header (``<base>()`` or ``<base>_reference()``) and is pinned
   by an equivalence test in ``tests/``. Fast paths must stay pure
   performance changes. A ``FLAG_PINNED`` or ``IRREGULAR_SIBLINGS`` key
   that names neither such a declaration nor a rule-5 knob is stale.
3. **fp-flags** — no ``-ffast-math`` family flag (``-Ofast`` included)
   anywhere, and the ``-ffp-contract=off`` guard stays in CMakeLists.txt. In
   C++ sources no per-function or per-file override may bring contraction
   back: ``#pragma GCC optimize``, ``__attribute__((optimize(...)))`` /
   ``[[gnu::optimize]]``, ``#pragma clang fp contract(fast|on)`` or
   ``reassociate(on)``; and ``src/`` calls no explicit ``fma`` (``std::fma``,
   ``__builtin_fma``, the ``_mm*_fmadd`` family). FMA contraction would
   silently break the bit-identical matrix kernels and the <=1e-10
   batched/reference equivalence contract.
4. **bench-registry** — every bench that emits ``BENCH_<name>.json``
   (``bench::BenchJson``) is registered in ``scripts/check_bench.py``'s
   ``BENCH_REGISTRY`` floor table, and vice versa, so no perf emitter can
   bypass the CI ratio gate.
5. **thread-knob-pinning** — every parallelism config knob declared in a
   ``src/**`` header (``*_threads``, e.g. ``TrainConfig::rollout_threads``,
   and ``ServeConfig::shards``) is registered in ``FLAG_PINNED`` with an
   equivalence test that pins parallelism invariance: such knobs must
   change wall-clock only, never results (docs/training.md, "Parallel
   rollout & the determinism contract"; docs/serving.md, shards=1
   bit-identity).
6. **obs-docs-inventory** — every metric/span name constant in
   ``src/obs/metric_names.h`` appears (backticked) in the inventory of
   ``docs/observability.md``, and every ``serve.`` / ``train.`` / ``cache.``
   name the doc lists still has its constant. The observable surface and its
   documentation may never drift apart.

Exits 0 with a one-line summary when clean; prints every finding as
``file:line: [rule] message`` and exits 1 otherwise.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

# --- rule 1: annotated sync primitives only ---------------------------------

SYNC_HOME = Path("src/util/sync.h")  # the one file allowed to name these
FORBIDDEN_SYNC = [
    "std::mutex",
    "std::timed_mutex",
    "std::recursive_mutex",
    "std::shared_mutex",
    "std::condition_variable",
    "std::lock_guard",
    "std::unique_lock",
    "std::scoped_lock",
    "std::shared_lock",
    "pthread_mutex",
    "pthread_cond",
]

# --- rule 2: fast paths need a reference sibling and an equivalence pin -----

FAST_SUFFIXES = ("_batched", "_cached", "_batch")

# Entry points whose reference sibling does not follow the <base>() /
# <base>_reference() naming convention.
IRREGULAR_SIBLINGS = {
    # The per-action path is the reference for the agent's scoring core.
    "score_batch": "schedule_reference",
}

# Entry points pinned through a config flag rather than by name: the named
# test file must exist and contain the token (the flag that flips the fast
# path against its reference). Rule 5 routes parallelism config knobs
# (``*_threads`` and ``ServeConfig::shards``) through the same table —
# their "reference path" is the knob's sequential setting, and the
# registered test pins bit-identity across its values.
FLAG_PINNED = {
    # The scoring core against the per-action reference: sampled choices
    # and replay gradients (batched_inference / batched_replay off).
    "score_batch": ("test_batched_equivalence.cpp", "batched_inference"),
    "rollout_threads": ("test_parallel_rollout.cpp", "rollout_threads"),
    # shards=1 must stay bit-identical to the pre-shard single dispatcher;
    # the pin compares full concurrent-session results at shards 1 vs 4.
    "shards": ("test_serve.cpp", "Shards4MatchesShards1"),
}

# Rule 5's parallelism knobs: ``int <name>_threads = ...`` and
# ``int shards = ...`` declared in a src/** header.
KNOB_RE = re.compile(r"\bint\s+(\w*_threads|shards)\s*=")

# Suffix matches that are not fast paths at all (documented here, not
# silently skipped): sample_tpch_batch draws a batch of workload samples —
# there is no single-sample "reference algorithm" it must match.
EXEMPT_FAST_PATHS = {"sample_tpch_batch"}

# --- rule 3: float-contraction guard ----------------------------------------

FORBIDDEN_FP_FLAGS = [
    "-ffast-math",
    "-Ofast",
    "-funsafe-math-optimizations",
    "-fassociative-math",
    "-freciprocal-math",
    "-ffp-contract=fast",
    "FP_CONTRACT ON",
]
REQUIRED_FP_GUARD = "-ffp-contract=off"
# Per-function / per-file overrides of the flags above, matched in C++ code
# with comments and string literals blanked (a pragma's or attribute's
# argument string is blanked too, so any use of the override is reported).
FORBIDDEN_FP_OVERRIDES = [
    (re.compile(r"#\s*pragma\s+GCC\s+optimize\b"), "#pragma GCC optimize"),
    (re.compile(r"__attribute__\s*\(\(.*?\b(?:__)?optimize(?:__)?\s*\("),
     "__attribute__((optimize))"),
    (re.compile(r"\bgnu::optimize\b"), "[[gnu::optimize]]"),
    (re.compile(r"#\s*pragma\s+clang\s+fp\s+contract\s*\(\s*(?:fast|on)\b"),
     "#pragma clang fp contract(fast|on)"),
    (re.compile(r"#\s*pragma\s+clang\s+fp\s+reassociate\s*\(\s*on\b"),
     "#pragma clang fp reassociate(on)"),
]
# Explicit fused multiply-adds, forbidden in src/ only.
FORBIDDEN_SRC_FMA = re.compile(
    r"\b(?:std::fmaf?|__builtin_fma[fl]?|_mm\d*_fn?m(?:add|sub)\w*)\s*\(")

# --- rule 6: obs metric-name inventory <-> docs ------------------------------

OBS_NAMES_HEADER = Path("src/obs/metric_names.h")
OBS_DOC = Path("docs/observability.md")
# `inline constexpr char kFoo[] = "plane.name";` — \s* spans the line wrap
# clang-format introduces on long names.
OBS_NAME_RE = re.compile(
    r'inline\s+constexpr\s+char\s+k\w+\[\]\s*=\s*"([^"]+)"')
# A backticked `plane.name` token in the doc; restricted to the known plane
# prefixes so prose mentions of other dotted identifiers don't count.
# Multi-segment names (e.g. `serve.shard.decisions`) are one token.
OBS_DOC_NAME_RE = re.compile(
    r"`((?:serve|train|cache)\.[a-z0-9_]+(?:\.[a-z0-9_]+)*)`")

# ----------------------------------------------------------------------------


def strip_comments_and_strings(text: str) -> str:
    """Blanks out //, /* */ comments and "..." literals, preserving line
    structure so finding line numbers stay meaningful."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line | block | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "string"
                out.append(" ")
                i += 1
                continue
            if c == "'":
                state = "char"
                out.append(" ")
                i += 1
                continue
            out.append(c)
        elif state == "line":
            if c == "\n":
                state = "code"
                out.append(c)
            else:
                out.append(" ")
        elif state == "block":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append(c if c == "\n" else " ")
        elif state in ("string", "char"):
            quote = '"' if state == "string" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == quote:
                state = "code"
            out.append(c if c == "\n" else " ")
        i += 1
    return "".join(out)


def cxx_files():
    for top in ("src", "bench", "examples", "tests"):
        yield from sorted((REPO / top).rglob("*.h"))
        yield from sorted((REPO / top).rglob("*.cpp"))


def findings_sync_primitives():
    found = []
    for path in cxx_files():
        rel = path.relative_to(REPO)
        if rel == SYNC_HOME:
            continue
        code = strip_comments_and_strings(path.read_text())
        for lineno, line in enumerate(code.splitlines(), 1):
            for token in FORBIDDEN_SYNC:
                if token in line:
                    found.append(
                        (rel, lineno, "sync-primitives",
                         f"raw {token} — use util::Mutex / util::MutexLock / "
                         f"util::CondVar from src/util/sync.h so the locking "
                         f"discipline stays inside -Wthread-safety"))
    return found


def findings_fast_path_pairing():
    found = []
    decl_re = re.compile(
        r"\b([A-Za-z_]\w*?)(" + "|".join(FAST_SUFFIXES) + r")\s*\(")
    tests_dir = REPO / "tests"
    test_texts = {p.name: p.read_text() for p in sorted(tests_dir.glob("*.cpp"))}
    declared = set()  # every fast-path name declared in a src/** header
    knobs = set()     # every rule-5 parallelism knob

    for path in sorted((REPO / "src").rglob("*.h")):
        rel = path.relative_to(REPO)
        code = strip_comments_and_strings(path.read_text())
        knobs.update(m.group(1) for m in KNOB_RE.finditer(code))
        seen = set()
        for m in decl_re.finditer(code):
            base, suffix = m.group(1), m.group(2)
            name = base + suffix
            declared.add(name)
            if name in seen or name in EXEMPT_FAST_PATHS:
                continue
            seen.add(name)
            lineno = code.count("\n", 0, m.start()) + 1

            sibling = IRREGULAR_SIBLINGS.get(name)
            candidates = [sibling] if sibling else [base, base + "_reference"]
            if not any(
                    re.search(rf"\b{re.escape(c)}\s*\(", code) for c in candidates):
                found.append(
                    (rel, lineno, "fast-path-pairing",
                     f"{name}() has no reference-path sibling "
                     f"({' / '.join(c + '()' for c in candidates)}) in this "
                     f"header — every fast path keeps its reference path"))

            if name in FLAG_PINNED:
                test_file, token = FLAG_PINNED[name]
                text = test_texts.get(test_file, "")
                if token not in text:
                    found.append(
                        (rel, lineno, "fast-path-pairing",
                         f"{name}() is registered as pinned by {test_file} "
                         f"via '{token}', but that token is missing there"))
            elif not any(name in text for text in test_texts.values()):
                found.append(
                    (rel, lineno, "fast-path-pairing",
                     f"{name}() appears in no tests/*.cpp — add it to the "
                     f"equivalence suite (or register a config-flag pin in "
                     f"scripts/check_invariants.py FLAG_PINNED)"))

    lint = Path(__file__).resolve().relative_to(REPO)
    for table, keys in (("FLAG_PINNED", FLAG_PINNED),
                        ("IRREGULAR_SIBLINGS", IRREGULAR_SIBLINGS)):
        for key in sorted(set(keys) - declared - knobs):
            found.append(
                (lint, 1, "fast-path-pairing",
                 f"{table} lists '{key}', which names neither a fast-path "
                 f"declaration in a src/** header nor a parallelism knob — "
                 f"stale entry"))
    return found


def findings_fp_flags():
    found = []
    cmake = REPO / "CMakeLists.txt"
    targets = [cmake] + list(cxx_files())
    for path in targets:
        rel = path.relative_to(REPO)
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            for flag in FORBIDDEN_FP_FLAGS:
                if flag in line:
                    found.append(
                        (rel, lineno, "fp-flags",
                         f"'{flag}' would let FMA contraction / reassociation "
                         f"break the <=1e-10 batched-vs-reference equivalence "
                         f"contract"))
    for path in cxx_files():
        rel = path.relative_to(REPO)
        code = strip_comments_and_strings(path.read_text())
        for lineno, line in enumerate(code.splitlines(), 1):
            hits = [name for regex, name in FORBIDDEN_FP_OVERRIDES
                    if regex.search(line)]
            if rel.parts[0] == "src":
                hits += [m.group(0).rstrip("( ")
                         for m in FORBIDDEN_SRC_FMA.finditer(line)]
            for name in hits:
                found.append(
                    (rel, lineno, "fp-flags",
                     f"'{name}' brings FMA contraction / reassociation back "
                     f"past -ffp-contract=off and breaks the bit-identical "
                     f"kernels and the <=1e-10 equivalence contract"))
    if REQUIRED_FP_GUARD not in cmake.read_text():
        found.append(
            (cmake.relative_to(REPO), 1, "fp-flags",
             f"CMakeLists.txt lost the {REQUIRED_FP_GUARD} guard next to "
             f"-march=native"))
    return found


def findings_bench_registry():
    found = []
    emitter_re = re.compile(r'BenchJson\s+\w+\s*\(\s*"([^"]+)"')
    emitters = {}  # json file name -> (source, line)
    for path in sorted((REPO / "bench").glob("*.cpp")):
        rel = path.relative_to(REPO)
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            m = emitter_re.search(line)
            if m:
                emitters[f"BENCH_{m.group(1)}.json"] = (rel, lineno)

    check_bench = REPO / "scripts" / "check_bench.py"
    registered = set(
        re.findall(r'"(BENCH_[A-Za-z0-9_]+\.json)"', check_bench.read_text()))

    for fname, (rel, lineno) in sorted(emitters.items()):
        if fname not in registered:
            found.append(
                (rel, lineno, "bench-registry",
                 f"{fname} is emitted here but not registered in "
                 f"scripts/check_bench.py BENCH_REGISTRY — its ratios would "
                 f"bypass the CI perf gate"))
    for fname in sorted(registered - set(emitters)):
        found.append(
            (check_bench.relative_to(REPO), 1, "bench-registry",
             f"{fname} is registered in BENCH_REGISTRY but no bench/*.cpp "
             f"emits it — stale entry"))
    return found


def findings_thread_knob_pinning():
    """Rule 5: every parallelism config knob in a src/** header —
    ``int <name>_threads = ...`` or ``int shards = ...`` — must be
    registered in FLAG_PINNED, and its registered test file must exist and
    mention the knob. Parallelism knobs may only change wall-clock; the
    registered test is what pins that."""
    found = []
    tests_dir = REPO / "tests"
    for path in sorted((REPO / "src").rglob("*.h")):
        rel = path.relative_to(REPO)
        code = strip_comments_and_strings(path.read_text())
        for m in KNOB_RE.finditer(code):
            knob = m.group(1)
            lineno = code.count("\n", 0, m.start()) + 1
            if knob not in FLAG_PINNED:
                found.append(
                    (rel, lineno, "thread-knob-pinning",
                     f"parallelism knob '{knob}' has no FLAG_PINNED entry in "
                     f"scripts/check_invariants.py — register the equivalence "
                     f"test that pins results bit-identical across its values"))
                continue
            test_file, token = FLAG_PINNED[knob]
            test_path = tests_dir / test_file
            if not test_path.is_file() or token not in test_path.read_text():
                found.append(
                    (rel, lineno, "thread-knob-pinning",
                     f"'{knob}' is registered as pinned by {test_file} via "
                     f"'{token}', but that file/token is missing"))
    return found


def findings_obs_docs_inventory():
    """Rule 6: src/obs/metric_names.h and the docs/observability.md
    inventory enumerate the same set of names, checked in both directions."""
    found = []
    header = REPO / OBS_NAMES_HEADER
    doc = REPO / OBS_DOC
    header_text = header.read_text()
    constants = {}  # metric/span name -> declaration line
    for m in OBS_NAME_RE.finditer(header_text):
        constants.setdefault(m.group(1),
                             header_text.count("\n", 0, m.start()) + 1)
    if not doc.is_file():
        found.append(
            (OBS_NAMES_HEADER, 1, "obs-docs-inventory",
             f"{OBS_DOC} is missing — the metric-name inventory must be "
             f"documented"))
        return found
    documented = {}  # name -> first doc line mentioning it
    for lineno, line in enumerate(doc.read_text().splitlines(), 1):
        for m in OBS_DOC_NAME_RE.finditer(line):
            documented.setdefault(m.group(1), lineno)
    for name, lineno in sorted(constants.items()):
        if name not in documented:
            found.append(
                (OBS_NAMES_HEADER, lineno, "obs-docs-inventory",
                 f"metric/span name '{name}' has no backticked entry in "
                 f"{OBS_DOC} — add it to the inventory table"))
    for name, lineno in sorted(documented.items()):
        if name not in constants:
            found.append(
                (OBS_DOC, lineno, "obs-docs-inventory",
                 f"documented name '{name}' has no constant in "
                 f"{OBS_NAMES_HEADER} — stale inventory entry"))
    return found


def main() -> int:
    rules = [
        findings_sync_primitives,
        findings_fast_path_pairing,
        findings_fp_flags,
        findings_bench_registry,
        findings_thread_knob_pinning,
        findings_obs_docs_inventory,
    ]
    findings = []
    for rule in rules:
        findings.extend(rule())
    for rel, lineno, rule, msg in findings:
        print(f"{rel}:{lineno}: [{rule}] {msg}")
    if findings:
        print(f"\n{len(findings)} invariant finding(s)", file=sys.stderr)
        return 1
    n_files = sum(1 for _ in cxx_files())
    print(f"check_invariants: {len(rules)} rules over {n_files} files, "
          f"0 findings")
    return 0


if __name__ == "__main__":
    sys.exit(main())
