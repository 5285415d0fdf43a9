#!/usr/bin/env python3
"""Unit tests for scripts/check_bench.py (the CI perf-regression gate).

Runs under plain ``python3 tests/test_check_bench.py`` (the ctest
``check_bench_unit`` entry) and is collected by pytest unchanged.
"""

import json
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))

import check_bench  # noqa: E402
from check_bench import (BenchError, check_rows, collect_rows,  # noqa: E402
                         floor_for, load_bench_file)


class FloorTest(unittest.TestCase):
    REGISTRY = {"BENCH_a.json": {"hot_speedup": 1.5}}

    def test_min_ratio_is_the_default_floor(self):
        self.assertEqual(
            floor_for("BENCH_a.json", "other_speedup", 0.9,
                      registry=self.REGISTRY), 0.9)

    def test_registry_floor_overrides_min_ratio(self):
        self.assertEqual(
            floor_for("BENCH_a.json", "hot_speedup", 0.9,
                      registry=self.REGISTRY), 1.5)

    def test_registry_floor_is_per_file(self):
        self.assertEqual(
            floor_for("BENCH_b.json", "hot_speedup", 0.9,
                      registry=self.REGISTRY), 0.9)

    def test_cli_strict_key_wins_over_registry(self):
        self.assertEqual(
            floor_for("BENCH_a.json", "hot_speedup", 0.9,
                      strict={"hot_speedup": 2.0}, registry=self.REGISTRY),
            2.0)


class CheckRowsTest(unittest.TestCase):
    def test_all_above_floor_passes(self):
        rows = [("BENCH_a.json", "x_speedup", 1.2),
                ("BENCH_a.json", "y_speedup", 0.95)]
        failures, lines = check_rows(rows, min_ratio=0.9)
        self.assertEqual(failures, [])
        self.assertEqual(len(lines), 2 + len(rows))  # header + rows

    def test_ratio_below_floor_is_a_failure(self):
        rows = [("BENCH_a.json", "x_speedup", 0.8)]
        failures, _ = check_rows(rows, min_ratio=0.9)
        self.assertEqual(failures, [("BENCH_a.json", "x_speedup", 0.8, 0.9)])

    def test_registry_floor_catches_headline_regression(self):
        # 1.2x clears the generic floor but not the registered 1.5x one.
        rows = [("BENCH_a.json", "hot_speedup", 1.2)]
        registry = {"BENCH_a.json": {"hot_speedup": 1.5}}
        failures, _ = check_rows(rows, 0.9, registry=registry)
        self.assertEqual(failures, [("BENCH_a.json", "hot_speedup", 1.2, 1.5)])

    def test_value_exactly_at_floor_passes(self):
        failures, _ = check_rows([("BENCH_a.json", "x_speedup", 0.9)], 0.9)
        self.assertEqual(failures, [])


class CollectRowsTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.dir = Path(self._tmp.name)
        self.addCleanup(self._tmp.cleanup)

    def write(self, name, payload):
        path = self.dir / name
        path.write_text(payload if isinstance(payload, str)
                        else json.dumps(payload))
        return path

    def test_collects_only_numeric_speedup_keys(self):
        self.write("BENCH_a.json", {"x_speedup": 1.5, "latency_us": 12.0,
                                    "note_speedup": "fast", "flag_speedup": True})
        _, rows = collect_rows(self.dir)
        self.assertEqual(rows, [("BENCH_a.json", "x_speedup", 1.5)])

    def test_missing_dir_is_a_clear_error(self):
        with self.assertRaisesRegex(BenchError, "does not exist"):
            collect_rows(self.dir / "nope")

    def test_malformed_json_is_a_clear_error(self):
        path = self.write("BENCH_a.json", '{"x_speedup": 1.')
        with self.assertRaisesRegex(BenchError, "not valid JSON"):
            load_bench_file(path)
        with self.assertRaises(BenchError):
            collect_rows(self.dir)

    def test_non_object_top_level_is_a_clear_error(self):
        path = self.write("BENCH_a.json", [1, 2, 3])
        with self.assertRaisesRegex(BenchError, "flat JSON object"):
            load_bench_file(path)

    def test_unregistered_bench_file_is_rejected(self):
        self.write("BENCH_rogue.json", {"x_speedup": 9.0})
        with self.assertRaisesRegex(BenchError, "unregistered"):
            collect_rows(self.dir, registry={"BENCH_a.json": {}})

    def test_registry_listed_indicator_keys_are_collected(self):
        # Indicator metrics (no "speedup" in the name) are gathered — and
        # therefore gated — when the registry lists them.
        self.write("BENCH_a.json", {"all_answered": 1.0, "x_speedup": 1.2,
                                    "raw_counter": 42.0})
        registry = {"BENCH_a.json": {"all_answered": 1.0}}
        _, rows = collect_rows(self.dir, registry=registry)
        self.assertEqual(sorted(rows),
                         [("BENCH_a.json", "all_answered", 1.0),
                          ("BENCH_a.json", "x_speedup", 1.2)])

    def test_missing_registered_key_in_present_file_is_rejected(self):
        self.write("BENCH_a.json", {"x_speedup": 1.2})
        registry = {"BENCH_a.json": {"all_answered": 1.0}}
        with self.assertRaisesRegex(BenchError, "all_answered"):
            collect_rows(self.dir, registry=registry)

    def test_non_numeric_registered_key_is_rejected(self):
        self.write("BENCH_a.json", {"all_answered": "yes"})
        registry = {"BENCH_a.json": {"all_answered": 1.0}}
        with self.assertRaisesRegex(BenchError, "all_answered"):
            collect_rows(self.dir, registry=registry)

    def test_indicator_below_floor_fails_the_gate(self):
        # A tripped invariant reports 0.0 against its 1.0 floor.
        rows = [("BENCH_a.json", "all_answered", 0.0)]
        registry = {"BENCH_a.json": {"all_answered": 1.0}}
        failures, _ = check_rows(rows, 0.9, registry=registry)
        self.assertEqual(failures,
                         [("BENCH_a.json", "all_answered", 0.0, 1.0)])

    def test_missing_registered_file_is_rejected_unless_allowed(self):
        self.write("BENCH_a.json", {"x_speedup": 1.1})
        registry = {"BENCH_a.json": {}, "BENCH_b.json": {}}
        with self.assertRaisesRegex(BenchError, "BENCH_b.json"):
            collect_rows(self.dir, registry=registry)
        files, rows = collect_rows(self.dir, registry=registry,
                                   allow_missing=True)
        self.assertEqual(len(files), 1)
        self.assertEqual(rows, [("BENCH_a.json", "x_speedup", 1.1)])


class RegistryTest(unittest.TestCase):
    def test_every_registry_floor_is_a_sane_ratio(self):
        # Registered keys are speedup ratios with floors >= 1.0, except
        # overhead ratios (``*_vs_off_ratio``): their ideal is exactly 1.0
        # (the compared arm should cost nothing), so their floor sits just
        # under it as a noise tolerance — never below 0.95.
        for fname, floors in check_bench.BENCH_REGISTRY.items():
            self.assertTrue(fname.startswith("BENCH_") and
                            fname.endswith(".json"), fname)
            for key, floor in floors.items():
                if key.endswith("_vs_off_ratio"):
                    self.assertGreaterEqual(floor, 0.95, key)
                    self.assertLess(floor, 1.0, key)
                else:
                    self.assertGreaterEqual(floor, 1.0, key)

    def test_observability_registry_gates_the_overhead_ratio(self):
        floors = check_bench.BENCH_REGISTRY["BENCH_observability.json"]
        self.assertIn("metrics_on_vs_off_ratio", floors)


if __name__ == "__main__":
    unittest.main()
