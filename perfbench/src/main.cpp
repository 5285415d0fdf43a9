// The repository benchmark: runs one workload for one seed against the
// decima library and prints its metrics. perfbench/NOTES.md describes the
// workloads, the metrics and the checks; perfbench/run.py builds this
// binary and is the command to run.
//
//   perfbench --workload serve_tpch|train_tpch|sim_faults --seed N
//             --seconds S --trace 0|1 [--probe NAME] [--work-dir DIR]
//
// The last line of standard output is one JSON object:
//   {"correct": true, "attempted": N, "failed": F, "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the workload's own per-layer
// metrics (--trace 1). A failed output check prints its reason to standard
// error and exits with code 2, without a result line.
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <string>

#include "harness.h"

namespace {

using perfbench::Options;
using perfbench::Report;

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload serve_tpch|train_tpch|sim_faults"
               " --seed N --seconds S --trace 0|1 [--probe embed_cache_off|"
               "batched_replay_off] [--work-dir DIR]\n";
  std::exit(64);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string value = argv[++i];
    try {
      if (key == "--workload") {
        o.workload = value;
      } else if (key == "--seed") {
        o.seed = std::stoull(value);
      } else if (key == "--seconds") {
        o.seconds = std::stod(value);
      } else if (key == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        o.trace = value == "1";
      } else if (key == "--probe") {
        o.probe = value;
      } else if (key == "--work-dir") {
        o.work_dir = value;
      } else {
        usage("unknown option " + key);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + key + ": " + value);
    }
  }
  if (!(o.seconds > 0.0 && o.seconds <= 120.0)) usage("--seconds out of range");
  if (!o.probe.empty() && o.probe != "embed_cache_off" &&
      o.probe != "batched_replay_off") {
    usage("unknown probe " + o.probe);
  }
  return o;
}

// Prints the notes, one line per metric, and the JSON result line. Which
// metrics a workload must report is run.py's check, against BENCHMARK.json.
void print(const Report& report) {
  for (const auto& [name, m] : report.metrics()) {
    perfbench::check(std::isfinite(m.value), name + " is not finite");
  }
  perfbench::check(report.attempted >= 1, "no operation was attempted");

  for (const std::string& line : report.notes()) std::cout << line << "\n";
  for (const auto& [name, m] : report.metrics()) {
    std::cout << "metric " << name << " = " << perfbench::format_double(m.value)
              << " " << m.unit << "\n";
  }
  std::cout << "{\"correct\": true, \"attempted\": " << report.attempted
            << ", \"failed\": " << report.failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : report.metrics()) {
    std::cout << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
              << perfbench::format_double(m.value) << ", \"unit\": \""
              << m.unit << "\"}";
    first = false;
  }
  std::cout << "}}" << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts = parse(argc, argv);
  Report report;
  try {
    if (opts.workload == "serve_tpch") {
      perfbench::run_serve_tpch(opts, report);
    } else if (opts.workload == "train_tpch") {
      perfbench::run_train_tpch(opts, report);
    } else if (opts.workload == "sim_faults") {
      perfbench::run_sim_faults(opts, report);
    } else {
      usage("unknown workload '" + opts.workload + "'");
    }
    print(report);
  } catch (const perfbench::CheckFailure& e) {
    std::cout.flush();
    std::cerr << "perfbench: check failed: " << e.what() << "\n";
    return 2;
  }
  return 0;
}
