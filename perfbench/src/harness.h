// Shared pieces of the repository benchmark (perfbench/NOTES.md): run
// options, output checks, input generation, the in-memory span recorder of
// traced runs, and the result report.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/rng.h"
#include "workload/arrivals.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Sensitivity probe (NOTES.md): flips one reference switch in the configs
  // the benchmark builds. "" for every measured run.
  std::string probe;
  // Work directory for the checkpoints and the Chrome trace file.
  std::string work_dir = ".";
};

// A file in the work directory private to this process:
// <work_dir>/<workload>-<seed>-<pid><suffix>.
std::string work_file(const Options& opts, const std::string& suffix);

// A failed output check. main() prints the reason and exits non-zero.
struct CheckFailure : std::runtime_error {
  using std::runtime_error::runtime_error;
};
inline void check(bool ok, const std::string& reason) {
  if (!ok) throw CheckFailure(reason);
}

// Independent seed for input `index` of stream `stream` (SplitMix64 over the
// run seed), so every input of a run is a pure function of --seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream,
                          std::uint64_t index);

// Seed of every warm-up input. Warm-up inputs are the same on every run, so
// set-up does the same work whatever --seed is, and setup_s times the set-up
// code rather than the size of one seed's inputs. Every input of the timed
// phase is drawn from --seed.
constexpr std::uint64_t kWarmupSeed = 0x5eedULL;

// `n` TPC-H jobs, each uniform over queries and sizes as §7.2 samples them,
// arriving as a Poisson process with the given mean interarrival time; all
// drawn from `seed`.
std::vector<decima::workload::ArrivingJob> tpch_poisson(std::uint64_t seed,
                                                        int n, double mean_iat);

// Mean of the smallest `keep` share of `values` (at least one value).
double lower_mean(std::vector<double> values, double keep);

// CPU time of the calling thread, in seconds. Unlike wall time it leaves out
// the time the thread was runnable but not running, including the time the
// host ran another tenant on its vCPU.
double thread_cpu_s();

// Order-sensitive FNV-1a over the bytes of `values` (determinism checksums).
std::uint64_t checksum(const std::vector<double>& values);

double peak_rss_mb();

// --- Host speed ----------------------------------------------------------------
//
// Other tenants of a shared host slow its cores up to twofold for seconds to
// minutes at a time, which moves whole runs (NOTES.md, "Host speed"). The
// benchmark therefore times a reference kernel of its own on the threads that
// do the work, between units of work, and scales the end-to-end timings of
// those units to the kernel's reference speed. The program never runs the
// kernel, so no change to the program moves it.
class HostSpeed {
 public:
  enum class Kernel {
    // A dependent walk over a 64 KiB ring in random order. It lives in the
    // core's L2 and slows when a neighbour contends for the core's caches,
    // as the simulator and served decisions do.
    kRingWalk,
    // Products of two 32x32 double matrices in L1: dense arithmetic, as in
    // training's forward and backward passes.
    kMatmul,
  };
  explicit HostSpeed(Kernel kernel);
  // Nanoseconds per unit of the kernel (a ring step, a matrix product), now,
  // on the calling thread, from about 1-3 ms of work timed in thread CPU
  // time, so that a stall of the vCPU does not count. Safe to call from
  // several threads at once.
  double sample_ns() const;
  // How many times slower than the kernel's reference speed (about what a
  // quiet 4-vCPU Xeon VM reads) the host ran: the median of samples taken
  // around a unit of work over the reference. Timings of that unit are
  // divided by it, rates multiplied.
  double slowdown(std::vector<double> samples_ns) const;

 private:
  Kernel kernel_;
  std::vector<std::uint32_t> next_;  // the ring
};

// --- Spans (traced runs only) ------------------------------------------------
//
// Span names are "<layer>.<operation>", where <layer> is a module under src/
// (serve, core, gnn, nn, rl, sim, sched, io, workload); "bench.*" spans are
// the benchmark's own glue and belong to no layer.
struct Span {
  const char* name = nullptr;  // static string
  std::int64_t start_ns = 0;   // since the recorder's origin
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;    // index in the same log; -1 = root
  std::uint64_t id = 0;        // request, episode or iteration id
};

// One thread's spans, in opening order. Single writer; read after the
// writing thread is joined.
class SpanLog {
 public:
  SpanLog(int tid, Clock::time_point origin) : tid_(tid), origin_(origin) {}

  int open(const char* name, std::uint64_t id);
  void close(int index);
  // A finished span, child of the innermost open span.
  void add(const char* name, std::uint64_t id, Clock::time_point start,
           Clock::time_point end);

  int tid() const { return tid_; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::int64_t ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  }
  int tid_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// RAII span; a null log makes it a no-op (untraced runs).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, std::uint64_t id)
      : log_(log), index_(log != nullptr ? log->open(name, id) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int index_;
};

// Self time (duration minus the part covered by child spans) of every span,
// grouped by span name, in microseconds.
struct SelfTimes {
  std::map<std::string, std::vector<double>> by_name;
  // Sum over all spans whose layer is a module under src/, in seconds.
  double layer_seconds = 0.0;
  const std::vector<double>& of(const std::string& name) const;
  // Percentile `p` of the self times of `name`; a failed check when the
  // workload recorded no such span, so a layer that stops being measured
  // cannot read 0.
  double percentile(const std::string& name, double p) const;
  // Sum of the self times of `name`, in seconds; a failed check as above.
  double total_s(const std::string& name) const;
};
SelfTimes self_times(const std::vector<const SpanLog*>& logs);

// Writes the logs as Chrome trace-event JSON (chrome://tracing); at most
// `max_events` spans, earliest first. False on I/O error.
bool write_chrome_trace(const std::string& path,
                        const std::vector<const SpanLog*>& logs,
                        std::size_t max_events);

// --- Report --------------------------------------------------------------------

class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  // A human-readable line printed before the result (counts, checksums, the
  // workload's own names for the metrics).
  void note(const std::string& line) { notes_.push_back(line); }

  struct Metric {
    double value;
    std::string unit;
  };
  const std::map<std::string, Metric>& metrics() const { return metrics_; }
  const std::vector<std::string>& notes() const { return notes_; }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

 private:
  std::map<std::string, Metric> metrics_;
  std::vector<std::string> notes_;
};

std::string format_double(double v);

// The workloads (serve_tpch.cpp, train_tpch.cpp, sim_faults.cpp).
void run_serve_tpch(const Options& opts, Report& report);
void run_train_tpch(const Options& opts, Report& report);
void run_sim_faults(const Options& opts, Report& report);

}  // namespace perfbench
