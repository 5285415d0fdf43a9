#include "harness.h"

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "util/stats.h"
#include "workload/tpch.h"

namespace perfbench {

std::string work_file(const Options& opts, const std::string& suffix) {
  return opts.work_dir + "/" + opts.workload + "-" + std::to_string(opts.seed) +
         "-" + std::to_string(getpid()) + suffix;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream,
                          std::uint64_t index) {
  std::uint64_t z = seed;
  for (std::uint64_t part : {stream, index}) {
    z += 0x9e3779b97f4a7c15ULL + part * 0xd1b54a32d192ed03ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z ^= z >> 31;
  }
  return z;
}

std::vector<decima::workload::ArrivingJob> tpch_poisson(std::uint64_t seed,
                                                        int n, double mean_iat) {
  decima::Rng rng(seed);
  auto specs = decima::workload::sample_tpch_batch(rng, n);
  return decima::workload::continuous(std::move(specs), rng, mean_iat);
}

double lower_mean(std::vector<double> values, double keep) {
  std::sort(values.begin(), values.end());
  const auto n = std::max<std::size_t>(
      1, static_cast<std::size_t>(keep * static_cast<double>(values.size())));
  double sum = 0.0;
  for (std::size_t i = 0; i < n && i < values.size(); ++i) sum += values[i];
  return sum / static_cast<double>(std::min(n, values.size()));
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

std::uint64_t checksum(const std::vector<double>& values) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (double v : values) {
    unsigned char bytes[sizeof(double)];
    std::memcpy(bytes, &v, sizeof(double));
    for (unsigned char b : bytes) {
      h ^= b;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// --- Host speed ----------------------------------------------------------------

namespace {
constexpr std::size_t kRingEntries = 64 * 1024 / sizeof(std::uint32_t);
constexpr std::size_t kTimedSteps = 1 << 19;
constexpr double kReferenceStepNs = 3.5;
constexpr std::size_t kMatrixDim = 32;
constexpr int kTimedProducts = 160;
constexpr double kReferenceProductNs = 8000.0;
std::atomic<std::uint64_t> kernel_sink{0};

double ring_walk_ns(const std::vector<std::uint32_t>& next) {
  std::uint32_t at = 0;
  // One lap brings the ring into this core's caches, whatever ran before.
  for (std::size_t i = 0; i < kRingEntries; ++i) at = next[at];
  const double t0 = thread_cpu_s();
  for (std::size_t i = 0; i < kTimedSteps; ++i) at = next[at];
  const double t1 = thread_cpu_s();
  kernel_sink.store(at, std::memory_order_relaxed);
  return (t1 - t0) * 1e9 / static_cast<double>(kTimedSteps);
}

double matmul_ns() {
  constexpr std::size_t n = kMatrixDim;
  std::vector<double> a(n * n), b(n * n), c(n * n);
  for (std::size_t i = 0; i < n * n; ++i) {
    a[i] = 1.0 + static_cast<double>(i) * 1e-3;
    b[i] = 2.0 - static_cast<double>(i) * 1e-3;
  }
  const double t0 = thread_cpu_s();
  for (int rep = 0; rep < kTimedProducts; ++rep) {
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        double sum = 0.0;
        for (std::size_t k = 0; k < n; ++k) sum += a[i * n + k] * b[k * n + j];
        c[i * n + j] = sum;
      }
    }
    // Each product depends on the last, so none can be skipped.
    a[static_cast<std::size_t>(rep) % (n * n)] += c[0] * 1e-12;
  }
  const double t1 = thread_cpu_s();
  kernel_sink.store(static_cast<std::uint64_t>(c[n + 1]), std::memory_order_relaxed);
  return (t1 - t0) * 1e9 / kTimedProducts;
}
}  // namespace

HostSpeed::HostSpeed(Kernel kernel) : kernel_(kernel) {
  if (kernel_ != Kernel::kRingWalk) return;
  // Sattolo's shuffle: a single cycle through every entry, in a fixed
  // random order, so the walk defeats the prefetchers.
  next_.resize(kRingEntries);
  for (std::size_t i = 0; i < kRingEntries; ++i) {
    next_[i] = static_cast<std::uint32_t>(i);
  }
  for (std::size_t i = kRingEntries - 1; i > 0; --i) {
    const std::size_t j = derive_seed(kRingEntries, 0, i) % i;
    std::swap(next_[i], next_[j]);
  }
}

double HostSpeed::sample_ns() const {
  return kernel_ == Kernel::kRingWalk ? ring_walk_ns(next_) : matmul_ns();
}

double HostSpeed::slowdown(std::vector<double> samples_ns) const {
  const double reference =
      kernel_ == Kernel::kRingWalk ? kReferenceStepNs : kReferenceProductNs;
  return decima::percentile(std::move(samples_ns), 50) / reference;
}

// --- Spans ---------------------------------------------------------------------

int SpanLog::open(const char* name, std::uint64_t id) {
  Span s;
  s.name = name;
  s.id = id;
  s.parent = open_.empty() ? -1 : open_.back();
  s.start_ns = ns(Clock::now());
  spans_.push_back(s);
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void SpanLog::close(int index) {
  spans_[static_cast<std::size_t>(index)].end_ns = ns(Clock::now());
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

void SpanLog::add(const char* name, std::uint64_t id, Clock::time_point start,
                  Clock::time_point end) {
  Span s;
  s.name = name;
  s.id = id;
  s.parent = open_.empty() ? -1 : open_.back();
  s.start_ns = ns(start);
  s.end_ns = ns(end);
  spans_.push_back(s);
}

const std::vector<double>& SelfTimes::of(const std::string& name) const {
  static const std::vector<double> empty;
  const auto it = by_name.find(name);
  return it == by_name.end() ? empty : it->second;
}

double SelfTimes::percentile(const std::string& name, double p) const {
  const std::vector<double>& us = of(name);
  check(!us.empty(), "the traced run recorded no " + name + " span");
  return decima::percentile(us, p);
}

double SelfTimes::total_s(const std::string& name) const {
  const std::vector<double>& us = of(name);
  check(!us.empty(), "the traced run recorded no " + name + " span");
  double sum = 0.0;
  for (double v : us) sum += v;
  return sum * 1e-6;
}

SelfTimes self_times(const std::vector<const SpanLog*>& logs) {
  SelfTimes out;
  for (const SpanLog* log : logs) {
    const std::vector<Span>& spans = log->spans();
    std::vector<std::int64_t> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
      self[i] = spans[i].end_ns - spans[i].start_ns;
    }
    for (const Span& s : spans) {
      if (s.parent >= 0) {
        self[static_cast<std::size_t>(s.parent)] -= s.end_ns - s.start_ns;
      }
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const double us = static_cast<double>(self[i]) * 1e-3;
      out.by_name[spans[i].name].push_back(us);
      if (std::strncmp(spans[i].name, "bench.", 6) != 0) {
        out.layer_seconds += us * 1e-6;
      }
    }
  }
  return out;
}

bool write_chrome_trace(const std::string& path,
                        const std::vector<const SpanLog*>& logs,
                        std::size_t max_events) {
  struct Ref {
    const SpanLog* log;
    const Span* span;
  };
  std::vector<Ref> refs;
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) refs.push_back({log, &s});
  }
  std::stable_sort(refs.begin(), refs.end(), [](const Ref& a, const Ref& b) {
    return a.span->start_ns < b.span->start_ns;
  });
  if (refs.size() > max_events) refs.resize(max_events);

  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\":[";
  char buf[256];
  for (std::size_t i = 0; i < refs.size(); ++i) {
    const Span& s = *refs[i].span;
    const std::string parent =
        s.parent < 0 ? "null"
                     : refs[i].log->spans()[static_cast<std::size_t>(s.parent)]
                           .name;
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                  "\"parent\":\"%s\"}}",
                  i == 0 ? "" : ",\n", s.name, refs[i].log->tid(),
                  static_cast<double>(s.start_ns) * 1e-3,
                  static_cast<double>(s.end_ns - s.start_ns) * 1e-3,
                  static_cast<unsigned long long>(s.id), parent.c_str());
    out << buf;
  }
  out << "],\"displayTimeUnit\":\"ns\"}\n";
  return static_cast<bool>(out);
}

// --- Report --------------------------------------------------------------------

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_[name] = Metric{value, unit};
}

std::string format_double(double v) {
  std::ostringstream s;
  s.precision(17);
  s << v;
  return s.str();
}

}  // namespace perfbench
