#include <gtest/gtest.h>

#include "workload/arrivals.h"
#include "workload/tpch.h"
#include "workload/trace.h"

namespace decima::workload {
namespace {

TEST(Tpch, TemplatesAreDeterministic) {
  const auto a = make_tpch_job(9, 100);
  const auto b = make_tpch_job(9, 100);
  ASSERT_EQ(a.stages.size(), b.stages.size());
  for (std::size_t v = 0; v < a.stages.size(); ++v) {
    EXPECT_EQ(a.stages[v].num_tasks, b.stages[v].num_tasks);
    EXPECT_DOUBLE_EQ(a.stages[v].task_duration, b.stages[v].task_duration);
    EXPECT_EQ(a.stages[v].parents, b.stages[v].parents);
  }
  EXPECT_DOUBLE_EQ(a.sweet_spot, b.sweet_spot);
}

TEST(Tpch, AllTemplatesValid) {
  for (int q = 1; q <= kNumTpchQueries; ++q) {
    for (double size : tpch_sizes()) {
      std::string err;
      EXPECT_TRUE(make_tpch_job(q, size).validate(&err))
          << "q" << q << " size " << size << ": " << err;
    }
  }
}

TEST(Tpch, WorkGrowsWithInputSize) {
  for (int q : {2, 9, 17}) {
    EXPECT_LT(sim::JobShape::of(make_tpch_job(q, 2))->total_work,
              sim::JobShape::of(make_tpch_job(q, 100))->total_work);
  }
}

TEST(Tpch, SweetSpotGrowsWithInputSize) {
  const auto small = make_tpch_job(9, 2);
  const auto large = make_tpch_job(9, 100);
  EXPECT_LT(small.sweet_spot, large.sweet_spot);
  // Fig. 2's anchors: Q9@100GB scales further than Q2@100GB.
  EXPECT_GT(make_tpch_job(9, 100).sweet_spot, make_tpch_job(2, 100).sweet_spot);
}

TEST(Tpch, HeavyTailedWorkMix) {
  // The paper's batched mix: 23% of jobs contain ~82% of total work (§7.2).
  Rng rng(3);
  const auto jobs = sample_tpch_batch(rng, 500);
  const double share = work_share_of_top(jobs, 0.23);
  EXPECT_GT(share, 0.6);
  EXPECT_LE(share, 0.98);
}

TEST(Tpch, IdealRuntimeHasSweetSpot) {
  // Runtime decreases up to the sweet spot and stops improving (or worsens)
  // well beyond it — the Fig. 2 shape.
  const auto job = make_tpch_job(2, 100);
  const double r1 = ideal_runtime_at_parallelism(job, 1);
  const double r_sweet =
      ideal_runtime_at_parallelism(job, static_cast<int>(job.sweet_spot));
  const double r_over = ideal_runtime_at_parallelism(job, 100);
  EXPECT_LT(r_sweet, r1);
  EXPECT_GE(r_over, r_sweet * 0.95);
}

TEST(Tpch, MemoryRequestsInUnitRange) {
  auto job = make_tpch_job(5, 20);
  Rng rng(1);
  assign_memory_requests(job, rng);
  for (const auto& s : job.stages) {
    EXPECT_GT(s.mem_req, 0.0);
    EXPECT_LE(s.mem_req, 1.0);
  }
}

TEST(Tpch, SampleRespectsCatalog) {
  Rng rng(5);
  for (int i = 0; i < 50; ++i) {
    const auto j = sample_tpch_job(rng);
    EXPECT_TRUE(j.validate());
    EXPECT_EQ(j.name.rfind("tpch-q", 0), 0u);
  }
}

TEST(Arrivals, PoissonMeanMatches) {
  Rng rng(7);
  const auto times = poisson_arrivals(rng, 10.0, 5000);
  ASSERT_EQ(times.size(), 5000u);
  for (std::size_t i = 1; i < times.size(); ++i) {
    EXPECT_GE(times[i], times[i - 1]);
  }
  EXPECT_NEAR(times.back() / 5000.0, 10.0, 0.5);
}

TEST(Arrivals, BatchedAllAtZero) {
  Rng rng(1);
  auto jobs = sample_tpch_batch(rng, 5);
  const auto w = batched(std::move(jobs));
  for (const auto& j : w) EXPECT_DOUBLE_EQ(j.arrival, 0.0);
}

TEST(Arrivals, ContinuousSortedTimes) {
  Rng rng(2);
  auto jobs = sample_tpch_batch(rng, 10);
  Rng arr(3);
  const auto w = continuous(std::move(jobs), arr, 5.0);
  for (std::size_t i = 1; i < w.size(); ++i) {
    EXPECT_GE(w[i].arrival, w[i - 1].arrival);
  }
}

TEST(Arrivals, DiurnalFactorShapesLoad) {
  // sin(0) = 0: at t = 0 the factor is exactly 1 (nominal load).
  EXPECT_DOUBLE_EQ(diurnal_iat_factor(0.0, 2000.0, 0.8), 1.0);
  // Quarter period is peak load (shortest IAT), three quarters the trough.
  const double peak = diurnal_iat_factor(500.0, 2000.0, 0.8);
  const double trough = diurnal_iat_factor(1500.0, 2000.0, 0.8);
  EXPECT_NEAR(peak, 0.2, 1e-12);
  EXPECT_NEAR(trough, 1.8, 1e-12);
  // Extreme burstiness hits the 0.1 floor instead of going nonpositive.
  EXPECT_DOUBLE_EQ(diurnal_iat_factor(500.0, 2000.0, 2.0), 0.1);
  // burstiness 0 is flat.
  EXPECT_DOUBLE_EQ(diurnal_iat_factor(777.0, 2000.0, 0.0), 1.0);
}

TEST(Arrivals, FlashCrowdConcentratesBurst) {
  Rng jrng(4);
  auto jobs = sample_tpch_batch(jrng, 40);
  FlashCrowdConfig cfg;
  cfg.base_iat = 25.0;
  cfg.burst_at = 200.0;
  cfg.burst_fraction = 0.5;
  cfg.burst_iat = 0.5;
  Rng arr(5);
  const auto w = flash_crowd(std::move(jobs), arr, cfg);
  ASSERT_EQ(w.size(), 40u);
  int in_burst_window = 0;
  for (std::size_t i = 0; i < w.size(); ++i) {
    if (i > 0) {
      EXPECT_GE(w[i].arrival, w[i - 1].arrival);  // sorted
    }
    if (w[i].arrival >= cfg.burst_at && w[i].arrival <= cfg.burst_at + 40.0) {
      ++in_burst_window;
    }
  }
  // The burst half lands in a tight window around burst_at (20 jobs at
  // ~0.5s spacing, plus whatever trickle happens to fall there).
  EXPECT_GE(in_burst_window, 20);

  // Deterministic under an equal seed.
  Rng jrng2(4), arr2(5);
  const auto w2 =
      flash_crowd(sample_tpch_batch(jrng2, 40), arr2, cfg);
  ASSERT_EQ(w2.size(), w.size());
  for (std::size_t i = 0; i < w.size(); ++i) {
    EXPECT_DOUBLE_EQ(w2[i].arrival, w[i].arrival);
  }
}

TEST(Arrivals, DiurnalArrivalsSortedAndBurstsCluster) {
  Rng jrng(6);
  auto jobs = sample_tpch_batch(jrng, 200);
  DiurnalConfig cfg;
  cfg.mean_iat = 10.0;
  cfg.period = 800.0;
  cfg.burstiness = 0.8;
  cfg.burst_prob = 0.1;
  cfg.burst_size = 5;
  cfg.burst_iat = 0.2;
  Rng arr(7);
  const auto w = diurnal_arrivals(std::move(jobs), arr, cfg);
  ASSERT_EQ(w.size(), 200u);
  int tight_gaps = 0;
  for (std::size_t i = 1; i < w.size(); ++i) {
    EXPECT_GE(w[i].arrival, w[i - 1].arrival);
    if (w[i].arrival - w[i - 1].arrival < 1.0) ++tight_gaps;
  }
  // Micro-bursts produce runs of sub-second gaps a plain 10s-IAT Poisson
  // process would make vanishingly rare in aggregate.
  EXPECT_GE(tight_gaps, 20);

  // burst_prob = 0 degrades to a diurnally-modulated Poisson process; the
  // draw sequence should differ from the bursty one above.
  Rng jrng2(6), arr2(7);
  DiurnalConfig plain = cfg;
  plain.burst_prob = 0.0;
  const auto w_plain =
      diurnal_arrivals(sample_tpch_batch(jrng2, 200), arr2, plain);
  ASSERT_EQ(w_plain.size(), 200u);
  for (std::size_t i = 1; i < w_plain.size(); ++i) {
    EXPECT_GE(w_plain[i].arrival, w_plain[i - 1].arrival);
  }
}

TEST(Trace, MatchesAggregateShape) {
  TraceConfig cfg;
  cfg.num_jobs = 2000;
  cfg.seed = 42;
  const auto trace = synthesize_trace(cfg);
  ASSERT_EQ(trace.size(), 2000u);
  const auto stats = trace_stats(trace);
  // 59% of DAGs have >= 4 stages (§7.3), some have hundreds.
  EXPECT_NEAR(stats.frac_ge4_stages, 0.59, 0.05);
  EXPECT_GE(stats.max_stages, 50);
  EXPECT_LE(stats.max_stages, 200);
  for (const auto& j : trace) {
    std::string err;
    ASSERT_TRUE(j.spec.validate(&err)) << err;
  }
}

TEST(Trace, ArrivalsSortedAndBursty) {
  TraceConfig cfg;
  cfg.num_jobs = 1000;
  cfg.burstiness = 0.8;
  const auto trace = synthesize_trace(cfg);
  for (std::size_t i = 1; i < trace.size(); ++i) {
    EXPECT_GE(trace[i].arrival, trace[i - 1].arrival);
  }
}

TEST(Trace, MemoryRequestsPresent) {
  TraceConfig cfg;
  cfg.num_jobs = 100;
  const auto trace = synthesize_trace(cfg);
  int with_mem = 0;
  for (const auto& j : trace) {
    for (const auto& s : j.spec.stages) {
      if (s.mem_req > 0) ++with_mem;
    }
  }
  EXPECT_GT(with_mem, 0);
}

TEST(Trace, Deterministic) {
  TraceConfig cfg;
  cfg.num_jobs = 50;
  cfg.seed = 9;
  const auto a = synthesize_trace(cfg);
  const auto b = synthesize_trace(cfg);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].arrival, b[i].arrival);
    EXPECT_EQ(a[i].spec.stages.size(), b[i].spec.stages.size());
  }
}

}  // namespace
}  // namespace decima::workload
