// TPC-H-like workload library.
//
// The paper profiles the 22 TPC-H queries on Spark at six input sizes
// (2, 5, 10, 20, 50, 100 GB) and drives all single-resource experiments from
// those profiles. We do not have the authors' profiling data, so this module
// synthesizes a deterministic DAG template per (query, size) pair that
// preserves the scheduling-relevant properties:
//   - distinct DAG shapes per query (chains, fan-ins, diamonds; stage counts
//     matching the spread visible in Fig. 1),
//   - heavy-tailed work distribution across the size mix (≈23% of jobs carry
//     ≈82% of the work, §7.2),
//   - per-query parallelism "sweet spots" that scale with input size (Fig. 2).
//
// A given (query, size) always produces the same JobSpec, mirroring how a
// recurring TPC-H query has a fixed profile.
#pragma once

#include <vector>

#include "sim/job.h"
#include "util/rng.h"

namespace decima::workload {

inline constexpr int kNumTpchQueries = 22;

// The six input sizes used throughout §7.2 (GB).
const std::vector<double>& tpch_sizes();

// Deterministic job template for `query` in [1, 22] at `size_gb`.
sim::JobSpec make_tpch_job(int query, double size_gb);

// Random (query, size) sample — uniform over queries and sizes, as in §7.2.
sim::JobSpec sample_tpch_job(decima::Rng& rng);

// A batch of n independent samples (batched-arrival experiments).
std::vector<sim::JobSpec> sample_tpch_batch(decima::Rng& rng, int n);

// Applies multi-resource memory requests: each DAG node's mem_req is drawn
// uniformly from (0, 1] (§7.3's TPC-H multi-resource setup).
void assign_memory_requests(sim::JobSpec& job, decima::Rng& rng);

// Analytic runtime model of a single job run alone on `parallelism` executors
// (used by the Fig. 2 bench and tests): per-level wave counts with the
// work-inflation multiplier applied, ignoring stochastic effects.
double ideal_runtime_at_parallelism(const sim::JobSpec& job, int parallelism);

// Fraction of total work held by the largest `fraction` of jobs (by work),
// e.g. work_share_of_top(jobs, 0.23) ≈ 0.82 for the paper's mix.
double work_share_of_top(const std::vector<sim::JobSpec>& jobs, double fraction);

}  // namespace decima::workload
