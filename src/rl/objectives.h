// Reward shaping for alternative scheduling objectives (§8 "Other learning
// objectives"). The paper's evaluation uses average JCT and makespan; §8
// sketches deadline-aware and tail-focused rewards, which we implement as
// additional per-action reward generators:
//
//  - avg JCT:    r_k = −∫ J(t) dt            (Little's law, §5.3)
//  - makespan:   r_k = −(t_k − t_{k−1})
//  - tail JCT:   r_k = −∫ Σ_j age_j(t) dt    (penalizes old jobs
//                superlinearly: total penalty per job is JCT²/2, which
//                pushes down the tail of the JCT distribution)
//  - deadline:   avg-JCT penalty plus a fixed penalty for every job that
//                misses its deadline inside the interval; deadlines are
//                arrival + slack × critical-path duration.
//
// All generators return K+1 entries aligned with ClusterEnv::action_times()
// (the final entry covers the span from the last action to episode end),
// matching the convention in baseline.h. They read only the action times
// and the job table (arrival, finish), so the simulator keeps no reward
// state of its own.
#pragma once

#include <vector>

#include "sim/cluster_env.h"

namespace decima::rl {

std::vector<double> avg_jct_rewards(const sim::ClusterEnv& env);
std::vector<double> makespan_rewards(const sim::ClusterEnv& env);

// Integral of the total age of in-system jobs over each inter-action
// interval, negated.
std::vector<double> tail_jct_rewards(const sim::ClusterEnv& env);

struct DeadlineConfig {
  // deadline_j = arrival_j + slack * critical_path_duration_j.
  double slack = 4.0;
  // Penalty added when a job finishes past its deadline (or remains
  // unfinished past it at episode end).
  double miss_penalty = 100.0;
};

std::vector<double> deadline_rewards(const sim::ClusterEnv& env,
                                     const DeadlineConfig& config);

// Fraction of completed jobs that met their deadline (reporting helper).
double deadline_hit_rate(const sim::ClusterEnv& env,
                         const DeadlineConfig& config);

}  // namespace decima::rl
