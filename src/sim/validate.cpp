#include "sim/validate.h"

#include <algorithm>
#include <map>
#include <sstream>

namespace decima::sim {

namespace {

bool fail(std::string* error, const std::string& why) {
  if (error) *error = why;
  return false;
}

}  // namespace

bool validate_trace(const ClusterEnv& env, std::string* error) {
  return validate_trace_data(env.trace(), env.jobs(), env.executor_classes(),
                             env.executors(), error);
}

bool validate_trace_data(const std::vector<TaskRecord>& trace,
                         const std::vector<JobState>& jobs,
                         const std::vector<ExecutorClass>& classes,
                         const std::vector<ExecutorState>& executors,
                         std::string* error) {

  // (1) task counts per stage. Attempts killed by an executor failure are
  // excluded: each task must COMPLETE exactly once, however often faults
  // forced it to restart.
  std::map<std::pair<int, int>, int> counts;
  for (const TaskRecord& t : trace) {
    if (!t.killed) counts[{t.job, t.stage}]++;
  }
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    if (!jobs[j].done()) continue;
    for (std::size_t v = 0; v < jobs[j].spec.stages.size(); ++v) {
      const int expect = jobs[j].spec.stages[v].num_tasks;
      const int got = counts[{static_cast<int>(j), static_cast<int>(v)}];
      if (got != expect) {
        std::ostringstream os;
        os << "job " << j << " stage " << v << " ran " << got
           << " tasks, expected " << expect;
        return fail(error, os.str());
      }
    }
  }

  // (2) executor non-overlap. Tasks are traced in dispatch order but overlap
  // must be checked per executor in time order. Killed attempts participate
  // too: their span is clamped to the kill time, and nothing may run on the
  // executor before its recovery.
  std::map<int, std::vector<std::pair<Time, Time>>> by_exec;
  for (const TaskRecord& t : trace) {
    by_exec[t.executor].emplace_back(t.dispatched, t.end);
  }
  for (auto& [exec, spans] : by_exec) {
    std::sort(spans.begin(), spans.end());
    for (std::size_t i = 1; i < spans.size(); ++i) {
      if (spans[i].first < spans[i - 1].second - 1e-9) {
        std::ostringstream os;
        os << "executor " << exec << " double-booked at t="
           << spans[i].first;
        return fail(error, os.str());
      }
    }
  }

  // (3) dependency order: child tasks must not *start* before every parent
  // stage finished. Track per-stage last end.
  std::map<std::pair<int, int>, Time> stage_end;
  std::map<std::pair<int, int>, Time> stage_first_dispatch;
  for (const TaskRecord& t : trace) {
    auto key = std::make_pair(t.job, t.stage);
    auto it = stage_end.find(key);
    stage_end[key] =
        it == stage_end.end() ? t.end : std::max(it->second, t.end);
    auto fit = stage_first_dispatch.find(key);
    stage_first_dispatch[key] =
        fit == stage_first_dispatch.end() ? t.dispatched
                                          : std::min(fit->second, t.dispatched);
  }
  for (const TaskRecord& t : trace) {
    const JobState& job = jobs[static_cast<std::size_t>(t.job)];
    for (int p : job.spec.stages[static_cast<std::size_t>(t.stage)].parents) {
      const auto it = stage_end.find({t.job, p});
      if (it == stage_end.end() || t.dispatched < it->second - 1e-9) {
        std::ostringstream os;
        os << "job " << t.job << " stage " << t.stage
           << " dispatched before parent " << p << " finished";
        return fail(error, os.str());
      }
    }
    // (4) arrival ordering.
    if (t.dispatched < job.arrival - 1e-9) {
      std::ostringstream os;
      os << "job " << t.job << " stage " << t.stage
         << " dispatched before job arrival";
      return fail(error, os.str());
    }
  }

  // (5) finish-time consistency.
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    if (!jobs[j].done()) continue;
    Time max_end = jobs[j].arrival;
    for (const TaskRecord& t : trace) {
      if (t.job == static_cast<int>(j)) max_end = std::max(max_end, t.end);
    }
    if (std::abs(jobs[j].finish - max_end) > 1e-6) {
      std::ostringstream os;
      os << "job " << j << " finish time " << jobs[j].finish
         << " != last task end " << max_end;
      return fail(error, os.str());
    }
  }

  // (6) memory fit.
  for (const TaskRecord& t : trace) {
    const JobState& job = jobs[static_cast<std::size_t>(t.job)];
    const double req =
        job.spec.stages[static_cast<std::size_t>(t.stage)].mem_req;
    const int cls = executors[static_cast<std::size_t>(t.executor)].cls;
    if (!classes[static_cast<std::size_t>(cls)].fits(req)) {
      std::ostringstream os;
      os << "task of job " << t.job << " stage " << t.stage
         << " ran on executor class with insufficient memory";
      return fail(error, os.str());
    }
  }

  return true;
}

}  // namespace decima::sim
