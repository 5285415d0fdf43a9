#include "sim/job.h"

#include <algorithm>

namespace decima::sim {

namespace {

// Children adjacency of `spec`; parent indices must be in range.
std::vector<std::vector<int>> children_of(const JobSpec& spec) {
  std::vector<std::vector<int>> out(spec.stages.size());
  for (std::size_t v = 0; v < spec.stages.size(); ++v) {
    for (int p : spec.stages[v].parents) {
      out[static_cast<std::size_t>(p)].push_back(static_cast<int>(v));
    }
  }
  return out;
}

// Kahn's algorithm; shorter than the stage count iff `spec` has a cycle.
std::vector<int> topological_order(
    const JobSpec& spec, const std::vector<std::vector<int>>& children) {
  const std::size_t n = spec.stages.size();
  std::vector<int> indegree(n, 0);
  for (std::size_t v = 0; v < n; ++v) {
    indegree[v] = static_cast<int>(spec.stages[v].parents.size());
  }
  std::vector<int> order;
  order.reserve(n);
  std::vector<int> frontier;
  for (std::size_t v = 0; v < n; ++v) {
    if (indegree[v] == 0) frontier.push_back(static_cast<int>(v));
  }
  while (!frontier.empty()) {
    const int v = frontier.back();
    frontier.pop_back();
    order.push_back(v);
    for (int c : children[static_cast<std::size_t>(v)]) {
      if (--indegree[static_cast<std::size_t>(c)] == 0) frontier.push_back(c);
    }
  }
  return order;
}

}  // namespace

std::shared_ptr<const JobShape> JobShape::of(const JobSpec& spec) {
  const std::size_t n = spec.stages.size();
  auto shape = std::make_shared<JobShape>();
  shape->children = children_of(spec);
  shape->topo = topological_order(spec, shape->children);

  // One leaves-to-roots sweep: every child is final before its parents.
  std::vector<int> depth(n, 0);
  std::vector<double> chain(n, 0.0);  // longest duration chain from v
  shape->critical_path.assign(n, 0.0);
  int max_depth = 0;
  for (auto it = shape->topo.rbegin(); it != shape->topo.rend(); ++it) {
    const std::size_t v = static_cast<std::size_t>(*it);
    int d = 0;
    double best_cp = 0.0;
    double best_chain = 0.0;
    for (int c : shape->children[v]) {
      const std::size_t u = static_cast<std::size_t>(c);
      d = std::max(d, depth[u] + 1);
      best_cp = std::max(best_cp, shape->critical_path[u]);
      best_chain = std::max(best_chain, chain[u]);
    }
    depth[v] = d;
    max_depth = std::max(max_depth, d);
    shape->critical_path[v] = spec.stages[v].work() + best_cp;
    chain[v] = spec.stages[v].task_duration + best_chain;
  }
  shape->levels.resize(static_cast<std::size_t>(max_depth) + 1);
  for (std::size_t v = 0; v < n; ++v) {
    shape->levels[static_cast<std::size_t>(depth[v])].push_back(v);
    shape->critical_path_duration =
        std::max(shape->critical_path_duration, chain[v]);
    shape->total_work += spec.stages[v].work();
  }
  return shape;
}

bool JobSpec::validate(std::string* error) const {
  auto fail = [&](const std::string& why) {
    if (error) *error = name + ": " + why;
    return false;
  };
  auto fail_at = [&](std::size_t v, const std::string& why) {
    return fail("stage " + std::to_string(v) + " " + why);
  };
  if (stages.empty()) return fail("job has no stages");
  for (std::size_t v = 0; v < stages.size(); ++v) {
    const StageSpec& s = stages[v];
    if (s.num_tasks <= 0) return fail_at(v, "has no tasks");
    if (s.task_duration <= 0.0) return fail_at(v, "has non-positive duration");
    if (s.mem_req < 0.0 || s.mem_req > 1.0) {
      return fail_at(v, "mem_req outside [0,1]");
    }
    for (int p : s.parents) {
      if (p < 0 || static_cast<std::size_t>(p) >= stages.size()) {
        return fail_at(v, "has out-of-range parent");
      }
      if (static_cast<std::size_t>(p) == v) {
        return fail_at(v, "is its own parent");
      }
    }
  }
  if (topological_order(*this, children_of(*this)).size() != stages.size()) {
    return fail("dependency cycle");
  }
  return true;
}

int JobBuilder::stage(int num_tasks, double task_duration,
                      std::vector<int> parents, double mem_req) {
  StageSpec s;
  s.name = spec_.name + "/s" + std::to_string(spec_.stages.size());
  s.num_tasks = num_tasks;
  s.task_duration = task_duration;
  s.parents = std::move(parents);
  s.mem_req = mem_req;
  spec_.stages.push_back(std::move(s));
  return static_cast<int>(spec_.stages.size()) - 1;
}

}  // namespace decima::sim
