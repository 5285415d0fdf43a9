#include "io/checkpoint.h"

namespace decima::io {

void write_agent_config(BinaryWriter& w, const core::AgentConfig& c) {
  w.boolean(c.features.use_task_duration);
  w.boolean(c.features.iat_hint);
  w.u32(static_cast<std::uint32_t>(c.emb_dim));
  w.boolean(c.use_gnn);
  w.boolean(c.two_level_aggregation);
  w.boolean(c.parallelism_control);
  w.u32(static_cast<std::uint32_t>(c.limit_encoding));
  w.boolean(c.multi_resource);
  w.boolean(c.batched_inference);
  w.boolean(c.embed_cache);
  w.boolean(c.batched_replay);
  w.u64(c.seed);
}

core::AgentConfig read_agent_config(BinaryReader& r) {
  core::AgentConfig c;
  c.features.use_task_duration = r.boolean();
  c.features.iat_hint = r.boolean();
  const std::uint32_t emb_dim = r.u32();
  c.use_gnn = r.boolean();
  c.two_level_aggregation = r.boolean();
  c.parallelism_control = r.boolean();
  const std::uint32_t limit_encoding = r.u32();
  c.multi_resource = r.boolean();
  c.batched_inference = r.boolean();
  c.embed_cache = r.boolean();
  c.batched_replay = r.boolean();
  c.seed = r.u64();
  // Checked before they are stored: a value no agent can take fails the
  // read and leaves the defaults in place.
  if (emb_dim < 1 || emb_dim > kMaxEmbDim ||
      limit_encoding >
          static_cast<std::uint32_t>(core::LimitEncoding::kStageLevel)) {
    r.fail();
    return c;
  }
  c.emb_dim = static_cast<int>(emb_dim);
  c.limit_encoding = static_cast<core::LimitEncoding>(limit_encoding);
  return c;
}

bool inference_compatible(const core::AgentConfig& a,
                          const core::AgentConfig& b) {
  return a.features.use_task_duration == b.features.use_task_duration &&
         a.features.iat_hint == b.features.iat_hint &&
         a.emb_dim == b.emb_dim && a.use_gnn == b.use_gnn &&
         a.two_level_aggregation == b.two_level_aggregation &&
         a.parallelism_control == b.parallelism_control &&
         a.limit_encoding == b.limit_encoding &&
         a.multi_resource == b.multi_resource;
}

bool agent_config_equal(const core::AgentConfig& a,
                        const core::AgentConfig& b) {
  return inference_compatible(a, b) &&
         a.batched_inference == b.batched_inference &&
         a.embed_cache == b.embed_cache &&
         a.batched_replay == b.batched_replay && a.seed == b.seed;
}

void write_param_values(BinaryWriter& w, const nn::ParamSet& set) {
  w.u64(set.params().size());
  for (const nn::Param* p : set.params()) {
    w.str(p->name);
    w.matrix(p->value);
  }
}

bool read_param_values_staged(BinaryReader& r, const nn::ParamSet& set,
                              std::vector<nn::Matrix>& staged) {
  const std::uint64_t count = r.u64();
  if (!r.ok() || count != set.params().size()) return false;
  staged.clear();
  staged.reserve(set.params().size());
  for (const nn::Param* p : set.params()) {
    if (r.str() != p->name) return false;
    nn::Matrix m = r.matrix();
    if (!r.ok() || !m.same_shape(p->value)) return false;
    staged.push_back(std::move(m));
  }
  return true;
}

void write_adam_state(BinaryWriter& w, const nn::Adam& adam) {
  w.i64(adam.steps_taken());
  w.u64(adam.first_moments().size());
  for (const nn::Matrix& m : adam.first_moments()) w.matrix(m);
  for (const nn::Matrix& v : adam.second_moments()) w.matrix(v);
}

bool read_adam_state_staged(BinaryReader& r, const nn::Adam& adam,
                            std::int64_t* steps, std::vector<nn::Matrix>* m,
                            std::vector<nn::Matrix>* v) {
  *steps = r.i64();
  const std::uint64_t count = r.u64();
  if (!r.ok() || count != adam.first_moments().size()) return false;
  m->assign(static_cast<std::size_t>(count), nn::Matrix{});
  v->assign(static_cast<std::size_t>(count), nn::Matrix{});
  for (auto& x : *m) x = r.matrix();
  for (auto& x : *v) x = r.matrix();
  if (!r.ok()) return false;
  for (std::size_t i = 0; i < m->size(); ++i) {
    if (!(*m)[i].same_shape(adam.first_moments()[i]) ||
        !(*v)[i].same_shape(adam.second_moments()[i])) {
      return false;
    }
  }
  return true;
}

bool save_policy(const core::DecimaAgent& agent, const std::string& path) {
  BinaryWriter w(path);
  w.header(kPolicyMagic, kPolicyVersion);
  write_agent_config(w, agent.config());
  write_param_values(w, agent.params());
  return w.finish();
}

bool load_policy(core::DecimaAgent& agent, const std::string& path) {
  BinaryReader r(path);
  if (!r.open_header(kPolicyMagic, kPolicyVersion)) return false;
  // Parameter names/shapes are verified below, but shape-preserving config
  // differences (a masked task-duration feature) would silently change what
  // the weights mean — reject those too.
  const core::AgentConfig config = read_agent_config(r);
  if (!r.ok() || !inference_compatible(config, agent.config())) return false;
  // Stage + check exact exhaustion before committing: trailing garbage is
  // as suspect as a truncated file.
  std::vector<nn::Matrix> staged;
  if (!read_param_values_staged(r, agent.params(), staged) || !r.at_end()) {
    return false;
  }
  auto& params = agent.params().params();
  for (std::size_t i = 0; i < staged.size(); ++i) {
    params[i]->value = std::move(staged[i]);
  }
  agent.params().bump_version();
  return true;
}

std::unique_ptr<core::DecimaAgent> load_policy_agent(const std::string& path) {
  // One reader for config and weights: no second open, no window for the
  // file to change between reading the config and reading the values.
  BinaryReader r(path);
  if (!r.open_header(kPolicyMagic, kPolicyVersion)) return nullptr;
  const core::AgentConfig config = read_agent_config(r);
  // Stage the whole parameter section and check exact exhaustion before
  // building the agent: a truncated or padded file is refused without paying
  // for a randomly initialized agent it would throw away.
  const std::uint64_t count = r.count();
  std::vector<std::string> names;
  std::vector<nn::Matrix> values;
  for (std::uint64_t i = 0; i < count && r.ok(); ++i) {
    names.push_back(r.str());
    values.push_back(r.matrix());
  }
  if (!r.at_end()) return nullptr;
  auto agent = std::make_unique<core::DecimaAgent>(config);
  const auto& params = agent->params().params();
  if (values.size() != params.size()) return nullptr;
  for (std::size_t i = 0; i < params.size(); ++i) {
    if (names[i] != params[i]->name ||
        !values[i].same_shape(params[i]->value)) {
      return nullptr;
    }
  }
  for (std::size_t i = 0; i < params.size(); ++i) {
    params[i]->value = std::move(values[i]);
  }
  agent->params().bump_version();
  return agent;
}

}  // namespace decima::io
