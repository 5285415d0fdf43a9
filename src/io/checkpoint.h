// Versioned policy checkpoints (binary.h format, docs/serving.md).
//
// Two file kinds share the section helpers below:
//   - policy checkpoint ("DPOL"): the embedded AgentConfig plus every
//     parameter value — enough to reconstruct a serving agent from the file
//     alone (io::load_policy_agent, used by serve::PolicyServer).
//   - trainer checkpoint ("DTRN", written by rl::ReinforceTrainer): policy +
//     Adam moments + the trainer's evolving state (RNG stream, entropy and
//     curriculum schedules, reward-rate average), so a killed training run
//     resumes bit-exactly.
//
// Versioning rules: the version is exact-match (no silent migration); any
// layout change bumps it, and loading rejects a mismatch. All load paths
// return false/null on magic, version, structure, or I/O errors and never
// partially mutate their target on a detected-before-commit failure — see
// docs/serving.md for the precise guarantees.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "core/agent.h"
#include "io/binary.h"
#include "nn/adam.h"

namespace decima::io {

constexpr std::uint32_t kPolicyMagic = 0x44504F4Cu;   // "DPOL"
constexpr std::uint32_t kTrainerMagic = 0x4454524Eu;  // "DTRN"
// Version 2: AgentConfig serialization gained the embed_cache flag.
constexpr std::uint32_t kPolicyVersion = 2;
// Version 3: the TrainConfig fingerprint is one length-prefixed byte string
// and covers EnvConfig::faults.
constexpr std::uint32_t kTrainerVersion = 3;

// --- Policy checkpoints ------------------------------------------------------

// Writes the agent's AgentConfig and parameter values. False on I/O error.
bool save_policy(const core::DecimaAgent& agent, const std::string& path);

// Reads only the embedded AgentConfig (to construct a matching agent).
std::optional<core::AgentConfig> read_policy_config(const std::string& path);

// Loads parameter values into `agent`. The checkpoint's parameter list must
// match the agent's ParamSet name-for-name and shape-for-shape, and the
// embedded config must be inference-compatible with the agent's (see below —
// shape-preserving knobs like feature scales or limit_step still change what
// the weights mean); returns false (agent untouched) otherwise.
bool load_policy(core::DecimaAgent& agent, const std::string& path);

// Constructs an agent from the checkpoint's embedded config and loads the
// weights: the one-call path a serving process uses. The whole file is read
// and checked for exact exhaustion before the agent is built. Null on any
// failure.
std::unique_ptr<core::DecimaAgent> load_policy_agent(const std::string& path);

// --- Section helpers (shared with the trainer checkpoint) --------------------

void write_agent_config(BinaryWriter& w, const core::AgentConfig& c);
core::AgentConfig read_agent_config(BinaryReader& r);
// Field-wise equality, perf knobs included: chunked replay reorders gradient
// accumulation at the ulp level, so bit-exact resume needs identical knobs.
bool agent_config_equal(const core::AgentConfig& a, const core::AgentConfig& b);
// Weaker: the fields that give the same weights the same meaning at
// inference time (features, dimensions, heads, limit encoding/step). The
// seed and the batched_* implementation selectors may differ — they pick
// among equivalent execution paths, not different policies.
bool inference_compatible(const core::AgentConfig& a, const core::AgentConfig& b);

void write_param_values(BinaryWriter& w, const nn::ParamSet& set);
// Verifies count/name/shape against `set`, leaves `set` untouched and returns
// the values in `staged` (one matrix per parameter, set order) — callers
// commit them only once every section has been read (policy load, trainer
// resume). False on any mismatch.
bool read_param_values_staged(BinaryReader& r, const nn::ParamSet& set,
                              std::vector<nn::Matrix>& staged);

void write_adam_state(BinaryWriter& w, const nn::Adam& adam);
// Reads an Adam section and validates the moment count and shapes against
// `adam` without committing — for callers that restore several sections
// atomically (the trainer resume). read_adam_state stages + commits.
bool read_adam_state_staged(BinaryReader& r, const nn::Adam& adam,
                            std::int64_t* steps, std::vector<nn::Matrix>* m,
                            std::vector<nn::Matrix>* v);
bool read_adam_state(BinaryReader& r, nn::Adam& adam);

}  // namespace decima::io
