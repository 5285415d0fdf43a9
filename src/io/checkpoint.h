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
// layout change bumps it, and loading rejects a mismatch. Both kinds end with
// a CRC-32 of every preceding byte (binary.h), checked before anything is
// read. All load paths return false/null on checksum, magic, version,
// structure, or I/O errors and never partially mutate their target on a
// detected-before-commit failure — see docs/serving.md for the precise
// guarantees.
#pragma once

#include <memory>
#include <string>

#include "core/agent.h"
#include "io/binary.h"
#include "nn/adam.h"

namespace decima::io {

constexpr std::uint32_t kPolicyMagic = 0x44504F4Cu;   // "DPOL"
constexpr std::uint32_t kTrainerMagic = 0x4454524Eu;  // "DTRN"
// Version 3: AgentConfig serialization lost two retired fields (the replay
// chunk size and the limit step), and the file gained its CRC-32 trailer.
constexpr std::uint32_t kPolicyVersion = 3;
// Version 4: the same AgentConfig change and CRC-32 trailer.
constexpr std::uint32_t kTrainerVersion = 4;
// The largest emb_dim a file may name. The repo's models use 4 and 8; the
// cap keeps a corrupt value from sizing an agent's matrices.
constexpr std::uint32_t kMaxEmbDim = 1024;

// --- Policy checkpoints ------------------------------------------------------

// Writes the agent's AgentConfig and parameter values. False on I/O error.
bool save_policy(const core::DecimaAgent& agent, const std::string& path);

// Loads parameter values into `agent`. The checkpoint's parameter list must
// match the agent's ParamSet name-for-name and shape-for-shape, and the
// embedded config must be inference-compatible with the agent's (see below —
// shape-preserving knobs like feature scales still change what the weights
// mean); returns false (agent untouched) otherwise.
bool load_policy(core::DecimaAgent& agent, const std::string& path);

// Constructs an agent from the checkpoint's embedded config and loads the
// weights: the one-call path a serving process uses. The whole file is read
// and checked for exact exhaustion before the agent is built. Null on any
// failure.
std::unique_ptr<core::DecimaAgent> load_policy_agent(const std::string& path);

// --- Section helpers (shared with the trainer checkpoint) --------------------

void write_agent_config(BinaryWriter& w, const core::AgentConfig& c);
// Fails `r` when emb_dim lies outside 1..kMaxEmbDim or limit_encoding names
// none of the three encodings.
core::AgentConfig read_agent_config(BinaryReader& r);
// Field-wise equality, perf knobs included: the batched and reference replay
// accumulate gradients in different orders at the ulp level, so bit-exact
// resume needs identical knobs.
bool agent_config_equal(const core::AgentConfig& a, const core::AgentConfig& b);
// Weaker: the fields that give the same weights the same meaning at
// inference time (features, dimensions, heads, limit encoding). The
// seed and the batched_* implementation selectors may differ — they pick
// among equivalent execution paths, not different policies.
bool inference_compatible(const core::AgentConfig& a,
                          const core::AgentConfig& b);

void write_param_values(BinaryWriter& w, const nn::ParamSet& set);
// Verifies count/name/shape against `set`, leaves `set` untouched and returns
// the values in `staged` (one matrix per parameter, set order) — callers
// commit them only once every section has been read (policy load, trainer
// resume). False on any mismatch.
bool read_param_values_staged(BinaryReader& r, const nn::ParamSet& set,
                              std::vector<nn::Matrix>& staged);

void write_adam_state(BinaryWriter& w, const nn::Adam& adam);
// Reads an Adam section and validates the moment count and shapes against
// `adam` without committing — callers restore it together with their other
// sections once every one has been read (the trainer resume).
bool read_adam_state_staged(BinaryReader& r, const nn::Adam& adam,
                            std::int64_t* steps, std::vector<nn::Matrix>* m,
                            std::vector<nn::Matrix>* v);

}  // namespace decima::io
