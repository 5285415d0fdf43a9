// Checkpoint round-trips (src/io): policy save/load bit-exactness, corrupt-,
// truncated- and mismatched-file rejection, and the trainer
// resume-determinism contract
//   train(N) == train(k) + save_checkpoint + resume + train(N-k)
// compared bit for bit on every parameter and Adam moment.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <vector>

#include "io/binary.h"
#include "io/checkpoint.h"
#include "rl/reinforce.h"
#include "serve/policy_server.h"

namespace decima {
namespace {

std::string tmp_path(const std::string& name) {
  return testing::TempDir() + name;
}

sim::EnvConfig tiny_env() {
  sim::EnvConfig c;
  c.num_executors = 2;
  c.enable_moving_delay = false;
  c.enable_wave_effect = false;
  c.enable_inflation = false;
  return c;
}

sim::JobSpec job(const std::string& name, int tasks, double dur) {
  sim::JobBuilder b(name);
  b.stage(tasks, dur);
  return b.build();
}

rl::WorkloadSampler skew_sampler() {
  return [](std::uint64_t) {
    return workload::batched(
        {job("long", 16, 1.0), job("short1", 2, 1.0), job("short2", 2, 1.0)});
  };
}

rl::TrainConfig train_config() {
  rl::TrainConfig c;
  c.num_iterations = 6;
  c.episodes_per_iter = 4;
  c.rollout_threads = 2;
  c.curriculum = false;
  c.differential_reward = true;  // exercises the reward-rate moving average
  c.entropy_weight = 0.05;
  c.env = tiny_env();
  c.sampler = skew_sampler();
  c.seed = 77;
  return c;
}

std::vector<std::vector<double>> all_values(const nn::ParamSet& set) {
  std::vector<std::vector<double>> out;
  for (const nn::Param* p : set.params()) out.push_back(p->value.raw());
  return out;
}

TEST(PolicyCheckpoint, RoundTripIsBitExact) {
  core::AgentConfig ac;
  ac.seed = 11;
  ac.multi_resource = true;  // include the class head in the param set
  core::DecimaAgent agent(ac);
  const std::string path = tmp_path("policy_roundtrip.ckpt");
  ASSERT_TRUE(io::save_policy(agent, path));

  // Fresh agent from the embedded config (which round-trips every field),
  // different initial weights.
  auto loaded = io::load_policy_agent(path);
  ASSERT_NE(loaded, nullptr);
  EXPECT_TRUE(io::agent_config_equal(loaded->config(), ac));
  EXPECT_EQ(all_values(loaded->params()), all_values(agent.params()));
}

TEST(PolicyCheckpoint, LoadIntoMatchingAgentOverwritesValues) {
  core::AgentConfig ac;
  ac.seed = 11;
  core::DecimaAgent a(ac), b([] {
    core::AgentConfig c;
    c.seed = 999;  // same structure, different init
    return c;
  }());
  const std::string path = tmp_path("policy_overwrite.ckpt");
  ASSERT_TRUE(io::save_policy(a, path));
  ASSERT_NE(all_values(b.params()), all_values(a.params()));
  ASSERT_TRUE(io::load_policy(b, path));
  EXPECT_EQ(all_values(b.params()), all_values(a.params()));
}

TEST(PolicyCheckpoint, RejectsStructuralMismatch) {
  core::AgentConfig ac;
  ac.seed = 11;
  core::DecimaAgent agent(ac);
  const std::string path = tmp_path("policy_mismatch.ckpt");
  ASSERT_TRUE(io::save_policy(agent, path));

  core::AgentConfig other = ac;
  other.emb_dim = 4;  // different parameter shapes
  core::DecimaAgent small(other);
  const auto before = all_values(small.params());
  EXPECT_FALSE(io::load_policy(small, path));
  EXPECT_EQ(all_values(small.params()), before)
      << "failed load must not mutate";

  // Shape-preserving but meaning-changing config: same parameter structure,
  // the task-duration feature masked — the weights would silently misread
  // their inputs, so the load must refuse.
  core::AgentConfig masked = ac;
  masked.features.use_task_duration = false;
  core::DecimaAgent unseen(masked);
  EXPECT_FALSE(io::load_policy(unseen, path));
}

TEST(PolicyCheckpoint, RejectsCorruptFiles) {
  core::AgentConfig ac;
  core::DecimaAgent agent(ac);
  const std::string path = tmp_path("policy_corrupt.ckpt");
  ASSERT_TRUE(io::save_policy(agent, path));

  // Truncated file.
  {
    std::ifstream in(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    std::ofstream out(tmp_path("policy_truncated.ckpt"), std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  }
  EXPECT_EQ(io::load_policy_agent(tmp_path("policy_truncated.ckpt")), nullptr);

  // Wrong magic.
  {
    std::ofstream out(tmp_path("policy_badmagic.ckpt"), std::ios::binary);
    const std::uint32_t junk = 0xDEADBEEF;
    out.write(reinterpret_cast<const char*>(&junk), sizeof junk);
  }
  EXPECT_EQ(io::load_policy_agent(tmp_path("policy_badmagic.ckpt")), nullptr);
  EXPECT_EQ(io::load_policy_agent(tmp_path("no_such_file.ckpt")), nullptr);
}

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

// The sweeps' positions in a file of `size` bytes: every one in the first
// and last 4 KiB and every 61st in between.
std::vector<std::uintmax_t> sweep_positions(std::uintmax_t size) {
  constexpr std::uintmax_t kEdge = 4096;
  constexpr std::uintmax_t kStride = 61;
  std::vector<std::uintmax_t> out;
  for (std::uintmax_t n = 0; n < size; ++n) {
    if (n < kEdge || n + kEdge >= size || n % kStride == 0) out.push_back(n);
  }
  return out;
}

// Copies `full` to `cut` and shrinks the copy to every sweep position as a
// length (longest first, so each cut is one truncate), calling
// `expect_rejected` after each.
template <typename F>
void sweep_truncations(const std::string& full, const std::string& cut,
                       F&& expect_rejected) {
  const std::vector<std::uintmax_t> lengths =
      sweep_positions(std::filesystem::file_size(full));
  std::filesystem::copy_file(
      full, cut, std::filesystem::copy_options::overwrite_existing);
  for (auto it = lengths.rbegin(); it != lengths.rend(); ++it) {
    std::filesystem::resize_file(cut, *it);
    expect_rejected(*it);
    if (testing::Test::HasFailure()) return;  // one report, not thousands
  }
}

// Copies `full` to `bad` and, at every sweep position in turn, flips every
// bit of that one byte in the copy, calls `expect_rejected`, and restores it.
template <typename F>
void sweep_byte_flips(const std::string& full, const std::string& bad,
                      F&& expect_rejected) {
  const std::string bytes = file_bytes(full);
  std::filesystem::copy_file(
      full, bad, std::filesystem::copy_options::overwrite_existing);
  std::fstream f(bad, std::ios::binary | std::ios::in | std::ios::out);
  const auto put = [&f](std::uintmax_t pos, char c) {
    f.seekp(static_cast<std::streamoff>(pos));
    f.put(c);
    f.flush();
  };
  for (std::uintmax_t pos : sweep_positions(bytes.size())) {
    const char c = bytes[static_cast<std::size_t>(pos)];
    put(pos, static_cast<char>(~c));
    expect_rejected(pos);
    put(pos, c);
    if (testing::Test::HasFailure()) return;  // one report, not thousands
  }
  ASSERT_TRUE(f.good());
  f.close();
  EXPECT_EQ(file_bytes(bad), bytes);
}

std::uint32_t u32_at(const std::string& bytes, std::size_t offset) {
  std::uint32_t v = 0;
  std::memcpy(&v, bytes.data() + offset, sizeof v);
  return v;
}

// Writes `bytes` to `path` with the u32 at `offset` replaced by `value` and
// the CRC-32 trailer recomputed, so the checksum passes and only the
// field's meaning is wrong.
void write_patched(const std::string& path, std::string bytes,
                   std::size_t offset, std::uint32_t value) {
  std::memcpy(bytes.data() + offset, &value, sizeof value);
  const std::size_t body = bytes.size() - sizeof(std::uint32_t);
  io::Crc32 crc;
  crc.update(bytes.data(), body);
  const std::uint32_t sum = crc.value();
  std::memcpy(bytes.data() + body, &sum, sizeof sum);
  std::ofstream(path, std::ios::binary | std::ios::trunc)
      .write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// A file with a valid checksum whose config names an emb_dim outside
// 1..kMaxEmbDim, or no limit encoding, is refused by every loader.
TEST(PolicyCheckpoint, RejectsOutOfRangeConfigFields) {
  core::AgentConfig ac;
  ac.seed = 11;
  core::DecimaAgent agent(ac);
  const std::string full = tmp_path("policy_fields_full.ckpt");
  const std::string bad = tmp_path("policy_fields_bad.ckpt");
  ASSERT_TRUE(io::save_policy(agent, full));
  const std::string bytes = file_bytes(full);
  // The 12-byte header and two booleans precede emb_dim; three more
  // booleans precede limit_encoding.
  constexpr std::size_t kEmbDimAt = 12 + 2 * 4;
  constexpr std::size_t kLimitEncodingAt = kEmbDimAt + 4 + 3 * 4;
  ASSERT_EQ(u32_at(bytes, kEmbDimAt), 8u);
  ASSERT_EQ(u32_at(bytes, kLimitEncodingAt), 0u);

  const auto before = all_values(agent.params());
  struct Patch {
    std::size_t at;
    std::uint32_t value;
  };
  for (const Patch& p :
       {Patch{kEmbDimAt, 0}, Patch{kEmbDimAt, io::kMaxEmbDim + 1},
        Patch{kEmbDimAt, 0x80000000u}, Patch{kLimitEncodingAt, 3},
        Patch{kLimitEncodingAt, 7}}) {
    write_patched(bad, bytes, p.at, p.value);
    EXPECT_EQ(io::load_policy_agent(bad), nullptr)
        << "offset " << p.at << " value " << p.value;
    EXPECT_FALSE(io::load_policy(agent, bad))
        << "offset " << p.at << " value " << p.value;
    EXPECT_EQ(serve::PolicyServer::from_checkpoint(bad), nullptr)
        << "offset " << p.at << " value " << p.value;
  }
  EXPECT_EQ(all_values(agent.params()), before);
  // The patching is sound: the original value written back loads.
  write_patched(bad, bytes, kEmbDimAt, 8);
  EXPECT_NE(io::load_policy_agent(bad), nullptr);
  EXPECT_TRUE(io::load_policy(agent, bad));
  EXPECT_NE(serve::PolicyServer::from_checkpoint(bad), nullptr);
}

TEST(PolicyCheckpoint, EveryTruncationIsRejected) {
  core::AgentConfig ac;
  ac.seed = 11;
  core::DecimaAgent source(ac);
  const std::string full = tmp_path("policy_sweep_full.ckpt");
  const std::string cut = tmp_path("policy_sweep_cut.ckpt");
  ASSERT_TRUE(io::save_policy(source, full));
  ASSERT_NE(io::load_policy_agent(full), nullptr);

  core::AgentConfig other = ac;
  other.seed = 12;  // same structure, different values
  core::DecimaAgent agent(other);
  const auto before = all_values(agent.params());
  sweep_truncations(full, cut, [&](std::uintmax_t n) {
    EXPECT_EQ(io::load_policy_agent(cut), nullptr) << "cut at " << n;
    EXPECT_FALSE(io::load_policy(agent, cut)) << "cut at " << n;
  });
  EXPECT_EQ(all_values(agent.params()), before);
}

// A CRC-32 trailer detects every single-byte change, so no position may load.
TEST(PolicyCheckpoint, EverySingleByteCorruptionIsRejected) {
  core::AgentConfig ac;
  ac.seed = 11;
  core::DecimaAgent source(ac);
  const std::string full = tmp_path("policy_flip_full.ckpt");
  const std::string bad = tmp_path("policy_flip_bad.ckpt");
  ASSERT_TRUE(io::save_policy(source, full));
  ASSERT_NE(io::load_policy_agent(full), nullptr);

  core::AgentConfig other = ac;
  other.seed = 12;  // same structure, different values
  core::DecimaAgent agent(other);
  const auto before = all_values(agent.params());
  std::size_t flips = 0;
  sweep_byte_flips(full, bad, [&](std::uintmax_t pos) {
    EXPECT_EQ(io::load_policy_agent(bad), nullptr) << "flip at " << pos;
    EXPECT_FALSE(io::load_policy(agent, bad)) << "flip at " << pos;
    ++flips;
  });
  EXPECT_EQ(flips, sweep_positions(std::filesystem::file_size(full)).size());
  EXPECT_EQ(all_values(agent.params()), before);
  // The restored copy loads again: every rejection was the flip's doing.
  EXPECT_TRUE(io::load_policy(agent, bad));
}

TEST(TrainerCheckpoint, ResumeContinuesBitExactly) {
  const std::string path = tmp_path("trainer_resume.ckpt");
  const int total_iters = 6, split = 3;

  // Uninterrupted run.
  core::AgentConfig ac;
  ac.seed = 5;
  core::DecimaAgent straight_agent(ac);
  rl::ReinforceTrainer straight(straight_agent, train_config());
  for (int i = 0; i < total_iters; ++i) straight.iterate();

  // Interrupted run: train(split), checkpoint, then resume in a brand-new
  // trainer + agent (fresh RNGs, fresh Adam) and finish.
  {
    core::DecimaAgent agent(ac);
    rl::ReinforceTrainer trainer(agent, train_config());
    for (int i = 0; i < split; ++i) trainer.iterate();
    ASSERT_TRUE(trainer.save_checkpoint(path));
  }
  core::DecimaAgent resumed_agent(ac);
  rl::ReinforceTrainer resumed(resumed_agent, train_config());
  ASSERT_TRUE(resumed.resume(path));
  EXPECT_EQ(resumed.iteration(), split);
  for (int i = split; i < total_iters; ++i) resumed.iterate();

  EXPECT_EQ(all_values(resumed_agent.params()),
            all_values(straight_agent.params()));
}

TEST(TrainerCheckpoint, SaveLoadRestoresAdamAndSchedules) {
  const std::string path = tmp_path("trainer_state.ckpt");
  core::AgentConfig ac;
  ac.seed = 5;
  auto cfg = train_config();
  cfg.curriculum = true;
  cfg.tau_mean_init = 50.0;
  cfg.tau_mean_growth = 10.0;

  core::DecimaAgent agent(ac);
  rl::ReinforceTrainer trainer(agent, cfg);
  trainer.iterate();
  trainer.iterate();
  ASSERT_TRUE(trainer.save_checkpoint(path));

  core::DecimaAgent restored_agent(ac);
  rl::ReinforceTrainer restored(restored_agent, cfg);
  ASSERT_TRUE(restored.resume(path));
  EXPECT_EQ(restored.iteration(), 2);
  EXPECT_EQ(restored.tau_mean(), trainer.tau_mean());
  EXPECT_EQ(all_values(restored_agent.params()), all_values(agent.params()));
}

TEST(TrainerCheckpoint, RejectsConfigMismatch) {
  const std::string path = tmp_path("trainer_mismatch.ckpt");
  core::AgentConfig ac;
  ac.seed = 5;
  {
    core::DecimaAgent agent(ac);
    rl::ReinforceTrainer trainer(agent, train_config());
    trainer.iterate();
    ASSERT_TRUE(trainer.save_checkpoint(path));
  }

  // Different learning rate: the checkpoint must be refused.
  auto other = train_config();
  other.lr = 5e-4;
  core::DecimaAgent agent(ac);
  rl::ReinforceTrainer trainer(agent, other);
  EXPECT_FALSE(trainer.resume(path));
  EXPECT_EQ(trainer.iteration(), 0) << "failed resume must not mutate";

  // Different environment (dynamics-affecting even with equal RL knobs).
  auto env_cfg = train_config();
  env_cfg.env.num_executors = 3;
  core::DecimaAgent env_agent(ac);
  rl::ReinforceTrainer env_trainer(env_agent, env_cfg);
  EXPECT_FALSE(env_trainer.resume(path));

  // Different fault plan (stragglers and mixed executor speeds), every other
  // field equal: the dynamics differ, so the checkpoint must be refused.
  auto faulty = train_config();
  faulty.env.faults.stragglers.prob = 0.3;
  faulty.env.faults.executor_speeds = {1.0, 0.5};
  core::DecimaAgent faulty_agent(ac);
  rl::ReinforceTrainer faulty_trainer(faulty_agent, faulty);
  EXPECT_FALSE(faulty_trainer.resume(path));
  EXPECT_EQ(faulty_trainer.iteration(), 0) << "failed resume must not mutate";

  // Different agent seed (clone reconstruction fingerprint).
  core::AgentConfig other_ac = ac;
  other_ac.seed = 6;
  core::DecimaAgent other_agent(other_ac);
  rl::ReinforceTrainer trainer2(other_agent, train_config());
  EXPECT_FALSE(trainer2.resume(path));

  // rollout_threads may legitimately differ (determinism is thread-invariant).
  auto threads = train_config();
  threads.rollout_threads = 1;
  core::DecimaAgent agent3(ac);
  rl::ReinforceTrainer trainer3(agent3, threads);
  EXPECT_TRUE(trainer3.resume(path));
}

TEST(TrainerCheckpoint, ResumeAcrossThreadCountsBitExact) {
  // The parallel-rollout determinism contract composed with resume
  // (docs/training.md): train(N, threads=8) must equal
  // train(k, threads=8) + save + resume(threads=2) + train(N−k) bit for
  // bit — the checkpoint deliberately excludes rollout_threads, so a run
  // may be suspended on one machine size and finished on another.
  const std::string path = tmp_path("trainer_resume_threads.ckpt");
  const int total_iters = 6, split = 3;
  core::AgentConfig ac;
  ac.seed = 5;

  auto cfg8 = train_config();
  cfg8.rollout_threads = 8;
  core::DecimaAgent straight_agent(ac);
  rl::ReinforceTrainer straight(straight_agent, cfg8);
  for (int i = 0; i < total_iters; ++i) straight.iterate();

  {
    core::DecimaAgent agent(ac);
    rl::ReinforceTrainer trainer(agent, cfg8);
    for (int i = 0; i < split; ++i) trainer.iterate();
    ASSERT_TRUE(trainer.save_checkpoint(path));
  }
  auto cfg2 = train_config();
  cfg2.rollout_threads = 2;
  core::DecimaAgent resumed_agent(ac);
  rl::ReinforceTrainer resumed(resumed_agent, cfg2);
  ASSERT_TRUE(resumed.resume(path));
  EXPECT_EQ(resumed.iteration(), split);
  for (int i = split; i < total_iters; ++i) resumed.iterate();

  EXPECT_EQ(all_values(resumed_agent.params()),
            all_values(straight_agent.params()));

  // The final checkpoints — params, Adam moments, RNG stream, schedules —
  // must be byte-identical too, not merely value-equal.
  const std::string straight_path = tmp_path("trainer_straight8.ckpt");
  const std::string resumed_path = tmp_path("trainer_resumed2.ckpt");
  ASSERT_TRUE(straight.save_checkpoint(straight_path));
  ASSERT_TRUE(resumed.save_checkpoint(resumed_path));
  ASSERT_FALSE(file_bytes(straight_path).empty());
  EXPECT_EQ(file_bytes(straight_path), file_bytes(resumed_path));
}

TEST(TrainerCheckpoint, EveryTruncationIsRejected) {
  core::AgentConfig ac;
  ac.seed = 5;
  const std::string full = tmp_path("trainer_sweep_full.ckpt");
  const std::string cut = tmp_path("trainer_sweep_cut.ckpt");
  {
    core::DecimaAgent agent(ac);
    rl::ReinforceTrainer trainer(agent, train_config());
    trainer.iterate();
    ASSERT_TRUE(trainer.save_checkpoint(full));
  }
  {
    // The uncut file resumes: the sweep cuts a checkpoint this trainer
    // would otherwise accept.
    core::DecimaAgent agent(ac);
    rl::ReinforceTrainer trainer(agent, train_config());
    ASSERT_TRUE(trainer.resume(full));
  }

  core::DecimaAgent agent(ac);
  rl::ReinforceTrainer trainer(agent, train_config());
  sweep_truncations(full, cut, [&](std::uintmax_t n) {
    EXPECT_FALSE(trainer.resume(cut)) << "cut at " << n;
  });
  EXPECT_EQ(trainer.iteration(), 0);

  // Every failed resume left the trainer untouched: its next iteration is
  // byte-equal to that of a twin that never tried to resume.
  core::DecimaAgent twin_agent(ac);
  rl::ReinforceTrainer twin(twin_agent, train_config());
  trainer.iterate();
  twin.iterate();
  EXPECT_EQ(all_values(agent.params()), all_values(twin_agent.params()));
  const std::string after = tmp_path("trainer_sweep_after.ckpt");
  const std::string twin_after = tmp_path("trainer_sweep_twin.ckpt");
  ASSERT_TRUE(trainer.save_checkpoint(after));
  ASSERT_TRUE(twin.save_checkpoint(twin_after));
  EXPECT_EQ(file_bytes(after), file_bytes(twin_after));
}

TEST(TrainerCheckpoint, EverySingleByteCorruptionIsRejected) {
  core::AgentConfig ac;
  ac.seed = 5;
  const std::string full = tmp_path("trainer_flip_full.ckpt");
  const std::string bad = tmp_path("trainer_flip_bad.ckpt");
  {
    core::DecimaAgent agent(ac);
    rl::ReinforceTrainer trainer(agent, train_config());
    trainer.iterate();
    ASSERT_TRUE(trainer.save_checkpoint(full));
  }

  core::DecimaAgent agent(ac);
  rl::ReinforceTrainer trainer(agent, train_config());
  std::size_t flips = 0;
  sweep_byte_flips(full, bad, [&](std::uintmax_t pos) {
    EXPECT_FALSE(trainer.resume(bad)) << "flip at " << pos;
    ++flips;
  });
  EXPECT_EQ(flips, sweep_positions(std::filesystem::file_size(full)).size());
  EXPECT_EQ(trainer.iteration(), 0);

  // Every failed resume left the trainer untouched: its next iteration is
  // byte-equal to that of a twin that never tried to resume.
  core::DecimaAgent twin_agent(ac);
  rl::ReinforceTrainer twin(twin_agent, train_config());
  trainer.iterate();
  twin.iterate();
  EXPECT_EQ(all_values(agent.params()), all_values(twin_agent.params()));
  const std::string after = tmp_path("trainer_flip_after.ckpt");
  const std::string twin_after = tmp_path("trainer_flip_twin.ckpt");
  ASSERT_TRUE(trainer.save_checkpoint(after));
  ASSERT_TRUE(twin.save_checkpoint(twin_after));
  EXPECT_EQ(file_bytes(after), file_bytes(twin_after));

  // The restored copy resumes: every rejection was the flip's doing.
  core::DecimaAgent fresh_agent(ac);
  rl::ReinforceTrainer fresh(fresh_agent, train_config());
  EXPECT_TRUE(fresh.resume(bad));
}

// The CRC-32 one bit at a time, straight from its definition: the oracle of
// the sliced io::Crc32.
std::uint32_t bytewise_crc32(const unsigned char* p, std::size_t n) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
  }
  return ~c;
}

TEST(Crc32, MatchesBytewiseReference) {
  io::Crc32 check;
  check.update("123456789", 9);
  EXPECT_EQ(check.value(), 0xCBF43926u);

  constexpr std::size_t kMax = 1024;
  std::vector<unsigned char> buf(kMax + 8);
  Rng rng(29);
  for (unsigned char& b : buf) {
    b = static_cast<unsigned char>(rng.uniform_int(0, 255));
  }
  // Every length at every alignment: each tail length after the
  // eight-byte steps, from every start offset within a word.
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= kMax; ++len) {
      io::Crc32 crc;
      crc.update(buf.data() + offset, len);
      ASSERT_EQ(crc.value(), bytewise_crc32(buf.data() + offset, len))
          << "offset " << offset << " length " << len;
    }
  }
  // Split updates continue the one stream.
  io::Crc32 whole;
  whole.update(buf.data(), kMax);
  for (std::size_t split = 0; split <= kMax; ++split) {
    io::Crc32 parts;
    parts.update(buf.data(), split);
    parts.update(buf.data() + split, kMax - split);
    ASSERT_EQ(parts.value(), whole.value()) << "split at " << split;
  }
}

TEST(RngState, RoundTripReproducesDrawSequence) {
  Rng a(123);
  a.uniform();
  a.exponential(10.0);
  const std::string state = a.state_string();
  Rng b(0);
  ASSERT_TRUE(b.set_state_string(state));
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.fork(), b.fork());
    EXPECT_EQ(a.uniform(), b.uniform());
  }
  EXPECT_FALSE(b.set_state_string("not a valid engine state"));
}

}  // namespace
}  // namespace decima
