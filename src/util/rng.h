// Seeded random number generation for reproducible experiments.
//
// Every stochastic component in this repository draws its randomness through
// a Rng instance constructed from an explicit 64-bit seed, so that every
// experiment is reproducible bit-for-bit.
#pragma once

#include <cstdint>
#include <random>
#include <string>
#include <vector>

namespace decima {

// A thin, value-semantic wrapper around a 64-bit Mersenne Twister with the
// distribution helpers used throughout the simulator and trainer.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0) : engine_(seed) {}

  // Uniform double in [0, 1).
  double uniform() { return unit_(engine_); }

  // Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  // Uniform integer in [lo, hi] (inclusive).
  int uniform_int(int lo, int hi) {
    std::uniform_int_distribution<int> d(lo, hi);
    return d(engine_);
  }

  // Exponential with the given mean (mean = 1/rate). mean <= 0 returns 0.
  double exponential(double mean) {
    if (mean <= 0.0) return 0.0;
    std::exponential_distribution<double> d(1.0 / mean);
    return d(engine_);
  }

  // Log-normal parameterized by the *target* mean and a shape sigma (sigma of
  // the underlying normal). Used for heavy-ish-tailed task durations.
  double lognormal_mean(double mean, double sigma) {
    if (mean <= 0.0) return 0.0;
    const double mu = std::log(mean) - 0.5 * sigma * sigma;
    std::lognormal_distribution<double> d(mu, sigma);
    return d(engine_);
  }

  // Bounded Pareto used for heavy-tailed job input sizes / stage widths.
  double pareto(double scale, double alpha) {
    const double u = std::max(uniform(), 1e-12);
    return scale / std::pow(u, 1.0 / alpha);
  }

  // True with probability p.
  bool bernoulli(double p) { return uniform() < p; }

  // Sample an index in [0, weights.size()) proportionally to weights.
  // Non-positive total weight falls back to index 0.
  std::size_t weighted_index(const std::vector<double>& weights);

  // Full engine state as a portable text token stream (the standard streaming
  // format of mersenne_twister_engine), for bit-exact checkpoint resume: a
  // restored Rng produces exactly the draw sequence the saved one would have.
  std::string state_string() const;
  // Restores a state produced by state_string(); returns false on parse error
  // (the engine is left unchanged on failure).
  bool set_state_string(const std::string& state);

  // Derive an independent child stream; used to hand sub-seeds to components.
  std::uint64_t fork() {
    // SplitMix64 step over a fresh draw keeps child streams decorrelated.
    std::uint64_t z = engine_() + 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
  std::uniform_real_distribution<double> unit_{0.0, 1.0};
};

}  // namespace decima
