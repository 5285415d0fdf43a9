// FNV-1a over 64 bits for the tests that pin exact outcomes as one hash.
// Each value is fed least significant byte first, so the hash does not
// depend on the host's byte order.
#pragma once

#include <cstdint>
#include <cstring>

namespace decima {

class Fnv1a64 {
 public:
  void u64(std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h_ = (h_ ^ ((v >> (8 * b)) & 0xFFu)) * 0x100000001b3ULL;
    }
  }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

}  // namespace decima
