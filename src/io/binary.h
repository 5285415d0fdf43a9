// Binary (de)serialization primitives for the checkpoint layer.
//
// The format is deliberately simple: fixed-width little-endian integers and
// IEEE-754 doubles written verbatim, length-prefixed strings, and matrices as
// (rows, cols, row-major doubles). Doubles round-trip bit-exactly — the
// checkpoint contract (docs/serving.md) is that a resumed training run or a
// served policy is indistinguishable from the process that wrote the file.
//
// Every file starts with a caller-chosen 32-bit magic, a format version, and
// an endianness sentinel; BinaryReader::open_header verifies all three so a
// foreign or corrupt file fails loudly instead of loading garbage. Every file
// ends with a CRC-32 of all preceding bytes, which BinaryReader checks before
// the first read, so no single changed byte loads.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "nn/matrix.h"

namespace decima::io {

// Written after the magic so a file produced on an exotic big-endian host is
// rejected rather than silently byte-swapped.
constexpr std::uint32_t kEndianSentinel = 0x01020304u;

// The byte-at-a-time table of the reflected CRC-32 polynomial 0xEDB88320.
constexpr std::array<std::uint32_t, 256> crc32_table() {
  std::array<std::uint32_t, 256> t{};
  for (std::uint32_t n = 0; n < 256; ++n) {
    std::uint32_t c = n;
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    t[n] = c;
  }
  return t;
}

// CRC-32 (the IEEE 802.3 polynomial, reflected, as zlib computes it). It
// detects every error burst of up to 32 bits, so every single-byte change.
class Crc32 {
 public:
  void update(const void* data, std::size_t bytes) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < bytes; ++i) {
      state_ = kTable[(state_ ^ p[i]) & 0xFFu] ^ (state_ >> 8);
    }
  }
  std::uint32_t value() const { return ~state_; }

 private:
  static constexpr std::array<std::uint32_t, 256> kTable = crc32_table();
  std::uint32_t state_ = 0xFFFFFFFFu;
};

class BinaryWriter {
 public:
  explicit BinaryWriter(const std::string& path)
      : out_(path, std::ios::binary) {}

  // Writes magic + version + endianness sentinel.
  void header(std::uint32_t magic, std::uint32_t version) {
    u32(magic);
    u32(version);
    u32(kEndianSentinel);
  }

  void u32(std::uint32_t v) { raw(&v, sizeof v); }
  void u64(std::uint64_t v) { raw(&v, sizeof v); }
  void i64(std::int64_t v) { raw(&v, sizeof v); }
  void f64(double v) { raw(&v, sizeof v); }
  void boolean(bool v) { u32(v ? 1u : 0u); }

  void str(const std::string& s) {
    u64(s.size());
    raw(s.data(), s.size());
  }

  void doubles(const std::vector<double>& v) {
    u64(v.size());
    raw(v.data(), v.size() * sizeof(double));
  }

  void matrix(const nn::Matrix& m) {
    u64(m.rows());
    u64(m.cols());
    raw(m.raw().data(), m.raw().size() * sizeof(double));
  }

  // True while every write so far has succeeded.
  bool ok() const { return static_cast<bool>(out_); }
  // Appends the CRC-32 trailer, flushes and reports the final status.
  bool finish() {
    const std::uint32_t crc = crc_.value();
    out_.write(reinterpret_cast<const char*>(&crc), sizeof crc);
    out_.flush();
    return ok();
  }

 private:
  void raw(const void* data, std::size_t bytes) {
    crc_.update(data, bytes);
    out_.write(static_cast<const char*>(data),
               static_cast<std::streamsize>(bytes));
  }

  std::ofstream out_;
  Crc32 crc_;
};

// Reads the format above. The constructor reads the whole file and checks
// its CRC-32 trailer; a missing, oversized or mismatched file starts failed.
// Every accessor sets the fail flag (ok() == false) on short reads; values
// read after a failure are zero/empty, so callers can batch reads and check
// ok() once per section.
class BinaryReader {
 public:
  explicit BinaryReader(const std::string& path) {
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    const std::streamoff size = in ? static_cast<std::streamoff>(in.tellg())
                                   : std::streamoff{-1};
    std::uint32_t stored = 0;
    if (size < static_cast<std::streamoff>(sizeof stored) ||
        size > kMaxFileBytes) {
      return;
    }
    buf_.resize(static_cast<std::size_t>(size));
    in.seekg(0);
    in.read(buf_.data(), static_cast<std::streamsize>(size));
    if (!in) return;
    end_ = buf_.size() - sizeof stored;
    std::memcpy(&stored, buf_.data() + end_, sizeof stored);
    Crc32 crc;
    crc.update(buf_.data(), end_);
    ok_ = crc.value() == stored;
  }

  // Verifies magic, exact version, and the endianness sentinel.
  bool open_header(std::uint32_t magic, std::uint32_t version) {
    return u32() == magic && u32() == version && u32() == kEndianSentinel &&
           ok();
  }

  std::uint32_t u32() { return scalar<std::uint32_t>(); }
  std::uint64_t u64() { return scalar<std::uint64_t>(); }
  std::int64_t i64() { return scalar<std::int64_t>(); }
  double f64() { return scalar<double>(); }
  bool boolean() { return u32() != 0; }
  // A u64 element count or length prefix, bounded by sane_count: past the
  // cap it sets the fail flag and returns 0.
  std::uint64_t count() {
    const std::uint64_t n = u64();
    return sane_count(n) ? n : 0;
  }

  std::string str() {
    const std::uint64_t n = count();
    std::string s(static_cast<std::size_t>(n), '\0');
    raw(s.data(), s.size());
    return ok() ? s : std::string{};
  }

  std::vector<double> doubles() {
    const std::uint64_t n = count();
    std::vector<double> v(static_cast<std::size_t>(n));
    raw(v.data(), v.size() * sizeof(double));
    return ok() ? v : std::vector<double>{};
  }

  nn::Matrix matrix() {
    const std::uint64_t rows = u64();
    const std::uint64_t cols = u64();
    // Bound each dimension before the product so rows * cols cannot wrap.
    if (!ok() || !sane_count(rows) || !sane_count(cols) ||
        !sane_count(rows * cols)) {
      return {};
    }
    nn::Matrix m(static_cast<std::size_t>(rows),
                 static_cast<std::size_t>(cols));
    raw(m.raw().data(), m.raw().size() * sizeof(double));
    return ok() ? std::move(m) : nn::Matrix{};
  }

  bool ok() const { return ok_; }
  // ok() and every byte before the CRC trailer was read (no trailing bytes).
  bool at_end() const { return ok_ && pos_ == end_; }

 private:
  // The whole model is ~12.7k parameters (a policy file is ~100 KB, a
  // trainer file ~300 KB), so 128 MiB is far beyond any legitimate file and
  // small enough that reading one is never std::bad_alloc.
  static constexpr std::streamoff kMaxFileBytes = std::streamoff{1} << 27;

  template <typename T>
  T scalar() {
    T v{};
    raw(&v, sizeof v);
    return ok() ? v : T{};
  }

  void raw(void* data, std::size_t bytes) {
    if (!ok_ || bytes > end_ - pos_) {
      ok_ = false;
      return;
    }
    if (bytes > 0) std::memcpy(data, buf_.data() + pos_, bytes);
    pos_ += bytes;
  }

  // Guards allocations against absurd counts from corrupt length prefixes:
  // 16M doubles (128 MiB) is far beyond any legitimate section, so a
  // corrupt file fails with `false`, never std::bad_alloc.
  bool sane_count(std::uint64_t n) {
    if (n <= (1ull << 24)) return true;
    ok_ = false;
    return false;
  }

  std::vector<char> buf_;
  std::size_t pos_ = 0;
  std::size_t end_ = 0;  // the CRC trailer's offset
  bool ok_ = false;
};

}  // namespace decima::io
