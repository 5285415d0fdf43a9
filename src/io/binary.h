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
// foreign or corrupt file fails loudly instead of loading garbage.
#pragma once

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "nn/matrix.h"

namespace decima::io {

// Written after the magic so a file produced on an exotic big-endian host is
// rejected rather than silently byte-swapped.
constexpr std::uint32_t kEndianSentinel = 0x01020304u;

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
  // Flushes and reports the final status.
  bool finish() {
    out_.flush();
    return ok();
  }

 private:
  void raw(const void* data, std::size_t bytes) {
    out_.write(static_cast<const char*>(data),
               static_cast<std::streamsize>(bytes));
  }

  std::ofstream out_;
};

// Reads the format above. Every accessor sets the fail flag (ok() == false)
// on short reads; values read after a failure are zero/empty, so callers can
// batch reads and check ok() once per section.
class BinaryReader {
 public:
  explicit BinaryReader(const std::string& path)
      : in_(path, std::ios::binary) {}

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
    nn::Matrix m(static_cast<std::size_t>(rows), static_cast<std::size_t>(cols));
    raw(m.raw().data(), m.raw().size() * sizeof(double));
    return ok() ? std::move(m) : nn::Matrix{};
  }

  bool ok() const { return static_cast<bool>(in_); }
  // ok() and the stream is exactly exhausted (no trailing bytes).
  bool at_end() {
    if (!ok()) return false;
    in_.peek();
    return in_.eof();
  }

 private:
  template <typename T>
  T scalar() {
    T v{};
    raw(&v, sizeof v);
    return ok() ? v : T{};
  }

  void raw(void* data, std::size_t bytes) {
    in_.read(static_cast<char*>(data), static_cast<std::streamsize>(bytes));
  }

  // Guards allocations against absurd counts from corrupt length prefixes:
  // the whole model is ~12.7k parameters, so 16M doubles (128 MiB) is far
  // beyond any legitimate section and small enough that a corrupt file fails
  // with `false`, never std::bad_alloc.
  bool sane_count(std::uint64_t n) {
    if (n <= (1ull << 24)) return true;
    in_.setstate(std::ios::failbit);
    return false;
  }

  std::ifstream in_;
};

}  // namespace decima::io
