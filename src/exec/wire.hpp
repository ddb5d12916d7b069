// Binary serialization of the disk cache's one payload type,
// sim::KernelStats (a launch's stats, cached by throttle::Runner).
//
// Encoding rules: all integers little-endian and fixed-width, strings and
// vectors length-prefixed (u64 count), doubles bit_cast to u64. Every
// value is written field by field — never memcpy of a struct — so the
// format is independent of padding, endianness of the host, and compiler.
// Decoders validate bounds on every read and throw catt::SimError on
// malformed input (vector counts included: a count the rest of the buffer
// cannot hold is rejected before anything is allocated); a truncated,
// bit-flipped or forged disk entry is reported, never silently misread.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "gpusim/gpu.hpp"

namespace catt::exec::wire {

/// Append-only encoder. Cheap to pass around; the buffer is the result.
class Writer {
 public:
  void u8(std::uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void b(bool v) { u8(v ? 1 : 0); }
  void f64(double v);
  void str(std::string_view s);

  const std::string& buffer() const { return out_; }
  std::string take() { return std::move(out_); }

 private:
  std::string out_;
};

/// Bounds-checked decoder over a borrowed buffer.
class Reader {
 public:
  explicit Reader(std::string_view in) : in_(in) {}

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  bool b() { return u8() != 0; }
  double f64();
  std::string str();
  /// Reads a u64 element count for a vector whose elements encode to at
  /// least `min_size` bytes each. Throws SimError unless that many
  /// elements fit in the rest of the buffer, so a forged count fails here
  /// instead of in reserve().
  std::uint64_t count(std::size_t min_size, const char* what);

  std::size_t remaining() const { return in_.size() - pos_; }
  bool done() const { return pos_ == in_.size(); }
  /// Throws SimError unless the whole buffer was consumed (catches both
  /// trailing garbage and version-skewed encoders).
  void expect_done(const char* what) const;

 private:
  void need(std::size_t n, const char* what) const;

  std::string_view in_;
  std::size_t pos_ = 0;
};

// --- payload codecs ---

void encode(Writer& w, const occupancy::Occupancy& o);
occupancy::Occupancy decode_occupancy(Reader& r);

void encode(Writer& w, const sim::KernelStats& s);
sim::KernelStats decode_kernel_stats(Reader& r);

/// Convenience: one payload per buffer.
std::string encode_kernel_stats(const sim::KernelStats& s);
sim::KernelStats decode_kernel_stats(std::string_view buf);

}  // namespace catt::exec::wire
