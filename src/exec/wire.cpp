#include "exec/wire.hpp"

#include <bit>

#include "common/error.hpp"

namespace catt::exec::wire {

void Writer::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
}

void Writer::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
}

void Writer::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

void Writer::str(std::string_view s) {
  u64(s.size());
  out_.append(s.data(), s.size());
}

void Reader::need(std::size_t n, const char* what) const {
  if (in_.size() - pos_ < n) {
    throw SimError(std::string("wire: truncated input reading ") + what);
  }
}

std::uint8_t Reader::u8() {
  need(1, "u8");
  return static_cast<std::uint8_t>(in_[pos_++]);
}

std::uint32_t Reader::u32() {
  need(4, "u32");
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(in_[pos_++])) << (8 * i);
  return v;
}

std::uint64_t Reader::u64() {
  need(8, "u64");
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(in_[pos_++])) << (8 * i);
  return v;
}

double Reader::f64() { return std::bit_cast<double>(u64()); }

std::string Reader::str() {
  const std::uint64_t n = u64();
  need(n, "string body");
  std::string s(in_.substr(pos_, n));
  pos_ += n;
  return s;
}

std::uint64_t Reader::count(std::size_t min_size, const char* what) {
  const std::size_t at = pos_;
  const std::uint64_t n = u64();
  if (n > remaining() / min_size) {
    throw SimError(std::string("wire: ") + what + " count " + std::to_string(n) +
                   " at byte " + std::to_string(at) + " exceeds the " +
                   std::to_string(remaining()) + " remaining bytes");
  }
  return n;
}

void Reader::expect_done(const char* what) const {
  if (!done()) {
    throw SimError(std::string("wire: ") + what + ": " + std::to_string(remaining()) +
                   " trailing bytes");
  }
}

void encode(Writer& w, const occupancy::Occupancy& o) {
  w.i32(o.tbs_per_sm);
  w.i32(o.warps_per_tb);
  w.i32(o.warps_per_sm);
  w.u8(static_cast<std::uint8_t>(o.limiter));
  w.u64(o.shm_use_per_sm);
  w.u64(o.shm_carveout);
  w.u64(o.l1d_bytes);
}

occupancy::Occupancy decode_occupancy(Reader& r) {
  occupancy::Occupancy o;
  o.tbs_per_sm = r.i32();
  o.warps_per_tb = r.i32();
  o.warps_per_sm = r.i32();
  o.limiter = static_cast<occupancy::Limiter>(r.u8());
  o.shm_use_per_sm = r.u64();
  o.shm_carveout = r.u64();
  o.l1d_bytes = r.u64();
  return o;
}

namespace {

void encode_cache_stats(Writer& w, const sim::CacheStats& c) {
  w.u64(c.accesses);
  w.u64(c.hits);
  w.u64(c.misses);
  w.u64(c.store_accesses);
}

sim::CacheStats decode_cache_stats(Reader& r) {
  sim::CacheStats c;
  c.accesses = r.u64();
  c.hits = r.u64();
  c.misses = r.u64();
  c.store_accesses = r.u64();
  return c;
}

}  // namespace

void encode(Writer& w, const sim::KernelStats& s) {
  w.str(s.kernel_name);
  w.i64(s.cycles);
  encode_cache_stats(w, s.l1);
  encode_cache_stats(w, s.l2);
  w.u64(s.dram_lines);
  w.u64(s.warp_insts);
  w.u64(s.mem_insts);
  w.u64(s.mem_requests);
  w.u64(s.lane_cycles);
  w.u64(s.lane_mem_insts);
  w.u64(s.div.branches);
  w.u64(s.div.divergent_branches);
  w.u64(s.div.reconvergences);
  w.u32(s.div.max_depth);
  w.u64(s.sm_steps);
  w.u64(s.warps_scanned);
  w.u64(s.queue_pops);
  w.u64(s.sched_vetoes);
  w.u64(s.sched_victim_tag_hits);
  w.u64(s.sched_updates);
  w.i32(s.sched_throttle_level);
  w.i32(s.sched_paused_tbs);
  w.i32(s.sched_max_paused_tbs);
  encode(w, s.occ);
  w.u64(s.request_trace.size());
  for (const auto& p : s.request_trace) {
    w.u64(p.index);
    w.f64(p.mean);
  }
  w.u64(s.sched_decisions.size());
  for (const auto& d : s.sched_decisions) {
    w.i64(d.cycle);
    w.i32(d.sm);
    w.i32(d.phase);
    w.i32(d.from_level);
    w.i32(d.to_level);
    w.u8(static_cast<std::uint8_t>(d.reason));
  }
}

sim::KernelStats decode_kernel_stats(Reader& r) {
  sim::KernelStats s;
  s.kernel_name = r.str();
  s.cycles = r.i64();
  s.l1 = decode_cache_stats(r);
  s.l2 = decode_cache_stats(r);
  s.dram_lines = r.u64();
  s.warp_insts = r.u64();
  s.mem_insts = r.u64();
  s.mem_requests = r.u64();
  s.lane_cycles = r.u64();
  s.lane_mem_insts = r.u64();
  s.div.branches = r.u64();
  s.div.divergent_branches = r.u64();
  s.div.reconvergences = r.u64();
  s.div.max_depth = r.u32();
  s.sm_steps = r.u64();
  s.warps_scanned = r.u64();
  s.queue_pops = r.u64();
  s.sched_vetoes = r.u64();
  s.sched_victim_tag_hits = r.u64();
  s.sched_updates = r.u64();
  s.sched_throttle_level = r.i32();
  s.sched_paused_tbs = r.i32();
  s.sched_max_paused_tbs = r.i32();
  s.occ = decode_occupancy(r);
  // Element sizes: Point is u64 + f64; Decision is i64 + 4 x i32 + u8.
  const std::uint64_t n = r.count(16, "request_trace");
  s.request_trace.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    sim::SeriesAccum::Point p;
    p.index = r.u64();
    p.mean = r.f64();
    s.request_trace.push_back(p);
  }
  const std::uint64_t n_dec = r.count(25, "sched_decisions");
  s.sched_decisions.reserve(n_dec);
  for (std::uint64_t i = 0; i < n_dec; ++i) {
    sim::sched::Decision d;
    d.cycle = r.i64();
    d.sm = r.i32();
    d.phase = r.i32();
    d.from_level = r.i32();
    d.to_level = r.i32();
    d.reason = static_cast<sim::sched::DecisionReason>(r.u8());
    s.sched_decisions.push_back(d);
  }
  return s;
}

std::string encode_kernel_stats(const sim::KernelStats& s) {
  Writer w;
  encode(w, s);
  return w.take();
}

sim::KernelStats decode_kernel_stats(std::string_view buf) {
  Reader r(buf);
  sim::KernelStats s = decode_kernel_stats(r);
  r.expect_done("KernelStats");
  return s;
}

}  // namespace catt::exec::wire
