#include "gpusim/cache.hpp"

#include <algorithm>

#if defined(CATT_CACHE_AVX2_DISPATCH)
#include <immintrin.h>
#endif

#include "common/error.hpp"

namespace catt::sim {

#if defined(CATT_CACHE_AVX2_DISPATCH)
__attribute__((target("avx2"))) int Cache::scan_tags_avx2(const std::uint32_t* tags,
                                                          int n, std::uint32_t tag) {
  const __m256i needle = _mm256_set1_epi32(static_cast<int>(tag));
  int w = 0;
  for (; w + 8 <= n; w += 8) {
    const __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(tags + w));
    const unsigned m =
        static_cast<unsigned>(_mm256_movemask_epi8(_mm256_cmpeq_epi32(v, needle)));
    if (m != 0) return w + std::countr_zero(m) / 4;
  }
  for (; w < n; ++w) {
    if (tags[w] == tag) return w;
  }
  return -1;
}
#endif

CacheStats& CacheStats::operator+=(const CacheStats& o) {
  accesses += o.accesses;
  hits += o.hits;
  misses += o.misses;
  store_accesses += o.store_accesses;
  return *this;
}

Cache::Cache(std::size_t bytes, int line_bytes, int assoc, Replacement repl)
    : capacity_(bytes), line_bytes_(line_bytes), assoc_(assoc), repl_(repl) {
  if (line_bytes <= 0 || assoc <= 0) throw SimError("bad cache geometry");
  const std::size_t lines = bytes / static_cast<std::size_t>(line_bytes);
  num_sets_ = static_cast<int>(lines / static_cast<std::size_t>(assoc));
  if (num_sets_ == 0 && bytes > 0) {
    // Tiny capacities degrade to one direct-mapped-ish set.
    num_sets_ = 1;
    assoc_ = static_cast<int>(std::max<std::size_t>(1, lines));
  }
  const std::size_t total = static_cast<std::size_t>(num_sets_) * static_cast<std::size_t>(assoc_);
  tags_.assign(total, kInvalidTag);
  meta_.assign(total, WayMeta{0, 0});
  used_.assign(static_cast<std::size_t>(num_sets_), 0);
  if (num_sets_ > 0 && (num_sets_ & (num_sets_ - 1)) == 0) {
    set_mask_ = static_cast<std::uint64_t>(num_sets_) - 1;
  }
}

void Cache::throw_tag_overflow() {
  throw SimError("cache line address exceeds the 32-bit tag range");
}

int Cache::find_in_set(std::uint64_t line_addr, int set) const {
  return scan_tags(tags_.data() + static_cast<std::size_t>(set) * static_cast<std::size_t>(assoc_),
                   assoc_, tag_of(line_addr));
}

std::optional<std::int64_t> Cache::probe_load(std::uint64_t line_addr, std::int64_t now) {
  SetHint scratch;
  return probe_load(line_addr, now, scratch);
}

std::optional<std::int64_t> Cache::probe_load(std::uint64_t line_addr, std::int64_t now,
                                              SetHint& hint) {
  const std::int64_t ready = probe_load_fast(line_addr, now, hint);
  if (ready == kProbeMiss) return std::nullopt;
  return ready;
}

std::uint64_t Cache::insert(std::uint64_t line_addr, std::int64_t ready_at) {
  if (num_sets_ == 0) return kNoVictim;
  const int set = set_of(line_addr);
  const int w = find_in_set(line_addr, set);
  if (w >= 0) {
    WayMeta& m = meta_[static_cast<std::size_t>(set) * static_cast<std::size_t>(assoc_) +
                       static_cast<std::size_t>(w)];
    m.ready_at = std::min(m.ready_at, ready_at);
    if (repl_ == Replacement::kLru) m.lru = ++lru_clock_;
    return kNoVictim;
  }
  return fill_victim(line_addr, ready_at, set);
}

std::uint64_t Cache::insert(std::uint64_t line_addr, std::int64_t ready_at,
                            const SetHint& hint) {
  if (num_sets_ == 0) return kNoVictim;
  // The probe that produced the hint established the line is absent, so
  // go straight to victim selection in the probed set.
  if (hint.set < 0) return insert(line_addr, ready_at);
  return fill_victim(line_addr, ready_at, hint.set);
}

std::uint64_t Cache::fill_victim(std::uint64_t line_addr, std::int64_t ready_at, int set) {
  const std::size_t base = static_cast<std::size_t>(set) * static_cast<std::size_t>(assoc_);
  std::uint32_t* tags = tags_.data() + base;
  int victim = -1;
  if (used_[static_cast<std::size_t>(set)] < assoc_) {
    // Cold set: fill the first empty way, as the AoS layout did.
    for (int w = 0; w < assoc_; ++w) {
      if (tags[w] == kInvalidTag) {
        victim = w;
        break;
      }
    }
    ++used_[static_cast<std::size_t>(set)];
  } else if (repl_ == Replacement::kRandom) {
    victim_rng_ ^= victim_rng_ << 13;
    victim_rng_ ^= victim_rng_ >> 7;
    victim_rng_ ^= victim_rng_ << 17;
    victim = static_cast<int>(victim_rng_ % static_cast<std::uint64_t>(assoc_));
  } else {
    victim = 0;
    for (int w = 1; w < assoc_; ++w) {
      if (meta_[base + static_cast<std::size_t>(w)].lru <
          meta_[base + static_cast<std::size_t>(victim)].lru) {
        victim = w;
      }
    }
  }
  const std::uint32_t displaced = tags[victim];
  tags[victim] = tag_of(line_addr);
  WayMeta& m = meta_[base + static_cast<std::size_t>(victim)];
  m.ready_at = ready_at;
  if (repl_ == Replacement::kLru) m.lru = ++lru_clock_;
  return displaced == kInvalidTag ? kNoVictim : static_cast<std::uint64_t>(displaced);
}

bool Cache::note_store(std::uint64_t line_addr) {
  ++stats_.store_accesses;
  if (num_sets_ == 0) return false;
  const int set = set_of(line_addr);
  const int w = find_in_set(line_addr, set);
  if (w < 0) return false;
  if (repl_ == Replacement::kLru) {
    meta_[static_cast<std::size_t>(set) * static_cast<std::size_t>(assoc_) +
          static_cast<std::size_t>(w)].lru = ++lru_clock_;
  }
  return true;
}

void Cache::invalidate() {
  std::fill(tags_.begin(), tags_.end(), kInvalidTag);
  std::fill(used_.begin(), used_.end(), 0);
}

}  // namespace catt::sim
