// Set-associative cache model with LRU replacement and in-flight fill
// tracking (a line inserted by a miss carries the cycle its data arrives;
// a subsequent access before that cycle models an MSHR merge: it "hits"
// but completes no earlier than the fill).
#pragma once

#include <bit>
#include <cstdint>
#include <optional>
#include <vector>

#include "gpusim/simd.hpp"

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

// Runtime AVX2 dispatch (shared probe in simd.hpp); where unavailable,
// scan_tags compiles straight to the SSE2/scalar body below.
#if defined(CATT_SIMD_AVX2_DISPATCH)
#define CATT_CACHE_AVX2_DISPATCH 1
#endif

namespace catt::sim {

struct CacheStats {
  std::uint64_t accesses = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t store_accesses = 0;

  double hit_rate() const {
    return accesses == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(accesses);
  }
  CacheStats& operator+=(const CacheStats& o);
};

enum class Replacement {
  kLru,
  /// Pseudo-random victim (deterministic). GPU L1s do not implement strict
  /// LRU; random replacement also avoids LRU's pathological round-robin
  /// thrash when the working set sits at ~100% of capacity, degrading
  /// gracefully instead — which is what the paper's capacity-based
  /// footprint model assumes.
  kRandom,
};

class Cache {
 public:
  /// `bytes` may be 0 (a disabled cache: every access misses, nothing is
  /// retained) — used when a carve-out leaves no L1D.
  Cache(std::size_t bytes, int line_bytes, int assoc,
        Replacement repl = Replacement::kLru);

  /// Remembers which set a probe hashed to, so the insert() that follows
  /// a miss skips the re-hash and the duplicate presence scan. Valid only
  /// while nothing else has been inserted into this cache since the probe
  /// (true at both call sites: the miss path goes straight to the next
  /// level and comes back with a fill time).
  struct SetHint {
    std::int32_t set = -1;
  };

  /// Load probe at cycle `now`. Hit: returns the cycle the data is
  /// available (>= now; later than now only for an in-flight fill).
  /// Miss: returns nullopt; the caller determines the fill time from the
  /// next level and calls insert().
  std::optional<std::int64_t> probe_load(std::uint64_t line_addr, std::int64_t now);
  std::optional<std::int64_t> probe_load(std::uint64_t line_addr, std::int64_t now,
                                         SetHint& hint);

  /// Sentinel returned by probe_load_fast on a miss (ready cycles are
  /// always >= 0).
  static constexpr std::int64_t kProbeMiss = -1;

  /// Header-inlined probe for the replay hot path: identical stats, LRU
  /// and hint behaviour to probe_load, but returns kProbeMiss instead of
  /// boxing the result in an optional. The single-transaction fully
  /// coalesced load in the SM datapath and the L2 probe inside
  /// MemorySystem::load go through this. The way scan runs over the
  /// contiguous tag array (4 host cache lines for a 32-way set, vs 16
  /// when tags were interleaved with ready/LRU state) four ways at a
  /// time via scan_tags().
  std::int64_t probe_load_fast(std::uint64_t line_addr, std::int64_t now, SetHint& hint) {
    ++stats_.accesses;
    hint.set = -1;
    if (num_sets_ != 0) {
      const std::uint32_t tag = tag_of(line_addr);
      const int set = set_of(line_addr);
      hint.set = set;
      const std::size_t base =
          static_cast<std::size_t>(set) * static_cast<std::size_t>(assoc_);
      const int w = scan_tags(tags_.data() + base, assoc_, tag);
      if (w >= 0) {
        ++stats_.hits;
        WayMeta& m = meta_[base + static_cast<std::size_t>(w)];
        // LRU state is only ever read by kLru victim selection; skip
        // the bookkeeping store for random-replacement caches (the L1).
        if (repl_ == Replacement::kLru) m.lru = ++lru_clock_;
        return m.ready_at > now ? m.ready_at : now;
      }
    }
    ++stats_.misses;
    return kProbeMiss;
  }

  /// insert() return value when nothing was displaced (empty way filled,
  /// line already present, or disabled cache).
  static constexpr std::uint64_t kNoVictim = ~0ULL;

  /// Installs a line whose fill completes at `ready_at`. Returns the line
  /// address of the evicted victim, or kNoVictim when nothing was evicted
  /// (tags are the full line address, so the displaced tag round-trips).
  /// No-op for a disabled cache.
  std::uint64_t insert(std::uint64_t line_addr, std::int64_t ready_at);
  /// Hinted variant for the probe-miss path: reuses the probed set index
  /// and skips the already-present scan the probe just performed.
  std::uint64_t insert(std::uint64_t line_addr, std::int64_t ready_at, const SetHint& hint);

  /// Write-through, no-allocate store: updates stats and refreshes LRU if
  /// the line is present. Returns true if the line was present.
  bool note_store(std::uint64_t line_addr);

  /// Drops all lines (kernel boundary), keeping stats.
  void invalidate();

  const CacheStats& stats() const { return stats_; }
  void reset_stats() { stats_ = CacheStats{}; }

  int num_sets() const { return num_sets_; }
  std::size_t capacity_bytes() const { return capacity_; }

 private:
  /// Empty-way sentinel. Tags are 32-bit: line addresses are byte
  /// addresses divided by the line size, so any simulated footprint under
  /// 512 GB fits — tag_of() throws otherwise rather than aliasing. The
  /// narrow tag keeps a 32-way set's tag scan inside two host cache
  /// lines, and folding validity into the tag keeps it a pure equality
  /// test over a flat array.
  static constexpr std::uint32_t kInvalidTag = 0xFFFFFFFFu;

  std::uint32_t tag_of(std::uint64_t line_addr) const {
    if (line_addr >= kInvalidTag) throw_tag_overflow();
    return static_cast<std::uint32_t>(line_addr);
  }

  [[noreturn]] static void throw_tag_overflow();

  /// Way holding `tag` in the `n`-way tag array, or -1. Any-match is
  /// exact: a line has a single home way (insert() dedups), and no real
  /// tag equals kInvalidTag (tag_of() rejects it), so the scan never sees
  /// two candidates. The SSE2 path compares four ways per iteration —
  /// misses scan the whole set, so on the miss-dominated workloads this
  /// quarters the work of the scalar loop.
  static int scan_tags(const std::uint32_t* tags, int n, std::uint32_t tag) {
#if defined(CATT_CACHE_AVX2_DISPATCH)
    // Runtime-dispatched 8-wide path: the L2's 32-way sets scan in four
    // compares instead of eight. Sub-8-way sets (and non-AVX2 hosts) fall
    // through to the SSE2 loop below, which handles any n.
    if (kSimdHasAvx2 && n >= 8) return scan_tags_avx2(tags, n, tag);
#endif
#if defined(__SSE2__)
    const __m128i needle = _mm_set1_epi32(static_cast<int>(tag));
    int w = 0;
    for (; w + 4 <= n; w += 4) {
      const __m128i v = _mm_loadu_si128(reinterpret_cast<const __m128i*>(tags + w));
      const unsigned m =
          static_cast<unsigned>(_mm_movemask_epi8(_mm_cmpeq_epi32(v, needle)));
      if (m != 0) return w + std::countr_zero(m) / 4;
    }
    for (; w < n; ++w) {
      if (tags[w] == tag) return w;
    }
    return -1;
#else
    for (int w = 0; w < n; ++w) {
      if (tags[w] == tag) return w;
    }
    return -1;
#endif
  }

  /// Set-index hash (GPU L1s XOR-hash the index to break power-of-two
  /// strides; without this, an 8 KB row stride maps a whole warp into four
  /// sets and the cache thrashes regardless of capacity).
  static std::uint64_t mix_line(std::uint64_t x) {
    x ^= x >> 33;
    x *= 0xFF51AFD7ED558CCDULL;
    x ^= x >> 33;
    return x;
  }

  /// XOR-hashed set index for a line address (the single home of the
  /// mix_line % num_sets_ computation). Masking and modulo agree for
  /// power-of-two set counts; the mask avoids a hardware divide on the
  /// hottest path in the whole timing model.
  int set_of(std::uint64_t line_addr) const {
    const std::uint64_t h = mix_line(line_addr);
    if (set_mask_ != 0) return static_cast<int>(h & set_mask_);
    return static_cast<int>(h % static_cast<std::uint64_t>(num_sets_));
  }
#if defined(CATT_CACHE_AVX2_DISPATCH)
  /// Out-of-line 8-wide scan compiled with target("avx2"); first-match
  /// semantics identical to the SSE2/scalar paths.
  static int scan_tags_avx2(const std::uint32_t* tags, int n, std::uint32_t tag);
#endif

  /// Way index of `line_addr` in `set`, or -1 when absent.
  int find_in_set(std::uint64_t line_addr, int set) const;
  std::uint64_t fill_victim(std::uint64_t line_addr, std::int64_t ready_at, int set);

  std::size_t capacity_;
  int line_bytes_;
  int assoc_;
  Replacement repl_;
  int num_sets_;
  /// num_sets_ - 1 when num_sets_ is a power of two (the common cache
  /// geometry), else 0: lets set_of() mask instead of divide.
  std::uint64_t set_mask_ = 0;
  /// Per-way fill time + LRU stamp, kept apart from the tags so the probe
  /// scan streams over a dense tag array and touches at most one payload
  /// entry (the hit way).
  struct WayMeta {
    std::int64_t ready_at;
    std::uint64_t lru;
  };

  // Line state, structure-of-arrays and set-major (way w of set s lives
  // at s * assoc_ + w).
  std::vector<std::uint32_t> tags_;  // kInvalidTag = empty way
  std::vector<WayMeta> meta_;
  /// Valid ways per set: lets fill_victim skip the empty-way scan once a
  /// set is full (the steady state of every warm workload).
  std::vector<std::uint16_t> used_;
  std::uint64_t lru_clock_ = 0;
  std::uint64_t victim_rng_ = 0x9E3779B97F4A7C15ULL;
  CacheStats stats_;
};

}  // namespace catt::sim
