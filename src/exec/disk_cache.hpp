// Disk-backed, content-addressed cache of execution-engine artifacts
// (KernelStats payloads for the Runner's launch stats, ThrottlePlan
// payloads for the PlanService). This is the persistent tier behind the
// in-process SimCache: many bench/sweep processes point at one directory
// and share every simulation ever run for a given engine version.
//
// Layout: <dir>/<first-2-hex>/<16-hex-key>-<kind>.ce, one entry per file.
// Each file is a fixed header (magic, format version, engine-version salt,
// key, payload kind/size/checksum) followed by the wire-encoded payload.
//
// Correctness under concurrent writers: entries are written to a unique
// temp file in the same directory and published with rename(2), which is
// atomic on POSIX — a reader sees either no entry or a complete one, never
// a partial write. Two processes publishing the same key race benignly:
// keys are content-addressed and the engine is deterministic, so both
// bodies are byte-identical and the losing rename simply overwrites an
// equal file.
//
// Reads mmap the entry read-only, validate the header + an FNV-1a payload
// checksum, and copy the payload out. Any mismatch — truncation, garbage,
// a foreign engine version, a key collision — counts as a miss, drops the
// file, and lets the caller recompute: corruption can cost time, never
// wrong results.
//
// Eviction (evict=lru): the instance keeps an in-process size/mtime index
// of every entry, built by scanning the directory once on first use (first
// bounded put or size_bytes() query — construction is free even over a
// huge directory) and updated on publish/hit/drop from then on; insert
// overflow sorts the index, never the filesystem, and drops the oldest
// entries by mtime until the cache fits under max_bytes again. Hits
// re-touch their entry's mtime (on disk and in the index) so hot entries
// survive. Entries published by *other* processes after the scan are
// invisible to this instance's eviction accounting — the tradeoff for not
// rescanning on every overflow; the "exec.diskcache.rescans" counter
// (Counters::rescans) proves the scan happens once. evict=none never
// deletes (max_bytes still bounds *this process's* inserts by refusing
// them).
#pragma once

#include <cstdint>
#include <filesystem>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "catt/analysis.hpp"
#include "exec/cache_key.hpp"
#include "gpusim/gpu.hpp"

namespace catt::exec {

/// What an entry's payload decodes to; part of the on-disk name and header
/// so the two services can never deserialize each other's artifacts.
enum class PayloadKind : std::uint8_t {
  kKernelStats = 1,
  kThrottlePlan = 2,
};

struct DiskCacheConfig {
  std::string dir;
  /// Total payload+header bytes before eviction kicks in (0 = unbounded).
  std::uint64_t max_bytes = 0;
  enum class Evict : std::uint8_t { kNone, kLru };
  Evict evict = Evict::kLru;
  /// Entries stamped with a different version are invalid (self-invalidation
  /// on timing-engine changes). Overridable for tests only.
  std::uint32_t engine_version = kEngineVersion;
  /// fsync entries before publish (crash durability; off for benches).
  bool fsync = false;
};

class DiskCache {
 public:
  /// Creates the directory if needed and sizes the cache by scanning it.
  /// Throws catt::SimError when the directory cannot be created.
  explicit DiskCache(DiskCacheConfig cfg);

  // Raw payload interface (the typed helpers below wrap it).
  std::optional<std::string> get(std::uint64_t key, PayloadKind kind);
  /// Publishes; returns false when the entry could not be written (IO
  /// error, or evict=none and the cache is full). Never throws.
  bool put(std::uint64_t key, PayloadKind kind, std::string_view payload);

  // Typed helpers over the wire codecs.
  std::optional<sim::KernelStats> get_stats(std::uint64_t key);
  bool put_stats(std::uint64_t key, const sim::KernelStats& s);
  std::optional<analysis::ThrottlePlan> get_plan(std::uint64_t key);
  bool put_plan(std::uint64_t key, const analysis::ThrottlePlan& p);

  struct Counters {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t writes = 0;      // entries published by this instance
    std::uint64_t dup_writes = 0;  // puts that found the entry already on disk
    std::uint64_t evictions = 0;   // entries removed to fit max_bytes
    std::uint64_t dropped = 0;     // corrupt/truncated/version-skewed entries removed
    std::uint64_t rescans = 0;     // full directory scans (at most 1: first use)
  };
  Counters counters() const;

  /// Total on-disk bytes as tracked by this instance's index (builds the
  /// index on first call).
  std::uint64_t size_bytes();

  const DiskCacheConfig& config() const { return cfg_; }

 private:
  std::string entry_path(std::uint64_t key, PayloadKind kind) const;
  void drop_entry_locked(const std::string& path);
  void evict_to_fit_locked(std::uint64_t incoming_bytes);
  /// Builds the size/mtime index by scanning the directory; a no-op after
  /// the first call, so opening a cache over a large directory costs
  /// nothing until something actually needs the totals.
  void ensure_index_locked();
  /// Records `path` in the index, stat-ing the file when `size` is 0 (an
  /// entry discovered rather than written). No-op before the first scan.
  void index_add_locked(const std::string& path, std::uint64_t size);

  struct IndexEntry {
    std::uint64_t size = 0;
    std::filesystem::file_time_type mtime;
  };

  DiskCacheConfig cfg_;
  mutable std::mutex mu_;
  std::uint64_t size_bytes_ = 0;
  bool indexed_ = false;
  std::unordered_map<std::string, IndexEntry> index_;
  Counters counters_;
  std::uint64_t tmp_seq_ = 0;
};

}  // namespace catt::exec
