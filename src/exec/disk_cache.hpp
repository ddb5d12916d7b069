// Disk-backed, content-addressed cache of the Runner's per-launch
// KernelStats. This is the persistent tier behind the in-process SimCache:
// many bench/sweep processes point at one directory and share every
// simulation ever run for a given engine version. It holds only results
// that can be recomputed, so it never needs fsync: a torn entry fails its
// checksum and is a miss.
//
// Layout: <dir>/<first-2-hex>/<16-hex-key>.ce, one entry per file. Each
// file is a fixed header (magic, format version, engine-version salt, key,
// payload size/checksum) followed by the wire-encoded KernelStats.
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
// checksum, and decode the payload under the lock. Any mismatch —
// truncation, garbage, a foreign engine version, a key collision, a
// payload that does not decode — counts as a miss, drops the file, and
// lets the caller recompute: corruption can cost time, never wrong results.
//
// Eviction (evict=lru): a size/mtime index of every entry, built by one
// directory scan on first use (the first bounded put or size_bytes(); the
// "exec.diskcache.rescans" counter proves it happens once) and updated on
// publish/hit/drop. Overflow drops the oldest entries by mtime until the
// cache fits under max_bytes; hits re-touch their mtime so hot entries
// survive. Entries other processes publish after the scan are invisible
// to this instance's accounting. evict=none never deletes: max_bytes
// bounds this process's inserts by refusing them.
#pragma once

#include <cstdint>
#include <filesystem>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "exec/cache_key.hpp"
#include "gpusim/gpu.hpp"

namespace catt::exec {

struct DiskCacheConfig {
  std::string dir;
  /// Total payload+header bytes before eviction kicks in (0 = unbounded).
  std::uint64_t max_bytes = 0;
  enum class Evict : std::uint8_t { kNone, kLru };
  Evict evict = Evict::kLru;
  /// Entries stamped with a different version are invalid (self-invalidation
  /// on timing-engine changes). Overridable for tests only.
  std::uint32_t engine_version = kEngineVersion;
};

class DiskCache {
 public:
  /// Creates the directory if needed (the index is built on first use).
  /// Throws catt::SimError when the directory cannot be created.
  explicit DiskCache(DiskCacheConfig cfg);

  // Raw payload interface: the validated bytes, not decoded.
  std::optional<std::string> get(std::uint64_t key);
  /// Publishes; returns false when the entry could not be written (IO
  /// error, or evict=none and the cache is full). Never throws.
  bool put(std::uint64_t key, std::string_view payload);

  /// The stats stored under `key`, or nullopt on a miss. An entry that
  /// fails validation or decoding is dropped and counted as a miss.
  std::optional<sim::KernelStats> get_stats(std::uint64_t key);
  bool put_stats(std::uint64_t key, const sim::KernelStats& s);

  struct Counters {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t writes = 0;      // entries published by this instance
    std::uint64_t dup_writes = 0;  // puts that found the entry already on disk
    std::uint64_t evictions = 0;   // entries removed to fit max_bytes
    std::uint64_t dropped = 0;     // corrupt/undecodable/version-skewed entries removed
    std::uint64_t rescans = 0;     // full directory scans (at most 1: first use)
  };
  Counters counters() const;

  /// Total on-disk bytes as tracked by this instance's index (builds the
  /// index on first call).
  std::uint64_t size_bytes();

  const DiskCacheConfig& config() const { return cfg_; }

 private:
  std::string entry_path(std::uint64_t key) const;
  /// Validates the entry for `key` and hands its payload to `accept` under
  /// the lock; a header or checksum mismatch, or a SimError from `accept`
  /// (an undecodable payload), drops the entry and counts a miss. Returns
  /// whether the entry was accepted (a hit).
  template <typename Accept>
  bool read(std::uint64_t key, Accept&& accept);
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
