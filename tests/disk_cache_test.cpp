// Disk-cache tier tests: KernelStats round-trips, atomic publish under
// concurrent writers (the TSan target: two pools racing on the same keys),
// corrupt/truncated/forged-entry recovery, engine-version-salt
// invalidation, and LRU eviction with touch-on-hit.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "exec/disk_cache.hpp"
#include "exec/pool.hpp"
#include "exec/wire.hpp"

namespace catt::exec {
namespace {

namespace fs = std::filesystem;

/// Fresh cache directory per test (removed up front so reruns start cold).
std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "catt_disk_cache_" + name;
  fs::remove_all(dir);
  return dir;
}

sim::KernelStats stats_with(std::int64_t cycles) {
  sim::KernelStats s;
  // Built, then moved in: assigning a literal to the field trips GCC 12's
  // -Wrestrict false positive (GCC bug 105329) in Release builds.
  std::string name = "k";
  name += std::to_string(cycles);
  s.kernel_name = std::move(name);
  s.cycles = cycles;
  s.l1.accesses = 100;
  s.l1.hits = 60;
  s.dram_lines = 7;
  return s;
}

/// The single entry file under `dir` (asserts there is exactly one).
fs::path only_entry(const std::string& dir) {
  std::vector<fs::path> entries;
  for (const auto& e : fs::recursive_directory_iterator(dir)) {
    if (e.is_regular_file() && e.path().extension() == ".ce") entries.push_back(e.path());
  }
  EXPECT_EQ(entries.size(), 1u);
  return entries.empty() ? fs::path{} : entries.front();
}

TEST(DiskCache, TypedRoundTrip) {
  DiskCache cache({.dir = fresh_dir("roundtrip")});
  EXPECT_FALSE(cache.get_stats(1).has_value());

  const sim::KernelStats s = stats_with(1234);
  ASSERT_TRUE(cache.put_stats(1, s));
  const auto got = cache.get_stats(1);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(wire::encode_kernel_stats(*got), wire::encode_kernel_stats(s));
  // The raw interface serves the same validated bytes, undecoded.
  EXPECT_EQ(cache.get(1), wire::encode_kernel_stats(s));

  const auto c = cache.counters();
  EXPECT_EQ(c.writes, 1u);
  EXPECT_EQ(c.hits, 2u);
  EXPECT_EQ(c.misses, 1u);
  EXPECT_GT(cache.size_bytes(), 0u);
}

TEST(DiskCache, SecondInstanceSharesEntriesAndDupWritesAreNoOps) {
  const std::string dir = fresh_dir("shared");
  DiskCache a({.dir = dir});
  ASSERT_TRUE(a.put_stats(42, stats_with(7)));

  DiskCache b({.dir = dir});  // scans the existing entry
  EXPECT_EQ(b.size_bytes(), a.size_bytes());
  ASSERT_TRUE(b.get_stats(42).has_value());

  // Publishing an already-present key is a no-op, not a rewrite.
  ASSERT_TRUE(b.put_stats(42, stats_with(7)));
  EXPECT_EQ(b.counters().writes, 0u);
  EXPECT_EQ(b.counters().dup_writes, 1u);
}

TEST(DiskCache, CorruptEntryIsDroppedAndRecomputable) {
  const std::string dir = fresh_dir("corrupt");
  DiskCache cache({.dir = dir});
  ASSERT_TRUE(cache.put_stats(5, stats_with(99)));
  const fs::path path = only_entry(dir);

  // Flip one payload byte (past the 36-byte header): the checksum must
  // catch it, the entry must be unlinked, and the key must re-publish.
  {
    std::ifstream in(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    ASSERT_GT(bytes.size(), 40u);
    bytes[40] = static_cast<char>(bytes[40] ^ 0xFF);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  EXPECT_FALSE(cache.get_stats(5).has_value());
  EXPECT_EQ(cache.counters().dropped, 1u);
  EXPECT_FALSE(fs::exists(path));

  ASSERT_TRUE(cache.put_stats(5, stats_with(99)));
  EXPECT_TRUE(cache.get_stats(5).has_value());
}

TEST(DiskCache, TruncatedEntryIsDropped) {
  const std::string dir = fresh_dir("truncated");
  DiskCache cache({.dir = dir});
  ASSERT_TRUE(cache.put_stats(6, stats_with(11)));
  const fs::path path = only_entry(dir);

  fs::resize_file(path, 10);  // shorter than the header
  EXPECT_FALSE(cache.get_stats(6).has_value());
  EXPECT_EQ(cache.counters().dropped, 1u);
  EXPECT_FALSE(fs::exists(path));

  // An empty entry (a crashed writer's worst case under rename-on-publish
  // would still be a complete file, but be paranoid) is also a clean miss.
  ASSERT_TRUE(cache.put_stats(7, stats_with(12)));
  fs::resize_file(only_entry(dir), 0);
  EXPECT_FALSE(cache.get_stats(7).has_value());
}

TEST(DiskCache, EngineVersionSkewInvalidates) {
  const std::string dir = fresh_dir("version");
  DiskCacheConfig old_cfg{.dir = dir};
  old_cfg.engine_version = kEngineVersion;
  DiskCache old_engine(old_cfg);
  ASSERT_TRUE(old_engine.put_stats(8, stats_with(1)));

  // A build with a bumped engine version must treat the entry as invalid
  // (miss + drop), then repopulate under its own salt.
  DiskCacheConfig new_cfg{.dir = dir};
  new_cfg.engine_version = kEngineVersion + 1;
  DiskCache new_engine(new_cfg);
  EXPECT_FALSE(new_engine.get_stats(8).has_value());
  EXPECT_EQ(new_engine.counters().dropped, 1u);
  ASSERT_TRUE(new_engine.put_stats(8, stats_with(1)));
  EXPECT_TRUE(new_engine.get_stats(8).has_value());

  // ... and the old engine in turn rejects the new entry.
  EXPECT_FALSE(old_engine.get_stats(8).has_value());
}

/// Overwrites the little-endian u64 at `at` in an encoded payload.
std::string with_u64_at(std::string bytes, std::size_t at, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) bytes[at + i] = static_cast<char>(v >> (8 * i));
  return bytes;
}

TEST(DiskCache, ForgedVectorCountsAreMissesNotCrashes) {
  // A count field the payload cannot hold must fail with a located
  // SimError before anything is reserved: the checksum is no defence
  // (put() computes a valid one over any bytes), and get_stats only turns
  // SimError into a miss.
  const std::string stats = wire::encode_kernel_stats(stats_with(3));
  struct Field {
    const char* name;
    std::size_t at;  // offset of the u64 count
  };
  // stats_with() has no trace points or decisions, so the two counts are
  // the last 16 bytes.
  const Field fields[] = {
      {"request_trace", stats.size() - 16},
      {"sched_decisions", stats.size() - 8},
  };
  DiskCache cache({.dir = fresh_dir("forged")});
  std::uint64_t key = 100;
  for (const Field& f : fields) {
    for (const std::uint64_t count : {~std::uint64_t{0}, std::uint64_t{1} << 40}) {
      SCOPED_TRACE(std::string(f.name) + " count " + std::to_string(count));
      const std::string forged = with_u64_at(stats, f.at, count);
      try {
        (void)wire::decode_kernel_stats(forged);
        ADD_FAILURE() << "forged count decoded";
      } catch (const SimError& e) {
        EXPECT_NE(std::string(e.what()).find(f.name), std::string::npos) << e.what();
      } catch (const std::exception& e) {
        ADD_FAILURE() << "not a SimError: " << e.what();
      }
      ++key;
      ASSERT_TRUE(cache.put(key, forged));
      EXPECT_FALSE(cache.get_stats(key).has_value());
    }
  }

  // The bound is exact: vectors that fill the rest of the payload still
  // decode (the decision count is last, so it sits right at the limit).
  sim::KernelStats full = stats_with(4);
  full.request_trace = {{1, 0.5}, {2, 0.25}};
  full.sched_decisions.resize(2);
  full.sched_decisions[1].cycle = 9;
  EXPECT_EQ(wire::encode_kernel_stats(wire::decode_kernel_stats(wire::encode_kernel_stats(full))),
            wire::encode_kernel_stats(full));
}

TEST(DiskCache, UndecodableEntryIsDroppedNotServedForever) {
  // A payload whose checksum is valid but which does not decode is as
  // corrupt as a bad checksum: a miss plus a drop, with the file unlinked,
  // so the recomputed stats publish as a fresh write and the next run hits.
  const std::string dir = fresh_dir("undecodable");
  DiskCache cache({.dir = dir});
  const std::string stats = wire::encode_kernel_stats(stats_with(5));
  ASSERT_TRUE(cache.put(9, with_u64_at(stats, stats.size() - 16, std::uint64_t{1} << 40)));
  const fs::path path = only_entry(dir);

  EXPECT_FALSE(cache.get_stats(9).has_value());
  DiskCache::Counters c = cache.counters();
  EXPECT_EQ(c.hits, 0u);
  EXPECT_EQ(c.misses, 1u);
  EXPECT_EQ(c.dropped, 1u);
  EXPECT_FALSE(fs::exists(path));

  ASSERT_TRUE(cache.put_stats(9, stats_with(5)));
  c = cache.counters();
  EXPECT_EQ(c.writes, 2u);  // the planted entry, then the recomputed one
  EXPECT_EQ(c.dup_writes, 0u);
  const auto got = cache.get_stats(9);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->cycles, 5);
  EXPECT_EQ(cache.counters().hits, 1u);
}

TEST(DiskCache, EvictNoneRefusesWhenFull) {
  DiskCacheConfig cfg{.dir = fresh_dir("full")};
  cfg.max_bytes = 1;  // nothing fits
  cfg.evict = DiskCacheConfig::Evict::kNone;
  DiskCache cache(cfg);
  EXPECT_FALSE(cache.put_stats(1, stats_with(1)));
  EXPECT_EQ(cache.counters().writes, 0u);
  EXPECT_EQ(cache.counters().evictions, 0u);
}

TEST(DiskCache, LruEvictionKeepsTouchedEntries) {
  const std::string dir = fresh_dir("lru");
  DiskCache probe({.dir = dir});
  ASSERT_TRUE(probe.put_stats(0, stats_with(0)));
  const std::uint64_t entry_bytes = probe.size_bytes();
  fs::remove_all(dir);

  DiskCacheConfig cfg{.dir = dir};
  cfg.max_bytes = 3 * entry_bytes + entry_bytes / 2;  // room for three
  cfg.evict = DiskCacheConfig::Evict::kLru;
  DiskCache cache(cfg);

  // mtime ordering is the eviction order; space the writes/touches out so
  // coarse filesystem timestamps cannot tie.
  const auto tick = [] { std::this_thread::sleep_for(std::chrono::milliseconds(20)); };
  ASSERT_TRUE(cache.put_stats(1, stats_with(1)));
  tick();
  ASSERT_TRUE(cache.put_stats(2, stats_with(2)));
  tick();
  ASSERT_TRUE(cache.put_stats(3, stats_with(3)));
  tick();
  ASSERT_TRUE(cache.get_stats(1).has_value());  // touch: 1 is now hottest
  tick();

  ASSERT_TRUE(cache.put_stats(4, stats_with(4)));  // evicts 2 (oldest mtime)
  EXPECT_GE(cache.counters().evictions, 1u);
  EXPECT_LE(cache.size_bytes(), cfg.max_bytes);
  EXPECT_TRUE(cache.get_stats(1).has_value());
  EXPECT_FALSE(cache.get_stats(2).has_value());
  EXPECT_TRUE(cache.get_stats(4).has_value());
}


TEST(DiskCache, IndexIsLazyAndScansAtMostOnce) {
  const std::string dir = fresh_dir("lazy");
  DiskCache writer({.dir = dir});
  ASSERT_TRUE(writer.put_stats(1, stats_with(1)));
  const std::uint64_t entry_bytes = writer.size_bytes();
  ASSERT_GT(entry_bytes, 0u);
  // The write path of an unbounded cache never needs totals, so the only
  // scan is the size_bytes() call above.
  EXPECT_EQ(writer.counters().rescans, 1u);

  // A second instance over the populated directory: construction is free,
  // and the one scan happens at the first bounded put — after which every
  // overflow (three of them here) runs off the in-process index.
  DiskCacheConfig cfg{.dir = dir};
  cfg.max_bytes = entry_bytes + entry_bytes / 2;  // room for exactly one
  cfg.evict = DiskCacheConfig::Evict::kLru;
  DiskCache cache(cfg);
  EXPECT_EQ(cache.counters().rescans, 0u);
  const auto tick = [] { std::this_thread::sleep_for(std::chrono::milliseconds(20)); };
  for (std::uint64_t key = 2; key <= 4; ++key) {
    tick();
    ASSERT_TRUE(cache.put_stats(key, stats_with(static_cast<std::int64_t>(key))));
  }
  EXPECT_EQ(cache.counters().rescans, 1u);
  EXPECT_EQ(cache.counters().evictions, 3u);  // 1, 2, 3 each aged out in turn
  EXPECT_LE(cache.size_bytes(), cfg.max_bytes);
  EXPECT_TRUE(cache.get_stats(4).has_value());
  EXPECT_FALSE(cache.get_stats(1).has_value());
}

TEST(DiskCache, ConcurrentWritersPublishAtomically) {
  // The TSan pin: two pools race to publish and read the same keys.
  // Rename-on-publish means every get() observes either a miss or a
  // complete, checksum-valid entry — never a torn write.
  const std::string dir = fresh_dir("race");
  DiskCache cache({.dir = dir});
  constexpr int kKeys = 24;

  {
    exec::Pool writers(4);
    exec::Pool more_writers(4);
    for (exec::Pool* pool : {&writers, &more_writers}) {
      for (int j = 0; j < 4; ++j) {
        pool->submit([&cache] {
          for (int k = 0; k < kKeys; ++k) {
            const auto key = static_cast<std::uint64_t>(k);
            cache.put_stats(key, stats_with(k));
            const auto got = cache.get_stats(key);
            if (got.has_value()) {
              EXPECT_EQ(wire::encode_kernel_stats(*got),
                        wire::encode_kernel_stats(stats_with(k)));
            }
          }
        });
      }
    }
  }  // pools join

  EXPECT_EQ(cache.counters().dropped, 0u);
  for (int k = 0; k < kKeys; ++k) {
    const auto got = cache.get_stats(static_cast<std::uint64_t>(k));
    ASSERT_TRUE(got.has_value()) << "key " << k;
    EXPECT_EQ(got->cycles, k);
  }
}

}  // namespace
}  // namespace catt::exec
