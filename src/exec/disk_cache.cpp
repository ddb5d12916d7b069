#include "exec/disk_cache.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/log.hpp"
#include "exec/wire.hpp"
#include "obs/obs.hpp"

namespace catt::exec {
namespace fs = std::filesystem;

namespace {

constexpr std::uint32_t kMagic = 0x45435443;  // "CTCE"
constexpr std::uint32_t kFormat = 2;
/// magic + format + engine + key + payload size + payload checksum.
constexpr std::size_t kHeaderBytes = 4 + 4 + 4 + 8 + 8 + 8;

std::uint64_t payload_checksum(std::string_view payload) {
  hash::Fnv1a h;
  h.str(payload);
  return h.value();
}

const char* hex_digits = "0123456789abcdef";

std::string key_hex(std::uint64_t key) {
  std::string s(16, '0');
  for (int i = 15; i >= 0; --i) {
    s[static_cast<std::size_t>(i)] = hex_digits[key & 0xF];
    key >>= 4;
  }
  return s;
}

/// RAII read-only mapping of a whole file.
class Mapping {
 public:
  explicit Mapping(const std::string& path) {
    fd_ = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd_ < 0) return;
    struct stat st{};
    if (::fstat(fd_, &st) != 0 || st.st_size < 0) return;
    size_ = static_cast<std::size_t>(st.st_size);
    if (size_ == 0) return;  // mmap of 0 bytes is EINVAL; treat as empty
    void* p = ::mmap(nullptr, size_, PROT_READ, MAP_PRIVATE, fd_, 0);
    if (p != MAP_FAILED) base_ = static_cast<const char*>(p);
  }
  ~Mapping() {
    if (base_ != nullptr) ::munmap(const_cast<char*>(base_), size_);
    if (fd_ >= 0) ::close(fd_);
  }
  Mapping(const Mapping&) = delete;
  Mapping& operator=(const Mapping&) = delete;

  bool open() const { return fd_ >= 0; }
  std::string_view bytes() const {
    return base_ != nullptr ? std::string_view(base_, size_) : std::string_view();
  }

 private:
  int fd_ = -1;
  std::size_t size_ = 0;
  const char* base_ = nullptr;
};

}  // namespace

DiskCache::DiskCache(DiskCacheConfig cfg) : cfg_(std::move(cfg)) {
  std::error_code ec;
  fs::create_directories(cfg_.dir, ec);
  if (ec) {
    throw SimError("disk cache: cannot create directory " + cfg_.dir + ": " + ec.message());
  }
  // The size/mtime index is built lazily (ensure_index_locked): opening a
  // cache must stay O(1) even over a directory with thousands of entries,
  // because most short-lived clients never hit the max_bytes bound.
}

std::string DiskCache::entry_path(std::uint64_t key) const {
  const std::string hex = key_hex(key);
  return cfg_.dir + "/" + hex.substr(0, 2) + "/" + hex + ".ce";
}

template <typename Accept>
bool DiskCache::read(std::uint64_t key, Accept&& accept) {
  const std::string path = entry_path(key);
  std::lock_guard<std::mutex> lock(mu_);
  Mapping map(path);
  if (!map.open()) {
    ++counters_.misses;
    obs::count("exec.diskcache.misses");
    return false;
  }
  const std::string_view bytes = map.bytes();
  // Validate exhaustively; any mismatch drops the entry and misses.
  bool version_skew = false;
  bool valid = false;
  if (bytes.size() >= kHeaderBytes) {
    wire::Reader r(bytes);
    const std::uint32_t magic = r.u32();
    const std::uint32_t format = r.u32();
    const std::uint32_t engine = r.u32();
    const std::uint64_t entry_key = r.u64();
    const std::uint64_t size = r.u64();
    const std::uint64_t sum = r.u64();
    version_skew = magic == kMagic && format == kFormat && engine != cfg_.engine_version;
    if (magic == kMagic && format == kFormat && engine == cfg_.engine_version &&
        entry_key == key && size == r.remaining()) {
      const std::string_view body = bytes.substr(kHeaderBytes);
      if (payload_checksum(body) == sum) {
        try {
          accept(body);
          valid = true;
        } catch (const SimError&) {
          // A checksummed payload that still fails to decode: as corrupt
          // as a bad checksum, and just as unrecoverable in place.
        }
      }
    }
  }
  if (!valid) {
    // Truncated, corrupt, undecodable, or written by a different engine
    // version: drop it so the slot is rebuilt by the next publish.
    drop_entry_locked(path);
    ++counters_.dropped;
    ++counters_.misses;
    obs::count(version_skew ? "exec.diskcache.version_skew" : "exec.diskcache.corrupt");
    obs::count("exec.diskcache.misses");
    return false;
  }
  ++counters_.hits;
  obs::count("exec.diskcache.hits");
  if (cfg_.evict == DiskCacheConfig::Evict::kLru && cfg_.max_bytes > 0) {
    // Touch for LRU: hits must outlive entries that were merely written.
    std::error_code ec;
    const auto now = std::chrono::file_clock::now();
    fs::last_write_time(path, now, ec);
    if (indexed_) {
      const auto it = index_.find(path);
      if (it != index_.end()) {
        it->second.mtime = now;
      } else {
        // Published by another process after our scan; adopt it so the
        // touch actually protects it from eviction.
        index_add_locked(path, 0);
      }
    }
  }
  return true;
}

std::optional<std::string> DiskCache::get(std::uint64_t key) {
  std::optional<std::string> payload;
  read(key, [&](std::string_view body) { payload.emplace(body); });
  return payload;
}

std::optional<sim::KernelStats> DiskCache::get_stats(std::uint64_t key) {
  std::optional<sim::KernelStats> stats;
  read(key, [&](std::string_view body) { stats = wire::decode_kernel_stats(body); });
  return stats;
}

bool DiskCache::put(std::uint64_t key, std::string_view payload) {
  const std::string path = entry_path(key);
  std::lock_guard<std::mutex> lock(mu_);
  std::error_code ec;
  if (fs::exists(path, ec)) {
    // Content-addressed: an existing entry is byte-identical by
    // construction, so a second publish is a no-op.
    if (indexed_ && index_.find(path) == index_.end()) index_add_locked(path, 0);
    ++counters_.dup_writes;
    obs::count("exec.diskcache.dup_writes");
    return true;
  }

  wire::Writer w;
  w.u32(kMagic);
  w.u32(kFormat);
  w.u32(cfg_.engine_version);
  w.u64(key);
  w.u64(payload.size());
  w.u64(payload_checksum(payload));
  const std::string& header = w.buffer();
  const std::uint64_t entry_bytes = header.size() + payload.size();

  if (cfg_.max_bytes > 0) {
    // First bounded publish is the index's "first use": everything after
    // runs off the in-process totals, never another directory walk.
    ensure_index_locked();
    if (size_bytes_ + entry_bytes > cfg_.max_bytes) {
      if (cfg_.evict == DiskCacheConfig::Evict::kLru) {
        evict_to_fit_locked(entry_bytes);
      }
      if (size_bytes_ + entry_bytes > cfg_.max_bytes) return false;  // entry larger than budget
    }
  }

  fs::create_directories(fs::path(path).parent_path(), ec);
  if (ec) return false;
  // Unique temp name in the same directory so rename() cannot cross
  // filesystems; pid + per-instance sequence keeps concurrent writers
  // (threads and processes) from colliding.
  const std::string tmp =
      path + ".tmp." + std::to_string(::getpid()) + "." + std::to_string(tmp_seq_++);
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC, 0644);
  if (fd < 0) return false;
  bool ok = true;
  auto write_all = [&](std::string_view bytes) {
    std::size_t off = 0;
    while (ok && off < bytes.size()) {
      const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
      if (n <= 0) ok = false;
      else off += static_cast<std::size_t>(n);
    }
  };
  write_all(header);
  write_all(payload);
  if (::close(fd) != 0) ok = false;
  if (ok && std::rename(tmp.c_str(), path.c_str()) != 0) ok = false;
  if (!ok) {
    ::unlink(tmp.c_str());
    log::warn("disk cache: failed to publish ", path);
    return false;
  }
  size_bytes_ += entry_bytes;
  if (indexed_) index_add_locked(path, entry_bytes);
  ++counters_.writes;
  obs::count("exec.diskcache.writes");
  return true;
}

bool DiskCache::put_stats(std::uint64_t key, const sim::KernelStats& s) {
  return put(key, wire::encode_kernel_stats(s));
}

DiskCache::Counters DiskCache::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

std::uint64_t DiskCache::size_bytes() {
  std::lock_guard<std::mutex> lock(mu_);
  ensure_index_locked();
  return size_bytes_;
}

void DiskCache::drop_entry_locked(const std::string& path) {
  std::error_code ec;
  const auto sz = fs::file_size(path, ec);
  if (!ec) size_bytes_ -= std::min<std::uint64_t>(size_bytes_, sz);
  fs::remove(path, ec);
  index_.erase(path);
}

void DiskCache::ensure_index_locked() {
  if (indexed_) return;
  indexed_ = true;
  size_bytes_ = 0;
  index_.clear();
  std::error_code ec;
  for (fs::recursive_directory_iterator it(cfg_.dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (!it->is_regular_file(ec)) continue;
    if (it->path().extension() != ".ce") continue;
    IndexEntry e;
    e.size = it->file_size(ec);
    if (ec) continue;
    e.mtime = fs::last_write_time(it->path(), ec);
    if (ec) continue;
    size_bytes_ += e.size;
    index_.emplace(it->path().string(), e);
  }
  ++counters_.rescans;
  obs::count("exec.diskcache.rescans");
}

void DiskCache::index_add_locked(const std::string& path, std::uint64_t size) {
  if (!indexed_) return;
  // A fresh publish: the rename just happened, so "now" is exact.
  IndexEntry e{size, std::chrono::file_clock::now()};
  if (size == 0) {
    // Discovered rather than written: stat it, and count it now.
    std::error_code ec;
    e.size = fs::file_size(path, ec);
    if (ec) return;
    if (const auto mtime = fs::last_write_time(path, ec); !ec) e.mtime = mtime;
    size_bytes_ += e.size;
  }
  index_[path] = e;
}

void DiskCache::evict_to_fit_locked(std::uint64_t incoming_bytes) {
  // Evict strictly from the in-process index (built once, updated on every
  // publish/hit/drop) — the whole point is that overflow no longer walks
  // the directory. Entries other processes published since the scan are
  // not candidates and not counted; they age out via their own publisher.
  struct Entry {
    fs::file_time_type mtime;
    std::uint64_t size;
    std::string path;
  };
  std::vector<Entry> entries;
  entries.reserve(index_.size());
  for (const auto& [path, e] : index_) entries.push_back({e.mtime, e.size, path});
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) { return a.mtime < b.mtime; });
  for (const Entry& e : entries) {
    if (size_bytes_ + incoming_bytes <= cfg_.max_bytes) break;
    std::error_code rec;
    if (fs::remove(e.path, rec)) {
      size_bytes_ -= std::min(size_bytes_, e.size);
      ++counters_.evictions;
      obs::count("exec.diskcache.evictions");
    }
    index_.erase(e.path);
  }
}

}  // namespace catt::exec
