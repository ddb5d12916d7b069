// Versioned cache-key builder for every content-addressed tier of the
// execution engine (the in-process SimCache and the on-disk cache).
//
// CacheKey replaces the former free exec::fingerprint() overloads with one
// builder type so every key is seeded the same way: an engine-version salt
// first, then the hashed fields in call order. The salt makes persisted
// entries self-invalidating — bumping kEngineVersion changes every key, so
// a disk cache written by an older timing engine can never serve a newer
// build (the disk tier additionally stores the version in each entry
// header and rejects mismatches, see disk_cache.hpp).
//
// The kernel fingerprint hashes the *canonical source text* (ir::to_cuda
// is a deterministic pretty-printer) plus the signature and resource
// fields codegen does not print into the body, so two transform pipelines
// that arrive at the same kernel — e.g. two fixed factors that clamp to
// the same per-kernel divisor — produce the same key.
#pragma once

#include <cstdint>
#include <string_view>

#include "arch/gpu_arch.hpp"
#include "arch/launch.hpp"
#include "common/hash.hpp"
#include "expr/affine.hpp"
#include "ir/ir.hpp"

namespace catt::sim {
struct SimOptions;
}

namespace catt::exec {

/// Version salt folded into every CacheKey (and stamped into every disk
/// entry header). Bump it whenever a change can alter simulated results —
/// timing-engine behaviour, stats fields, analysis decisions feeding
/// transformed kernels — so stale cached artifacts are never served.
inline constexpr std::uint32_t kEngineVersion = 9;

/// Streaming builder over hash::Fnv1a, pre-seeded with kEngineVersion.
/// Field order is significant; chain() folds a previous key in for the
/// SimCache's prefix-chained launch keys.
class CacheKey {
 public:
  CacheKey() { h_.u32(kEngineVersion); }

  /// Seeds from a previous key (order-sensitive: chaining is how run
  /// prefixes — arch, options, every preceding launch — stay part of
  /// each launch's identity; see sim_cache.hpp).
  CacheKey& chain(std::uint64_t prev) {
    h_.u64(prev);
    return *this;
  }

  CacheKey& kernel(const ir::Kernel& k);
  CacheKey& launch(const arch::LaunchConfig& l);
  CacheKey& params(const expr::ParamEnv& p);
  CacheKey& gpu_arch(const arch::GpuArch& a);
  CacheKey& sim_options(const sim::SimOptions& o);

  /// Raw fields, for workload identity, repeats, payload-kind salts, ...
  CacheKey& str(std::string_view s) {
    h_.str(s);
    return *this;
  }
  CacheKey& u64(std::uint64_t v) {
    h_.u64(v);
    return *this;
  }
  CacheKey& i32(std::int32_t v) {
    h_.i32(v);
    return *this;
  }
  CacheKey& b(bool v) {
    h_.b(v);
    return *this;
  }

  std::uint64_t value() const { return h_.value(); }

 private:
  hash::Fnv1a h_;
};

}  // namespace catt::exec
