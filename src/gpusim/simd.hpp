// Shared runtime SIMD dispatch for the gpusim hot paths. One startup
// probe decides whether the AVX2 clones of a handful of lane loops run
// (cache tag scans, the dedup render translate pass, the VM's 32-lane
// ALU); everywhere else the code compiles straight to the baseline
// SSE2/scalar bodies. The dispatch is only attempted where both
// __builtin_cpu_supports and the target attribute exist (x86-64
// gcc/clang).
#pragma once

#include <cstdlib>

#if defined(__x86_64__) && defined(__SSE2__) && (defined(__GNUC__) || defined(__clang__))
#define CATT_SIMD_AVX2_DISPATCH 1
#endif

namespace catt::sim {

#if defined(CATT_SIMD_AVX2_DISPATCH)
namespace detail {
/// CATT_NO_AVX2=1 forces the baseline bodies on an AVX2 host, to price
/// the SIMD paths in isolation. Results are bit-identical either way (every AVX2 clone computes the
/// same integer function as its baseline body); this only moves time.
inline bool probe_avx2() {
  if (const char* env = std::getenv("CATT_NO_AVX2"); env != nullptr && *env == '1') {
    return false;
  }
  return __builtin_cpu_supports("avx2") != 0;
}
}  // namespace detail

/// Probed once at startup; a plain bool read on every dispatch site.
inline const bool kSimdHasAvx2 = detail::probe_avx2();
#endif

}  // namespace catt::sim
