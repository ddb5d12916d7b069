// Reusable parser for the "name[:key=value,...]" command-line spec grammar
// shared by --sched= and --cache=. The harness owns flag/env extraction
// and spec decomposition; each consumer keeps its own key vocabulary and
// semantics (sched delegates to sim::sched::PolicyConfig::parse, the cache
// spec is interpreted by bench::cache_from_args).
#pragma once

#include <cstdint>
#include <initializer_list>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace catt::harness {

/// A decomposed spec. Getters consume keys; reject_unknown_keys() then
/// catches typos ("evcit=lru") instead of silently ignoring them. All
/// failures throw catt::Error with a diagnostic naming the full spec.
class SpecParser {
 public:
  /// Splits "name[:key=value,...]". Throws on an empty name, a knob
  /// without '=', an empty key, or a duplicate key.
  static SpecParser parse(std::string_view spec);

  const std::string& spec() const { return spec_; }
  const std::string& name() const { return name_; }

  bool has(const std::string& key) const;

  /// The raw value (consumes the key); `fallback` when absent.
  std::string str_or(const std::string& key, std::string fallback) const;
  /// Integer in [1, max] (consumes the key); throws on garbage and on
  /// out-of-range values, never wrapping or saturating them.
  std::int64_t int_or(const std::string& key, std::int64_t fallback,
                      std::int64_t max = std::numeric_limits<std::int64_t>::max()) const;
  /// Value restricted to `allowed` (consumes the key).
  std::string enum_or(const std::string& key, std::initializer_list<std::string_view> allowed,
                      std::string fallback) const;

  /// Throws when any key was never consumed by a getter.
  void reject_unknown_keys() const;

  /// Uniform diagnostic: throws catt::Error("bad spec '<spec>': <why>").
  [[noreturn]] void fail(const std::string& why) const;

 private:
  std::string spec_;
  std::string name_;
  std::vector<std::pair<std::string, std::string>> kvs_;  // insertion order
  mutable std::vector<bool> consumed_;
};

/// Scans argv for `--<flag>=SPEC` (last occurrence wins); falls back to
/// the environment variable `env` (when non-null), else returns "".
std::string flag_or_env(int argc, char** argv, std::string_view flag, const char* env);

}  // namespace catt::harness
