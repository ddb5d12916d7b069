#include "harness/spec.hpp"

#include <cerrno>
#include <cstdlib>

#include "common/error.hpp"
#include "common/string_util.hpp"

namespace catt::harness {

SpecParser SpecParser::parse(std::string_view spec) {
  SpecParser p;
  p.spec_ = std::string(spec);
  std::string knobs;
  if (const auto colon = p.spec_.find(':'); colon != std::string::npos) {
    p.name_ = p.spec_.substr(0, colon);
    knobs = p.spec_.substr(colon + 1);
  } else {
    p.name_ = p.spec_;
  }
  if (p.name_.empty()) p.fail("empty name");
  for (const std::string& kv : split(knobs, ',')) {
    if (kv.empty()) continue;
    const auto eq = kv.find('=');
    if (eq == std::string::npos) p.fail("knob '" + kv + "' is not key=value");
    std::string key = kv.substr(0, eq);
    if (key.empty()) p.fail("knob '" + kv + "' has an empty key");
    if (p.has(key)) p.fail("duplicate key '" + key + "'");
    p.kvs_.emplace_back(std::move(key), kv.substr(eq + 1));
  }
  p.consumed_.assign(p.kvs_.size(), false);
  return p;
}

bool SpecParser::has(const std::string& key) const {
  for (const auto& [k, v] : kvs_) {
    if (k == key) return true;
  }
  return false;
}

std::string SpecParser::str_or(const std::string& key, std::string fallback) const {
  for (std::size_t i = 0; i < kvs_.size(); ++i) {
    if (kvs_[i].first == key) {
      consumed_[i] = true;
      return kvs_[i].second;
    }
  }
  return fallback;
}

std::int64_t SpecParser::int_or(const std::string& key, std::int64_t fallback,
                                std::int64_t max) const {
  const std::string v = str_or(key, "");
  if (v.empty() && !has(key)) return fallback;
  errno = 0;
  char* end = nullptr;
  const long long x = std::strtoll(v.c_str(), &end, 10);
  if (end == v.c_str() || *end != '\0' || errno == ERANGE || x <= 0 || x > max) {
    fail("key '" + key + "' expects an integer in [1, " + std::to_string(max) + "], got '" +
         v + "'");
  }
  return static_cast<std::int64_t>(x);
}

std::string SpecParser::enum_or(const std::string& key,
                                std::initializer_list<std::string_view> allowed,
                                std::string fallback) const {
  const std::string v = str_or(key, std::move(fallback));
  for (const std::string_view a : allowed) {
    if (v == a) return v;
  }
  std::string list;
  for (const std::string_view a : allowed) {
    if (!list.empty()) list += "|";
    list += a;
  }
  fail("key '" + key + "' expects " + list + ", got '" + v + "'");
}

void SpecParser::reject_unknown_keys() const {
  for (std::size_t i = 0; i < kvs_.size(); ++i) {
    if (!consumed_[i]) fail("unknown key '" + kvs_[i].first + "'");
  }
}

void SpecParser::fail(const std::string& why) const {
  throw Error("bad spec '" + spec_ + "': " + why);
}

std::string flag_or_env(int argc, char** argv, std::string_view flag, const char* env) {
  std::string value;
  const std::string prefix = "--" + std::string(flag) + "=";
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.rfind(prefix, 0) == 0) value = std::string(arg.substr(prefix.size()));
  }
  if (value.empty() && env != nullptr) {
    if (const char* v = std::getenv(env); v != nullptr && *v != '\0') value = v;
  }
  return value;
}

}  // namespace catt::harness
