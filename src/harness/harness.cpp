#include "harness/harness.hpp"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <string_view>

#include "common/error.hpp"
#include "common/log.hpp"
#include "common/profile.hpp"
#include "common/string_util.hpp"
#include "harness/spec.hpp"
#include "obs/obs.hpp"

namespace catt::bench {

arch::GpuArch max_l1d_arch() { return arch::GpuArch::titan_v(kNumSms); }

arch::GpuArch small_l1d_arch() { return arch::GpuArch::titan_v_32k_l1d(kNumSms); }

std::string kernel_label(const wl::Workload& w, std::size_t schedule_index) {
  std::map<std::string, int> first_seen;
  int next = 0;
  int my_number = 0;
  for (std::size_t i = 0; i < w.schedule.size(); ++i) {
    const std::string& k = w.schedule[i].kernel;
    auto it = first_seen.find(k);
    int num;
    if (it == first_seen.end()) {
      num = ++next;
      first_seen[k] = num;
    } else {
      num = it->second;
    }
    if (i == schedule_index) my_number = num;
  }
  std::string upper = w.name;
  for (auto& c : upper) c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  return upper + "#" + std::to_string(my_number);
}

double speedup(std::int64_t baseline_cycles, std::int64_t cycles) {
  return cycles == 0 ? 0.0
                     : static_cast<double>(baseline_cycles) / static_cast<double>(cycles);
}

double Comparison::bftt_speedup() const {
  return speedup(baseline.total_cycles, bftt.best.total_cycles);
}

double Comparison::catt_speedup() const {
  return speedup(baseline.total_cycles, catt.total_cycles);
}

Comparison compare(throttle::Runner& runner, const wl::Workload& w) {
  Comparison c;
  // The baseline goes first so its per-launch simulations are cached
  // before the BFTT sweep probes its identity candidate and CATT probes
  // any kernels it leaves untransformed.
  c.baseline = runner.run(w, throttle::Baseline{});
  c.bftt = runner.bftt_sweep(w);
  c.catt = runner.run(w, throttle::Catt{});
  return c;
}

WriteStatus write_result_file(const std::string& name, const std::string& content) {
  namespace fs = std::filesystem;
  std::string dir = "results";
  if (const char* env = std::getenv("CATT_RESULTS_DIR"); env != nullptr && *env != '\0') {
    dir = env;
  }
  WriteStatus st;
  st.path = dir + "/" + name;
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    st.message = "could not create " + dir + ": " + ec.message();
    return st;
  }
  std::ofstream f(st.path);
  if (!f) {
    st.message = "could not open " + st.path + " for writing";
    return st;
  }
  obs::Accum write_timer;
  if (const obs::SimObs* ob = obs::resolve(nullptr)) {
    obs::Registry& reg = ob->registry_or_global();
    reg.add(reg.counter("harness.reports"), 1);
    reg.add(reg.counter("harness.report_bytes"), content.size());
    write_timer = obs::Accum(&reg, reg.counter("harness.write_us"));
  }
  write_timer.start();
  f << content;
  f.flush();
  write_timer.stop();
  if (!f) {
    st.message = "short write to " + st.path;
    return st;
  }
  if (prof::enabled()) {
    prof::report("report=" + name + " bytes=" + std::to_string(content.size()) +
                 " write_ms=" + std::to_string(write_timer.ms()));
  }
  st.ok = true;
  return st;
}

int exit_status(const WriteStatus& st) {
  if (st) return 0;
  std::fprintf(stderr, "[bench] result write failed: %s\n", st.message.c_str());
  return 1;
}

sim::sched::PolicyConfig sched_from_args(int argc, char** argv) {
  const std::string spec = harness::flag_or_env(argc, argv, "sched", "CATT_SCHED");
  if (spec.empty()) return {};
  try {
    return sim::sched::PolicyConfig::parse(spec);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "[bench] %s\n", e.what());
    std::exit(2);
  }
}

namespace {

/// One `--policies=` token -> a comparison column. Runtime schemes (ccws,
/// dyncta) ride on baseline code with the token as the scheduler spec;
/// adaptive rides on the CATT transform with the token as its scheduler
/// config; everything else runs under the default scheduler.
PolicyColumn policy_column(const std::string& token) {
  const harness::SpecParser p = harness::SpecParser::parse(token);
  const std::string& name = p.name();
  if (name == "baseline") {
    p.reject_unknown_keys();
    return {token, throttle::Baseline{}, {}};
  }
  if (name == "ccws" || name == "dyncta") {
    // Knob validation is PolicyConfig::parse's job (same vocabulary as
    // --sched=), so the SpecParser keys are deliberately left unread.
    return {token, throttle::Baseline{}, sim::sched::PolicyConfig::parse(token)};
  }
  if (name == "catt") {
    p.reject_unknown_keys();
    return {token, throttle::Catt{}, {}};
  }
  if (name == "adaptive") {
    throttle::Adaptive a;
    a.sched = sim::sched::PolicyConfig::parse(token);
    return {token, std::move(a), {}};
  }
  if (name == "bftt") {
    p.reject_unknown_keys();
    return {token, throttle::Bftt{}, {}};
  }
  if (name == "fixed") {
    throttle::Fixed f;
    if (!p.has("n")) p.fail("policy 'fixed' needs n=N");
    constexpr std::int64_t kIntMax = std::numeric_limits<int>::max();
    f.factor.n_divisor = static_cast<int>(p.int_or("n", 1, kIntMax));
    f.factor.tb_limit = p.has("tb") ? static_cast<int>(p.int_or("tb", 0, kIntMax)) : 0;
    p.reject_unknown_keys();
    return {token, f, {}};
  }
  p.fail("unknown policy column '" + name +
         "' (use baseline|ccws|dyncta|catt|adaptive|bftt|fixed)");
}

}  // namespace

std::vector<PolicyColumn> policies_from_args(int argc, char** argv,
                                             const std::string& fallback) {
  std::string spec = harness::flag_or_env(argc, argv, "policies", "CATT_POLICIES");
  if (spec.empty()) spec = fallback;
  std::vector<PolicyColumn> out;
  try {
    for (const std::string& token : split(spec, '+')) {
      if (token.empty()) continue;
      out.push_back(policy_column(token));
    }
    if (out.empty()) throw SimError("--policies: empty policy list '" + spec + "'");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "[bench] %s\n", e.what());
    std::exit(2);
  }
  return out;
}

std::shared_ptr<exec::DiskCache> cache_from_args(int argc, char** argv) {
  std::string spec = harness::flag_or_env(argc, argv, "cache", nullptr);
  if (spec.empty()) {
    // The env fallback is a bare directory, not a spec.
    if (const char* env = std::getenv("CATT_CACHE_DIR"); env != nullptr && *env != '\0') {
      spec = "dir:path=" + std::string(env);
    }
  }
  if (spec.empty()) return nullptr;
  try {
    const harness::SpecParser p = harness::SpecParser::parse(spec);
    if (p.name() == "none") {
      p.reject_unknown_keys();
      return nullptr;
    }
    if (p.name() != "dir") p.fail("unknown cache backend '" + p.name() + "' (use dir|none)");
    exec::DiskCacheConfig cfg;
    cfg.dir = p.str_or("path", "");
    if (cfg.dir.empty()) p.fail("backend 'dir' needs path=DIR");
    cfg.evict = p.enum_or("evict", {"lru", "none"}, "lru") == "lru"
                    ? exec::DiskCacheConfig::Evict::kLru
                    : exec::DiskCacheConfig::Evict::kNone;
    // MiB -> bytes must not wrap, so max_mb is capped at 2^44 - 1.
    constexpr std::int64_t kMaxMb = (std::int64_t{1} << 44) - 1;
    cfg.max_bytes = static_cast<std::uint64_t>(p.int_or("max_mb", 0, kMaxMb)) << 20;
    p.reject_unknown_keys();
    return std::make_shared<exec::DiskCache>(cfg);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "[bench] %s\n", e.what());
    std::exit(2);
  }
}

ObsSession::ObsSession(int argc, char** argv, std::string bench_name)
    : bench_name_(std::move(bench_name)) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    constexpr std::string_view kFlag = "--trace-out=";
    if (arg.rfind(kFlag, 0) == 0) trace_out_ = std::string(arg.substr(kFlag.size()));
  }
  if (trace_out_.empty()) {
    if (const char* env = std::getenv("CATT_TRACE_OUT"); env != nullptr && *env != '\0') {
      trace_out_ = env;
    }
  }
  // A requested trace file implies tracing; must happen before the first
  // launch freezes the environment-derived SimObs.
  if (!trace_out_.empty()) obs::override_trace_level(1);
}

ObsSession::~ObsSession() {
  const obs::SimObs* ob = obs::env_sim_obs();
  if (ob == nullptr) return;

  // Metrics registry dump. [obs] lines bypass the log-level threshold for
  // the same reason [profile] lines do: the env knob is the opt-in.
  std::istringstream lines(ob->registry_or_global().render());
  for (std::string line; std::getline(lines, line);) {
    if (!line.empty()) log::write(log::Level::kInfo, "[obs] " + line);
  }

  if (ob->trace_level <= 0) return;
  obs::Tracer& tracer = ob->tracer_or_global();
  const std::string summary = " events=" + std::to_string(tracer.recorded()) +
                              " dropped=" + std::to_string(tracer.dropped());
  if (!trace_out_.empty()) {
    if (tracer.write_json(trace_out_)) {
      log::write(log::Level::kInfo, "[obs] trace=" + trace_out_ + summary);
    }
  } else if (WriteStatus st = write_result_file(bench_name_ + "_trace.json", tracer.to_json())) {
    log::write(log::Level::kInfo, "[obs] trace=" + st.path + summary);
  } else {
    log::write(log::Level::kWarn, "[obs] trace export failed: " + st.message);
  }
}

}  // namespace catt::bench
