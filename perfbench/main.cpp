// Repo benchmark: runs one named workload against the program's public
// API (throttle::Runner, exec::PlanService / DiskCache, xform::apply_plan,
// frontend::parse_program, wl::*), checks every simulated result against the
// recorded reference, and prints every metric by name and unit. The last line
// of stdout is one JSON object {correct, attempted, failed, metrics}.
//
//   perfbench --workload cs_sweep|vm_tracegen|warm_replay --seed N
//                    --seconds S --trace 0|1 --reference FILE --work-dir DIR
//                    [--apps a,b,...] [--record FILE] [--commit ID]
//   perfbench --workload warm_replay --work-dir DIR --fill-cache CACHE_DIR
//
// --trace 0 reports the end-to-end metrics from plain passes. --trace 1
// alternates plain and traced passes and reports the per-layer metrics: the
// traced passes record spans around each call into the program (every layer
// time is a sum of span durations by name) and attach an obs::SimObs with a
// private registry, so the simulator's own counters split launch time into
// trace generation and timing. --record writes the digests of one pass to
// FILE instead of checking them. --fill-cache is the cold fill warm_replay
// runs in a child process.
#include <sched.h>
#include <spawn.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "frontend/parser.hpp"
#include "harness/harness.hpp"
#include "ir/codegen.hpp"
#include "obs/obs.hpp"
#include "occupancy/occupancy.hpp"
#include "spans.hpp"
#include "throttle/runner.hpp"
#include "transform/transform.hpp"
#include "workloads/workload.hpp"

extern char** environ;

namespace {

using namespace catt;
using perfbench::Scope;
using perfbench::Spans;
using perfbench::cpu_now_ms;
using perfbench::wall_now_ms;
namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Workloads and queries

enum class WorkloadKind { kCsSweep, kVmTracegen, kWarmReplay };

struct WorkloadDef {
  const char* name;
  WorkloadKind kind;
  std::vector<std::string> apps;
};

const std::vector<std::string> kCsApps = {"atax", "bicg", "mvt", "gsmv", "syr2k",
                                          "km",   "pf",   "bfs", "cfd"};

const std::vector<WorkloadDef> kWorkloads = {
    {"cs_sweep", WorkloadKind::kCsSweep, kCsApps},
    {"vm_tracegen", WorkloadKind::kVmTracegen, {"corr", "bfs_wf", "stencil_div"}},
    {"warm_replay", WorkloadKind::kWarmReplay, kCsApps},
};

const std::map<std::string, wl::Workload (*)(int)> kFactories = {
    {"atax", wl::make_atax}, {"bicg", wl::make_bicg},   {"mvt", wl::make_mvt},
    {"gsmv", wl::make_gsmv}, {"syr2k", wl::make_syr2k}, {"km", wl::make_km},
    {"pf", wl::make_pf},     {"bfs", wl::make_bfs},     {"cfd", wl::make_cfd},
    {"corr", wl::make_corr}, {"bfs_wf", wl::make_bfs_wf}, {"stencil_div", wl::make_stencil_div},
};

enum class Kind { kBaseline, kCatt, kAdaptive, kFixed, kBfttSweep };

/// Metric-name suffix of a query kind (throttle.query_ms.<suffix>).
const char* kind_name(Kind k) {
  switch (k) {
    case Kind::kBaseline: return "baseline";
    case Kind::kCatt: return "catt";
    case Kind::kAdaptive: return "catt_adaptive";
    case Kind::kFixed: return "fixed";
    case Kind::kBfttSweep: return "bftt_sweep";
  }
  return "?";
}

struct Query {
  std::size_t app = 0;  // index into Bench::apps
  Kind kind = Kind::kBaseline;
  throttle::FixedFactor factor{};  // kFixed only
  std::string id;                  // "<app>/<label>": the reference key
};

throttle::Policy policy_of(const Query& q) {
  switch (q.kind) {
    case Kind::kCatt: return throttle::Catt{};
    case Kind::kAdaptive: return throttle::Adaptive{};
    case Kind::kFixed: return throttle::Fixed{q.factor};
    default: return throttle::Baseline{};
  }
}

// ---------------------------------------------------------------------------
// Small utilities

/// splitmix64: a fixed, portable generator, so a seed means the same order
/// on every standard library.
struct SplitMix {
  std::uint64_t state;
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
};

template <typename T>
void shuffle(std::vector<T>& v, SplitMix& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[static_cast<std::size_t>(rng.next() % i)]);
  }
}

std::string fnv1a_hex(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

/// Smallest value (0 for none): the best repetition of a timing.
double best_of(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 == 1 ? v[h] : (v[h - 1] + v[h]) / 2.0;
}

/// Nearest-rank percentile (p in (0, 100]).
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1];
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double log_sum = 0.0;
  for (double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

int host_cores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) return std::max(1, CPU_COUNT(&set));
  return static_cast<int>(std::max(1L, sysconf(_SC_NPROCESSORS_ONLN)));
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

/// Clears every environment knob that changes the measured program, so the
/// benchmark always measures the same configuration: serial launches, no
/// daemon, no ambient cache, no profiling or tracing hooks, default
/// scheduler. Must run before the first library call (several knobs are
/// read once and cached).
void pin_environment() {
  static const char* const kKnobs[] = {
      "CATT_SIM_THREADS", "CATT_TRACE_THREADS", "CATT_RENDER_CACHE", "CATT_NO_AVX2",
      "CATT_SERVE_SOCKET", "CATT_CACHE_DIR",    "CATT_PROFILE",      "CATT_METRICS_INTERVAL",
      "CATT_SCHED",        "CATT_POLICIES",     "CATT_JOBS"};
  for (const char* k : kKnobs) unsetenv(k);
  std::vector<std::string> trace_knobs;  // CATT_TRACE, CATT_TRACE_OUT, ...
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string kv = *e;
    if (kv.rfind("CATT_TRACE", 0) == 0) trace_knobs.push_back(kv.substr(0, kv.find('=')));
  }
  for (const auto& k : trace_knobs) unsetenv(k.c_str());
}

// ---------------------------------------------------------------------------
// Options

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string reference;
  std::string work_dir;
  std::string apps;  // comma list; empty = the workload's full app set
  std::string record;
  std::string commit = "unknown";
  std::string fill_cache;  // set in the child process that fills warm_replay's cache
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr, "perfbench: %s\n", why.c_str());
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options o;
  std::map<std::string, std::string*> str_flags = {
      {"--workload", &o.workload}, {"--reference", &o.reference}, {"--work-dir", &o.work_dir},
      {"--apps", &o.apps},         {"--record", &o.record},       {"--commit", &o.commit},
      {"--fill-cache", &o.fill_cache}};
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (auto it = str_flags.find(flag); it != str_flags.end()) {
        *it->second = value;
      } else if (flag == "--seed") {
        o.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        o.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        o.trace = value == "1";
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (o.workload.empty() || o.work_dir.empty() ||
      (o.reference.empty() && o.record.empty() && o.fill_cache.empty())) {
    usage("--workload, --work-dir and --reference (or --record) are required");
  }
  return o;
}

// ---------------------------------------------------------------------------
// Reference digests

/// Digest of every simulated statistic the reference pins: per launch,
/// cycles, L1/L2 counters, DRAM lines and warp instructions; for a BFTT
/// sweep also every candidate's cycles and the winning factor.
std::string digest_of(const throttle::AppResult& r, const throttle::Runner::BfttOutcome* sweep) {
  std::string s;
  for (const sim::KernelStats& k : r.launches) {
    s += k.kernel_name;
    for (std::uint64_t v : {static_cast<std::uint64_t>(k.cycles), k.l1.accesses, k.l1.hits,
                            k.l1.misses, k.l1.store_accesses, k.l2.accesses, k.l2.hits,
                            k.l2.misses, k.l2.store_accesses, k.dram_lines, k.warp_insts}) {
      s += ',' + std::to_string(v);
    }
    s += ';';
  }
  if (sweep != nullptr) {
    for (const auto& [f, cycles] : sweep->sweep) s += f.str() + '=' + std::to_string(cycles) + ';';
    s += "best=" + sweep->factor.str();
  }
  return fnv1a_hex(s);
}

struct RefEntry {
  std::string digest;
  std::int64_t cycles = 0;
};

/// "<workload> <query id> <digest> <total cycles>" lines; '#' starts a comment.
std::map<std::string, RefEntry> load_reference(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("cannot read reference " + path);
  std::map<std::string, RefEntry> ref;
  std::string line;
  while (std::getline(f, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream in(line);
    std::string workload, id;
    RefEntry e;
    if (!(in >> workload >> id >> e.digest >> e.cycles)) {
      throw std::runtime_error("malformed reference line: " + line);
    }
    ref[workload + ' ' + id] = e;
  }
  return ref;
}

// ---------------------------------------------------------------------------
// Per-pass results

/// Access-weighted L1D hit rate over a set of simulated results.
struct L1Acc {
  std::uint64_t hits = 0;
  std::uint64_t accesses = 0;
  void add(const throttle::AppResult& r) {
    for (const auto& k : r.launches) {
      hits += k.l1.hits;
      accesses += k.l1.accesses;
    }
  }
  double rate() const { return ratio(static_cast<double>(hits), static_cast<double>(accesses)); }
};

/// Simulated cycles of one app under each role, for the speed-up metrics.
struct AppCycles {
  std::int64_t baseline = 0;
  std::int64_t catt = 0;
  std::int64_t best_fixed = 0;  // BFTT winner (cs_sweep) or best issued Fixed
  L1Acc best_fixed_l1;
};

struct PassResult {
  bool traced = false;
  double wall_ms = 0.0;
  double cpu_ms = 0.0;
  // Request id -> latency, for query_ms_p50/p99. On warm_replay a request
  // is one Runner::run call, timed from opening the cache and building the
  // Runner, as a rerunning process would. On the simulation workloads it is
  // the whole pass, the figure as a bench main issues it: a single call's
  // latency there depends on which earlier call already simulated its
  // launches (the SimCache serves fig9's N=1 after the baseline, CATT on an
  // app it leaves untransformed), so it changes with the seed's call order.
  std::map<std::string, double> latency_ms;
  int attempted = 0;
  int failed = 0;
  std::vector<std::string> failures;

  // exec tiers, summed over the pass's Runners and DiskCache instances.
  std::uint64_t sim_hits = 0, sim_misses = 0;
  std::uint64_t disk_hits = 0, disk_misses = 0, disk_writes = 0, disk_dropped = 0;
  std::uint64_t disk_bytes = 0;

  // Simulated model: query results (not what this pass happened to simulate).
  std::map<std::string, AppCycles> cycles;
  std::map<std::string, L1Acc> l1_by_policy;
  std::int64_t sim_cycles = 0;
  std::uint64_t dram_lines = 0;
  std::size_t bftt_candidates = 0, bftt_unique = 0;

  // Traced passes only (their layer times are in the span log).
  std::uint64_t analyses = 0;
  std::uint64_t split_loops = 0;
  std::map<std::string, std::uint64_t> sim_counters;  // deltas of the SimObs registry
};

const char* const kSimCounters[] = {
    "sim.trace_gen_us",   "sim.total_us",          "sim.gpu.launches",
    "sim.warps_issued",   "sim.queue_pops",        "sim.tracegen.warps_rendered",
    "sim.tracegen.warps_executed", "sim.policy.decisions", "sim.policy.throttles",
    "sim.policy.relaxes"};

// ---------------------------------------------------------------------------
// The benchmark

class Bench {
 public:
  Bench(Options opt, const WorkloadDef& def, exec::Pool& pool)
      : opt_(std::move(opt)),
        def_(def),
        pool_(pool),
        arch_(bench::max_l1d_arch()),
        rng_{opt_.seed},
        work_(fs::path(opt_.work_dir) / (std::string(def.name) + "-" + std::to_string(getpid()))) {
    sim_obs_.trace_level = 1;  // the lowest level at which Gpu::run reports its split
    sim_obs_.tracer = &tracer_;
    sim_obs_.registry = &registry_;
    if (!opt_.reference.empty() && opt_.record.empty()) ref_ = load_reference(opt_.reference);
    app_names_ = def_.apps;
    if (!opt_.apps.empty()) {
      app_names_.clear();
      std::stringstream in(opt_.apps);
      for (std::string a; std::getline(in, a, ',');) {
        if (std::find(def_.apps.begin(), def_.apps.end(), a) == def_.apps.end()) {
          usage("app " + a + " is not part of workload " + def_.name);
        }
        app_names_.push_back(a);
      }
    }
    fs::remove_all(work_);
    fs::create_directories(work_);
  }

  ~Bench() {
    std::error_code ec;
    fs::remove_all(work_, ec);
  }
  Bench(const Bench&) = delete;
  Bench& operator=(const Bench&) = delete;

  /// Builds the workloads (for kBuildBatchMs) and, for warm_replay, fills
  /// the disk cache cold in a child process.
  void setup();
  void run_passes();
  int report();

  /// Constructs the workloads again and again for `ms` milliseconds (at
  /// least once), each time in a "workloads.build" span; the first
  /// construction is the one the passes use.
  void build_workloads(double ms);
  /// Runs the cs_sweep calls cold with a DiskCache on `dir`; returns the
  /// number of apps that failed.
  int fill_cache(const std::string& dir);

 private:
  // Workload construction takes well under a millisecond, and on a shared
  // 4-vCPU host its speed shifts by up to 60% for stretches of 0.1 s to
  // minutes. setup_s is the median of all constructions in batches taken
  // before the passes and again between passes at least kBuildGapMs apart,
  // so it samples the machine states the passes see.
  static constexpr double kBuildBatchMs = 250.0;
  static constexpr double kBuildGapMs = 5000.0;
  static constexpr std::size_t kMaxTracedPasses = 8;

  void build_queries();
  std::vector<std::size_t> pass_order(std::vector<std::vector<std::size_t>>* inner);
  void run_pass(bool traced);
  void run_query(throttle::Runner& runner, const Query& q, PassResult& res,
                 std::set<std::uint64_t>& analysed);
  std::vector<analysis::KernelAnalysis> probe_analysis(throttle::Runner& runner,
                                                       const wl::Workload& w, Kind kind,
                                                       std::set<std::uint64_t>& analysed,
                                                       PassResult& res);
  void probe_transform(const wl::Workload& w, const Query& q,
                       const std::vector<analysis::KernelAnalysis>& kas,
                       const std::vector<throttle::FixedFactor>& factors, PassResult& res);
  void fill_warm_cache();
  void collect_tiers(const throttle::Runner& r, exec::DiskCache* dc, PassResult& res);
  double setup_s() const;
  std::map<std::string, double> end_to_end_metrics() const;
  std::map<std::string, double> per_layer_metrics() const;
  void print_paper_reference(const PassResult& res) const;
  void print_attribution(const std::map<std::string, double>& m) const;

  Options opt_;
  const WorkloadDef& def_;
  exec::Pool& pool_;
  arch::GpuArch arch_;
  Spans spans_{true};  // set-up (always) and the traced passes
  Spans off_{false};
  Spans* active_ = &off_;  // the recorder of the pass in progress
  obs::Tracer tracer_{1u << 12};
  obs::Registry registry_;
  obs::SimObs sim_obs_;
  SplitMix rng_;
  fs::path work_;
  std::map<std::string, RefEntry> ref_;
  std::vector<std::string> app_names_;

  std::vector<wl::Workload> apps_;
  std::vector<std::vector<Query>> queries_;  // per app, canonical order
  std::vector<std::vector<throttle::FixedFactor>> candidates_;  // per app

  // Setup results; its times are in the span log.
  std::size_t parse_failures_ = 0;
  std::uint64_t fill_bytes_ = 0;
  int fill_failed_ = 0;

  std::vector<PassResult> passes_;
  std::vector<std::string> records_;  // --record output lines
};

/// Wall durations of the spans named `name` (see Spans::named).
std::vector<double> durations_ms(const Spans& spans, const std::string& name) {
  std::vector<double> out;
  for (const perfbench::Span* s : spans.named(name)) out.push_back(s->end_ms - s->start_ms);
  return out;
}

void Bench::build_workloads(double ms) {
  const double t0 = wall_now_ms();
  while (apps_.empty() || wall_now_ms() - t0 < ms) {
    Scope s(spans_, "workloads.build");
    std::vector<wl::Workload> built;
    for (const auto& name : app_names_) built.push_back(kFactories.at(name)(bench::kNumSms));
    if (apps_.empty()) apps_ = std::move(built);
  }
}

void Bench::setup() {
  build_workloads(kBuildBatchMs);
  build_queries();

  if (opt_.trace) {
    // frontend layer: parse the workloads' kernels again, from the source
    // the code generator prints for them (the factories' own source text is
    // private to each workload's translation unit).
    for (const auto& w : apps_) {
      std::string src;
      for (const auto& k : w.kernels) src += ir::to_cuda(k) + "\n";
      Scope p(spans_, "frontend.parse_program:" + w.name);
      try {
        const auto parsed = frontend::parse_program(src);
        if (parsed.size() != w.kernels.size()) ++parse_failures_;
      } catch (const std::exception&) {
        ++parse_failures_;
      }
    }
  }

  if (def_.kind == WorkloadKind::kWarmReplay) fill_warm_cache();
}

void Bench::build_queries() {
  throttle::Runner probe(arch_, &pool_);
  queries_.assign(apps_.size(), {});
  candidates_.assign(apps_.size(), {});
  for (std::size_t a = 0; a < apps_.size(); ++a) {
    const wl::Workload& w = apps_[a];
    candidates_[a] = probe.candidate_factors(w);
    auto add = [&](Kind kind, throttle::FixedFactor f = {}) {
      Query q;
      q.app = a;
      q.kind = kind;
      q.factor = f;
      const std::string label =
          kind == Kind::kBfttSweep ? "bftt_sweep" : policy_of(q).label();
      q.id = w.name + "/" + label;
      queries_[a].push_back(q);
    };
    switch (def_.kind) {
      case WorkloadKind::kCsSweep:
        // compare()'s order: the baseline's launches are cached before the
        // sweep probes its identity candidate.
        add(Kind::kBaseline);
        add(Kind::kBfttSweep);
        add(Kind::kCatt);
        break;
      case WorkloadKind::kVmTracegen:
        add(Kind::kBaseline);
        add(Kind::kCatt);
        add(Kind::kAdaptive);
        for (const auto& f : candidates_[a]) {
          if (f.tb_limit == 0) add(Kind::kFixed, f);  // the warp axis, as fig9 sweeps it
        }
        break;
      case WorkloadKind::kWarmReplay:
        add(Kind::kBaseline);
        add(Kind::kCatt);
        for (const auto& f : candidates_[a]) add(Kind::kFixed, f);
        break;
    }
  }
}

/// The cs_sweep calls (baseline, the BFTT sweep on the pool, CATT) publish
/// exactly the launches the individual warm queries will look up.
int Bench::fill_cache(const std::string& dir) {
  exec::DiskCache dc(exec::DiskCacheConfig{dir});
  throttle::Runner runner(arch_, &pool_);
  runner.set_disk_cache(&dc);
  int failed = 0;
  for (const auto& w : apps_) {
    try {
      runner.run(w, throttle::Baseline{});
      runner.bftt_sweep(w);
      runner.run(w, throttle::Catt{});
    } catch (const std::exception& e) {
      ++failed;
      std::fprintf(stderr, "perfbench: cold fill of %s failed: %s\n", w.name.c_str(), e.what());
    }
  }
  return failed;
}

/// Fills the warm_replay directory in a child process (this program with
/// --fill-cache) and waits for it. The fill simulates every launch; in a
/// child, that memory stays out of this process, so warm_replay's
/// peak_rss_mb is the replay path's own.
void Bench::fill_warm_cache() {
  Scope s(spans_, "exec.cold_fill");
  const std::string dir = (work_ / "warm_cache").string();
  std::vector<std::string> args = {"perfbench",  "--workload",    def_.name, "--work-dir",
                                   opt_.work_dir, "--fill-cache", dir};
  if (!opt_.apps.empty()) args.insert(args.end(), {"--apps", opt_.apps});
  std::vector<char*> argv;
  for (auto& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  pid_t pid = 0;
  int status = 0;
  const bool ok =
      posix_spawn(&pid, "/proc/self/exe", nullptr, nullptr, argv.data(), environ) == 0 &&
      waitpid(pid, &status, 0) == pid && WIFEXITED(status) && WEXITSTATUS(status) == 0;
  if (!ok) {
    ++fill_failed_;
    std::fprintf(stderr, "perfbench: cold fill process failed (status %d)\n", status);
  }
  fill_bytes_ = exec::DiskCache(exec::DiskCacheConfig{dir}).size_bytes();
}

/// App order for one pass, and (in `inner`) each app's query order. The seed
/// permutes both, except cs_sweep's per-app order: it is compare()'s, because
/// which call finds the other's launches in the SimCache decides how much
/// simulation runs serially instead of on the pool.
std::vector<std::size_t> Bench::pass_order(std::vector<std::vector<std::size_t>>* inner) {
  std::vector<std::size_t> order(apps_.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  shuffle(order, rng_);
  inner->assign(apps_.size(), {});
  for (std::size_t a = 0; a < apps_.size(); ++a) {
    auto& q = (*inner)[a];
    for (std::size_t i = 0; i < queries_[a].size(); ++i) q.push_back(i);
    if (def_.kind != WorkloadKind::kCsSweep) shuffle(q, rng_);
  }
  return order;
}

void Bench::collect_tiers(const throttle::Runner& r, exec::DiskCache* dc, PassResult& res) {
  res.sim_hits += r.cache().hits();
  res.sim_misses += r.cache().misses();
  if (dc != nullptr) {
    const exec::DiskCache::Counters c = dc->counters();
    res.disk_hits += c.hits;
    res.disk_misses += c.misses;
    res.disk_writes += c.writes;
    res.disk_dropped += c.dropped;
  }
}

void Bench::run_pass(bool traced) {
  PassResult res;
  res.traced = traced;
  std::vector<std::vector<std::size_t>> inner;
  const std::vector<std::size_t> order = pass_order(&inner);

  obs::Registry::Snapshot before;
  if (traced) before = registry_.scrape();
  active_ = traced ? &spans_ : &off_;
  Scope pass_span(*active_, "pass");

  // cs_sweep publishes to a fresh, empty directory every pass.
  const fs::path pass_dir = work_ / "pass_cache";
  fs::remove_all(pass_dir);

  const double w0 = wall_now_ms();
  const double c0 = cpu_now_ms();
  std::unique_ptr<exec::DiskCache> pass_disk;
  std::unique_ptr<throttle::Runner> pass_runner;
  if (def_.kind != WorkloadKind::kWarmReplay) {
    pass_runner = std::make_unique<throttle::Runner>(arch_, &pool_);
    if (traced) pass_runner->sim_options.obs = &sim_obs_;
    if (def_.kind == WorkloadKind::kCsSweep) {
      pass_disk = std::make_unique<exec::DiskCache>(exec::DiskCacheConfig{pass_dir.string()});
      pass_runner->set_disk_cache(pass_disk.get());
    }
  }
  std::set<std::uint64_t> analysed;  // plan keys the pass Runner's PlanService computed

  for (std::size_t a : order) {
    const wl::Workload& w = apps_[a];
    const std::uint64_t misses_before = pass_runner ? pass_runner->cache().misses() : 0;
    for (std::size_t qi : inner[a]) {
      const Query& q = queries_[a][qi];
      if (def_.kind == WorkloadKind::kWarmReplay) {
        // The rerun path: a new process would build a new Runner and open
        // the directory again, so nothing carries over between queries.
        const double q0 = wall_now_ms();
        exec::DiskCache dc(exec::DiskCacheConfig{(work_ / "warm_cache").string()});
        throttle::Runner runner(arch_, &pool_);
        if (traced) runner.sim_options.obs = &sim_obs_;
        runner.set_disk_cache(&dc);
        std::set<std::uint64_t> fresh;
        run_query(runner, q, res, fresh);
        res.latency_ms[q.id] = wall_now_ms() - q0;
        if (runner.cache().misses() > 0) {
          ++res.failed;
          res.failures.push_back(q.id + ": simulated on warm_replay");
        }
        collect_tiers(runner, &dc, res);
      } else {
        run_query(*pass_runner, q, res, analysed);
      }
    }
    if (traced && pass_runner) {
      // workloads layer: builds the app's initial memory image once per run
      // the Runner simulated, as each of those runs did (a simulated run
      // misses once per schedule entry).
      const std::size_t launches = std::max<std::size_t>(1, w.schedule.size());
      const std::uint64_t sims = (pass_runner->cache().misses() - misses_before) / launches;
      Scope s(*active_, "workload.setup:" + w.name);
      for (std::uint64_t i = 0; i < sims; ++i) {
        sim::DeviceMemory mem;
        w.setup(mem);
      }
    }
  }
  if (pass_runner) collect_tiers(*pass_runner, pass_disk.get(), res);
  res.wall_ms = wall_now_ms() - w0;
  res.cpu_ms = cpu_now_ms() - c0;
  if (pass_runner) res.latency_ms["pass"] = res.wall_ms;

  if (pass_disk) res.disk_bytes = pass_disk->size_bytes();
  if (def_.kind == WorkloadKind::kWarmReplay) res.disk_bytes = fill_bytes_;
  pass_runner.reset();
  pass_disk.reset();
  fs::remove_all(pass_dir);

  if (traced) {
    const obs::Registry::Snapshot after = registry_.scrape();
    for (const char* name : kSimCounters) {
      res.sim_counters[name] = after.counter_or(name) - before.counter_or(name);
    }
  }
  passes_.push_back(std::move(res));
}

std::vector<analysis::KernelAnalysis> Bench::probe_analysis(throttle::Runner& runner,
                                                            const wl::Workload& w, Kind kind,
                                                            std::set<std::uint64_t>& analysed,
                                                            PassResult& res) {
  std::vector<analysis::KernelAnalysis> kas;
  if (!active_->enabled() || kind == Kind::kBaseline) return kas;
  // Called on the Runner's own PlanService, the analysis is computed here
  // and memoized, so the Runner call that follows reuses it: the span moves
  // the work out of Runner::run instead of repeating it.
  Scope s(*active_, "plan.analysis_for");
  exec::PlanService& plans = runner.plan_service();
  for (const auto& entry : w.schedule) {
    const ir::Kernel& k = w.kernel(entry.kernel);
    if (analysed.insert(plans.plan_key(k, entry.launch, entry.params)).second) ++res.analyses;
    kas.push_back(plans.analysis_for(k, entry.launch, entry.params));
  }
  return kas;
}

/// Largest divisor of `warps` that is <= n (the Runner's clamp for Fixed).
int clamp_divisor(int warps, int n) {
  n = std::min(n, warps);
  while (n > 1 && warps % n != 0) --n;
  return std::max(1, n);
}

/// Applies the transforms the query's Runner call applies internally, to
/// estimate the transform layer's time. CATT goes through xform::apply_plan,
/// as make_catt_plan does; a Fixed factor goes through apply_warp_throttle and
/// apply_tb_throttle exactly as make_fixed_plan in src/throttle/runner.cpp
/// does, and this probe must mirror that function. It repeats work the Runner
/// also does, so its span sits outside the query span and the attribution
/// subtracts it from the Runner's share.
void Bench::probe_transform(const wl::Workload& w, const Query& q,
                            const std::vector<analysis::KernelAnalysis>& kas,
                            const std::vector<throttle::FixedFactor>& factors, PassResult& res) {
  if (kas.empty()) return;
  Scope s(*active_, "xform.apply_plan", q.id);
  for (std::size_t i = 0; i < w.schedule.size(); ++i) {
    const wl::KernelRun& entry = w.schedule[i];
    const ir::Kernel& k = w.kernel(entry.kernel);
    const analysis::KernelAnalysis& ka = kas[i];
    if (q.kind == Kind::kCatt || q.kind == Kind::kAdaptive) {
      res.split_loops += static_cast<std::uint64_t>(
          xform::apply_plan(arch_, k, entry.launch, ka.plan).warp_split_loops);
      continue;
    }
    const occupancy::Occupancy occ = occupancy::compute(arch_, k, entry.launch);
    const auto loops = ir::collect_loops(k);
    for (const throttle::FixedFactor& f : factors) {
      const int n = clamp_divisor(occ.warps_per_tb, f.n_divisor);
      ir::Kernel out = k.clone();
      if (n > 1) {
        std::vector<int> ids;
        for (const auto& loop : ka.loops) {
          if (!loop.top_level) continue;
          if (ir::contains_sync(*loops[static_cast<std::size_t>(loop.loop_id)])) continue;
          ids.push_back(loop.loop_id);
        }
        std::sort(ids.rbegin(), ids.rend());
        for (int id : ids) {
          out = xform::apply_warp_throttle(out, entry.launch, id, n, arch_.warp_size);
        }
        res.split_loops += ids.size();
      }
      if (f.tb_limit > 0 && f.tb_limit < occ.tbs_per_sm) {
        out = xform::apply_tb_throttle(arch_, out, entry.launch, f.tb_limit);
      }
    }
  }
}

void Bench::run_query(throttle::Runner& runner, const Query& q, PassResult& res,
                      std::set<std::uint64_t>& analysed) {
  const wl::Workload& w = apps_[q.app];
  ++res.attempted;
  std::vector<analysis::KernelAnalysis> kas;
  try {
    throttle::AppResult result;
    std::string digest;
    {
      Scope query_span(*active_, std::string("query:") + kind_name(q.kind), q.id);
      kas = probe_analysis(runner, w, q.kind, analysed, res);
      if (q.kind == Kind::kBfttSweep) {
        Scope s(*active_, "throttle.bftt_sweep");
        throttle::Runner::BfttOutcome o = runner.bftt_sweep(w);
        digest = digest_of(o.best, &o);
        res.bftt_candidates += o.sweep.size();
        res.bftt_unique += o.unique_runs;
        result = std::move(o.best);
      } else {
        Scope s(*active_, "throttle.run");
        result = runner.run(w, policy_of(q));
        digest = digest_of(result, nullptr);
      }
    }
    if (active_->enabled()) {
      const std::vector<throttle::FixedFactor> one = {q.factor};
      probe_transform(w, q, kas, q.kind == Kind::kBfttSweep ? candidates_[q.app] : one, res);
    }

    AppCycles& c = res.cycles[w.name];
    switch (q.kind) {
      case Kind::kBaseline: c.baseline = result.total_cycles; break;
      case Kind::kCatt: c.catt = result.total_cycles; break;
      case Kind::kBfttSweep:
      case Kind::kFixed:
        // Strict '<' keeps the first minimum, as the BFTT sweep does.
        if (c.best_fixed == 0 || result.total_cycles < c.best_fixed) {
          c.best_fixed = result.total_cycles;
          c.best_fixed_l1 = {};
          c.best_fixed_l1.add(result);
        }
        break;
      case Kind::kAdaptive: break;
    }
    res.l1_by_policy[kind_name(q.kind)].add(result);
    res.sim_cycles += result.total_cycles;
    for (const auto& k : result.launches) res.dram_lines += k.dram_lines;

    if (!opt_.record.empty()) {
      records_.push_back(std::string(def_.name) + ' ' + q.id + ' ' + digest + ' ' +
                         std::to_string(result.total_cycles));
      return;
    }
    const auto it = ref_.find(std::string(def_.name) + ' ' + q.id);
    if (it == ref_.end()) {
      ++res.failed;
      res.failures.push_back(q.id + ": no reference digest");
    } else if (it->second.digest != digest) {
      ++res.failed;
      res.failures.push_back(q.id + ": digest " + digest + " != reference " + it->second.digest +
                            " (cycles " + std::to_string(result.total_cycles) + " vs " +
                            std::to_string(it->second.cycles) + ")");
    }
  } catch (const std::exception& e) {
    ++res.failed;
    res.failures.push_back(q.id + ": threw " + e.what());
  }
}

void Bench::run_passes() {
  // Passes run until the next one would end past the budget. The
  // simulation workloads always run two: their first pass is slower (the
  // allocator's arenas and the page tables are still growing) and peak
  // memory grows with the pass count, so a fixed count keeps runs
  // comparable. A traced run alternates plain and traced passes, so both see
  // the same machine conditions, and stops after kMaxTracedPasses traced
  // ones so the span log stays small.
  const double budget_ms = opt_.seconds * 1e3;
  const double t0 = wall_now_ms();
  const std::size_t min_passes = opt_.trace || def_.kind != WorkloadKind::kWarmReplay ? 2 : 1;
  if (!opt_.record.empty()) {
    run_pass(false);
    return;
  }
  double last_build = t0;
  while (true) {
    run_pass(opt_.trace && passes_.size() % 2 == 1);
    if (wall_now_ms() - last_build >= kBuildGapMs) {
      build_workloads(kBuildBatchMs);
      last_build = wall_now_ms();
    }
    const double elapsed = wall_now_ms() - t0;
    if (passes_.size() >= min_passes && elapsed + passes_.back().wall_ms > budget_ms) break;
    if (opt_.trace && passes_.size() >= 2 * kMaxTracedPasses) break;
  }
}

// ---------------------------------------------------------------------------
// Metrics

/// Set-up seconds: the median workload construction (see kBuildBatchMs) plus
/// warm_replay's cold fill.
double Bench::setup_s() const {
  return (median(durations_ms(spans_, "workloads.build")) + spans_.wall_ms("exec.cold_fill")) /
         1e3;
}

/// Every pass timing is the best over the run's repetitions of the same
/// work: on a shared host, phases that slow every thread by up to 70% for
/// tens of seconds move a median across consecutive runs, while the best
/// repetition tracks the program's own cost.
std::map<std::string, double> Bench::end_to_end_metrics() const {
  double wall = 0.0, cpu = 0.0;
  std::map<std::string, double> best;  // request id -> best latency
  for (const auto& p : passes_) {
    if (p.traced) continue;
    wall = wall == 0.0 ? p.wall_ms : std::min(wall, p.wall_ms);
    cpu = cpu == 0.0 ? p.cpu_ms : std::min(cpu, p.cpu_ms);
    for (const auto& [id, ms] : p.latency_ms) {
      const auto [it, fresh] = best.try_emplace(id, ms);
      if (!fresh) it->second = std::min(it->second, ms);
    }
  }
  std::vector<double> qms;
  for (const auto& [id, ms] : best) qms.push_back(ms);
  std::vector<double> speedup, over_bftt;
  for (const auto& [app, c] : passes_.front().cycles) {
    if (c.catt <= 0) continue;
    speedup.push_back(ratio(static_cast<double>(c.baseline), static_cast<double>(c.catt)));
    over_bftt.push_back(ratio(static_cast<double>(c.best_fixed), static_cast<double>(c.catt)));
  }
  return {
      {"setup_s", setup_s()},
      {"wall_s", wall / 1e3},
      {"cpu_s", cpu / 1e3},
      {"peak_rss_mb", peak_rss_mb()},
      {"query_ms_p50", percentile(qms, 50)},
      {"query_ms_p99", percentile(qms, 99)},
      {"catt_speedup", geomean(speedup)},
      {"catt_over_bftt", geomean(over_bftt)},
  };
}

std::map<std::string, double> Bench::per_layer_metrics() const {
  std::vector<const PassResult*> traced;
  std::vector<double> plain_wall, plain_cpu, traced_wall;
  for (const auto& p : passes_) {
    if (p.traced) {
      traced.push_back(&p);
      traced_wall.push_back(p.wall_ms);
    } else {
      plain_wall.push_back(p.wall_ms);
      plain_cpu.push_back(p.cpu_ms);
    }
  }
  const double n = std::max<double>(1.0, static_cast<double>(traced.size()));
  auto avg = [&](const std::function<double(const PassResult&)>& f) {
    double s = 0.0;
    for (const PassResult* p : traced) s += f(*p);
    return s / n;
  };
  auto sim = [&](const char* name) {
    return avg([&](const PassResult& p) {
      const auto it = p.sim_counters.find(name);
      return it == p.sim_counters.end() ? 0.0 : static_cast<double>(it->second);
    });
  };
  // Layer times: span durations summed by name, per traced pass (the only
  // passes that record spans); set-up spans are per run.
  auto pass_ms = [&](const std::string& span) { return spans_.wall_ms(span) / n; };
  std::map<std::string, double> m;
  m["frontend.parse_ms"] = spans_.wall_ms("frontend.parse_program");
  m["workloads.build_ms"] = median(durations_ms(spans_, "workloads.build"));
  m["workloads.mem_init_ms"] = pass_ms("workload.setup");
  m["catt.analyze_ms"] = pass_ms("plan.analysis_for");
  m["catt.analyses"] = avg([](const PassResult& p) { return static_cast<double>(p.analyses); });
  m["transform.apply_ms"] = pass_ms("xform.apply_plan");
  m["transform.split_loops"] =
      avg([](const PassResult& p) { return static_cast<double>(p.split_loops); });
  for (Kind k : {Kind::kBaseline, Kind::kCatt, Kind::kFixed, Kind::kAdaptive, Kind::kBfttSweep}) {
    const std::string name = kind_name(k);
    m["throttle.query_ms." + name] = pass_ms("query:" + name);
  }
  m["throttle.bftt.unique_frac"] =
      avg([](const PassResult& p) { return ratio(p.bftt_unique, p.bftt_candidates); });

  auto count = [&](std::uint64_t PassResult::*field) {
    return avg([&](const PassResult& p) { return static_cast<double>(p.*field); });
  };
  m["exec.simcache.hits"] = count(&PassResult::sim_hits);
  m["exec.simcache.misses"] = count(&PassResult::sim_misses);
  m["exec.diskcache.hits"] = count(&PassResult::disk_hits);
  m["exec.diskcache.misses"] = count(&PassResult::disk_misses);
  m["exec.diskcache.writes"] = count(&PassResult::disk_writes);
  m["exec.diskcache.dropped"] = count(&PassResult::disk_dropped);
  m["exec.diskcache.bytes"] = count(&PassResult::disk_bytes);
  m["exec.pool.busy_frac"] =
      ratio(best_of(plain_cpu), best_of(plain_wall) * static_cast<double>(pool_.size()));

  const double gen_us = sim("sim.trace_gen_us");
  const double total_us = sim("sim.total_us");
  const double rendered = sim("sim.tracegen.warps_rendered");
  const double executed = sim("sim.tracegen.warps_executed");
  const double issued = sim("sim.warps_issued");
  m["gpusim.trace_gen_ms"] = gen_us / 1e3;
  m["gpusim.warps_executed"] = executed;
  m["gpusim.warps_rendered"] = rendered;
  m["gpusim.render_frac"] = ratio(rendered, rendered + executed);
  m["gpusim.trace_gen_us_per_warp"] = ratio(gen_us, rendered + executed);
  m["gpusim.timing_ms"] = (total_us - gen_us) / 1e3;
  m["gpusim.launches"] = sim("sim.gpu.launches");
  m["gpusim.warps_issued"] = issued;
  m["gpusim.queue_pops"] = sim("sim.queue_pops");
  m["gpusim.timing_ns_per_winst"] = ratio((total_us - gen_us) * 1e3, issued);

  const PassResult& first = traced.empty() ? passes_.front() : *traced.front();
  m["gpusim.sim_cycles"] = static_cast<double>(first.sim_cycles);
  m["gpusim.dram_lines"] = static_cast<double>(first.dram_lines);
  auto l1 = [&](const char* policy) {
    const auto it = first.l1_by_policy.find(policy);
    return it == first.l1_by_policy.end() ? 0.0 : it->second.rate();
  };
  m["gpusim.l1_hit_rate.baseline"] = l1("baseline");
  m["gpusim.l1_hit_rate.catt"] = l1("catt");
  m["gpusim.l1_hit_rate.catt_adaptive"] = l1("catt_adaptive");
  m["gpusim.l1_hit_rate.fixed"] = l1("fixed");
  L1Acc best;
  for (const auto& [app, c] : first.cycles) {
    best.hits += c.best_fixed_l1.hits;
    best.accesses += c.best_fixed_l1.accesses;
  }
  m["gpusim.l1_hit_rate.bftt_best"] = best.rate();

  m["policy.decisions"] = sim("sim.policy.decisions");
  m["policy.throttles"] = sim("sim.policy.throttles");
  m["policy.relaxes"] = sim("sim.policy.relaxes");

  m["obs.overhead_frac"] = ratio(best_of(traced_wall), best_of(plain_wall)) - 1.0;

  // Attribution of query CPU time (every thread: the BFTT sweep runs on the
  // pool) to the layers. Analysis and the simulator's split are measured
  // inside the queries; the transform and memory-image probes estimate work
  // the Runner does internally; the rest is unattributed (plan keys, cache
  // tiers, disk IO and decoding, result assembly).
  const double query_cpu = spans_.cpu_ms("query") / n;
  const double parts[] = {m["catt.analyze_ms"], m["transform.apply_ms"],
                          m["workloads.mem_init_ms"], m["gpusim.trace_gen_ms"],
                          m["gpusim.timing_ms"]};
  double attributed = 0.0;
  for (double p : parts) attributed += p;
  m["attr.query_cpu_ms"] = query_cpu;
  m["attr.catt_frac"] = ratio(parts[0], query_cpu);
  m["attr.transform_frac"] = ratio(parts[1], query_cpu);
  m["attr.mem_init_frac"] = ratio(parts[2], query_cpu);
  m["attr.trace_gen_frac"] = ratio(parts[3], query_cpu);
  m["attr.timing_frac"] = ratio(parts[4], query_cpu);
  m["attr.unattributed_frac"] = ratio(query_cpu - attributed, query_cpu);
  return m;
}

std::string unit_of(const std::string& metric) {
  static const std::vector<std::pair<std::string, std::string>> kSuffix = {
      {"_ms", "ms"},        {"_s", "s"},          {"_frac", "frac"},
      {"_mb", "MB"},        {".bytes", "bytes"},  {"_us_per_warp", "us/warp"},
      {"_ns_per_winst", "ns/winst"}, {"sim_cycles", "cycles"}};
  if (metric.rfind("gpusim.l1_hit_rate.", 0) == 0) return "frac";
  if (metric.rfind("throttle.query_ms.", 0) == 0) return "ms";
  if (metric == "catt_speedup" || metric == "catt_over_bftt") return "x";
  if (metric == "query_ms_p50" || metric == "query_ms_p99") return "ms";
  for (const auto& [suffix, unit] : kSuffix) {
    if (metric.size() >= suffix.size() &&
        metric.compare(metric.size() - suffix.size(), suffix.size(), suffix) == 0) {
      return unit;
    }
  }
  return "count";
}

constexpr double kPaperCatt = 1.4296;  // Fig. 7 CS-group geomean, CATT
constexpr double kPaperBftt = 1.3119;  // Fig. 7 CS-group geomean, BFTT

/// The paper's Fig. 7 geomeans beside this run's simulated values. The 10-app
/// figure takes CORR from the vm_tracegen reference (cs_sweep leaves it out).
void Bench::print_paper_reference(const PassResult& res) const {
  if (def_.kind == WorkloadKind::kVmTracegen) {
    for (const auto& [app, c] : res.cycles) {
      if (app == "corr") continue;
      std::printf("paper  %s catt_speedup %.4fx (irregular group: unvalidated, no paper number)\n",
                  app.c_str(), ratio(static_cast<double>(c.baseline), static_cast<double>(c.catt)));
    }
  }
  if (res.cycles.size() != kCsApps.size()) return;
  std::vector<double> catt, bftt;
  for (const auto& [app, c] : res.cycles) {
    catt.push_back(ratio(static_cast<double>(c.baseline), static_cast<double>(c.catt)));
    bftt.push_back(ratio(static_cast<double>(c.baseline), static_cast<double>(c.best_fixed)));
  }
  const auto base = ref_.find("vm_tracegen corr/baseline");
  const auto corr_catt = ref_.find("vm_tracegen corr/catt");
  std::int64_t corr_best = 0;
  for (const auto& [key, e] : ref_) {
    if (key.rfind("vm_tracegen corr/fixed[", 0) == 0 && (corr_best == 0 || e.cycles < corr_best)) {
      corr_best = e.cycles;
    }
  }
  if (base == ref_.end() || corr_catt == ref_.end() || corr_best == 0) return;
  catt.push_back(ratio(static_cast<double>(base->second.cycles),
                       static_cast<double>(corr_catt->second.cycles)));
  bftt.push_back(ratio(static_cast<double>(base->second.cycles), static_cast<double>(corr_best)));
  const double g_catt = geomean(catt);
  const double g_bftt = geomean(bftt);
  std::printf("paper  10-app CS geomean catt_speedup %.4fx vs paper %.4fx (error %+.2f%%)\n",
              g_catt, kPaperCatt, 100.0 * (g_catt / kPaperCatt - 1.0));
  std::printf("paper  10-app CS geomean bftt_speedup %.4fx vs paper %.4fx (error %+.2f%%)\n",
              g_bftt, kPaperBftt, 100.0 * (g_bftt / kPaperBftt - 1.0));
  std::printf("paper  10-app catt/bftt %.4fx vs paper %.4fx (error %+.2f%%)\n", g_catt / g_bftt,
              kPaperCatt / kPaperBftt, 100.0 * (g_catt / g_bftt / (kPaperCatt / kPaperBftt) - 1.0));
}

void Bench::print_attribution(const std::map<std::string, double>& m) const {
  std::printf("layers query CPU %.1f ms per traced pass:\n", m.at("attr.query_cpu_ms"));
  const std::pair<const char*, const char*> rows[] = {
      {"catt (analysis_for spans)", "attr.catt_frac"},
      {"transform (apply_plan probe)", "attr.transform_frac"},
      {"workloads (memory-image probe)", "attr.mem_init_frac"},
      {"gpusim trace-gen", "attr.trace_gen_frac"},
      {"gpusim timing", "attr.timing_frac"},
      {"unattributed", "attr.unattributed_frac"}};
  for (const auto& [label, key] : rows) {
    std::printf("layers   %-32s %6.1f%%\n", label, 100.0 * m.at(key));
  }
  std::printf("layers obs.overhead_frac %+.3f (traced vs plain pass wall)\n",
              m.at("obs.overhead_frac"));
}

int Bench::report() {
  int attempted = 0;
  int failed = fill_failed_;
  int plain_passes = 0;
  for (const auto& p : passes_) {
    attempted += p.attempted;
    failed += p.failed;
    plain_passes += p.traced ? 0 : 1;
    for (const auto& f : p.failures) std::fprintf(stderr, "perfbench: FAILED %s\n", f.c_str());
  }
  if (parse_failures_ > 0) {
    std::fprintf(stderr, "perfbench: %zu app sources did not parse back\n", parse_failures_);
    failed += static_cast<int>(parse_failures_);
  }

  if (!opt_.record.empty()) {
    std::ofstream f(opt_.record, std::ios::app);
    for (const auto& line : records_) f << line << "\n";
    if (!f) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", opt_.record.c_str());
      return 1;
    }
  }

  std::map<std::string, double> metrics;
  if (opt_.trace) {
    metrics = per_layer_metrics();
    print_attribution(metrics);
    std::string nest = spans_.nesting_error();
    if (nest.empty() && spans_.named("query").empty()) nest = "no query spans recorded";
    if (!nest.empty()) {
      std::fprintf(stderr, "perfbench: span log broken: %s\n", nest.c_str());
      ++failed;
    }
    const fs::path out = fs::path(opt_.work_dir) / ("spans-" + std::string(def_.name) + "-seed" +
                                                    std::to_string(opt_.seed) + ".json");
    if (!spans_.write_json(out.string())) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", out.string().c_str());
      ++failed;
    } else {
      std::printf("spans  %zu written to %s\n", spans_.all().size(), out.string().c_str());
    }
  } else {
    metrics = end_to_end_metrics();
    const std::size_t requests = passes_.front().latency_ms.size();
    std::printf("query  latency samples=%zu, each the best of %d passes "
                "(%s; p99 has %d beyond it)\n",
                requests, plain_passes,
                def_.kind == WorkloadKind::kWarmReplay ? "one per Runner::run call"
                                                       : "one request per pass: the whole figure",
                static_cast<int>(requests) - static_cast<int>(std::ceil(0.99 * requests)));
  }
  print_paper_reference(passes_.front());

  for (const auto& [name, value] : metrics) {
    std::printf("metric %-34s %.6g %s\n", name.c_str(), value, unit_of(name).c_str());
  }
  std::printf("passes");
  for (const auto& p : passes_) {
    std::printf(" %s%.3fs/%.3fs", p.traced ? "traced:" : "", p.wall_ms / 1e3, p.cpu_ms / 1e3);
  }
  std::printf(" (wall/cpu)\n");
  std::printf("result passes=%zu attempted=%d failed=%d error_rate=%.6g\n", passes_.size(),
              attempted, failed, ratio(failed, attempted));

  std::string json = "{\"correct\": " + std::string(failed == 0 ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(std::max(attempted, 1)) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  bool first = true;
  char buf[64];
  for (const auto& [name, value] : metrics) {
    std::snprintf(buf, sizeof buf, "%.17g", value);
    json += std::string(first ? "" : ", ") + "\"" + name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + unit_of(name) + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  pin_environment();
  const Options opt = parse_args(argc, argv);
  const auto def = std::find_if(kWorkloads.begin(), kWorkloads.end(),
                                [&](const WorkloadDef& d) { return opt.workload == d.name; });
  if (def == kWorkloads.end()) usage("unknown workload " + opt.workload);

  const int cores = host_cores();
  if (!opt.fill_cache.empty()) {
    // The cold-fill child of a warm_replay run; it dies with its parent.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    try {
      exec::Pool pool(cores);
      Bench bench(opt, *def, pool);
      bench.build_workloads(0.0);
      return bench.fill_cache(opt.fill_cache) == 0 ? 0 : 1;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: cold fill: %s\n", e.what());
      return 1;
    }
  }
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n", def->name,
              static_cast<unsigned long long>(opt.seed), opt.seconds, opt.trace ? 1 : 0);
  std::printf("provenance host_cores=%d pool_threads=%d commit=%s build_type=%s "
              "compiler=\"%s\"%s\n",
              cores, cores, opt.commit.c_str(), build_type.c_str(), PERFBENCH_COMPILER,
              build_type == "Release" ? "" : " WARNING=not-a-Release-build");
  std::fflush(stdout);
  try {
    exec::Pool pool(cores);
    Bench bench(opt, *def, pool);
    bench.setup();
    bench.run_passes();
    return bench.report();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
