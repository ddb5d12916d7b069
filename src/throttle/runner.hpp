// Throttling policies and the application runner used by every experiment.
//
// A policy describes *what to run*:
//
//   * Baseline — the unmodified kernels at maximum occupancy.
//   * Catt     — the paper's contribution: static analysis picks per-loop
//                (N, M); the source transform applies them.
//   * Fixed    — one (N, tb-limit) applied to every loop of every kernel,
//                via the same source transforms.
//   * Dyncta   — DYNCTA-style reactive TB capping (no code changes).
//   * Bftt     — best-fixed thread throttling (the paper's Best-SWL-style
//                baseline): exhaustively simulates every fixed factor and
//                keeps the fastest.
//   * Adaptive — CATT's static plan plus the runtime policy engine: the
//                transformed kernels run under the "adaptive" scheduler
//                policy, which corrects the static prior from observed
//                per-interval L1D behaviour (see src/policy/engine.hpp).
//
// Runner::run(workload, policy) is the single entry point. Execution goes
// through the exec:: engine: candidate simulations fan out across a thread
// pool and every per-launch result is memoized in a content-addressed
// SimCache (backed by an optional on-disk DiskCache), so repeated
// configurations (clamped duplicate factors, the baseline inside a sweep,
// CATT on untransformed workloads) are simulated exactly once per Runner.
// Results are bit-identical to serial execution.
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "arch/gpu_arch.hpp"
#include "catt/analysis.hpp"
#include "exec/disk_cache.hpp"
#include "exec/plan_service.hpp"
#include "exec/pool.hpp"
#include "exec/sim_cache.hpp"
#include "gpusim/gpu.hpp"
#include "workloads/workload.hpp"

namespace catt::throttle {

/// The TLP chosen for one loop of one kernel, in the paper's
/// "(#warps_TB, #TBs)" notation (Table 3 cells).
struct LoopTlp {
  int loop_id = -1;
  int warps = 0;  // active warps per TB inside the loop
  int tbs = 0;    // resident TBs per SM
  bool unresolvable = false;
};

struct KernelChoice {
  std::string kernel;
  occupancy::Occupancy baseline_occ;
  std::vector<LoopTlp> loops;
};

struct AppResult {
  std::string workload;
  /// Policy::label() of the policy that produced this result (BFTT winners
  /// carry the winning factor: "bftt[N=2,TB<=3]").
  std::string policy;
  /// One entry per schedule item (repeats accumulated into it).
  std::vector<sim::KernelStats> launches;
  std::vector<KernelChoice> choices;
  std::int64_t total_cycles = 0;

  /// Access-weighted L1D hit rate over the whole application.
  double l1_hit_rate() const;
};

/// A fixed throttling factor: divide each TB's active warps by n_divisor
/// (clamped per kernel to a legal divisor) and cap resident TBs at
/// tb_limit (0 = uncapped).
struct FixedFactor {
  int n_divisor = 1;
  int tb_limit = 0;

  std::string str() const;
};

// --- policy alternatives ---

struct Baseline {};

struct Catt {
  analysis::AnalysisOptions opts{};
};

struct Fixed {
  FixedFactor factor{};
};

/// DYNCTA-style *dynamic* thread throttling (Kayiran et al., the class of
/// scheme Section 2.2 argues against): no code changes; the resident TB cap
/// is adjusted reactively between launches based on the L1D hit rate
/// observed in the previous launch. It needs warm-up launches to converge
/// and reacts one phase late on multi-phase apps — exactly the weakness
/// CATT's compile-time per-loop decisions avoid.
struct Dyncta {
  double low_hit = 0.60;
  double high_hit = 0.90;
};

/// Exhaustive best-fixed search; run() returns the winner's AppResult.
/// Use Runner::bftt_sweep for the full per-candidate sweep (Figure 9).
struct Bftt {};

/// CATT's static plan with the adaptive policy engine closing the loop at
/// runtime: the same transformed kernels as Catt, simulated under
/// sched=adaptive. The static plan is the controller's prior; the
/// controller can only throttle *below* it (and relax back), so a window
/// of 0 degenerates to Catt exactly. `sched.kind` must be kAdaptive.
struct Adaptive {
  sim::sched::PolicyConfig sched = sim::sched::PolicyConfig::parse("adaptive");
  analysis::AnalysisOptions opts{};
};

/// Sum type over the six alternatives, with the canonical result label.
class Policy {
 public:
  using Variant = std::variant<Baseline, Catt, Fixed, Dyncta, Bftt, Adaptive>;

  Policy(Baseline p) : v_(p) {}
  Policy(Catt p) : v_(std::move(p)) {}
  Policy(Fixed p) : v_(p) {}
  Policy(Dyncta p) : v_(p) {}
  Policy(Bftt p) : v_(p) {}
  Policy(Adaptive p) : v_(std::move(p)) {}

  /// "baseline", "catt", "fixed[N=2,TB<=3]", "dyncta", "bftt", or
  /// "catt+adaptive".
  std::string label() const;

  const Variant& variant() const { return v_; }

  template <typename T>
  const T* get_if() const {
    return std::get_if<T>(&v_);
  }

 private:
  Variant v_;
};

class Runner {
 public:
  /// `pool` is the thread pool sweeps fan out on; defaults to the
  /// process-wide exec::Pool::shared() (sized by CATT_JOBS, see DESIGN.md).
  explicit Runner(arch::GpuArch gpu_arch, exec::Pool* pool = nullptr);

  /// Runs `w` under `policy`. The single run entry point.
  AppResult run(const wl::Workload& w, const Policy& policy);

  /// Static analysis only (no simulation): the choices CATT would make.
  std::vector<KernelChoice> catt_choices(const wl::Workload& w,
                                         const analysis::AnalysisOptions& opts = {}) const;

  /// Candidate fixed factors for a workload: every legal warp divisor
  /// crossed with every TB cap up to the baseline occupancy.
  std::vector<FixedFactor> candidate_factors(const wl::Workload& w) const;

  struct BfttOutcome {
    AppResult best;
    FixedFactor factor;
    /// (factor, total cycles) for every candidate — Figure 9's sweep.
    /// Candidate order is identical to candidate_factors(); parallel
    /// execution cannot reorder it (results are keyed by candidate index).
    std::vector<std::pair<FixedFactor, std::int64_t>> sweep;
    /// Distinct simulation plans among the candidates: duplicates (factors
    /// that clamp to the same per-kernel transforms) are simulated once.
    std::size_t unique_runs = 0;
  };

  /// The full BFTT sweep: every candidate factor, fanned out across the
  /// pool, deduplicated through the SimCache.
  BfttOutcome bftt_sweep(const wl::Workload& w);

  const arch::GpuArch& gpu_arch() const { return arch_; }

  /// Per-Runner memoization of launch simulations (hit/miss counters are
  /// exposed for tests and capacity planning). This is the in-process tier
  /// in front of the optional disk cache.
  const exec::SimCache& cache() const { return cache_; }
  exec::SimCache& cache() { return cache_; }

  /// Attaches the shared persistent tier behind the SimCache (null
  /// detaches): launch stats are read from and published to it. CATT
  /// analyses stay in the in-memory PlanService. The caller keeps
  /// ownership; the DiskCache must outlive the Runner.
  void set_disk_cache(exec::DiskCache* disk) { disk_ = disk; }

  /// The CATT analysis memo (in memory, never simulating).
  exec::PlanService& plan_service() const { return plans_; }

  /// Forwarded to every simulation (e.g. request-trace collection).
  /// Changing it changes the cache key, so stale reuse cannot occur.
  sim::SimOptions sim_options;

 private:
  AppResult run_dyncta_impl(const wl::Workload& w, const Dyncta& p);

  arch::GpuArch arch_;
  exec::Pool* pool_;
  exec::SimCache cache_;
  exec::DiskCache* disk_ = nullptr;
  mutable exec::PlanService plans_{arch_};
};

}  // namespace catt::throttle
