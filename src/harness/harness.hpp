// Experiment harness shared by the bench binaries: standard machine
// configurations, the baseline/BFTT/CATT comparison each figure needs,
// and uniform labeling/formatting of results.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "arch/gpu_arch.hpp"
#include "common/table.hpp"
#include "exec/disk_cache.hpp"
#include "throttle/runner.hpp"
#include "workloads/workload.hpp"

namespace catt::bench {

/// Number of simulated SMs used by all experiments (per-SM contention is
/// what matters; see DESIGN.md "Simulator scaling").
inline constexpr int kNumSms = 2;

/// Paper Section 5 machine: Volta with the L1D/shared split maximized.
arch::GpuArch max_l1d_arch();

/// Figure 10 machine: the L1D capped at 32 KB.
arch::GpuArch small_l1d_arch();

/// Label like "ATAX#1" for the i-th schedule entry of a workload (kernels
/// are numbered by first appearance in the schedule, as in the paper).
std::string kernel_label(const wl::Workload& w, std::size_t schedule_index);

/// Baseline + BFTT + CATT on one workload under one machine.
struct Comparison {
  throttle::AppResult baseline;
  throttle::Runner::BfttOutcome bftt;
  throttle::AppResult catt;

  double bftt_speedup() const;
  double catt_speedup() const;
};

/// Baseline + BFTT + CATT under one Runner. The baseline's launch
/// simulations are shared through the Runner's SimCache: BFTT's identity
/// candidate (N=1, uncapped) and CATT on untransformed workloads reuse
/// them instead of re-simulating.
Comparison compare(throttle::Runner& runner, const wl::Workload& w);

/// Speedup of `cycles` relative to `baseline_cycles` (>1 = faster).
double speedup(std::int64_t baseline_cycles, std::int64_t cycles);

/// Result of write_result_file: `ok` plus the resolved path, and a
/// diagnostic message when the write failed. Truthy on success, so callers
/// can `if (auto st = write_result_file(...); !st) ...` (an expected-style
/// status instead of warn-and-swallow).
struct WriteStatus {
  bool ok = false;
  std::string path;
  std::string message;

  explicit operator bool() const { return ok; }
};

/// Writes `content` to <dir>/<name>, creating the directory if needed.
/// `dir` is the CATT_RESULTS_DIR environment variable when set and
/// non-empty, else "results" under the current directory. Never throws;
/// failures are reported in the returned status (benches should not die on
/// a read-only filesystem, but CI must be able to see — and redirect —
/// where results go).
WriteStatus write_result_file(const std::string& name, const std::string& content);

/// Bench-main epilogue: logs a failed write to stderr and maps it to a
/// nonzero process exit, so a full disk or unwritable CATT_RESULTS_DIR
/// fails CI instead of silently yielding truncated CSVs. Combine multiple
/// writes with `rc |= exit_status(...)`.
int exit_status(const WriteStatus& st);

/// Parses the shared scheduler-policy flag `--sched=SPEC` (else the
/// CATT_SCHED environment variable, else "none") for benches to assign to
/// Runner::sim_options.sched. Spec syntax: see sched::PolicyConfig::parse.
/// Exits with a diagnostic on a malformed spec.
sim::sched::PolicyConfig sched_from_args(int argc, char** argv);

/// One column of a multi-policy comparison bench (fig_dynamic_compare):
/// what to run and the scheduler policy to install on the Runner's
/// SimOptions while running it (runtime schemes ride on baseline code;
/// static/hybrid schemes carry their own configuration in `policy`).
struct PolicyColumn {
  std::string label;  // the spec token, used as the column header
  throttle::Policy policy;
  sim::sched::PolicyConfig sched;
};

/// Parses the shared policy-list flag `--policies=a+b+...` (else the
/// CATT_POLICIES environment variable, else `fallback`). Tokens are
/// '+'-separated — ',' belongs to each token's own knob syntax — and each
/// token is a SpecParser spec:
///
///   baseline             unmodified code, default scheduler
///   ccws[:key=v,...]     baseline code under the CCWS scheduler policy
///   dyncta[:key=v,...]   baseline code under the DYNCTA scheduler policy
///   catt                 CATT static transform, default scheduler
///   adaptive[:key=v,...] CATT static transform + adaptive scheduler
///   bftt                 best-fixed sweep winner
///   fixed:n=N[,tb=M]     one fixed throttling factor
///
/// Exits 2 on a malformed spec or an empty list (matching --sched=).
std::vector<PolicyColumn> policies_from_args(int argc, char** argv,
                                             const std::string& fallback);

/// Parses the shared disk-cache flag `--cache=SPEC` (else the
/// CATT_CACHE_DIR environment variable as a plain directory path, else
/// caching off). Spec syntax, via harness::SpecParser:
///
///   none                                     caching off
///   dir:path=DIR[,evict=lru|none][,max_mb=N] disk cache rooted at DIR
///
/// Returns null when caching is off; otherwise the opened cache, to hand
/// to Runner::set_disk_cache(). Exits 2 on a malformed spec (matching
/// --sched= semantics).
std::shared_ptr<exec::DiskCache> cache_from_args(int argc, char** argv);

/// RAII observability session for bench main()s. Parses `--trace-out=PATH`
/// (or the CATT_TRACE_OUT environment variable) and raises the CATT_TRACE
/// floor to 1 when a path is given, so asking for a trace file implies
/// coarse tracing. At destruction — i.e. after the bench body ran — it
/// exports the Chrome trace JSON (to the explicit path, else to
/// `<bench>_trace.json` next to the result CSVs) and dumps the metrics
/// registry as `[obs]` stderr lines. A no-op when no obs knob is set.
class ObsSession {
 public:
  ObsSession(int argc, char** argv, std::string bench_name);
  ~ObsSession();
  ObsSession(const ObsSession&) = delete;
  ObsSession& operator=(const ObsSession&) = delete;

  /// The explicit trace output path ("" = default results location).
  const std::string& trace_out() const { return trace_out_; }

 private:
  std::string bench_name_;
  std::string trace_out_;
};

}  // namespace catt::bench
