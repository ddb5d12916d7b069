// SIMT reconvergence stack with divergence accounting, shared by every
// executor that walks a warp through structured control flow: the bytecode
// VM (bytecode.cpp), the tree-walk reference interpreter (ref_interp.cpp)
// and the block-parametric symbolic executor (dedup.cpp).
//
// The model is the classic immediate-post-dominator stack: entering an
// `if` or a loop pushes the current active mask, refinements narrow it,
// and reaching the join point pops and restores the parent mask. All
// three executors already implemented these exact transitions with
// hand-rolled {saved, pending} stacks; centralising them here keeps the
// mask semantics provably identical and adds one thing the ad-hoc stacks
// could not: per-warp divergence counters that are bit-identical across
// executors by construction.
//
// Counter semantics (pinned by tests/divergence_test.cpp and the
// divergence fuzz stage):
//  - `branches` counts every mask-refining decision evaluated: one per
//    kIfBegin and one per kLoopBranch evaluation, including the final
//    evaluation whose continuing mask is empty.
//  - a branch is `divergent` when the taken mask is a strict non-empty
//    subset of the active mask (the warp actually splits).
//  - `reconvergences` counts joins that restore a mask an earlier
//    decision under this entry had split.
//  - `max_depth` is the deepest control-entry nesting reached; the
//    short-circuit predication entries (kLogicalCut/kLogicalEnd) are
//    expression-level refinements, not control flow, and are transparent
//    to every counter so the reference interpreter (which evaluates
//    short-circuits without stack ops) stays bit-identical to the VM.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

namespace catt::sim::simt {

using Mask = std::uint32_t;

inline std::uint32_t active_count(Mask m) {
  return static_cast<std::uint32_t>(std::popcount(m));
}

/// Per-warp divergence counters. Merging is commutative (sums plus a max),
/// so aggregation does not depend on merge order.
struct DivCounters {
  std::uint64_t branches = 0;
  std::uint64_t divergent_branches = 0;
  std::uint64_t reconvergences = 0;
  std::uint32_t max_depth = 0;

  void merge(const DivCounters& o) {
    branches += o.branches;
    divergent_branches += o.divergent_branches;
    reconvergences += o.reconvergences;
    max_depth = std::max(max_depth, o.max_depth);
  }

  bool operator==(const DivCounters&) const = default;
};

/// Immediate-post-dominator reconvergence stack for one warp.
///
/// Drivers mirror their control ops onto it:
///  - `if`:   begin_if(taken) / to_else() / end_if()
///  - loop:   enter_loop(), then loop_branch(continuing) per condition
///            evaluation, then exit_loop() at the join
///  - short-circuit predication: push_pred(refined) / pop_pred()
///
/// active() is the current active mask; a driver that also threads masks
/// explicitly (the reference interpreter) must hand this stack the same
/// masks it computes — the differential tests pin that the two stay in
/// lockstep.
class ReconvStack {
 public:
  explicit ReconvStack(Mask full) : cur_(full) { entries_.reserve(16); }

  Mask active() const { return cur_; }
  std::uint32_t active_lanes() const { return active_count(cur_); }
  std::size_t depth() const { return entries_.size(); }
  const DivCounters& counters() const { return div_; }

  /// One `if` decision: counts the branch, pushes {parent, else-pending}
  /// and narrows to the taken mask (possibly empty — the caller jumps
  /// over the then-body in that case, exactly like the VM).
  void begin_if(Mask taken) {
    const bool split = note_branch(taken);
    entries_.push_back({cur_, cur_ & ~taken, split});
    note_depth();
    cur_ = taken;
  }

  /// Switches to the else arm's pending mask (possibly empty).
  void to_else() { cur_ = entries_.back().pending; }

  /// Join point of an `if`: restores the parent mask.
  void end_if() { pop_join(); }

  /// Loop pre-entry: pushes the parent mask. No branch is counted here;
  /// each condition evaluation reports via loop_branch().
  void enter_loop() {
    entries_.push_back({cur_, 0, false});
    note_depth();
  }

  /// One loop-condition evaluation: counts the branch and narrows to the
  /// lanes that keep iterating. Lanes leave the loop monotonically, so a
  /// split here (some lanes exit early) marks the loop entry diverged.
  void loop_branch(Mask continuing) {
    if (note_branch(continuing)) entries_.back().diverged = true;
    cur_ = continuing;
  }

  /// Loop join: restores the mask the loop was entered with.
  void exit_loop() { pop_join(); }

  /// Expression-level predication (short-circuit right operands): narrows
  /// the mask without counting a branch or touching depth accounting.
  void push_pred(Mask refined) {
    entries_.push_back({cur_, 0, false});
    cur_ = refined;
  }

  void pop_pred() {
    cur_ = entries_.back().parent;
    entries_.pop_back();
  }

 private:
  struct Entry {
    Mask parent;
    Mask pending;
    bool diverged;
  };

  bool note_branch(Mask taken) {
    ++div_.branches;
    const bool split = taken != 0 && taken != cur_;
    if (split) ++div_.divergent_branches;
    return split;
  }

  void note_depth() {
    div_.max_depth = std::max(div_.max_depth, static_cast<std::uint32_t>(entries_.size()));
  }

  void pop_join() {
    const Entry e = entries_.back();
    entries_.pop_back();
    cur_ = e.parent;
    if (e.diverged) ++div_.reconvergences;
  }

  Mask cur_ = 0;
  DivCounters div_;
  std::vector<Entry> entries_;
};

}  // namespace catt::sim::simt
