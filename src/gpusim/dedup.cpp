#include "gpusim/dedup.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <optional>

#include "common/error.hpp"
#include "gpusim/simd.hpp"

namespace catt::sim::dedup {

const char* bail_reason_name(BailReason r) {
  switch (r) {
    case BailReason::kNone: return "none";
    case BailReason::kPoisoned: return "poisoned";
    case BailReason::kBlockDependent: return "block_dependent";
    case BailReason::kOutOfBounds: return "out_of_bounds";
    case BailReason::kNonUniformDelta: return "nonuniform_delta";
    case BailReason::kSharedInvalidated: return "shared_invalidated";
    case BailReason::kError: return "error";
  }
  return "unknown";
}

std::uint64_t AddrStore::append(const std::uint64_t* src, std::size_t n) {
  if (n == 0) return size_;
  const std::uint64_t end = static_cast<std::uint64_t>(index_.size()) * kChunk;
  if (end - size_ < n) {
    // Start a new allocation at the next chunk boundary, as many chunks
    // long as the append needs, so the addresses stay contiguous.
    size_ = end;
    const std::uint64_t chunks = (n + kChunk - 1) / kChunk;
    last_len_ = chunks * kChunk;
    owned_.emplace_back(new std::uint64_t[last_len_]);
    for (std::uint64_t c = 0; c < chunks; ++c) index_.push_back(owned_.back().get() + c * kChunk);
  }
  const std::uint64_t offset = size_;
  std::memcpy(index_[offset / kChunk] + offset % kChunk, src, n * sizeof(std::uint64_t));
  size_ += n;
  return offset;
}

void AddrStore::shrink_to_fit() {
  if (owned_.empty()) return;
  const std::uint64_t chunks = last_len_ / kChunk;
  const std::uint64_t start = (static_cast<std::uint64_t>(index_.size()) - chunks) * kChunk;
  const std::uint64_t used = size_ - start;
  if (used < last_len_) {
    std::unique_ptr<std::uint64_t[]> exact(new std::uint64_t[used]);
    std::memcpy(exact.get(), owned_.back().get(), used * sizeof(std::uint64_t));
    owned_.back() = std::move(exact);
    // Keep only the index entries the used prefix touches; the next append
    // (if any) starts a fresh allocation.
    index_.resize(static_cast<std::size_t>(start / kChunk + (used + kChunk - 1) / kChunk));
    for (std::size_t c = static_cast<std::size_t>(start / kChunk); c < index_.size(); ++c) {
      index_[c] = owned_.back().get() + (c * kChunk - start);
    }
    last_len_ = used;
  }
  size_ = static_cast<std::uint64_t>(index_.size()) * kChunk;
}

namespace {

using bc::Ins;
using bc::kWarp;
using bc::Mask;
using bc::Op;
using bc::Program;

using I128 = __int128;

std::int64_t wrap_add(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) + static_cast<std::uint64_t>(b));
}
std::int64_t wrap_sub(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) - static_cast<std::uint64_t>(b));
}
std::int64_t wrap_mul(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) * static_cast<std::uint64_t>(b));
}

/// Thrown when a warp cannot be proven block-affine; caught per warp.
struct Bail {
  BailReason reason;
};

/// Per-lane integer affine form over block coordinates:
/// value(l) = b[l] + cx[l]*bx + cy[l]*by + cz[l]*bz. Lanes in `poison`
/// hold unknown values (loaded data, non-affine results); they may flow
/// through arithmetic but must never reach a trace-relevant decision.
/// `bvar` (a subset of `poison`) marks the lanes whose value is unknown
/// because it varies with the block; it only selects the BailReason.
///
/// `blk` is false only when every lane's cx, cy and cz are zero, so the
/// value is block-invariant; true may be conservative. Handlers whose
/// operands are all block-invariant compute `b` alone (what the VM
/// computes), and every handler that writes a register keeps the flag
/// exact or sets it conservatively.
struct SInt {
  std::array<std::int64_t, kWarp> b{}, cx{}, cy{}, cz{};
  Mask poison = 0;
  Mask bvar = 0;
  bool blk = false;
};

/// Per-lane float vector; block-dependent floats are simply poisoned
/// (float values never need to stay affine: they only matter when they
/// reach a comparison, and then they must be block-invariant anyway).
struct SFlt {
  std::array<double, kWarp> v{};
  Mask poison = 0;
  Mask bvar = 0;
};

/// Scalar symbolic values for shared-memory cells.
struct SSca {
  std::int64_t b = 0, cx = 0, cy = 0, cz = 0;
  bool poison = false;
};
struct SFSca {
  double v = 0.0;
  bool poison = false;
};

/// Addresses one site recorded since the last flush. Records are reused
/// across flushes and warps, so steady state allocates nothing.
struct SymRec {
  std::int32_t slot = 0;
  bool is_store = false;
  std::int64_t dx = 0, dy = 0, dz = 0;  // byte deltas; uniform across all accesses
  bool have_delta = false;
  /// True while the record holds one full-warp access whose lanes ascend
  /// as first + l*stride (the common case); `addrs` is then empty.
  bool prog = false;
  std::uint64_t first = 0, stride = 0;
  std::vector<std::uint64_t> addrs;
};

/// The stride when non-empty `addrs` ascend as addrs[0] + i*stride. The
/// addresses of one record lie in one array, so a progression with a
/// stride below 2^63 is sorted.
std::optional<std::uint64_t> progression(const std::vector<std::uint64_t>& addrs) {
  if (addrs.empty()) return std::nullopt;
  const std::uint64_t stride = addrs.size() > 1 ? addrs[1] - addrs[0] : 0;
  if (static_cast<std::int64_t>(stride) < 0) return std::nullopt;
  std::uint64_t mismatch = 0;
  for (std::size_t i = 2; i < addrs.size(); ++i) mismatch |= (addrs[i] - addrs[i - 1]) ^ stride;
  if (mismatch != 0) return std::nullopt;
  return stride;
}

constexpr Mask bit(int l) { return Mask{1} << l; }
constexpr Mask kAllLanes = ~Mask{0};

/// Reason for an unknown lane of a value whose block-derived lanes are `bvar`.
BailReason unknown_reason(Mask bvar, int l) {
  return (bvar & bit(l)) != 0 ? BailReason::kBlockDependent : BailReason::kPoisoned;
}

/// Makes `d` block-invariant, zeroing its coefficients if any may be set.
void clear_coeffs(SInt& d) {
  if (!d.blk) return;
  d.cx.fill(0);
  d.cy.fill(0);
  d.cz.fill(0);
  d.blk = false;
}

/// Exact block dependence of `d`, read from its coefficients.
bool any_coeff(const SInt& d) {
  std::int64_t nz = 0;
  for (int l = 0; l < kWarp; ++l) nz |= d.cx[l] | d.cy[l] | d.cz[l];
  return nz != 0;
}

/// d.b[l] = f(a.b[l], b.b[l]) on every lane (block-invariant operands).
template <class F>
void map_b(SInt& d, const SInt& a, const SInt& b, F f) {
  for (int l = 0; l < kWarp; ++l) d.b[l] = f(a.b[l], b.b[l]);
}

/// d = f(a, b) for an f that is linear in both operands (add, sub): the
/// coefficients follow the base values, and are skipped when neither
/// operand depends on the block.
template <class F>
void map_affine(SInt& d, const SInt& a, const SInt& b, F f) {
  map_b(d, a, b, f);
  if (!a.blk && !b.blk) {
    clear_coeffs(d);
    return;
  }
  std::int64_t nz = 0;
  for (int l = 0; l < kWarp; ++l) {
    d.cx[l] = f(a.cx[l], b.cx[l]);
    d.cy[l] = f(a.cy[l], b.cy[l]);
    d.cz[l] = f(a.cz[l], b.cz[l]);
    nz |= d.cx[l] | d.cy[l] | d.cz[l];
  }
  d.blk = nz != 0;
}

/// The VM's kCmpI on the base values: 1/0 per lane, 0 for an operator
/// that is not a comparison.
void compare_b(expr::BinOp op, SInt& d, const SInt& a, const SInt& b) {
  using expr::BinOp;
  using V = std::int64_t;
  switch (op) {
    case BinOp::kLt: map_b(d, a, b, [](V x, V y) -> V { return x < y; }); break;
    case BinOp::kLe: map_b(d, a, b, [](V x, V y) -> V { return x <= y; }); break;
    case BinOp::kGt: map_b(d, a, b, [](V x, V y) -> V { return x > y; }); break;
    case BinOp::kGe: map_b(d, a, b, [](V x, V y) -> V { return x >= y; }); break;
    case BinOp::kEq: map_b(d, a, b, [](V x, V y) -> V { return x == y; }); break;
    case BinOp::kNe: map_b(d, a, b, [](V x, V y) -> V { return x != y; }); break;
    default: d.b.fill(0); break;
  }
}

/// Truth of `x op y` for every value of an exact difference x - y in
/// [dl, dh]: 1 or 0 when it is the same over the whole range, else -1.
int compare_range(expr::BinOp op, I128 dl, I128 dh) {
  using expr::BinOp;
  switch (op) {
    case BinOp::kLt: return dh < 0 ? 1 : dl >= 0 ? 0 : -1;
    case BinOp::kLe: return dh <= 0 ? 1 : dl > 0 ? 0 : -1;
    case BinOp::kGt: return dl > 0 ? 1 : dh <= 0 ? 0 : -1;
    case BinOp::kGe: return dl >= 0 ? 1 : dh < 0 ? 0 : -1;
    case BinOp::kEq: return (dl == 0 && dh == 0) ? 1 : (dl > 0 || dh < 0) ? 0 : -1;
    case BinOp::kNe: return (dl > 0 || dh < 0) ? 1 : (dl == 0 && dh == 0) ? 0 : -1;
    default: return 0;
  }
}

class Symbolic {
 public:
  Symbolic(const Program& prog, const arch::LaunchConfig& launch)
      : p_(prog), launch_(launch) {
    ex_ = static_cast<std::int64_t>(launch.grid.x) - 1;
    ey_ = static_cast<std::int64_t>(launch.grid.y) - 1;
    ez_ = static_cast<std::int64_t>(launch.grid.z) - 1;
    si_.assign(static_cast<std::size_t>(p_.n_iregs), {});
    sf_.assign(static_cast<std::size_t>(p_.n_fregs), {});
    for (const auto& [reg, v] : p_.const_i) si_[reg].b.fill(v);
    for (const auto& [reg, v] : p_.const_f) sf_[reg].v.fill(v);
    // blockIdx registers carry unit coefficients on their own axis.
    si_[Program::kBidX].cx.fill(1);
    si_[Program::kBidY].cy.fill(1);
    si_[Program::kBidZ].cz.fill(1);
    for (const std::uint16_t r : {Program::kBidX, Program::kBidY, Program::kBidZ}) {
      si_[r].blk = true;
    }
    shi_.resize(p_.shared.size());
    shf_.resize(p_.shared.size());
    for (std::size_t s = 0; s < p_.shared.size(); ++s) {
      const auto count = static_cast<std::size_t>(p_.shared[s].count);
      if (p_.shared[s].type == ir::ElemType::kF32) {
        shf_[s].assign(count, {});
      } else {
        shi_[s].assign(count, {});
      }
    }
  }

  ParamWarpTrace run_warp(int wid);

 private:
  // ---- operands ----
  //
  // Handlers read operands by reference; only when the destination is
  // also an operand is that operand copied first, because several
  // handlers write one field of a lane before reading another.

  const SInt& si_a(const Ins& ins) {
    return ins.a != ins.dst ? si_[ins.a] : (tmp_i_a_ = si_[ins.a]);
  }
  const SInt& si_b(const Ins& ins) {
    return ins.b != ins.dst ? si_[ins.b] : (tmp_i_b_ = si_[ins.b]);
  }
  const SFlt& sf_a(const Ins& ins) {
    return ins.a != ins.dst ? sf_[ins.a] : (tmp_f_a_ = sf_[ins.a]);
  }
  const SFlt& sf_b(const Ins& ins) {
    return ins.b != ins.dst ? sf_[ins.b] : (tmp_f_b_ = sf_[ins.b]);
  }

  // ---- affine range analysis over the grid box ----

  static bool bdep(const SInt& a, int l) {
    return (a.cx[l] | a.cy[l] | a.cz[l]) != 0;
  }

  /// Minimum / maximum of b + cx*bx + cy*by + cz*bz over the grid box
  /// (exact: the terms may be differences of int64 values).
  I128 lo(I128 b, I128 cx, I128 cy, I128 cz) const {
    if ((cx | cy | cz) == 0) return b;
    return b + std::min<I128>(0, cx * ex_) + std::min<I128>(0, cy * ey_) +
           std::min<I128>(0, cz * ez_);
  }
  I128 hi(I128 b, I128 cx, I128 cy, I128 cz) const {
    if ((cx | cy | cz) == 0) return b;
    return b + std::max<I128>(0, cx * ex_) + std::max<I128>(0, cy * ey_) +
           std::max<I128>(0, cz * ez_);
  }
  I128 lo(const SInt& a, int l) const { return lo(a.b[l], a.cx[l], a.cy[l], a.cz[l]); }
  I128 hi(const SInt& a, int l) const { return hi(a.b[l], a.cx[l], a.cy[l], a.cz[l]); }

  /// True when lane `l` of `a` stays within int64 over the whole grid box.
  /// The affine form is only known modulo 2^64 (the VM wraps), so it
  /// equals the VM's value in every block exactly when this holds.
  bool fits(const SInt& a, int l) const {
    return lo(a, l) >= std::numeric_limits<std::int64_t>::min() &&
           hi(a, l) <= std::numeric_limits<std::int64_t>::max();
  }

  /// Truth value of lane `l` if it is the same for every block (1 or 0);
  /// -1 when the lane is poisoned, leaves int64 over the grid, or the
  /// sign of the value is block-dependent.
  int truth(const SInt& a, int l) const {
    if ((a.poison & bit(l)) != 0) return -1;
    if (!bdep(a, l)) return a.b[l] != 0 ? 1 : 0;
    const I128 l_ = lo(a, l);
    const I128 h_ = hi(a, l);
    if (l_ < std::numeric_limits<std::int64_t>::min() ||
        h_ > std::numeric_limits<std::int64_t>::max()) {
      return -1;
    }
    if (l_ > 0 || h_ < 0) return 1;
    if (l_ == 0 && h_ == 0) return 0;
    return -1;
  }
  static int truth(const SFlt& a, int l) {
    if ((a.poison & bit(l)) != 0) return -1;
    return a.v[l] != 0.0 ? 1 : 0;
  }

  /// The lane bit of `l` when an unknown truth of `a` there is block-derived.
  static Mask unknown_bvar(const SInt& a, int l) {
    return (a.poison & bit(l)) != 0 ? (a.bvar & bit(l)) : bit(l);
  }
  static Mask unknown_bvar(const SFlt& a, int l) { return a.bvar & bit(l); }

  /// Why lane `l` of `a` has no grid-uniform truth value.
  static BailReason unknown_truth(const SInt& a, int l) {
    return (a.poison & bit(l)) != 0 ? unknown_reason(a.bvar, l) : BailReason::kBlockDependent;
  }

  /// Uniform truth of a condition register over the active mask; bails if
  /// any active lane's truth depends on the block.
  Mask cond_mask(const Ins& ins, Mask active) const {
    Mask out = 0;
    if ((ins.t & 2) != 0) {
      const SFlt& a = sf_[ins.a];
      if (const Mask bad = a.poison & active; bad != 0) {
        throw Bail{unknown_reason(a.bvar, std::countr_zero(bad))};
      }
      for (Mask m = active; m != 0; m &= m - 1) {
        const int l = std::countr_zero(m);
        if (a.v[l] != 0.0) out |= bit(l);
      }
      return out;
    }
    const SInt& a = si_[ins.a];
    if (!a.blk) {
      if (const Mask bad = a.poison & active; bad != 0) {
        throw Bail{unknown_reason(a.bvar, std::countr_zero(bad))};
      }
      for (int l = 0; l < kWarp; ++l) out |= a.b[l] != 0 ? bit(l) : 0;
      return out & active;
    }
    for (Mask m = active; m != 0; m &= m - 1) {
      const int l = std::countr_zero(m);
      const int t = truth(a, l);
      if (t < 0) throw Bail{unknown_truth(a, l)};
      if (t != 0) out |= bit(l);
    }
    return out;
  }

  // ---- trace event capture ----

  void emit_compute(std::uint32_t cycles, std::uint32_t active) {
    if (!events_.empty() && events_.back().kind == EventKind::kCompute) {
      events_.back().cycles += cycles;
      events_.back().lanes += cycles * active;
      return;
    }
    ParamEvent e;
    e.kind = EventKind::kCompute;
    e.cycles = cycles;
    e.lanes = cycles * active;
    events_.push_back(e);
  }

  SymRec& rec_for(std::int32_t slot, bool is_store) {
    for (std::size_t i = 0; i < n_recs_; ++i) {
      SymRec& r = recs_[i];
      if (r.slot == slot && r.is_store == is_store) return r;
    }
    if (n_recs_ == recs_.size()) recs_.emplace_back();
    SymRec& r = recs_[n_recs_++];
    r.slot = slot;
    r.is_store = is_store;
    r.have_delta = false;
    r.prog = false;
    r.addrs.clear();
    return r;
  }

  void flush() {
    for (std::size_t i = 0; i < n_recs_; ++i) {
      SymRec& r = recs_[i];
      ParamEvent e;
      e.kind = EventKind::kMem;
      e.slot = r.slot;
      e.is_store = r.is_store;
      e.dx = r.dx;
      e.dy = r.dy;
      e.dz = r.dz;
      if (r.prog) {
        e.lanes = kWarp;
        e.progression = true;
        e.addr = r.first;
        e.stride = r.stride;
        events_.push_back(e);
        continue;
      }
      // Pre-dedup lane accesses: identical to the concrete VM's count
      // (one address per active lane per instruction).
      e.lanes = static_cast<std::uint32_t>(r.addrs.size());
      auto stride = progression(r.addrs);
      if (!stride && !std::is_sorted(r.addrs.begin(), r.addrs.end())) {
        std::sort(r.addrs.begin(), r.addrs.end());
        stride = progression(r.addrs);
      }
      if (stride) {
        e.progression = true;
        e.addr = r.addrs.front();
        e.stride = *stride;
      } else {
        e.addr = out_->addrs.append(r.addrs.data(), r.addrs.size());
      }
      events_.push_back(e);
    }
    n_recs_ = 0;
  }

  static void set_delta(SymRec& rec, std::int64_t dx, std::int64_t dy, std::int64_t dz) {
    if (!rec.have_delta) {
      rec.dx = dx;
      rec.dy = dy;
      rec.dz = dz;
      rec.have_delta = true;
    } else if (rec.dx != dx || rec.dy != dy || rec.dz != dz) {
      throw Bail{BailReason::kNonUniformDelta};
    }
  }

  /// Records one global access: index must be affine and in bounds over
  /// the whole grid box, with lane-uniform block coefficients per record.
  void record_access(const Ins& ins, Mask active, bool is_store) {
    const bc::SiteSlot& slot = p_.sites[static_cast<std::size_t>(ins.x)];
    const DeviceArray& arr = *slot.array;
    const auto count = static_cast<I128>(arr.count());
    const auto elem = static_cast<std::int64_t>(ir::elem_size(arr.type));
    const SInt& idx = si_[ins.a];
    if (const Mask bad = idx.poison & active; bad != 0) {
      throw Bail{unknown_reason(idx.bvar, std::countr_zero(bad))};
    }
    SymRec& rec = rec_for(ins.x, is_store);
    if (active == 0) return;
    if (rec.prog) {
      // A second access to the site before the flush: store explicitly.
      rec.addrs.resize(kWarp);
      for (int l = 0; l < kWarp; ++l) rec.addrs[l] = rec.first + l * rec.stride;
      rec.prog = false;
    }
    const std::uint64_t base = arr.base;
    const auto uelem = static_cast<std::uint64_t>(elem);

    // Common case: every active lane shares one set of block coefficients.
    // Bounds then follow from the extreme offsets alone, the delta is set
    // once, and the addresses append in bulk, or, for a full warp whose
    // indices ascend by a constant step, stay as first address and stride.
    // Full warps take straight-line loops the compiler vectorizes.
    const bool full = active == kAllLanes;
    const int first = std::countr_zero(active);
    const std::int64_t cx = idx.cx[first];
    const std::int64_t cy = idx.cy[first];
    const std::int64_t cz = idx.cz[first];
    std::int64_t bmin = idx.b[first];
    std::int64_t bmax = bmin;
    std::int64_t coef_diff = 0;  // nonzero when some lane's coefficients differ
    bool lane_prog = false;
    std::int64_t step = 0;
    if (full) {
      step = wrap_sub(idx.b[1], idx.b[0]);
      std::int64_t mismatch = 0;
      for (int l = 2; l < kWarp; ++l) mismatch |= wrap_sub(idx.b[l], idx.b[l - 1]) ^ step;
      lane_prog = rec.addrs.empty() && mismatch == 0 && step >= 0 &&
                  I128(idx.b[0]) + I128(step) * (kWarp - 1) == idx.b[kWarp - 1];
      if (lane_prog) {
        bmax = idx.b[kWarp - 1];
      } else {
        for (int l = 0; l < kWarp; ++l) {
          bmin = std::min(bmin, idx.b[l]);
          bmax = std::max(bmax, idx.b[l]);
        }
      }
      if (idx.blk) {
        for (int l = 0; l < kWarp; ++l) {
          coef_diff |= (idx.cx[l] ^ cx) | (idx.cy[l] ^ cy) | (idx.cz[l] ^ cz);
        }
      }
    } else {
      for (Mask m = active; m != 0; m &= m - 1) {
        const int l = std::countr_zero(m);
        coef_diff |= (idx.cx[l] ^ cx) | (idx.cy[l] ^ cy) | (idx.cz[l] ^ cz);
        bmin = std::min(bmin, idx.b[l]);
        bmax = std::max(bmax, idx.b[l]);
      }
    }
    if (coef_diff == 0) {
      if (lo(bmin, cx, cy, cz) < 0 || hi(bmax, cx, cy, cz) >= count) {
        throw Bail{BailReason::kOutOfBounds};
      }
      set_delta(rec, wrap_mul(cx, elem), wrap_mul(cy, elem), wrap_mul(cz, elem));
      if (lane_prog) {
        rec.prog = true;
        rec.first = base + static_cast<std::uint64_t>(bmin) * uelem;
        rec.stride = static_cast<std::uint64_t>(step) * uelem;
        return;
      }
      const std::size_t n0 = rec.addrs.size();
      rec.addrs.resize(n0 + static_cast<std::size_t>(std::popcount(active)));
      std::uint64_t* out = rec.addrs.data() + n0;
      if (full) {
        for (int l = 0; l < kWarp; ++l) out[l] = base + static_cast<std::uint64_t>(idx.b[l]) * uelem;
      } else {
        for (Mask m = active; m != 0; m &= m - 1) {
          *out++ = base + static_cast<std::uint64_t>(idx.b[std::countr_zero(m)]) * uelem;
        }
      }
      return;
    }
    for (Mask m = active; m != 0; m &= m - 1) {
      const int l = std::countr_zero(m);
      if (lo(idx, l) < 0 || hi(idx, l) >= count) throw Bail{BailReason::kOutOfBounds};
      set_delta(rec, wrap_mul(idx.cx[l], elem), wrap_mul(idx.cy[l], elem),
                wrap_mul(idx.cz[l], elem));
      rec.addrs.push_back(base + static_cast<std::uint64_t>(idx.b[l]) * uelem);
    }
  }

  /// Concrete, block-invariant lane value — shared-memory indices must be
  /// this strong (the buffer is addressed identically in every block).
  static std::int64_t concrete(const SInt& a, int l) {
    if ((a.poison & bit(l)) != 0) throw Bail{unknown_reason(a.bvar, l)};
    if (bdep(a, l)) throw Bail{BailReason::kBlockDependent};
    return a.b[l];
  }

  const Program& p_;
  const arch::LaunchConfig& launch_;
  std::int64_t ex_ = 0, ey_ = 0, ez_ = 0;
  std::vector<SInt> si_;
  std::vector<SFlt> sf_;
  SInt tmp_i_a_, tmp_i_b_;
  SFlt tmp_f_a_, tmp_f_b_;
  std::vector<std::vector<SSca>> shi_;
  std::vector<std::vector<SFSca>> shf_;
  std::vector<SymRec> recs_;
  std::size_t n_recs_ = 0;
  /// Events of the warp being symbolized; copied out at kEnd with exact
  /// capacity, so the scratch's growth slack never reaches the cache.
  std::vector<ParamEvent> events_;
  ParamWarpTrace* out_ = nullptr;
};

ParamWarpTrace Symbolic::run_warp(int wid) {
  ParamWarpTrace pt;
  out_ = &pt;
  n_recs_ = 0;
  events_.clear();

  for (const std::uint16_t r : p_.var_iregs) si_[r] = {};
  for (const std::uint16_t r : p_.var_fregs) sf_[r] = {};

  const std::uint64_t threads = launch_.block.count();
  Mask full = 0;
  SInt& tx = si_[Program::kTidX];
  SInt& ty = si_[Program::kTidY];
  SInt& tz = si_[Program::kTidZ];
  tx = {};
  ty = {};
  tz = {};
  for (int l = 0; l < kWarp; ++l) {
    const std::uint64_t linear = static_cast<std::uint64_t>(wid) * kWarp + l;
    if (linear < threads) {
      full |= bit(l);
      const arch::Dim3 t3 = arch::delinearize(linear, launch_.block);
      tx.b[l] = t3.x;
      ty.b[l] = t3.y;
      tz.b[l] = t3.z;
    }
  }

  simt::ReconvStack rs(full);

  std::size_t pc = 0;
  for (;;) {
    const Ins& ins = p_.code[pc];
    // Same invariant as the concrete VM: control ops refine the stack and
    // `continue`, so the active mask is constant within one instruction.
    const Mask cur = rs.active();
    switch (ins.op) {
      case Op::kAddI:
      case Op::kSubI: {
        const SInt& a = si_a(ins);
        const SInt& b = si_b(ins);
        SInt& d = si_[ins.dst];
        using V = std::int64_t;
        if (ins.op == Op::kSubI) {
          map_affine(d, a, b, [](V x, V y) { return wrap_sub(x, y); });
        } else {
          map_affine(d, a, b, [](V x, V y) { return wrap_add(x, y); });
        }
        d.poison = a.poison | b.poison;
        d.bvar = a.bvar | b.bvar;
        break;
      }
      case Op::kMulI: {
        const SInt& a = si_a(ins);
        const SInt& b = si_b(ins);
        SInt& d = si_[ins.dst];
        const Mask in_poison = a.poison | b.poison;
        Mask poison = in_poison;
        Mask bvar = a.bvar | b.bvar;
        if (!a.blk && !b.blk) {
          map_b(d, a, b, [](std::int64_t x, std::int64_t y) { return wrap_mul(x, y); });
          clear_coeffs(d);
          d.poison = poison;
          d.bvar = bvar;
          break;
        }
        for (int l = 0; l < kWarp; ++l) {
          const bool ab = bdep(a, l);
          const bool bb = bdep(b, l);
          if (ab && bb) {
            // Quadratic in block coords: not affine.
            poison |= bit(l);
            bvar |= bit(l) & ~in_poison;
            d.b[l] = 0;
            d.cx[l] = d.cy[l] = d.cz[l] = 0;
          } else if (ab) {
            d.b[l] = wrap_mul(a.b[l], b.b[l]);
            d.cx[l] = wrap_mul(a.cx[l], b.b[l]);
            d.cy[l] = wrap_mul(a.cy[l], b.b[l]);
            d.cz[l] = wrap_mul(a.cz[l], b.b[l]);
          } else {
            d.b[l] = wrap_mul(a.b[l], b.b[l]);
            d.cx[l] = wrap_mul(b.cx[l], a.b[l]);
            d.cy[l] = wrap_mul(b.cy[l], a.b[l]);
            d.cz[l] = wrap_mul(b.cz[l], a.b[l]);
          }
        }
        d.blk = any_coeff(d);
        d.poison = poison;
        d.bvar = bvar;
        break;
      }
      case Op::kNegI: {
        const SInt& a = si_a(ins);
        SInt& d = si_[ins.dst];
        for (int l = 0; l < kWarp; ++l) d.b[l] = wrap_sub(0, a.b[l]);
        if (!a.blk) {
          clear_coeffs(d);
        } else {
          for (int l = 0; l < kWarp; ++l) {
            d.cx[l] = wrap_sub(0, a.cx[l]);
            d.cy[l] = wrap_sub(0, a.cy[l]);
            d.cz[l] = wrap_sub(0, a.cz[l]);
          }
          d.blk = true;
        }
        d.poison = a.poison;
        d.bvar = a.bvar;
        break;
      }
      case Op::kMinI:
      case Op::kMaxI: {
        const SInt& a = si_a(ins);
        const SInt& b = si_b(ins);
        SInt& d = si_[ins.dst];
        const bool is_max = ins.op == Op::kMaxI;
        Mask poison = a.poison | b.poison;
        Mask bvar = a.bvar | b.bvar;
        using V = std::int64_t;
        if (!a.blk && !b.blk) {
          if (is_max) {
            map_b(d, a, b, [](V x, V y) { return std::max(x, y); });
          } else {
            map_b(d, a, b, [](V x, V y) { return std::min(x, y); });
          }
          clear_coeffs(d);
          d.poison = poison;
          d.bvar = bvar;
          break;
        }
        for (int l = 0; l < kWarp; ++l) {
          d.cx[l] = d.cy[l] = d.cz[l] = 0;
          d.b[l] = 0;
          if ((poison & bit(l)) != 0) continue;
          if (!bdep(a, l) && !bdep(b, l)) {
            d.b[l] = is_max ? std::max(a.b[l], b.b[l]) : std::min(a.b[l], b.b[l]);
            continue;
          }
          if (!fits(a, l) || !fits(b, l)) {
            poison |= bit(l);
            bvar |= bit(l);
            continue;
          }
          // Identical coefficients: min/max distributes over the shared
          // affine part. Otherwise resolve by range separation.
          if (a.cx[l] == b.cx[l] && a.cy[l] == b.cy[l] && a.cz[l] == b.cz[l]) {
            d.cx[l] = a.cx[l];
            d.cy[l] = a.cy[l];
            d.cz[l] = a.cz[l];
            d.b[l] = is_max ? std::max(a.b[l], b.b[l]) : std::min(a.b[l], b.b[l]);
          } else if (hi(a, l) <= lo(b, l)) {
            const SInt& w = is_max ? b : a;
            d.b[l] = w.b[l];
            d.cx[l] = w.cx[l];
            d.cy[l] = w.cy[l];
            d.cz[l] = w.cz[l];
          } else if (hi(b, l) <= lo(a, l)) {
            const SInt& w = is_max ? a : b;
            d.b[l] = w.b[l];
            d.cx[l] = w.cx[l];
            d.cy[l] = w.cy[l];
            d.cz[l] = w.cz[l];
          } else {
            poison |= bit(l);
            bvar |= bit(l);
          }
        }
        d.blk = any_coeff(d);
        d.poison = poison;
        d.bvar = bvar;
        break;
      }
      case Op::kDivI:
      case Op::kModI: {
        const SInt& a = si_a(ins);
        const SInt& b = si_b(ins);
        SInt& d = si_[ins.dst];
        Mask poison = 0;
        Mask bvar = 0;
        for (Mask m = cur; m != 0; m &= m - 1) {
          const int l = std::countr_zero(m);
          // The divisor decides whether every block faults identically;
          // it must be a known block-invariant value.
          if ((b.poison & bit(l)) != 0) throw Bail{unknown_reason(b.bvar, l)};
          if (bdep(b, l)) throw Bail{BailReason::kBlockDependent};
          if (b.b[l] == 0) throw Bail{BailReason::kError};  // fallback reproduces the fault
          if ((a.poison & bit(l)) != 0 || bdep(a, l)) {
            // Floor division is not affine in bx.
            poison |= bit(l);
            bvar |= unknown_bvar(a, l);
            d.b[l] = 0;
          } else {
            d.b[l] = ins.op == Op::kDivI ? a.b[l] / b.b[l] : a.b[l] % b.b[l];
          }
          d.cx[l] = d.cy[l] = d.cz[l] = 0;
        }
        // Inactive lanes keep stale register contents in the VM; mark them
        // poisoned so nothing trace-relevant can consume them.
        d.poison = poison | ~cur;
        d.bvar = bvar;
        break;
      }
      case Op::kAddF:
      case Op::kSubF:
      case Op::kMulF:
      case Op::kDivF:
      case Op::kMinF:
      case Op::kMaxF: {
        const Mask poison = sf_[ins.a].poison | sf_[ins.b].poison;
        const Mask bvar = sf_[ins.a].bvar | sf_[ins.b].bvar;
        // Every consumer checks poison before it reads a value, so a fully
        // poisoned result (data arithmetic, the common case) is not computed.
        if (poison != kAllLanes) {
          const SFlt& a = sf_a(ins);
          const SFlt& b = sf_b(ins);
          SFlt& d = sf_[ins.dst];
          for (int l = 0; l < kWarp; ++l) {
            double r = 0.0;
            switch (ins.op) {
              case Op::kAddF: r = a.v[l] + b.v[l]; break;
              case Op::kSubF: r = a.v[l] - b.v[l]; break;
              case Op::kMulF: r = a.v[l] * b.v[l]; break;
              case Op::kDivF: r = a.v[l] / b.v[l]; break;
              case Op::kMinF: r = std::min(a.v[l], b.v[l]); break;
              default: r = std::max(a.v[l], b.v[l]); break;
            }
            d.v[l] = static_cast<float>(r);
          }
        }
        sf_[ins.dst].poison = poison;
        sf_[ins.dst].bvar = bvar;
        break;
      }
      case Op::kNegF: {
        const SFlt& a = sf_a(ins);
        SFlt& d = sf_[ins.dst];
        if (a.poison != kAllLanes) {
          for (int l = 0; l < kWarp; ++l) d.v[l] = -a.v[l];
        }
        d.poison = a.poison;
        d.bvar = a.bvar;
        break;
      }
      case Op::kCmpI: {
        const SInt& a = si_a(ins);
        const SInt& b = si_b(ins);
        SInt& d = si_[ins.dst];
        const auto op = static_cast<expr::BinOp>(ins.t);
        Mask poison = a.poison | b.poison;
        Mask bvar = a.bvar | b.bvar;
        // Block-invariant lanes compare their values exactly, as the VM does.
        compare_b(op, d, a, b);
        if (a.blk || b.blk) {
          for (int l = 0; l < kWarp; ++l) {
            if ((poison & bit(l)) != 0 || (!bdep(a, l) && !bdep(b, l))) continue;
            // Both sides are the VM's values only while they stay in int64;
            // then the comparison is block-uniform when the sign of the
            // exact difference is fixed over the grid box.
            int r = -1;
            if (fits(a, l) && fits(b, l)) {
              const I128 db = I128(a.b[l]) - b.b[l];
              const I128 dcx = I128(a.cx[l]) - b.cx[l];
              const I128 dcy = I128(a.cy[l]) - b.cy[l];
              const I128 dcz = I128(a.cz[l]) - b.cz[l];
              r = compare_range(op, lo(db, dcx, dcy, dcz), hi(db, dcx, dcy, dcz));
            }
            if (r < 0) {
              poison |= bit(l);
              bvar |= bit(l);
            } else {
              d.b[l] = r;
            }
          }
        }
        clear_coeffs(d);
        d.poison = poison;
        d.bvar = bvar;
        break;
      }
      case Op::kCmpF: {
        SInt& d = si_[ins.dst];
        const SFlt& a = sf_[ins.a];
        const SFlt& b = sf_[ins.b];
        const auto op = static_cast<expr::BinOp>(ins.t);
        for (int l = 0; l < kWarp; ++l) {
          bool r = false;
          const double x = a.v[l];
          const double y = b.v[l];
          using expr::BinOp;
          switch (op) {
            case BinOp::kLt: r = x < y; break;
            case BinOp::kLe: r = x <= y; break;
            case BinOp::kGt: r = x > y; break;
            case BinOp::kGe: r = x >= y; break;
            case BinOp::kEq: r = x == y; break;
            case BinOp::kNe: r = x != y; break;
            default: break;
          }
          d.b[l] = r ? 1 : 0;
        }
        clear_coeffs(d);
        d.poison = a.poison | b.poison;
        d.bvar = a.bvar | b.bvar;
        break;
      }
      case Op::kNotI:
      case Op::kBoolI: {
        const SInt& a = si_a(ins);
        SInt& d = si_[ins.dst];
        const int invert = ins.op == Op::kNotI ? 1 : 0;
        Mask poison = 0;
        Mask bvar = 0;
        for (int l = 0; l < kWarp; ++l) {
          const int t = truth(a, l);
          if (t < 0) {
            poison |= bit(l);
            bvar |= unknown_bvar(a, l);
            d.b[l] = 0;
          } else {
            d.b[l] = t ^ invert;
          }
        }
        clear_coeffs(d);
        d.poison = poison;
        d.bvar = bvar;
        break;
      }
      case Op::kNotF:
      case Op::kBoolF: {
        SInt& d = si_[ins.dst];
        const SFlt& a = sf_[ins.a];
        const bool invert = ins.op == Op::kNotF;
        for (int l = 0; l < kWarp; ++l) {
          d.b[l] = ((a.v[l] != 0.0) != invert) ? 1 : 0;
        }
        clear_coeffs(d);
        d.poison = a.poison;
        d.bvar = a.bvar;
        break;
      }
      case Op::kAndB:
      case Op::kOrB: {
        const SInt& a = si_a(ins);
        const SInt& b = si_b(ins);
        SInt& d = si_[ins.dst];
        const bool is_or = ins.op == Op::kOrB;
        Mask poison = 0;
        Mask bvar = 0;
        for (int l = 0; l < kWarp; ++l) {
          const int at = truth(a, l);
          const int bt = truth(b, l);
          if (at < 0 || bt < 0) {
            poison |= bit(l);
            bvar |= (at < 0 ? unknown_bvar(a, l) : 0) | (bt < 0 ? unknown_bvar(b, l) : 0);
            d.b[l] = 0;
          } else {
            d.b[l] = is_or ? (at | bt) : (at & bt);
          }
        }
        clear_coeffs(d);
        d.poison = poison;
        d.bvar = bvar;
        break;
      }
      case Op::kLogicalCut: {
        const int is_or = (ins.t & 1) != 0 ? 1 : 0;
        Mask rhs = 0;
        for (Mask m = cur; m != 0; m &= m - 1) {
          const int l = std::countr_zero(m);
          int t;
          if ((ins.t & 2) != 0) {
            const SFlt& a = sf_[ins.a];
            t = truth(a, l);
            if (t < 0) throw Bail{unknown_reason(a.bvar, l)};
          } else {
            const SInt& a = si_[ins.a];
            t = truth(a, l);
            if (t < 0) throw Bail{unknown_truth(a, l)};
          }
          if (t != is_or) rhs |= bit(l);
        }
        rs.push_pred(rhs);
        if (rhs == 0) {
          pc = static_cast<std::size_t>(ins.x);
          continue;
        }
        break;
      }
      case Op::kLogicalEnd: {
        rs.pop_pred();
        const bool is_or = (ins.t & 1) != 0;
        const bool a_f = (ins.t & 2) != 0;
        const bool b_f = (ins.t & 4) != 0;
        // Each lane reads both operands before writing, so `dst` may alias.
        const SInt* ai = a_f ? nullptr : &si_[ins.a];
        const SInt* bi = b_f ? nullptr : &si_[ins.b];
        const SFlt* af = a_f ? &sf_[ins.a] : nullptr;
        const SFlt* bf = b_f ? &sf_[ins.b] : nullptr;
        SInt& d = si_[ins.dst];
        Mask poison = 0;
        Mask bvar = 0;
        for (int l = 0; l < kWarp; ++l) {
          const int at = a_f ? truth(*af, l) : truth(*ai, l);
          const int bt = b_f ? truth(*bf, l) : truth(*bi, l);
          if (at < 0 || bt < 0) {
            poison |= bit(l);
            if (at < 0) bvar |= a_f ? unknown_bvar(*af, l) : unknown_bvar(*ai, l);
            if (bt < 0) bvar |= b_f ? unknown_bvar(*bf, l) : unknown_bvar(*bi, l);
            d.b[l] = 0;
          } else {
            d.b[l] = is_or ? (at | bt) : (at & bt);
          }
        }
        clear_coeffs(d);
        d.poison = poison;
        d.bvar = bvar;
        break;
      }
      case Op::kCvtIF: {
        SFlt& d = sf_[ins.dst];
        const SInt& a = si_[ins.a];
        Mask poison = a.poison;
        Mask bvar = a.bvar;
        for (int l = 0; l < kWarp; ++l) {
          if (bdep(a, l)) {
            // Block-dependent floats are not tracked.
            bvar |= bit(l) & ~poison;
            poison |= bit(l);
            d.v[l] = 0.0;
          } else {
            d.v[l] = static_cast<double>(a.b[l]);
          }
        }
        d.poison = poison;
        d.bvar = bvar;
        break;
      }
      case Op::kCvtFI: {
        SInt& d = si_[ins.dst];
        const SFlt& a = sf_[ins.a];
        for (Mask m = cur; m != 0; m &= m - 1) {
          const int l = std::countr_zero(m);
          d.cx[l] = d.cy[l] = d.cz[l] = 0;
          d.poison = (d.poison & ~bit(l)) | (a.poison & bit(l));
          d.bvar = (d.bvar & ~bit(l)) | (a.bvar & bit(l));
          d.b[l] = (a.poison & bit(l)) != 0 ? 0 : static_cast<std::int64_t>(a.v[l]);
        }
        break;
      }
      case Op::kCastF: {
        const SFlt& a = sf_a(ins);
        SFlt& d = sf_[ins.dst];
        if (a.poison != kAllLanes) {
          for (int l = 0; l < kWarp; ++l) d.v[l] = static_cast<float>(a.v[l]);
        }
        d.poison = a.poison;
        d.bvar = a.bvar;
        break;
      }
      case Op::kCall: {
        const SFlt& a = sf_a(ins);
        const SFlt& b = sf_b(ins);
        SFlt& d = sf_[ins.dst];
        const auto id = static_cast<bc::Intrinsic>(ins.t);
        for (Mask m = cur & ~(a.poison | b.poison); m != 0; m &= m - 1) {
          const int l = std::countr_zero(m);
          double r = 0.0;
          switch (id) {
            case bc::Intrinsic::kSqrtf: r = std::sqrt(a.v[l]); break;
            case bc::Intrinsic::kFabsf: r = std::fabs(a.v[l]); break;
            case bc::Intrinsic::kExpf: r = std::exp(a.v[l]); break;
            case bc::Intrinsic::kLogf: r = std::log(a.v[l]); break;
            case bc::Intrinsic::kPowf: r = std::pow(a.v[l], b.v[l]); break;
            case bc::Intrinsic::kFloorf: r = std::floor(a.v[l]); break;
            case bc::Intrinsic::kFminf: r = std::fmin(a.v[l], b.v[l]); break;
            case bc::Intrinsic::kFmaxf: r = std::fmax(a.v[l], b.v[l]); break;
          }
          d.v[l] = static_cast<float>(r);
        }
        // Poisoned lanes keep stale values (never read, see kAddF).
        d.poison = (d.poison & ~cur) | ((a.poison | b.poison) & cur);
        d.bvar = (d.bvar & ~cur) | ((a.bvar | b.bvar) & cur);
        break;
      }
      case Op::kWVarII: {
        const SInt& a = si_a(ins);
        SInt& d = si_[ins.dst];
        for (Mask m = cur; m != 0; m &= m - 1) {
          const int l = std::countr_zero(m);
          d.b[l] = a.b[l];
        }
        if (a.blk || d.blk) {
          for (Mask m = cur; m != 0; m &= m - 1) {
            const int l = std::countr_zero(m);
            d.cx[l] = a.cx[l];
            d.cy[l] = a.cy[l];
            d.cz[l] = a.cz[l];
          }
          d.blk = a.blk || any_coeff(d);
        }
        d.poison = (d.poison & ~cur) | (a.poison & cur);
        d.bvar = (d.bvar & ~cur) | (a.bvar & cur);
        break;
      }
      case Op::kWVarIF: {
        SFlt& d = sf_[ins.dst];
        const SInt& a = si_[ins.a];
        for (Mask m = cur; m != 0; m &= m - 1) {
          const int l = std::countr_zero(m);
          if ((a.poison & bit(l)) != 0 || bdep(a, l)) {
            d.poison |= bit(l);
            d.bvar = (d.bvar & ~bit(l)) | unknown_bvar(a, l);
            d.v[l] = 0.0;
          } else {
            d.poison &= ~bit(l);
            d.bvar &= ~bit(l);
            d.v[l] = static_cast<float>(static_cast<double>(a.b[l]));
          }
        }
        break;
      }
      case Op::kWVarFF: {
        const SFlt& a = sf_a(ins);
        SFlt& d = sf_[ins.dst];
        // Poisoned lanes keep stale values (never read, see kAddF).
        for (Mask m = cur & ~a.poison; m != 0; m &= m - 1) {
          const int l = std::countr_zero(m);
          d.v[l] = static_cast<float>(a.v[l]);
        }
        d.poison = (d.poison & ~cur) | (a.poison & cur);
        d.bvar = (d.bvar & ~cur) | (a.bvar & cur);
        break;
      }
      case Op::kWVarFI: {
        SInt& d = si_[ins.dst];
        const SFlt& a = sf_[ins.a];
        for (Mask m = cur; m != 0; m &= m - 1) {
          const int l = std::countr_zero(m);
          d.cx[l] = d.cy[l] = d.cz[l] = 0;
          d.b[l] = (a.poison & bit(l)) != 0 ? 0 : static_cast<std::int64_t>(a.v[l]);
        }
        d.poison = (d.poison & ~cur) | (a.poison & cur);
        d.bvar = (d.bvar & ~cur) | (a.bvar & cur);
        break;
      }
      case Op::kStepVar: {
        const SInt& a = si_a(ins);
        SInt& d = si_[ins.dst];
        for (Mask m = cur; m != 0; m &= m - 1) {
          const int l = std::countr_zero(m);
          d.b[l] = wrap_add(d.b[l], a.b[l]);
        }
        if (a.blk) {
          for (Mask m = cur; m != 0; m &= m - 1) {
            const int l = std::countr_zero(m);
            d.cx[l] = wrap_add(d.cx[l], a.cx[l]);
            d.cy[l] = wrap_add(d.cy[l], a.cy[l]);
            d.cz[l] = wrap_add(d.cz[l], a.cz[l]);
          }
          d.blk = any_coeff(d);
        }
        d.poison |= a.poison & cur;
        d.bvar |= a.bvar & cur;
        break;
      }
      case Op::kLoadG: {
        record_access(ins, cur, /*is_store=*/false);
        // Loaded data is unknown; poison the destination lanes.
        if ((ins.t & 1) != 0) {
          sf_[ins.dst].poison |= cur;
          sf_[ins.dst].bvar &= ~cur;
        } else {
          si_[ins.dst].poison |= cur;
          si_[ins.dst].bvar &= ~cur;
        }
        break;
      }
      case Op::kStoreG:
        record_access(ins, cur, /*is_store=*/true);
        break;
      case Op::kLoadSh: {
        const SInt& idx = si_[ins.a];
        const auto s = static_cast<std::size_t>(ins.x);
        if (p_.shared[s].type == ir::ElemType::kF32) {
          auto& buf = shf_[s];
          SFlt& d = sf_[ins.dst];
          for (Mask m = cur; m != 0; m &= m - 1) {
            const int l = std::countr_zero(m);
            const std::int64_t x = concrete(idx, l);
            if (x < 0 || static_cast<std::size_t>(x) >= buf.size()) {
              throw Bail{BailReason::kOutOfBounds};
            }
            const SFSca& c = buf[static_cast<std::size_t>(x)];
            d.v[l] = c.v;
            d.poison = (d.poison & ~bit(l)) | (c.poison ? bit(l) : 0);
            d.bvar &= ~bit(l);
          }
        } else {
          auto& buf = shi_[s];
          SInt& d = si_[ins.dst];
          for (Mask m = cur; m != 0; m &= m - 1) {
            const int l = std::countr_zero(m);
            const std::int64_t x = concrete(idx, l);
            if (x < 0 || static_cast<std::size_t>(x) >= buf.size()) {
              throw Bail{BailReason::kOutOfBounds};
            }
            const SSca& c = buf[static_cast<std::size_t>(x)];
            d.b[l] = c.b;
            d.cx[l] = c.cx;
            d.cy[l] = c.cy;
            d.cz[l] = c.cz;
            d.blk = d.blk || (c.cx | c.cy | c.cz) != 0;
            d.poison = (d.poison & ~bit(l)) | (c.poison ? bit(l) : 0);
            d.bvar &= ~bit(l);
          }
        }
        break;
      }
      case Op::kStoreSh: {
        const SInt& idx = si_[ins.a];
        const auto s = static_cast<std::size_t>(ins.x);
        const bool val_f = (ins.t & 2) != 0;
        if (p_.shared[s].type == ir::ElemType::kF32) {
          auto& buf = shf_[s];
          for (Mask m = cur; m != 0; m &= m - 1) {
            const int l = std::countr_zero(m);
            const std::int64_t x = concrete(idx, l);
            if (x < 0 || static_cast<std::size_t>(x) >= buf.size()) {
              throw Bail{BailReason::kOutOfBounds};
            }
            SFSca c;
            if (val_f) {
              c.v = static_cast<float>(sf_[ins.b].v[l]);
              c.poison = (sf_[ins.b].poison & bit(l)) != 0;
            } else {
              const SInt& v = si_[ins.b];
              if ((v.poison & bit(l)) != 0 || bdep(v, l)) {
                c.poison = true;
              } else {
                c.v = static_cast<float>(static_cast<double>(v.b[l]));
              }
            }
            buf[static_cast<std::size_t>(x)] = c;
          }
        } else {
          auto& buf = shi_[s];
          for (Mask m = cur; m != 0; m &= m - 1) {
            const int l = std::countr_zero(m);
            const std::int64_t x = concrete(idx, l);
            if (x < 0 || static_cast<std::size_t>(x) >= buf.size()) {
              throw Bail{BailReason::kOutOfBounds};
            }
            SSca c;
            if (val_f) {
              const SFlt& v = sf_[ins.b];
              if ((v.poison & bit(l)) != 0) {
                c.poison = true;
              } else {
                c.b = static_cast<std::int64_t>(v.v[l]);
              }
            } else {
              const SInt& v = si_[ins.b];
              c.b = v.b[l];
              c.cx = v.cx[l];
              c.cy = v.cy[l];
              c.cz = v.cz[l];
              c.poison = (v.poison & bit(l)) != 0;
            }
            // int32 truncation: exact only for block-invariant in-range
            // values; anything else becomes unknown.
            if (!c.poison && (c.cx != 0 || c.cy != 0 || c.cz != 0)) {
              c = SSca{0, 0, 0, 0, true};
            } else if (!c.poison) {
              c.b = static_cast<std::int32_t>(c.b);
            }
            buf[static_cast<std::size_t>(x)] = c;
          }
        }
        break;
      }
      case Op::kCompute:
        emit_compute(static_cast<std::uint32_t>(ins.x), rs.active_lanes());
        break;
      case Op::kFlush:
        flush();
        break;
      case Op::kBarrier: {
        ParamEvent e;
        e.kind = EventKind::kBarrier;
        events_.push_back(e);
        break;
      }
      case Op::kJump:
        pc = static_cast<std::size_t>(ins.x);
        continue;
      case Op::kIfBegin: {
        const Mask m1 = cond_mask(ins, cur);
        rs.begin_if(m1);
        if (m1 == 0) {
          pc = static_cast<std::size_t>(ins.x);
          continue;
        }
        break;
      }
      case Op::kElse:
        rs.to_else();
        if (rs.active() == 0) {
          pc = static_cast<std::size_t>(ins.x);
          continue;
        }
        break;
      case Op::kIfEnd:
        rs.end_if();
        break;
      case Op::kLoopEnter:
        rs.enter_loop();
        break;
      case Op::kLoopBranch: {
        const Mask next = cond_mask(ins, cur);
        rs.loop_branch(next);
        if (next == 0) {
          pc = static_cast<std::size_t>(ins.x);
          continue;
        }
        break;
      }
      case Op::kLoopExit:
        rs.exit_loop();
        break;
      case Op::kError:
        throw Bail{BailReason::kError};  // the fallback VM raises the error per block
      case Op::kEnd: {
        ParamEvent e;
        e.kind = EventKind::kEnd;
        events_.push_back(e);
        pt.events.assign(events_.begin(), events_.end());
        pt.addrs.shrink_to_fit();
        pt.div = rs.counters();
        pt.valid = true;
        out_ = nullptr;
        return pt;
      }
    }
    ++pc;
  }
}

}  // namespace

std::vector<ParamWarpTrace> symbolize(const bc::Program& prog, const arch::LaunchConfig& launch) {
  Symbolic sym(prog, launch);
  const int warps = launch.warps_per_block(kWarp);
  std::vector<ParamWarpTrace> out;
  out.reserve(static_cast<std::size_t>(warps));
  bool any_failed = false;
  for (int w = 0; w < warps; ++w) {
    try {
      out.push_back(sym.run_warp(w));
    } catch (const Bail& b) {
      ParamWarpTrace failed;
      failed.bail = b.reason;
      out.push_back(std::move(failed));
      any_failed = true;
    }
  }
  // Cross-warp shared-memory flow: a concrete fallback warp invalidates
  // the symbolic shared state every later warp was proven against.
  if (any_failed && !prog.shared.empty()) {
    for (auto& pt : out) {
      if (!pt.valid) continue;
      pt = {};
      pt.bail = BailReason::kSharedInvalidated;
    }
  }
  return out;
}

namespace {

/// Translate pass of the render: sector index of every base address
/// shifted by the block's byte delta. Kept as a separate flat loop so the
/// AVX2 clone below auto-vectorizes it 4 lanes per 256-bit op (64-bit
/// add + shift); the branchy sector-dedup/line-merge stays scalar over
/// the translated buffer.
void translate_sectors_base(const std::uint64_t* addrs, std::size_t n, std::uint64_t delta,
                            std::uint64_t* out) {
  for (std::size_t i = 0; i < n; ++i) out[i] = (addrs[i] + delta) / 32;
}

#if defined(CATT_SIMD_AVX2_DISPATCH)
__attribute__((target("avx2"))) void translate_sectors_avx2(const std::uint64_t* addrs,
                                                            std::size_t n, std::uint64_t delta,
                                                            std::uint64_t* out) {
  for (std::size_t i = 0; i < n; ++i) out[i] = (addrs[i] + delta) / 32;
}
#endif

inline void translate_sectors(const std::uint64_t* addrs, std::size_t n, std::uint64_t delta,
                              std::uint64_t* out) {
#if defined(CATT_SIMD_AVX2_DISPATCH)
  if (kSimdHasAvx2) {
    translate_sectors_avx2(addrs, n, delta, out);
    return;
  }
#endif
  translate_sectors_base(addrs, n, delta, out);
}

/// Calls `line(l)` once per 32 B sector event `pe` touches in a block whose
/// byte delta is `delta`, in sector order (so a line's sectors arrive
/// consecutively and the caller merges them).
template <typename LineFn>
void for_each_sector(const ParamEvent& pe, const AddrStore& addrs, std::uint64_t delta,
                     std::uint64_t sectors_per_line, LineFn&& line) {
  if (pe.lanes == 0) return;
  if (pe.progression) {
    const std::uint64_t first = pe.addr + delta;
    if (pe.stride <= 32) {
      // Consecutive lanes are at most one sector apart, so the warp
      // touches every sector from the first lane's to the last's.
      const std::uint64_t s0 = first / 32;
      const std::uint64_t n = (first + (pe.lanes - 1) * pe.stride) / 32 - s0 + 1;
      for (std::uint64_t s = 0; s < n; ++s) line((s0 + s) / sectors_per_line);
    } else {
      for (std::uint32_t i = 0; i < pe.lanes; ++i) {
        line((first + i * pe.stride) / 32 / sectors_per_line);
      }
    }
    return;
  }
  // Per-thread scratch for the translated sectors: sweep jobs render on
  // pool threads concurrently, and steady state allocates nothing.
  thread_local std::vector<std::uint64_t> sectors;
  sectors.resize(pe.lanes);
  translate_sectors(addrs.at(pe.addr), pe.lanes, delta, sectors.data());
  // The addresses are sorted and the delta is uniform, so the translated
  // sectors stay sorted; sector dedup and line merge in one pass.
  std::uint64_t last_sector = ~std::uint64_t{0};
  for (const std::uint64_t sector : sectors) {
    if (sector == last_sector) continue;
    last_sector = sector;
    line(sector / sectors_per_line);
  }
}

/// Byte delta of event `pe` in block `b`, with unsigned wrap.
std::uint64_t block_delta(const ParamEvent& pe, const arch::Dim3& b) {
  return static_cast<std::uint64_t>(pe.dx) * b.x + static_cast<std::uint64_t>(pe.dy) * b.y +
         static_cast<std::uint64_t>(pe.dz) * b.z;
}

/// Renders block (0,0,0) of `pt` as its template. A memory event whose
/// byte deltas are whole lines keeps its rows and records the deltas in
/// lines; any other becomes a patch event, re-rendered per block by
/// render() (its template rows would never be read, so none are built).
void build_template(ParamWarpTrace& pt, const bc::Program& prog, bc::SiteTable& table,
                    int line_bytes) {
  const auto pool = std::make_shared<TxnPool>();
  WarpTrace t(pool);
  t.make_template();
  t.reserve(pt.events.size());
  const auto lb = static_cast<std::int64_t>(line_bytes);
  const std::uint64_t sectors_per_line = static_cast<std::uint64_t>(line_bytes) / 32;
  pt.patch_events.clear();
  for (std::size_t i = 0; i < pt.events.size(); ++i) {
    const ParamEvent& pe = pt.events[i];
    switch (pe.kind) {
      case EventKind::kCompute:
        // Symbolic events are already merged; replay them one-for-one so
        // the rendered trace matches the concrete VM's event sequence.
        t.push_compute_raw(pe.cycles, pe.lanes);
        break;
      case EventKind::kMem: {
        t.begin_mem(table.id_for(prog, pe.slot), pe.is_store, pe.lanes);
        if (pe.lanes != 0 && (pe.dx % lb != 0 || pe.dy % lb != 0 || pe.dz % lb != 0)) {
          t.shift_mem({0, 0, 0, static_cast<std::int32_t>(pt.patch_events.size())});
          pt.patch_events.push_back(static_cast<std::uint32_t>(i));
          break;
        }
        t.shift_mem({pe.dx / lb, pe.dy / lb, pe.dz / lb, -1});
        for_each_sector(pe, pt.addrs, 0, sectors_per_line,
                        [&](std::uint64_t line) { t.mem_sector(line); });
        break;
      }
      case EventKind::kBarrier:
        t.push_barrier();
        break;
      case EventKind::kEnd:
        t.set_div(pt.div);
        t.push_end();
        break;
    }
  }
  pool->shrink_to_fit();
  pt.templ = std::move(t);
}

}  // namespace

WarpTrace render(ParamWarpTrace& pt, const bc::Program& prog, bc::SiteTable& table,
                 const arch::Dim3& block_idx, int line_bytes,
                 const std::shared_ptr<TxnPool>& pool) {
  if (pt.templ.empty()) build_template(pt, prog, table, line_bytes);
  std::shared_ptr<PatchSpans> patches;
  if (!pt.patch_events.empty()) {
    const std::uint64_t sectors_per_line = static_cast<std::uint64_t>(line_bytes) / 32;
    patches = std::make_shared<PatchSpans>();
    patches->pool = pool;
    patches->begin.reserve(pt.patch_events.size() + 1);
    TxnPool& p = *pool;
    for (const std::uint32_t e : pt.patch_events) {
      const ParamEvent& pe = pt.events[e];
      const std::size_t begin = p.size();
      patches->begin.push_back(static_cast<std::uint32_t>(begin));
      for_each_sector(pe, pt.addrs, block_delta(pe, block_idx), sectors_per_line,
                      [&](std::uint64_t line) {
                        if (p.size() > begin && p.back().line == line) {
                          ++p.back().sectors;
                        } else {
                          p.push_back({line, 1});
                        }
                      });
    }
    patches->begin.push_back(static_cast<std::uint32_t>(p.size()));
  }
  return pt.templ.view(block_idx.x, block_idx.y, block_idx.z, std::move(patches));
}

}  // namespace catt::sim::dedup
