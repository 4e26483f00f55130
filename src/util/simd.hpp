// Portable lane-plane SIMD kernels for the batched EPP engine.
//
// BatchedEppEngine stores the per-cluster Prob4 distributions structure-of-
// arrays, in lane GROUPS of kLaneWidth = 8 lanes: a plane block holds, per
// group, the group's four symbol vectors (P0 / P1 / Pa / Pā) back to back
// (see "lane-plane addressing" below). The kernels here evaluate one gate's
// Table-1 rule across whole groups, expressed over `Pack`, an 8-wide value
// type backed by GCC/Clang vector extensions (guaranteed element-wise packed
// codegen; other compilers fall back to plain loops the optimizer unrolls).
// Each kernel takes a GroupMask of the groups that actually contain member
// lanes and skips the rest, so per-gate arithmetic stays proportional to
// lane membership (like the scalar path) instead of the padded cluster
// width.
//
// Bit-for-bit contract: every kernel performs, per lane, exactly the
// floating-point operations of the scalar gate_rules path
// (prob4_closed_form / prob4_fold), on the same values, in the same order —
// element-wise vector ops are the same IEEE double ops, just packed. The
// one intentional difference is that the scalar fold skips zero-weight
// terms (`if (w == 0.0) continue`) while the vector fold always accumulates
// them; adding ±0.0 to an accumulator that is never -0.0 (sums of
// probability products starting from +0.0 cannot produce -0.0) is
// bit-neutral, so results still match EXPECT_EQ with no tolerance —
// tests/epp/simd_kernels_test.cpp pins every kernel against the scalar fold
// across all gate types and symbol combinations. The build also disables
// floating-point contraction (-ffp-contract=off, see CMakeLists.txt) so
// codegen cannot fuse a*b+c differently between the two paths.
//
// Path selection: EppOptions::simd, per engine. Its default is this build's
// enabled() — the lane-plane kernels, unless configured with
// -DSEREEP_NO_SIMD=ON (defines the SEREEP_NO_SIMD macro), which defaults
// every engine to the scalar per-lane path; the kernels stay compiled
// (tests still pin them). Both paths are bit-identical, so the setting is
// observable only in timing.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>

#include "src/epp/prob4.hpp"
#include "src/netlist/gate.hpp"

#if defined(__GNUC__) || defined(__clang__)
#define SEREEP_RESTRICT __restrict__
#define SEREEP_VEC_EXT 1
#define SEREEP_ALWAYS_INLINE inline __attribute__((always_inline))
#else
#define SEREEP_RESTRICT
#define SEREEP_ALWAYS_INLINE inline
#endif

namespace sereep::simd {

/// Lane-group granularity: blocks hold whole groups of this many lanes, and
/// every kernel operates on whole groups, so all vector ops have
/// compile-time width.
inline constexpr std::size_t kLaneWidth = 8;

/// Doubles per lane group of a block: the group's four symbol vectors.
inline constexpr std::size_t kGroupSize = kSymCount * kLaneWidth;

/// Bit g set = lane group [g * kLaneWidth, (g + 1) * kLaneWidth) holds at
/// least one member lane. With kMaxLanes = 64 there are at most 8 groups.
using GroupMask = std::uint32_t;

/// Groups touched by a 64-bit lane-membership mask.
[[nodiscard]] inline GroupMask active_groups(std::uint64_t lane_mask) noexcept {
  constexpr std::size_t kGroups = 64 / kLaneWidth;
  constexpr std::uint64_t kGroupBits = (std::uint64_t{1} << kLaneWidth) - 1;
  GroupMask g = 0;
  for (std::size_t i = 0; i < kGroups; ++i) {
    if ((lane_mask >> (i * kLaneWidth)) & kGroupBits) g |= GroupMask{1} << i;
  }
  return g;
}

/// The build's default kernel path, which EppOptions::simd starts from:
/// true runs the lane-plane kernels, false the bit-identical scalar
/// per-lane path.
[[nodiscard]] constexpr bool enabled() noexcept {
#ifdef SEREEP_NO_SIMD
  return false;
#else
  return true;
#endif
}

// ---- the 8-wide value type -------------------------------------------------

/// One lane group of doubles. All operators are element-wise IEEE double
/// arithmetic — on GCC/Clang they lower directly to packed instructions
/// (split across registers as the ISA requires), elsewhere to plain loops.
struct Pack {
#ifdef SEREEP_VEC_EXT
  typedef double V __attribute__((vector_size(kLaneWidth * sizeof(double)),
                                  aligned(8)));
  typedef std::int64_t M __attribute__((vector_size(kLaneWidth * 8),
                                        aligned(8)));
  V v;
#else
  double v[kLaneWidth];
#endif

  [[nodiscard]] static SEREEP_ALWAYS_INLINE Pack load(const double* p) noexcept {
    Pack r;
    std::memcpy(&r.v, p, sizeof r.v);
    return r;
  }
  SEREEP_ALWAYS_INLINE void store(double* p) const noexcept { std::memcpy(p, &v, sizeof v); }
  [[nodiscard]] static SEREEP_ALWAYS_INLINE Pack broadcast(double x) noexcept {
    Pack r;
    for (std::size_t k = 0; k < kLaneWidth; ++k) r.v[k] = x;
    return r;
  }
  /// Per-lane select from an 8-bit mask: bit k set reads src[k], clear
  /// reads the broadcast constant (the on/off-path blend).
  [[nodiscard]] static SEREEP_ALWAYS_INLINE Pack blend(std::uint64_t bits, const double* src,
                                  double off) noexcept {
    Pack r;
#ifdef SEREEP_VEC_EXT
    const Pack s = load(src);
    M m;
    for (std::size_t k = 0; k < kLaneWidth; ++k) {
      m[k] = -static_cast<std::int64_t>((bits >> k) & 1);
    }
    r.v = m ? s.v : broadcast(off).v;
#else
    for (std::size_t k = 0; k < kLaneWidth; ++k) {
      r.v[k] = (bits >> k) & 1 ? src[k] : off;
    }
#endif
    return r;
  }

  friend SEREEP_ALWAYS_INLINE Pack operator+(Pack a, Pack b) noexcept {
#ifdef SEREEP_VEC_EXT
    a.v = a.v + b.v;
#else
    for (std::size_t k = 0; k < kLaneWidth; ++k) a.v[k] += b.v[k];
#endif
    return a;
  }
  friend SEREEP_ALWAYS_INLINE Pack operator-(Pack a, Pack b) noexcept {
#ifdef SEREEP_VEC_EXT
    a.v = a.v - b.v;
#else
    for (std::size_t k = 0; k < kLaneWidth; ++k) a.v[k] -= b.v[k];
#endif
    return a;
  }
  friend SEREEP_ALWAYS_INLINE Pack operator*(Pack a, Pack b) noexcept {
#ifdef SEREEP_VEC_EXT
    a.v = a.v * b.v;
#else
    for (std::size_t k = 0; k < kLaneWidth; ++k) a.v[k] *= b.v[k];
#endif
    return a;
  }
};

// ---- lane-plane addressing -------------------------------------------------
//
// A "block" is one slot's distributions for every lane of a cluster: one
// lane group after another, kGroupSize doubles each, and within a group the
// four symbol vectors back to back (s indexed by Sym): group g starts at
// g * kGroupSize, and its symbol s at g * kGroupSize + s * kLaneWidth, so a
// gate's read of one fanin group touches four adjacent cache lines.

/// Doubles in a block that covers `lanes` lanes (whole groups).
[[nodiscard]] constexpr std::size_t block_size(std::size_t lanes) noexcept {
  return (lanes + kLaneWidth - 1) / kLaneWidth * kGroupSize;
}

/// Offset of lane `lane`'s symbol `sym` in a block.
[[nodiscard]] constexpr std::size_t lane_offset(std::size_t lane,
                                                int sym) noexcept {
  return lane / kLaneWidth * kGroupSize +
         static_cast<std::size_t>(sym) * kLaneWidth + lane % kLaneWidth;
}

/// One gate input as the kernels see it: a source block for on-path lanes
/// plus a broadcast off-path distribution for the rest. `src` may be null
/// when no lane is on-path (`on` == 0). The engine widens `on` with the
/// gate's don't-care lanes (lanes the gate does not belong to — their
/// outputs are never read), which turns the common chain/funnel case into a
/// whole-group load instead of a per-lane blend.
struct FaninLanes {
  const double* src = nullptr;  ///< fanin's block, or nullptr
  std::uint64_t on = 0;         ///< lanes reading src; others read `off`
  Prob4 off;                    ///< off-path distribution (broadcast)
};

namespace detail {

constexpr int sym_i(Sym s) noexcept { return static_cast<int>(s); }

/// Plane permutation of prob4_not: 0 <-> 1, a <-> ā. Writing through the
/// permutation is the vector form of the scalar swap (pure data movement).
constexpr int not_sym(int s) noexcept {
  return sym_i(sym_not(static_cast<Sym>(s)));
}

/// sym_combine(kXor, x, y) as a flat table, generated from the same symbol
/// algebra the scalar fold uses.
struct XorTable {
  int c[kSymCount][kSymCount] = {};
  constexpr XorTable() {
    for (int x = 0; x < kSymCount; ++x) {
      for (int y = 0; y < kSymCount; ++y) {
        c[x][y] = sym_i(sym_combine(GateType::kXor, static_cast<Sym>(x),
                                    static_cast<Sym>(y)));
      }
    }
  }
};
inline constexpr XorTable kXorTable{};

/// Loads one symbol vector of lane group `g`, blended: on-path lanes read
/// the source block, the rest the broadcast constant. Whole-group fast paths
/// (all-on after don't-care widening — the chain/funnel common case — and
/// all-off) skip the per-lane select.
[[nodiscard]] static SEREEP_ALWAYS_INLINE Pack load_group(const FaninLanes& in,
                                                          int sym,
                                                          std::size_t g) {
  constexpr std::uint64_t kGroupBits = (std::uint64_t{1} << kLaneWidth) - 1;
  const double off = in.off.p[sym];
  const std::uint64_t on =
      in.src == nullptr ? 0 : (in.on >> (g * kLaneWidth)) & kGroupBits;
  if (on == 0) return Pack::broadcast(off);
  const double* src =
      in.src + g * kGroupSize + static_cast<std::size_t>(sym) * kLaneWidth;
  if (on == kGroupBits) return Pack::load(src);
  return Pack::blend(on, src, off);
}

/// Index of the lowest active group of `gm`.
[[nodiscard]] static SEREEP_ALWAYS_INLINE std::size_t first_group(
    GroupMask gm) noexcept {
  return static_cast<std::size_t>(std::countr_zero(gm));
}

}  // namespace detail

/// Writes the error-site seed (Pa = 1, rest 0) into one lane of a block —
/// the constant the scalar path seeds before its pass; applied after the
/// vector kernel so the site's own lane is never the kernel's output.
static inline void seed_error_lane(double* block, std::size_t lane) noexcept {
  const Prob4 seed = Prob4::error_site();
  for (int s = 0; s < kSymCount; ++s) block[lane_offset(lane, s)] = seed.p[s];
}

/// dst = src for every active lane group, all four symbols (the DFF sink
/// copy; pure data movement).
static inline void copy_groups(double* SEREEP_RESTRICT dst,
                               const double* SEREEP_RESTRICT src,
                               GroupMask active) {
  for (GroupMask gm = active; gm != 0; gm &= gm - 1) {
    const std::size_t at = detail::first_group(gm) * kGroupSize;
    std::memcpy(dst + at, src + at, kGroupSize * sizeof(double));
  }
}

// ---- gate kernels ----------------------------------------------------------
//
// Each kernel mirrors one dispatch arm of prob4_propagate and touches only
// the active lane groups. `out` never aliases a fanin block (a gate never
// reads its own slot).

/// BUF: out = blended input (scalar: prob4_closed_form returns inputs[0]).
static inline void gate_buf(double* SEREEP_RESTRICT out, const FaninLanes& in,
                            GroupMask active) {
  for (GroupMask gm = active; gm != 0; gm &= gm - 1) {
    const std::size_t g = detail::first_group(gm);
    double* o = out + g * kGroupSize;
    for (int s = 0; s < kSymCount; ++s) {
      detail::load_group(in, s, g)
          .store(o + static_cast<std::size_t>(s) * kLaneWidth);
    }
  }
}

/// NOT: out = prob4_not(blended input) — symbol permutation, no arithmetic.
static inline void gate_not(double* SEREEP_RESTRICT out, const FaninLanes& in,
                            GroupMask active) {
  for (GroupMask gm = active; gm != 0; gm &= gm - 1) {
    const std::size_t g = detail::first_group(gm);
    double* o = out + g * kGroupSize;
    for (int s = 0; s < kSymCount; ++s) {
      detail::load_group(in, s, g)
          .store(o + static_cast<std::size_t>(detail::not_sym(s)) * kLaneWidth);
    }
  }
}

/// AND / NAND / OR / NOR — the closed-form Table-1 products, lane-parallel.
/// Replicates prob4_closed_form exactly per lane: the three running products
/// start at the first input's values (bit-equal to the scalar's 1.0 * x),
/// multiply in fanin order, and the NAND/NOR inversion is the prob4_not
/// symbol swap applied at the write.
static inline void gate_and_or(GateType type, double* SEREEP_RESTRICT out,
                               const FaninLanes* fanins, std::size_t nf,
                               GroupMask active) {
  const bool is_or = type == GateType::kOr || type == GateType::kNor;
  const bool inverted = output_inverted(type);
  // AND row folds over one()/a()/abar(); OR row over zero()/a()/abar().
  const int keep = detail::sym_i(is_or ? Sym::kZero : Sym::kOne);
  const int sym_a = detail::sym_i(Sym::kA);
  const int sym_abar = detail::sym_i(Sym::kABar);
  const auto out_sym = [&](Sym s) {
    const int idx =
        inverted ? detail::not_sym(detail::sym_i(s)) : detail::sym_i(s);
    return static_cast<std::size_t>(idx) * kLaneWidth;
  };
  const std::size_t o_keep = out_sym(is_or ? Sym::kZero : Sym::kOne);
  const std::size_t o_a = out_sym(Sym::kA);
  const std::size_t o_abar = out_sym(Sym::kABar);
  const std::size_t o_rest = out_sym(is_or ? Sym::kOne : Sym::kZero);
  const Pack one = Pack::broadcast(1.0);

  for (GroupMask gm = active; gm != 0; gm &= gm - 1) {
    const std::size_t g = detail::first_group(gm);
    Pack in_k = detail::load_group(fanins[0], keep, g);
    Pack p_keep = in_k;
    Pack p_a = in_k + detail::load_group(fanins[0], sym_a, g);
    Pack p_abar = in_k + detail::load_group(fanins[0], sym_abar, g);
    for (std::size_t i = 1; i < nf; ++i) {
      in_k = detail::load_group(fanins[i], keep, g);
      p_keep = p_keep * in_k;
      p_a = p_a * (in_k + detail::load_group(fanins[i], sym_a, g));
      p_abar = p_abar * (in_k + detail::load_group(fanins[i], sym_abar, g));
    }
    const Pack a = p_a - p_keep;
    const Pack ab = p_abar - p_keep;
    double* SEREEP_RESTRICT o = out + g * kGroupSize;
    p_keep.store(o + o_keep);
    a.store(o + o_a);
    ab.store(o + o_abar);
    (one - ((p_keep + a) + ab)).store(o + o_rest);
  }
}

/// XOR / XNOR — pairwise symbol-algebra fold, lane-parallel. Same (x, y)
/// term order as the scalar fold_core; the zero-weight skip is dropped
/// (bit-neutral, see file comment). XNOR applies the prob4_not symbol
/// permutation at the final write.
static inline void gate_xor(GateType type, double* SEREEP_RESTRICT out,
                            const FaninLanes* fanins, std::size_t nf,
                            GroupMask active) {
  const bool inverted = output_inverted(type);
  for (GroupMask gm = active; gm != 0; gm &= gm - 1) {
    const std::size_t g = detail::first_group(gm);
    Pack acc[kSymCount];
    for (int s = 0; s < kSymCount; ++s) {
      acc[s] = detail::load_group(fanins[0], s, g);
    }
    for (std::size_t i = 1; i < nf; ++i) {
      Pack in[kSymCount];
      for (int s = 0; s < kSymCount; ++s) {
        in[s] = detail::load_group(fanins[i], s, g);
      }
      Pack next[kSymCount] = {Pack::broadcast(0.0), Pack::broadcast(0.0),
                              Pack::broadcast(0.0), Pack::broadcast(0.0)};
      for (int x = 0; x < kSymCount; ++x) {
        for (int y = 0; y < kSymCount; ++y) {
          Pack& ns = next[detail::kXorTable.c[x][y]];
          ns = ns + acc[x] * in[y];
        }
      }
      for (int s = 0; s < kSymCount; ++s) acc[s] = next[s];
    }
    double* o = out + g * kGroupSize;
    for (int s = 0; s < kSymCount; ++s) {
      const int d = inverted ? detail::not_sym(s) : s;
      acc[s].store(o + static_cast<std::size_t>(d) * kLaneWidth);
    }
  }
}

/// Electrical-masking attenuation (EppOptions::electrical_survival < 1),
/// lane-parallel. Mirrors the scalar post-processing exactly: killed mass is
/// computed from the pre-scale a/ā values, then redistributed by the node's
/// signal probability.
static inline void attenuate(double* SEREEP_RESTRICT block, double survival,
                             double sp_one, GroupMask active) {
  const auto at = [](Sym s) {
    return static_cast<std::size_t>(detail::sym_i(s)) * kLaneWidth;
  };
  const Pack sv = Pack::broadcast(survival);
  const Pack died = Pack::broadcast(1.0 - survival);
  const Pack w1 = Pack::broadcast(sp_one);
  const Pack w0 = Pack::broadcast(1.0 - sp_one);
  for (GroupMask gm = active; gm != 0; gm &= gm - 1) {
    double* grp = block + detail::first_group(gm) * kGroupSize;
    double* pa = grp + at(Sym::kA);
    double* pabar = grp + at(Sym::kABar);
    double* pone = grp + at(Sym::kOne);
    double* pzero = grp + at(Sym::kZero);
    const Pack a = Pack::load(pa);
    const Pack ab = Pack::load(pabar);
    const Pack killed = (a + ab) * died;
    (a * sv).store(pa);
    (ab * sv).store(pabar);
    (Pack::load(pone) + killed * w1).store(pone);
    (Pack::load(pzero) + killed * w0).store(pzero);
  }
}

/// Full per-gate dispatch, mirroring prob4_propagate's arms. Gate types that
/// cannot appear as a non-site cone member (sources, DFF — handled by the
/// engine) are excluded by construction.
static inline void propagate_gate(GateType type, double* SEREEP_RESTRICT out,
                                  const FaninLanes* fanins, std::size_t nf,
                                  GroupMask active) {
  switch (type) {
    case GateType::kBuf:
      gate_buf(out, fanins[0], active);
      return;
    case GateType::kNot:
      gate_not(out, fanins[0], active);
      return;
    case GateType::kAnd:
    case GateType::kNand:
    case GateType::kOr:
    case GateType::kNor:
      gate_and_or(type, out, fanins, nf, active);
      return;
    default:
      gate_xor(type, out, fanins, nf, active);
      return;
  }
}

}  // namespace sereep::simd
