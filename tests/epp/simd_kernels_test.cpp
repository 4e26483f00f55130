// Unit pins for the lane-plane SIMD kernels (src/util/simd.hpp).
//
// Contract: for every lane of every active group, a kernel's output equals
// the scalar gate_rules path (prob4_propagate — closed form for the
// AND/OR/NOT/BUF families, symbol-algebra fold for XOR/XNOR) applied to
// that lane's blended inputs, EXPECT_EQ on all four Prob4 components with
// no tolerance. The sweep covers every combinational gate type × a pool of
// symbol-combination distributions (pure symbols, exact-zero masses, the
// error-site seed, off-path corners, random mixtures), arities 1..4, random
// on/off-path masks, multi-group blocks with inactive-group skipping, and
// the attenuation kernel. Blocks are addressed through simd::lane_offset,
// the engine's group-contiguous layout.
#include "src/util/simd.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "src/epp/gate_rules.hpp"
#include "src/epp/prob4.hpp"
#include "src/util/rng.hpp"

namespace sereep {
namespace {

constexpr GateType kCombTypes[] = {GateType::kBuf, GateType::kNot,
                                   GateType::kAnd, GateType::kNand,
                                   GateType::kOr,  GateType::kNor,
                                   GateType::kXor, GateType::kXnor};

/// Distribution pool spanning the symbol combinations the engines produce:
/// the four pure symbols, the error-site seed, off-path corners (sp = 0, 1,
/// 0.5), exact a/ā cancellation pairs, and a seeded random mixture slot
/// (index 9) refreshed per draw.
Prob4 pure(Sym s) {
  Prob4 d;
  d[s] = 1.0;
  return d;
}

Prob4 random_mix(Rng& rng) {
  Prob4 d;
  double total = 0.0;
  for (int s = 0; s < kSymCount; ++s) {
    d.p[s] = rng.uniform();
    total += d.p[s];
  }
  for (int s = 0; s < kSymCount; ++s) d.p[s] /= total;
  // Sprinkle exact zeros so the scalar fold's zero-skip paths are hit.
  if (rng.below(3) == 0) d.p[rng.below(kSymCount)] = 0.0;
  return d;
}

Prob4 draw(Rng& rng) {
  switch (rng.below(10)) {
    case 0: return pure(Sym::kZero);
    case 1: return pure(Sym::kOne);
    case 2: return pure(Sym::kA);
    case 3: return pure(Sym::kABar);
    case 4: return Prob4::error_site();
    case 5: return Prob4::off_path(0.0);
    case 6: return Prob4::off_path(1.0);
    case 7: return Prob4::off_path(0.5);
    case 8: {
      Prob4 d;  // exact a/ā split — the polarity-cancellation corner
      d[Sym::kA] = 0.5;
      d[Sym::kABar] = 0.5;
      return d;
    }
    default: return random_mix(rng);
  }
}

/// One randomized fanin: a lane-plane block + on-mask + off constant.
struct TestFanin {
  std::vector<double> block;  ///< simd::block_size(lanes) doubles
  simd::FaninLanes lanes;
  std::vector<Prob4> per_lane;  ///< ground truth per lane
};

TestFanin make_fanin(Rng& rng, std::size_t lanes) {
  TestFanin f;
  f.block.assign(simd::block_size(lanes), 0.0);
  f.per_lane.resize(lanes);
  f.lanes.off = Prob4::off_path(rng.uniform());
  std::uint64_t on = 0;
  for (std::size_t l = 0; l < lanes; ++l) {
    const Prob4 d = draw(rng);
    for (int s = 0; s < kSymCount; ++s) {
      f.block[simd::lane_offset(l, s)] = d.p[s];
    }
    const bool on_path = rng.below(2) == 0;
    if (on_path) on |= std::uint64_t{1} << l;
    f.per_lane[l] = on_path ? d : f.lanes.off;
  }
  f.lanes.on = on;
  f.lanes.src = on != 0 ? f.block.data() : nullptr;
  return f;
}

class SimdGateKernel : public ::testing::TestWithParam<GateType> {};

TEST_P(SimdGateKernel, MatchesScalarGateRulesPerLane) {
  const GateType type = GetParam();
  const std::size_t max_arity =
      (type == GateType::kBuf || type == GateType::kNot) ? 1 : 4;
  Rng rng(0xC0FFEE ^ static_cast<std::uint64_t>(type));
  for (const std::size_t width : {std::size_t{8}, std::size_t{24}}) {
    // Skip a group on the wide block to exercise inactive-group masking.
    const simd::GroupMask active =
        width == 8 ? 0b1 : 0b101;  // groups {0} / {0, 2}
    for (std::size_t arity = 1; arity <= max_arity; ++arity) {
      for (int round = 0; round < 8; ++round) {
        std::vector<TestFanin> fanins;
        std::vector<simd::FaninLanes> lanes;
        for (std::size_t i = 0; i < arity; ++i) {
          fanins.push_back(make_fanin(rng, width));
        }
        for (const TestFanin& f : fanins) lanes.push_back(f.lanes);

        // Poison the output so untouched (inactive-group) lanes are visible.
        std::vector<double> out(simd::block_size(width), -7.0);
        simd::propagate_gate(type, out.data(), lanes.data(), lanes.size(),
                             active);

        std::vector<Prob4> scratch(arity);
        for (std::size_t l = 0; l < width; ++l) {
          const bool lane_active =
              (active >> (l / simd::kLaneWidth)) & 1;
          if (!lane_active) {
            for (int s = 0; s < kSymCount; ++s) {
              EXPECT_EQ(out[simd::lane_offset(l, s)], -7.0)
                  << "inactive group written, lane " << l;
            }
            continue;
          }
          for (std::size_t i = 0; i < arity; ++i) {
            scratch[i] = fanins[i].per_lane[l];
          }
          const Prob4 want = prob4_propagate(type, scratch);
          for (int s = 0; s < kSymCount; ++s) {
            EXPECT_EQ(out[simd::lane_offset(l, s)], want.p[s])
                << gate_type_name(type) << " arity " << arity << " lane " << l
                << " sym " << s;
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllGateTypes, SimdGateKernel,
                         ::testing::ValuesIn(kCombTypes),
                         [](const ::testing::TestParamInfo<GateType>& info) {
                           return std::string(gate_type_name(info.param));
                         });

TEST(SimdKernels, AttenuateMatchesScalarPostprocessing) {
  Rng rng(77);
  const std::size_t width = 16;
  for (const double survival : {0.5, 0.9, 0.999}) {
    for (int round = 0; round < 8; ++round) {
      const double sp_one = rng.uniform();
      std::vector<double> block(simd::block_size(width));
      std::vector<Prob4> lanes(width);
      for (std::size_t l = 0; l < width; ++l) {
        lanes[l] = random_mix(rng);
        for (int s = 0; s < kSymCount; ++s) {
          block[simd::lane_offset(l, s)] = lanes[l].p[s];
        }
      }
      simd::attenuate(block.data(), survival, sp_one, 0b11);
      for (std::size_t l = 0; l < width; ++l) {
        Prob4 want = lanes[l];
        const double killed = want.error_mass() * (1.0 - survival);
        want[Sym::kA] *= survival;
        want[Sym::kABar] *= survival;
        want[Sym::kOne] += killed * sp_one;
        want[Sym::kZero] += killed * (1.0 - sp_one);
        for (int s = 0; s < kSymCount; ++s) {
          EXPECT_EQ(block[simd::lane_offset(l, s)], want.p[s])
              << "survival " << survival << " lane " << l;
        }
      }
    }
  }
}

TEST(SimdKernels, SeedAndCopyAreExactDataMovement) {
  const std::size_t width = 16;
  std::vector<double> src(simd::block_size(width));
  std::vector<double> dst(simd::block_size(width), -1.0);
  Rng rng(5);
  for (double& v : src) v = rng.uniform();
  simd::copy_groups(dst.data(), src.data(), 0b10);  // group 1 only
  for (std::size_t l = 0; l < width; ++l) {
    for (int s = 0; s < kSymCount; ++s) {
      const std::size_t i = simd::lane_offset(l, s);
      EXPECT_EQ(dst[i], l >= simd::kLaneWidth ? src[i] : -1.0);
    }
  }
  simd::seed_error_lane(dst.data(), 3);
  const Prob4 seed = Prob4::error_site();
  for (int s = 0; s < kSymCount; ++s) {
    EXPECT_EQ(dst[simd::lane_offset(3, s)], seed.p[s]);
  }
}

}  // namespace
}  // namespace sereep
