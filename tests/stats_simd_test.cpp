// Bit-identity contract of the four-lane EMD sweep (stats/simd.h), which is
// verdict-bearing: each lane must reproduce emd_1d_presorted exactly, ties
// and single-point signatures included. Every test here recomputes the
// scalar reference inline and compares bitwise.
#include "stats/simd.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "stats/emd.h"
#include "stats/flat_signature.h"
#include "util/rng.h"

namespace tradeplot::stats {
namespace {

bool bit_equal(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

// Random signatures with deliberately tied positions across lanes — the EMD
// merge sweep's tie-breaking (a before b) is part of the bit contract.
std::vector<Signature> sweep_population(util::Pcg32& rng, std::size_t n) {
  std::vector<Signature> sigs;
  sigs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Signature s;
    const auto points = static_cast<std::size_t>(rng.uniform_int(1, 20));
    for (std::size_t k = 0; k < points; ++k) {
      // Coarse grid positions: many exact cross-signature ties.
      s.push_back({static_cast<double>(rng.uniform_int(0, 12)) * 7.5, rng.uniform(0.1, 2.0)});
    }
    sigs.push_back(std::move(s));
  }
  sigs[0] = {{30.0, 1.0}};  // single-point signature: minimal lane length
  if (n > 2) sigs[2] = sigs[1];
  return sigs;
}

TEST(SimdEmdSweepX4, LanesBitIdenticalToScalarKernel) {
  util::Pcg32 rng(0x51D5);
  const std::vector<Signature> sigs = sweep_population(rng, 24);
  const FlatSignatureSet flat(sigs, 1);
  std::size_t a4[4];
  std::size_t b4[4];
  double out4[4];
  for (int round = 0; round < 200; ++round) {
    for (std::size_t l = 0; l < 4; ++l) {
      a4[l] = static_cast<std::size_t>(rng.uniform_int(0, 23));
      b4[l] = static_cast<std::size_t>(rng.uniform_int(0, 23));
    }
    flat.emd_x4(a4, b4, out4);
    for (std::size_t l = 0; l < 4; ++l) {
      const double ref = emd_1d_presorted(flat.view(a4[l]), flat.view(b4[l]));
      ASSERT_TRUE(bit_equal(out4[l], ref))
          << "round=" << round << " lane=" << l << " a=" << a4[l] << " b=" << b4[l];
    }
  }
}

TEST(SimdEmdSweepX4, MixedLaneLengthsIncludingSingletons) {
  // All four lanes pair the single-point signature against progressively
  // longer ones — exercises frozen-lane masking when short lanes exhaust
  // while long lanes keep sweeping.
  util::Pcg32 rng(0x51D6);
  const std::vector<Signature> sigs = sweep_population(rng, 16);
  const FlatSignatureSet flat(sigs, 1);
  const std::size_t a4[4] = {0, 0, 0, 0};  // the singleton
  const std::size_t b4[4] = {1, 5, 9, 13};
  double out4[4];
  flat.emd_x4(a4, b4, out4);
  for (std::size_t l = 0; l < 4; ++l) {
    const double ref = emd_1d_presorted(flat.view(a4[l]), flat.view(b4[l]));
    ASSERT_TRUE(bit_equal(out4[l], ref)) << "lane=" << l;
  }
}

}  // namespace
}  // namespace tradeplot::stats
