// Runtime-dispatched SIMD kernels: the θ_hm four-lane EMD sweep and the
// integer column reductions of the columnar flow-batch scans.
//
// Each kernel is selected once per process at first use: an AVX2
// implementation (compiled with a per-function target attribute, so the rest
// of the build stays baseline-ISA) when the CPU supports it, the scalar loop
// otherwise. Every kernel here is bit-identical to its scalar loop on every
// machine, so all of them are safe in verdict-bearing paths.
#pragma once

#include <cstddef>
#include <cstdint>

namespace tradeplot::stats::simd {

// Integer column reductions for the columnar flow-batch scans (FlowBatch
// counter/state columns, bench_io's feature-scan profile). Integer addition
// is exactly associative, so the vector forms' reassociation is bit-exact.

/// Σ a[i] over n contiguous u64 (wrapping, like the scalar loop would).
[[nodiscard]] std::uint64_t sum_u64(const std::uint64_t* a, std::size_t n);

/// Number of nonzero bytes in a[0..n).
[[nodiscard]] std::size_t count_nonzero_u8(const std::uint8_t* a, std::size_t n);

/// Four presorted-EMD merge sweeps at once over FlatSignatureSet-style
/// storage: lane l sweeps the slice pair
///   a_l = (positions + a_off[l], weights + a_off[l], a_len[l])
///   b_l = (positions + b_off[l], weights + b_off[l], b_len[l])
/// and out[l] receives a value bit-identical to emd_1d_presorted(a_l, b_l).
/// The four sweeps run in the four vector lanes; each lane replays the exact
/// floating-point operation sequence of emd_1d_presorted (same sub/mul/add
/// per step, ties broken identically), with exhausted lanes frozen by masking
/// their per-step contributions to +0.0, which leaves a nonnegative
/// accumulator bit-unchanged. Every lane must have a_len/b_len >= 1 and the
/// one-past-end +inf sentinel slot FlatSignatureSet packs after each slice.
/// Always writes out[0..3].
void emd_sweep_x4(const double* positions, const double* weights,
                  const std::uint64_t* a_off, const std::uint64_t* a_len,
                  const std::uint64_t* b_off, const std::uint64_t* b_len, double* out);

}  // namespace tradeplot::stats::simd
