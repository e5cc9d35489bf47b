#include "stats/simd.h"

#include <bit>
#include <cmath>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define TRADEPLOT_X86 1
#else
#define TRADEPLOT_X86 0
#endif

namespace tradeplot::stats::simd {

namespace {

std::uint64_t sum_u64_scalar(const std::uint64_t* a, std::size_t n) {
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < n; ++i) sum += a[i];
  return sum;
}

std::size_t count_nonzero_u8_scalar(const std::uint8_t* a, std::size_t n) {
  std::size_t count = 0;
  for (std::size_t i = 0; i < n; ++i) count += a[i] != 0;
  return count;
}

#if TRADEPLOT_X86

bool detect_avx2() { return __builtin_cpu_supports("avx2") != 0; }

__attribute__((target("avx2"))) std::uint64_t sum_u64_avx2(const std::uint64_t* a,
                                                           std::size_t n) {
  // Two 4-wide accumulators hide the vpaddq latency; u64 addition wraps the
  // same way in every order, so the reassociation is bit-exact.
  __m256i acc0 = _mm256_setzero_si256();
  __m256i acc1 = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc0 = _mm256_add_epi64(
        acc0, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i)));
    acc1 = _mm256_add_epi64(
        acc1, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i + 4)));
  }
  for (; i + 4 <= n; i += 4) {
    acc0 = _mm256_add_epi64(
        acc0, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i)));
  }
  const __m256i acc = _mm256_add_epi64(acc0, acc1);
  alignas(32) std::uint64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
  std::uint64_t sum = lanes[0] + lanes[1] + lanes[2] + lanes[3];
  for (; i < n; ++i) sum += a[i];
  return sum;
}

__attribute__((target("avx2"))) std::size_t count_nonzero_u8_avx2(const std::uint8_t* a,
                                                                  std::size_t n) {
  // cmpeq-to-zero + movemask yields one bit per *zero* byte; popcount the
  // mask and subtract from the lane width.
  const __m256i zero = _mm256_setzero_si256();
  std::size_t nonzero = 0;
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const unsigned mask =
        static_cast<unsigned>(_mm256_movemask_epi8(_mm256_cmpeq_epi8(v, zero)));
    nonzero += 32u - static_cast<unsigned>(__builtin_popcount(mask));
  }
  for (; i < n; ++i) nonzero += a[i] != 0;
  return nonzero;
}

#endif

// One presorted-EMD merge sweep over raw SoA storage — the exact operation
// sequence of emd_1d_presorted, restated over (base + offset, len) slices so
// the scalar fallback of emd_sweep_x4 and the per-lane AVX2 replay are
// op-for-op identical to the reference kernel.
double emd_sweep_one(const double* positions, const double* weights, std::uint64_t a_off,
                     std::uint64_t a_len, std::uint64_t b_off, std::uint64_t b_len) {
  const double* pa = positions + a_off;
  const double* wa = weights + a_off;
  const double* pb = positions + b_off;
  const double* wb = weights + b_off;
  const std::uint64_t total = a_len + b_len;
  double emd = 0.0;
  double carried = 0.0;
  double prev_pos = (pb[0] < pa[0]) ? pb[0] : pa[0];
  std::uint64_t i = 0, j = 0;
  const auto select = [](std::uint64_t m, double x, double y) {
    return std::bit_cast<double>((std::bit_cast<std::uint64_t>(x) & m) |
                                 (std::bit_cast<std::uint64_t>(y) & ~m));
  };
  for (std::uint64_t k = 0; k < total; ++k) {
    const double ap = pa[i];
    const double bp = pb[j];
    const std::uint64_t take_b = -static_cast<std::uint64_t>(bp < ap);
    const double pos = select(take_b, bp, ap);
    emd += std::abs(carried) * (pos - prev_pos);
    carried += select(take_b, -wb[j], wa[i]);
    j += take_b & 1u;
    i += ~take_b & 1u;
    prev_pos = pos;
  }
  return emd;
}

void emd_sweep_x4_scalar(const double* positions, const double* weights,
                         const std::uint64_t* a_off, const std::uint64_t* a_len,
                         const std::uint64_t* b_off, const std::uint64_t* b_len,
                         double* out) {
  for (int l = 0; l < 4; ++l) {
    out[l] = emd_sweep_one(positions, weights, a_off[l], a_len[l], b_off[l], b_len[l]);
  }
}

#if TRADEPLOT_X86

__attribute__((target("avx2"))) void emd_sweep_x4_avx2(
    const double* positions, const double* weights, const std::uint64_t* a_off,
    const std::uint64_t* a_len, const std::uint64_t* b_off, const std::uint64_t* b_len,
    double* out) {
  // Four merge sweeps, one per lane, advanced in lockstep. A lane whose
  // total is exhausted freezes: its `active` mask zeroes gap and weight-delta
  // contributions (adding +0.0 to a nonnegative accumulator is a bitwise
  // no-op) and holds its cursors still, while the other lanes keep sweeping.
  // Each active lane's arithmetic is the exact per-step operation sequence of
  // emd_1d_presorted: same single-rounded sub/mul/add, same a-wins-ties
  // select, so every out[l] matches the scalar kernel bit for bit.
  const __m256d sign = _mm256_set1_pd(-0.0);
  __m256i ia = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a_off));
  __m256i ib = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b_off));
  const __m256i la = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a_len));
  const __m256i lb = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b_len));
  const __m256i total = _mm256_add_epi64(la, lb);
  std::uint64_t max_total = 0;
  for (int l = 0; l < 4; ++l) {
    const std::uint64_t t = a_len[l] + b_len[l];
    if (t > max_total) max_total = t;
  }
  const __m256d pa0 = _mm256_i64gather_pd(positions, ia, 8);
  const __m256d pb0 = _mm256_i64gather_pd(positions, ib, 8);
  __m256d prev = _mm256_blendv_pd(pa0, pb0, _mm256_cmp_pd(pb0, pa0, _CMP_LT_OQ));
  __m256d emd = _mm256_setzero_pd();
  __m256d carried = _mm256_setzero_pd();
  __m256i k = _mm256_setzero_si256();
  const __m256i one = _mm256_set1_epi64x(1);
  for (std::uint64_t step = 0; step < max_total; ++step) {
    const __m256d active = _mm256_castsi256_pd(_mm256_cmpgt_epi64(total, k));
    const __m256d ap = _mm256_i64gather_pd(positions, ia, 8);
    const __m256d bp = _mm256_i64gather_pd(positions, ib, 8);
    const __m256d take_b = _mm256_cmp_pd(bp, ap, _CMP_LT_OQ);
    const __m256d pos = _mm256_blendv_pd(ap, bp, take_b);
    // Frozen lanes sit on their +inf sentinels: pos - prev may be inf or
    // inf - inf = NaN there, and the bitwise AND with the zero mask turns
    // either into exactly +0.0 before it can reach the accumulator.
    const __m256d gap = _mm256_and_pd(_mm256_sub_pd(pos, prev), active);
    emd = _mm256_add_pd(emd, _mm256_mul_pd(_mm256_andnot_pd(sign, carried), gap));
    const __m256d wa = _mm256_i64gather_pd(weights, ia, 8);
    const __m256d wb = _mm256_i64gather_pd(weights, ib, 8);
    const __m256d delta = _mm256_blendv_pd(wa, _mm256_xor_pd(wb, sign), take_b);
    carried = _mm256_add_pd(carried, _mm256_and_pd(delta, active));
    // An all-ones mask is -1 as i64; subtracting it advances the cursor.
    const __m256i step_b = _mm256_castpd_si256(_mm256_and_pd(take_b, active));
    const __m256i step_a = _mm256_castpd_si256(_mm256_andnot_pd(take_b, active));
    ib = _mm256_sub_epi64(ib, step_b);
    ia = _mm256_sub_epi64(ia, step_a);
    prev = _mm256_blendv_pd(prev, pos, active);
    k = _mm256_add_epi64(k, one);
  }
  _mm256_storeu_pd(out, emd);
}

#endif

using SumU64Kernel = std::uint64_t (*)(const std::uint64_t*, std::size_t);
using CountU8Kernel = std::size_t (*)(const std::uint8_t*, std::size_t);
using EmdX4Kernel = void (*)(const double*, const double*, const std::uint64_t*,
                             const std::uint64_t*, const std::uint64_t*,
                             const std::uint64_t*, double*);

SumU64Kernel sum_u64_kernel() {
#if TRADEPLOT_X86
  static const SumU64Kernel k = detect_avx2() ? &sum_u64_avx2 : &sum_u64_scalar;
#else
  static const SumU64Kernel k = &sum_u64_scalar;
#endif
  return k;
}

CountU8Kernel count_nonzero_u8_kernel() {
#if TRADEPLOT_X86
  static const CountU8Kernel k =
      detect_avx2() ? &count_nonzero_u8_avx2 : &count_nonzero_u8_scalar;
#else
  static const CountU8Kernel k = &count_nonzero_u8_scalar;
#endif
  return k;
}

EmdX4Kernel emd_x4_kernel() {
#if TRADEPLOT_X86
  static const EmdX4Kernel k = detect_avx2() ? &emd_sweep_x4_avx2 : &emd_sweep_x4_scalar;
#else
  static const EmdX4Kernel k = &emd_sweep_x4_scalar;
#endif
  return k;
}

}  // namespace

std::uint64_t sum_u64(const std::uint64_t* a, std::size_t n) {
  return sum_u64_kernel()(a, n);
}

std::size_t count_nonzero_u8(const std::uint8_t* a, std::size_t n) {
  return count_nonzero_u8_kernel()(a, n);
}

void emd_sweep_x4(const double* positions, const double* weights,
                  const std::uint64_t* a_off, const std::uint64_t* a_len,
                  const std::uint64_t* b_off, const std::uint64_t* b_len, double* out) {
  emd_x4_kernel()(positions, weights, a_off, a_len, b_off, b_len, out);
}

}  // namespace tradeplot::stats::simd
