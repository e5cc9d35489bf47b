#include "util/checksum.h"

#include <array>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define TRADEPLOT_X86 1
#else
#define TRADEPLOT_X86 0
#endif

namespace tradeplot::util {

namespace {

constexpr std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    table[i] = c;
  }
  return table;
}

constexpr std::array<std::uint32_t, 256> kCrcTable = make_crc_table();

/// One table lookup per byte, on the inverted running state: short inputs,
/// the fold's tail and CPUs without PCLMUL.
std::uint32_t crc32_bytewise(const unsigned char* p, std::size_t n, std::uint32_t crc) {
  for (std::size_t i = 0; i < n; ++i) crc = kCrcTable[(crc ^ p[i]) & 0xFFu] ^ (crc >> 8);
  return crc;
}

#if TRADEPLOT_X86

/// The fold loads four 16-byte lanes before its first step; shorter inputs
/// stay on the bytewise loop.
constexpr std::size_t kFoldMinBytes = 64;

bool detect_pclmul() {
  return __builtin_cpu_supports("pclmul") != 0 && __builtin_cpu_supports("sse4.1") != 0;
}

__attribute__((target("pclmul,sse4.1"))) inline __m128i load16(const unsigned char* at) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(at));
}

/// a·k_lo ⊕ a·k_hi ⊕ next: lane `a` carried forward over the distance that
/// the constant pair `k` encodes, then the data it lands on.
__attribute__((target("pclmul,sse4.1"))) inline __m128i fold16(__m128i a, __m128i k,
                                                                __m128i next) {
  return _mm_xor_si128(
      _mm_xor_si128(_mm_clmulepi64_si128(a, k, 0x00), _mm_clmulepi64_si128(a, k, 0x11)), next);
}

/// Carry-less-multiply folding (Gopal et al., "Fast CRC Computation for
/// Generic Polynomials Using PCLMULQDQ Instruction", Intel 2009) with the
/// bit-reflected constants for 0xEDB88320 given at the end of that paper:
/// four 128-bit lanes fold 64 bytes per step (k1, k2 = x^(4·128±32) mod P),
/// then fold into one lane (k3, k4), reduce 128 → 64 bits (k5), and a
/// Barrett reduction (P', μ) gives the 32-bit remainder. `n` is a multiple of
/// 16 and at least 64; `crc` and the result are the inverted running state.
__attribute__((target("pclmul,sse4.1"))) std::uint32_t crc32_fold(const unsigned char* p,
                                                                  std::size_t n,
                                                                  std::uint32_t crc) {
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i mask32 = _mm_setr_epi32(~0, 0, ~0, 0);

  __m128i x1 = _mm_xor_si128(load16(p), _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x2 = load16(p + 16);
  __m128i x3 = load16(p + 32);
  __m128i x4 = load16(p + 48);
  p += 64;
  n -= 64;
  for (; n >= 64; p += 64, n -= 64) {
    x1 = fold16(x1, k1k2, load16(p));
    x2 = fold16(x2, k1k2, load16(p + 16));
    x3 = fold16(x3, k1k2, load16(p + 32));
    x4 = fold16(x4, k1k2, load16(p + 48));
  }

  x1 = fold16(x1, k3k4, x2);
  x1 = fold16(x1, k3k4, x3);
  x1 = fold16(x1, k3k4, x4);
  for (; n >= 16; p += 16, n -= 16) x1 = fold16(x1, k3k4, load16(p));

  // 128 → 64 bits, then 64 → 32 bits with k5.
  __m128i t = _mm_clmulepi64_si128(x1, k3k4, 0x10);
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), t);
  t = _mm_srli_si128(x1, 4);
  x1 = _mm_xor_si128(_mm_clmulepi64_si128(_mm_and_si128(x1, mask32), k5, 0x00), t);

  // Barrett reduction to the 32-bit remainder.
  t = _mm_clmulepi64_si128(_mm_and_si128(x1, mask32), poly, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, mask32), poly, 0x00);
  x1 = _mm_xor_si128(x1, t);
  return static_cast<std::uint32_t>(_mm_extract_epi32(x1, 1));
}

#endif  // TRADEPLOT_X86

}  // namespace

std::uint32_t crc32(const void* data, std::size_t n, std::uint32_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t crc = seed ^ 0xFFFFFFFFu;
#if TRADEPLOT_X86
  if (n >= kFoldMinBytes) {
    static const bool has_pclmul = detect_pclmul();
    if (has_pclmul) {
      const std::size_t folded = n & ~std::size_t{15};
      crc = crc32_fold(p, folded, crc);
      p += folded;
      n -= folded;
    }
  }
#endif
  return crc32_bytewise(p, n, crc) ^ 0xFFFFFFFFu;
}

}  // namespace tradeplot::util
