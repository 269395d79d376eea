#include "vectordb/kernels.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>

#include "obs/metrics.h"

#if defined(__x86_64__) || defined(_M_X64)
#define LLMDM_KERNELS_X86 1
#include <immintrin.h>
#endif
#if defined(__aarch64__)
#define LLMDM_KERNELS_NEON 1
#include <arm_neon.h>
#endif

namespace llmdm::vectordb::kernels {

namespace {

// ---------------------------------------------------------------------------
// Portable scalar kernels: the reference implementation of the 16-lane
// reduction contract. The inner loops carry 16 independent accumulators, so
// the auto-vectorizer may legally turn them into SIMD without reassociating
// anything — the result is the same bit pattern either way.
// ---------------------------------------------------------------------------

float DotScalar(const float* a, const float* b, size_t n) {
  float s[16] = {0.0f};
  const size_t n16 = n & ~static_cast<size_t>(15);
  for (size_t i = 0; i < n16; i += 16) {
    for (size_t j = 0; j < 16; ++j) s[j] += a[i + j] * b[i + j];
  }
  float t[8];
  for (size_t j = 0; j < 8; ++j) t[j] = s[j] + s[j + 8];
  float u[4];
  for (size_t m = 0; m < 4; ++m) u[m] = t[m] + t[m + 4];
  float total = (u[0] + u[2]) + (u[1] + u[3]);
  for (size_t i = n16; i < n; ++i) total += a[i] * b[i];
  return total;
}

int32_t DotI8Scalar(const int8_t* a, const int8_t* b, size_t n) {
  int32_t acc = 0;
  for (size_t i = 0; i < n; ++i) {
    acc += static_cast<int32_t>(a[i]) * static_cast<int32_t>(b[i]);
  }
  return acc;
}

// ---------------------------------------------------------------------------
// AVX2 kernels. Compiled with a function-level target attribute so the rest
// of the library keeps the baseline ISA; only ever called after
// __builtin_cpu_supports("avx2") succeeded. Multiply and add stay separate
// instructions (no FMA) to preserve the per-lane rounding the scalar
// fallback performs.
// ---------------------------------------------------------------------------

#if LLMDM_KERNELS_X86

/// Finishes one dot product from its two 8-lane accumulators (acc0 holds
/// lanes s[0..7], acc1 s[8..15]) through the contract's tree — t[j] = s[j] +
/// s[j+8], u[m] = t[m] + t[m+4], total = (u0+u2) + (u1+u3) — then adds the
/// ragged tail a[n16..n) · b[n16..n) sequentially.
__attribute__((target("avx2"))) inline float FinishDotAvx2(
    __m256 acc0, __m256 acc1, const float* a, const float* b, size_t n16,
    size_t n) {
  __m256 t = _mm256_add_ps(acc0, acc1);
  __m128 w = _mm_add_ps(_mm256_castps256_ps128(t),
                        _mm256_extractf128_ps(t, 1));
  alignas(16) float u[4];
  _mm_store_ps(u, w);
  float total = (u[0] + u[2]) + (u[1] + u[3]);
  for (size_t i = n16; i < n; ++i) total += a[i] * b[i];
  return total;
}

__attribute__((target("avx2"))) float DotAvx2(const float* a, const float* b,
                                              size_t n) {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  const size_t n16 = n & ~static_cast<size_t>(15);
  for (size_t i = 0; i < n16; i += 16) {
    acc0 = _mm256_add_ps(
        acc0, _mm256_mul_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i)));
    acc1 = _mm256_add_ps(acc1, _mm256_mul_ps(_mm256_loadu_ps(a + i + 8),
                                             _mm256_loadu_ps(b + i + 8)));
  }
  return FinishDotAvx2(acc0, acc1, a, b, n16, n);
}

/// DotBatch four rows per pass. A single row's dot is a chain of dependent
/// adds per accumulator; four rows give eight independent chains, and each
/// query load feeds all four. Every row keeps its own two accumulators and
/// its own reduction and tail, in DotAvx2's order, so out[r] is
/// bit-identical to DotAvx2(query, row r). Leftover rows go through DotAvx2.
__attribute__((target("avx2"))) void DotBatchAvx2(const float* query,
                                                  const float* base,
                                                  size_t count, size_t dim,
                                                  float* out) {
  const size_t n16 = dim & ~static_cast<size_t>(15);
  size_t r = 0;
  for (; r + 4 <= count; r += 4) {
    const float* row0 = base + r * dim;
    const float* row1 = row0 + dim;
    const float* row2 = row1 + dim;
    const float* row3 = row2 + dim;
    __m256 lo0 = _mm256_setzero_ps(), hi0 = _mm256_setzero_ps();
    __m256 lo1 = _mm256_setzero_ps(), hi1 = _mm256_setzero_ps();
    __m256 lo2 = _mm256_setzero_ps(), hi2 = _mm256_setzero_ps();
    __m256 lo3 = _mm256_setzero_ps(), hi3 = _mm256_setzero_ps();
    for (size_t i = 0; i < n16; i += 16) {
      const __m256 q_lo = _mm256_loadu_ps(query + i);
      const __m256 q_hi = _mm256_loadu_ps(query + i + 8);
      lo0 = _mm256_add_ps(lo0, _mm256_mul_ps(q_lo, _mm256_loadu_ps(row0 + i)));
      hi0 = _mm256_add_ps(hi0,
                          _mm256_mul_ps(q_hi, _mm256_loadu_ps(row0 + i + 8)));
      lo1 = _mm256_add_ps(lo1, _mm256_mul_ps(q_lo, _mm256_loadu_ps(row1 + i)));
      hi1 = _mm256_add_ps(hi1,
                          _mm256_mul_ps(q_hi, _mm256_loadu_ps(row1 + i + 8)));
      lo2 = _mm256_add_ps(lo2, _mm256_mul_ps(q_lo, _mm256_loadu_ps(row2 + i)));
      hi2 = _mm256_add_ps(hi2,
                          _mm256_mul_ps(q_hi, _mm256_loadu_ps(row2 + i + 8)));
      lo3 = _mm256_add_ps(lo3, _mm256_mul_ps(q_lo, _mm256_loadu_ps(row3 + i)));
      hi3 = _mm256_add_ps(hi3,
                          _mm256_mul_ps(q_hi, _mm256_loadu_ps(row3 + i + 8)));
    }
    out[r] = FinishDotAvx2(lo0, hi0, query, row0, n16, dim);
    out[r + 1] = FinishDotAvx2(lo1, hi1, query, row1, n16, dim);
    out[r + 2] = FinishDotAvx2(lo2, hi2, query, row2, n16, dim);
    out[r + 3] = FinishDotAvx2(lo3, hi3, query, row3, n16, dim);
  }
  for (; r < count; ++r) out[r] = DotAvx2(query, base + r * dim, dim);
}

/// Sums the eight int32 lanes of `acc`.
__attribute__((target("avx2"))) inline int32_t HorizontalSumAvx2(__m256i acc) {
  __m128i s = _mm_add_epi32(_mm256_castsi256_si128(acc),
                            _mm256_extracti128_si256(acc, 1));
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(1, 0, 3, 2)));
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(2, 3, 0, 1)));
  return _mm_cvtsi128_si32(s);
}

__attribute__((target("avx2"))) int32_t DotI8Avx2(const int8_t* a,
                                                  const int8_t* b, size_t n) {
  __m256i acc = _mm256_setzero_si256();
  const size_t n16 = n & ~static_cast<size_t>(15);
  for (size_t i = 0; i < n16; i += 16) {
    __m256i va = _mm256_cvtepi8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i)));
    __m256i vb = _mm256_cvtepi8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + i)));
    acc = _mm256_add_epi32(acc, _mm256_madd_epi16(va, vb));
  }
  int32_t total = HorizontalSumAvx2(acc);
  for (size_t i = n16; i < n; ++i) {
    total += static_cast<int32_t>(a[i]) * static_cast<int32_t>(b[i]);
  }
  return total;
}

/// Adds q·b over 32 codes to the eight int32 lanes of `acc`. maddubs
/// multiplies unsigned by signed bytes, so the query enters as |q| and the
/// row as sign(b, q) (b negated where q < 0, zeroed where q == 0): |q|·sign(b,
/// q) = q·b. Codes lie in [-127, 127], so the negation never overflows and a
/// pair sum is at most 2·127² < 2^15: maddubs never saturates.
__attribute__((target("avx2"))) inline __m256i StepI8Avx2(__m256i acc,
                                                          __m256i q_abs,
                                                          __m256i q,
                                                          const int8_t* b) {
  const __m256i pairs = _mm256_maddubs_epi16(
      q_abs,
      _mm256_sign_epi8(_mm256_loadu_si256(reinterpret_cast<const __m256i*>(b)),
                       q));
  return _mm256_add_epi32(acc, _mm256_madd_epi16(pairs, _mm256_set1_epi16(1)));
}

/// Finishes one row: the lanes of `acc`, plus the tail a[n32..n) · b[n32..n).
__attribute__((target("avx2"))) inline int32_t FinishI8Avx2(__m256i acc,
                                                            const int8_t* a,
                                                            const int8_t* b,
                                                            size_t n32,
                                                            size_t n) {
  int32_t total = HorizontalSumAvx2(acc);
  for (size_t i = n32; i < n; ++i) {
    total += static_cast<int32_t>(a[i]) * static_cast<int32_t>(b[i]);
  }
  return total;
}

/// DotBatchI8 four rows per pass, 32 codes per step (StepI8Avx2); each
/// query load feeds four rows. Integer sums do not depend on order, so every
/// result equals DotI8Scalar. Leftover rows go through DotI8Avx2.
__attribute__((target("avx2"))) void DotBatchI8Avx2(const int8_t* query,
                                                    const int8_t* base,
                                                    size_t count, size_t dim,
                                                    int32_t* out) {
  const size_t n32 = dim & ~static_cast<size_t>(31);
  size_t r = 0;
  for (; r + 4 <= count; r += 4) {
    const int8_t* row0 = base + r * dim;
    const int8_t* row1 = row0 + dim;
    const int8_t* row2 = row1 + dim;
    const int8_t* row3 = row2 + dim;
    __m256i acc0 = _mm256_setzero_si256(), acc1 = _mm256_setzero_si256();
    __m256i acc2 = _mm256_setzero_si256(), acc3 = _mm256_setzero_si256();
    for (size_t i = 0; i < n32; i += 32) {
      const __m256i q =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(query + i));
      const __m256i q_abs = _mm256_abs_epi8(q);
      acc0 = StepI8Avx2(acc0, q_abs, q, row0 + i);
      acc1 = StepI8Avx2(acc1, q_abs, q, row1 + i);
      acc2 = StepI8Avx2(acc2, q_abs, q, row2 + i);
      acc3 = StepI8Avx2(acc3, q_abs, q, row3 + i);
    }
    out[r] = FinishI8Avx2(acc0, query, row0, n32, dim);
    out[r + 1] = FinishI8Avx2(acc1, query, row1, n32, dim);
    out[r + 2] = FinishI8Avx2(acc2, query, row2, n32, dim);
    out[r + 3] = FinishI8Avx2(acc3, query, row3, n32, dim);
  }
  for (; r < count; ++r) out[r] = DotI8Avx2(query, base + r * dim, dim);
}

#endif  // LLMDM_KERNELS_X86

// ---------------------------------------------------------------------------
// NEON kernels (aarch64 baseline — no runtime probe needed).
// ---------------------------------------------------------------------------

#if LLMDM_KERNELS_NEON

float DotNeon(const float* a, const float* b, size_t n) {
  float32x4_t acc0 = vdupq_n_f32(0), acc1 = vdupq_n_f32(0);
  float32x4_t acc2 = vdupq_n_f32(0), acc3 = vdupq_n_f32(0);
  const size_t n16 = n & ~static_cast<size_t>(15);
  for (size_t i = 0; i < n16; i += 16) {
    acc0 = vaddq_f32(acc0, vmulq_f32(vld1q_f32(a + i), vld1q_f32(b + i)));
    acc1 = vaddq_f32(acc1,
                     vmulq_f32(vld1q_f32(a + i + 4), vld1q_f32(b + i + 4)));
    acc2 = vaddq_f32(acc2,
                     vmulq_f32(vld1q_f32(a + i + 8), vld1q_f32(b + i + 8)));
    acc3 = vaddq_f32(acc3,
                     vmulq_f32(vld1q_f32(a + i + 12), vld1q_f32(b + i + 12)));
  }
  // acc0 holds lanes s[0..3], acc1 s[4..7], acc2 s[8..11], acc3 s[12..15]:
  // t[0..3] = acc0+acc2, t[4..7] = acc1+acc3, u = (acc0+acc2)+(acc1+acc3).
  float32x4_t w = vaddq_f32(vaddq_f32(acc0, acc2), vaddq_f32(acc1, acc3));
  float u[4];
  vst1q_f32(u, w);
  float total = (u[0] + u[2]) + (u[1] + u[3]);
  for (size_t i = n16; i < n; ++i) total += a[i] * b[i];
  return total;
}

int32_t DotI8Neon(const int8_t* a, const int8_t* b, size_t n) {
  int32x4_t acc = vdupq_n_s32(0);
  const size_t n16 = n & ~static_cast<size_t>(15);
  for (size_t i = 0; i < n16; i += 16) {
    int8x16_t va = vld1q_s8(a + i);
    int8x16_t vb = vld1q_s8(b + i);
    int16x8_t lo = vmull_s8(vget_low_s8(va), vget_low_s8(vb));
    int16x8_t hi = vmull_s8(vget_high_s8(va), vget_high_s8(vb));
    acc = vpadalq_s16(acc, lo);
    acc = vpadalq_s16(acc, hi);
  }
  int32_t total = vaddvq_s32(acc);
  for (size_t i = n16; i < n; ++i) {
    total += static_cast<int32_t>(a[i]) * static_cast<int32_t>(b[i]);
  }
  return total;
}

#endif  // LLMDM_KERNELS_NEON

DispatchLevel DetectDispatch() {
#if defined(LLMDM_FORCE_SCALAR)
  return DispatchLevel::kScalar;
#elif LLMDM_KERNELS_X86
  return __builtin_cpu_supports("avx2") ? DispatchLevel::kAvx2
                                        : DispatchLevel::kScalar;
#elif LLMDM_KERNELS_NEON
  return DispatchLevel::kNeon;
#else
  return DispatchLevel::kScalar;
#endif
}

std::atomic<int> g_pinned{-1};

using DotFn = float (*)(const float*, const float*, size_t);
using DotI8Fn = int32_t (*)(const int8_t*, const int8_t*, size_t);
using DotBatchFn = void (*)(const float*, const float*, size_t, size_t,
                            float*);
using DotBatchI8Fn = void (*)(const int8_t*, const int8_t*, size_t, size_t,
                              int32_t*);

DotFn ResolveDot(DispatchLevel level) {
  switch (level) {
#if LLMDM_KERNELS_X86
    case DispatchLevel::kAvx2:
      return DotAvx2;
#endif
#if LLMDM_KERNELS_NEON
    case DispatchLevel::kNeon:
      return DotNeon;
#endif
    default:
      return DotScalar;
  }
}

/// The per-row loop: the scalar reference for DotBatch, and NEON's batch
/// path (a multi-row NEON variant would need an aarch64 host to check its
/// parity).
template <DotFn kDot>
void DotBatchPerRow(const float* query, const float* base, size_t count,
                    size_t dim, float* out) {
  for (size_t r = 0; r < count; ++r) out[r] = kDot(query, base + r * dim, dim);
}

DotBatchFn ResolveDotBatch(DispatchLevel level) {
  switch (level) {
#if LLMDM_KERNELS_X86
    case DispatchLevel::kAvx2:
      return DotBatchAvx2;
#endif
#if LLMDM_KERNELS_NEON
    case DispatchLevel::kNeon:
      return DotBatchPerRow<DotNeon>;
#endif
    default:
      return DotBatchPerRow<DotScalar>;
  }
}

/// The per-row loop: the scalar reference for DotBatchI8, and NEON's batch
/// path.
template <DotI8Fn kDotI8>
void DotBatchI8PerRow(const int8_t* query, const int8_t* base, size_t count,
                      size_t dim, int32_t* out) {
  for (size_t r = 0; r < count; ++r) {
    out[r] = kDotI8(query, base + r * dim, dim);
  }
}

DotBatchI8Fn ResolveDotBatchI8(DispatchLevel level) {
  switch (level) {
#if LLMDM_KERNELS_X86
    case DispatchLevel::kAvx2:
      return DotBatchI8Avx2;
#endif
#if LLMDM_KERNELS_NEON
    case DispatchLevel::kNeon:
      return DotBatchI8PerRow<DotI8Neon>;
#endif
    default:
      return DotBatchI8PerRow<DotI8Scalar>;
  }
}

}  // namespace

DispatchLevel ActiveDispatch() {
  int pinned = g_pinned.load(std::memory_order_relaxed);
  if (pinned >= 0) return static_cast<DispatchLevel>(pinned);
  static const DispatchLevel detected = DetectDispatch();
  return detected;
}

bool SupportsDispatch(DispatchLevel level) {
  switch (level) {
    case DispatchLevel::kScalar:
      return true;
    case DispatchLevel::kAvx2:
#if LLMDM_KERNELS_X86
      return __builtin_cpu_supports("avx2") != 0;
#else
      return false;
#endif
    case DispatchLevel::kNeon:
#if LLMDM_KERNELS_NEON
      return true;
#else
      return false;
#endif
  }
  return false;
}

const char* DispatchName(DispatchLevel level) {
  switch (level) {
    case DispatchLevel::kScalar:
      return "scalar";
    case DispatchLevel::kAvx2:
      return "avx2";
    case DispatchLevel::kNeon:
      return "neon";
  }
  return "unknown";
}

void PinDispatchForTesting(DispatchLevel level) {
  if (!SupportsDispatch(level)) return;
  g_pinned.store(static_cast<int>(level), std::memory_order_relaxed);
}

void UnpinDispatchForTesting() {
  g_pinned.store(-1, std::memory_order_relaxed);
}

void ExportDispatchMetrics(obs::Registry* registry) {
  const DispatchLevel active = ActiveDispatch();
  for (DispatchLevel level : {DispatchLevel::kScalar, DispatchLevel::kAvx2,
                              DispatchLevel::kNeon}) {
    registry
        ->GetGauge("llmdm_kernel_dispatch_level",
                   {{"level", DispatchName(level)}})
        ->Set(level == active ? 1 : 0);
  }
}

float Dot(const float* a, const float* b, size_t n) {
  return ResolveDot(ActiveDispatch())(a, b, n);
}

void DotBatch(const float* query, const float* base, size_t count, size_t dim,
              float* out) {
  ResolveDotBatch(ActiveDispatch())(query, base, count, dim, out);
}

void QuantizeSymmetric(const float* v, size_t n, int8_t* codes, float* scale) {
  // Eight running maxima break the dependency chain; max is exact, so the
  // split changes nothing.
  float lane_max[8] = {0.0f};
  const size_t n8 = n & ~static_cast<size_t>(7);
  for (size_t i = 0; i < n8; i += 8) {
    for (size_t j = 0; j < 8; ++j) {
      lane_max[j] = std::max(lane_max[j], std::fabs(v[i + j]));
    }
  }
  float max_abs = 0.0f;
  for (float m : lane_max) max_abs = std::max(max_abs, m);
  for (size_t i = n8; i < n; ++i) max_abs = std::max(max_abs, std::fabs(v[i]));
  const float inv = 127.0f / max_abs;
  if (!std::isfinite(inv)) {
    // The zero vector, or one so small that 127/max overflows: no code can
    // represent it.
    if (n > 0) std::memset(codes, 0, n);
    *scale = 0.0f;
    return;
  }
  *scale = max_abs / 127.0f;
  // Adding and subtracting 1.5·2^23 rounds |x| < 2^22 to the nearest
  // integer, ties to even, as lrintf does under the default rounding mode,
  // without a library call per element. |v[i]·inv| <= 127·(1+2^-24)^2 <
  // 127.5, so the rounded value lies in [-127, 127] and needs no clamp.
  constexpr float kRound = 12582912.0f;
  for (size_t i = 0; i < n; ++i) {
    const float rounded = (v[i] * inv + kRound) - kRound;
    codes[i] = static_cast<int8_t>(static_cast<int32_t>(rounded));
  }
}

void DotBatchI8(const int8_t* query, const int8_t* base, size_t count,
                size_t dim, int32_t* out) {
  ResolveDotBatchI8(ActiveDispatch())(query, base, count, dim, out);
}

}  // namespace llmdm::vectordb::kernels
