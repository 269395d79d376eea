#ifndef LLMDM_VECTORDB_KERNELS_H_
#define LLMDM_VECTORDB_KERNELS_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace llmdm::obs {
class Registry;
}  // namespace llmdm::obs

namespace llmdm::vectordb::kernels {

// ---------------------------------------------------------------------------
// Dispatch
//
// One implementation level is detected at startup (AVX2 on x86-64, NEON on
// aarch64, portable scalar otherwise or under -DLLMDM_FORCE_SCALAR=ON) and
// every kernel routes through it. All float kernels obey a *lane-equivalent
// reduction contract*: elements are accumulated into 16 independent partial
// sums (lane j takes elements i with i % 16 == j over the full 16-element
// blocks), reduced through a fixed tree — (s[j]+s[j+8]), then (t[m]+t[m+4]),
// then (u0+u2)+(u1+u3) — with the ragged tail added sequentially last. The
// scalar fallback performs the same operations in the same order, so results
// are bit-identical across dispatch levels on any one input. This is what
// lets the byte-equality suites (Tables I–III, determinism tests) hold
// regardless of the host ISA. Kernels never use FMA: fused multiply-add
// rounds once instead of twice and would break the contract.
// ---------------------------------------------------------------------------

enum class DispatchLevel : int {
  kScalar = 0,  // portable 16-lane fallback (auto-vectorizes safely)
  kAvx2 = 1,    // x86-64 AVX2 (no FMA, see contract above)
  kNeon = 2,    // aarch64 NEON baseline
};

/// The level all kernels currently route through (detected once, or the
/// pinned override).
DispatchLevel ActiveDispatch();

/// True if `level` can execute on this host/build.
bool SupportsDispatch(DispatchLevel level);

/// "scalar" / "avx2" / "neon".
const char* DispatchName(DispatchLevel level);

/// Pins every kernel to `level` until Unpin. Test-only: parity suites pin
/// kScalar and compare against the auto-detected level. Pinning an
/// unsupported level is ignored (kernels would fault); check
/// SupportsDispatch first.
void PinDispatchForTesting(DispatchLevel level);
void UnpinDispatchForTesting();

/// Exports the active dispatch level into `registry` as the gauge
/// `llmdm_kernel_dispatch_level{level=...}` (1 on the active level, 0 on the
/// others), so perf exports record which code path produced them.
void ExportDispatchMetrics(obs::Registry* registry);

// ---------------------------------------------------------------------------
// float32 kernels
// ---------------------------------------------------------------------------

/// Dot product of a[0..n) · b[0..n) under the lane-equivalent contract.
float Dot(const float* a, const float* b, size_t n);

/// out[r] = Dot(query, base + r*dim, dim) for r in [0, count). `base` is a
/// contiguous row-major matrix. The dispatch branch is resolved once for the
/// whole batch. On AVX2 rows run four per pass (each query load feeds four
/// rows), each row bit-identical to Dot; scalar and NEON run one row at a
/// time.
void DotBatch(const float* query, const float* base, size_t count, size_t dim,
              float* out);

// ---------------------------------------------------------------------------
// int8 symmetric scalar quantization
//
// code[i] = round_to_nearest_even(v[i] * (127 / max_abs)), which lies in
// [-127, 127]; scale = max_abs / 127. Reconstruction error per element is at
// most scale/2. A vector that no code can represent (the zero vector, or
// one so small that 127 / max_abs overflows) gets all-zero codes and scale
// 0. Integer dot accumulation is exact, so int8 dots are bit-identical
// across every dispatch level by construction (integer addition is
// associative). approx_dot(a, b) = (codes_a · codes_b) * scale_a * scale_b.
// ---------------------------------------------------------------------------

/// Quantizes the finite values v[0..n) into codes[0..n) and writes the
/// per-vector scale.
void QuantizeSymmetric(const float* v, size_t n, int8_t* codes, float* scale);

/// out[r] = the exact int32 dot of query[0..dim) and base[r*dim..(r+1)*dim)
/// for r in [0, count), exact while dim * 127^2 < 2^31, with the dispatch
/// branch resolved once for the whole batch — the scan of every FlatIndex
/// search. Raw integer accumulators; the caller applies the scales. On AVX2
/// rows run four per pass, 32 codes per step (_mm256_maddubs_epi16 on
/// |query| and sign(row, query)); scalar and NEON run one row at a time.
/// Codes must lie in [-127, 127], as QuantizeSymmetric writes them: -128
/// would overflow the sign flip.
void DotBatchI8(const int8_t* query, const int8_t* base, size_t count,
                size_t dim, int32_t* out);

// ---------------------------------------------------------------------------
// Bounded top-k selection
// ---------------------------------------------------------------------------

struct ScoredId {
  float score = 0.0f;
  uint64_t id = 0;
};

/// Streaming top-k under the library-wide result order (score desc, id asc):
/// selects exactly what partial_sort over the full candidate list would,
/// without materializing it. O(1) rejection once the heap is warm — a
/// candidate no better than the current k-th is a single compare — so a scan
/// over N rows costs O(N + k log k) in the typical sorted-ish case instead
/// of the old score-all + sort.
class TopKSelector {
 public:
  explicit TopKSelector(size_t k) : k_(k) { heap_.reserve(k); }

  void Offer(float score, uint64_t id) {
    if (k_ == 0) return;
    if (heap_.size() < k_) {
      heap_.push_back(ScoredId{score, id});
      std::push_heap(heap_.begin(), heap_.end(), BestFirst);
      return;
    }
    // Heap front is the worst retained candidate (BestFirst as heap
    // comparator puts the least element on top of a max-heap of "badness").
    const ScoredId& worst = heap_.front();
    if (score < worst.score ||
        (score == worst.score && id > worst.id)) {
      return;
    }
    std::pop_heap(heap_.begin(), heap_.end(), BestFirst);
    heap_.back() = ScoredId{score, id};
    std::push_heap(heap_.begin(), heap_.end(), BestFirst);
  }

  /// Returns the retained candidates best-first and leaves the selector
  /// empty.
  std::vector<ScoredId> TakeSorted() {
    std::sort(heap_.begin(), heap_.end(), BestFirst);
    return std::move(heap_);
  }

  size_t size() const { return heap_.size(); }

 private:
  static bool BestFirst(const ScoredId& a, const ScoredId& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.id < b.id;
  }

  size_t k_;
  std::vector<ScoredId> heap_;
};

}  // namespace llmdm::vectordb::kernels

#endif  // LLMDM_VECTORDB_KERNELS_H_
