#include "nn/tensor.h"

// This translation unit must be compiled with floating-point contraction
// disabled (-ffp-contract=off, set in src/nn/CMakeLists.txt): the blocked
// kernels are bit-exact against the naive references only if the compiler
// never fuses their mul+add chains into FMAs. The avx512 float tiles
// additionally pin fp-contract=off at function level because their target
// attribute enables FMA hardware. The only FMAs are the explicit intrinsics
// of the TransposedB double tiles, which are exact (see the GEMM contract).

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstring>
#include <memory>
#include <mutex>
#include <stdexcept>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

#include "util/thread_pool.h"

namespace agsc::nn {

// ---------------------------------------------------------------------------
// Thread-local buffer pool
//
// Tensor element storage cycles at graph-node frequency during training —
// every op result, every gradient, every minibatch slice. The pool keeps
// freed vectors in per-thread power-of-two size classes so steady-state
// training performs no heap traffic for tensor data: an optimize epoch is
// O(1) heap allocations after warm-up (asserted in nn_kernel_test).
//
// Determinism: pooling only recycles capacity; every acquired buffer is
// fully overwritten via assign(), so values never depend on pool state.
// ---------------------------------------------------------------------------

namespace {

// Sanitizer builds keep the instrumented allocator in the loop: pooling
// would otherwise mask use-after-free at the exact layer these builds exist
// to check.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kPoolCompiledIn = false;
#else
constexpr bool kPoolCompiledIn = true;
#endif

constexpr int kNumBuckets = 25;  // size classes 2^0 .. 2^24 floats (64 MiB)
constexpr std::size_t kMaxPooledFloats = std::size_t{1} << (kNumBuckets - 1);
constexpr std::size_t kMaxPerBucket = 64;

int CeilLog2(std::size_t n) {  // n >= 1
  return std::bit_width(n - 1);
}

int FloorLog2(std::size_t n) {  // n >= 1
  return std::bit_width(n) - 1;
}

// Kept outside BufferPool (and trivially destructible) so ReleaseBuffer can
// tell the pool has been torn down regardless of the order thread_local
// destructors run in during thread exit.
thread_local bool t_pool_alive = false;

struct BufferPool {
  std::vector<std::vector<float>> buckets[kNumBuckets];
  internal::BufferPoolStats stats;
  BufferPool() { t_pool_alive = true; }
  ~BufferPool() { t_pool_alive = false; }
};

BufferPool& GetPool() {
  thread_local BufferPool pool;
  return pool;
}

}  // namespace

namespace internal {

bool BufferPoolEnabled() { return kPoolCompiledIn; }

BufferPoolStats GetBufferPoolStats() { return GetPool().stats; }

std::vector<float> AcquireBuffer(std::size_t n, float fill) {
  if (n == 0) return {};
  BufferPool& pool = GetPool();
  ++pool.stats.acquires;
  if (kPoolCompiledIn && n <= kMaxPooledFloats) {
    auto& bucket = pool.buckets[CeilLog2(n)];
    if (!bucket.empty()) {
      std::vector<float> buf = std::move(bucket.back());
      bucket.pop_back();
      ++pool.stats.pool_hits;
      buf.assign(n, fill);  // capacity >= 2^ceil_log2(n) >= n: no realloc
      return buf;
    }
  }
  ++pool.stats.heap_allocs;
  std::vector<float> buf;
  if (kPoolCompiledIn && n <= kMaxPooledFloats) {
    // Reserve the full size class so this buffer satisfies any later
    // request that maps to the same bucket.
    buf.reserve(std::size_t{1} << CeilLog2(n));
  }
  buf.assign(n, fill);
  return buf;
}

void ReleaseBuffer(std::vector<float>&& buffer) noexcept {
  if (!kPoolCompiledIn || !t_pool_alive) return;
  const std::size_t cap = buffer.capacity();
  if (cap == 0 || cap > kMaxPooledFloats) return;
  auto& bucket = GetPool().buckets[FloorLog2(cap)];
  if (bucket.size() >= kMaxPerBucket) return;
  try {
    bucket.push_back(std::move(buffer));
  } catch (...) {
    // Free-list growth failed; just let the buffer die.
  }
}

}  // namespace internal

// ---------------------------------------------------------------------------
// Tensor value semantics over pooled storage
// ---------------------------------------------------------------------------

Tensor::Tensor(int rows, int cols, float fill) : rows_(rows), cols_(cols) {
  // Validate before sizing any storage: a negative dim must throw, not
  // attempt a static_cast<size_t>(-1)-scale allocation.
  if (rows < 0 || cols < 0) {
    throw std::invalid_argument("negative tensor dim");
  }
  data_ = internal::AcquireBuffer(static_cast<std::size_t>(rows) * cols, fill);
}

Tensor::Tensor(const Tensor& other) : rows_(other.rows_), cols_(other.cols_) {
  data_ = internal::AcquireBuffer(other.data_.size(), 0.0f);
  if (!data_.empty()) {
    std::memcpy(data_.data(), other.data_.data(),
                data_.size() * sizeof(float));
  }
}

Tensor::Tensor(Tensor&& other) noexcept
    : rows_(other.rows_), cols_(other.cols_), data_(std::move(other.data_)) {
  other.rows_ = 0;
  other.cols_ = 0;
  other.data_.clear();
}

Tensor& Tensor::operator=(const Tensor& other) {
  if (this == &other) return *this;
  if (data_.size() != other.data_.size()) {
    Tensor tmp(other);
    return *this = std::move(tmp);
  }
  // Same element count: copy in place, no pool round trip.
  rows_ = other.rows_;
  cols_ = other.cols_;
  if (!data_.empty()) {
    std::memcpy(data_.data(), other.data_.data(),
                data_.size() * sizeof(float));
  }
  return *this;
}

Tensor& Tensor::operator=(Tensor&& other) noexcept {
  if (this != &other) {
    internal::ReleaseBuffer(std::move(data_));
    rows_ = other.rows_;
    cols_ = other.cols_;
    data_ = std::move(other.data_);
    other.rows_ = 0;
    other.cols_ = 0;
    other.data_.clear();
  }
  return *this;
}

Tensor::~Tensor() { internal::ReleaseBuffer(std::move(data_)); }

Tensor Tensor::RowVector(const std::vector<float>& values) {
  Tensor t(1, static_cast<int>(values.size()));
  if (!values.empty()) {
    std::memcpy(t.data(), values.data(), values.size() * sizeof(float));
  }
  return t;
}

Tensor Tensor::ColVector(const std::vector<float>& values) {
  Tensor t(static_cast<int>(values.size()), 1);
  if (!values.empty()) {
    std::memcpy(t.data(), values.data(), values.size() * sizeof(float));
  }
  return t;
}

Tensor Tensor::Scalar(float value) {
  Tensor t(1, 1);
  t[0] = value;
  return t;
}

Tensor Tensor::FromRowMajor(int rows, int cols,
                            const std::vector<float>& values) {
  if (rows < 0 || cols < 0) {
    throw std::invalid_argument("negative tensor dim");
  }
  if (static_cast<std::size_t>(rows) * cols != values.size()) {
    throw std::invalid_argument("FromRowMajor: size mismatch");
  }
  Tensor t(rows, cols);
  if (!values.empty()) {
    std::memcpy(t.data(), values.data(), values.size() * sizeof(float));
  }
  return t;
}

Tensor Tensor::Randn(int rows, int cols, util::Rng& rng, float stddev) {
  Tensor t(rows, cols);
  for (int i = 0; i < t.size(); ++i) {
    t[i] = static_cast<float>(rng.Gaussian()) * stddev;
  }
  return t;
}

Tensor Tensor::Uniform(int rows, int cols, util::Rng& rng, float lo,
                       float hi) {
  Tensor t(rows, cols);
  for (int i = 0; i < t.size(); ++i) {
    t[i] = static_cast<float>(rng.Uniform(lo, hi));
  }
  return t;
}

void Tensor::Fill(float value) {
  std::fill(data_.begin(), data_.end(), value);
}

Tensor Tensor::Transposed() const {
  Tensor out(cols_, rows_);
  for (int r = 0; r < rows_; ++r) {
    for (int c = 0; c < cols_; ++c) out(c, r) = (*this)(r, c);
  }
  return out;
}

Tensor Tensor::Row(int r) const {
  if (r < 0 || r >= rows_) {
    throw std::out_of_range("Tensor::Row: index " + std::to_string(r) +
                            " out of range for " + ShapeString());
  }
  Tensor out(1, cols_);
  if (cols_ > 0) {
    std::memcpy(out.data(), data_.data() + static_cast<std::size_t>(r) * cols_,
                cols_ * sizeof(float));
  }
  return out;
}

void Tensor::AddInPlace(const Tensor& other) {
  if (other.rows_ != rows_ || other.cols_ != cols_) {
    throw std::invalid_argument("AddInPlace: shape mismatch " + ShapeString() +
                                " vs " + other.ShapeString());
  }
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
}

void Tensor::Scale(float factor) {
  for (float& x : data_) x *= factor;
}

float Tensor::Sum() const {
  double s = 0.0;
  for (float x : data_) s += x;
  return static_cast<float>(s);
}

float Tensor::Mean() const {
  return data_.empty() ? 0.0f : Sum() / static_cast<float>(data_.size());
}

float Tensor::AbsMax() const {
  float m = 0.0f;
  for (float x : data_) m = std::max(m, std::fabs(x));
  return m;
}

float Tensor::Norm() const {
  double s = 0.0;
  for (float x : data_) s += static_cast<double>(x) * x;
  return static_cast<float>(std::sqrt(s));
}

bool Tensor::SameAs(const Tensor& other) const {
  return rows_ == other.rows_ && cols_ == other.cols_ &&
         std::equal(data_.begin(), data_.end(), other.data_.begin());
}

std::string Tensor::ShapeString() const {
  return std::to_string(rows_) + "x" + std::to_string(cols_);
}

// ---------------------------------------------------------------------------
// GEMM kernels
//
// Determinism contract: every kernel — naive, blocked (any ISA variant,
// full tile or scalar edge), serial or row-partitioned parallel — computes
// each output element C[i][j] through one accumulation chain in ascending-p
// order, starting from 0. Nothing ever splits or reorders a chain, so the
// result bits are identical for every (kernel, tile, thread-count) choice.
// MatMul / MatMulTransposedA accumulate in float; MatMulTransposedB
// accumulates each dot product in double, exactly as the naive reference.
//
// Blocked tiles (per ISA tier: generic, avx2, avx512):
//  - MatMul: 8x32 register tiles; rows below a full 8-row tile (m = 1
//    acting, the m % 8 remainder) take a 1x64 row tile that streams
//    contiguous B rows. Only the last n % 32 (or n % 64) columns run the
//    scalar edge.
//  - MatMulTransposedA: 8x32 tiles plus the scalar edge.
//  - MatMulTransposedB: B is packed once per call into k x 8 panels (panel
//    q holds B rows 8q..8q+7, p-major), which all row chunks then share
//    read-only. Tiles hold 8 A rows x 8 columns of double accumulators;
//    remainder rows use a 1x8 tile over the same panel and the last n % 8
//    columns run a scalar edge.
//
// FMA. The float chains must never be contracted: fma(a, b, s) rounds once
// where s + a*b rounds twice. The avx2/avx512 TransposedB tiles are the one
// exception, and it is exact: a and b are binary32, so their product has at
// most 48 significand bits and an exponent in [-298, 256] — it is exactly
// representable in binary64, i.e. double(a)*double(b) never rounds. Hence
// fma(a, b, s) = round(s + a*b) = s + (a*b) computed as mul-then-add, bit
// for bit (signed zeros included: both round the same exact sum; NaN and
// inf operands give NaN and inf either way).
// ---------------------------------------------------------------------------

namespace internal {

Tensor NaiveMatMul(const Tensor& a, const Tensor& b) {
  if (a.cols() != b.rows()) {
    throw std::invalid_argument("MatMul: inner dims " + a.ShapeString() +
                                " vs " + b.ShapeString());
  }
  Tensor c(a.rows(), b.cols());
  const int m = a.rows(), k = a.cols(), n = b.cols();
  for (int i = 0; i < m; ++i) {
    float* crow = c.data() + static_cast<std::size_t>(i) * n;
    const float* arow = a.data() + static_cast<std::size_t>(i) * k;
    for (int p = 0; p < k; ++p) {
      // No zero-skip here: 0 * NaN must stay NaN so diverging weights are
      // visible to the divergence guard instead of being masked by a zero
      // activation.
      const float av = arow[p];
      const float* brow = b.data() + static_cast<std::size_t>(p) * n;
      for (int j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
  return c;
}

Tensor NaiveMatMulTransposedB(const Tensor& a, const Tensor& b) {
  if (a.cols() != b.cols()) {
    throw std::invalid_argument("MatMulTransposedB: dims " + a.ShapeString() +
                                " vs " + b.ShapeString());
  }
  Tensor c(a.rows(), b.rows());
  const int m = a.rows(), k = a.cols(), n = b.rows();
  for (int i = 0; i < m; ++i) {
    const float* arow = a.data() + static_cast<std::size_t>(i) * k;
    for (int j = 0; j < n; ++j) {
      const float* brow = b.data() + static_cast<std::size_t>(j) * k;
      double s = 0.0;
      for (int p = 0; p < k; ++p) {
        s += static_cast<double>(arow[p]) * brow[p];
      }
      c(i, j) = static_cast<float>(s);
    }
  }
  return c;
}

Tensor NaiveMatMulTransposedA(const Tensor& a, const Tensor& b) {
  if (a.rows() != b.rows()) {
    throw std::invalid_argument("MatMulTransposedA: dims " + a.ShapeString() +
                                " vs " + b.ShapeString());
  }
  Tensor c(a.cols(), b.cols());
  const int m = a.cols(), k = a.rows(), n = b.cols();
  for (int p = 0; p < k; ++p) {
    const float* arow = a.data() + static_cast<std::size_t>(p) * m;
    const float* brow = b.data() + static_cast<std::size_t>(p) * n;
    for (int i = 0; i < m; ++i) {
      const float av = arow[i];  // no zero-skip: see NaiveMatMul
      float* crow = c.data() + static_cast<std::size_t>(i) * n;
      for (int j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
  return c;
}

}  // namespace internal

namespace {

// Ordered by capability: a host that runs a tier runs every lower one.
enum class IsaLevel { kGeneric, kAvx2, kAvx512 };

constexpr const char* kIsaNames[] = {"generic", "avx2", "avx512"};

IsaLevel DetectIsa() {
#if defined(__x86_64__) || defined(__i386__)
  if (__builtin_cpu_supports("avx512f")) return IsaLevel::kAvx512;
  // The avx2 TransposedB tiles use FMA (exact there; see the contract).
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    return IsaLevel::kAvx2;
  }
#endif
  return IsaLevel::kGeneric;
}

IsaLevel HostIsa() {
  static const IsaLevel level = DetectIsa();
  return level;
}

// Tier forced by SetGemmIsaForTesting; -1 selects the host's own.
std::atomic<int> g_isa_override{-1};

IsaLevel Isa() {
  const int forced = g_isa_override.load(std::memory_order_relaxed);
  return forced < 0 ? HostIsa() : static_cast<IsaLevel>(forced);
}

}  // namespace

const char* ActiveGemmIsaName() { return kIsaNames[static_cast<int>(Isa())]; }

namespace internal {

bool SetGemmIsaForTesting(const char* name) {
  if (name == nullptr || *name == '\0') {
    g_isa_override.store(-1, std::memory_order_relaxed);
    return true;
  }
  for (int level = 0; level <= static_cast<int>(HostIsa()); ++level) {
    if (std::strcmp(name, kIsaNames[level]) == 0) {
      g_isa_override.store(level, std::memory_order_relaxed);
      return true;
    }
  }
  return false;
}

}  // namespace internal

namespace {

// --- MatMul family: C[i][j] = sum_p A[i][p]*B[p][j], A is m x k row-major --

constexpr int kMmMr = 8;      // rows per register tile
constexpr int kMmNr = 32;     // cols per register tile
constexpr int kMmRowNr = 64;  // cols per single-row tile

// Full MR x NR register tile, all of k. Each acc[ii][jj] is the complete
// ascending-p chain for one output element.
#define AGSC_MM_TILE_BODY                                                 \
  float acc[MR][NR] = {};                                                 \
  for (int p = 0; p < k; ++p) {                                           \
    const float* brow = b + static_cast<std::size_t>(p) * n + j0;         \
    const float* acol = a + static_cast<std::size_t>(i0) * k + p;         \
    for (int ii = 0; ii < MR; ++ii) {                                     \
      const float av = acol[static_cast<std::size_t>(ii) * k];            \
      for (int jj = 0; jj < NR; ++jj) acc[ii][jj] += av * brow[jj];       \
    }                                                                     \
  }                                                                       \
  for (int ii = 0; ii < MR; ++ii) {                                       \
    float* crow = c + static_cast<std::size_t>(i0 + ii) * n + j0;         \
    for (int jj = 0; jj < NR; ++jj) crow[jj] = acc[ii][jj];               \
  }

template <int MR, int NR>
void MmTileGeneric(const float* a, const float* b, float* c, int k, int n,
                   int i0, int j0) {
  AGSC_MM_TILE_BODY
}

#if defined(__x86_64__) || defined(__i386__)
template <int MR, int NR>
__attribute__((target("avx2"))) void MmTileAvx2(const float* a,
                                                const float* b, float* c,
                                                int k, int n, int i0,
                                                int j0) {
  AGSC_MM_TILE_BODY
}

// avx512f implies FMA hardware; fp-contract must stay off or gcc fuses the
// mul+add into an FMA and the tile stops being bit-exact vs the reference.
template <int MR, int NR>
__attribute__((target("avx512f"), optimize("fp-contract=off"))) void
MmTileAvx512(const float* a, const float* b, float* c, int k, int n, int i0,
             int j0) {
  AGSC_MM_TILE_BODY
}
#endif  // x86

#undef AGSC_MM_TILE_BODY

// Scalar remainder: identical ascending-p chain per element.
void MmEdge(const float* a, const float* b, float* c, int k, int n, int i0,
            int i1, int j0, int j1) {
  for (int i = i0; i < i1; ++i) {
    const float* arow = a + static_cast<std::size_t>(i) * k;
    float* crow = c + static_cast<std::size_t>(i) * n;
    for (int j = j0; j < j1; ++j) {
      float s = 0.0f;
      for (int p = 0; p < k; ++p) {
        s += arow[p] * b[static_cast<std::size_t>(p) * n + j];
      }
      crow[j] = s;
    }
  }
}

// --- TransposedA family: C[i][j] = sum_p A[p][i]*B[p][j], A is k x m ------

#define AGSC_MTA_TILE_BODY                                                \
  float acc[kMmMr][kMmNr] = {};                                           \
  for (int p = 0; p < k; ++p) {                                           \
    const float* brow = b + static_cast<std::size_t>(p) * n + j0;         \
    const float* arow = a + static_cast<std::size_t>(p) * m + i0;         \
    for (int ii = 0; ii < kMmMr; ++ii) {                                  \
      const float av = arow[ii];                                          \
      for (int jj = 0; jj < kMmNr; ++jj) acc[ii][jj] += av * brow[jj];    \
    }                                                                     \
  }                                                                       \
  for (int ii = 0; ii < kMmMr; ++ii) {                                    \
    float* crow = c + static_cast<std::size_t>(i0 + ii) * n + j0;         \
    for (int jj = 0; jj < kMmNr; ++jj) crow[jj] = acc[ii][jj];            \
  }

void MtaTileGeneric(const float* a, const float* b, float* c, int k, int m,
                    int n, int i0, int j0) {
  AGSC_MTA_TILE_BODY
}

#if defined(__x86_64__) || defined(__i386__)
__attribute__((target("avx2"))) void MtaTileAvx2(const float* a,
                                                 const float* b, float* c,
                                                 int k, int m, int n, int i0,
                                                 int j0) {
  AGSC_MTA_TILE_BODY
}

__attribute__((target("avx512f"), optimize("fp-contract=off"))) void
MtaTileAvx512(const float* a, const float* b, float* c, int k, int m, int n,
              int i0, int j0) {
  AGSC_MTA_TILE_BODY
}
#endif  // x86

#undef AGSC_MTA_TILE_BODY

void MtaEdge(const float* a, const float* b, float* c, int k, int m, int n,
             int i0, int i1, int j0, int j1) {
  for (int i = i0; i < i1; ++i) {
    float* crow = c + static_cast<std::size_t>(i) * n;
    for (int j = j0; j < j1; ++j) {
      float s = 0.0f;
      for (int p = 0; p < k; ++p) {
        s += a[static_cast<std::size_t>(p) * m + i] *
             b[static_cast<std::size_t>(p) * n + j];
      }
      crow[j] = s;
    }
  }
}

// --- TransposedB family: C[i][j] = dot(A row i, B row j) in double --------

constexpr int kTbMr = 8;  // A rows per register tile
constexpr int kTbNr = 8;  // B rows (C columns) per packed panel

// Copies the full 8-row panels of B (n x k) into `packed`: panel q holds
// B[8q + jj][p] at packed[(q * k + p) * kTbNr + jj].
void PackTbPanels(const float* b, int k, int panels, float* packed) {
  for (int q = 0; q < panels; ++q) {
    float* panel = packed + static_cast<std::size_t>(q) * k * kTbNr;
    for (int jj = 0; jj < kTbNr; ++jj) {
      const float* brow = b + static_cast<std::size_t>(q * kTbNr + jj) * k;
      for (int p = 0; p < k; ++p) panel[p * kTbNr + jj] = brow[p];
    }
  }
}

// MR A rows x one packed panel; acc[ii][jj] is the whole ascending-p double
// chain of C[i0 + ii][j0 + jj]. Baseline x86-64 has 16 xmm registers, so
// the accumulators of two rows (8 xmm) are the most that stay in registers:
// wider tiles run as 2-row passes over the panel.
template <int MR>
void TbTileGeneric(const float* a, const float* panel, float* c, int k,
                   int n, int i0, int j0) {
  if constexpr (MR > 2) {
    TbTileGeneric<2>(a, panel, c, k, n, i0, j0);
    TbTileGeneric<MR - 2>(a, panel, c, k, n, i0 + 2, j0);
    return;
  }
  double acc[MR][kTbNr] = {};
  for (int p = 0; p < k; ++p) {
    const float* bp = panel + static_cast<std::size_t>(p) * kTbNr;
    for (int ii = 0; ii < MR; ++ii) {
      const double av = a[static_cast<std::size_t>(i0 + ii) * k + p];
      for (int jj = 0; jj < kTbNr; ++jj) acc[ii][jj] += av * bp[jj];
    }
  }
  for (int ii = 0; ii < MR; ++ii) {
    float* crow = c + static_cast<std::size_t>(i0 + ii) * n + j0;
    for (int jj = 0; jj < kTbNr; ++jj) {
      crow[jj] = static_cast<float>(acc[ii][jj]);
    }
  }
}

#if defined(__x86_64__) || defined(__i386__)
// Two 4-double halves per row: four rows fill 8 of the 16 ymm registers, so
// a full 8-row tile runs as two 4-row passes over the panel.
template <int MR>
__attribute__((target("avx2,fma"))) void TbTileAvx2(const float* a,
                                                    const float* panel,
                                                    float* c, int k, int n,
                                                    int i0, int j0) {
  if constexpr (MR > 4) {
    TbTileAvx2<4>(a, panel, c, k, n, i0, j0);
    TbTileAvx2<MR - 4>(a, panel, c, k, n, i0 + 4, j0);
    return;
  }
  __m256d lo[MR], hi[MR];
  for (int ii = 0; ii < MR; ++ii) lo[ii] = hi[ii] = _mm256_setzero_pd();
  const float* arow = a + static_cast<std::size_t>(i0) * k;
  for (int p = 0; p < k; ++p) {
    const float* bp = panel + static_cast<std::size_t>(p) * kTbNr;
    const __m256d blo = _mm256_cvtps_pd(_mm_loadu_ps(bp));
    const __m256d bhi = _mm256_cvtps_pd(_mm_loadu_ps(bp + 4));
    for (int ii = 0; ii < MR; ++ii) {
      const __m256d av =
          _mm256_set1_pd(arow[static_cast<std::size_t>(ii) * k + p]);
      lo[ii] = _mm256_fmadd_pd(av, blo, lo[ii]);
      hi[ii] = _mm256_fmadd_pd(av, bhi, hi[ii]);
    }
  }
  for (int ii = 0; ii < MR; ++ii) {
    float* crow = c + static_cast<std::size_t>(i0 + ii) * n + j0;
    _mm_storeu_ps(crow, _mm256_cvtpd_ps(lo[ii]));
    _mm_storeu_ps(crow + 4, _mm256_cvtpd_ps(hi[ii]));
  }
}

template <int MR>
__attribute__((target("avx512f"))) void TbTileAvx512(const float* a,
                                                     const float* panel,
                                                     float* c, int k, int n,
                                                     int i0, int j0) {
  __m512d acc[MR];
  for (int ii = 0; ii < MR; ++ii) acc[ii] = _mm512_setzero_pd();
  const float* arow = a + static_cast<std::size_t>(i0) * k;
  for (int p = 0; p < k; ++p) {
    // The maskz forms (all lanes) avoid gcc 12's spurious -Wuninitialized
    // on the plain conversions' undefined pass-through operand.
    const __m512d bv = _mm512_maskz_cvtps_pd(
        0xFF, _mm256_loadu_ps(panel + static_cast<std::size_t>(p) * kTbNr));
    for (int ii = 0; ii < MR; ++ii) {
      const __m512d av =
          _mm512_set1_pd(arow[static_cast<std::size_t>(ii) * k + p]);
      acc[ii] = _mm512_fmadd_pd(av, bv, acc[ii]);
    }
  }
  for (int ii = 0; ii < MR; ++ii) {
    _mm256_storeu_ps(c + static_cast<std::size_t>(i0 + ii) * n + j0,
                     _mm512_maskz_cvtpd_ps(0xFF, acc[ii]));
  }
}
#endif  // x86

// --- Per-ISA kernel table ---------------------------------------------------

using TileFn = void (*)(const float*, const float*, float*, int, int, int,
                        int);
using MtaTileFn = void (*)(const float*, const float*, float*, int, int, int,
                           int, int);

struct GemmKernels {
  TileFn mm_tile;  // kMmMr x kMmNr
  TileFn mm_row;   // 1 x kMmRowNr
  MtaTileFn mta_tile;
  TileFn tb_tile;  // kTbMr rows x one packed panel
  TileFn tb_row;   // 1 row x one packed panel
};

const GemmKernels& Kernels() {
  static constexpr GemmKernels kGeneric = {
      MmTileGeneric<kMmMr, kMmNr>, MmTileGeneric<1, kMmRowNr>, MtaTileGeneric,
      TbTileGeneric<kTbMr>, TbTileGeneric<1>};
#if defined(__x86_64__) || defined(__i386__)
  static constexpr GemmKernels kAvx2 = {
      MmTileAvx2<kMmMr, kMmNr>, MmTileAvx2<1, kMmRowNr>, MtaTileAvx2,
      TbTileAvx2<kTbMr>, TbTileAvx2<1>};
  static constexpr GemmKernels kAvx512 = {
      MmTileAvx512<kMmMr, kMmNr>, MmTileAvx512<1, kMmRowNr>, MtaTileAvx512,
      TbTileAvx512<kTbMr>, TbTileAvx512<1>};
  switch (Isa()) {
    case IsaLevel::kAvx512: return kAvx512;
    case IsaLevel::kAvx2: return kAvx2;
    case IsaLevel::kGeneric: break;
  }
#endif
  return kGeneric;
}

// --- Row-range drivers ------------------------------------------------------

void MmRange(const GemmKernels& kern, const float* a, const float* b,
             float* c, int k, int n, int r0, int r1) {
  int i0 = r0;
  for (; i0 + kMmMr <= r1; i0 += kMmMr) {
    int j0 = 0;
    for (; j0 + kMmNr <= n; j0 += kMmNr) kern.mm_tile(a, b, c, k, n, i0, j0);
    if (j0 < n) MmEdge(a, b, c, k, n, i0, i0 + kMmMr, j0, n);
  }
  for (; i0 < r1; ++i0) {
    int j0 = 0;
    for (; j0 + kMmRowNr <= n; j0 += kMmRowNr) {
      kern.mm_row(a, b, c, k, n, i0, j0);
    }
    if (j0 < n) MmEdge(a, b, c, k, n, i0, i0 + 1, j0, n);
  }
}

void MtaRange(const GemmKernels& kern, const float* a, const float* b,
              float* c, int k, int m, int n, int r0, int r1) {
  int i0 = r0;
  for (; i0 + kMmMr <= r1; i0 += kMmMr) {
    int j0 = 0;
    for (; j0 + kMmNr <= n; j0 += kMmNr) {
      kern.mta_tile(a, b, c, k, m, n, i0, j0);
    }
    if (j0 < n) MtaEdge(a, b, c, k, m, n, i0, i0 + kMmMr, j0, n);
  }
  if (i0 < r1) MtaEdge(a, b, c, k, m, n, i0, r1, 0, n);
}

// `packed` holds the n / kTbNr full panels of B; the last n % kTbNr columns
// read B directly.
void TbRange(const GemmKernels& kern, const float* a, const float* b,
             const float* packed, float* c, int k, int n, int r0, int r1) {
  const int panels = n / kTbNr;
  const std::size_t panel_floats = static_cast<std::size_t>(k) * kTbNr;
  int i0 = r0;
  for (; i0 + kTbMr <= r1; i0 += kTbMr) {
    for (int q = 0; q < panels; ++q) {
      kern.tb_tile(a, packed + q * panel_floats, c, k, n, i0, q * kTbNr);
    }
  }
  for (; i0 < r1; ++i0) {
    for (int q = 0; q < panels; ++q) {
      kern.tb_row(a, packed + q * panel_floats, c, k, n, i0, q * kTbNr);
    }
  }
  for (int i = r0; i < r1; ++i) {
    const float* arow = a + static_cast<std::size_t>(i) * k;
    for (int j = panels * kTbNr; j < n; ++j) {
      const float* brow = b + static_cast<std::size_t>(j) * k;
      double s = 0.0;
      for (int p = 0; p < k; ++p) {
        s += static_cast<double>(arow[p]) * brow[p];
      }
      c[static_cast<std::size_t>(i) * n + j] = static_cast<float>(s);
    }
  }
}

// --- Kernel configuration + row-partitioned parallel driver ---------------

struct KernelState {
  std::mutex mu;
  KernelConfig config;
  std::unique_ptr<util::ThreadPool> pool;
};

KernelState& State() {
  static KernelState state;  // dtor joins any worker pool at exit
  return state;
}

struct GemmPlan {
  GemmKernel gemm;
  long long min_flops;
  util::ThreadPool* pool;  // null when nn_threads == 0
  const GemmKernels* kernels;
};

GemmPlan CurrentPlan() {
  KernelState& s = State();
  std::lock_guard<std::mutex> lock(s.mu);
  return {s.config.gemm, s.config.parallel_min_flops, s.pool.get(),
          &Kernels()};
}

// Runs run_range(r0, r1) over [0, m), split into at most pool->num_threads()
// contiguous chunks. Chunk boundaries depend only on (m, worker count), and
// every output element is computed wholly inside one chunk with an unchanged
// accumulation order — so the result bits are independent of the worker
// count and of scheduling.
template <typename RangeFn>
void RunRows(const GemmPlan& plan, long long flops, int m,
             const RangeFn& run_range) {
  util::ThreadPool* pool = plan.pool;
  if (pool == nullptr || m < 2 || flops < plan.min_flops) {
    run_range(0, m);
    return;
  }
  const int chunks = std::min(pool->num_threads(), m);
  const int base = m / chunks;
  const int rem = m % chunks;
  pool->ParallelFor(chunks, [&](int chunk) {
    const int r0 = chunk * base + std::min(chunk, rem);
    const int r1 = r0 + base + (chunk < rem ? 1 : 0);
    run_range(r0, r1);
  });
}

}  // namespace

void SetKernelConfig(const KernelConfig& config) {
  KernelState& s = State();
  std::lock_guard<std::mutex> lock(s.mu);
  s.config = config;
  s.config.nn_threads = std::max(0, s.config.nn_threads);
  s.config.parallel_min_flops = std::max(0LL, s.config.parallel_min_flops);
  const int have = s.pool ? s.pool->num_threads() : 0;
  if (have != s.config.nn_threads) {
    s.pool.reset();  // joins the old workers first
    if (s.config.nn_threads > 0) {
      s.pool = std::make_unique<util::ThreadPool>(s.config.nn_threads);
    }
  }
}

KernelConfig GetKernelConfig() {
  KernelState& s = State();
  std::lock_guard<std::mutex> lock(s.mu);
  return s.config;
}

Tensor MatMul(const Tensor& a, const Tensor& b) {
  if (a.cols() != b.rows()) {
    throw std::invalid_argument("MatMul: inner dims " + a.ShapeString() +
                                " vs " + b.ShapeString());
  }
  const GemmPlan plan = CurrentPlan();
  if (plan.gemm == GemmKernel::kNaive) return internal::NaiveMatMul(a, b);
  const int m = a.rows(), k = a.cols(), n = b.cols();
  Tensor c(m, n);
  if (m == 0 || n == 0) return c;
  const float* ap = a.data();
  const float* bp = b.data();
  float* cp = c.data();
  RunRows(plan, 2LL * m * k * n, m, [&](int r0, int r1) {
    MmRange(*plan.kernels, ap, bp, cp, k, n, r0, r1);
  });
  return c;
}

Tensor MatMulTransposedB(const Tensor& a, const Tensor& b) {
  if (a.cols() != b.cols()) {
    throw std::invalid_argument("MatMulTransposedB: dims " + a.ShapeString() +
                                " vs " + b.ShapeString());
  }
  const GemmPlan plan = CurrentPlan();
  if (plan.gemm == GemmKernel::kNaive) {
    return internal::NaiveMatMulTransposedB(a, b);
  }
  const int m = a.rows(), k = a.cols(), n = b.rows();
  Tensor c(m, n);
  if (m == 0 || n == 0) return c;
  const float* ap = a.data();
  const float* bp = b.data();
  float* cp = c.data();
  // Packed once here, then shared read-only by every row chunk.
  Tensor packed(n / kTbNr, k * kTbNr);
  PackTbPanels(bp, k, packed.rows(), packed.data());
  const float* pp = packed.data();
  RunRows(plan, 2LL * m * k * n, m, [&](int r0, int r1) {
    TbRange(*plan.kernels, ap, bp, pp, cp, k, n, r0, r1);
  });
  return c;
}

Tensor MatMulTransposedA(const Tensor& a, const Tensor& b) {
  if (a.rows() != b.rows()) {
    throw std::invalid_argument("MatMulTransposedA: dims " + a.ShapeString() +
                                " vs " + b.ShapeString());
  }
  const GemmPlan plan = CurrentPlan();
  if (plan.gemm == GemmKernel::kNaive) {
    return internal::NaiveMatMulTransposedA(a, b);
  }
  const int m = a.cols(), k = a.rows(), n = b.cols();
  Tensor c(m, n);
  if (m == 0 || n == 0) return c;
  const float* ap = a.data();
  const float* bp = b.data();
  float* cp = c.data();
  RunRows(plan, 2LL * m * k * n, m, [&](int r0, int r1) {
    MtaRange(*plan.kernels, ap, bp, cp, k, m, n, r0, r1);
  });
  return c;
}

}  // namespace agsc::nn
