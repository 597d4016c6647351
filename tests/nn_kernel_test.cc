// Bit-exactness and allocation-behavior tests for the tensor compute
// kernels:
//  - blocked GEMMs are bit-identical to the retained naive references over a
//    shape sweep that straddles every tile boundary (including empty, 1xN,
//    Nx1, and non-square shapes, and the shapes training runs), on every
//    SIMD tier the host supports;
//  - the row-partitioned parallel path produces the same bits for any
//    nn_threads value (the determinism contract of KernelConfig);
//  - the fused graph ops (LinearActivate / AddScaled / SquareScale) match
//    their unfused op chains bit-for-bit in both values and gradients;
//  - the thread-local buffer pool makes a steady-state train step O(1) heap
//    allocations after warm-up;
//  - a fixed-seed training run writes byte-identical checkpoints under
//    naive kernels, blocked kernels, and blocked kernels with worker
//    threads.

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/hi_madrl.h"
#include "env/config.h"
#include "env/sc_env.h"
#include "map/campus.h"
#include "nn/layers.h"
#include "nn/optimizer.h"
#include "nn/ops.h"
#include "nn/tensor.h"
#include "util/rng.h"

namespace agsc {
namespace {

using nn::Activation;
using nn::GemmKernel;
using nn::KernelConfig;
using nn::Tensor;
using nn::Variable;

/// Restores the process-wide kernel configuration on scope exit so a failing
/// test cannot leak a nonstandard config into later tests.
struct KernelConfigGuard {
  KernelConfigGuard() : saved(nn::GetKernelConfig()) {}
  ~KernelConfigGuard() { nn::SetKernelConfig(saved); }
  KernelConfig saved;
};

Tensor RandomTensor(int rows, int cols, util::Rng& rng) {
  Tensor t(rows, cols);
  for (int i = 0; i < t.size(); ++i) {
    t[i] = static_cast<float>(rng.Uniform(-2.0, 2.0));
  }
  return t;
}

/// Exact elementwise equality with shape (fails loudly with indices).
void ExpectBitEqual(const Tensor& a, const Tensor& b, const std::string& tag) {
  ASSERT_EQ(a.rows(), b.rows()) << tag;
  ASSERT_EQ(a.cols(), b.cols()) << tag;
  for (int i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], b[i]) << tag << " flat index " << i;
  }
}

/// Restores the host's own SIMD tier on scope exit.
struct IsaGuard {
  ~IsaGuard() { nn::internal::SetGemmIsaForTesting(nullptr); }
};

/// The SIMD tiers this host can run (always at least "generic").
std::vector<const char*> HostIsaTiers() {
  IsaGuard guard;
  std::vector<const char*> tiers;
  for (const char* isa : {"generic", "avx2", "avx512"}) {
    if (nn::internal::SetGemmIsaForTesting(isa)) tiers.push_back(isa);
  }
  return tiers;
}

// Shape sweep: every (m, k, n) below exercises at least one of — empty
// operands, single row/column, dims below one tile, dims exactly on a tile
// boundary (8 rows / 32 columns / 64 row-tile columns / 8 TB-panel
// columns), and dims that straddle a boundary by one.
struct GemmShape {
  int m, k, n;
};

const std::vector<GemmShape>& SweepShapes() {
  static const std::vector<GemmShape> shapes = [] {
    std::vector<GemmShape> s = {
        {0, 0, 0},  {0, 5, 3},   {4, 0, 3},   {4, 5, 0},   {1, 1, 1},
        {1, 7, 33}, {33, 7, 1},  {7, 9, 31},  {8, 16, 32}, {9, 17, 33},
        {16, 3, 8}, {31, 31, 7}, {32, 8, 64}, {65, 2, 9},  {13, 40, 29},
        {9, 0, 9},
        // The shapes training runs: acting (m = 1) and a 4-worker batch
        // through the 312 -> 128 input layer; dX of the 128 -> 64 layer
        // at a full and a partial minibatch; dX of the 64 -> 2 head.
        {1, 312, 128}, {4, 312, 128}, {256, 64, 128}, {144, 64, 128},
        {256, 2, 64},
    };
    // Rows below, at and above one 8-row tile against columns one below,
    // at and one above the TB panel width and the MatMul row-tile width.
    for (int m : {1, 7, 9}) {
      for (int n : {7, 8, 9, 63, 64, 65}) s.push_back({m, 11, n});
    }
    return s;
  }();
  return shapes;
}

TEST(GemmKernelTest, BlockedMatchesNaiveAcrossShapeSweep) {
  KernelConfigGuard guard;
  IsaGuard isa_guard;
  KernelConfig config;
  config.gemm = GemmKernel::kBlocked;
  config.nn_threads = 0;
  nn::SetKernelConfig(config);
  const std::vector<const char*> tiers = HostIsaTiers();
  for (const char* isa : tiers) {
    ASSERT_TRUE(nn::internal::SetGemmIsaForTesting(isa)) << isa;
    EXPECT_STREQ(nn::ActiveGemmIsaName(), isa);
    util::Rng rng(1234);
    for (const GemmShape& s : SweepShapes()) {
      const Tensor a = RandomTensor(s.m, s.k, rng);
      const Tensor b = RandomTensor(s.k, s.n, rng);
      const Tensor at = RandomTensor(s.k, s.m, rng);  // A^T for TransposedA.
      const Tensor bt = RandomTensor(s.n, s.k, rng);  // B^T for TransposedB.
      const std::string tag = std::string(isa) + " shape " +
                              std::to_string(s.m) + "x" + std::to_string(s.k) +
                              "x" + std::to_string(s.n);
      ExpectBitEqual(nn::MatMul(a, b), nn::internal::NaiveMatMul(a, b),
                     "MatMul " + tag);
      ExpectBitEqual(nn::MatMulTransposedB(a, bt),
                     nn::internal::NaiveMatMulTransposedB(a, bt),
                     "MatMulTransposedB " + tag);
      ExpectBitEqual(nn::MatMulTransposedA(at, b),
                     nn::internal::NaiveMatMulTransposedA(at, b),
                     "MatMulTransposedA " + tag);
    }
  }
  // A tier the seam does not know is refused and changes nothing.
  EXPECT_FALSE(nn::internal::SetGemmIsaForTesting("sse9"));
  EXPECT_STREQ(nn::ActiveGemmIsaName(), tiers.back());
}

TEST(GemmKernelTest, ParallelPathBitIdenticalForAnyThreadCount) {
  KernelConfigGuard guard;
  util::Rng rng(99);
  // parallel_min_flops = 0 forces even tiny products through the pool
  // dispatch, so this also makes the TSan build exercise the parallel path.
  for (const GemmShape& s : SweepShapes()) {
    const Tensor a = RandomTensor(s.m, s.k, rng);
    const Tensor b = RandomTensor(s.k, s.n, rng);
    const Tensor at = RandomTensor(s.k, s.m, rng);
    const Tensor bt = RandomTensor(s.n, s.k, rng);

    std::vector<Tensor> mm, tb, ta;
    for (int threads : {0, 1, 4}) {
      KernelConfig config;
      config.gemm = GemmKernel::kBlocked;
      config.nn_threads = threads;
      config.parallel_min_flops = 0;
      nn::SetKernelConfig(config);
      mm.push_back(nn::MatMul(a, b));
      tb.push_back(nn::MatMulTransposedB(a, bt));
      ta.push_back(nn::MatMulTransposedA(at, b));
    }
    const std::string tag = "shape " + std::to_string(s.m) + "x" +
                            std::to_string(s.k) + "x" + std::to_string(s.n);
    for (size_t i = 1; i < mm.size(); ++i) {
      ExpectBitEqual(mm[0], mm[i], "MatMul threads " + tag);
      ExpectBitEqual(tb[0], tb[i], "MatMulTransposedB threads " + tag);
      ExpectBitEqual(ta[0], ta[i], "MatMulTransposedA threads " + tag);
    }
  }
}

TEST(GemmKernelTest, NaNPropagatesThroughZeroActivation) {
  // Regression for the old `if (av == 0.0f) continue;` zero-skip: a NaN
  // weight multiplied by a zero activation must produce NaN output, not be
  // silently skipped — the divergence guard depends on NaN staying visible.
  // So must inf * 0. The operands are sized so that every op reaches its
  // full tiles, its row tiles and its scalar edge: 9 zero rows (one 8-row
  // tile plus one remainder row) against 65 weight columns (MatMul tiles
  // of 32 and 64 plus one edge column; eight 8-column TB panels plus one).
  KernelConfigGuard guard;
  IsaGuard isa_guard;
  const float kNan = std::numeric_limits<float>::quiet_NaN();
  const float kInf = std::numeric_limits<float>::infinity();
  constexpr int kRows = 9, kInner = 3, kCols = 65;
  const Tensor act(kRows, kInner);  // all-zero activations
  Tensor w(kInner, kCols, 1.0f);
  w(0, 0) = kNan;   // first full tile / panel
  w(1, 40) = kInf;  // inside a tile: inf * 0
  w(2, 64) = kNan;  // scalar edge column
  const Tensor wt = w.Transposed();  // the same weights as B^T
  auto expect_poisoned = [&](const Tensor& out, const std::string& tag) {
    ASSERT_EQ(out.rows(), kRows) << tag;
    ASSERT_EQ(out.cols(), kCols) << tag;
    for (int i = 0; i < kRows; ++i) {
      for (int j = 0; j < kCols; ++j) {
        const bool poisoned = j == 0 || j == 40 || j == 64;
        EXPECT_EQ(std::isnan(out(i, j)), poisoned)
            << tag << " at (" << i << ", " << j << ")";
      }
    }
  };
  std::vector<std::pair<std::string, GemmKernel>> modes = {
      {"naive", GemmKernel::kNaive}};
  for (const char* isa : HostIsaTiers()) {
    modes.emplace_back(isa, GemmKernel::kBlocked);
  }
  for (const auto& [name, kernel] : modes) {
    KernelConfig config;
    config.gemm = kernel;
    nn::SetKernelConfig(config);
    if (kernel == GemmKernel::kBlocked) {
      ASSERT_TRUE(nn::internal::SetGemmIsaForTesting(name.c_str()));
    }
    expect_poisoned(nn::MatMul(act, w), "MatMul " + name);
    expect_poisoned(nn::MatMulTransposedA(act.Transposed(), w),
                    "TransposedA " + name);
    expect_poisoned(nn::MatMulTransposedB(act, wt), "TransposedB " + name);
    // And the other way round: inf activations (in the 8-row tile and in
    // the remainder row) against all-zero B^T rows.
    Tensor inf_act(kRows, kInner);
    inf_act(0, 0) = kInf;
    inf_act(kRows - 1, kInner - 1) = kInf;
    const Tensor tb = nn::MatMulTransposedB(inf_act, Tensor(kCols, kInner));
    for (int i = 0; i < kRows; ++i) {
      for (int j = 0; j < kCols; ++j) {
        EXPECT_EQ(std::isnan(tb(i, j)), i == 0 || i == kRows - 1)
            << "TransposedB inf x 0 " << name << " at (" << i << ", " << j
            << ")";
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Fused graph ops: bit-equivalence of values and gradients.
// ---------------------------------------------------------------------------

TEST(FusedOpsTest, LinearActivateMatchesUnfusedChain) {
  KernelConfigGuard guard;
  util::Rng rng(7);
  for (Activation act : {Activation::kNone, Activation::kRelu,
                         Activation::kTanh, Activation::kSigmoid}) {
    Variable x_f = Variable::Parameter(RandomTensor(5, 3, rng));
    Variable w_f = Variable::Parameter(RandomTensor(3, 4, rng));
    Variable b_f = Variable::Parameter(RandomTensor(1, 4, rng));
    Variable x_u = Variable::Parameter(x_f.value());
    Variable w_u = Variable::Parameter(w_f.value());
    Variable b_u = Variable::Parameter(b_f.value());

    Variable fused = nn::LinearActivate(x_f, w_f, b_f, act);
    Variable unfused =
        nn::Activate(nn::AddRowVector(nn::MatMul(x_u, w_u), b_u), act);
    const std::string tag = "act " + std::to_string(static_cast<int>(act));
    ExpectBitEqual(fused.value(), unfused.value(), "value " + tag);

    // Backpropagate a non-trivial seed through both graphs.
    Tensor seed = RandomTensor(5, 4, rng);
    fused.Backward(seed);
    unfused.Backward(seed);
    ExpectBitEqual(x_f.grad(), x_u.grad(), "dX " + tag);
    ExpectBitEqual(w_f.grad(), w_u.grad(), "dW " + tag);
    ExpectBitEqual(b_f.grad(), b_u.grad(), "db " + tag);
  }
}

TEST(FusedOpsTest, AddScaledMatchesAddOfScalarMul) {
  util::Rng rng(8);
  const float s = -0.37f;
  Variable a_f = Variable::Parameter(RandomTensor(4, 6, rng));
  Variable b_f = Variable::Parameter(RandomTensor(4, 6, rng));
  Variable a_u = Variable::Parameter(a_f.value());
  Variable b_u = Variable::Parameter(b_f.value());

  Variable fused = nn::AddScaled(a_f, b_f, s);
  Variable unfused = nn::Add(a_u, nn::ScalarMul(b_u, s));
  ExpectBitEqual(fused.value(), unfused.value(), "AddScaled value");

  util::Rng seed_rng(81);
  Tensor seed = RandomTensor(4, 6, seed_rng);
  fused.Backward(seed);
  unfused.Backward(seed);
  ExpectBitEqual(a_f.grad(), a_u.grad(), "AddScaled dA");
  ExpectBitEqual(b_f.grad(), b_u.grad(), "AddScaled dB");
}

TEST(FusedOpsTest, SquareScaleMatchesScalarMulOfSquare) {
  util::Rng rng(9);
  const float s = -0.5f;
  Variable a_f = Variable::Parameter(RandomTensor(3, 5, rng));
  Variable a_u = Variable::Parameter(a_f.value());

  Variable fused = nn::SquareScale(a_f, s);
  Variable unfused = nn::ScalarMul(nn::Square(a_u), s);
  ExpectBitEqual(fused.value(), unfused.value(), "SquareScale value");

  util::Rng seed_rng(91);
  Tensor seed = RandomTensor(3, 5, seed_rng);
  fused.Backward(seed);
  unfused.Backward(seed);
  ExpectBitEqual(a_f.grad(), a_u.grad(), "SquareScale dA");
}

// ---------------------------------------------------------------------------
// Buffer pool: steady-state training allocates nothing new.
// ---------------------------------------------------------------------------

TEST(BufferPoolTest, TrainStepIsAllocationFreeAfterWarmup) {
  if (!nn::internal::BufferPoolEnabled()) {
    GTEST_SKIP() << "buffer pool compiled out (sanitizer build)";
  }
  KernelConfigGuard guard;
  KernelConfig config;  // Blocked kernels, no threads: single-thread pool.
  nn::SetKernelConfig(config);

  util::Rng rng(42);
  nn::Mlp mlp({12, 32, 32, 4}, rng);
  nn::Adam adam(mlp.Parameters(), 1e-3f);
  const Tensor x = RandomTensor(16, 12, rng);
  const Tensor target = RandomTensor(16, 4, rng);

  auto step = [&] {
    adam.ZeroGrad();
    Variable loss = nn::MseLoss(mlp.Forward(x), target);
    loss.Backward();
    adam.Step();
  };

  for (int i = 0; i < 8; ++i) step();  // Warm the pool and Adam state.

  const auto before = nn::internal::GetBufferPoolStats();
  for (int i = 0; i < 16; ++i) step();
  const auto after = nn::internal::GetBufferPoolStats();

  EXPECT_GT(after.acquires, before.acquires);  // Work definitely happened...
  EXPECT_EQ(after.heap_allocs, before.heap_allocs)  // ...with no new heap.
      << "steady-state train steps should be served entirely from the pool";
}

// ---------------------------------------------------------------------------
// End-to-end: kernel choice and thread count never change training results.
// ---------------------------------------------------------------------------

const map::Dataset& SmallDataset() {
  static const map::Dataset* dataset =
      new map::Dataset(map::BuildDataset(map::CampusId::kPurdue, 10));
  return *dataset;
}

env::EnvConfig SmallEnvConfig() {
  env::EnvConfig config;
  config.num_timeslots = 6;
  config.num_pois = 10;
  config.num_uavs = 1;
  config.num_ugvs = 1;
  return config;
}

core::TrainConfig SmallTrainConfig() {
  core::TrainConfig train;
  train.iterations = 2;
  train.episodes_per_iteration = 2;
  train.policy_epochs = 1;
  train.lcf_epochs = 1;
  train.minibatch = 64;
  train.net.hidden = {16};
  train.eoi.hidden = {12};
  train.seed = 11;
  train.verbose = false;
  return train;
}

std::string TempPath(const std::string& name) {
  // pid-scoped: gtest's TempDir is shared across concurrent test processes.
  return ::testing::TempDir() + "/p" + std::to_string(::getpid()) + "_" + name;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

TEST(KernelInvarianceTest, TrainingCheckpointBytesIdenticalAcrossKernels) {
  KernelConfigGuard guard;
  struct Case {
    bool naive;
    int threads;
    const char* name;
  };
  const Case cases[] = {
      {true, 0, "naive"},
      {false, 0, "blocked"},
      {false, 1, "blocked_t1"},
      {false, 4, "blocked_t4"},
  };
  std::vector<std::string> bytes;
  for (const Case& c : cases) {
    env::ScEnv env(SmallEnvConfig(), SmallDataset(), 11);
    core::TrainConfig train = SmallTrainConfig();
    train.nn_threads = c.threads;
    train.nn_naive_kernels = c.naive;
    core::HiMadrlTrainer trainer(env, train);
    // Force even the tiny test-sized GEMMs through the parallel dispatch so
    // the threaded cases genuinely run on the pool.
    KernelConfig kc = nn::GetKernelConfig();
    kc.parallel_min_flops = 0;
    nn::SetKernelConfig(kc);
    for (int i = 0; i < train.iterations; ++i) trainer.TrainIteration();
    const std::string path = TempPath(std::string("kinv_") + c.name + ".agsc");
    ASSERT_TRUE(trainer.SaveCheckpoint(path));
    bytes.push_back(ReadFileBytes(path));
    std::remove(path.c_str());
  }
  for (size_t i = 1; i < bytes.size(); ++i) {
    EXPECT_EQ(bytes[0], bytes[i])
        << "checkpoint bytes diverge between " << cases[0].name << " and "
        << cases[i].name;
  }
}

}  // namespace
}  // namespace agsc
