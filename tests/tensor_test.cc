#include <cmath>
#include <gtest/gtest.h>

#include "nn/tensor.h"

namespace agsc::nn {
namespace {

TEST(TensorTest, ConstructionAndAccess) {
  Tensor t(2, 3);
  EXPECT_EQ(t.rows(), 2);
  EXPECT_EQ(t.cols(), 3);
  EXPECT_EQ(t.size(), 6);
  for (int i = 0; i < 6; ++i) EXPECT_EQ(t[i], 0.0f);
  t(1, 2) = 5.0f;
  EXPECT_EQ(t[5], 5.0f);
}

TEST(TensorTest, FillConstructor) {
  Tensor t(2, 2, 3.5f);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(t[i], 3.5f);
}

TEST(TensorTest, FactoryHelpers) {
  Tensor r = Tensor::RowVector({1, 2, 3});
  EXPECT_EQ(r.rows(), 1);
  EXPECT_EQ(r.cols(), 3);
  Tensor c = Tensor::ColVector({1, 2});
  EXPECT_EQ(c.rows(), 2);
  EXPECT_EQ(c.cols(), 1);
  Tensor s = Tensor::Scalar(7.0f);
  EXPECT_EQ(s.size(), 1);
  EXPECT_EQ(s[0], 7.0f);
  Tensor m = Tensor::FromRowMajor(2, 2, {1, 2, 3, 4});
  EXPECT_EQ(m(1, 0), 3.0f);
  EXPECT_THROW(Tensor::FromRowMajor(2, 2, {1, 2, 3}), std::invalid_argument);
}

TEST(TensorTest, TransposedSwapsIndices) {
  Tensor m = Tensor::FromRowMajor(2, 3, {1, 2, 3, 4, 5, 6});
  Tensor t = m.Transposed();
  EXPECT_EQ(t.rows(), 3);
  EXPECT_EQ(t.cols(), 2);
  for (int r = 0; r < 2; ++r) {
    for (int c = 0; c < 3; ++c) EXPECT_EQ(m(r, c), t(c, r));
  }
}

TEST(TensorTest, RowExtraction) {
  Tensor m = Tensor::FromRowMajor(2, 2, {1, 2, 3, 4});
  Tensor row = m.Row(1);
  EXPECT_EQ(row.rows(), 1);
  EXPECT_EQ(row(0, 0), 3.0f);
  EXPECT_EQ(row(0, 1), 4.0f);
}

TEST(TensorTest, AddInPlaceAndScale) {
  Tensor a = Tensor::FromRowMajor(1, 3, {1, 2, 3});
  Tensor b = Tensor::FromRowMajor(1, 3, {10, 20, 30});
  a.AddInPlace(b);
  a.Scale(0.5f);
  EXPECT_EQ(a(0, 0), 5.5f);
  EXPECT_EQ(a(0, 2), 16.5f);
  Tensor wrong(2, 2);
  EXPECT_THROW(a.AddInPlace(wrong), std::invalid_argument);
}

TEST(TensorTest, Reductions) {
  Tensor m = Tensor::FromRowMajor(2, 2, {1, -2, 3, -4});
  EXPECT_FLOAT_EQ(m.Sum(), -2.0f);
  EXPECT_FLOAT_EQ(m.Mean(), -0.5f);
  EXPECT_FLOAT_EQ(m.AbsMax(), 4.0f);
  EXPECT_NEAR(m.Norm(), std::sqrt(30.0f), 1e-6);
}

TEST(TensorTest, SameAs) {
  Tensor a = Tensor::FromRowMajor(1, 2, {1, 2});
  Tensor b = Tensor::FromRowMajor(1, 2, {1, 2});
  Tensor c = Tensor::FromRowMajor(2, 1, {1, 2});
  EXPECT_TRUE(a.SameAs(b));
  EXPECT_FALSE(a.SameAs(c));
}

TEST(TensorTest, MatMulMatchesManual) {
  Tensor a = Tensor::FromRowMajor(2, 3, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::FromRowMajor(3, 2, {7, 8, 9, 10, 11, 12});
  Tensor c = MatMul(a, b);
  EXPECT_EQ(c.rows(), 2);
  EXPECT_EQ(c.cols(), 2);
  EXPECT_FLOAT_EQ(c(0, 0), 58.0f);
  EXPECT_FLOAT_EQ(c(0, 1), 64.0f);
  EXPECT_FLOAT_EQ(c(1, 0), 139.0f);
  EXPECT_FLOAT_EQ(c(1, 1), 154.0f);
}

TEST(TensorTest, MatMulShapeCheck) {
  Tensor a(2, 3), b(2, 3);
  EXPECT_THROW(MatMul(a, b), std::invalid_argument);
}

TEST(TensorTest, MatMulTransposedVariantsAgree) {
  util::Rng rng(5);
  Tensor a = Tensor::Randn(4, 6, rng);
  Tensor b = Tensor::Randn(5, 6, rng);
  Tensor direct = MatMul(a, b.Transposed());
  Tensor fused = MatMulTransposedB(a, b);
  for (int i = 0; i < direct.size(); ++i) {
    EXPECT_NEAR(direct[i], fused[i], 1e-4);
  }
  Tensor c = Tensor::Randn(6, 4, rng);
  Tensor d = Tensor::Randn(6, 5, rng);
  Tensor direct2 = MatMul(c.Transposed(), d);
  Tensor fused2 = MatMulTransposedA(c, d);
  for (int i = 0; i < direct2.size(); ++i) {
    EXPECT_NEAR(direct2[i], fused2[i], 1e-4);
  }
}

TEST(TensorTest, RandnStatistics) {
  util::Rng rng(9);
  Tensor t = Tensor::Randn(100, 100, rng, 2.0f);
  double sum = 0.0, sq = 0.0;
  for (int i = 0; i < t.size(); ++i) {
    sum += t[i];
    sq += static_cast<double>(t[i]) * t[i];
  }
  const double mean = sum / t.size();
  const double std = std::sqrt(sq / t.size() - mean * mean);
  EXPECT_NEAR(mean, 0.0, 0.05);
  EXPECT_NEAR(std, 2.0, 0.05);
}

TEST(TensorTest, UniformBounds) {
  util::Rng rng(9);
  Tensor t = Tensor::Uniform(10, 10, rng, -2.0f, -1.0f);
  for (int i = 0; i < t.size(); ++i) {
    EXPECT_GE(t[i], -2.0f);
    EXPECT_LT(t[i], -1.0f);
  }
}

// ---------------------------------------------------------------------------
// Regressions for latent construction/access bugs.
// ---------------------------------------------------------------------------

TEST(TensorTest, NegativeDimsThrowBeforeAnyAllocation) {
  // The ctor used to compute rows*cols before validating, so a negative dim
  // became a ~SIZE_MAX allocation request (std::bad_alloc or worse) instead
  // of a clean argument error.
  EXPECT_THROW(Tensor(-1, 4), std::invalid_argument);
  EXPECT_THROW(Tensor(4, -1), std::invalid_argument);
  EXPECT_THROW(Tensor(-3, -3), std::invalid_argument);
  EXPECT_THROW(Tensor(-1, 4, 2.0f), std::invalid_argument);
  EXPECT_THROW(Tensor::FromRowMajor(-2, 2, {}), std::invalid_argument);
}

TEST(TensorTest, RowOutOfRangeThrows) {
  // Row() used to memcpy from an unchecked offset — out-of-range indices
  // read past the buffer instead of throwing.
  Tensor m = Tensor::FromRowMajor(2, 3, {1, 2, 3, 4, 5, 6});
  EXPECT_THROW(m.Row(-1), std::out_of_range);
  EXPECT_THROW(m.Row(2), std::out_of_range);
  EXPECT_NO_THROW(m.Row(1));
}

TEST(TensorTest, EmptyFactoriesAreSafe) {
  // RowVector/ColVector/FromRowMajor used to memcpy from values.data() even
  // when `values` was empty (null source pointer is UB for memcpy).
  Tensor r = Tensor::RowVector({});
  EXPECT_EQ(r.rows(), 1);
  EXPECT_EQ(r.cols(), 0);
  Tensor c = Tensor::ColVector({});
  EXPECT_EQ(c.rows(), 0);
  EXPECT_EQ(c.cols(), 1);
  Tensor m = Tensor::FromRowMajor(0, 5, {});
  EXPECT_EQ(m.rows(), 0);
  EXPECT_EQ(m.cols(), 5);
  EXPECT_TRUE(m.empty());
  Tensor row0 = Tensor::FromRowMajor(0, 0, {});
  EXPECT_TRUE(row0.empty());
}

TEST(TensorTest, CopyAndMoveSemantics) {
  // The pooled-storage rewrite hand-rolls the rule of five; pin the exact
  // value semantics the rest of the library assumes.
  Tensor a = Tensor::FromRowMajor(2, 2, {1, 2, 3, 4});
  Tensor copy = a;
  copy(0, 0) = 99.0f;
  EXPECT_EQ(a(0, 0), 1.0f);  // Deep copy.
  EXPECT_EQ(copy(0, 0), 99.0f);

  Tensor moved = std::move(copy);
  EXPECT_EQ(moved(0, 0), 99.0f);
  EXPECT_EQ(copy.size(), 0);  // NOLINT(bugprone-use-after-move): pinned empty.

  Tensor assigned(3, 3, 7.0f);
  assigned = a;
  EXPECT_TRUE(assigned.SameAs(a));
  assigned = std::move(moved);
  EXPECT_EQ(assigned(0, 0), 99.0f);

  Tensor self = Tensor::FromRowMajor(1, 2, {5, 6});
  self = self;  // Self-assignment must be a no-op.
  EXPECT_EQ(self(0, 1), 6.0f);
}

TEST(TensorTest, EqualSizeCopyAssignReusesStorage) {
  // Same element count (even with a different shape): the copy lands in
  // the existing buffer, with no pool acquire or release.
  const Tensor src = Tensor::FromRowMajor(2, 3, {1, 2, 3, 4, 5, 6});
  Tensor same(2, 3, 9.0f);
  Tensor reshaped(3, 2, 9.0f);
  const float* same_data = same.data();
  const internal::BufferPoolStats before = internal::GetBufferPoolStats();
  same = src;
  reshaped = src;
  const internal::BufferPoolStats after = internal::GetBufferPoolStats();
  EXPECT_EQ(after.acquires, before.acquires);
  EXPECT_EQ(same.data(), same_data);
  EXPECT_TRUE(same.SameAs(src));
  EXPECT_TRUE(reshaped.SameAs(src));  // Shape follows the source.

  Tensor smaller(1, 1);
  const long long acquires = internal::GetBufferPoolStats().acquires;
  smaller = src;  // Different size: falls back to a fresh buffer.
  EXPECT_TRUE(smaller.SameAs(src));
  EXPECT_EQ(internal::GetBufferPoolStats().acquires, acquires + 1);
}

}  // namespace
}  // namespace agsc::nn
