#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>

#include <gtest/gtest.h>

#include "nn/gru.h"
#include "nn/layers.h"
#include "nn/optimizer.h"
#include "nn/serialize.h"
#include "tests/test_util.h"

namespace agsc::nn {
namespace {

TEST(OrthogonalInitTest, ColumnsOrthonormalForTallMatrix) {
  util::Rng rng(1);
  Tensor w(8, 4);
  OrthogonalInit(w, rng, 1.0f);
  // W^T W should be ~identity for a tall matrix with gain 1.
  Tensor gram = MatMulTransposedA(w, w);
  for (int r = 0; r < 4; ++r) {
    for (int c = 0; c < 4; ++c) {
      EXPECT_NEAR(gram(r, c), r == c ? 1.0f : 0.0f, 1e-4);
    }
  }
}

TEST(OrthogonalInitTest, GainScalesRows) {
  util::Rng rng(2);
  Tensor w(4, 8);
  OrthogonalInit(w, rng, 2.0f);
  Tensor gram = MatMulTransposedB(w, w);  // W W^T for wide matrix.
  for (int r = 0; r < 4; ++r) EXPECT_NEAR(gram(r, r), 4.0f, 1e-3);
}

TEST(LinearTest, ForwardMatchesManual) {
  util::Rng rng(3);
  Linear layer(3, 2, rng);
  Tensor x = Tensor::FromRowMajor(2, 3, {1, 2, 3, -1, 0, 1});
  const Tensor y = layer.Forward(Variable::Constant(x)).value();
  const Tensor& w = layer.weight().value();
  const Tensor& b = layer.bias().value();
  for (int r = 0; r < 2; ++r) {
    for (int c = 0; c < 2; ++c) {
      float expect = b(0, c);
      for (int k = 0; k < 3; ++k) expect += x(r, k) * w(k, c);
      EXPECT_NEAR(y(r, c), expect, 1e-5);
    }
  }
}

TEST(LinearTest, RejectsWrongInputWidth) {
  util::Rng rng(4);
  Linear layer(3, 2, rng);
  EXPECT_THROW(layer.Forward(Variable::Constant(Tensor(1, 4))),
               std::invalid_argument);
  EXPECT_THROW(Linear(0, 2, rng), std::invalid_argument);
}

TEST(LinearTest, ParameterCount) {
  util::Rng rng(5);
  Linear layer(3, 2, rng);
  EXPECT_EQ(layer.ParameterCount(), 3 * 2 + 2);
}

TEST(MlpTest, ShapesAndParameters) {
  util::Rng rng(6);
  Mlp mlp({10, 16, 8, 2}, rng);
  EXPECT_EQ(mlp.in_features(), 10);
  EXPECT_EQ(mlp.out_features(), 2);
  EXPECT_EQ(mlp.ParameterCount(), 10 * 16 + 16 + 16 * 8 + 8 + 8 * 2 + 2);
  const Tensor y = mlp.Forward(Tensor(5, 10)).value();
  EXPECT_EQ(y.rows(), 5);
  EXPECT_EQ(y.cols(), 2);
}

TEST(MlpTest, OutputActivationBounds) {
  util::Rng rng(7);
  Mlp mlp({4, 8, 3}, rng, Activation::kTanh, Activation::kTanh);
  Tensor x = Tensor::Uniform(20, 4, rng, -5.0f, 5.0f);
  const Tensor y = mlp.Forward(x).value();
  for (int i = 0; i < y.size(); ++i) {
    EXPECT_GE(y[i], -1.0f);
    EXPECT_LE(y[i], 1.0f);
  }
}

TEST(MlpTest, RequiresTwoSizes) {
  util::Rng rng(8);
  EXPECT_THROW(Mlp({5}, rng), std::invalid_argument);
}

TEST(MlpTest, GradientFlowsToAllParameters) {
  util::Rng rng(9);
  Mlp mlp({3, 4, 1}, rng);
  Variable loss = Mean(Square(mlp.Forward(Tensor::FromRowMajor(
      2, 3, {1, 2, 3, 4, 5, 6}))));
  loss.Backward();
  for (Variable& p : mlp.Parameters()) {
    EXPECT_GT(p.grad().Norm(), 0.0f) << "dead parameter";
  }
}

TEST(GruTest, StepShapesAndRange) {
  util::Rng rng(10);
  GruCell gru(5, 7, rng);
  Tensor h0 = gru.InitialState(3);
  EXPECT_EQ(h0.rows(), 3);
  EXPECT_EQ(h0.cols(), 7);
  Variable h = gru.Step(Variable::Constant(Tensor(3, 5, 0.5f)),
                        Variable::Constant(h0));
  EXPECT_EQ(h.rows(), 3);
  EXPECT_EQ(h.cols(), 7);
  for (int i = 0; i < h.value().size(); ++i) {
    EXPECT_GE(h.value()[i], -1.0f);
    EXPECT_LE(h.value()[i], 1.0f);
  }
}

TEST(GruTest, StatePersistsInformation) {
  util::Rng rng(11);
  GruCell gru(2, 4, rng);
  Tensor zero_x(1, 2);
  Tensor one_x(1, 2, 1.0f);
  Variable h_a = gru.Step(Variable::Constant(one_x),
                          Variable::Constant(gru.InitialState(1)));
  Variable h_b = gru.Step(Variable::Constant(zero_x),
                          Variable::Constant(gru.InitialState(1)));
  // Different inputs must produce different states.
  EXPECT_FALSE(h_a.value().SameAs(h_b.value()));
}

TEST(GruTest, BackpropThroughTwoSteps) {
  util::Rng rng(12);
  GruCell gru(2, 3, rng);
  Variable x = Variable::Parameter(Tensor(1, 2, 0.3f));
  Variable h = Variable::Constant(gru.InitialState(1));
  h = gru.Step(x, h);
  h = gru.Step(x, h);
  Sum(h).Backward();
  EXPECT_GT(x.grad().Norm(), 0.0f);
  for (Variable& p : gru.Parameters()) {
    EXPECT_GT(p.grad().Norm(), 0.0f);
  }
}

TEST(OptimizerTest, SgdMinimizesQuadratic) {
  Variable x = Variable::Parameter(Tensor::Scalar(5.0f));
  Sgd opt({x}, 0.1f);
  for (int i = 0; i < 100; ++i) {
    opt.ZeroGrad();
    Mean(Square(x)).Backward();
    opt.Step();
  }
  EXPECT_NEAR(x.value()[0], 0.0f, 1e-3);
}

TEST(OptimizerTest, AdamMinimizesShiftedQuadratic) {
  Variable x = Variable::Parameter(Tensor::FromRowMajor(1, 2, {4.0f, -3.0f}));
  Tensor target = Tensor::FromRowMajor(1, 2, {1.0f, 2.0f});
  Adam opt({x}, 0.05f);
  for (int i = 0; i < 500; ++i) {
    opt.ZeroGrad();
    MseLoss(x, target).Backward();
    opt.Step();
  }
  EXPECT_NEAR(x.value()[0], 1.0f, 1e-2);
  EXPECT_NEAR(x.value()[1], 2.0f, 1e-2);
}

/// Bitwise equality, so NaN moments compare equal to themselves.
bool SameBits(const Tensor& a, const Tensor& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

TEST(OptimizerTest, GuardedStepMatchesStepThenRestore) {
  // GuardedStep must be exactly Step() followed by restoring the
  // parameters when any of them went non-finite, and exactly Step()
  // otherwise, with moments and step count advanced in both cases.
  for (const float bad_grad : {0.25f, std::numeric_limits<float>::infinity()}) {
    const Tensor init = Tensor::FromRowMajor(1, 3, {1.0f, -2.0f, 0.5f});
    Variable guarded = Variable::Parameter(init);
    Variable plain = Variable::Parameter(init);
    Adam guarded_opt({guarded}, 0.1f);
    Adam plain_opt({plain}, 0.1f);
    for (int step = 0; step < 3; ++step) {
      const float g2 = step == 2 ? bad_grad : 0.25f;
      for (Variable* v : {&guarded, &plain}) {
        v->grad() = Tensor::FromRowMajor(1, 3, {0.5f, -1.0f, g2});
      }
      const Tensor before = plain.value();
      plain_opt.Step();
      bool finite = true;
      for (int i = 0; i < plain.value().size(); ++i) {
        finite = finite && std::isfinite(plain.value()[i]);
      }
      if (!finite) plain.mutable_value() = before;
      EXPECT_EQ(guarded_opt.GuardedStep(), finite) << "step " << step;
      EXPECT_TRUE(SameBits(guarded.value(), plain.value())) << "step " << step;
    }
    const Adam::State a = guarded_opt.ExportState();
    const Adam::State b = plain_opt.ExportState();
    EXPECT_EQ(a.step_count, b.step_count);
    EXPECT_TRUE(SameBits(a.m[0], b.m[0]));
    EXPECT_TRUE(SameBits(a.v[0], b.v[0]));
  }
}

TEST(OptimizerTest, ClipGradNormScalesDown) {
  Variable a = Variable::Parameter(Tensor::Scalar(0.0f));
  Variable b = Variable::Parameter(Tensor::Scalar(0.0f));
  a.grad()[0] = 3.0f;
  b.grad()[0] = 4.0f;
  std::vector<Variable> params = {a, b};
  const float norm = ClipGradNorm(params, 1.0f);
  EXPECT_FLOAT_EQ(norm, 5.0f);
  EXPECT_NEAR(a.grad()[0], 0.6f, 1e-6);
  EXPECT_NEAR(b.grad()[0], 0.8f, 1e-6);
}

TEST(OptimizerTest, ClipGradNormLeavesSmallGradients) {
  Variable a = Variable::Parameter(Tensor::Scalar(0.0f));
  a.grad()[0] = 0.5f;
  std::vector<Variable> params = {a};
  ClipGradNorm(params, 1.0f);
  EXPECT_FLOAT_EQ(a.grad()[0], 0.5f);
}

TEST(SerializeTest, SaveLoadRoundtrip) {
  util::Rng rng(13);
  Mlp src({4, 6, 2}, rng);
  Mlp dst({4, 6, 2}, rng);
  const std::string path = ::testing::TempDir() + "/agsc_params.bin";
  std::vector<Variable> src_params = src.Parameters();
  std::vector<Variable> dst_params = dst.Parameters();
  ASSERT_TRUE(SaveParameters(path, src_params));
  ASSERT_TRUE(LoadParameters(path, dst_params));
  Tensor x = Tensor::Uniform(3, 4, rng, -1.0f, 1.0f);
  EXPECT_TRUE(src.Forward(x).value().SameAs(dst.Forward(x).value()));
  std::remove(path.c_str());
}

TEST(SerializeTest, LoadRejectsShapeMismatch) {
  util::Rng rng(14);
  Mlp src({4, 6, 2}, rng);
  Mlp other({4, 5, 2}, rng);
  const std::string path = ::testing::TempDir() + "/agsc_params2.bin";
  std::vector<Variable> src_params = src.Parameters();
  std::vector<Variable> other_params = other.Parameters();
  ASSERT_TRUE(SaveParameters(path, src_params));
  EXPECT_FALSE(LoadParameters(path, other_params));
  std::remove(path.c_str());
}

TEST(SerializeTest, SnapshotRestore) {
  util::Rng rng(15);
  Mlp net({3, 4, 1}, rng);
  std::vector<Variable> params = net.Parameters();
  const std::vector<Tensor> snap = SnapshotParameters(params);
  params[0].mutable_value().Fill(9.0f);
  RestoreParameters(snap, params);
  EXPECT_TRUE(params[0].value().SameAs(snap[0]));
}

TEST(SerializeTest, CopyParameters) {
  util::Rng rng(16);
  Mlp a({3, 4, 1}, rng), b({3, 4, 1}, rng);
  std::vector<Variable> pa = a.Parameters(), pb = b.Parameters();
  CopyParameters(pa, pb);
  Tensor x = Tensor::Uniform(2, 3, rng, -1.0f, 1.0f);
  EXPECT_TRUE(a.Forward(x).value().SameAs(b.Forward(x).value()));
}

}  // namespace
}  // namespace agsc::nn
