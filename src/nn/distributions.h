#ifndef AGSC_NN_DISTRIBUTIONS_H_
#define AGSC_NN_DISTRIBUTIONS_H_

#include <vector>

#include "nn/ops.h"
#include "util/rng.h"

namespace agsc::nn {

/// Batched diagonal Gaussian policy head N(mean, diag(exp(log_std))^2).
///
/// `mean` is an NxD graph variable (actor output); `log_std` is a 1xD
/// trainable parameter broadcast over the batch. Sampling happens outside
/// the graph (values only); log-probabilities and entropy are differentiable
/// graph expressions, which is exactly what PPO needs.
class DiagGaussian {
 public:
  DiagGaussian(Variable mean, Variable log_std);

  /// Draws one action per row; returns an NxD tensor (no graph).
  Tensor Sample(util::Rng& rng) const;

  /// Returns the deterministic mode (= mean values, no graph).
  Tensor Mode() const;

  /// Differentiable log p(actions) -> Nx1 column.
  Variable LogProb(const Tensor& actions) const;

  /// Differentiable mean entropy per sample -> 1x1 scalar
  /// (H = sum_d log_std_d + D/2 (1 + log 2 pi)).
  Variable Entropy() const;

  const Variable& mean() const { return mean_; }
  const Variable& log_std() const { return log_std_; }
  int dims() const { return mean_.cols(); }

 private:
  Variable mean_;     // N x D.
  Variable log_std_;  // 1 x D parameter.
};

/// Batched categorical distribution over logits (row-wise).
class CategoricalDist {
 public:
  explicit CategoricalDist(Variable logits);

  /// Draws one class index per row.
  std::vector<int> Sample(util::Rng& rng) const;

  /// Argmax class per row.
  std::vector<int> Mode() const;

  /// Differentiable log p(labels) -> Nx1 column.
  Variable LogProb(const std::vector<int>& labels) const;

  /// Differentiable mean entropy -> 1x1 scalar.
  Variable Entropy() const;

  /// Softmax probabilities (values only, no graph).
  Tensor Probabilities() const;

  const Variable& logits() const { return logits_; }

 private:
  Variable logits_;
};

}  // namespace agsc::nn

#endif  // AGSC_NN_DISTRIBUTIONS_H_
