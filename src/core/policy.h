#ifndef AGSC_CORE_POLICY_H_
#define AGSC_CORE_POLICY_H_

#include <cstddef>
#include <vector>

#include "nn/distributions.h"
#include "nn/layers.h"

namespace agsc::core {

/// Network sizes shared by all actors/critics (paper: fully-connected
/// layers only, Section VI-F).
struct NetConfig {
  std::vector<int> hidden = {128, 64};
  float log_std_init = -0.5f;
};

/// Gaussian policy head over the 2-D continuous UV action (direction,
/// speed): an MLP with tanh-bounded mean plus a state-independent
/// learnable log-std vector.
class GaussianActor : public nn::Module {
 public:
  GaussianActor(int obs_dim, int action_dim, const NetConfig& config,
                util::Rng& rng);

  /// Builds the policy distribution for a batch of observations
  /// (differentiable through mean and log_std).
  nn::DiagGaussian Dist(const nn::Tensor& obs_batch) const;
  /// Same, over an existing graph leaf (lets several networks share one
  /// input copy).
  nn::DiagGaussian Dist(const nn::Variable& obs_batch) const;

  /// Samples one action for a single observation; outputs the log-prob of
  /// the sample. `deterministic` returns the mode.
  std::vector<float> Act(const std::vector<float>& obs, util::Rng& rng,
                         bool deterministic, float* logp) const;

  std::vector<nn::Variable> Parameters() const override;

  int obs_dim() const { return mean_net_.in_features(); }
  int action_dim() const { return mean_net_.out_features(); }
  const nn::Variable& log_std() const { return log_std_; }
  /// The mean MLP, exposed for values-only batched inference (serving):
  /// mean_net().Infer(batch) is bit-identical to the per-row deterministic
  /// Act path, which returns the distribution mode = the tanh-bounded mean.
  const nn::Mlp& mean_net() const { return mean_net_; }

 private:
  nn::Mlp mean_net_;
  nn::Variable log_std_;
};

/// The input rows of one value stream and the successor of each row
/// (o_t and o_{t+1}). Inside an episode next_rows[i] is rows[i+1] bit for
/// bit, since both are copied from one StepResult, so only the successors
/// that differ are kept: episode ends, and wherever the buffer joins two
/// workers' or episodes' rows.
struct SuccessorRows {
  const std::vector<std::vector<float>>* rows = nullptr;
  std::vector<size_t> fresh;  ///< Ascending i whose successor differs.
  std::vector<std::vector<float>> fresh_rows;  ///< next_rows[fresh[j]].
};

/// Pairs `rows` with `next_rows` (kept by pointer; must outlive the result)
/// by comparing each next_rows[i] with rows[i+1] byte for byte, never by
/// assuming a buffer layout: -0.0 and +0.0 differ, a NaN matches only the
/// same bits. The last row's successor is always fresh. Throws
/// std::invalid_argument if the lengths differ.
SuccessorRows PairSuccessors(const std::vector<std::vector<float>>& rows,
                             const std::vector<std::vector<float>>& next_rows);

/// Scalar value network V(input) -> 1 (used for V^k, V_HE, V_HO, V_all).
class ValueNet : public nn::Module {
 public:
  ValueNet(int input_dim, const NetConfig& config, util::Rng& rng);

  /// Differentiable forward pass -> Nx1.
  nn::Variable Forward(const nn::Tensor& batch) const;
  nn::Variable Forward(const nn::Variable& batch) const;

  /// Values only for a list of feature rows: Mlp::Infer over fixed-size
  /// row chunks, no autograd graph, bit-identical to
  /// Forward(batch).value().
  std::vector<float> Values(const std::vector<std::vector<float>>& rows) const;
  /// Values of `in.rows` and of their successors, evaluating each distinct
  /// row once: a successor equal to the following row takes that row's
  /// value, which is exact because Infer is row-independent (the property
  /// Values' chunking already relies on). Bit-identical to Values(rows)
  /// plus Values(next_rows). Returns the number of rows evaluated:
  /// rows + fresh successors.
  size_t PairedValues(const SuccessorRows& in, std::vector<float>& values,
                      std::vector<float>& next_values) const;

  std::vector<nn::Variable> Parameters() const override;

  int input_dim() const { return net_.in_features(); }

 private:
  nn::Mlp net_;
};

}  // namespace agsc::core

#endif  // AGSC_CORE_POLICY_H_
