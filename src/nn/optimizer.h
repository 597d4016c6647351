#ifndef AGSC_NN_OPTIMIZER_H_
#define AGSC_NN_OPTIMIZER_H_

#include <vector>

#include "nn/autograd.h"

namespace agsc::nn {

/// Base class for first-order optimizers over a fixed parameter list.
class Optimizer {
 public:
  explicit Optimizer(std::vector<Variable> params);
  virtual ~Optimizer() = default;

  /// Applies one update using the gradients currently stored in the
  /// parameters, then leaves the gradients untouched (call ZeroGrad()).
  virtual void Step() = 0;

  /// Clears all parameter gradients.
  void ZeroGrad();

  /// Appends more parameters (e.g. a lazily-created head).
  void AddParameters(const std::vector<Variable>& more);

  const std::vector<Variable>& params() const { return params_; }

 protected:
  std::vector<Variable> params_;
};

/// Plain stochastic gradient descent: p -= lr * g.
class Sgd : public Optimizer {
 public:
  Sgd(std::vector<Variable> params, float lr);
  void Step() override;

  float lr() const { return lr_; }
  void set_lr(float lr) { lr_ = lr; }

 private:
  float lr_;
};

/// Adam (Kingma & Ba 2015) with bias correction.
class Adam : public Optimizer {
 public:
  /// Complete serializable optimizer state (checkpoint/resume support).
  struct State {
    long step_count = 0;
    float lr = 0.0f;
    std::vector<Tensor> m;  ///< First-moment estimates, one per parameter.
    std::vector<Tensor> v;  ///< Second-moment estimates, one per parameter.
  };

  Adam(std::vector<Variable> params, float lr, float beta1 = 0.9f,
       float beta2 = 0.999f, float eps = 1e-8f);
  void Step() override;

  /// Step that commits no parameter when any updated value would be
  /// non-finite; the moments and step count advance either way. Same bits
  /// as Step() followed by restoring the parameters from a snapshot taken
  /// before it, without holding the snapshot. Returns false if nothing
  /// was committed.
  bool GuardedStep();

  float lr() const { return lr_; }
  void set_lr(float lr) { lr_ = lr; }
  long step_count() const { return step_count_; }

  /// Captures step count, learning rate, and both moment vectors (moments
  /// are materialized at their parameter shapes even before the first
  /// Step()).
  State ExportState();

  /// Restores a state captured by ExportState. Returns false (leaving the
  /// optimizer untouched) if the moment shapes do not match the parameters.
  bool ImportState(const State& state);

 private:
  void EnsureState();
  bool StepImpl(bool guarded);

  float lr_, beta1_, beta2_, eps_;
  long step_count_ = 0;
  std::vector<Tensor> m_;
  std::vector<Tensor> v_;
};

/// Rescales gradients of `params` so their global L2 norm is at most
/// `max_norm`; returns the pre-clipping norm.
float ClipGradNorm(std::vector<Variable>& params, float max_norm);

}  // namespace agsc::nn

#endif  // AGSC_NN_OPTIMIZER_H_
