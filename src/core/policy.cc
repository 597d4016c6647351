#include "core/policy.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace agsc::core {

namespace {

std::vector<int> LayerSizes(int in, const std::vector<int>& hidden, int out) {
  std::vector<int> sizes;
  sizes.push_back(in);
  sizes.insert(sizes.end(), hidden.begin(), hidden.end());
  sizes.push_back(out);
  return sizes;
}

}  // namespace

GaussianActor::GaussianActor(int obs_dim, int action_dim,
                             const NetConfig& config, util::Rng& rng)
    : mean_net_(LayerSizes(obs_dim, config.hidden, action_dim), rng,
                nn::Activation::kTanh, nn::Activation::kTanh,
                /*final_gain=*/0.01f),
      log_std_(nn::Variable::Parameter(
          nn::Tensor(1, action_dim, config.log_std_init))) {}

nn::DiagGaussian GaussianActor::Dist(const nn::Tensor& obs_batch) const {
  return nn::DiagGaussian(mean_net_.Forward(obs_batch), log_std_);
}

nn::DiagGaussian GaussianActor::Dist(const nn::Variable& obs_batch) const {
  return nn::DiagGaussian(mean_net_.Forward(obs_batch), log_std_);
}

std::vector<float> GaussianActor::Act(const std::vector<float>& obs,
                                      util::Rng& rng, bool deterministic,
                                      float* logp) const {
  nn::Tensor row(1, static_cast<int>(obs.size()));
  for (size_t i = 0; i < obs.size(); ++i) row[static_cast<int>(i)] = obs[i];
  nn::DiagGaussian dist = Dist(row);
  nn::Tensor action = deterministic ? dist.Mode() : dist.Sample(rng);
  if (logp != nullptr) {
    *logp = dist.LogProb(action).value()(0, 0);
  }
  std::vector<float> out(action.cols());
  for (int c = 0; c < action.cols(); ++c) out[c] = action(0, c);
  return out;
}

std::vector<nn::Variable> GaussianActor::Parameters() const {
  std::vector<nn::Variable> params = mean_net_.Parameters();
  params.push_back(log_std_);
  return params;
}

ValueNet::ValueNet(int input_dim, const NetConfig& config, util::Rng& rng)
    : net_(LayerSizes(input_dim, config.hidden, 1), rng,
           nn::Activation::kTanh, nn::Activation::kNone, 1.0f) {}

nn::Variable ValueNet::Forward(const nn::Tensor& batch) const {
  return net_.Forward(batch);
}

nn::Variable ValueNet::Forward(const nn::Variable& batch) const {
  return net_.Forward(batch);
}

std::vector<float> ValueNet::Values(
    const std::vector<std::vector<float>>& rows) const {
  // Rows are independent through Infer, so chunking bounds the transient
  // input and activation buffers without changing a single result bit.
  constexpr size_t kChunkRows = 128;
  std::vector<float> out(rows.size());
  for (size_t r0 = 0; r0 < rows.size(); r0 += kChunkRows) {
    const size_t n = std::min(kChunkRows, rows.size() - r0);
    const int dim = static_cast<int>(rows[r0].size());
    nn::Tensor batch(static_cast<int>(n), dim);
    for (size_t r = 0; r < n; ++r) {
      std::copy(rows[r0 + r].begin(), rows[r0 + r].end(),
                batch.data() + r * static_cast<size_t>(dim));
    }
    const nn::Tensor values = net_.Infer(batch);
    for (size_t r = 0; r < n; ++r) out[r0 + r] = values[static_cast<int>(r)];
  }
  return out;
}

SuccessorRows PairSuccessors(
    const std::vector<std::vector<float>>& rows,
    const std::vector<std::vector<float>>& next_rows) {
  if (rows.size() != next_rows.size()) {
    throw std::invalid_argument(
        "PairSuccessors: rows/next_rows length mismatch");
  }
  SuccessorRows out;
  out.rows = &rows;
  for (size_t i = 0; i < next_rows.size(); ++i) {
    const std::vector<float>& next = next_rows[i];
    const bool follows =
        i + 1 < rows.size() && rows[i + 1].size() == next.size() &&
        (next.empty() || std::memcmp(rows[i + 1].data(), next.data(),
                                     next.size() * sizeof(float)) == 0);
    if (!follows) {
      out.fresh.push_back(i);
      out.fresh_rows.push_back(next);
    }
  }
  return out;
}

size_t ValueNet::PairedValues(const SuccessorRows& in,
                              std::vector<float>& values,
                              std::vector<float>& next_values) const {
  values = Values(*in.rows);
  const std::vector<float> fresh = Values(in.fresh_rows);
  next_values.resize(values.size());
  size_t j = 0;
  for (size_t i = 0; i < values.size(); ++i) {
    // The last row is always fresh, so values[i + 1] stays in range.
    next_values[i] = j < in.fresh.size() && in.fresh[j] == i
                         ? fresh[j++]
                         : values[i + 1];
  }
  return values.size() + fresh.size();
}

std::vector<nn::Variable> ValueNet::Parameters() const {
  return net_.Parameters();
}

}  // namespace agsc::core
