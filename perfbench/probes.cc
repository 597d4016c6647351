// Per-layer probes of the traced run: calls into one layer's public
// functions at the shapes the workloads use, each wrapped in a span.
//
//  * nn: MatMul / MatMulTransposedA / MatMulTransposedB at the train_paper
//    minibatch x actor layer shapes — the forward GEMM and the two backward
//    GEMMs of one actor minibatch.
//  * snapshot: PolicySnapshot::ActBatch at max_batch rows.
//  * env + policy: a replica stepped with HiMadrlTrainer::Act actions.

#include <array>

#include "core/policy_snapshot.h"
#include "harness.h"
#include "nn/tensor.h"

namespace perfbench {

using agsc::nn::Tensor;

namespace {

constexpr int kGemmReps = 30;
constexpr int kBatchReps = 200;
constexpr int kEnvEpisodes = 2;

struct GemmShape {
  int m, k, n;  ///< Forward: [m,k] x [k,n].
};

/// Times kGemmReps call sets of `fn(0..layers-1)`, each set in one span;
/// returns the median microseconds per call set.
template <typename Fn>
double TimeGemmSet(const char* span, size_t layers, Fn fn) {
  for (int r = 0; r < kGemmReps; ++r) {
    Span s(span);
    for (size_t j = 0; j < layers; ++j) fn(j);
  }
  return Median(Tracer::Get().Durations(span));
}

}  // namespace

void RunLayerProbes(const Options& opts, Results& results) {
  Tracer& tracer = Tracer::Get();
  tracer.set_enabled(true);
  TrainerRig rig = MakeTrainerRig(opts.scale, opts.seed,
                                  MakeTrainConfig(opts.scale, opts.seed));
  agsc::core::HiMadrlTrainer& trainer = *rig.trainer;

  // --- nn: the actor's layer chain at the optimize minibatch. ---
  std::vector<int> sizes = {rig.env->obs_dim()};
  sizes.insert(sizes.end(), opts.scale.hidden.begin(), opts.scale.hidden.end());
  sizes.push_back(2);
  std::vector<GemmShape> shapes;
  for (size_t l = 0; l + 1 < sizes.size(); ++l) {
    shapes.push_back({opts.scale.minibatch, sizes[l], sizes[l + 1]});
  }
  agsc::util::Rng rng(opts.seed);
  std::vector<Tensor> x, w, dy;  // Inputs [m,k], weights [k,n], grads [m,n].
  double flop = 0.0, bytes = 0.0;
  for (const GemmShape& g : shapes) {
    x.push_back(Tensor::Randn(g.m, g.k, rng));
    w.push_back(Tensor::Randn(g.k, g.n, rng));
    dy.push_back(Tensor::Randn(g.m, g.n, rng));
    flop += 2.0 * g.m * g.k * g.n;
    bytes += 4.0 * (double(g.m) * g.k + double(g.k) * g.n + double(g.m) * g.n);
  }
  float sink = 0.0f;
  const size_t layers = shapes.size();
  const double mm = TimeGemmSet("nn.mm", layers, [&](size_t j) {
    sink += agsc::nn::MatMul(x[j], w[j])[0];  // Y = X W
  });
  const double mm_ta = TimeGemmSet("nn.mm_ta", layers, [&](size_t j) {
    sink += agsc::nn::MatMulTransposedA(x[j], dy[j])[0];  // dW = X^T dY
  });
  const double mm_tb = TimeGemmSet("nn.mm_tb", layers, [&](size_t j) {
    sink += agsc::nn::MatMulTransposedB(dy[j], w[j])[0];  // dX = dY W^T
  });
  results.Metric("nn.mm_us", mm, "us");
  results.Metric("nn.mm_ta_us", mm_ta, "us");
  results.Metric("nn.mm_tb_us", mm_tb, "us");
  // All three compute the same products over the same operands.
  results.Metric("nn.gemm_flop_per_call", flop, "count");
  results.Metric("nn.gemm_bytes_per_call", bytes, "count");
  results.Metric("nn.mm_gflops", flop / (mm * 1e3), "Gflop/s");

  // --- env + policy: a replica stepped with HiMadrlTrainer::Act actions. ---
  agsc::env::ScEnv env = *rig.env;
  std::vector<agsc::env::UvAction> actions(env.num_agents());
  for (int e = 0; e < kEnvEpisodes; ++e) {
    agsc::env::StepResult step;
    {
      Span s("env.reset");
      env.Reset(step);
    }
    while (!step.done) {
      for (int k = 0; k < env.num_agents(); ++k) {
        Span s("policy.act");
        actions[static_cast<size_t>(k)] = trainer.Act(
            env, k, step.observations[static_cast<size_t>(k)], rng, false);
      }
      Span s("env.step");
      env.Step(actions, step);
    }
  }
  results.Metric("env.reset_us", Median(tracer.Durations("env.reset")), "us");
  results.Metric("env.step_us", Median(tracer.Durations("env.step")), "us");
  results.Metric("policy.act_us", Median(tracer.Durations("policy.act")),
                 "us");

  // --- snapshot: ActBatch at max_batch rows of live observations. ---
  const auto snapshot =
      agsc::core::PolicySnapshot::FromTrainer(trainer, "<live>");
  std::vector<std::vector<float>> rows_obs;
  agsc::env::StepResult step = env.Reset();
  while (static_cast<int>(rows_obs.size()) < opts.serve.max_batch) {
    for (int k = 0; k < env.num_agents(); ++k) {
      rows_obs.push_back(step.observations[static_cast<size_t>(k)]);
    }
    step = step.done ? env.Reset() : env.Step(actions);
  }
  rows_obs.resize(static_cast<size_t>(opts.serve.max_batch));
  std::vector<agsc::core::PolicySnapshot::Row> rows;
  for (size_t r = 0; r < rows_obs.size(); ++r) {
    rows.push_back({static_cast<int>(r % env.num_agents()), &rows_obs[r]});
  }
  std::vector<std::array<float, 2>> out;
  for (int r = 0; r < kBatchReps; ++r) {
    Span s("snapshot.act_batch");
    snapshot->ActBatch(rows, out);
    sink += out[0][0];
  }
  results.Metric("snapshot.act_batch_us",
                 Median(tracer.Durations("snapshot.act_batch")), "us");
  results.Info("probe.sink", sink);
  tracer.set_enabled(false);
}

}  // namespace perfbench
