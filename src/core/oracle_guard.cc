#include "core/oracle_guard.h"

#include <array>
#include <sstream>
#include <vector>

#include "nn/tensor.h"
#include "util/rng.h"

namespace agsc::core {

namespace {

bool EventsEqual(const env::CollectionEvent& a, const env::CollectionEvent& b) {
  return a.subchannel == b.subchannel && a.uav == b.uav && a.ugv == b.ugv &&
         a.poi_uav == b.poi_uav && a.poi_ugv == b.poi_ugv &&
         a.collected_uav_gbit == b.collected_uav_gbit &&
         a.collected_ugv_gbit == b.collected_ugv_gbit &&
         a.loss_uav == b.loss_uav && a.loss_ugv == b.loss_ugv &&
         a.sinr_uplink_uav_db == b.sinr_uplink_uav_db &&
         a.sinr_relay_db == b.sinr_relay_db &&
         a.sinr_uplink_ugv_db == b.sinr_uplink_ugv_db;
}

bool StepResultsEqual(const env::StepResult& a, const env::StepResult& b) {
  if (a.observations != b.observations || a.state != b.state ||
      a.rewards != b.rewards || a.done != b.done ||
      a.events.size() != b.events.size()) {
    return false;
  }
  for (size_t i = 0; i < a.events.size(); ++i) {
    if (!EventsEqual(a.events[i], b.events[i])) return false;
  }
  return true;
}

void RandomActions(util::Rng& rng, std::vector<env::UvAction>& actions) {
  for (env::UvAction& a : actions) {
    a = {rng.Uniform(-1.0, 1.0), rng.Uniform(-1.0, 1.0)};
  }
}

}  // namespace

OracleCheckResult NnKernelSelfCheck() {
  if (nn::GetKernelConfig().gemm == nn::GemmKernel::kNaive) return {};
  // Fixed shapes spanning the interesting kernel regimes: tiny (below any
  // blocking threshold), tall-skinny, a block-sized square, a short wide
  // product that reaches MatMul's 1x64 row tile and TransposedB's 1-row
  // panel path, and one whose TransposedB runs a full 8x8 packed tile next
  // to a remainder row and an edge column.
  struct Shape {
    int m, k, n;
  };
  constexpr std::array<Shape, 5> kShapes = {
      {{7, 13, 5}, {1, 96, 33}, {64, 64, 64}, {3, 40, 65}, {9, 31, 17}}};
  util::Rng rng(0x0AC1E5EEDULL);
  for (const Shape& s : kShapes) {
    const nn::Tensor a = nn::Tensor::Randn(s.m, s.k, rng);
    const nn::Tensor b = nn::Tensor::Randn(s.k, s.n, rng);
    const nn::Tensor bt = nn::Tensor::Randn(s.n, s.k, rng);
    const nn::Tensor at = nn::Tensor::Randn(s.k, s.m, rng);
    const char* op = nullptr;
    if (!nn::MatMul(a, b).SameAs(nn::internal::NaiveMatMul(a, b))) {
      op = "MatMul";
    } else if (!nn::MatMulTransposedB(a, bt).SameAs(
                   nn::internal::NaiveMatMulTransposedB(a, bt))) {
      op = "MatMulTransposedB";
    } else if (!nn::MatMulTransposedA(at, b).SameAs(
                   nn::internal::NaiveMatMulTransposedA(at, b))) {
      op = "MatMulTransposedA";
    }
    if (op) {
      std::ostringstream detail;
      detail << op << " (" << s.m << "x" << s.k << " * " << s.k << "x" << s.n
             << ") differs from the naive reference kernel";
      return {false, detail.str()};
    }
  }
  return {};
}

OracleCheckResult EnvSelfCheck(const env::ScEnv& env, int steps) {
  if (!env.config().use_spatial_index || steps <= 0) return {};
  // Both copies inherit env's current RNG state, so their episode
  // randomness is identical; only the query paths differ.
  env::ScEnv indexed(env);
  env::ScEnv naive(env);
  naive.DisableSpatialIndex();

  env::StepResult si, sn;
  indexed.Reset(si);
  naive.Reset(sn);
  if (!StepResultsEqual(si, sn)) {
    return {false, "Reset: indexed env differs from the naive oracle"};
  }
  util::Rng action_rng(0x0AC1E0ACULL);
  std::vector<env::UvAction> actions(
      static_cast<size_t>(indexed.num_agents()));
  for (int t = 0; t < steps; ++t) {
    RandomActions(action_rng, actions);
    indexed.Step(actions, si);
    naive.Step(actions, sn);
    if (!StepResultsEqual(si, sn)) {
      std::ostringstream detail;
      detail << "Step " << t << ": indexed env differs from the naive oracle";
      return {false, detail.str()};
    }
    if (si.done) break;
  }
  return {};
}

OracleCheckResult ChannelSelfCheck(const env::ScEnv& env, int steps) {
  if (!env.config().use_channel_batch || env.config().env_fast_math ||
      steps <= 0) {
    return {};
  }
  env::ScEnv batched(env);
  env::ScEnv scalar(env);
  scalar.DisableChannelBatch();

  env::StepResult sb, ss;
  batched.Reset(sb);
  scalar.Reset(ss);
  if (!StepResultsEqual(sb, ss)) {
    return {false, "Reset: batched channel differs from the scalar oracle"};
  }
  util::Rng action_rng(0x0AC1E0ACULL);
  std::vector<env::UvAction> actions(
      static_cast<size_t>(batched.num_agents()));
  for (int t = 0; t < steps; ++t) {
    RandomActions(action_rng, actions);
    batched.Step(actions, sb);
    scalar.Step(actions, ss);
    if (!StepResultsEqual(sb, ss)) {
      std::ostringstream detail;
      detail << "Step " << t
             << ": batched channel differs from the scalar oracle";
      return {false, detail.str()};
    }
    if (sb.done) break;
  }
  return {};
}

}  // namespace agsc::core
