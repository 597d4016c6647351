// Determinism tests for the in-process rollout sampler: bit-identical
// collection for a fixed (seed, num_workers) pair, exact equivalence of
// the single-worker path with a hand-written Reset/Act/Step loop (every
// buffer field, terminal successors included), stable worker-order
// merging, and bit-exact checkpoint resume with worker RNG streams (the
// "vrng" checkpoint section).

#include <unistd.h>

#include <array>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/hi_madrl.h"
#include "core/rollout.h"
#include "core/vec_sampler.h"
#include "env/config.h"
#include "env/sc_env.h"
#include "map/campus.h"
#include "util/rng.h"

namespace agsc {
namespace {

const map::Dataset& SmallDataset() {
  static const map::Dataset* dataset =
      new map::Dataset(map::BuildDataset(map::CampusId::kPurdue, 10));
  return *dataset;
}

constexpr int kTimeslots = 6;

env::EnvConfig SmallEnvConfig() {
  env::EnvConfig config;
  config.num_timeslots = kTimeslots;
  config.num_pois = 10;
  config.num_uavs = 1;
  config.num_ugvs = 1;
  return config;
}

core::TrainConfig SmallTrainConfig(int num_workers, int episodes = 3) {
  core::TrainConfig train;
  train.iterations = 2;
  train.episodes_per_iteration = episodes;
  train.policy_epochs = 1;
  train.lcf_epochs = 1;
  train.minibatch = 64;
  train.net.hidden = {16};
  train.eoi.hidden = {12};
  train.num_workers = num_workers;
  train.seed = 11;
  train.verbose = false;
  return train;
}

std::string TempPath(const std::string& name) {
  // pid-scoped: gtest's TempDir is shared across concurrently running test
  // processes (ctest -j), and fixed names collide.
  return ::testing::TempDir() + "/p" + std::to_string(::getpid()) + "_" + name;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

/// Bitwise equality of two buffers across every stream (EXPECT_EQ on
/// floats is exact — the determinism contract is bit-identity, not
/// approximate agreement).
void ExpectBuffersBitEqual(const core::MultiAgentBuffer& a,
                           const core::MultiAgentBuffer& b) {
  ASSERT_EQ(a.agents.size(), b.agents.size());
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.states, b.states);
  EXPECT_EQ(a.next_states, b.next_states);
  EXPECT_EQ(a.reward_all, b.reward_all);
  EXPECT_EQ(a.done, b.done);
  for (size_t k = 0; k < a.agents.size(); ++k) {
    const core::AgentRollout& x = a.agents[k];
    const core::AgentRollout& y = b.agents[k];
    ASSERT_EQ(x.size(), y.size()) << "agent " << k;
    EXPECT_EQ(x.obs, y.obs) << "agent " << k;
    EXPECT_EQ(x.next_obs, y.next_obs) << "agent " << k;
    EXPECT_EQ(x.action_dir, y.action_dir) << "agent " << k;
    EXPECT_EQ(x.action_speed, y.action_speed) << "agent " << k;
    EXPECT_EQ(x.logp_old, y.logp_old) << "agent " << k;
    EXPECT_EQ(x.reward_ext, y.reward_ext) << "agent " << k;
    EXPECT_EQ(x.he_neighbors, y.he_neighbors) << "agent " << k;
    EXPECT_EQ(x.ho_neighbors, y.ho_neighbors) << "agent " << k;
    EXPECT_EQ(x.done, y.done) << "agent " << k;
  }
}

// ---------------------------------------------------------------------------
// Rng::Split.
// ---------------------------------------------------------------------------

TEST(RngSplitTest, DoesNotAdvanceParent) {
  util::Rng rng(42);
  const auto before = rng.SaveState();
  (void)rng.Split(0);
  (void)rng.Split(7);
  EXPECT_EQ(rng.SaveState(), before);
}

TEST(RngSplitTest, SameIdSameStreamDistinctIdsDiverge) {
  const util::Rng base(42);
  util::Rng a = base.Split(3);
  util::Rng b = base.Split(3);
  util::Rng c = base.Split(4);
  EXPECT_EQ(a.SaveState(), b.SaveState());
  bool diverged = false;
  for (int i = 0; i < 8; ++i) {
    const uint64_t av = a.NextU64();
    if (av != c.NextU64()) diverged = true;
    EXPECT_EQ(av, b.NextU64());
  }
  EXPECT_TRUE(diverged);
}

TEST(RngSplitTest, ChildDiffersFromParentStream) {
  util::Rng parent(42);
  util::Rng child = parent.Split(0);
  bool diverged = false;
  for (int i = 0; i < 8; ++i) {
    if (parent.NextU64() != child.NextU64()) diverged = true;
  }
  EXPECT_TRUE(diverged);
}

// ---------------------------------------------------------------------------
// Direct VecSampler collection with small untrained actors.
// ---------------------------------------------------------------------------

/// One untrained actor per agent of the small env (hidden {16}).
struct TestActors {
  std::vector<core::GaussianActor> nets;
  core::RolloutActors rollout;

  explicit TestActors(const env::ScEnv& env) {
    util::Rng rng(5);
    core::NetConfig net;
    net.hidden = {16};
    nets.reserve(static_cast<size_t>(env.num_agents()));
    for (int k = 0; k < env.num_agents(); ++k) {
      nets.emplace_back(env.obs_dim(), env::ScEnv::kActionDim, net, rng);
      rollout.per_agent.push_back(&nets.back());
    }
  }
};

TEST(VecSamplerTest, RejectsNonPositiveWorkerCount) {
  env::ScEnv env(SmallEnvConfig(), SmallDataset(), 11);
  util::Rng rng(11);
  EXPECT_THROW(core::VecSampler(env, rng, 0, 11), std::invalid_argument);
}

TEST(VecSamplerTest, MergedBufferHasEpisodeShapeAndStableOrder) {
  env::ScEnv env(SmallEnvConfig(), SmallDataset(), 11);
  util::Rng rng(11);
  core::VecSampler sampler(env, rng, 2, 11);
  const TestActors actors(env);

  core::MultiAgentBuffer buffer(env.num_agents());
  std::vector<env::Metrics> metrics;
  constexpr int kEpisodes = 3;
  sampler.Collect(kEpisodes, actors.rollout, buffer, metrics);

  // Fixed-length episodes: every episode contributes exactly kTimeslots
  // steps, and the merge is episode-contiguous, so done flags sit exactly
  // at the episode boundaries.
  ASSERT_EQ(buffer.size(), static_cast<size_t>(kEpisodes * kTimeslots));
  EXPECT_EQ(metrics.size(), static_cast<size_t>(kEpisodes));
  for (int e = 0; e < kEpisodes; ++e) {
    for (int t = 0; t < kTimeslots; ++t) {
      const size_t i = static_cast<size_t>(e * kTimeslots + t);
      EXPECT_EQ(buffer.done[i], t == kTimeslots - 1 ? 1 : 0) << "row " << i;
    }
  }
  for (const core::AgentRollout& agent : buffer.agents) {
    EXPECT_EQ(agent.size(), buffer.size());
  }
}

TEST(VecSamplerTest, CollectionIsBitIdenticalAcrossRuns) {
  auto collect = [](int num_workers, int episodes) {
    env::ScEnv env(SmallEnvConfig(), SmallDataset(), 11);
    util::Rng rng(11);
    core::VecSampler sampler(env, rng, num_workers, 11);
    const TestActors actors(env);
    core::MultiAgentBuffer buffer(env.num_agents());
    std::vector<env::Metrics> metrics;
    sampler.Collect(episodes, actors.rollout, buffer, metrics);
    return buffer;
  };
  for (const int workers : {1, 2, 4}) {
    const core::MultiAgentBuffer a = collect(workers, 5);
    const core::MultiAgentBuffer b = collect(workers, 5);
    SCOPED_TRACE("workers=" + std::to_string(workers));
    ExpectBuffersBitEqual(a, b);
  }
}

TEST(VecSamplerTest, MoreWorkersThanEpisodesStillDeterministic) {
  auto collect = [] {
    env::ScEnv env(SmallEnvConfig(), SmallDataset(), 11);
    util::Rng rng(11);
    core::VecSampler sampler(env, rng, 8, 11);
    const TestActors actors(env);
    core::MultiAgentBuffer buffer(env.num_agents());
    std::vector<env::Metrics> metrics;
    sampler.Collect(3, actors.rollout, buffer, metrics);
    EXPECT_EQ(metrics.size(), 3u);
    return buffer;
  };
  const core::MultiAgentBuffer a = collect();
  const core::MultiAgentBuffer b = collect();
  ASSERT_EQ(a.size(), static_cast<size_t>(3 * kTimeslots));
  ExpectBuffersBitEqual(a, b);
}

// ---------------------------------------------------------------------------
// Trainer-level equivalence and determinism.
// ---------------------------------------------------------------------------

TEST(VecSamplerTest, SingleWorkerMatchesAHandWrittenLoopBitExactly) {
  // The reference is written out here, independent of RunEpisode and
  // BufferSink: Reset, one Act per agent from the sampling stream, Step,
  // append every field. Successors are compared too, including the
  // terminal next_obs/next_states that the learner masks on done rows and
  // that the proc workers ship in their episode-end record.
  constexpr int kEpisodes = 3;
  env::ScEnv env(SmallEnvConfig(), SmallDataset(), 11);
  util::Rng rng(11);
  const TestActors actors(env);
  core::VecSampler sampler(env, rng, 1, 11);
  core::MultiAgentBuffer buffer(env.num_agents());
  std::vector<env::Metrics> metrics;
  sampler.Collect(kEpisodes, actors.rollout, buffer, metrics);

  env::ScEnv ref_env(SmallEnvConfig(), SmallDataset(), 11);
  util::Rng ref_rng(11);
  const int n = ref_env.num_agents();
  core::MultiAgentBuffer ref(n);
  std::vector<env::Metrics> ref_metrics;
  for (int e = 0; e < kEpisodes; ++e) {
    env::StepResult cur, next;
    ref_env.Reset(cur);
    do {
      std::vector<env::UvAction> uv(static_cast<size_t>(n));
      std::vector<std::vector<float>> raw(static_cast<size_t>(n));
      std::vector<float> logps(static_cast<size_t>(n));
      for (int k = 0; k < n; ++k) {
        raw[k] = actors.nets[k].Act(cur.observations[k], ref_rng,
                                    /*deterministic=*/false, &logps[k]);
        uv[k] = {raw[k][0], raw[k][1]};
      }
      ref_env.Step(uv, next);
      for (int k = 0; k < n; ++k) {
        core::AgentRollout& ar = ref.agents[k];
        ar.obs.push_back(cur.observations[k]);
        ar.next_obs.push_back(next.observations[k]);
        ar.action_dir.push_back(raw[k][0]);
        ar.action_speed.push_back(raw[k][1]);
        ar.logp_old.push_back(logps[k]);
        ar.reward_ext.push_back(static_cast<float>(next.rewards[k]));
        ar.he_neighbors.push_back(ref_env.HeterogeneousNeighbors(k));
        ar.ho_neighbors.push_back(ref_env.HomogeneousNeighbors(k));
        ar.done.push_back(next.done ? 1 : 0);
      }
      ref.states.push_back(cur.state);
      ref.next_states.push_back(next.state);
      ref.done.push_back(next.done ? 1 : 0);
      cur = next;
    } while (!cur.done);
    ref_metrics.push_back(ref_env.EpisodeMetrics());
  }

  ExpectBuffersBitEqual(ref, buffer);
  // The terminal successors explicitly: the last row of every episode.
  for (int e = 0; e < kEpisodes; ++e) {
    const size_t last = static_cast<size_t>((e + 1) * kTimeslots - 1);
    ASSERT_EQ(buffer.done[last], 1);
    EXPECT_EQ(buffer.next_states[last], ref.next_states[last]);
    for (int k = 0; k < n; ++k) {
      EXPECT_EQ(buffer.agents[k].next_obs[last], ref.agents[k].next_obs[last])
          << "episode " << e << " agent " << k;
    }
  }
  ASSERT_EQ(metrics.size(), ref_metrics.size());
  for (size_t i = 0; i < metrics.size(); ++i) {
    EXPECT_EQ(metrics[i].ToVector(), ref_metrics[i].ToVector());
  }
  EXPECT_EQ(rng.SaveState(), ref_rng.SaveState());
  EXPECT_EQ(env.rng().SaveState(), ref_env.rng().SaveState());
}

TEST(VecSamplerTrainerTest, ZeroWorkersIsRejected) {
  env::ScEnv env(SmallEnvConfig(), SmallDataset(), 11);
  EXPECT_THROW(core::HiMadrlTrainer(env, SmallTrainConfig(0)),
               std::invalid_argument);
}

TEST(VecSamplerTrainerTest, SameSeedSameWorkersIsBitIdentical) {
  auto run = [](const std::string& name) {
    env::ScEnv env(SmallEnvConfig(), SmallDataset(), 11);
    core::HiMadrlTrainer trainer(env, SmallTrainConfig(3, 5));
    trainer.TrainTo(2);
    const std::string path = TempPath(name);
    EXPECT_TRUE(trainer.SaveCheckpoint(path));
    std::string bytes = ReadFileBytes(path);
    std::remove(path.c_str());
    return bytes;
  };
  EXPECT_EQ(run("det_a.agsc"), run("det_b.agsc"));
}

TEST(VecSamplerTrainerTest, WorkerRolloutsDifferButBufferShapeMatches) {
  // Different worker counts legitimately produce different samples (the
  // replica streams reorder the randomness) but identical buffer shape.
  env::ScEnv env1(SmallEnvConfig(), SmallDataset(), 11);
  core::HiMadrlTrainer t1(env1, SmallTrainConfig(1, 4));
  env::ScEnv env2(SmallEnvConfig(), SmallDataset(), 11);
  core::HiMadrlTrainer t2(env2, SmallTrainConfig(2, 4));
  t1.CollectRollouts();
  t2.CollectRollouts();
  EXPECT_EQ(t1.buffer().size(), t2.buffer().size());
  EXPECT_EQ(t1.buffer().size(), static_cast<size_t>(4 * kTimeslots));
}

TEST(VecSamplerTrainerTest, ResumeWithWorkersIsBitExact) {
  // Train 4 iterations with 2 workers straight through...
  env::ScEnv env_full(SmallEnvConfig(), SmallDataset(), 11);
  core::HiMadrlTrainer full(env_full, SmallTrainConfig(2));
  full.TrainTo(4);
  const std::string full_path = TempPath("vec_full.agsc");
  ASSERT_TRUE(full.SaveCheckpoint(full_path));

  // ...and as 2 iterations, a checkpoint round-trip through a FRESH
  // trainer (which restores every worker RNG stream from the vrng
  // section), then 2 more.
  const std::string mid_path = TempPath("vec_mid.agsc");
  {
    env::ScEnv env_a(SmallEnvConfig(), SmallDataset(), 11);
    core::HiMadrlTrainer first_half(env_a, SmallTrainConfig(2));
    first_half.TrainTo(2);
    ASSERT_TRUE(first_half.SaveCheckpoint(mid_path));
  }
  env::ScEnv env_b(SmallEnvConfig(), SmallDataset(), 11);
  core::HiMadrlTrainer second_half(env_b, SmallTrainConfig(2));
  ASSERT_TRUE(second_half.LoadCheckpoint(mid_path));
  EXPECT_EQ(second_half.iteration(), 2);
  second_half.TrainTo(4);
  const std::string resumed_path = TempPath("vec_resumed.agsc");
  ASSERT_TRUE(second_half.SaveCheckpoint(resumed_path));

  EXPECT_EQ(ReadFileBytes(full_path), ReadFileBytes(resumed_path));
  std::remove(full_path.c_str());
  std::remove(mid_path.c_str());
  std::remove(resumed_path.c_str());
}

TEST(VecSamplerTrainerTest, WorkerCountMismatchOnLoadIsRejected) {
  const std::string w3_path = TempPath("w3.agsc");
  const std::string w1_path = TempPath("w1.agsc");
  {
    env::ScEnv env(SmallEnvConfig(), SmallDataset(), 11);
    core::HiMadrlTrainer trainer(env, SmallTrainConfig(3));
    trainer.TrainIteration();
    ASSERT_TRUE(trainer.SaveCheckpoint(w3_path));
  }
  {
    env::ScEnv env(SmallEnvConfig(), SmallDataset(), 11);
    core::HiMadrlTrainer trainer(env, SmallTrainConfig(1));
    trainer.TrainIteration();
    ASSERT_TRUE(trainer.SaveCheckpoint(w1_path));
  }

  // W=3 file into W=2 and W=1 trainers: both rejected.
  for (const int workers : {2, 1}) {
    env::ScEnv env(SmallEnvConfig(), SmallDataset(), 11);
    core::HiMadrlTrainer trainer(env, SmallTrainConfig(workers));
    EXPECT_FALSE(trainer.LoadCheckpoint(w3_path)) << "workers=" << workers;
  }
  // W=1 file (no vrng section) into a W=3 trainer: also rejected — the
  // file cannot seed 3 worker streams.
  {
    env::ScEnv env(SmallEnvConfig(), SmallDataset(), 11);
    core::HiMadrlTrainer trainer(env, SmallTrainConfig(3));
    EXPECT_FALSE(trainer.LoadCheckpoint(w1_path));
  }
  // Sanity: the same file loads fine with a matching worker count.
  {
    env::ScEnv env(SmallEnvConfig(), SmallDataset(), 11);
    core::HiMadrlTrainer trainer(env, SmallTrainConfig(3));
    EXPECT_TRUE(trainer.LoadCheckpoint(w3_path));
  }
  std::remove(w3_path.c_str());
  std::remove(w1_path.c_str());
}

}  // namespace
}  // namespace agsc
