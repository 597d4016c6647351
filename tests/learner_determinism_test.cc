// Absolute determinism of the learner: golden digests of the checkpoint
// bytes and IterationStats after two training iterations of a small
// 2 UAV + 2 UGV run, for every update path (h/i-MADRL, plain CoPO, no
// CoPO, shared parameters, MAPPO, the centralized critic, four rollout
// workers, and the divergence guard under injected NaN losses), and the
// invariance of both under the agent-parallel learner's pool width, the
// GEMM thread count and the GEMM SIMD tier. Also the learner's paired value
// pass (PairSuccessors / ValueNet::PairedValues). Part of the
// ThreadSanitizer campaign (README, "Parallel rollout collection").
//
// Every other equivalence test compares a fast path with its oracle inside
// one build, so a change that alters both passes silently; these digests
// are pinned in the tree instead. A failure means the training math, the
// RNG draw order or the checkpoint layout CHANGED. If that is intentional,
// copy the digests printed by the failing assertion into kGolden in the
// same commit that changes the behaviour, and say why in CHANGES.md.

#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/hi_madrl.h"
#include "core/policy.h"
#include "env/config.h"
#include "env/sc_env.h"
#include "map/campus.h"
#include "nn/tensor.h"
#include "util/fault_inject.h"
#include "util/rng.h"

namespace agsc {
namespace {

const map::Dataset& Dataset() {
  static const map::Dataset* dataset =
      new map::Dataset(map::BuildDataset(map::CampusId::kPurdue, 12));
  return *dataset;
}

env::EnvConfig EnvConfig() {
  env::EnvConfig config;
  config.num_timeslots = 8;
  config.num_pois = 12;
  config.num_uavs = 2;
  config.num_ugvs = 2;
  return config;
}

/// Two episodes of 8 timeslots = 16 rows per agent; minibatch 6 splits
/// every epoch into 3 minibatches, so permutations and per-minibatch
/// guard decisions are exercised.
core::TrainConfig BaseConfig() {
  core::TrainConfig train;
  train.iterations = 2;
  train.episodes_per_iteration = 2;
  train.policy_epochs = 2;
  train.lcf_epochs = 2;
  train.minibatch = 6;
  train.net.hidden = {16, 8};
  train.eoi.hidden = {12};
  train.eoi.minibatch = 6;
  train.seed = 7;
  return train;
}

struct Variant {
  const char* name;
  core::TrainConfig train;
  int nan_loss_every = 0;  ///< Injected NaN actor loss every Kth minibatch.
};

std::vector<Variant> Variants() {
  std::vector<Variant> out;
  out.push_back({"himadrl", BaseConfig()});
  Variant plain{"plain_copo", BaseConfig()};
  plain.train.hetero_copo = false;
  out.push_back(plain);
  Variant no_copo{"no_copo", BaseConfig()};
  no_copo.train.use_copo = false;
  out.push_back(no_copo);
  Variant sp{"share_params", BaseConfig()};
  sp.train.share_params = true;
  out.push_back(sp);
  // State-critic variants: V^k reads the global state rows. MAPPO and CC
  // train identically, so their stats digests agree; the checkpoints differ
  // only in the architecture fingerprint.
  Variant mappo{"mappo", BaseConfig()};
  mappo.train.base = core::BaseAlgo::kMappo;
  out.push_back(mappo);
  Variant cc{"centralized_critic", BaseConfig()};
  cc.train.centralized_critic = true;
  out.push_back(cc);
  // Six episodes on four workers: the buffer is laid out worker by worker
  // (w0 holds episodes 0 and 4), not in episode order.
  Variant workers{"num_workers_4", BaseConfig()};
  workers.train.num_workers = 4;
  workers.train.episodes_per_iteration = 6;
  out.push_back(workers);
  Variant nan{"nan_loss_every", BaseConfig()};
  nan.nan_loss_every = 4;
  out.push_back(nan);
  return out;
}

/// FNV-1a 64 over raw bytes.
class Fnv64 {
 public:
  void Bytes(const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 1099511628211ULL;
    }
  }
  template <typename T>
  void Pod(const T& v) {
    Bytes(&v, sizeof(v));
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 1469598103934665603ULL;
};

uint64_t StatsDigest(const std::vector<core::IterationStats>& all) {
  Fnv64 h;
  for (const core::IterationStats& s : all) {
    h.Pod(s.iteration);
    for (double m : s.rollout_metrics.ToVector()) h.Pod(m);
    h.Pod(s.mean_reward_ext);
    h.Pod(s.mean_reward_int);
    h.Pod(s.eoi_loss);
    h.Pod(s.actor_grad_norm);
    h.Pod(s.value_loss);
    h.Pod(s.total_env_steps);
    h.Pod(s.anomalies);
    h.Pod(static_cast<uint8_t>(s.lr_backoff));
    h.Pod(static_cast<uint8_t>(s.env_oracle_fallback));
    h.Pod(static_cast<uint8_t>(s.nn_oracle_fallback));
    h.Pod(static_cast<uint8_t>(s.channel_oracle_fallback));
  }
  return h.value();
}

struct Digests {
  uint64_t checkpoint = 0;
  uint64_t stats = 0;
  int anomalies = 0;
};

/// Trains `variant` for two iterations and digests the outcome. The
/// checkpoint digest skips the trailing CRC-32 footer: the CRC-32 of any
/// byte string followed by its own CRC is the constant residue 0x2144DF1C,
/// so a digest that includes the footer still depends on every payload
/// byte but a plain CRC of the whole file does not.
Digests TrainAndDigest(const Variant& variant) {
  util::FaultInjector::Instance().Reset();
  if (variant.nan_loss_every > 0) {
    util::FaultInjector::Config faults;
    faults.nan_loss_every = variant.nan_loss_every;
    util::FaultInjector::Instance().set_config(faults);
  }
  env::ScEnv env(EnvConfig(), Dataset(), variant.train.seed);
  core::HiMadrlTrainer trainer(env, variant.train);
  const std::vector<core::IterationStats> stats = trainer.Train(2);
  util::FaultInjector::Instance().Reset();

  const std::string path = ::testing::TempDir() + "/p" +
                           std::to_string(::getpid()) + "_" + variant.name +
                           ".agsc";
  EXPECT_TRUE(trainer.SaveCheckpoint(path));
  std::ifstream in(path, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  std::remove(path.c_str());
  EXPECT_GT(bytes.size(), 4u);

  Digests d;
  Fnv64 h;
  h.Bytes(bytes.data(), bytes.size() - 4);
  d.checkpoint = h.value();
  d.stats = StatsDigest(stats);
  for (const core::IterationStats& s : stats) d.anomalies += s.anomalies;
  return d;
}

std::string Hex(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016llxULL",
                static_cast<unsigned long long>(v));
  return buf;
}

struct Golden {
  const char* name;
  uint64_t checkpoint;
  uint64_t stats;
};

// Pinned on x86-64 Linux (glibc libm). Regenerate: run this test and copy
// the "actual" digests it prints.
constexpr Golden kGolden[] = {
    {"himadrl", 0x057615bd6f84d03eULL, 0x90521c6351b18d86ULL},
    {"plain_copo", 0xe606736f2f012d48ULL, 0x528f939e1cbbcdbdULL},
    {"no_copo", 0x473421038875d7f5ULL, 0xe6bfc3c0188e1541ULL},
    {"share_params", 0x234df8b1a5dce598ULL, 0x1501382d52fc76c1ULL},
    {"mappo", 0x485c409b780fb6e3ULL, 0x8dc3c3b169f0c0cbULL},
    {"centralized_critic", 0x9175ba8262d6e064ULL,
     0x8dc3c3b169f0c0cbULL},
    {"num_workers_4", 0x8c6ae33ba1d945d6ULL, 0x9b1e34dccdac27b6ULL},
    {"nan_loss_every", 0xde781ee9ae73b1a1ULL, 0xc3e8077a6aad575dULL},
};

TEST(GoldenDigestTest, CheckpointAndStatsMatchPinnedDigests) {
  // On every GEMM SIMD tier this host runs: the tiers differ in register
  // blocking and, in MatMulTransposedB's double chains, in using FMA, none
  // of which may move a bit.
  const std::vector<Variant> variants = Variants();
  ASSERT_EQ(variants.size(), std::size(kGolden));
  for (size_t i = 0; i < variants.size(); ++i) {
    ASSERT_STREQ(variants[i].name, kGolden[i].name);
  }
  for (const char* isa : {"generic", "avx2", "avx512"}) {
    if (!nn::internal::SetGemmIsaForTesting(isa)) continue;
    for (size_t i = 0; i < variants.size(); ++i) {
      const Digests d = TrainAndDigest(variants[i]);
      EXPECT_EQ(d.checkpoint, kGolden[i].checkpoint)
          << isa << " " << variants[i].name << " checkpoint: actual "
          << Hex(d.checkpoint);
      EXPECT_EQ(d.stats, kGolden[i].stats)
          << isa << " " << variants[i].name << " stats: actual "
          << Hex(d.stats);
    }
  }
  nn::internal::SetGemmIsaForTesting(nullptr);
}

TEST(GoldenDigestTest, FaultVariantExercisesTheGuard) {
  // The pinned fault digest only guards the rollback path if NaN losses
  // were actually injected and caught.
  const Variant nan = Variants().back();
  ASSERT_GT(nan.nan_loss_every, 0);
  EXPECT_GT(TrainAndDigest(nan).anomalies, 0);
  EXPECT_EQ(TrainAndDigest(Variants().front()).anomalies, 0);
}

/// Forces the learner's agent-pool width and restores the defaults (auto
/// width, single-threaded GEMMs) on scope exit.
struct PoolWidthGuard {
  explicit PoolWidthGuard(int width) {
    core::internal::SetAgentPoolWidthForTesting(width);
  }
  ~PoolWidthGuard() {
    core::internal::SetAgentPoolWidthForTesting(0);
    nn::SetKernelConfig(nn::KernelConfig{});
  }
};

bool operator==(const Digests& a, const Digests& b) {
  return a.checkpoint == b.checkpoint && a.stats == b.stats &&
         a.anomalies == b.anomalies;
}

TEST(AgentParallelTest, WidthAndNnThreadsNeverChangeTheResult) {
  // Per-agent epochs run concurrently on up to four threads; permutations
  // and injected faults are drawn before the fan-out and results reduced
  // in agent order, so every (width, nn_threads) pair must reproduce the
  // serial run byte for byte. SP always runs at width 1 but still goes
  // through the same loop.
  for (const Variant& base : Variants()) {
    Digests serial;
    {
      PoolWidthGuard guard(1);
      serial = TrainAndDigest(base);
    }
    for (int width : {1, 2, 4}) {
      for (int nn_threads : {0, 2}) {
        if (width == 1 && nn_threads == 0) continue;
        PoolWidthGuard guard(width);
        Variant v = base;
        v.train.nn_threads = nn_threads;
        EXPECT_TRUE(TrainAndDigest(v) == serial)
            << base.name << " width=" << width
            << " nn_threads=" << nn_threads;
      }
    }
  }
}

int ThreadCount() {
  int n = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ++n;
  }
  return n;
}

TEST(AgentParallelTest, PoolIsSpawnedByTheFirstOptimizeOnly) {
  // Trainers that only act or load checkpoints (the policy server's
  // staging trainer) must not start learner threads.
  PoolWidthGuard guard(4);
  core::TrainConfig train = BaseConfig();
  env::ScEnv env(EnvConfig(), Dataset(), train.seed);
  const int before = ThreadCount();
  core::HiMadrlTrainer trainer(env, train);
  util::Rng rng(3);
  trainer.Act(env, 0, std::vector<float>(env.obs_dim(), 0.0f), rng, true);
  trainer.CollectRollouts();
  EXPECT_EQ(ThreadCount(), before);
  trainer.OptimizeOnCurrentBuffer();
  // Three helpers; the caller is the fourth agent thread. (At least: a
  // sanitizer runtime may start its own thread alongside the first one.)
  EXPECT_GE(ThreadCount(), before + 3);
}

// --- Paired value passes: one evaluation per distinct row ---

using Rows = std::vector<std::vector<float>>;

bool SameBits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

/// A real buffer: two 8-timeslot episodes of the golden runs' setup.
core::MultiAgentBuffer TwoEpisodeBuffer() {
  const core::TrainConfig train = BaseConfig();
  env::ScEnv env(EnvConfig(), Dataset(), train.seed);
  core::HiMadrlTrainer trainer(env, train);
  trainer.CollectRollouts();
  return trainer.buffer();
}

core::NetConfig SmallNet() {
  core::NetConfig config;
  config.hidden = {16, 8};
  return config;
}

/// PairedValues against two independent Values passes; returns the number
/// of rows it evaluated.
size_t ExpectPairedEqualsIndependent(const core::ValueNet& net,
                                     const Rows& rows, const Rows& next_rows) {
  const core::SuccessorRows pairs = core::PairSuccessors(rows, next_rows);
  std::vector<float> v, vn;
  const size_t evaluated = net.PairedValues(pairs, v, vn);
  EXPECT_TRUE(SameBits(v, net.Values(rows)));
  EXPECT_TRUE(SameBits(vn, net.Values(next_rows)));
  return evaluated;
}

TEST(PairedValuesTest, MatchesTwoIndependentPassesOnRealBuffer) {
  const core::MultiAgentBuffer buffer = TwoEpisodeBuffer();
  ASSERT_EQ(buffer.size(), 16u);
  util::Rng rng(11);
  const core::ValueNet obs_net(static_cast<int>(buffer.agents[0].obs[0].size()),
                               SmallNet(), rng);
  const core::ValueNet state_net(static_cast<int>(buffer.states[0].size()),
                                 SmallNet(), rng);
  for (const core::AgentRollout& r : buffer.agents) {
    ExpectPairedEqualsIndependent(obs_net, r.obs, r.next_obs);
  }
  ExpectPairedEqualsIndependent(state_net, buffer.states, buffer.next_states);
}

TEST(PairedValuesTest, EvaluatesRowsPlusFreshSuccessorsOnly) {
  const core::MultiAgentBuffer buffer = TwoEpisodeBuffer();
  const size_t n = buffer.size();
  util::Rng rng(11);
  const core::ValueNet net(static_cast<int>(buffer.states[0].size()),
                           SmallNet(), rng);
  // Only the two episode ends have a successor that is not the next row.
  const core::SuccessorRows pairs =
      core::PairSuccessors(buffer.states, buffer.next_states);
  EXPECT_EQ(pairs.fresh, (std::vector<size_t>{7, 15}));
  for (const core::AgentRollout& r : buffer.agents) {
    EXPECT_EQ(core::PairSuccessors(r.obs, r.next_obs).fresh,
              (std::vector<size_t>{7, 15}));
  }
  EXPECT_EQ(ExpectPairedEqualsIndependent(net, buffer.states,
                                          buffer.next_states),
            n + 2);
}

TEST(PairedValuesTest, FlippedBitMakesSuccessorFresh) {
  const core::MultiAgentBuffer buffer = TwoEpisodeBuffer();
  const Rows& rows = buffer.agents[1].obs;
  Rows next_rows = buffer.agents[1].next_obs;
  uint32_t bits = 0;
  std::memcpy(&bits, &next_rows[3][5], sizeof(bits));
  bits ^= 1u;  // The lowest mantissa bit: a one-ulp change.
  std::memcpy(&next_rows[3][5], &bits, sizeof(bits));
  EXPECT_EQ(core::PairSuccessors(rows, next_rows).fresh,
            (std::vector<size_t>{3, 7, 15}));
  util::Rng rng(11);
  const core::ValueNet net(static_cast<int>(rows[0].size()), SmallNet(), rng);
  EXPECT_EQ(ExpectPairedEqualsIndependent(net, rows, next_rows),
            rows.size() + 3);
}

TEST(PairedValuesTest, SignedZerosAreDistinct) {
  // -0.0 == +0.0 as floats, but the rows are not the same bits, so the
  // successor is evaluated rather than assumed.
  Rows rows = {{1.0f, 0.0f}, {2.0f, 0.0f}, {3.0f, 0.5f}};
  Rows next_rows = {{2.0f, -0.0f}, {3.0f, 0.5f}, {4.0f, 0.0f}};
  const core::SuccessorRows pairs = core::PairSuccessors(rows, next_rows);
  EXPECT_EQ(pairs.fresh, (std::vector<size_t>{0, 2}));
  ASSERT_EQ(pairs.fresh_rows.size(), 2u);
  EXPECT_TRUE(std::signbit(pairs.fresh_rows[0][1]));
  util::Rng rng(11);
  const core::ValueNet net(2, SmallNet(), rng);
  EXPECT_EQ(ExpectPairedEqualsIndependent(net, rows, next_rows), 5u);
}

TEST(PairedValuesTest, NaNRowsAreHandled) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  // Row 1 holds a NaN and is also row 0's successor (same bits: reused);
  // row 1's successor holds a NaN that row 2 lacks (fresh).
  Rows rows = {{1.0f, 2.0f}, {nan, 1.0f}, {0.5f, 0.5f}};
  Rows next_rows = {{nan, 1.0f}, {nan, 0.5f}, {0.25f, 0.0f}};
  const core::SuccessorRows pairs = core::PairSuccessors(rows, next_rows);
  EXPECT_EQ(pairs.fresh, (std::vector<size_t>{1, 2}));
  util::Rng rng(11);
  const core::ValueNet net(2, SmallNet(), rng);
  EXPECT_EQ(ExpectPairedEqualsIndependent(net, rows, next_rows), 5u);
  std::vector<float> v, vn;
  net.PairedValues(pairs, v, vn);
  EXPECT_TRUE(std::isnan(v[1]));
  EXPECT_TRUE(std::isnan(vn[0]));
  EXPECT_TRUE(std::isfinite(v[2]));
}

TEST(PairedValuesTest, LengthMismatchThrows) {
  const Rows rows = {{1.0f}, {2.0f}};
  const Rows next_rows = {{2.0f}};
  EXPECT_THROW(core::PairSuccessors(rows, next_rows), std::invalid_argument);
}

}  // namespace
}  // namespace agsc
