#ifndef AGSC_CORE_VEC_SAMPLER_H_
#define AGSC_CORE_VEC_SAMPLER_H_

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/policy.h"
#include "core/rollout.h"
#include "env/sc_env.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace agsc::core {

using RngState = std::array<uint64_t, util::Rng::kStateWords>;

/// The actors a rollout samples from: agent k acts with *per_agent[k].
/// Under parameter sharing every entry is the same network, and its input
/// is the observation plus the one-hot agent id.
struct RolloutActors {
  std::vector<const GaussianActor*> per_agent;
  bool share_params = false;

  /// Agent k's actor input row for observation `obs`.
  std::vector<float> Input(int k, const std::vector<float>& obs) const;
};

/// One timeslot of an episode: what every agent saw (o_t, s_t), did and
/// got. The successor o_{t+1}, s_{t+1} is the next record's obs/state, or
/// the episode end's after the last record.
struct StepRecord {
  std::vector<std::vector<float>> obs;        ///< o_t per agent.
  std::vector<float> state;                   ///< s_t.
  std::vector<std::array<float, 2>> actions;  ///< Raw sampled actions.
  std::vector<float> logps;                   ///< log pi(a|o) at sampling.
  std::vector<float> rewards;                 ///< Extrinsic r^k, as stored.
  std::vector<std::vector<int>> he_neighbors;
  std::vector<std::vector<int>> ho_neighbors;
  bool done = false;
};

/// The end of an episode: the terminal observations, its metrics, and
/// where the worker's env and sampling streams stopped.
struct EpisodeEnd {
  std::vector<std::vector<float>> obs;  ///< o_T per agent.
  std::vector<float> state;             ///< s_T.
  env::Metrics metrics;
  RngState env_rng{};
  RngState sample_rng{};
};

/// Receives an episode from RunEpisode. Either call may throw to abandon
/// the episode (a stop request, a lost transport).
class EpisodeSink {
 public:
  virtual ~EpisodeSink() = default;
  virtual void Step(const StepRecord& record) = 0;
  virtual void End(const EpisodeEnd& end) = 0;
};

/// The rollout loop, the only one: Reset `env`, then per timeslot one
/// GaussianActor::Act per agent in agent order (sampling noise drawn from
/// `rng`), one env step and one sink.Step, until the episode is done; then
/// sink.End. In-process workers, agsc_worker processes and the tests all
/// run this, so their draws and rows agree bit for bit.
void RunEpisode(env::ScEnv& env, const RolloutActors& actors, util::Rng& rng,
                EpisodeSink& sink);

/// Appends episodes after a buffer's rows: row t's successor comes from
/// record t+1 or from the episode end, and each end adds one Metrics row.
class BufferSink : public EpisodeSink {
 public:
  BufferSink(MultiAgentBuffer& buffer, std::vector<env::Metrics>& metrics)
      : buffer_(buffer), metrics_(metrics), episode_start_(buffer.size()) {}

  void Step(const StepRecord& record) override;
  void End(const EpisodeEnd& end) override;
  /// Removes the rows of the episode that has not ended yet.
  void DropPartial();
  /// Records of the episode that has not ended yet.
  size_t open_steps() const { return buffer_.size() - episode_start_; }

 private:
  void PushSuccessor(const std::vector<std::vector<float>>& obs,
                     const std::vector<float>& state);

  MultiAgentBuffer& buffer_;
  std::vector<env::Metrics>& metrics_;
  size_t episode_start_;
};

/// What every sampler shares: the worker count, the RNG stream layout and
/// the supervision hooks. Episodes are dealt round-robin, so worker w runs
/// global episodes w, w+W, w+2W, ... and the merged buffer holds worker
/// 0's episodes, then worker 1's, and so on. Worker 0 uses the primary
/// streams (the trainer's sampling stream and the primary env's stream);
/// worker w > 0 samples from Rng(seed).Split(2w) and steps its env from
/// Rng(seed).Split(2w+1). The result is a pure function of (seed, W), for
/// every transport.
class Sampler {
 public:
  Sampler(util::Rng& primary_rng, int num_workers, uint64_t seed);
  virtual ~Sampler() = default;

  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

  /// Collects `episodes` full episodes with `actors`, appending the merged
  /// experience to `buffer` and one `Metrics` row per episode to `metrics`
  /// (both in worker-index order). Throws util::InterruptedError when the
  /// stop check fires; the partial experience is discarded.
  virtual void Collect(int episodes, const RolloutActors& actors,
                       MultiAgentBuffer& buffer,
                       std::vector<env::Metrics>& metrics) = 0;

  int num_workers() const { return num_workers_; }

  /// The sampling stream of worker `w` (worker 0 = the primary stream).
  util::Rng& sample_rng(int w) {
    return w == 0 ? primary_rng_ : sample_rngs_[static_cast<size_t>(w - 1)];
  }
  /// The env stream of worker `w` (worker 0 = the primary env's).
  virtual util::Rng& env_stream(int w) = 0;

  /// The streams of workers 1..W-1 in checkpoint order: [sample_1, env_1,
  /// sample_2, env_2, ...]. Worker 0's streams are checkpointed by the
  /// trainer and its environment; these are the extra ones `--resume`
  /// needs to stay bit-exact when W > 1.
  std::vector<util::Rng*> SplitRngs();

  /// Cooperative stop, polled once per env step, from worker threads in
  /// the in-process sampler: it must be thread-safe. When it returns true
  /// Collect throws util::InterruptedError.
  void set_stop_check(std::function<bool()> stop_check) {
    stop_check_ = std::move(stop_check);
  }
  /// Bound on one env step in milliseconds (0 = none). See the subclasses
  /// for what a missed deadline does.
  void set_step_deadline_ms(long deadline_ms) {
    step_deadline_ms_ = deadline_ms;
  }

 protected:
  static uint64_t EnvStreamId(int w) {
    return 2 * static_cast<uint64_t>(w) + 1;
  }
  /// Throws util::InterruptedError if the stop check fires.
  void CheckStop(int worker) const;

  util::Rng& primary_rng_;
  const int num_workers_;
  std::vector<util::Rng> sample_rngs_;  ///< Workers 1..W-1.
  std::function<bool()> stop_check_;
  long step_deadline_ms_ = 0;
};

/// In-process sampler: worker w > 0 owns an `ScEnv` replica, and every
/// round runs one RunEpisode task per active worker on a thread pool, with
/// no barrier inside the episode. Each task touches only its worker's env,
/// stream and shard, and shards merge in worker order, so scheduling never
/// shows in the result. With one worker the pool runs inline and adds no
/// threads.
///
/// The step deadline is a watchdog: each task beats its pool heartbeat
/// once per env step, and a worker silent for longer throws
/// util::WatchdogTimeoutError naming it. Only meaningful with W > 1 (the
/// inline pool cannot interrupt itself). A timeout is fail-fast: the hung
/// task may still run, so treat the sampler as unusable and exit.
class VecSampler : public Sampler {
 public:
  /// `primary_env` / `primary_rng` become worker 0's environment and
  /// sampling stream (held by reference). Workers 1..num_workers-1 get
  /// copies of `primary_env` on their own streams.
  VecSampler(env::ScEnv& primary_env, util::Rng& primary_rng, int num_workers,
             uint64_t seed);
  ~VecSampler() override;

  /// Replicas take the primary env's oracle fallbacks (naive spatial scan,
  /// scalar channel) before the first episode.
  void Collect(int episodes, const RolloutActors& actors,
               MultiAgentBuffer& buffer,
               std::vector<env::Metrics>& metrics) override;

  util::Rng& env_stream(int w) override { return worker_env(w).rng(); }

  /// Worker `w`'s environment (worker 0 = the primary environment).
  env::ScEnv& worker_env(int w) {
    return w == 0 ? primary_env_ : *replica_envs_[static_cast<size_t>(w - 1)];
  }

 private:
  env::ScEnv& primary_env_;
  std::vector<std::unique_ptr<env::ScEnv>> replica_envs_;  ///< Workers 1..W-1.
  // Declared last so it is destroyed first: the destructor join waits for
  // any straggling (e.g. stalled) task before the envs it touches go away.
  util::ThreadPool pool_;
};

}  // namespace agsc::core

#endif  // AGSC_CORE_VEC_SAMPLER_H_
