#include "core/vec_sampler.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "util/fault_inject.h"
#include "util/shutdown.h"

namespace agsc::core {

std::vector<float> RolloutActors::Input(int k,
                                        const std::vector<float>& obs) const {
  if (!share_params) return obs;
  std::vector<float> input = obs;
  for (size_t j = 0; j < per_agent.size(); ++j) {
    input.push_back(static_cast<int>(j) == k ? 1.0f : 0.0f);
  }
  return input;
}

void RunEpisode(env::ScEnv& env, const RolloutActors& actors, util::Rng& rng,
                EpisodeSink& sink) {
  const size_t n = static_cast<size_t>(env.num_agents());
  // `cur`/`next` are double-buffered: Step writes into next reusing its
  // storage, then the two swap, so the loop allocates nothing in the env.
  env::StepResult cur, next;
  env.Reset(cur);
  StepRecord record;
  record.actions.resize(n);
  record.logps.resize(n);
  record.rewards.resize(n);
  record.he_neighbors.resize(n);
  record.ho_neighbors.resize(n);
  std::vector<env::UvAction> uv(n);
  do {
    for (size_t k = 0; k < n; ++k) {
      const int agent = static_cast<int>(k);
      const std::vector<float> a = actors.per_agent[k]->Act(
          actors.Input(agent, cur.observations[k]), rng,
          /*deterministic=*/false, &record.logps[k]);
      record.actions[k] = {a[0], a[1]};
      uv[k] = {a[0], a[1]};
    }
    env.Step(uv, next);
    // o_t and s_t move into the record; cur's old buffers become next
    // step's scratch after the swap below.
    record.obs.swap(cur.observations);
    record.state.swap(cur.state);
    for (size_t k = 0; k < n; ++k) {
      const int agent = static_cast<int>(k);
      record.rewards[k] = static_cast<float>(next.rewards[k]);
      record.he_neighbors[k] = env.HeterogeneousNeighbors(agent);
      record.ho_neighbors[k] = env.HomogeneousNeighbors(agent);
    }
    record.done = next.done;
    sink.Step(record);
    std::swap(cur, next);
  } while (!cur.done);
  EpisodeEnd end;
  end.obs = std::move(cur.observations);
  end.state = std::move(cur.state);
  end.metrics = env.EpisodeMetrics();
  end.env_rng = env.rng().SaveState();
  end.sample_rng = rng.SaveState();
  sink.End(end);
}

void BufferSink::PushSuccessor(const std::vector<std::vector<float>>& obs,
                               const std::vector<float>& state) {
  for (size_t k = 0; k < buffer_.agents.size(); ++k) {
    buffer_.agents[k].next_obs.push_back(obs[k]);
  }
  buffer_.next_states.push_back(state);
}

void BufferSink::Step(const StepRecord& r) {
  if (open_steps() > 0) PushSuccessor(r.obs, r.state);
  for (size_t k = 0; k < buffer_.agents.size(); ++k) {
    AgentRollout& ar = buffer_.agents[k];
    ar.obs.push_back(r.obs[k]);
    ar.action_dir.push_back(r.actions[k][0]);
    ar.action_speed.push_back(r.actions[k][1]);
    ar.logp_old.push_back(r.logps[k]);
    ar.reward_ext.push_back(r.rewards[k]);
    ar.he_neighbors.push_back(r.he_neighbors[k]);
    ar.ho_neighbors.push_back(r.ho_neighbors[k]);
    ar.done.push_back(r.done ? 1 : 0);
  }
  buffer_.states.push_back(r.state);
  buffer_.done.push_back(r.done ? 1 : 0);
}

void BufferSink::End(const EpisodeEnd& end) {
  PushSuccessor(end.obs, end.state);
  metrics_.push_back(end.metrics);
  episode_start_ = buffer_.size();
}

void BufferSink::DropPartial() {
  const size_t rows = episode_start_;
  for (AgentRollout& ar : buffer_.agents) {
    ar.obs.resize(rows);
    ar.next_obs.resize(rows);
    ar.action_dir.resize(rows);
    ar.action_speed.resize(rows);
    ar.logp_old.resize(rows);
    ar.reward_ext.resize(rows);
    ar.he_neighbors.resize(rows);
    ar.ho_neighbors.resize(rows);
    ar.done.resize(rows);
  }
  buffer_.states.resize(rows);
  buffer_.next_states.resize(rows);
  buffer_.done.resize(rows);
}

Sampler::Sampler(util::Rng& primary_rng, int num_workers, uint64_t seed)
    : primary_rng_(primary_rng), num_workers_(num_workers) {
  if (num_workers < 1) {
    throw std::invalid_argument("sampler: num_workers must be >= 1");
  }
  const util::Rng base(seed);
  for (int w = 1; w < num_workers; ++w) {
    sample_rngs_.push_back(base.Split(2 * static_cast<uint64_t>(w)));
  }
}

std::vector<util::Rng*> Sampler::SplitRngs() {
  std::vector<util::Rng*> rngs;
  for (int w = 1; w < num_workers_; ++w) {
    rngs.push_back(&sample_rng(w));
    rngs.push_back(&env_stream(w));
  }
  return rngs;
}

void Sampler::CheckStop(int worker) const {
  if (stop_check_ && stop_check_()) {
    std::ostringstream msg;
    msg << "rollout interrupted by stop request (worker " << worker
        << "); partial episodes discarded";
    throw util::InterruptedError(msg.str());
  }
}

VecSampler::VecSampler(env::ScEnv& primary_env, util::Rng& primary_rng,
                       int num_workers, uint64_t seed)
    : Sampler(primary_rng, num_workers, seed),
      primary_env_(primary_env),
      // With one worker the pool runs inline on the caller's thread: the
      // single-worker path adds no threads and no handoff overhead.
      pool_(num_workers > 1 ? num_workers : 0) {
  const util::Rng base(seed);
  for (int w = 1; w < num_workers; ++w) {
    replica_envs_.push_back(std::make_unique<env::ScEnv>(primary_env));
    replica_envs_.back()->rng() = base.Split(EnvStreamId(w));
  }
}

VecSampler::~VecSampler() = default;

namespace {

// Worker-local results. Held behind a shared_ptr that every pool task
// co-owns: if the watchdog fires while a task is hung, Collect throws and
// unwinds, but the straggler may still resume and finish its writes — they
// must land in storage that outlives the call frame.
struct CollectState {
  RolloutActors actors;
  std::vector<MultiAgentBuffer> wbufs;
  std::vector<std::vector<env::Metrics>> wmetrics;

  CollectState(const RolloutActors& a, int w_count, int num_agents)
      : actors(a), wmetrics(static_cast<size_t>(w_count)) {
    wbufs.reserve(static_cast<size_t>(w_count));
    for (int w = 0; w < w_count; ++w) wbufs.emplace_back(num_agents);
  }
};

/// A worker's shard, plus the per-step supervision: the injected stall
/// (the watchdog's test fault), the stop check and the heartbeat.
class WorkerSink : public BufferSink {
 public:
  WorkerSink(MultiAgentBuffer& buffer, std::vector<env::Metrics>& metrics,
             std::function<void()> check_stop)
      : BufferSink(buffer, metrics), check_stop_(std::move(check_stop)) {}

  void Step(const StepRecord& record) override {
    const long stall = util::FaultInjector::Instance().NextStallMs();
    if (stall > 0) std::this_thread::sleep_for(std::chrono::milliseconds(stall));
    check_stop_();
    util::ThreadPool::Heartbeat();
    BufferSink::Step(record);
  }

 private:
  std::function<void()> check_stop_;
};

}  // namespace

void VecSampler::Collect(int episodes, const RolloutActors& actors,
                         MultiAgentBuffer& buffer,
                         std::vector<env::Metrics>& metrics) {
  if (episodes <= 0) return;
  for (const auto& replica : replica_envs_) {
    if (!primary_env_.config().use_spatial_index) {
      replica->DisableSpatialIndex();
    }
    if (!primary_env_.config().use_channel_batch) {
      replica->DisableChannelBatch();
    }
  }
  const int w_count = num_workers_;
  auto st = std::make_shared<CollectState>(actors, w_count,
                                           primary_env_.num_agents());
  const auto run_episode = [this, st](int w) {
    WorkerSink sink(st->wbufs[static_cast<size_t>(w)],
                    st->wmetrics[static_cast<size_t>(w)],
                    [this, w] { CheckStop(w); });
    RunEpisode(worker_env(w), st->actors, sample_rng(w), sink);
  };
  // One task per episode; a round gives each worker its next episode.
  const int rounds = (episodes + w_count - 1) / w_count;
  for (int r = 0; r < rounds; ++r) {
    const int active = std::min(w_count, episodes - r * w_count);
    try {
      pool_.ParallelFor(active, run_episode, step_deadline_ms_);
    } catch (const util::WatchdogTimeoutError& e) {
      std::ostringstream msg;
      msg << "rollout watchdog: worker " << e.task_index()
          << " stalled in episode " << r * w_count + e.task_index() << ": "
          << e.what();
      throw util::WatchdogTimeoutError(msg.str(), e.task_index(),
                                       e.task_started(), e.elapsed_ms(),
                                       e.deadline_ms());
    }
  }

  for (int w = 0; w < w_count; ++w) {
    buffer.Append(std::move(st->wbufs[static_cast<size_t>(w)]));
    metrics.insert(metrics.end(), st->wmetrics[static_cast<size_t>(w)].begin(),
                   st->wmetrics[static_cast<size_t>(w)].end());
  }
}

}  // namespace agsc::core
