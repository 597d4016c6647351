// Shared helpers, and the two trainer-driven workload families:
// train_paper (closed-loop TrainIteration) and collect_w4 / collect_proc4
// (CollectRollouts only, on 4 threads or 4 agsc_worker subprocesses).

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>

#include "harness.h"
#include "map/trace.h"
#include "util/ipc.h"

namespace perfbench {

using agsc::core::AgentRollout;
using agsc::core::HiMadrlTrainer;
using agsc::core::IterationStats;
using agsc::core::MultiAgentBuffer;
using agsc::core::TrainConfig;

namespace {

/// Set-up repetitions of the primary family: kSetupReps before the timed
/// work and kLateSetupReps after it (the measured rig destroyed first), so
/// the median setup_s samples the host at both ends of the run.
constexpr int kSetupReps = 3;
constexpr int kLateSetupReps = 2;
/// TrainIterations per second of budget. train_paper runs a fixed,
/// seed-independent number of iterations (so its final checkpoint is
/// comparable across runs), sized to ~1 s per paper-scale iteration on a
/// 4-core x86-64 host.
constexpr double kTrainItersPerSecond = 0.8;

std::string Join(const std::vector<double>& v) {
  std::ostringstream s;
  s.precision(5);
  for (size_t i = 0; i < v.size(); ++i) s << (i ? "," : "") << v[i];
  return s.str();
}

std::string Hex32(uint32_t v) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%08x", v);
  return buf;
}

template <typename T>
uint32_t CrcVec(const std::vector<T>& v, uint32_t crc) {
  return v.empty() ? crc
                   : agsc::util::Crc32(v.data(), v.size() * sizeof(T), crc);
}

template <typename T>
uint32_t CrcRows(const std::vector<std::vector<T>>& rows, uint32_t crc) {
  for (const std::vector<T>& r : rows) {
    const uint64_t n = r.size();
    crc = agsc::util::Crc32(&n, sizeof(n), crc);
    crc = CrcVec(r, crc);
  }
  return crc;
}

bool AllFinite(const std::vector<float>& v) {
  return std::all_of(v.begin(), v.end(),
                     [](float x) { return std::isfinite(x); });
}

bool StatsFinite(const IterationStats& s) {
  for (double v : s.rollout_metrics.ToVector()) {
    if (!std::isfinite(v)) return false;
  }
  return std::isfinite(s.mean_reward_ext) && std::isfinite(s.mean_reward_int) &&
         std::isfinite(s.eoi_loss) && std::isfinite(s.actor_grad_norm) &&
         std::isfinite(s.value_loss);
}

/// Builds a rig `reps` times (each timed, the previous one destroyed first)
/// and returns the last.
TrainerRig TimedSetup(const Scale& scale, uint64_t seed,
                      const TrainConfig& config, int reps,
                      std::vector<double>& setup_s) {
  TrainerRig rig;
  for (int r = 0; r < reps; ++r) {
    rig = TrainerRig{};
    const Clock::time_point t0 = Clock::now();
    rig = MakeTrainerRig(scale, seed, config);
    setup_s.push_back(Seconds(Clock::now() - t0));
  }
  return rig;
}

size_t BufferRows(const MultiAgentBuffer& buffer) {
  size_t rows = 0;
  for (const AgentRollout& a : buffer.agents) rows += a.size();
  return rows;
}

double PeakChildRssMb() {
  rusage usage{};
  getrusage(RUSAGE_CHILDREN, &usage);
  return usage.ru_maxrss / 1024.0;
}

uint32_t BufferCrc(const MultiAgentBuffer& buffer) {
  uint32_t crc = 0;
  for (const AgentRollout& a : buffer.agents) {
    crc = CrcRows(a.obs, crc);
    crc = CrcRows(a.next_obs, crc);
    crc = CrcVec(a.action_dir, crc);
    crc = CrcVec(a.action_speed, crc);
    crc = CrcVec(a.logp_old, crc);
    crc = CrcVec(a.reward_ext, crc);
    crc = CrcVec(a.reward_int, crc);
    crc = CrcVec(a.reward, crc);
    crc = CrcVec(a.reward_he, crc);
    crc = CrcVec(a.reward_ho, crc);
    crc = CrcRows(a.he_neighbors, crc);
    crc = CrcRows(a.ho_neighbors, crc);
    crc = CrcVec(a.done, crc);
  }
  crc = CrcRows(buffer.states, crc);
  crc = CrcRows(buffer.next_states, crc);
  crc = CrcVec(buffer.reward_all, crc);
  return CrcVec(buffer.done, crc);
}

bool BufferFinite(const MultiAgentBuffer& buffer) {
  for (const AgentRollout& a : buffer.agents) {
    for (const auto& row : a.obs) {
      if (!AllFinite(row)) return false;
    }
    if (!AllFinite(a.action_dir) || !AllFinite(a.action_speed) ||
        !AllFinite(a.logp_old) || !AllFinite(a.reward_ext)) {
      return false;
    }
  }
  for (const auto& row : buffer.states) {
    if (!AllFinite(row)) return false;
  }
  return true;
}

agsc::env::EnvConfig MakeEnvConfig(const Scale& scale) {
  agsc::env::EnvConfig config;
  config.num_timeslots = scale.timeslots;
  config.num_pois = scale.pois;
  config.num_uavs = scale.uavs;
  config.num_ugvs = scale.ugvs;
  // As agsc_train without --render: training reads only each slot's events.
  config.record_event_log = false;
  return config;
}

}  // namespace

// --- Results -----------------------------------------------------------------

void Results::Metric(const std::string& name, double value,
                     const std::string& unit) {
  metrics_[name] = {value, unit};
}

void Results::Check(const std::string& name, bool ok,
                    const std::string& detail) {
  checks_.emplace_back(name, ok);
  if (!ok) info_.emplace_back("check_failed." + name, detail);
}

void Results::Info(const std::string& key, const std::string& value) {
  info_.emplace_back(key, value);
}

void Results::Info(const std::string& key, double value) {
  std::ostringstream s;
  s.precision(10);
  s << value;
  info_.emplace_back(key, s.str());
}

bool Results::correct() const {
  return !checks_.empty() &&
         std::all_of(checks_.begin(), checks_.end(),
                     [](const auto& c) { return c.second; });
}

// --- Helpers -----------------------------------------------------------------

Scale Scale::Smoke() {
  Scale s;
  s.timeslots = 10;
  s.pois = 15;
  s.hidden = {16, 8};
  s.minibatch = 64;
  s.train_episodes = 2;
  s.episodes_per_worker = 1;
  return s;
}

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

double Median(std::vector<double> values) { return Quantile(values, 0.5); }

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t i = std::min(values.size() - 1,
                            static_cast<size_t>(q * values.size()));
  return values[i];
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss / 1024.0;  // Linux reports kilobytes.
}

TrainConfig MakeTrainConfig(const Scale& scale, uint64_t seed) {
  TrainConfig config;  // Table II / CLI defaults: M1=4, M2=2, full h/i-MADRL.
  config.seed = seed;
  config.episodes_per_iteration = scale.train_episodes;
  config.minibatch = scale.minibatch;
  config.eoi.minibatch = scale.minibatch;
  config.net.hidden = scale.hidden;
  config.eoi.hidden = scale.hidden;
  config.num_workers = 1;
  config.nn_threads = 0;
  return config;
}

TrainerRig MakeTrainerRig(const Scale& scale, uint64_t seed,
                          const TrainConfig& config) {
  TrainerRig rig;
  rig.env = std::make_unique<agsc::env::ScEnv>(
      MakeEnvConfig(scale),
      agsc::map::BuildDataset(agsc::map::CampusId::kPurdue, scale.pois), seed);
  rig.trainer = std::make_unique<HiMadrlTrainer>(*rig.env, config);
  return rig;
}

// --- train_paper -------------------------------------------------------------

void RunTrainFamily(const Options& opts, double budget_s, bool primary,
                    Results& results) {
  Tracer& tracer = Tracer::Get();
  const bool trace = opts.trace;
  tracer.set_enabled(false);
  const int iterations =
      std::max(3, static_cast<int>(
                      std::lround(budget_s * kTrainItersPerSecond)));
  const TrainConfig config = MakeTrainConfig(opts.scale, opts.seed);
  std::vector<double> setup_s;
  TrainerRig rig = TimedSetup(opts.scale, opts.seed, config,
                              primary ? kSetupReps : 1, setup_s);
  HiMadrlTrainer& trainer = *rig.trainer;

  // Untraced iterations go through TrainIteration (the real entry point).
  // A traced run traces every other iteration as CollectRollouts +
  // OptimizeOnCurrentBuffer, the two public halves of the same iteration,
  // so the spans split it into its collect and optimize phases; the
  // interleaved untraced iterations are the overhead reference.
  std::vector<double> untraced_s, traced_s;
  int anomalies = 0;
  int bad_iterations = 0;
  bool finite = true;
  double rows = 0.0;
  for (int i = 0; i < iterations; ++i) {
    if (!trace || i % 2 == 0) {
      const Clock::time_point t0 = Clock::now();
      const IterationStats stats = trainer.TrainIteration();
      untraced_s.push_back(Seconds(Clock::now() - t0));
      const bool ok = StatsFinite(stats);
      finite = finite && ok;
      anomalies += stats.anomalies;
      if (!ok || stats.anomalies > 0) ++bad_iterations;
      continue;
    }
    tracer.set_enabled(true);
    const Clock::time_point t0 = Clock::now();
    {
      Span iteration("learner.iteration");
      {
        Span collect("learner.collect");
        trainer.CollectRollouts();
      }
      rows = static_cast<double>(BufferRows(trainer.buffer()));
      tracer.Count("learner.rows", rows);
      Span optimize("learner.optimize");
      trainer.OptimizeOnCurrentBuffer();
    }
    traced_s.push_back(Seconds(Clock::now() - t0));
    tracer.set_enabled(false);
  }
  const double iter_s = Median(untraced_s);
  results.Metric("train_iter_s", iter_s, "s");
  results.Info("train.iterations", iterations);
  results.Info("train.iter_s", Join(untraced_s));
  results.Attempt(untraced_s.size(), static_cast<uint64_t>(bad_iterations));
  results.Attempt(traced_s.size(), 0);
  // Peak RSS of the training itself, before the checkpoint check below
  // reads the checkpoint back into memory.
  const double peak_mb = PeakRssMb();

  // Correctness: finite stats, no guard events, no oracle fallback, and a
  // checkpoint CRC that is a pure function of (seed, scale, trace mode).
  results.Check("train.finite_stats", finite, "non-finite IterationStats");
  results.Check("train.zero_anomalies", anomalies == 0,
                std::to_string(anomalies) + " divergence-guard events");
  results.Check("train.no_oracle_fallback",
                !trainer.env_oracle_fallback() &&
                    !trainer.nn_oracle_fallback() &&
                    !trainer.channel_oracle_fallback(),
                "an oracle self-check downgraded a fast path");
  std::filesystem::create_directories(opts.out_dir);
  const std::string ckpt =
      opts.out_dir + "/train_" + std::to_string(opts.seed) + ".agsc";
  bool saved = trainer.SaveCheckpoint(ckpt);
  std::ifstream in(ckpt, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  std::filesystem::remove(ckpt);
  saved = saved && !bytes.empty();
  results.Check("train.checkpoint_saved", saved, "SaveCheckpoint failed");
  results.Info(trace ? "train.ckpt_crc_traced" : "train.ckpt_crc",
               Hex32(agsc::util::Crc32(bytes.data(), bytes.size())));
  if (primary) {
    results.Metric("peak_rss_mb", peak_mb, "MB");
    rig = TrainerRig{};
    TimedSetup(opts.scale, opts.seed, config, kLateSetupReps, setup_s);
    results.Metric("setup_s", Median(setup_s), "s");
  }

  if (trace) {
    const double collect_ms = Median(tracer.Durations("learner.collect")) / 1e3;
    const double optimize_ms =
        Median(tracer.Durations("learner.optimize")) / 1e3;
    results.Metric("learner.collect_ms", collect_ms, "ms");
    results.Metric("learner.optimize_ms", optimize_ms, "ms");
    results.Metric("learner.collect_share_pct",
                   100.0 * collect_ms / (iter_s * 1e3), "%");
    results.Metric("learner.optimize_share_pct",
                   100.0 * optimize_ms / (iter_s * 1e3), "%");
    results.Metric("learner.rows_per_iter", rows, "count");
    results.Metric("learner.anomalies", anomalies, "count");
    if (primary) {
      results.Metric("trace.overhead_pct",
                     100.0 * (Median(traced_s) - iter_s) / iter_s, "%");
    }
  }
}

// --- collect_w4 / collect_proc4 ----------------------------------------------

namespace {

TrainConfig CollectConfig(const Options& opts, bool proc) {
  TrainConfig config = MakeTrainConfig(opts.scale, opts.seed);
  config.episodes_per_iteration =
      opts.scale.collect_workers * opts.scale.episodes_per_worker;
  if (proc) {
    config.proc_workers = opts.scale.collect_workers;
    config.worker_binary = opts.worker_binary;
  } else {
    config.num_workers = opts.scale.collect_workers;
  }
  return config;
}

/// Buffer CRC of the first round after a warm-up round, on a fresh rig.
uint32_t ReferenceCrc(const Options& opts, bool proc) {
  TrainerRig rig =
      MakeTrainerRig(opts.scale, opts.seed, CollectConfig(opts, proc));
  rig.trainer->CollectRollouts();
  rig.trainer->CollectRollouts();
  return BufferCrc(rig.trainer->buffer());
}

}  // namespace

void RunCollectFamily(const Options& opts, double budget_s, bool primary,
                      bool proc, Results& results) {
  Tracer& tracer = Tracer::Get();
  tracer.set_enabled(false);
  const TrainConfig config = CollectConfig(opts, proc);
  std::vector<double> setup_s;
  TrainerRig rig = TimedSetup(opts.scale, opts.seed, config,
                              primary ? kSetupReps : 1, setup_s);
  HiMadrlTrainer& trainer = *rig.trainer;
  // One untimed warm-up round: it spawns the proc workers (lazily, on the
  // first collect) and warms caches. It is not part of setup_s because it
  // cannot be timed apart from a whole 4-worker round, whose host-load
  // noise moved a set's median setup_s by 24-30% within 17 minutes.
  const Clock::time_point warm0 = Clock::now();
  trainer.CollectRollouts();
  const double warmup_s = Seconds(Clock::now() - warm0);
  const int agents = rig.env->num_agents();
  const double steps_per_round = static_cast<double>(
      config.episodes_per_iteration) * opts.scale.timeslots * agents;
  const size_t expected_rows =
      static_cast<size_t>(config.episodes_per_iteration) *
      opts.scale.timeslots;

  // Rounds until the budget is spent (at least 3); a traced run traces
  // every other round.
  std::vector<double> untraced_s, traced_s;
  uint32_t crc = 0;
  bool shape_ok = true, finite = true;
  const Clock::time_point start = Clock::now();
  for (int round = 0;; ++round) {
    const double elapsed = Seconds(Clock::now() - start);
    if (round >= 3 && elapsed >= budget_s) break;
    const bool traced = opts.trace && round % 2 == 1;
    tracer.set_enabled(traced);
    const Clock::time_point t0 = Clock::now();
    {
      Span span("sampler.collect");
      trainer.CollectRollouts();
    }
    (traced ? traced_s : untraced_s).push_back(Seconds(Clock::now() - t0));
    tracer.set_enabled(false);
    const MultiAgentBuffer& buffer = trainer.buffer();
    shape_ok = shape_ok && buffer.size() == expected_rows &&
               BufferRows(buffer) == expected_rows * agents;
    if (round == 0) {
      crc = BufferCrc(buffer);
      finite = BufferFinite(buffer);
    }
  }
  const double round_s = Median(untraced_s);
  if (primary) {
    // Subprocess workers hold their own replicas; count each at the peak of
    // the largest one (reaped when the rig is destroyed).
    rig = TrainerRig{};
    if (proc) results.Info("collect.worker_peak_rss_mb", PeakChildRssMb());
    results.Metric("peak_rss_mb",
                   PeakRssMb() + (proc ? config.proc_workers *
                                             PeakChildRssMb()
                                       : 0.0),
                   "MB");
    TimedSetup(opts.scale, opts.seed, config, kLateSetupReps, setup_s);
    results.Metric("setup_s", Median(setup_s), "s");
  }
  results.Metric("collect_steps_per_s", steps_per_round / round_s, "1/s");
  results.Info("collect.warmup_s", warmup_s);
  results.Info("collect.round_s", Join(untraced_s));
  results.Attempt(untraced_s.size() + traced_s.size(), shape_ok ? 0 : 1);
  const std::string label = proc ? "collect_proc4" : "collect_w4";
  results.Info(label + ".buffer_crc", Hex32(crc));
  results.Check(label + ".buffer_shape", shape_ok,
                "buffer rows differ from episodes x timeslots");
  results.Check(label + ".buffer_finite", finite, "non-finite buffer entry");
  if (primary) {
    // The subprocess path is byte-identical to the thread path by contract:
    // the first round's buffer must match the other transport's.
    const uint32_t other = ReferenceCrc(opts, !proc);
    results.Info(std::string(proc ? "collect_w4" : "collect_proc4") +
                     ".buffer_crc",
                 Hex32(other));
    results.Check("collect.w4_equals_proc4", crc == other,
                  "buffer CRC " + Hex32(crc) + " != " + Hex32(other));
  }
  if (opts.trace) {
    results.Metric("sampler.collect_ms",
                   Median(tracer.Durations("sampler.collect")) / 1e3, "ms");
    results.Metric("sampler.steps_per_round", steps_per_round, "count");
    if (primary && !traced_s.empty()) {
      results.Metric("trace.overhead_pct",
                     100.0 * (Median(traced_s) - round_s) / round_s, "%");
    }
  }
}

}  // namespace perfbench
