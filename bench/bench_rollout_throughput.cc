// Sampling-throughput harness for the in-process rollout sampler:
// measures env-steps/s of HiMadrlTrainer::CollectRollouts for worker
// counts {1, 2, 4, 8} (median of several timed collects each) and reports
// the speedup over one worker. Results are recorded in BENCH_rollout.json
// at the repo root.
//
// Worker counts above the host's core count cannot speed anything up —
// the harness still runs them (the determinism contract must hold at any
// W) and prints the host concurrency so single-core CI numbers are not
// mistaken for a scaling regression.
//
//   AGSC_BENCH_SCALE=paper   larger episode budget per measurement
//   AGSC_BENCH_TIMESLOTS, AGSC_BENCH_POIS   override the env scale

#include <algorithm>
#include <chrono>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "core/hi_madrl.h"
#include "env/sc_env.h"
#include "nn/tensor.h"
#include "util/build_info.h"
#include "util/table.h"

namespace agsc {
namespace {

struct Result {
  int num_workers = 1;
  long env_steps = 0;
  double seconds = 0.0;
  double steps_per_sec = 0.0;
};

Result MeasureWorkers(const bench::Settings& settings, int num_workers,
                      int episodes) {
  const map::Dataset& dataset =
      bench::GetDataset(map::CampusId::kPurdue, settings.num_pois);
  env::EnvConfig env_config = bench::BaseEnvConfig(settings);
  env::ScEnv env(env_config, dataset, /*seed=*/1);

  core::TrainConfig train = bench::BaseTrainConfig(settings, /*seed=*/1);
  train.episodes_per_iteration = episodes;
  train.num_workers = num_workers;
  core::HiMadrlTrainer trainer(env, train);

  // Warm-up round (first collection touches cold caches), then the median
  // of kReps measured collections.
  constexpr int kReps = 7;
  trainer.CollectRollouts();
  std::vector<double> seconds;
  for (int rep = 0; rep < kReps; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    trainer.CollectRollouts();
    const auto stop = std::chrono::steady_clock::now();
    seconds.push_back(std::chrono::duration<double>(stop - start).count());
  }
  std::sort(seconds.begin(), seconds.end());

  Result r;
  r.num_workers = num_workers;
  r.env_steps = static_cast<long>(episodes) * env_config.num_timeslots *
                env.num_agents();
  r.seconds = seconds[kReps / 2];
  r.steps_per_sec = r.seconds > 0 ? r.env_steps / r.seconds : 0.0;
  return r;
}

}  // namespace
}  // namespace agsc

int main() {
  using namespace agsc;
  const bench::Settings settings = bench::Settings::FromEnv();
  bench::PrintBanner("Rollout sampling throughput (env-steps/s)", settings);
  const unsigned cores = std::thread::hardware_concurrency();
  std::cout << "host hardware concurrency: " << cores << "\n";

  const int episodes = settings.paper ? 64 : 16;
  const std::vector<int> worker_counts = {1, 2, 4, 8};
  std::vector<Result> results;
  for (int workers : worker_counts) {
    std::cerr << "  measuring num_workers=" << workers << "...\n";
    results.push_back(MeasureWorkers(settings, workers, episodes));
  }

  double base_sps = 0.0;
  for (const Result& r : results) {
    if (r.num_workers == 1) base_sps = r.steps_per_sec;
  }
  util::Table table({"num_workers", "env_steps", "seconds", "steps/s",
                     "speedup_vs_w1"});
  for (const Result& r : results) {
    table.AddRow({std::to_string(r.num_workers),
                  std::to_string(r.env_steps),
                  util::FormatDouble(r.seconds, 4),
                  util::FormatDouble(r.steps_per_sec, 1),
                  util::FormatDouble(
                      base_sps > 0 ? r.steps_per_sec / base_sps : 0.0, 3)});
  }
  table.Print();

  // Machine-readable block (copied into BENCH_rollout.json).
  std::cout << "{\n  \"build\": \""
            << util::BuildInfoString(std::string("gemm-isa=") +
                                     nn::ActiveGemmIsaName())
            << "\",\n  \"hardware_concurrency\": " << cores
            << ",\n  \"episodes_per_measurement\": " << episodes
            << ",\n  \"results\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const Result& r = results[i];
    std::cout << "    {\"num_workers\": " << r.num_workers
              << ", \"env_steps\": " << r.env_steps
              << ", \"seconds\": " << r.seconds
              << ", \"steps_per_sec\": " << r.steps_per_sec
              << ", \"speedup_vs_w1\": "
              << (base_sps > 0 ? r.steps_per_sec / base_sps : 0.0) << "}"
              << (i + 1 < results.size() ? "," : "") << "\n";
  }
  std::cout << "  ]\n}\n";
  return 0;
}
