#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

// Shared types of the benchmark harness: the run options, the input scale,
// the result collector (metrics, correctness checks, attempted/failed
// counts), and the three workload families it drives.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/hi_madrl.h"
#include "env/sc_env.h"
#include "trace.h"

namespace perfbench {

/// Input scale. The defaults are the paper's Table II setting at the trainer
/// CLI's defaults; Smoke() is a tiny setting that runs every code path in
/// seconds (used by the benchmark's own tests).
struct Scale {
  int timeslots = 100;
  int pois = 100;
  int uavs = 2;
  int ugvs = 2;
  std::vector<int> hidden = {128, 64};
  int minibatch = 256;
  int train_episodes = 4;          ///< Episodes per TrainIteration.
  int collect_workers = 4;         ///< W of collect_w4 / collect_proc4.
  int episodes_per_worker = 4;     ///< Collect round = W x this episodes.

  static Scale Smoke();
};

/// The serve_tcp traffic mix. The open-loop rate is read from
/// perfbench/workloads.json by run.py and passed on the command line; it is
/// never derived from the code under test.
struct ServeLoad {
  double rate_rps = 2000.0;    ///< Fixed absolute arrival rate.
  double step_share = 0.25;    ///< Share of StepSession requests in the mix.
  /// Server deadline: a service timeout far above any latency of this load,
  /// so no request of a correct server expires or is refused at admission
  /// (a host stall of a few ms must not turn into failed requests); tail
  /// latency shows in serve_p99_ms instead.
  long deadline_ms = 1000;
  /// Client-side latency limit of the open loop: replies later than this
  /// (from their due time) are counted as serve.missed_limit.
  double limit_ms = 10.0;
  int open_connections = 2;    ///< One sender + one reader thread each.
  int closed_connections = 4;  ///< Saturating phase, one thread each.
  int window = 16;             ///< Closed loop: requests in flight per conn.
  int sessions = 8;
  int max_batch = 64;
};

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string out_dir = ".bench_build/out";  ///< Checkpoints, trace JSON.
  std::string worker_binary;                 ///< agsc_worker for proc4.
  std::string commit = "unknown";
  Scale scale;
  ServeLoad serve;
};

/// Metrics, checks and operation counts of one run.
class Results {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  void Check(const std::string& name, bool ok, const std::string& detail);
  /// Extra facts printed in the report (CRCs, request counts, stamps).
  void Info(const std::string& key, const std::string& value);
  void Info(const std::string& key, double value);
  void Attempt(uint64_t attempted, uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }

  bool correct() const;
  const std::map<std::string, std::pair<double, std::string>>& metrics()
      const {
    return metrics_;
  }
  const std::vector<std::pair<std::string, std::string>>& info() const {
    return info_;
  }
  const std::vector<std::pair<std::string, bool>>& checks() const {
    return checks_;
  }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
  std::vector<std::pair<std::string, bool>> checks_;
  std::vector<std::pair<std::string, std::string>> info_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

// --- Small shared helpers ---------------------------------------------------

double Seconds(Clock::duration d);
double Median(std::vector<double> values);
/// Nearest-rank quantile, q in [0, 1].
double Quantile(std::vector<double> values, double q);
/// Peak resident set of this process so far, in MB.
double PeakRssMb();

// --- Paper-scale construction -----------------------------------------------

agsc::core::TrainConfig MakeTrainConfig(const Scale& scale, uint64_t seed);

/// Everything a trainer-driven workload owns. The env must outlive the
/// trainer (the trainer holds a reference to it).
struct TrainerRig {
  std::unique_ptr<agsc::env::ScEnv> env;
  std::unique_ptr<agsc::core::HiMadrlTrainer> trainer;
};
TrainerRig MakeTrainerRig(const Scale& scale, uint64_t seed,
                          const agsc::core::TrainConfig& config);

// --- Workload families ------------------------------------------------------
//
// Each family measures its metrics for `budget_s` seconds of timed work.
// `primary` marks the family the workload is named after: only it reports
// setup_s / peak_rss_mb and, in a traced run, its overhead against the
// untraced share of the same run.

void RunTrainFamily(const Options& opts, double budget_s, bool primary,
                    Results& results);
/// proc = collect_proc4 (agsc_worker subprocesses), else collect_w4.
void RunCollectFamily(const Options& opts, double budget_s, bool primary,
                      bool proc, Results& results);
void RunServeFamily(const Options& opts, double budget_s, bool primary,
                    Results& results);

/// Per-layer probes of the traced run (nn GEMMs, snapshot batch, env
/// replica stepped by the policy). Reports their per-layer metrics.
void RunLayerProbes(const Options& opts, Results& results);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
