// agsc_perfbench: the repository benchmark's harness binary (driven by
// perfbench/run.py, which builds it and passes the workload settings).
//
//   agsc_perfbench --workload train_paper|collect_w4|collect_proc4|serve_tcp
//                  --seed N --seconds S --trace 0|1 [--smoke]
//                  [--worker-binary PATH] [--out-dir DIR] [--commit SHA]
//                  [--serve-rate-rps R]
//
// A run measures the workload's own family (train, collect or serve) for
// --seconds; setup_s and peak_rss_mb belong to it. Every run also reports
// train_iter_s, so the other workloads add the train family at the same
// budget. --trace 1 runs all three families (the collect and serve families
// at 0.4 x the budget when they are not the workload's own), records spans
// around the benchmark's calls into each layer, adds the per-layer probes,
// and writes a Chrome trace-event file to --out-dir.
//
// Output: report lines ("metric ...", "check ...", "info ..."), then one
// JSON line with correct/attempted/failed/metrics/info. Exit code 0 when
// every correctness check passed, 1 when one failed, 2 on a usage or
// runtime error (no JSON line).

#include <chrono>
#include <cmath>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "env/channel_batch.h"
#include "harness.h"
#include "nn/tensor.h"
#include "util/build_info.h"
#include "util/parse.h"

namespace perfbench {
namespace {

/// Budget of the collect and serve families a traced run adds, as a share of
/// --seconds.
constexpr double kOtherFamilyShare = 0.4;

const char* const kWorkloads[] = {"train_paper", "collect_w4", "collect_proc4",
                                  "serve_tcp"};

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string UtcNow() {
  const std::time_t now = std::time(nullptr);
  std::tm tm{};
  gmtime_r(&now, &tm);
  std::ostringstream s;
  s << std::put_time(&tm, "%Y-%m-%dT%H:%M:%SZ");
  return s.str();
}

bool ParseArgs(int argc, char** argv, Options& opts) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      opts.smoke = true;
      continue;
    }
    if (i + 1 >= argc) {
      std::cerr << "missing value for " << flag << "\n";
      return false;
    }
    const char* v = argv[++i];
    int n = 0;
    bool ok = true;
    if (flag == "--workload") {
      opts.workload = v;
    } else if (flag == "--seed") {
      ok = agsc::util::ParseUint64(v, &opts.seed);
    } else if (flag == "--seconds") {
      ok = agsc::util::ParseDoubleInRange(v, 0.05, 3600.0, &opts.seconds);
    } else if (flag == "--trace") {
      ok = agsc::util::ParseIntInRange(v, 0, 1, &n);
      opts.trace = n == 1;
    } else if (flag == "--out-dir") {
      opts.out_dir = v;
    } else if (flag == "--worker-binary") {
      opts.worker_binary = v;
    } else if (flag == "--commit") {
      opts.commit = v;
    } else if (flag == "--serve-rate-rps") {
      ok = agsc::util::ParseDoubleInRange(v, 1.0, 1e6, &opts.serve.rate_rps);
    } else {
      std::cerr << "unknown flag: " << flag << "\n";
      return false;
    }
    if (!ok) {
      std::cerr << "invalid value for " << flag << ": '" << v << "'\n";
      return false;
    }
  }
  for (const char* w : kWorkloads) {
    if (opts.workload == w) return true;
  }
  std::cerr << "unknown --workload '" << opts.workload << "'\n";
  return false;
}

/// sampler.overhead_ratio: measured collect round time over the ideal
/// parallel time, i.e. the env + policy work of a round (from the probes)
/// divided by W. What is left is barrier, merge and transport cost.
void AddSamplerRatio(const Options& opts, Results& results) {
  const auto& m = results.metrics();
  auto get = [&](const char* name) { return m.at(name).first; };
  const Scale& s = opts.scale;
  const int agents = s.uavs + s.ugvs;
  const double episodes = s.collect_workers * s.episodes_per_worker;
  const double work_us =
      episodes * (get("env.reset_us") +
                  s.timeslots * (get("env.step_us") +
                                 agents * get("policy.act_us")));
  const double ideal_ms = work_us / s.collect_workers / 1e3;
  results.Metric("sampler.overhead_ratio", get("sampler.collect_ms") / ideal_ms,
                 "ratio");
}

void PrintSpanSummary(Results& results) {
  std::cout << "# span summary (self = duration minus child spans)\n";
  for (const auto& [name, s] : Tracer::Get().Summarize()) {
    std::cout << "span " << std::left << std::setw(22) << name << " n="
              << s.count << " total_ms=" << s.total_us / 1e3
              << " self_ms=" << s.self_us / 1e3 << " p50_us=" << s.p50_us
              << " p99_us=" << s.p99_us << "\n";
    results.Info("self_ms." + name, s.self_us / 1e3);
  }
  for (const auto& [name, v] : Tracer::Get().counters()) {
    std::cout << "counter " << name << " " << v << "\n";
  }
}

int Run(const Options& opts) {
  Results results;
  results.Info("workload", opts.workload);
  results.Info("seed", std::to_string(opts.seed));
  results.Info("trace", opts.trace ? "1" : "0");
  results.Info("scale", opts.smoke ? "smoke" : "paper");
  results.Info("nproc", std::to_string(std::thread::hardware_concurrency()));
  results.Info("cpu", CpuModel());
  results.Info("gemm_isa", agsc::nn::ActiveGemmIsaName());
  results.Info("channel_isa",
               agsc::env::ChannelIsaName(agsc::env::ActiveChannelIsa()));
  results.Info("build", agsc::util::BuildInfoString());
  results.Info("commit", opts.commit);
  results.Info("date", UtcNow());
  std::filesystem::create_directories(opts.out_dir);

  const double own = opts.seconds;
  const double other = kOtherFamilyShare * opts.seconds;
  const std::string& w = opts.workload;
  const bool train = w == "train_paper";
  const bool collect = w == "collect_w4" || w == "collect_proc4";
  const bool serve = w == "serve_tcp";
  if (train) RunTrainFamily(opts, own, true, results);
  if (collect) {
    RunCollectFamily(opts, own, true, w == "collect_proc4", results);
  }
  if (serve) RunServeFamily(opts, own, true, results);
  // The same number of iterations as train_paper, so train_iter_s has the
  // same support on every workload.
  if (!train) RunTrainFamily(opts, own, false, results);
  if (opts.trace) {
    if (!collect) RunCollectFamily(opts, other, false, false, results);
    if (!serve) RunServeFamily(opts, other, false, results);
    RunLayerProbes(opts, results);
    AddSamplerRatio(opts, results);
    PrintSpanSummary(results);
    const std::string path = opts.out_dir + "/trace_" + w + "_" +
                             std::to_string(opts.seed) + ".json";
    results.Check("trace.written", Tracer::Get().WriteChromeJson(path),
                  "could not write " + path);
    results.Info("trace_file", path);
  }

  for (const auto& [name, v] : results.metrics()) {
    std::cout << "metric " << std::left << std::setw(28) << name << " "
              << std::setprecision(8) << v.first << " " << v.second << "\n";
  }
  for (const auto& [name, ok] : results.checks()) {
    std::cout << "check " << name << " " << (ok ? "ok" : "FAIL") << "\n";
  }
  for (const auto& [key, value] : results.info()) {
    std::cout << "info " << key << " " << value << "\n";
  }
  std::ostringstream json;
  json << std::setprecision(17) << "{\"correct\": "
       << (results.correct() ? "true" : "false")
       << ", \"attempted\": " << results.attempted()
       << ", \"failed\": " << results.failed() << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, v] : results.metrics()) {
    json << (first ? "" : ", ") << "\"" << name << "\": {\"value\": ";
    if (std::isfinite(v.first)) {
      json << v.first;
    } else {
      json << "null";  // run.py refuses to report a non-finite metric.
    }
    json << ", \"unit\": \"" << v.second << "\"}";
    first = false;
  }
  json << "}, \"info\": {";
  first = true;
  for (const auto& [key, value] : results.info()) {
    json << (first ? "" : ", ") << "\"" << JsonEscape(key) << "\": \""
         << JsonEscape(value) << "\"";
    first = false;
  }
  json << "}}";
  std::cout << json.str() << std::endl;
  return results.correct() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options opts;
  if (!perfbench::ParseArgs(argc, argv, opts)) return 2;
  if (opts.smoke) opts.scale = perfbench::Scale::Smoke();
  try {
    return perfbench::Run(opts);
  } catch (const std::exception& e) {
    std::cerr << "agsc_perfbench: " << e.what() << "\n";
    return 2;
  }
}
