// Low-latency policy dispatch service: the serving counterpart of
// agsc_train.
//
//   agsc_serve --snapshot FILE | --snapshot-dir DIR [flags]
//                         (`agsc_serve --help` lists every flag)
//
// Boots a DispatchServer over `--sessions` concurrent episode sessions
// (env replicas on split RNG streams), loads the newest valid checkpoint
// as the initial policy snapshot, and drives `--clients` request threads
// that step their sessions through the batched inference path until
// `--requests` steps each (0 = unbounded), `--duration-sec` elapses, or a
// signal arrives. The env/arch flags are the same flag group agsc_train
// declares (tools/cli_common) and must match the run that produced the
// checkpoints — a fingerprint mismatch is rejected like any corrupted file.
//
// Snapshot promotion: with --watch, a background watcher polls
// --snapshot-dir and promotes any new ckpt_*.agsc it finds via an atomic
// registry swap — request handling never pauses, in-flight batches finish
// on the snapshot they pinned. A corrupted/truncated/mismatched file is
// rejected loudly (counted in `publish_rejects`) and the last good
// snapshot stays live; only a missing *initial* snapshot is fatal.
//
// Network frontend: --listen HOST:PORT (port 0 = kernel-assigned,
// published via --port-file) additionally exposes Act/StepSession as
// framed request/response over TCP (core/serve_protocol — the same
// length-prefixed CRC frames the rollout workers speak). Remote requests
// run through the identical batched dispatch path as the in-process
// client fleet, with the same --deadline-ms fail-fast discipline, and
// return bit-identical actions. With --listen the local client fleet
// defaults to none and the process serves until --duration-sec or a
// signal.
//
// Overload control: --max-queue bounds the admission queue (0 =
// unbounded), --per-client-inflight caps any one client's admitted-but-
// unserved requests (0 = unlimited), and --admission 0 disables the
// deadline-aware early-reject estimator. Requests the server refuses get
// an explicit `rejected` status immediately — they never hang and never
// expire silently. Per-connection frontend budgets: --write-budget-ms is
// the slow-client quarantine threshold, --listen-sndbuf shrinks SO_SNDBUF
// on accepted sockets (testing aid), --max-pipeline bounds per-connection
// in-flight requests. The AGSC_FAULT_FLOOD_CLIENTS / FLOOD_DEPTH /
// STALL_DRAIN_MS / STALL_EVERY env knobs turn the local fleet (and any
// ServeClient) into misbehaving load generators for the soak campaign.
//
// On exit the final serving stats are flushed as JSON (atomically, with
// retry) to --stats-json. SIGINT/SIGTERM stop serving cooperatively: the
// stats still flush, and the process exits with code 8.
//
// Exit codes (util/exit_codes.h): 0 ok, 2 usage, 3 invalid config, 4 I/O
// error (stats flush failed), 8 clean signal stop, 11 serve-error (no
// loadable snapshot at startup), 12 net-error (unusable --listen
// address).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <future>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/dispatch_server.h"
#include "core/hi_madrl.h"
#include "core/policy_snapshot.h"
#include "core/serve_protocol.h"
#include "tools/cli_common.h"
#include "util/build_info.h"
#include "util/exit_codes.h"
#include "util/fault_inject.h"
#include "util/flags.h"
#include "util/net.h"
#include "util/retry.h"
#include "util/shutdown.h"

namespace {

struct Args {
  std::string snapshot_path;
  std::string snapshot_dir;
  bool watch = false;
  int watch_poll_ms = 200;
  int max_batch = 64;
  int deadline_ms = 50;
  int max_queue = 1024;
  int per_client_inflight = 0;
  int admission = 1;
  int write_budget_ms = 5000;
  int listen_sndbuf = 0;
  int max_pipeline = 256;
  int sessions = 4;
  int clients = 0;  ///< Used only when given: one per session by default.
  int requests = 64;
  int duration_sec = 0;
  std::string stats_json;
  std::string listen;
  std::string port_file;
  agsc::tools::EnvArchFlags env;
  bool quiet = false;
};

void RegisterFlags(agsc::util::FlagTable* flags, Args* args) {
  using agsc::tools::kMaxCount;
  flags->String("--snapshot", "FILE", &args->snapshot_path);
  flags->String("--snapshot-dir", "DIR", &args->snapshot_dir);
  flags->Switch("--watch", &args->watch);
  flags->Int("--watch-poll-ms", "MS", 1, 3600000, &args->watch_poll_ms);
  flags->Int("--max-batch", "N", 1, 65536, &args->max_batch);
  flags->Int("--deadline-ms", "MS", 0, 3600000, &args->deadline_ms);
  flags->Int("--max-queue", "N", 0, kMaxCount, &args->max_queue);
  flags->Int("--per-client-inflight", "N", 0, kMaxCount,
             &args->per_client_inflight);
  flags->Int("--admission", "0|1", 0, 1, &args->admission);
  flags->Int("--sessions", "S", 1, 4096, &args->sessions);
  flags->Int("--clients", "C", 1, 4096, &args->clients);
  flags->Int("--requests", "N", 0, kMaxCount, &args->requests);
  flags->Int("--duration-sec", "S", 0, 86400, &args->duration_sec);
  flags->String("--stats-json", "FILE", &args->stats_json);
  flags->String("--listen", "HOST:PORT", &args->listen);
  flags->String("--port-file", "FILE", &args->port_file);
  flags->Int("--write-budget-ms", "MS", 1, 3600000, &args->write_budget_ms);
  flags->Int("--listen-sndbuf", "BYTES", 0, kMaxCount, &args->listen_sndbuf);
  flags->Int("--max-pipeline", "N", 1, 65536, &args->max_pipeline);
  args->env.Register(flags);
  flags->Switch("--quiet", &args->quiet);
}

constexpr char kExitLegend[] =
    "exit codes: 0 ok, 2 usage, 3 config, 4 io, 8 signal-stop,\n"
    "  11 serve-error, 12 net-error\n";

/// Checkpoint files in `dir`, newest first by modification time (name as a
/// deterministic tie-break). Empty when the directory is missing/empty.
std::vector<std::string> CheckpointsNewestFirst(const std::string& dir) {
  namespace fs = std::filesystem;
  std::vector<std::pair<fs::file_time_type, std::string>> found;
  for (std::string& path : agsc::core::ListCheckpointFiles(dir)) {
    std::error_code time_ec;
    const fs::file_time_type mtime = fs::last_write_time(path, time_ec);
    found.emplace_back(time_ec ? fs::file_time_type::min() : mtime,
                       std::move(path));
  }
  std::sort(found.begin(), found.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second > b.second;
  });
  std::vector<std::string> paths;
  paths.reserve(found.size());
  for (auto& [mtime, path] : found) paths.push_back(std::move(path));
  return paths;
}

/// Serializes the final serving stats as a flat JSON object.
std::string StatsJson(const Args& args, int num_clients,
                      const agsc::core::DispatchStats& s, double elapsed_sec,
                      uint64_t client_steps) {
  std::ostringstream out;
  const double reqs =
      static_cast<double>(s.requests_ok + s.requests_expired);
  out << "{\n"
      << "  \"build\": \"" << agsc::util::BuildInfoString("") << "\",\n"
      << "  \"sessions\": " << args.sessions << ",\n"
      << "  \"clients\": " << num_clients << ",\n"
      << "  \"max_batch\": " << args.max_batch << ",\n"
      << "  \"deadline_ms\": " << args.deadline_ms << ",\n"
      << "  \"max_queue\": " << args.max_queue << ",\n"
      << "  \"per_client_inflight\": " << args.per_client_inflight << ",\n"
      << "  \"admission\": " << args.admission << ",\n"
      << "  \"elapsed_sec\": " << elapsed_sec << ",\n"
      << "  \"client_steps\": " << client_steps << ",\n"
      << "  \"requests_ok\": " << s.requests_ok << ",\n"
      << "  \"requests_expired\": " << s.requests_expired << ",\n"
      << "  \"requests_rejected\": " << s.requests_rejected << ",\n"
      << "  \"rejected_queue_full\": " << s.rejected_queue_full << ",\n"
      << "  \"rejected_client_cap\": " << s.rejected_client_cap << ",\n"
      << "  \"rejected_deadline\": " << s.rejected_deadline << ",\n"
      << "  \"requests_shed\": " << s.requests_shed << ",\n"
      << "  \"overload_entries\": " << s.overload_entries << ",\n"
      << "  \"overloaded\": " << (s.overloaded ? 1 : 0) << ",\n"
      << "  \"queue_depth\": " << s.queue_depth << ",\n"
      << "  \"ewma_batch_ms\": " << s.ewma_batch_ms << ",\n"
      << "  \"clients_quarantined\": " << s.clients_quarantined << ",\n"
      << "  \"requests_shutdown\": " << s.requests_shutdown << ",\n"
      << "  \"requests_no_snapshot\": " << s.requests_no_snapshot << ",\n"
      << "  \"requests_invalid\": " << s.requests_invalid << ",\n"
      << "  \"requests_per_sec\": "
      << (elapsed_sec > 0 ? reqs / elapsed_sec : 0.0) << ",\n"
      << "  \"batches\": " << s.batches << ",\n"
      << "  \"rows\": " << s.rows << ",\n"
      << "  \"publishes\": " << s.publishes << ",\n"
      << "  \"publish_rejects\": " << s.publish_rejects << ",\n"
      << "  \"episodes_completed\": " << s.episodes_completed << ",\n"
      << "  \"env_steps\": " << s.env_steps << ",\n"
      << "  \"latency_samples\": " << s.latency_samples << ",\n"
      << "  \"latency_p50_ms\": " << s.latency_p50_ms << ",\n"
      << "  \"latency_p99_ms\": " << s.latency_p99_ms << ",\n"
      << "  \"latency_max_ms\": " << s.latency_max_ms << "\n"
      << "}\n";
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace agsc;
  util::InstallShutdownHandler();
  // Arm any AGSC_FAULT_* flags up front (the soak test injects write
  // failures and batch stalls through the environment).
  util::FaultInjector::Instance();
  Args args;
  util::FlagTable flags("agsc_serve", kExitLegend);
  RegisterFlags(&flags, &args);
  if (const std::optional<int> exit_code = tools::ParseCommandLine(
          flags, argc, argv, std::cout, [&]() -> std::vector<tools::Rule> {
            return {
                {args.snapshot_path.empty() && args.snapshot_dir.empty(),
                 "one of --snapshot or --snapshot-dir is required"},
                {args.watch && args.snapshot_dir.empty(),
                 "--watch requires --snapshot-dir"},
                // A listening server is legitimately unbounded (stopped by
                // signal); a pure local client fleet is not.
                {args.requests == 0 && args.duration_sec == 0 &&
                     args.listen.empty(),
                 "unbounded run: give --requests N or --duration-sec S"},
                {!args.port_file.empty() && args.listen.empty(),
                 "--port-file requires --listen"},
            };
          })) {
    return *exit_code;
  }

  const map::Dataset dataset = args.env.BuildDataset();
  const std::optional<env::EnvConfig> env_config = args.env.BuildEnvConfig();
  if (!env_config) return util::kExitConfig;
  env::ScEnv env(*env_config, dataset, args.env.seed);

  // The staging trainer only exists to materialize networks of the right
  // architecture and load checkpoints into them; it never trains.
  core::TrainConfig train;
  args.env.ApplyArchitecture(&train);
  train.verbose = false;
  core::HiMadrlTrainer staging(env, train);

  core::DispatchConfig dispatch;
  dispatch.num_sessions = args.sessions;
  dispatch.max_batch = args.max_batch;
  dispatch.deadline_ms = args.deadline_ms;
  dispatch.max_queue = args.max_queue;
  dispatch.per_client_inflight = args.per_client_inflight;
  dispatch.admission = args.admission != 0;
  dispatch.seed = args.env.seed;
  core::DispatchServer server(env, dispatch);

  // Initial snapshot: the named file, or the newest loadable file in the
  // snapshot dir (skipping past corrupted ones). Nothing loadable is fatal
  // — a dispatch service without a policy cannot serve.
  std::string last_promoted;
  {
    std::vector<std::string> candidates;
    if (!args.snapshot_path.empty()) {
      candidates.push_back(args.snapshot_path);
    } else {
      candidates = CheckpointsNewestFirst(args.snapshot_dir);
    }
    std::string error;
    for (const std::string& path : candidates) {
      std::shared_ptr<core::PolicySnapshot> snapshot =
          core::LoadPolicySnapshot(staging, path, &error);
      if (snapshot != nullptr) {
        const uint64_t version = server.PublishSnapshot(std::move(snapshot));
        last_promoted = path;
        if (!args.quiet) {
          // Flushed immediately: this is the readiness line supervisors
          // (and the soak tests) wait on, and a redirected stdout is fully
          // buffered otherwise.
          std::cout << "serving snapshot v" << version << " from " << path
                    << std::endl;
        }
        break;
      }
      server.CountPublishReject();
      std::cerr << "rejected " << error << "\n";
    }
    if (last_promoted.empty()) {
      std::cerr << "serve-error: no loadable policy snapshot (looked at "
                << candidates.size() << " candidate(s))\n";
      return util::kExitServeError;
    }
  }

  server.Start();

  // Network frontend: framed Act/StepSession over TCP against the same
  // dispatch server the local client fleet uses.
  std::unique_ptr<core::ServeFrontend> frontend;
  if (!args.listen.empty()) {
    core::ServeFrontend::Options fopts;
    fopts.listen_address = args.listen;
    fopts.write_timeout_ms = args.write_budget_ms;
    fopts.send_buffer_bytes = args.listen_sndbuf;
    fopts.max_pipeline = args.max_pipeline;
    try {
      frontend = std::make_unique<core::ServeFrontend>(server, fopts);
    } catch (const util::NetError& e) {
      std::cerr << "network setup failed ("
                << util::ExitCodeName(util::kExitNetError) << "): " << e.what()
                << "\n";
      return util::kExitNetError;
    }
    frontend->Start();
    if (!args.port_file.empty() &&
        !tools::PublishPortFile(args.port_file, frontend->bound_port())) {
      return util::kExitIoError;
    }
    if (!args.quiet) {
      // Also a readiness line — flush past the redirected-stdout buffer.
      std::cout << "listening on " << args.listen << " (port "
                << frontend->bound_port() << ")" << std::endl;
    }
  }

  // Checkpoint watcher: promote new files as the (simulated or real)
  // trainer drops them. Rejections keep the last good snapshot live.
  std::atomic<bool> watcher_stop{false};
  std::thread watcher;
  if (args.watch) {
    watcher = std::thread([&] {
      while (!watcher_stop.load(std::memory_order_relaxed) &&
             !util::ShutdownRequested()) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(args.watch_poll_ms));
        const std::vector<std::string> candidates =
            CheckpointsNewestFirst(args.snapshot_dir);
        if (candidates.empty() || candidates.front() == last_promoted) {
          continue;
        }
        std::string error;
        std::shared_ptr<core::PolicySnapshot> snapshot =
            core::LoadPolicySnapshot(staging, candidates.front(), &error);
        if (snapshot == nullptr) {
          server.CountPublishReject();
          std::cerr << "rejected " << error << " (keeping v"
                    << server.CurrentSnapshot()->version() << " live)\n";
          continue;
        }
        const uint64_t version = server.PublishSnapshot(std::move(snapshot));
        last_promoted = candidates.front();
        if (!args.quiet) {
          std::cout << "promoted snapshot v" << version << " from "
                    << last_promoted << "\n";
        }
      }
    });
  }

  // Client fleet: each thread steps its sessions round-robin through the
  // batched dispatch path. This is the simulated request stream; a network
  // frontend would enqueue the same StepSession/Act calls.
  const int num_clients = flags.Given("--clients")
                              ? args.clients
                              : (args.listen.empty() ? args.sessions : 0);
  const auto start_time = std::chrono::steady_clock::now();
  const auto deadline =
      args.duration_sec > 0
          ? start_time + std::chrono::seconds(args.duration_sec)
          : std::chrono::steady_clock::time_point::max();
  std::atomic<uint64_t> client_steps{0};
  std::vector<std::thread> clients;
  clients.reserve(static_cast<size_t>(num_clients));
  const int flood_clients = util::FaultInjector::Instance().FloodClients();
  const int flood_depth = util::FaultInjector::Instance().FloodDepth();
  for (int c = 0; c < num_clients; ++c) {
    const bool flooder = c < flood_clients;
    clients.emplace_back([&, c, flooder] {
      core::RequestOptions opts;
      opts.client = static_cast<uint64_t>(c);
      int session = c % server.num_sessions();
      if (!flooder) {
        // Well-behaved client: lock-step request/response.
        for (int n = 0; args.requests == 0 || n < args.requests; ++n) {
          if (util::ShutdownRequested()) break;
          if (std::chrono::steady_clock::now() >= deadline) break;
          const core::DispatchResult result =
              server.StepSession(session, opts);
          if (result.shutdown) break;
          client_steps.fetch_add(1, std::memory_order_relaxed);
          session = (session + num_clients) % server.num_sessions();
        }
        return;
      }
      // Flooding client (AGSC_FAULT_FLOOD_CLIENTS): keeps flood_depth
      // async requests in flight instead of pacing itself on responses —
      // the admission queue and per-client cap must contain it.
      std::deque<std::future<core::DispatchResult>> inflight;
      int sent = 0;
      bool stop = false;
      while (!stop || !inflight.empty()) {
        while (!stop &&
               inflight.size() < static_cast<size_t>(flood_depth) &&
               (args.requests == 0 || sent < args.requests)) {
          if (util::ShutdownRequested() ||
              std::chrono::steady_clock::now() >= deadline) {
            stop = true;
            break;
          }
          inflight.push_back(server.StepSessionAsync(session, opts));
          ++sent;
          session = (session + num_clients) % server.num_sessions();
        }
        if (args.requests != 0 && sent >= args.requests) stop = true;
        if (inflight.empty()) continue;
        const core::DispatchResult result = inflight.front().get();
        inflight.pop_front();
        if (result.shutdown) stop = true;
        if (result.ok) client_steps.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  if (frontend != nullptr && clients.empty()) {
    // Pure network server: serve until the duration elapses or a signal
    // lands (the local fleet otherwise bounds the run's lifetime).
    while (!util::ShutdownRequested() &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }
  if (frontend != nullptr) frontend->Stop();
  watcher_stop.store(true, std::memory_order_relaxed);
  if (watcher.joinable()) watcher.join();
  server.Stop();

  const double elapsed_sec =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    start_time)
          .count();
  const core::DispatchStats stats = server.Stats();
  if (!args.quiet) {
    const double reqs =
        static_cast<double>(stats.requests_ok + stats.requests_expired);
    std::cout << "served " << stats.requests_ok << " ok, "
              << stats.requests_expired << " expired, "
              << stats.requests_rejected << " rejected, "
              << stats.requests_shed << " shed in " << elapsed_sec << "s ("
              << (elapsed_sec > 0 ? reqs / elapsed_sec : 0.0)
              << " req/s, p50 " << stats.latency_p50_ms << " ms, p99 "
              << stats.latency_p99_ms << " ms, " << stats.publishes
              << " publishes, " << stats.publish_rejects
              << " publish-rejects, " << stats.overload_entries
              << " overload entries, " << stats.clients_quarantined
              << " quarantined)\n";
  }

  // Final stats flush — also on signal stop. A persistent write failure is
  // an I/O error; the retry layer absorbs transient ones.
  if (!args.stats_json.empty()) {
    util::RetryPolicy policy;
    if (!util::AtomicWriteFileRetry(
            args.stats_json,
            StatsJson(args, num_clients, stats, elapsed_sec,
                      client_steps.load()),
            policy)) {
      std::cerr << "failed to write stats JSON " << args.stats_json << "\n";
      return util::kExitIoError;
    }
  }
  if (util::ShutdownRequested()) {
    std::cerr << "stopped by signal " << util::ShutdownSignal()
              << " (stats flushed)\n";
    return util::kExitSignalStop;
  }
  return util::kExitOk;
}
