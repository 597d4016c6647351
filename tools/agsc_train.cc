// Command-line trainer: the library's "production" entry point for running
// a single configurable experiment end to end.
//
//   agsc_train [flags]    (`agsc_train --help` lists every flag)
//
// Trains h/i-MADRL (or the selected variant), evaluates it, prints the five
// paper metrics and optionally saves/loads a checkpoint. With
// --checkpoint-dir/--checkpoint-every the trainer writes crash-safe v2
// checkpoints periodically; --resume restores the newest valid one (falling
// back past corrupted files) and trains only the remaining iterations.
// --num-workers W samples rollouts on W parallel environment replicas with
// per-worker RNG streams: results are bit-identical for a given
// (seed, W) pair, and checkpoints capture every worker stream so --resume
// stays bit-exact.
// --proc-workers W moves those replicas into W crash-isolated agsc_worker
// subprocesses (mutually exclusive with --num-workers): a worker that
// crashes, hangs, or corrupts its pipe is killed, respawned with bounded
// backoff, and its unfinished episode is re-run deterministically, so the
// produced rollouts — and checkpoints — stay bit-identical to
// --num-workers W for the same seed. Checkpoints resume across modes.
// --listen HOST:PORT + --remote-workers W keep the same crash-isolated
// protocol but stop fork/exec'ing: the trainer listens on TCP (port 0 =
// kernel-assigned, published via --port-file) and W externally launched
// `agsc_worker --connect HOST:PORT` processes — containers, other hosts, a
// test harness — register for the worker slots. A dropped connection is
// the remote analogue of a worker crash: the worker reconnects (or a
// replacement registers) and the episode is re-run deterministically,
// so rollouts and checkpoints stay bit-identical to --num-workers W.
// --nn-threads T parallelizes the large GEMMs of the optimize phase over T
// workers and --nn-naive falls back to the reference kernels; both are
// bit-identical to the default blocked single-threaded kernels, so they
// change throughput only, never the learned parameters.
// --env-naive disables the environment's spatial indices and cached road
// routing, falling back to the linear-scan / per-call-Dijkstra reference
// paths — also bit-identical, kept as an oracle and debugging aid.
// --env-channel-scalar disables the batched SoA channel kernels, computing
// every gain through the scalar per-link ChannelModel — bit-identical
// (the batched default tier reproduces libm bit patterns), kept as the
// channel oracle. --env-fast-math swaps the batched kernels' libm
// transcendentals for vectorized polynomial approximations: deterministic
// and statistically equivalent (bounded per-gain error, pinned by tests)
// but NOT bit-identical, so checkpoints are not byte-comparable with
// exact-tier runs.
//
// Long-run supervisor (see DESIGN.md "Robustness"):
//  * SIGINT/SIGTERM stop the run cooperatively at the next iteration or
//    sampling-timeslot boundary: the trainer flushes a final checkpoint and
//    the stats CSV, then exits with code 8. A second signal aborts
//    immediately with code 9 (no flush).
//  * --watchdog-sec S bounds every rollout env step; an in-process worker
//    silent longer than S seconds is reported (worker id + episode) and the
//    process fail-fast exits with code 7 instead of deadlocking.
//  * --oracle-check-every N cross-checks the optimized env/NN paths against
//    their retained naive oracles every N iterations and permanently falls
//    back to the oracle path on mismatch (recorded in checkpoints).
//  * --max-backoffs N turns a persistently diverging run (repeated NaN
//    updates after N learning-rate backoffs) into exit code 6 with the last
//    good checkpoint on disk.
//  * --stats-csv FILE writes one row of training diagnostics per completed
//    iteration (written atomically with retry, also on abnormal exits).
//
// Exit codes are stable (see util/exit_codes.h): 0 ok, 2 usage, 3 invalid
// config, 4 I/O error, 5 resume mismatch, 6 diverged, 7 watchdog timeout,
// 8 clean signal stop, 9 second-signal abort, 10 worker failed, 12 network
// setup failed (unusable --listen address).

#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/hi_madrl.h"
#include "env/render.h"
#include "tools/cli_common.h"
#include "util/exit_codes.h"
#include "util/flags.h"
#include "util/net.h"
#include "util/retry.h"
#include "util/shutdown.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace {

struct Args {
  agsc::tools::EnvArchFlags env;
  int iterations = 30;
  int eval_episodes = 10;
  int num_workers = 1;
  int proc_workers = 0;
  std::string worker_binary;
  std::string listen;
  int remote_workers = 0;
  std::string port_file;
  int nn_threads = 0;
  bool nn_naive = false;
  bool env_naive = false;
  std::string save_path;
  std::string load_path;
  std::string checkpoint_dir;
  int checkpoint_every = 0;
  int checkpoint_keep = 3;
  bool resume = false;
  std::string stats_csv;
  int watchdog_sec = 0;
  int oracle_check_every = 0;
  int max_backoffs = 0;
  bool render = false;
  bool quiet = false;
};

// Strict numeric parsing: garbage ("--iterations abc") and out-of-range
// values ("--uavs -3") are usage errors, never a silently trained nonsense
// configuration.
void RegisterFlags(agsc::util::FlagTable* flags, Args* args) {
  using agsc::tools::kMaxCount;
  flags->Int("--iterations", "N", 0, kMaxCount, &args->iterations);
  args->env.Register(flags);
  flags->Int("--eval", "N", 0, kMaxCount, &args->eval_episodes);
  flags->Int("--num-workers", "W", 1, 1024, &args->num_workers);
  flags->Int("--proc-workers", "W", 1, 1024, &args->proc_workers);
  flags->String("--worker-binary", "PATH", &args->worker_binary);
  flags->String("--listen", "HOST:PORT", &args->listen);
  flags->Int("--remote-workers", "W", 1, 1024, &args->remote_workers);
  flags->String("--port-file", "FILE", &args->port_file);
  flags->Int("--nn-threads", "T", 0, 1024, &args->nn_threads);
  flags->Switch("--nn-naive", &args->nn_naive);
  flags->Switch("--env-naive", &args->env_naive);
  flags->String("--save", "FILE", &args->save_path);
  flags->String("--load", "FILE", &args->load_path);
  flags->String("--checkpoint-dir", "DIR", &args->checkpoint_dir);
  flags->Int("--checkpoint-every", "N", 1, kMaxCount, &args->checkpoint_every);
  flags->Int("--checkpoint-keep", "K", 1, kMaxCount, &args->checkpoint_keep);
  flags->Switch("--resume", &args->resume);
  flags->String("--stats-csv", "FILE", &args->stats_csv);
  flags->Int("--watchdog-sec", "S", 0, 86400, &args->watchdog_sec);
  flags->Int("--oracle-check-every", "N", 0, kMaxCount,
             &args->oracle_check_every);
  flags->Int("--max-backoffs", "N", 0, kMaxCount, &args->max_backoffs);
  flags->Switch("--render", &args->render);
  flags->Switch("--quiet", &args->quiet);
}

constexpr char kExitLegend[] =
    "exit codes: 0 ok, 2 usage, 3 config, 4 io, 5 resume-mismatch,\n"
    "  6 diverged, 7 watchdog-timeout, 8 signal-stop, 9 abort,\n"
    "  10 worker-failed, 12 net-error\n";

/// Serializes the trainer's full stats history and writes it atomically
/// (with retry). Called on clean completion AND on supervised abnormal
/// exits, so the CSV always covers every completed iteration.
bool WriteStatsCsv(const agsc::core::HiMadrlTrainer& trainer,
                   const std::string& path,
                   const agsc::util::RetryPolicy& policy) {
  std::ostringstream csv;
  // Provenance header: which build produced these numbers. Comment line so
  // the CSV stays loadable with `comment='#'` in pandas/R.
  csv << "# build: " << agsc::tools::VersionLine("agsc_train") << "\n";
  csv << "iteration,psi,sigma,xi,kappa,lambda,mean_reward_ext,"
         "mean_reward_int,eoi_loss,actor_grad_norm,value_loss,"
         "total_env_steps,anomalies,lr_backoff,env_oracle_fallback,"
         "nn_oracle_fallback,channel_oracle_fallback\n";
  for (const agsc::core::IterationStats& s : trainer.stats_history()) {
    csv << s.iteration;
    for (double v : s.rollout_metrics.ToVector()) csv << "," << v;
    csv << "," << s.mean_reward_ext << "," << s.mean_reward_int << ","
        << s.eoi_loss << "," << s.actor_grad_norm << "," << s.value_loss
        << "," << s.total_env_steps << "," << s.anomalies << ","
        << (s.lr_backoff ? 1 : 0) << "," << (s.env_oracle_fallback ? 1 : 0)
        << "," << (s.nn_oracle_fallback ? 1 : 0) << ","
        << (s.channel_oracle_fallback ? 1 : 0) << "\n";
  }
  if (!agsc::util::AtomicWriteFileRetry(path, csv.str(), policy)) {
    std::cerr << "failed to write stats CSV " << path << "\n";
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace agsc;
  util::InstallShutdownHandler();
  Args args;
  util::FlagTable flags("agsc_train", kExitLegend);
  RegisterFlags(&flags, &args);
  if (const std::optional<int> exit_code = tools::ParseCommandLine(
          flags, argc, argv, std::cout, [&]() -> std::vector<tools::Rule> {
            const bool num_workers_set = flags.Given("--num-workers");
            return {
                {args.resume && args.checkpoint_dir.empty(),
                 "--resume requires --checkpoint-dir"},
                // Both select the replica count; a run is either
                // in-process or subprocess mode, never a mix.
                {args.proc_workers > 0 && num_workers_set,
                 "--proc-workers and --num-workers are mutually exclusive"},
                {args.remote_workers > 0 &&
                     (num_workers_set || args.proc_workers > 0),
                 "--remote-workers is mutually exclusive with "
                 "--num-workers/--proc-workers"},
                {args.remote_workers > 0 && args.listen.empty(),
                 "--remote-workers requires --listen HOST:PORT"},
                {!args.listen.empty() && args.remote_workers == 0,
                 "--listen requires --remote-workers W"},
                {!args.port_file.empty() && args.listen.empty(),
                 "--port-file requires --listen"},
            };
          })) {
    return *exit_code;
  }

  const map::Dataset dataset = args.env.BuildDataset();
  std::optional<env::EnvConfig> env_config = args.env.BuildEnvConfig();
  if (!env_config) return util::kExitConfig;
  env_config->use_spatial_index = !args.env_naive;
  // Training consumes only each slot's last events; the full per-slot event
  // log is needed just for the trajectory/coordination renders.
  env_config->record_event_log = args.render;
  env::ScEnv env(*env_config, dataset, args.env.seed);

  core::TrainConfig train;
  args.env.ApplyArchitecture(&train);
  train.iterations = args.iterations;
  train.num_workers = args.num_workers;
  train.proc_workers = args.proc_workers;
  if (args.proc_workers > 0) {
    train.worker_binary = args.worker_binary;
    if (train.worker_binary.empty()) {
      // Default: the agsc_worker binary built next to this trainer.
      std::error_code ec;
      std::filesystem::path self =
          std::filesystem::canonical(argv[0], ec);
      train.worker_binary =
          ((ec ? std::filesystem::path(argv[0]) : self).parent_path() /
           "agsc_worker")
              .string();
    }
  }
  if (args.remote_workers > 0) {
    // Remote mode reuses the proc-sampler machinery; the worker binary is
    // whatever the operator launches against --listen.
    train.proc_workers = args.remote_workers;
    train.listen_address = args.listen;
  }
  train.nn_threads = args.nn_threads;
  train.nn_naive_kernels = args.nn_naive;
  train.verbose = !args.quiet;
  train.checkpoint_dir = args.checkpoint_dir;
  train.checkpoint_every = args.checkpoint_every;
  train.checkpoint_keep = args.checkpoint_keep;
  train.watchdog_ms = static_cast<long>(args.watchdog_sec) * 1000;
  train.oracle_check_every = args.oracle_check_every;
  train.max_lr_backoffs = args.max_backoffs;
  train.stop_check = [] { return util::ShutdownRequested(); };
  std::unique_ptr<core::HiMadrlTrainer> trainer_holder;
  try {
    trainer_holder = std::make_unique<core::HiMadrlTrainer>(env, train);
  } catch (const util::NetError& e) {
    std::cerr << "network setup failed ("
              << util::ExitCodeName(util::kExitNetError) << "): " << e.what()
              << "\n";
    return util::kExitNetError;
  }
  core::HiMadrlTrainer& trainer = *trainer_holder;

  if (!args.port_file.empty()) {
    // Publish the bound port (resolves --listen HOST:0): the harness or
    // operator polls for this file.
    const int port = trainer.SamplerBoundPort();
    if (!tools::PublishPortFile(args.port_file, port)) {
      return util::kExitIoError;
    }
    if (!args.quiet) {
      std::cout << "listening on " << args.listen << " (port " << port
                << ", published to " << args.port_file << ")\n";
    }
  }

  if (args.resume) {
    if (trainer.LoadLatestCheckpoint(args.checkpoint_dir)) {
      std::cout << "resumed from " << args.checkpoint_dir << " at iteration "
                << trainer.iteration() << "\n";
    } else if (!core::ListCheckpointFiles(args.checkpoint_dir).empty()) {
      // Checkpoints exist but none is loadable into THIS configuration:
      // almost always a config/architecture mismatch. Refuse to silently
      // retrain from scratch next to data we can't read.
      std::cerr << "resume mismatch: " << args.checkpoint_dir
                << " contains checkpoints but none loads with this "
                << "configuration (see log above)\n";
      return util::kExitResumeMismatch;
    } else {
      std::cout << "no checkpoint in " << args.checkpoint_dir
                << "; starting fresh\n";
    }
  }
  if (!args.load_path.empty()) {
    if (!trainer.LoadCheckpoint(args.load_path)) {
      std::cerr << "failed to load checkpoint " << args.load_path << "\n";
      return util::kExitIoError;
    }
    std::cout << "loaded checkpoint " << args.load_path << "\n";
  }

  const auto flush_stats = [&]() -> bool {
    if (args.stats_csv.empty()) return true;
    return WriteStatsCsv(trainer, args.stats_csv, train.io_retry);
  };

  if (args.iterations > 0) {
    std::cout << "training " << args.iterations << " iterations on "
              << dataset.campus.name << " ("
              << trainer.TotalParameterCount() << " parameters)...\n";
    try {
      trainer.TrainTo(args.iterations);
    } catch (const util::InterruptedError& e) {
      // Cooperative signal stop: the trainer already flushed a final
      // checkpoint; persist the stats rows and report the signal.
      flush_stats();
      std::cerr << "stopped by signal "
                << util::ShutdownSignal() << ": " << e.what()
                << " (checkpoint flushed; resume with --resume)\n";
      return util::kExitSignalStop;
    } catch (const core::TrainingDiverged& e) {
      flush_stats();
      std::cerr << "training diverged: " << e.what()
                << " (last good checkpoint flushed)\n";
      return util::kExitDiverged;
    } catch (const core::ProcWorkerError& e) {
      // The worker fleet could not be kept alive (respawn budget exhausted
      // or spawn/handshake failure). The trainer flushed a final checkpoint
      // before rethrowing; persist stats and hand the supervisor a distinct
      // code so it can alert on infrastructure vs. training failures.
      flush_stats();
      std::cerr << "worker failed: " << e.what()
                << " (checkpoint flushed; resume with --resume)\n";
      return util::kExitWorkerFailed;
    } catch (const util::WatchdogTimeoutError& e) {
      // Fail fast: the hung worker may still be running, so skip all
      // destructors (a pool join would block on the stuck task) and leave
      // the previously written checkpoints as the recovery point.
      flush_stats();
      std::cerr << "watchdog timeout: " << e.what() << "\n" << std::flush;
      std::_Exit(util::kExitWatchdogTimeout);
    }
  }
  if (!args.save_path.empty()) {
    if (!trainer.SaveCheckpoint(args.save_path)) {
      std::cerr << "failed to save checkpoint " << args.save_path << "\n";
      return util::kExitIoError;
    }
    std::cout << "saved checkpoint to " << args.save_path << "\n";
  }
  if (!flush_stats()) return util::kExitIoError;

  core::EvalResult result;
  try {
    result = core::Evaluate(env, trainer, args.eval_episodes,
                            args.env.seed + 99);
  } catch (const util::InterruptedError& e) {
    // Training already finished and was saved/flushed above; only the final
    // evaluation was cut short.
    std::cerr << "stopped by signal " << util::ShutdownSignal() << ": "
              << e.what() << "\n";
    return util::kExitSignalStop;
  }
  util::Table table({"metric", "value"});
  const char* names[] = {"data collection ratio (psi)",
                         "data loss ratio (sigma)",
                         "energy consumption ratio (xi)",
                         "geographical fairness (kappa)",
                         "efficiency (lambda)"};
  const std::vector<double> values = result.mean.ToVector();
  for (int i = 0; i < 5; ++i) {
    table.AddRow({names[i], util::FormatDouble(values[i], 4)});
  }
  table.Print();
  for (int k = 0; k < env.num_agents(); ++k) {
    std::cout << (env.IsUav(k) ? "UAV " : "UGV ") << k << ": phi="
              << util::FormatDouble(trainer.lcfs()[k].phi_deg, 1)
              << " chi=" << util::FormatDouble(trainer.lcfs()[k].chi_deg, 1)
              << "\n";
  }
  if (args.render) {
    std::cout << env::RenderTrajectoriesAscii(env);
  }
  return util::kExitOk;
}
