// agsc_worker: one crash-isolated rollout worker process.
//
// Two transports, one protocol (core/worker_protocol over util/ipc frames):
//  * local (default): spawned by the trainer's ProcSampler
//    (`agsc_train --proc-workers N`) and driven over stdin/stdout pipes;
//    stderr carries diagnostics.
//  * remote (`--connect HOST:PORT`): launched externally (another host,
//    a supervisor script, a test harness) against a trainer listening via
//    `agsc_train --listen ... --remote-workers N`. Each fresh TCP
//    connection opens with a kMsgRegister frame claiming this worker's
//    `--worker-id` slot; a dropped connection (trainer-side escalation or
//    a real network fault) is answered by reconnecting with bounded
//    backoff and re-registering — the trainer re-sends the episode, so the
//    rollout stays bit-identical.
//
// The worker owns one environment replica and a copy of the actors, both
// rebuilt from the kMsgInit frame; the parameters arrive in kMsgPolicy.
// Each kMsgEpisode frame names the RNG states an episode starts from, and
// the worker runs the whole episode (core::RunEpisode), streaming one
// record per step. The trainer keeps the streams and the rollout buffers,
// so a worker crash loses nothing that cannot be re-run.
//
// Lifecycle contract: the worker never outlives its transport. EOF on
// stdin — the trainer died or dropped this incarnation — is a clean exit;
// EOF on a socket triggers a reconnect. A protocol violation is a loud
// nonzero exit (local) or a reconnect (remote; the trainer observes EOF
// and re-runs the episode). SIGINT/SIGTERM are ignored: a terminal ^C
// must reach only the trainer, which winds the fleet down cooperatively
// (kMsgShutdown / transport close), and SIGKILL remains the trainer's
// escalation path for a hung local worker.

#include <signal.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <exception>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/vec_sampler.h"
#include "core/worker_protocol.h"
#include "env/sc_env.h"
#include "map/trace.h"
#include "nn/tensor.h"
#include "tools/cli_common.h"
#include "util/env_flags.h"
#include "util/exit_codes.h"
#include "util/fault_inject.h"
#include "util/flags.h"
#include "util/ipc.h"
#include "util/logging.h"
#include "util/net.h"
#include "util/retry.h"

namespace {

using agsc::core::DecodeWorkerInit;
using agsc::core::EncodeWorkerHello;
using agsc::core::EncodeWorkerRegister;
using agsc::core::WorkerHello;
using agsc::core::WorkerInit;
using agsc::core::WorkerRegister;

constexpr char kLegend[] =
    "Rollout worker for agsc_train. Without --connect it speaks the\n"
    "framed worker protocol on stdin/stdout (spawned by --proc-workers N\n"
    "and not meant to be run by hand). With --connect it registers its\n"
    "--worker-id slot with a trainer listening via --listen/\n"
    "--remote-workers N, and reconnects with bounded backoff if the\n"
    "connection drops.\n";

/// Streams one episode to the trainer: a record per env step, then the
/// episode end. KILL_WORKER_NTH counts env steps; CORRUPT_FRAME and
/// STALL_PIPE count outgoing records of either kind. Throws SendFailed
/// when the transport breaks.
class StreamSink : public agsc::core::EpisodeSink {
 public:
  struct SendFailed {};

  StreamSink(agsc::util::FrameWriter& writer, uint64_t& out_seq,
             int worker_id)
      : writer_(writer), out_seq_(out_seq), worker_id_(worker_id) {}

  void Step(const agsc::core::StepRecord& record) override {
    if (agsc::util::FaultInjector::Instance().KillWorkerNow()) {
      AGSC_LOG(kWarning) << "worker " << worker_id_
                         << ": injected SIGKILL (KILL_WORKER_NTH)";
      ::raise(SIGKILL);
    }
    Send(agsc::core::kMsgStepRecord, agsc::core::EncodeStepRecord(record));
  }

  void End(const agsc::core::EpisodeEnd& end) override {
    Send(agsc::core::kMsgEpisodeEnd, agsc::core::EncodeEpisodeEnd(end));
  }

 private:
  void Send(uint32_t type, const std::string& payload) {
    const agsc::util::FaultInjector::FrameFault fault =
        agsc::util::FaultInjector::Instance().NextFrameFault();
    if (fault.stall_ms > 0) {
      AGSC_LOG(kWarning) << "worker " << worker_id_
                         << ": injected pipe stall of " << fault.stall_ms
                         << " ms";
      ::usleep(static_cast<useconds_t>(fault.stall_ms) * 1000);
    }
    if (fault.corrupt_byte >= 0) {
      AGSC_LOG(kWarning) << "worker " << worker_id_
                         << ": injected frame corruption";
    }
    if (writer_.Write(type, out_seq_++, payload, /*timeout_ms=*/-1,
                      fault.corrupt_byte) != agsc::util::IpcStatus::kOk) {
      throw SendFailed{};
    }
  }

  agsc::util::FrameWriter& writer_;
  uint64_t& out_seq_;
  int worker_id_;
};

/// Arms/disarms the process-global fault campaigns for one session.
/// `incarnation` is the local --incarnation flag or the remote connection
/// counter; faults target (worker id, incarnation 0) except STALL_READS,
/// which carries its own incarnation knob so a stall can be aimed at a
/// *respawned* incarnation's policy frame.
void ScopeWorkerFaults(int worker_id, int incarnation) {
  agsc::util::FaultInjector& faults = agsc::util::FaultInjector::Instance();
  const int fault_target = agsc::util::GetEnvOr("AGSC_FAULT_WORKER_ID", -1);
  const int stall_reads_incarnation =
      agsc::util::GetEnvOr("AGSC_FAULT_STALL_READS_INCARNATION", 0);
  if (fault_target >= 0 && fault_target != worker_id) {
    faults.DisarmWorkerFaults();
    faults.DisarmReadStallFault();
    return;
  }
  if (incarnation != 0) faults.DisarmWorkerFaults();
  if (incarnation != stall_reads_incarnation) faults.DisarmReadStallFault();
}

/// Outcome of one session (one pipe lifetime / one TCP connection).
enum class SessionEnd {
  kShutdown,   ///< kMsgShutdown or clean EOF: exit 0.
  kReconnect,  ///< Remote only: transport fault/drop; reconnect + re-run.
  kFailure,    ///< Fatal: exit with the returned code.
};

/// Drives one init -> hello -> episodes conversation over an established
/// transport. `out_seq` continues the writer's sequence (remote sessions
/// already spent seq 0 on kMsgRegister). On kFailure, `*exit_code` holds
/// the exit code.
SessionEnd RunSession(agsc::util::FrameReader& reader,
                      agsc::util::FrameWriter& writer, uint64_t out_seq,
                      int worker_id, int incarnation, bool is_remote,
                      int* exit_code) {
  ScopeWorkerFaults(worker_id, incarnation);
  agsc::util::FaultInjector& faults = agsc::util::FaultInjector::Instance();
  *exit_code = agsc::util::kExitOk;

  const auto fail = [&](int code) {
    if (is_remote) return SessionEnd::kReconnect;
    *exit_code = code;
    return SessionEnd::kFailure;
  };

  // Injected read-side faults (STALL_READS / DROP_CONN), consulted before
  // every incoming frame. Returns false when the session must drop.
  const auto apply_read_fault = [&]() {
    const agsc::util::FaultInjector::ReadFault fault = faults.NextReadFault();
    if (fault.stall_ms > 0) {
      AGSC_LOG(kWarning) << "worker " << worker_id
                         << ": injected read stall of " << fault.stall_ms
                         << " ms (peer stops draining)";
      ::usleep(static_cast<useconds_t>(fault.stall_ms) * 1000);
    }
    if (fault.drop) {
      AGSC_LOG(kWarning) << "worker " << worker_id
                         << ": injected connection drop";
      return false;
    }
    return true;
  };

  // --- Handshake: kMsgInit -> rebuild the env and actors -> kMsgHello. ---
  agsc::util::Frame frame;
  if (!apply_read_fault()) return fail(agsc::util::kExitIoError);
  agsc::util::IpcStatus status = reader.Read(frame, /*timeout_ms=*/-1);
  if (status == agsc::util::IpcStatus::kEof) return SessionEnd::kShutdown;
  if (status != agsc::util::IpcStatus::kOk ||
      frame.type != agsc::core::kMsgInit) {
    AGSC_LOG(kError) << "worker " << worker_id << ": bad init frame ("
                     << agsc::util::IpcStatusName(status) << ")";
    return fail(agsc::util::kExitIoError);
  }
  WorkerInit init;
  if (!DecodeWorkerInit(frame.payload, init)) {
    AGSC_LOG(kError) << "worker " << worker_id
                     << ": init payload rejected (protocol/config mismatch)";
    *exit_code = agsc::util::kExitConfig;
    return SessionEnd::kFailure;
  }

  std::unique_ptr<agsc::env::ScEnv> env;
  std::vector<agsc::core::GaussianActor> actors;
  try {
    // The ctor seed is irrelevant: every episode frame loads the exact RNG
    // state this shard's stream is at, so the env is reconstructible from
    // (campus, config) alone.
    env = std::make_unique<agsc::env::ScEnv>(
        init.config, agsc::map::BuildDataset(init.campus, init.config.num_pois),
        /*seed=*/0);
    actors = agsc::core::BuildWorkerActors(init, env->num_agents(),
                                           env->obs_dim());
  } catch (const std::exception& e) {
    AGSC_LOG(kError) << "worker " << worker_id
                     << ": env/actor rebuild failed: " << e.what();
    *exit_code = agsc::util::kExitConfig;
    return SessionEnd::kFailure;
  }
  agsc::core::RolloutActors rollout;
  rollout.share_params = init.share_params;
  std::vector<agsc::core::GaussianActor*> nets;
  for (agsc::core::GaussianActor& actor : actors) nets.push_back(&actor);
  for (int k = 0; k < env->num_agents(); ++k) {
    rollout.per_agent.push_back(nets[init.share_params ? 0 : k]);
  }

  WorkerHello hello;
  hello.worker_id = worker_id;
  hello.num_agents = env->num_agents();
  hello.obs_dim = env->obs_dim();
  hello.state_dim = env->state_dim();
  if (writer.Write(agsc::core::kMsgHello, out_seq++,
                   EncodeWorkerHello(hello)) != agsc::util::IpcStatus::kOk) {
    return fail(agsc::util::kExitIoError);
  }

  // --- Steady state: policies and episodes until shutdown/EOF. ---
  const auto reject = [&](const char* what) {
    AGSC_LOG(kError) << "worker " << worker_id << ": " << what;
    *exit_code = agsc::util::kExitConfig;
    return SessionEnd::kFailure;
  };
  bool has_policy = false;
  StreamSink sink(writer, out_seq, worker_id);
  for (;;) {
    if (!apply_read_fault()) return fail(agsc::util::kExitIoError);
    status = reader.Read(frame, /*timeout_ms=*/-1);
    if (status == agsc::util::IpcStatus::kEof) {
      return is_remote ? SessionEnd::kReconnect : SessionEnd::kShutdown;
    }
    if (status != agsc::util::IpcStatus::kOk) {
      AGSC_LOG(kError) << "worker " << worker_id << ": transport "
                       << agsc::util::IpcStatusName(status)
                       << (is_remote ? "; reconnecting" : "; exiting");
      return fail(agsc::util::kExitIoError);
    }

    switch (frame.type) {
      case agsc::core::kMsgShutdown:
        return SessionEnd::kShutdown;

      case agsc::core::kMsgPolicy:
        if (!agsc::core::DecodeWorkerPolicy(frame.payload, nets)) {
          return reject("policy rejected (does not match the init shape)");
        }
        has_policy = true;
        break;

      case agsc::core::kMsgEpisode: {
        agsc::core::WorkerEpisode episode;
        if (!agsc::core::DecodeWorkerEpisode(frame.payload, episode)) {
          return reject("episode frame rejected");
        }
        if (!has_policy) return reject("episode frame before any policy");
        if ((episode.flags & agsc::core::kEpisodeNaiveEnv) != 0) {
          env->DisableSpatialIndex();
        }
        if ((episode.flags & agsc::core::kEpisodeScalarChannel) != 0) {
          env->DisableChannelBatch();
        }
        if ((episode.flags & agsc::core::kEpisodeNaiveNn) != 0) {
          agsc::nn::KernelConfig kernels = agsc::nn::GetKernelConfig();
          kernels.gemm = agsc::nn::GemmKernel::kNaive;
          agsc::nn::SetKernelConfig(kernels);
        }
        env->rng().LoadState(episode.env_rng);
        agsc::util::Rng rng(0);
        rng.LoadState(episode.sample_rng);
        try {
          agsc::core::RunEpisode(*env, rollout, rng, sink);
        } catch (const StreamSink::SendFailed&) {
          return fail(agsc::util::kExitIoError);
        }
        break;
      }

      default:
        AGSC_LOG(kError) << "worker " << worker_id
                         << ": unexpected frame type " << frame.type;
        *exit_code = agsc::util::kExitConfig;
        return SessionEnd::kFailure;
    }
  }
}

void IgnoreTerminalSignals() {
  // The protocol owns the transport; only the trainer may end this process
  // (transport close or SIGKILL), so terminal signals are ignored and a
  // dead peer must surface as EPIPE/EOF rather than a signal death.
  ::signal(SIGINT, SIG_IGN);
  ::signal(SIGTERM, SIG_IGN);
  agsc::util::IgnoreSigpipe();
}

int PipeMain(int worker_id, int incarnation) {
  IgnoreTerminalSignals();
  agsc::util::FrameReader reader(STDIN_FILENO);
  agsc::util::FrameWriter writer(STDOUT_FILENO);
  int exit_code = agsc::util::kExitOk;
  const SessionEnd end = RunSession(reader, writer, /*out_seq=*/0, worker_id,
                                    incarnation, /*is_remote=*/false,
                                    &exit_code);
  // kReconnect cannot happen on a pipe (RunSession maps faults to
  // kFailure); kShutdown is the clean exit.
  return end == SessionEnd::kFailure ? exit_code : agsc::util::kExitOk;
}

int ConnectMain(const std::string& host, int port, int worker_id,
                long connect_timeout_ms, int connect_retries) {
  IgnoreTerminalSignals();
  agsc::util::RetryPolicy policy;
  policy.max_attempts = connect_retries;
  policy.initial_backoff_ms = 50;
  policy.backoff_multiplier = 1.5;
  policy.max_backoff_ms = 1000;
  int connect_seq = 0;
  for (;;) {
    std::string error;
    const int fd = agsc::util::TcpConnectWithRetry(
        host, port, connect_timeout_ms, policy, nullptr, &error);
    if (fd < 0) {
      AGSC_LOG(kError) << "worker " << worker_id << ": cannot reach trainer "
                       << host << ":" << port << " (" << error << "); exiting "
                       << agsc::util::ExitCodeName(agsc::util::kExitNetError);
      return agsc::util::kExitNetError;
    }
    agsc::util::FrameWriter writer(fd);
    agsc::util::FrameReader reader(fd);
    WorkerRegister reg;
    reg.worker_id = worker_id;
    reg.connect_seq = connect_seq;
    SessionEnd end = SessionEnd::kReconnect;
    int exit_code = agsc::util::kExitOk;
    if (writer.Write(agsc::core::kMsgRegister, /*seq=*/0,
                     EncodeWorkerRegister(reg), /*timeout_ms=*/10000) ==
        agsc::util::IpcStatus::kOk) {
      end = RunSession(reader, writer, /*out_seq=*/1, worker_id,
                       /*incarnation=*/connect_seq, /*is_remote=*/true,
                       &exit_code);
    }
    ::close(fd);
    if (end == SessionEnd::kShutdown) return agsc::util::kExitOk;
    if (end == SessionEnd::kFailure) return exit_code;
    ++connect_seq;
    AGSC_LOG(kWarning) << "worker " << worker_id
                       << ": connection ended; reconnecting (connect_seq="
                       << connect_seq << ")";
  }
}

}  // namespace

int main(int argc, char** argv) {
  int worker_id = 0;
  int incarnation = 0;
  std::string connect;
  int connect_timeout_ms = 10000;
  int connect_retries = 40;
  agsc::util::FlagTable flags("agsc_worker", kLegend);
  flags.Int("--worker-id", "N", 0, 1 << 20, &worker_id);
  flags.Int("--incarnation", "N", 0, 1 << 20, &incarnation);
  flags.String("--connect", "HOST:PORT", &connect);
  flags.Int("--connect-timeout-ms", "MS", 1, 1 << 30, &connect_timeout_ms);
  flags.Int("--connect-retries", "N", 1, 1 << 20, &connect_retries);
  // stdout is the protocol pipe: usage goes to stderr, even for --help.
  if (const std::optional<int> exit_code =
          agsc::tools::ParseCommandLine(flags, argc, argv, std::cerr)) {
    return *exit_code;
  }
  if (connect.empty()) return PipeMain(worker_id, incarnation);
  std::string host;
  int port = 0;
  std::string parse_error;
  if (!agsc::util::ParseHostPort(connect, &host, &port, &parse_error)) {
    std::fprintf(stderr, "agsc_worker: bad --connect address: %s\n",
                 parse_error.c_str());
    return agsc::util::kExitUsage;
  }
  if (port == 0) {
    std::fprintf(stderr,
                 "agsc_worker: bad --connect address '%s': port 0 is "
                 "listen-only (kernel-picked); connecting needs the "
                 "trainer's actual port\n",
                 connect.c_str());
    return agsc::util::kExitUsage;
  }
  return ConnectMain(host, port, worker_id, connect_timeout_ms,
                     connect_retries);
}
