#ifndef AGSC_CORE_PROC_SAMPLER_H_
#define AGSC_CORE_PROC_SAMPLER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/vec_sampler.h"
#include "core/worker_protocol.h"
#include "env/sc_env.h"
#include "util/ipc.h"
#include "util/net.h"
#include "util/retry.h"
#include "util/rng.h"
#include "util/subprocess.h"

namespace agsc::core {

/// Thrown when a rollout worker subprocess could not be kept alive: the
/// respawn budget (ProcSampler::Options::max_respawns) was exhausted, or a
/// fresh spawn never produced a valid handshake. The trainer maps this to
/// util::kExitWorkerFailed; anything short of it is absorbed invisibly by
/// respawning and re-running the episode.
class ProcWorkerError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Crash-isolated counterpart of VecSampler: N agsc_worker processes, each
/// owning one environment replica and a copy of the actors in its own
/// address space, running whole episodes (RunEpisode) and streaming one
/// checksummed record per step back (core/worker_protocol). Two
/// transports, one protocol:
///  * local (`--proc-workers N`): fork/exec subprocesses over stdin/stdout
///    pipes. A worker that dies, hangs past the step deadline, or emits a
///    damaged frame is SIGKILLed and respawned with bounded backoff.
///  * remote (`--remote-workers N` + Options::listen_address): the sampler
///    listens on TCP (util/net) and `agsc_worker --connect` processes —
///    possibly on other hosts — claim worker slots via kMsgRegister. The
///    SIGKILL-respawn path generalizes to disconnect-reconnect: any fault
///    drops the connection and the worker's next registration resumes the
///    slot.
/// Either way the failed worker's partial episode is dropped and the
/// episode re-run from the same policy and start RNG states, so the final
/// buffers and checkpoints are byte-identical to the fault-free run.
///
/// Bit-exactness contract (pinned by proc_sampler_test and the chaos
/// campaign): `--proc-workers N` and `--remote-workers N` produce rollout
/// buffers, metrics, and checkpoints bit-identical to `--num-workers N`
/// for the same seed. The pieces that make this hold:
///  * the same stream layout and schedule (Sampler); the trainer keeps
///    every worker's streams and mirrors the end states each episode-end
///    record reports, so checkpoints see the same streams in every mode;
///  * the same loop (RunEpisode) over the same parameter bits;
///  * floats cross the wire as raw bit patterns, and results merge in
///    worker-index order, independent of arrival timing.
///
/// The trainer reads the workers' record streams round-robin, one record
/// per active worker in turn, each read bounded by the step deadline.
/// Unlike VecSampler's fail-fast watchdog, a timeout here is recoverable:
/// the straggler owns nothing but its own replica, so it is killed and its
/// episode re-run like any other crash.
class ProcSampler : public Sampler {
 public:
  struct Options {
    /// Path to the agsc_worker binary. Required in local mode; unused when
    /// listen_address is set (remote workers are launched externally).
    std::string worker_binary;
    /// Deadline per record read AND per policy/episode frame write in ms;
    /// 0 = block forever (a hung worker then hangs collection, exactly
    /// like a watchdog-less VecSampler). A bounded write matters as much as a
    /// bounded read: a peer that stops draining its pipe/socket would
    /// otherwise wedge the trainer's send path with no watchdog in front
    /// of it. Settable later via set_step_deadline_ms.
    long step_deadline_ms = 0;
    /// Backoff schedule between respawn/re-attach attempts of the same
    /// worker.
    util::RetryPolicy respawn_backoff;
    /// Total respawns tolerated per Collect() call before giving up with
    /// ProcWorkerError.
    int max_respawns = 8;
    /// Remote mode: "HOST:PORT" to listen on (port 0 = kernel-assigned,
    /// see bound_port()). Empty = local fork/exec mode. The listener is
    /// bound in the constructor (NetError on failure) so callers can
    /// publish the port before workers exist.
    std::string listen_address;
    /// Remote mode: budget for one worker registration + init/hello
    /// handshake (covers a worker's reconnect-after-drop latency too).
    long handshake_timeout_ms = 60000;
    /// Test hook: shrink each worker transport's send buffer to roughly
    /// this many bytes (F_SETPIPE_SZ on pipes, SO_SNDBUF on sockets; the
    /// kernel clamps to a page / doubles respectively). 0 = OS default.
    /// Makes the write-stall fault reachable with a small policy frame.
    int send_buffer_bytes = 0;
  };

  /// `num_workers` and `seed` define the RNG stream layout exactly as in
  /// VecSampler(primary_env, primary_rng, num_workers, seed). Workers are
  /// spawned lazily on first Collect(), so constructing a trainer (for
  /// checkpoint surgery, tests, --iterations 0 runs) costs no processes.
  ProcSampler(env::ScEnv& primary_env, util::Rng& primary_rng,
              int num_workers, uint64_t seed, Options options);
  ~ProcSampler() override;

  /// Sends `actors`' parameters to every worker that runs an episode, then
  /// deals the episodes as VecSampler does. Episodes carry the primary
  /// env's oracle fallbacks and the process's GEMM kernel choice. Throws
  /// ProcWorkerError when the respawn budget runs out.
  void Collect(int episodes, const RolloutActors& actors,
               MultiAgentBuffer& buffer,
               std::vector<env::Metrics>& metrics) override;

  /// The trainer-side mirror of worker `w`'s env stream (0 = the primary
  /// env's); loading into it redirects that worker's next episode.
  util::Rng& env_stream(int w) override {
    return w == 0 ? primary_env_.rng()
                  : env_mirrors_[static_cast<size_t>(w - 1)];
  }

  /// Total worker respawns over this sampler's lifetime (tests/stats).
  int respawn_count() const { return lifetime_respawns_; }

  /// Remote mode only: the TCP port workers must --connect to (resolves a
  /// port-0 listen_address); 0 in local mode.
  int bound_port() const { return listener_.bound_port(); }
  bool remote() const { return !options_.listen_address.empty(); }

 private:
  struct Worker {
    util::Subprocess proc;               ///< Local mode only.
    int fd = -1;                         ///< Remote mode only: the socket.
    std::unique_ptr<util::FrameReader> reader;
    std::unique_ptr<util::FrameWriter> writer;
    uint64_t out_seq = 0;
    int incarnation = -1;  ///< Spawn/attach count - 1; -1 = never spawned.
    bool connected = false;
    bool has_policy = false;  ///< This incarnation holds this Collect's.
  };

  /// A remote worker that registered while we were attaching a different
  /// slot; claimed (fd + reader mid-stream) when its slot spawns.
  struct PendingConn {
    int fd = -1;
    std::unique_ptr<util::FrameReader> reader;
  };

  /// Brings worker `w` up with retry/backoff: fork/exec (local) or claim a
  /// registration (remote), then the kMsgInit/kMsgHello handshake. Throws
  /// ProcWorkerError when the worker cannot be brought up at all.
  void SpawnWorker(int w);
  /// Local: fork/exec + pipe setup. False on failure.
  bool SpawnLocal(int w);
  /// Remote: claim worker w's registration — parked or freshly accepted
  /// within the handshake budget; registrations for other slots are parked
  /// (latest wins). False on timeout/listener failure.
  bool AttachRemote(int w);
  /// kMsgInit -> kMsgHello handshake + dims validation over the already-
  /// attached transport. False (transport torn down) on any mismatch.
  bool Handshake(int w);
  /// Tears down worker w's transport: reap the subprocess (local) or
  /// shutdown+close the socket (remote, the worker sees EOF and
  /// reconnects); resets reader/writer/seq state.
  void ResetTransport(Worker& wk);
  /// ResetTransport + count one respawn against the Collect budget (throws
  /// ProcWorkerError when it is exhausted) + backoff sleep.
  void FailWorker(int w, const std::string& why);
  /// Cuts a straggler off hard, so it cannot write a stale frame into a
  /// successor's conversation: SIGKILL locally, socket shutdown remotely.
  void CutOff(Worker& wk);

  /// Writes one frame to worker w within the step deadline; on failure
  /// the worker is cut off and marked disconnected.
  bool Send(int w, uint32_t type, const std::string& payload);
  /// Starts worker w's next episode from the current stream mirrors:
  /// spawns it if needed, sends the policy if this incarnation has not seen
  /// it this Collect, then the episode frame. Write failures surface as a
  /// failed read.
  void StartEpisode(int w);
  /// Drops worker w's partial episode, fails the worker and starts the
  /// same episode on a fresh incarnation.
  void Restart(int w, const std::string& why);
  /// Reads worker w's next record into its shard. Returns true once the
  /// episode has ended (streams mirrored); false when more records follow.
  /// Any fault restarts the episode and also returns false.
  bool ReadRecord(int w);
  /// Checks decoded observations and state against the env's shapes.
  bool ValidRows(const std::vector<std::vector<float>>& obs,
                 const std::vector<float>& state) const;
  /// ValidRows, plus every neighbor id names an agent.
  bool ValidRecord(const StepRecord& record) const;

  env::ScEnv& primary_env_;
  Options options_;

  util::TcpListener listener_;                    ///< Remote mode only.
  std::unordered_map<int, PendingConn> parked_;   ///< Remote mode only.

  std::vector<util::Rng> env_mirrors_;  ///< Workers 1..W-1.
  std::vector<Worker> workers_;
  std::vector<int> consecutive_failures_;

  WorkerInit init_;  ///< Actor fields refreshed per Collect.
  /// Per-Collect state: the encoded policy, each worker's shard, and the
  /// record being decoded.
  std::string policy_;
  std::vector<MultiAgentBuffer> shards_;
  std::vector<std::vector<env::Metrics>> shard_metrics_;
  std::vector<BufferSink> sinks_;
  StepRecord record_;

  int collect_respawns_ = 0;
  int lifetime_respawns_ = 0;
};

}  // namespace agsc::core

#endif  // AGSC_CORE_PROC_SAMPLER_H_
