#ifndef AGSC_CORE_WORKER_PROTOCOL_H_
#define AGSC_CORE_WORKER_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/policy.h"
#include "core/vec_sampler.h"
#include "env/config.h"
#include "map/campus.h"

namespace agsc::core {

/// Wire protocol between the trainer's ProcSampler and the agsc_worker
/// processes — local subprocesses over stdin/stdout pipes, or remote
/// `agsc_worker --connect` processes over TCP (util/net). Frames are
/// carried by util::FrameWriter/FrameReader (length-prefixed,
/// CRC-checksummed, sequence-numbered); this header owns the message-type
/// registry and the payload codecs.
///
/// Conversation (one per worker, per incarnation/connection):
///   worker  -> trainer  kMsgRegister     remote only: claim a worker slot
///   trainer -> worker   kMsgInit         campus, EnvConfig, actor shape
///   worker  -> trainer  kMsgHello        version + dims echo
///   once per Collect:
///     trainer -> worker kMsgPolicy       the actors' parameter bits
///   repeat per episode:
///     trainer -> worker kMsgEpisode      start RNG states + fallback bits
///     worker  -> trainer kMsgStepRecord  one per env step (RunEpisode)
///     worker  -> trainer kMsgEpisodeEnd  terminal obs, metrics, end RNGs
///   trainer -> worker   kMsgShutdown     clean exit
///
/// The worker runs whole episodes with its own copy of the actors, so the
/// trainer sends nothing per step. An episode frame fully determines the
/// episode (policy + start states), which is also how a crash, stall or
/// drop is recovered: drop the partial episode, respawn or reconnect, and
/// send init, policy and the same episode frame again.
///
/// All floats/doubles travel as raw bit patterns, so a multi-process
/// rollout is bit-identical to the in-process one.

/// v2 added kMsgRegister (remote workers over TCP). v3 appended the
/// EnvConfig channel-path fields to kMsgInit. v4 moved action selection
/// into the worker: kMsgPolicy, kMsgEpisode and the per-step records
/// replace the per-step Step/StepResult exchange and the action replay.
inline constexpr uint32_t kWorkerProtocolVersion = 4;

enum WorkerMsgType : uint32_t {
  kMsgInit = 1,
  kMsgHello = 2,
  kMsgEpisode = 3,
  kMsgShutdown = 5,
  kMsgRegister = 7,
  kMsgPolicy = 8,
  kMsgStepRecord = 9,
  kMsgEpisodeEnd = 10,
};

/// kMsgInit payload: everything a worker needs to rebuild the trainer's
/// environment (map::BuildDataset(campus, pois) + the verbatim EnvConfig)
/// and actors (hidden widths; the input width follows from the env and
/// share_params). RNG states arrive per episode, parameters per Collect.
struct WorkerInit {
  map::CampusId campus = map::CampusId::kPurdue;
  env::EnvConfig config;
  std::vector<int> actor_hidden;
  bool share_params = false;
};

/// kMsgRegister payload: the first frame a remote (`--connect`) worker
/// sends on every fresh TCP connection, claiming its `--worker-id` slot.
/// `connect_seq` counts the worker's connections (0 = first) — the remote
/// analogue of the local incarnation number, and the scope the worker
/// fault campaigns key off. Local pipe workers never send this: their
/// identity is the pipe itself.
struct WorkerRegister {
  uint32_t protocol_version = kWorkerProtocolVersion;
  int32_t worker_id = 0;
  int32_t connect_seq = 0;
};

/// kMsgHello payload: the worker's view of the protocol and the rebuilt
/// env's dimensions; the trainer rejects any mismatch at spawn instead of
/// desynchronizing mid-collect.
struct WorkerHello {
  uint32_t protocol_version = kWorkerProtocolVersion;
  int32_t worker_id = 0;
  int32_t num_agents = 0;
  int32_t obs_dim = 0;
  int32_t state_dim = 0;
};

/// kMsgEpisode payload: the env and sampling streams the episode starts
/// from, and the trainer's sticky oracle fallbacks.
struct WorkerEpisode {
  uint32_t flags = 0;  ///< kEpisode* bits.
  RngState env_rng{};
  RngState sample_rng{};
};

/// Naive linear-scan env (spatial index disabled).
inline constexpr uint32_t kEpisodeNaiveEnv = 1u << 0;
/// Scalar per-link channel path (batched channel kernels disabled).
inline constexpr uint32_t kEpisodeScalarChannel = 1u << 1;
/// Naive reference GEMM kernels.
inline constexpr uint32_t kEpisodeNaiveNn = 1u << 2;

/// The actor networks a worker holds: one per agent, or one under
/// parameter sharing, built from a WorkerInit.
std::vector<GaussianActor> BuildWorkerActors(const WorkerInit& init,
                                             int num_agents, int obs_dim);

std::string EncodeWorkerInit(const WorkerInit& init);
bool DecodeWorkerInit(const std::string& payload, WorkerInit& out);

std::string EncodeWorkerRegister(const WorkerRegister& reg);
bool DecodeWorkerRegister(const std::string& payload, WorkerRegister& out);

std::string EncodeWorkerHello(const WorkerHello& hello);
bool DecodeWorkerHello(const std::string& payload, WorkerHello& out);

/// kMsgPolicy payload: every parameter of `nets`, in Parameters() order,
/// as {rows, cols, raw floats}.
std::string EncodeWorkerPolicy(const std::vector<const GaussianActor*>& nets);
/// Writes the payload's parameters into `nets` in place. Rejects the frame
/// before writing anything unless its size, network count, tensor counts
/// and every shape match `nets` exactly.
bool DecodeWorkerPolicy(const std::string& payload,
                        const std::vector<GaussianActor*>& nets);

std::string EncodeWorkerEpisode(const WorkerEpisode& episode);
bool DecodeWorkerEpisode(const std::string& payload, WorkerEpisode& out);

std::string EncodeStepRecord(const StepRecord& record);
bool DecodeStepRecord(const std::string& payload, StepRecord& out);

std::string EncodeEpisodeEnd(const EpisodeEnd& end);
bool DecodeEpisodeEnd(const std::string& payload, EpisodeEnd& out);

/// Maps a campus display name ("Purdue"/"NCSU") back to its id; false if
/// the name matches no campus. Used to derive the kMsgInit campus from the
/// trainer's live dataset.
bool CampusIdFromName(const std::string& name, map::CampusId& out);

}  // namespace agsc::core

#endif  // AGSC_CORE_WORKER_PROTOCOL_H_
