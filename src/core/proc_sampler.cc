#include "core/proc_sampler.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "nn/tensor.h"
#include "util/logging.h"
#include "util/shutdown.h"

namespace agsc::core {

namespace {

long RemainingMs(const std::chrono::steady_clock::time_point& deadline) {
  const auto now = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now)
      .count();
}

}  // namespace

ProcSampler::ProcSampler(env::ScEnv& primary_env, util::Rng& primary_rng,
                         int num_workers, uint64_t seed, Options options)
    : Sampler(primary_rng, num_workers, seed),
      primary_env_(primary_env),
      options_(std::move(options)) {
  if (!remote() && options_.worker_binary.empty()) {
    throw std::invalid_argument("ProcSampler: worker_binary is required");
  }
  set_step_deadline_ms(options_.step_deadline_ms);
  init_.config = primary_env_.config();
  if (!CampusIdFromName(primary_env_.dataset().campus.name, init_.campus)) {
    throw std::invalid_argument(
        "ProcSampler: environment dataset is not a named campus; worker "
        "processes cannot rebuild it");
  }
  // A worker dying between our poll and our write must surface as EPIPE on
  // that worker's pipe, not kill the whole trainer (socket sends are
  // already covered by MSG_NOSIGNAL in FrameWriter).
  util::IgnoreSigpipe();
  if (remote()) {
    std::string host;
    int port = 0;
    std::string parse_error;
    if (!util::ParseHostPort(options_.listen_address, &host, &port,
                             &parse_error)) {
      throw util::NetError("ProcSampler: bad listen address: " + parse_error);
    }
    std::string error;
    if (!listener_.Listen(host, port, &error)) {
      throw util::NetError("ProcSampler: cannot listen on '" +
                           options_.listen_address + "': " + error);
    }
    AGSC_LOG(kInfo) << "proc sampler: listening for " << num_workers
                    << " remote worker(s) on " << host << ":"
                    << listener_.bound_port();
  }

  const util::Rng base(seed);
  for (int w = 1; w < num_workers; ++w) {
    env_mirrors_.push_back(base.Split(EnvStreamId(w)));
  }
  workers_.resize(static_cast<size_t>(num_workers));
  consecutive_failures_.assign(static_cast<size_t>(num_workers), 0);
}

ProcSampler::~ProcSampler() {
  for (size_t w = 0; w < workers_.size(); ++w) {
    Worker& wk = workers_[w];
    if (wk.connected && wk.writer) {
      // Bounded: a wedged peer must not block the trainer's destructor.
      wk.writer->Write(kMsgShutdown, wk.out_seq++, std::string(),
                       /*timeout_ms=*/500);
      if (!remote()) {
        wk.proc.CloseStdin();
        wk.proc.Wait(nullptr, 500);
      }
    }
    if (wk.fd >= 0) {
      ::close(wk.fd);
      wk.fd = -1;
    }
    wk.proc.Reap();
  }
  for (auto& [id, pending] : parked_) {
    if (pending.fd >= 0) ::close(pending.fd);
  }
}

void ProcSampler::ResetTransport(Worker& wk) {
  if (wk.fd >= 0) {
    // Shutdown first: a straggler blocked mid-write on the far side must
    // observe the teardown immediately, and close alone can linger while
    // unread data sits in flight. The worker process survives (unlike a
    // local SIGKILL) and re-registers.
    ::shutdown(wk.fd, SHUT_RDWR);
    ::close(wk.fd);
    wk.fd = -1;
  }
  wk.proc.Reap();
  wk.reader.reset();
  wk.writer.reset();
  wk.out_seq = 0;
  wk.connected = false;
  wk.has_policy = false;
}

void ProcSampler::CutOff(Worker& wk) {
  if (remote()) {
    if (wk.fd >= 0) ::shutdown(wk.fd, SHUT_RDWR);
  } else {
    wk.proc.Kill(SIGKILL);
  }
}

bool ProcSampler::SpawnLocal(int w) {
  Worker& wk = workers_[static_cast<size_t>(w)];
  const std::vector<std::string> argv = {
      options_.worker_binary,
      "--worker-id", std::to_string(w),
      "--incarnation", std::to_string(wk.incarnation)};
  if (!wk.proc.Start(argv)) return false;
  if (options_.send_buffer_bytes > 0) {
    // Test hook: a tiny pipe makes the policy frame exceed the kernel
    // buffer, so a worker that stops draining trips the bounded
    // write instead of hiding behind buffering. Kernel clamps to >= 1 page.
    ::fcntl(wk.proc.stdin_fd(), F_SETPIPE_SZ, options_.send_buffer_bytes);
  }
  wk.reader = std::make_unique<util::FrameReader>(wk.proc.stdout_fd());
  wk.writer = std::make_unique<util::FrameWriter>(wk.proc.stdin_fd());
  return true;
}

bool ProcSampler::AttachRemote(int w) {
  Worker& wk = workers_[static_cast<size_t>(w)];
  const auto take = [&](PendingConn&& conn) {
    wk.fd = conn.fd;
    wk.reader = std::move(conn.reader);
    wk.writer = std::make_unique<util::FrameWriter>(wk.fd);
  };
  const auto parked = parked_.find(w);
  if (parked != parked_.end()) {
    take(std::move(parked->second));
    parked_.erase(parked);
    return true;
  }
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(options_.handshake_timeout_ms);
  for (;;) {
    const long remaining = std::max(0L, RemainingMs(deadline));
    const int fd = listener_.Accept(remaining);
    if (fd == -1) return false;  // Handshake budget exhausted.
    if (fd < 0) {
      AGSC_LOG(kWarning) << "proc sampler: accept failed";
      return false;
    }
    if (options_.send_buffer_bytes > 0) {
      ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &options_.send_buffer_bytes,
                   sizeof(options_.send_buffer_bytes));
    }
    PendingConn conn;
    conn.fd = fd;
    conn.reader = std::make_unique<util::FrameReader>(fd);
    util::Frame frame;
    const util::IpcStatus status = conn.reader->Read(frame, 5000);
    WorkerRegister reg;
    if (status != util::IpcStatus::kOk || frame.type != kMsgRegister ||
        !DecodeWorkerRegister(frame.payload, reg) ||
        reg.protocol_version != kWorkerProtocolVersion ||
        reg.worker_id < 0 || reg.worker_id >= num_workers_) {
      AGSC_LOG(kWarning) << "proc sampler: rejected a connection with a bad "
                            "registration ("
                         << util::IpcStatusName(status) << ")";
      ::close(fd);
      continue;
    }
    if (reg.worker_id == w) {
      take(std::move(conn));
      return true;
    }
    // Another slot registered first; park it (latest registration wins —
    // an older parked fd is a dead predecessor connection).
    PendingConn& slot = parked_[reg.worker_id];
    if (slot.fd >= 0) ::close(slot.fd);
    slot = std::move(conn);
  }
}

bool ProcSampler::Handshake(int w) {
  Worker& wk = workers_[static_cast<size_t>(w)];
  if (wk.writer->Write(kMsgInit, wk.out_seq++, EncodeWorkerInit(init_),
                       options_.handshake_timeout_ms) !=
      util::IpcStatus::kOk) {
    ResetTransport(wk);
    return false;
  }
  util::Frame frame;
  // Generous deadline: a worker that cannot say hello within a minute is
  // broken, not slow (the env rebuild takes well under that).
  const util::IpcStatus status =
      wk.reader->Read(frame, options_.handshake_timeout_ms);
  WorkerHello hello;
  if (status != util::IpcStatus::kOk || frame.type != kMsgHello ||
      !DecodeWorkerHello(frame.payload, hello) ||
      hello.protocol_version != kWorkerProtocolVersion ||
      hello.worker_id != w ||
      hello.num_agents != primary_env_.num_agents() ||
      hello.obs_dim != primary_env_.obs_dim() ||
      hello.state_dim != primary_env_.state_dim()) {
    AGSC_LOG(kWarning) << "proc sampler: worker " << w
                       << " handshake failed ("
                       << util::IpcStatusName(status) << ")";
    ResetTransport(wk);
    return false;
  }
  wk.connected = true;
  return true;
}

void ProcSampler::SpawnWorker(int w) {
  Worker& wk = workers_[static_cast<size_t>(w)];
  const bool up = util::RetryWithBackoff(options_.respawn_backoff, [&] {
    ResetTransport(wk);
    ++wk.incarnation;
    if (remote() ? !AttachRemote(w) : !SpawnLocal(w)) return false;
    return Handshake(w);
  });
  if (!up) {
    std::ostringstream msg;
    if (remote()) {
      msg << "proc sampler: no remote worker registered for slot " << w
          << " on " << options_.listen_address << " (bound port "
          << listener_.bound_port() << ") within "
          << options_.respawn_backoff.max_attempts << " attempts";
    } else {
      msg << "proc sampler: worker " << w << " (" << options_.worker_binary
          << ") failed to spawn and handshake after "
          << options_.respawn_backoff.max_attempts << " attempts";
    }
    throw ProcWorkerError(msg.str());
  }
}

void ProcSampler::FailWorker(int w, const std::string& why) {
  Worker& wk = workers_[static_cast<size_t>(w)];
  AGSC_LOG(kWarning) << "proc sampler: worker " << w << " failed (" << why
                     << "); " << (remote() ? "dropping the connection"
                                           : "killing and respawning")
                     << " and re-running its episode";
  ResetTransport(wk);
  ++lifetime_respawns_;
  if (++collect_respawns_ > options_.max_respawns) {
    std::ostringstream msg;
    msg << "proc sampler: worker " << w << " failed (" << why
        << ") and the respawn budget (" << options_.max_respawns
        << " per collect) is exhausted";
    throw ProcWorkerError(msg.str());
  }
  const int failures = ++consecutive_failures_[static_cast<size_t>(w)];
  const double backoff_ms = options_.respawn_backoff.BackoffMs(
      std::min(failures + 1, options_.respawn_backoff.max_attempts));
  if (backoff_ms > 0) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(static_cast<long>(backoff_ms)));
  }
}

bool ProcSampler::Send(int w, uint32_t type, const std::string& payload) {
  Worker& wk = workers_[static_cast<size_t>(w)];
  // Bounded like every read: a peer that stops draining its pipe or socket
  // must not wedge the trainer (the policy frame can outgrow the kernel
  // buffer). Any failure leaves the worker disconnected, so the next read
  // restarts it instead of waiting for a reply that cannot come.
  const util::IpcStatus status = wk.writer->Write(
      type, wk.out_seq++, payload,
      step_deadline_ms_ > 0 ? step_deadline_ms_ : -1);
  if (status == util::IpcStatus::kOk) return true;
  AGSC_LOG(kWarning) << "proc sampler: worker " << w << " frame write failed ("
                     << util::IpcStatusName(status) << ")";
  if (status == util::IpcStatus::kTimeout) CutOff(wk);
  wk.connected = false;
  return false;
}

void ProcSampler::StartEpisode(int w) {
  Worker& wk = workers_[static_cast<size_t>(w)];
  if (!wk.connected) SpawnWorker(w);
  if (!wk.has_policy) {
    if (!Send(w, kMsgPolicy, policy_)) return;
    wk.has_policy = true;
  }
  WorkerEpisode episode;
  episode.flags =
      (primary_env_.config().use_spatial_index ? 0 : kEpisodeNaiveEnv) |
      (primary_env_.config().use_channel_batch ? 0 : kEpisodeScalarChannel) |
      (nn::GetKernelConfig().gemm == nn::GemmKernel::kNaive ? kEpisodeNaiveNn
                                                             : 0);
  episode.env_rng = env_stream(w).SaveState();
  episode.sample_rng = sample_rng(w).SaveState();
  Send(w, kMsgEpisode, EncodeWorkerEpisode(episode));
}

void ProcSampler::Restart(int w, const std::string& why) {
  sinks_[static_cast<size_t>(w)].DropPartial();
  FailWorker(w, why);
  StartEpisode(w);
}

bool ProcSampler::ValidRows(const std::vector<std::vector<float>>& obs,
                            const std::vector<float>& state) const {
  if (obs.size() != static_cast<size_t>(primary_env_.num_agents()) ||
      state.size() != static_cast<size_t>(primary_env_.state_dim())) {
    return false;
  }
  for (const std::vector<float>& row : obs) {
    if (row.size() != static_cast<size_t>(primary_env_.obs_dim())) {
      return false;
    }
  }
  return true;
}

bool ProcSampler::ValidRecord(const StepRecord& record) const {
  if (!ValidRows(record.obs, record.state)) return false;
  for (const auto* lists : {&record.he_neighbors, &record.ho_neighbors}) {
    for (const std::vector<int>& ids : *lists) {
      for (int id : ids) {
        if (id < 0 || id >= primary_env_.num_agents()) return false;
      }
    }
  }
  return true;
}

bool ProcSampler::ReadRecord(int w) {
  Worker& wk = workers_[static_cast<size_t>(w)];
  const MultiAgentBuffer& shard = shards_[static_cast<size_t>(w)];
  BufferSink& sink = sinks_[static_cast<size_t>(w)];
  const size_t open = sink.open_steps();
  const bool after_done = open > 0 && shard.done.back() != 0;
  std::string why = "not connected";
  if (wk.connected) {
    util::Frame frame;
    const util::IpcStatus status = wk.reader->Read(
        frame, step_deadline_ms_ > 0 ? step_deadline_ms_ : -1);
    if (status != util::IpcStatus::kOk) {
      if (status == util::IpcStatus::kTimeout) CutOff(wk);
      why = std::string("read: ") + util::IpcStatusName(status);
    } else if (frame.type == kMsgStepRecord) {
      // At most num_timeslots records, and none after the done one.
      if (DecodeStepRecord(frame.payload, record_) && ValidRecord(record_) &&
          !after_done &&
          open < static_cast<size_t>(primary_env_.config().num_timeslots)) {
        sink.Step(record_);
        consecutive_failures_[static_cast<size_t>(w)] = 0;
        return false;
      }
      why = "malformed step record";
    } else if (frame.type == kMsgEpisodeEnd) {
      EpisodeEnd end;
      if (DecodeEpisodeEnd(frame.payload, end) &&
          ValidRows(end.obs, end.state) && after_done) {
        sink.End(end);
        env_stream(w).LoadState(end.env_rng);
        sample_rng(w).LoadState(end.sample_rng);
        return true;
      }
      why = "malformed episode end";
    } else {
      why = "unexpected frame type " + std::to_string(frame.type);
    }
  }
  Restart(w, why);
  return false;
}

void ProcSampler::Collect(int episodes, const RolloutActors& actors,
                          MultiAgentBuffer& buffer,
                          std::vector<env::Metrics>& metrics) {
  if (episodes <= 0) return;
  collect_respawns_ = 0;
  const std::vector<int> sizes = actors.per_agent.front()->mean_net().sizes();
  init_.actor_hidden.assign(sizes.begin() + 1, sizes.end() - 1);
  init_.share_params = actors.share_params;
  std::vector<const GaussianActor*> nets = actors.per_agent;
  if (actors.share_params) nets.resize(1);
  policy_ = EncodeWorkerPolicy(nets);
  for (Worker& wk : workers_) wk.has_policy = false;

  // Worker shards, merged in worker-index order at the end — the same
  // merge as VecSampler, so the result never depends on worker timing.
  const size_t w_count = static_cast<size_t>(num_workers_);
  sinks_.clear();
  shards_.assign(w_count, MultiAgentBuffer(primary_env_.num_agents()));
  shard_metrics_.assign(w_count, {});
  sinks_.reserve(w_count);
  for (size_t w = 0; w < w_count; ++w) {
    sinks_.emplace_back(shards_[w], shard_metrics_[w]);
  }

  const int rounds = (episodes + num_workers_ - 1) / num_workers_;
  std::vector<int> running;
  try {
    for (int r = 0; r < rounds; ++r) {
      const int active = std::min(num_workers_, episodes - r * num_workers_);
      for (int w = 0; w < active; ++w) {
        running.push_back(w);
        StartEpisode(w);
      }
      // Round-robin, one record per running worker in turn: the workers
      // run concurrently and every read keeps the step deadline.
      while (!running.empty()) {
        for (size_t i = 0; i < running.size();) {
          CheckStop(running[i]);
          if (ReadRecord(running[i])) {
            running.erase(running.begin() + static_cast<long>(i));
          } else {
            ++i;
          }
        }
      }
    }
  } catch (...) {
    // A stop request or an exhausted budget abandons the unfinished
    // episodes with their transports, so a later Collect starts those
    // workers afresh instead of reading their stale records.
    for (int w : running) ResetTransport(workers_[static_cast<size_t>(w)]);
    throw;
  }

  sinks_.clear();
  for (size_t w = 0; w < w_count; ++w) {
    buffer.Append(std::move(shards_[w]));
    metrics.insert(metrics.end(), shard_metrics_[w].begin(),
                   shard_metrics_[w].end());
  }
}

}  // namespace agsc::core
