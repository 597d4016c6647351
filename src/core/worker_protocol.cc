#include "core/worker_protocol.h"

#include "util/ipc.h"

namespace agsc::core {

namespace {

using util::WireReader;
using util::WireWriter;

void PutRngState(WireWriter& w, const RngState& state) {
  for (uint64_t word : state) w.U64(word);
}

bool GetRngState(WireReader& r, RngState& state) {
  for (uint64_t& word : state) word = r.U64();
  return r.ok();
}

/// Reads a peer-sent entry count. Rejects it above `limit`, or when the
/// unread payload cannot hold `min_entry_bytes` per entry, so a short frame
/// can never make the decoder size a container for entries it never sent.
bool GetCount(WireReader& r, uint32_t limit, size_t min_entry_bytes,
              uint32_t& n) {
  n = r.U32();
  return r.ok() && n <= limit && n <= r.remaining() / min_entry_bytes;
}

// Peer-sent agent counts and layer counts stay below these.
constexpr uint32_t kMaxAgents = 1u << 16;
constexpr uint32_t kMaxHiddenLayers = 64;
constexpr int kMaxLayerWidth = 1 << 16;

// Smallest encodings: an F32Vec/I32Vec is its u64 length; a step record's
// agent is an observation, four f32s and two neighbor lists.
constexpr size_t kMinVecBytes = sizeof(uint64_t);
constexpr size_t kMinRecordAgentBytes = 3 * kMinVecBytes + 4 * sizeof(float);

/// `n` observation rows; the count was bounded by the caller.
bool GetRows(WireReader& r, uint32_t n, std::vector<std::vector<float>>& rows) {
  rows.resize(n);
  for (std::vector<float>& row : rows) {
    if (!r.F32Vec(row)) return false;
  }
  return true;
}

bool GetNeighbors(WireReader& r, uint32_t n,
                  std::vector<std::vector<int>>& lists) {
  lists.resize(n);
  for (std::vector<int>& list : lists) {
    if (!r.I32Vec(list)) return false;
  }
  return true;
}

void PutMetrics(WireWriter& w, const env::Metrics& m) {
  w.F64(m.data_collection_ratio);
  w.F64(m.data_loss_ratio);
  w.F64(m.energy_consumption_ratio);
  w.F64(m.geographical_fairness);
  w.F64(m.efficiency);
}

void GetMetrics(WireReader& r, env::Metrics& m) {
  m.data_collection_ratio = r.F64();
  m.data_loss_ratio = r.F64();
  m.energy_consumption_ratio = r.F64();
  m.geographical_fairness = r.F64();
  m.efficiency = r.F64();
}

}  // namespace

std::string EncodeWorkerInit(const WorkerInit& init) {
  WireWriter w;
  w.U32(kWorkerProtocolVersion);
  w.U32(static_cast<uint32_t>(init.campus));
  const env::EnvConfig& c = init.config;
  // Every EnvConfig field, declaration order. The decoder's Done() check
  // turns any drift between this list and the struct into a loud reject
  // at spawn instead of a silent behavioral divergence.
  w.I32(c.num_timeslots);
  w.F64(c.tau_move);
  w.F64(c.tau_coll);
  w.I32(c.num_pois);
  w.F64(c.initial_data_gbit);
  w.I32(c.num_uavs);
  w.I32(c.num_ugvs);
  w.F64(c.uav_vmax);
  w.F64(c.ugv_vmax);
  w.F64(c.uav_height);
  w.F64(c.uav_energy_kj);
  w.F64(c.ugv_energy_kj);
  w.F64(c.uav_idle_power_w);
  w.F64(c.uav_move_power_w);
  w.F64(c.ugv_idle_power_w);
  w.F64(c.ugv_move_power_w);
  w.I32(c.num_subchannels);
  w.F64(c.bandwidth_hz);
  w.F64(c.noise_psd);
  w.F64(c.alpha1);
  w.F64(c.alpha2);
  w.F64(c.eta_los_db);
  w.F64(c.eta_nlos_db);
  w.F64(c.omega_los);
  w.F64(c.beta_los);
  w.F64(c.rho_uav_w);
  w.F64(c.rho_poi_w);
  w.F64(c.sinr_threshold_db);
  w.F64(c.throughput_factor);
  w.U32(static_cast<uint32_t>(c.medium_access));
  w.F64(c.rayleigh_mean_gain);
  w.U32(c.rayleigh_fading ? 1 : 0);
  w.F64(c.omega_coll);
  w.F64(c.omega_move);
  w.F64(c.observe_range_fraction);
  w.F64(c.neighbor_range_fraction);
  w.U32(c.record_event_log ? 1 : 0);
  w.U32(c.use_spatial_index ? 1 : 0);
  w.U32(c.use_channel_batch ? 1 : 0);
  w.U32(c.env_fast_math ? 1 : 0);
  w.U32(init.share_params ? 1 : 0);
  w.U32(static_cast<uint32_t>(init.actor_hidden.size()));
  for (int width : init.actor_hidden) w.I32(width);
  return w.Take();
}

bool DecodeWorkerInit(const std::string& payload, WorkerInit& out) {
  WireReader r(payload);
  if (r.U32() != kWorkerProtocolVersion) return false;
  const uint32_t campus = r.U32();
  if (!r.ok() || campus > static_cast<uint32_t>(map::CampusId::kNcsu)) {
    return false;
  }
  out.campus = static_cast<map::CampusId>(campus);
  env::EnvConfig& c = out.config;
  c.num_timeslots = r.I32();
  c.tau_move = r.F64();
  c.tau_coll = r.F64();
  c.num_pois = r.I32();
  c.initial_data_gbit = r.F64();
  c.num_uavs = r.I32();
  c.num_ugvs = r.I32();
  c.uav_vmax = r.F64();
  c.ugv_vmax = r.F64();
  c.uav_height = r.F64();
  c.uav_energy_kj = r.F64();
  c.ugv_energy_kj = r.F64();
  c.uav_idle_power_w = r.F64();
  c.uav_move_power_w = r.F64();
  c.ugv_idle_power_w = r.F64();
  c.ugv_move_power_w = r.F64();
  c.num_subchannels = r.I32();
  c.bandwidth_hz = r.F64();
  c.noise_psd = r.F64();
  c.alpha1 = r.F64();
  c.alpha2 = r.F64();
  c.eta_los_db = r.F64();
  c.eta_nlos_db = r.F64();
  c.omega_los = r.F64();
  c.beta_los = r.F64();
  c.rho_uav_w = r.F64();
  c.rho_poi_w = r.F64();
  c.sinr_threshold_db = r.F64();
  c.throughput_factor = r.F64();
  const uint32_t medium = r.U32();
  if (!r.ok() || medium > static_cast<uint32_t>(env::MediumAccess::kOfdma)) {
    return false;
  }
  c.medium_access = static_cast<env::MediumAccess>(medium);
  c.rayleigh_mean_gain = r.F64();
  c.rayleigh_fading = r.U32() != 0;
  c.omega_coll = r.F64();
  c.omega_move = r.F64();
  c.observe_range_fraction = r.F64();
  c.neighbor_range_fraction = r.F64();
  c.record_event_log = r.U32() != 0;
  c.use_spatial_index = r.U32() != 0;
  c.use_channel_batch = r.U32() != 0;
  c.env_fast_math = r.U32() != 0;
  out.share_params = r.U32() != 0;
  uint32_t layers = 0;
  if (!GetCount(r, kMaxHiddenLayers, sizeof(int32_t), layers)) return false;
  out.actor_hidden.resize(layers);
  for (int& width : out.actor_hidden) {
    width = r.I32();
    if (width < 1 || width > kMaxLayerWidth) return false;
  }
  return r.Done();
}

std::string EncodeWorkerRegister(const WorkerRegister& reg) {
  WireWriter w;
  w.U32(reg.protocol_version);
  w.I32(reg.worker_id);
  w.I32(reg.connect_seq);
  return w.Take();
}

bool DecodeWorkerRegister(const std::string& payload, WorkerRegister& out) {
  WireReader r(payload);
  out.protocol_version = r.U32();
  out.worker_id = r.I32();
  out.connect_seq = r.I32();
  return r.Done();
}

std::string EncodeWorkerHello(const WorkerHello& hello) {
  WireWriter w;
  w.U32(hello.protocol_version);
  w.I32(hello.worker_id);
  w.I32(hello.num_agents);
  w.I32(hello.obs_dim);
  w.I32(hello.state_dim);
  return w.Take();
}

bool DecodeWorkerHello(const std::string& payload, WorkerHello& out) {
  WireReader r(payload);
  out.protocol_version = r.U32();
  out.worker_id = r.I32();
  out.num_agents = r.I32();
  out.obs_dim = r.I32();
  out.state_dim = r.I32();
  return r.Done();
}

std::vector<GaussianActor> BuildWorkerActors(const WorkerInit& init,
                                             int num_agents, int obs_dim) {
  NetConfig net;
  net.hidden = init.actor_hidden;
  const int input_dim = obs_dim + (init.share_params ? num_agents : 0);
  const int count = init.share_params ? 1 : num_agents;
  // The initial weights are overwritten by the first kMsgPolicy.
  util::Rng rng(0);
  std::vector<GaussianActor> actors;
  actors.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    actors.emplace_back(input_dim, env::ScEnv::kActionDim, net, rng);
  }
  return actors;
}

std::string EncodeWorkerPolicy(const std::vector<const GaussianActor*>& nets) {
  WireWriter w;
  w.U32(static_cast<uint32_t>(nets.size()));
  for (const GaussianActor* net : nets) {
    const std::vector<nn::Variable> params = net->Parameters();
    w.U32(static_cast<uint32_t>(params.size()));
    for (const nn::Variable& p : params) {
      w.I32(p.rows());
      w.I32(p.cols());
      for (int i = 0; i < p.value().size(); ++i) w.F32(p.value()[i]);
    }
  }
  return w.Take();
}

bool DecodeWorkerPolicy(const std::string& payload,
                        const std::vector<GaussianActor*>& nets) {
  // The exact size the Init architecture implies, checked before anything
  // is read: a frame claiming more networks, tensors or floats than the
  // worker built is rejected from its length alone.
  std::vector<std::vector<nn::Variable>> params;
  size_t expected = sizeof(uint32_t);
  for (const GaussianActor* net : nets) {
    params.push_back(net->Parameters());
    expected += sizeof(uint32_t);
    for (const nn::Variable& p : params.back()) {
      expected += 2 * sizeof(int32_t) +
                  static_cast<size_t>(p.value().size()) * sizeof(float);
    }
  }
  if (payload.size() != expected) return false;
  // Two walks: the first only checks every count and shape, so a rejected
  // frame leaves the networks untouched.
  const auto walk = [&](bool write) {
    WireReader r(payload);
    if (r.U32() != params.size()) return false;
    for (std::vector<nn::Variable>& net_params : params) {
      if (r.U32() != net_params.size()) return false;
      for (nn::Variable& p : net_params) {
        if (r.I32() != p.rows() || r.I32() != p.cols()) return false;
        nn::Tensor& t = p.mutable_value();
        for (int i = 0; i < t.size(); ++i) {
          const float v = r.F32();
          if (write) t[i] = v;
        }
      }
    }
    return r.Done();
  };
  return walk(false) && walk(true);
}

std::string EncodeWorkerEpisode(const WorkerEpisode& episode) {
  WireWriter w;
  w.U32(episode.flags);
  PutRngState(w, episode.env_rng);
  PutRngState(w, episode.sample_rng);
  return w.Take();
}

bool DecodeWorkerEpisode(const std::string& payload, WorkerEpisode& out) {
  WireReader r(payload);
  out.flags = r.U32();
  return GetRngState(r, out.env_rng) && GetRngState(r, out.sample_rng) &&
         r.Done();
}

std::string EncodeStepRecord(const StepRecord& record) {
  WireWriter w;
  w.U32(record.done ? 1 : 0);
  w.U32(static_cast<uint32_t>(record.obs.size()));
  for (const std::vector<float>& obs : record.obs) w.F32Vec(obs);
  w.F32Vec(record.state);
  for (size_t k = 0; k < record.obs.size(); ++k) {
    w.F32(record.actions[k][0]);
    w.F32(record.actions[k][1]);
    w.F32(record.logps[k]);
    w.F32(record.rewards[k]);
  }
  for (const std::vector<int>& ids : record.he_neighbors) w.I32Vec(ids);
  for (const std::vector<int>& ids : record.ho_neighbors) w.I32Vec(ids);
  return w.Take();
}

bool DecodeStepRecord(const std::string& payload, StepRecord& out) {
  WireReader r(payload);
  const uint32_t done = r.U32();
  uint32_t n = 0;
  if (!r.ok() || done > 1 ||
      !GetCount(r, kMaxAgents, kMinRecordAgentBytes, n) ||
      !GetRows(r, n, out.obs) || !r.F32Vec(out.state)) {
    return false;
  }
  out.done = done != 0;
  out.actions.resize(n);
  out.logps.resize(n);
  out.rewards.resize(n);
  for (uint32_t k = 0; k < n; ++k) {
    out.actions[k][0] = r.F32();
    out.actions[k][1] = r.F32();
    out.logps[k] = r.F32();
    out.rewards[k] = r.F32();
  }
  return GetNeighbors(r, n, out.he_neighbors) &&
         GetNeighbors(r, n, out.ho_neighbors) && r.Done();
}

std::string EncodeEpisodeEnd(const EpisodeEnd& end) {
  WireWriter w;
  w.U32(static_cast<uint32_t>(end.obs.size()));
  for (const std::vector<float>& obs : end.obs) w.F32Vec(obs);
  w.F32Vec(end.state);
  PutMetrics(w, end.metrics);
  PutRngState(w, end.env_rng);
  PutRngState(w, end.sample_rng);
  return w.Take();
}

bool DecodeEpisodeEnd(const std::string& payload, EpisodeEnd& out) {
  WireReader r(payload);
  uint32_t n = 0;
  if (!GetCount(r, kMaxAgents, kMinVecBytes, n) || !GetRows(r, n, out.obs) ||
      !r.F32Vec(out.state)) {
    return false;
  }
  GetMetrics(r, out.metrics);
  return GetRngState(r, out.env_rng) && GetRngState(r, out.sample_rng) &&
         r.Done();
}

bool CampusIdFromName(const std::string& name, map::CampusId& out) {
  for (map::CampusId id : {map::CampusId::kPurdue, map::CampusId::kNcsu}) {
    if (map::CampusName(id) == name) {
      out = id;
      return true;
    }
  }
  return false;
}

}  // namespace agsc::core
