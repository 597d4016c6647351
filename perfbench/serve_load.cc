// serve_tcp: an in-process DispatchServer + ServeFrontend driven over
// loopback by at most four ServeClient connections.
//
//  1. Open loop: requests are due at a fixed absolute rate (ServeLoad, read
//     from perfbench/workloads.json — never calibrated against the code
//     under test), a seeded mix of stateless Act on pre-generated
//     observations and StepSession. Latency is timed from each request's
//     due time, so a stalled generator or server charges the wait to every
//     request behind it; a refused, expired or errored request (a failed
//     operation: ServeLoad::deadline_ms is set so that a correct server
//     has none) is charged at least the deadline. Replies later than the
//     10 ms latency limit are counted, not failed.
//  2. Closed loop: every connection keeps `window` pipelined requests in
//     flight; served replies per second is the capacity.
//  3. Traced runs only: the open-loop schedule again, submitted straight to
//     the DispatchServer without TCP, to split latency into dispatch and
//     frontend.
// Every served Act reply is checked bit-for-bit against
// PolicySnapshot::Act on the same observation.

#include <algorithm>
#include <array>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <future>
#include <mutex>
#include <thread>

#include "core/dispatch_server.h"
#include "core/policy_snapshot.h"
#include "core/serve_protocol.h"
#include "harness.h"
#include "util/rng.h"

namespace perfbench {

using agsc::core::DispatchConfig;
using agsc::core::DispatchResult;
using agsc::core::DispatchServer;
using agsc::core::PolicySnapshot;
using agsc::core::ServeClient;
using agsc::core::ServeFrontend;

namespace {

/// Set-up repetitions: kSetupReps before the load, kLateSetupReps after it
/// (the measured rig stopped first); setup_s is their median.
constexpr int kSetupReps = 3;
constexpr int kLateSetupReps = 2;
constexpr int kObservations = 256;  ///< Pre-generated Act inputs.
constexpr long kIoTimeoutMs = 5000;
/// serve_p99_ms is the median over consecutive windows of this many
/// scheduled requests of each window's p99 (ten samples beyond it), so a
/// single multi-millisecond host stall moves one window, not the result.
constexpr size_t kP99Window = 1000;
/// serve_capacity_rps is the median of served replies per window of
/// this length in the closed loop.
constexpr double kCapacityWindowS = 0.1;

/// One scheduled request of the open-loop mix.
struct Planned {
  bool step = false;
  int obs = 0;      ///< Act: index into the pre-generated observations.
  int session = 0;  ///< Step: session id.
};

/// Pre-generated inputs and the reference action of every observation.
struct Inputs {
  std::vector<std::vector<float>> obs;
  std::vector<int> agent;
  std::vector<std::array<float, 2>> expected;
};

struct Counts {
  uint64_t ok = 0, rejected = 0, expired = 0, errored = 0;
  uint64_t act_checked = 0, act_mismatch = 0;

  void Add(const Counts& o) {
    ok += o.ok;
    rejected += o.rejected;
    expired += o.expired;
    errored += o.errored;
    act_checked += o.act_checked;
    act_mismatch += o.act_mismatch;
  }
  uint64_t total() const { return ok + rejected + expired + errored; }
  uint64_t failed() const { return rejected + expired + errored; }
};

struct Rig {
  TrainerRig trainer;
  std::shared_ptr<PolicySnapshot> snapshot;
  std::unique_ptr<DispatchServer> server;
  std::unique_ptr<ServeFrontend> frontend;
  std::vector<std::unique_ptr<ServeClient>> clients;

  ~Rig() {
    clients.clear();
    if (frontend) frontend->Stop();
    if (server) server->Stop();
  }
};

std::unique_ptr<Rig> BuildRig(const Options& opts) {
  auto rig = std::make_unique<Rig>();
  rig->trainer = MakeTrainerRig(opts.scale, opts.seed,
                                MakeTrainConfig(opts.scale, opts.seed));
  rig->snapshot = PolicySnapshot::FromTrainer(*rig->trainer.trainer, "<live>");
  DispatchConfig config;
  config.num_sessions = opts.serve.sessions;
  config.max_batch = opts.serve.max_batch;
  config.deadline_ms = opts.serve.deadline_ms;
  config.seed = opts.seed;
  rig->server = std::make_unique<DispatchServer>(*rig->trainer.env, config);
  rig->server->PublishSnapshot(rig->snapshot);
  rig->server->Start();
  ServeFrontend::Options fopts;
  fopts.listen_address = "127.0.0.1:0";
  rig->frontend = std::make_unique<ServeFrontend>(*rig->server, fopts);
  rig->frontend->Start();
  const int connections =
      std::max(opts.serve.open_connections, opts.serve.closed_connections);
  for (int c = 0; c < connections; ++c) {
    auto client = std::make_unique<ServeClient>();
    std::string error;
    if (!client->Connect("127.0.0.1", rig->frontend->bound_port(),
                         kIoTimeoutMs, &error)) {
      throw std::runtime_error("serve_tcp: connect failed: " + error);
    }
    rig->clients.push_back(std::move(client));
  }
  return rig;
}

/// Observations from a replica stepped with seeded random actions.
Inputs MakeInputs(const Rig& rig, uint64_t seed) {
  Inputs in;
  agsc::env::ScEnv env = *rig.trainer.env;
  agsc::util::Rng rng(seed * 0x9E3779B97F4A7C15ULL + 7);
  agsc::env::StepResult step = env.Reset();
  std::vector<agsc::env::UvAction> actions(env.num_agents());
  while (static_cast<int>(in.obs.size()) < kObservations) {
    for (int k = 0; k < env.num_agents(); ++k) {
      in.obs.push_back(step.observations[static_cast<size_t>(k)]);
      in.agent.push_back(k);
      actions[static_cast<size_t>(k)] = {rng.Uniform(-1.0, 1.0),
                                         rng.Uniform(-1.0, 1.0)};
    }
    step = step.done ? env.Reset() : env.Step(actions);
  }
  for (size_t i = 0; i < in.obs.size(); ++i) {
    in.expected.push_back(rig.snapshot->Act(in.agent[i], in.obs[i]));
  }
  return in;
}

std::vector<Planned> MakePlan(const Options& opts, size_t count,
                              uint64_t stream) {
  agsc::util::Rng rng(opts.seed * 0xD1B54A32D192ED03ULL + stream);
  std::vector<Planned> plan(count);
  for (Planned& p : plan) {
    p.step = rng.Uniform() < opts.serve.step_share;
    p.obs = static_cast<int>(rng.UniformInt(uint64_t{kObservations}));
    p.session = static_cast<int>(
        rng.UniformInt(static_cast<uint64_t>(opts.serve.sessions)));
  }
  return plan;
}

/// Classifies one reply; Act replies are checked against the reference.
void Tally(const DispatchResult& r, const Planned& p, const Inputs& in,
           Counts& counts) {
  if (r.ok) {
    ++counts.ok;
    if (!p.step) {
      ++counts.act_checked;
      const std::array<float, 2>& want =
          in.expected[static_cast<size_t>(p.obs)];
      if (std::memcmp(want.data(), r.action.data(), sizeof(want)) != 0) {
        ++counts.act_mismatch;
      }
    }
  } else if (r.rejected) {
    ++counts.rejected;
  } else if (r.expired) {
    ++counts.expired;
  } else {
    ++counts.errored;
  }
}

/// Latencies of one open-loop phase; failed requests are charged at least
/// the deadline (they missed the limit).
struct OpenLoopResult {
  std::vector<double> latency_ms;
  std::vector<double> late_ms;  ///< Generator lateness per request.
  std::vector<uint64_t> queue_depth;
  Counts counts;
  uint64_t scheduled = 0;
  double seconds = 0.0;
};

/// Pending-request queue from a sender thread to its reader thread.
struct InFlight {
  std::mutex mutex;
  std::condition_variable cv;
  std::deque<std::pair<size_t, Clock::time_point>> queue;  ///< (index, due)
  bool sender_done = false;
};

/// Open loop over TCP, or straight into the DispatchServer (`direct`).
/// Request i goes to connection i % C; each connection has one sender
/// thread (sleeps until the due time, then sends) and one reader thread.
OpenLoopResult RunOpenLoop(const Options& opts, Rig& rig, const Inputs& in,
                           double seconds, bool direct, uint64_t stream) {
  const ServeLoad& load = opts.serve;
  const size_t count =
      static_cast<size_t>(std::max(1.0, load.rate_rps * seconds));
  const std::vector<Planned> plan = MakePlan(opts, count, stream);
  const int conns = load.open_connections;
  const double deadline_ms = static_cast<double>(load.deadline_ms);

  OpenLoopResult out;
  out.scheduled = count;
  out.latency_ms.assign(count, deadline_ms);  // Unanswered = missed limit.
  out.late_ms.assign(count, 0.0);
  std::vector<Counts> counts(static_cast<size_t>(conns));
  std::vector<InFlight> inflight(static_cast<size_t>(conns));
  // Direct mode hands futures from sender to reader alongside the index.
  std::vector<std::deque<std::future<DispatchResult>>> futures(
      static_cast<size_t>(conns));

  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(5);
  auto due = [&](size_t i) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(i / load.rate_rps));
  };
  std::vector<std::thread> threads;
  for (int c = 0; c < conns; ++c) {
    threads.emplace_back([&, c] {  // Sender.
      InFlight& q = inflight[static_cast<size_t>(c)];
      ServeClient& client = *rig.clients[static_cast<size_t>(c)];
      agsc::core::RequestOptions ropts;
      ropts.client = static_cast<uint64_t>(c) + 1;
      bool alive = true;
      for (size_t i = static_cast<size_t>(c); i < count && alive;
           i += static_cast<size_t>(conns)) {
        const Clock::time_point when = due(i);
        std::this_thread::sleep_until(when);
        out.late_ms[i] =
            std::chrono::duration<double, std::milli>(Clock::now() - when)
                .count();
        const Planned& p = plan[i];
        std::future<DispatchResult> fut;
        if (direct) {
          Span span("dispatch.submit", i + 1);
          fut = p.step ? rig.server->StepSessionAsync(p.session, ropts)
                       : rig.server->ActAsync(
                             in.agent[static_cast<size_t>(p.obs)],
                             in.obs[static_cast<size_t>(p.obs)], ropts);
        } else {
          Span span("frontend.send", i + 1);
          alive = p.step ? client.SendStep(p.session, kIoTimeoutMs)
                         : client.SendAct(in.agent[static_cast<size_t>(p.obs)],
                                          in.obs[static_cast<size_t>(p.obs)],
                                          kIoTimeoutMs);
        }
        std::lock_guard<std::mutex> lock(q.mutex);
        if (!alive) break;
        q.queue.emplace_back(i, when);
        if (direct) futures[static_cast<size_t>(c)].push_back(std::move(fut));
        q.cv.notify_one();
      }
      std::lock_guard<std::mutex> lock(q.mutex);
      q.sender_done = true;
      q.cv.notify_one();
    });
    threads.emplace_back([&, c] {  // Reader.
      InFlight& q = inflight[static_cast<size_t>(c)];
      ServeClient& client = *rig.clients[static_cast<size_t>(c)];
      Counts& mine = counts[static_cast<size_t>(c)];
      bool alive = true;
      for (;;) {
        size_t i = 0;
        Clock::time_point when;
        std::future<DispatchResult> fut;
        {
          std::unique_lock<std::mutex> lock(q.mutex);
          q.cv.wait(lock, [&] { return !q.queue.empty() || q.sender_done; });
          if (q.queue.empty()) break;
          std::tie(i, when) = q.queue.front();
          q.queue.pop_front();
          if (direct) {
            fut = std::move(futures[static_cast<size_t>(c)].front());
            futures[static_cast<size_t>(c)].pop_front();
          }
        }
        DispatchResult result;
        if (direct) {
          result = fut.get();
        } else if (alive) {
          Span span("frontend.read", i + 1);
          alive = client.ReadResponse(kIoTimeoutMs, result);
        }
        const Clock::time_point done = Clock::now();
        if (!alive) result = DispatchResult{};  // Counted as errored.
        Tally(result, plan[i], in, mine);
        double ms = std::chrono::duration<double, std::milli>(done - when)
                        .count();
        if (!result.ok) ms = std::max(ms, deadline_ms);
        out.latency_ms[i] = ms;
        Tracer::Get().Record(direct ? "dispatch.request" : "serve.request",
                             when, done, i + 1);
      }
    });
  }
  // Sample queue depth through the health probe while the load runs.
  if (Tracer::Get().enabled()) {
    const Clock::time_point end = due(count);
    while (Clock::now() < end) {
      {
        Span span("dispatch.health");
        out.queue_depth.push_back(rig.server->Health().queue_depth);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  for (std::thread& t : threads) t.join();
  out.seconds = Seconds(Clock::now() - t0);
  for (const Counts& c : counts) out.counts.Add(c);
  // Requests a dead connection never sent are errored too.
  out.counts.errored += count - out.counts.total();
  return out;
}

/// Median over consecutive kP99Window-request windows (in schedule order)
/// of each window's p99; 0 when not even one window is full.
double WindowedP99(const std::vector<double>& latency_ms) {
  std::vector<double> p99s;
  for (size_t lo = 0; lo + kP99Window <= latency_ms.size(); lo += kP99Window) {
    p99s.push_back(Quantile(
        std::vector<double>(latency_ms.begin() + static_cast<long>(lo),
                            latency_ms.begin() +
                                static_cast<long>(lo + kP99Window)),
        0.99));
  }
  return Median(p99s);
}

/// Closed loop: every connection keeps `window` requests in flight for
/// `seconds`; returns the median over kCapacityWindowS windows of served
/// replies per second.
double RunClosedLoop(const Options& opts, Rig& rig, const Inputs& in,
                     double seconds, Counts& total) {
  const ServeLoad& load = opts.serve;
  const int conns = load.closed_connections;
  const size_t windows =
      std::max<size_t>(1, static_cast<size_t>(seconds / kCapacityWindowS));
  std::vector<Counts> counts(static_cast<size_t>(conns));
  std::vector<std::vector<uint64_t>> ok_per_window(
      static_cast<size_t>(conns), std::vector<uint64_t>(windows, 0));
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (int c = 0; c < conns; ++c) {
    threads.emplace_back([&, c] {
      ServeClient& client = *rig.clients[static_cast<size_t>(c)];
      const std::vector<Planned> plan =
          MakePlan(opts, 4096, 1000 + static_cast<uint64_t>(c));
      std::deque<size_t> pending;
      size_t next = 0;
      bool alive = true;
      auto send = [&] {
        const Planned& p = plan[next % plan.size()];
        Span span("frontend.send");
        alive = p.step ? client.SendStep(p.session, kIoTimeoutMs)
                       : client.SendAct(in.agent[static_cast<size_t>(p.obs)],
                                        in.obs[static_cast<size_t>(p.obs)],
                                        kIoTimeoutMs);
        if (alive) pending.push_back(next % plan.size());
        ++next;
      };
      while (alive && static_cast<int>(pending.size()) < load.window) send();
      while (alive && !pending.empty()) {
        DispatchResult result;
        {
          Span span("frontend.read");
          alive = client.ReadResponse(kIoTimeoutMs, result);
        }
        if (!alive) break;
        Tally(result, plan[pending.front()],
              in, counts[static_cast<size_t>(c)]);
        pending.pop_front();
        const Clock::time_point now = Clock::now();
        if (now < end) {
          const size_t wi = std::min(
              windows - 1,
              static_cast<size_t>(Seconds(now - start) / kCapacityWindowS));
          if (result.ok) ++ok_per_window[static_cast<size_t>(c)][wi];
          send();
        }
      }
      counts[static_cast<size_t>(c)].errored += pending.size();
    });
  }
  for (std::thread& t : threads) t.join();
  std::vector<double> rates(windows, 0.0);
  for (int c = 0; c < conns; ++c) {
    total.Add(counts[static_cast<size_t>(c)]);
    for (size_t wi = 0; wi < windows; ++wi) {
      rates[wi] += ok_per_window[static_cast<size_t>(c)][wi] / kCapacityWindowS;
    }
  }
  return Median(rates);
}

}  // namespace

void RunServeFamily(const Options& opts, double budget_s, bool primary,
                    Results& results) {
  Tracer& tracer = Tracer::Get();
  tracer.set_enabled(false);
  std::vector<double> setup_s;
  std::unique_ptr<Rig> rig;
  auto timed_setups = [&](int reps) {
    for (int r = 0; r < reps; ++r) {
      rig.reset();
      const Clock::time_point t0 = Clock::now();
      rig = BuildRig(opts);
      setup_s.push_back(Seconds(Clock::now() - t0));
    }
  };
  timed_setups(primary ? kSetupReps : 1);
  const Inputs in = MakeInputs(*rig, opts.seed);

  // A traced run splits the open-loop budget into an untraced half (the
  // overhead reference) and a traced half, then adds the direct phase.
  // Each open-loop phase fills at least one full p99 window.
  const double min_open_s = (kP99Window + 100.0) / opts.serve.rate_rps;
  const double open_s = 0.65 * budget_s;
  const double closed_s = 0.35 * budget_s;
  auto open_len = [&](double s) { return std::max(s, min_open_s); };
  OpenLoopResult untraced, traced;
  if (!opts.trace || primary) {
    untraced = RunOpenLoop(opts, *rig, in,
                           open_len(opts.trace ? open_s / 2 : open_s),
                           /*direct=*/false, 1);
  }
  agsc::core::DispatchStats open_stats;
  OpenLoopResult direct;
  if (opts.trace) {
    tracer.set_enabled(true);
    traced = RunOpenLoop(opts, *rig, in,
                         open_len(primary ? open_s / 2 : open_s),
                         /*direct=*/false, 2);
    {
      Span span("dispatch.stats");
      open_stats = rig->server->Stats();
    }
    direct = RunOpenLoop(opts, *rig, in, open_len(0.3 * budget_s),
                         /*direct=*/true, 3);
  }
  const OpenLoopResult& open = opts.trace ? traced : untraced;
  Counts closed_counts;
  const double capacity =
      RunClosedLoop(opts, *rig, in, closed_s, closed_counts);
  tracer.set_enabled(false);

  const double p50 = Quantile(open.latency_ms, 0.5);
  const double p99 = WindowedP99(open.latency_ms);
  if (primary) {
    results.Metric("peak_rss_mb", PeakRssMb(), "MB");
    timed_setups(kLateSetupReps);
    rig.reset();
    results.Metric("setup_s", Median(setup_s), "s");
  }
  results.Metric("serve_p50_ms", p50, "ms");
  results.Metric("serve_p99_ms", p99, "ms");
  results.Metric("serve_capacity_rps", capacity, "1/s");

  Counts all = untraced.counts;
  all.Add(traced.counts);
  all.Add(direct.counts);
  all.Add(closed_counts);
  results.Attempt(all.total(), all.failed());
  const Counts& oc = open.counts;
  results.Info("serve.offered_rps", opts.serve.rate_rps);
  results.Info("serve.scheduled", static_cast<double>(open.scheduled));
  results.Info("serve.ok", static_cast<double>(oc.ok));
  results.Info("serve.rejected", static_cast<double>(oc.rejected));
  results.Info("serve.expired", static_cast<double>(oc.expired));
  results.Info("serve.errored", static_cast<double>(oc.errored));
  results.Info("serve.missed_limit",
               static_cast<double>(std::count_if(
                   open.latency_ms.begin(), open.latency_ms.end(),
                   [&](double ms) { return ms > opts.serve.limit_ms; })));
  results.Info("serve.gen_late_p99_ms", Quantile(open.late_ms, 0.99));
  results.Info("serve.pooled_p99_ms", Quantile(open.latency_ms, 0.99));
  results.Info("serve.act_replies_checked",
               static_cast<double>(all.act_checked));

  // Generator hygiene and correctness.
  results.Check("serve.counts_add_up",
                oc.total() == open.scheduled &&
                    open.latency_ms.size() == open.scheduled,
                "ok+rejected+expired+errored != scheduled");
  // p99 needs at least ten samples beyond it.
  results.Check("serve.p99_support", open.scheduled >= kP99Window,
                std::to_string(open.scheduled) + " samples < " +
                    std::to_string(kP99Window));
  results.Check("serve.act_bit_equal",
                all.act_checked > 0 && all.act_mismatch == 0,
                std::to_string(all.act_mismatch) + " of " +
                    std::to_string(all.act_checked) +
                    " Act replies differ from PolicySnapshot::Act");

  if (opts.trace) {
    const auto& s = open_stats;
    results.Metric("serve.gen_late_ms", Quantile(open.late_ms, 0.99), "ms");
    results.Metric("serve.pooled_p99_ms", Quantile(open.latency_ms, 0.99),
                   "ms");
    results.Metric("serve.sent", static_cast<double>(open.scheduled), "count");
    results.Metric("serve.ok", static_cast<double>(oc.ok), "count");
    results.Metric("serve.rejected", static_cast<double>(oc.rejected), "count");
    results.Metric("serve.expired", static_cast<double>(oc.expired), "count");
    results.Metric("serve.errored", static_cast<double>(oc.errored), "count");
    results.Metric("dispatch.submit_us",
                   Median(tracer.Durations("dispatch.submit")), "us");
    results.Metric("dispatch.batch_ms", s.ewma_batch_ms, "ms");
    results.Metric("dispatch.rows_per_batch",
                   s.batches > 0 ? static_cast<double>(s.rows) / s.batches
                                 : 0.0,
                   "count");
    const double samples = static_cast<double>(open.queue_depth.size());
    double depth_sum = 0.0;
    for (uint64_t d : open.queue_depth) depth_sum += static_cast<double>(d);
    results.Metric("dispatch.queue_depth",
                   samples > 0 ? depth_sum / samples : 0.0, "count");
    results.Metric("dispatch.rejected.queue_full",
                   static_cast<double>(s.rejected_queue_full), "count");
    results.Metric("dispatch.rejected.client_cap",
                   static_cast<double>(s.rejected_client_cap), "count");
    results.Metric("dispatch.rejected.deadline",
                   static_cast<double>(s.rejected_deadline), "count");
    results.Metric("dispatch.rejected.shed",
                   static_cast<double>(s.requests_shed), "count");
    results.Metric("dispatch.expired", static_cast<double>(s.requests_expired),
                   "count");
    const double direct_p50 = Quantile(direct.latency_ms, 0.5);
    results.Metric("dispatch.act_p50_ms", direct_p50, "ms");
    results.Metric("dispatch.act_p99_ms", Quantile(direct.latency_ms, 0.99),
                   "ms");
    results.Metric("frontend.overhead_ms", p50 - direct_p50, "ms");
    if (primary) {
      const double ref = Quantile(untraced.latency_ms, 0.5);
      results.Metric("trace.overhead_pct", 100.0 * (p50 - ref) / ref, "%");
    }
  }
}

}  // namespace perfbench
