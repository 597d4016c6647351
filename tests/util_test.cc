#include <unistd.h>

#include <cmath>
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "core/worker_protocol.h"
#include "util/csv.h"
#include "util/env_flags.h"
#include "util/flags.h"
#include "util/ipc.h"
#include "util/parse.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"

namespace agsc::util {
namespace {

TEST(RngTest, DeterministicFromSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += a.NextU64() == b.NextU64();
  EXPECT_LT(equal, 3);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.Uniform(-3.5, 2.5);
    EXPECT_GE(u, -3.5);
    EXPECT_LT(u, 2.5);
  }
}

TEST(RngTest, UniformMeanApproximatesHalf) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.Uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(RngTest, UniformIntCoversRange) {
  Rng rng(13);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.UniformInt(uint64_t{5}));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 4u);
}

TEST(RngTest, UniformIntInclusiveRange) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.UniformInt(int64_t{-2}, int64_t{3});
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 3);
  }
}

TEST(RngTest, UniformIntRejectsZero) {
  Rng rng(1);
  EXPECT_THROW(rng.UniformInt(uint64_t{0}), std::invalid_argument);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(17);
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) stats.Add(rng.Gaussian());
  EXPECT_NEAR(stats.Mean(), 0.0, 0.02);
  EXPECT_NEAR(stats.StdDev(), 1.0, 0.02);
}

TEST(RngTest, GaussianScaled) {
  Rng rng(19);
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) stats.Add(rng.Gaussian(5.0, 2.0));
  EXPECT_NEAR(stats.Mean(), 5.0, 0.05);
  EXPECT_NEAR(stats.StdDev(), 2.0, 0.05);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(23);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, CategoricalFollowsWeights) {
  Rng rng(29);
  std::vector<double> weights = {1.0, 3.0, 6.0};
  std::vector<int> counts(3, 0);
  const int n = 60000;
  for (int i = 0; i < n; ++i) ++counts[rng.Categorical(weights)];
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.1, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.3, 0.015);
  EXPECT_NEAR(counts[2] / static_cast<double>(n), 0.6, 0.015);
}

TEST(RngTest, CategoricalRejectsBadWeights) {
  Rng rng(1);
  EXPECT_THROW(rng.Categorical({0.0, 0.0}), std::invalid_argument);
  EXPECT_THROW(rng.Categorical({1.0, -1.0}), std::invalid_argument);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(31);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> orig = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(RngTest, ForkIsIndependent) {
  Rng a(37);
  Rng child = a.Fork();
  // Child does not replay the parent stream.
  EXPECT_NE(child.NextU64(), a.NextU64());
}

TEST(StatsTest, WelfordMatchesDirect) {
  RunningStats s;
  std::vector<double> xs = {1.0, 2.0, 4.0, 8.0, 16.0};
  s.AddAll(xs);
  EXPECT_EQ(s.count(), 5u);
  EXPECT_DOUBLE_EQ(s.Mean(), 6.2);
  double var = 0.0;
  for (double x : xs) var += (x - 6.2) * (x - 6.2);
  var /= 4.0;
  EXPECT_NEAR(s.Variance(), var, 1e-12);
  EXPECT_DOUBLE_EQ(s.Min(), 1.0);
  EXPECT_DOUBLE_EQ(s.Max(), 16.0);
  EXPECT_NEAR(s.Sum(), 31.0, 1e-12);
}

TEST(StatsTest, EmptyDefaults) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.Mean(), 0.0);
  EXPECT_EQ(s.Variance(), 0.0);
  EXPECT_TRUE(std::isinf(s.Min()));
}

TEST(StatsTest, MergeEqualsCombined) {
  RunningStats a, b, all;
  Rng rng(41);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.Gaussian(3.0, 2.0);
    (i % 2 == 0 ? a : b).Add(x);
    all.Add(x);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.Mean(), all.Mean(), 1e-9);
  EXPECT_NEAR(a.Variance(), all.Variance(), 1e-9);
  EXPECT_EQ(a.Min(), all.Min());
  EXPECT_EQ(a.Max(), all.Max());
}

TEST(StatsTest, MergePropertyRandomPartitions) {
  // Property: for ANY partition of a sample into shards, merging the
  // per-shard accumulators (in any association order) must agree with
  // sequential accumulation of the whole sample. This is the contract the
  // parallel rollout workers rely on when they fold per-worker statistics.
  Rng rng(4242);
  for (int trial = 0; trial < 20; ++trial) {
    const int n = 1 + static_cast<int>(rng.UniformInt(uint64_t{400}));
    const int shards = 1 + static_cast<int>(rng.UniformInt(uint64_t{8}));
    std::vector<double> xs(static_cast<size_t>(n));
    for (auto& x : xs) x = rng.Gaussian(rng.Uniform(-5.0, 5.0), 3.0);

    RunningStats sequential;
    sequential.AddAll(xs);

    // Random shard assignment (some shards may stay empty).
    std::vector<RunningStats> parts(static_cast<size_t>(shards));
    for (double x : xs) parts[rng.UniformInt(static_cast<uint64_t>(shards))]
        .Add(x);

    // Linear (left fold) merge.
    RunningStats linear;
    for (const auto& p : parts) linear.Merge(p);
    // Pairwise (tree) merge, a different association order.
    std::vector<RunningStats> tree = parts;
    while (tree.size() > 1) {
      std::vector<RunningStats> next;
      for (size_t i = 0; i < tree.size(); i += 2) {
        RunningStats m = tree[i];
        if (i + 1 < tree.size()) m.Merge(tree[i + 1]);
        next.push_back(m);
      }
      tree.swap(next);
    }

    for (const RunningStats* merged : {&linear, &tree[0]}) {
      EXPECT_EQ(merged->count(), sequential.count());
      EXPECT_DOUBLE_EQ(merged->Min(), sequential.Min());
      EXPECT_DOUBLE_EQ(merged->Max(), sequential.Max());
      EXPECT_NEAR(merged->Mean(), sequential.Mean(), 1e-10);
      EXPECT_NEAR(merged->Variance(), sequential.Variance(), 1e-8);
      EXPECT_NEAR(merged->Sum(), sequential.Sum(), 1e-8);
    }
  }
}

TEST(StatsTest, MergeWithEmptyIsIdentityBothWays) {
  RunningStats a;
  a.AddAll({1.0, 2.0, 3.0});
  RunningStats empty;
  RunningStats left = a;
  left.Merge(empty);
  EXPECT_EQ(left.count(), 3u);
  EXPECT_DOUBLE_EQ(left.Mean(), a.Mean());
  EXPECT_DOUBLE_EQ(left.Variance(), a.Variance());
  EXPECT_DOUBLE_EQ(left.Min(), 1.0);
  EXPECT_DOUBLE_EQ(left.Max(), 3.0);
  RunningStats right;
  right.Merge(a);
  EXPECT_EQ(right.count(), 3u);
  EXPECT_DOUBLE_EQ(right.Mean(), a.Mean());
  EXPECT_DOUBLE_EQ(right.Variance(), a.Variance());
  EXPECT_DOUBLE_EQ(right.Min(), 1.0);
  EXPECT_DOUBLE_EQ(right.Max(), 3.0);
}

TEST(StatsTest, QuantileInterpolates) {
  std::vector<double> xs = {4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(Quantile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Quantile(xs, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(Quantile(xs, 0.5), 2.5);
}

TEST(TableTest, AlignsColumns) {
  Table t({"name", "value"});
  t.AddRow({"x", "1"});
  t.AddRow({"longer", "2.5"});
  const std::string s = t.ToString();
  EXPECT_NE(s.find("| name   | value |"), std::string::npos);
  EXPECT_NE(s.find("| longer | 2.5   |"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(TableTest, DoubleRowFormatting) {
  Table t({"m", "a", "b"});
  t.AddRow("r", {1.23456, 2.0}, 3);
  const std::string s = t.ToString();
  EXPECT_NE(s.find("1.235"), std::string::npos);
  EXPECT_NE(s.find("2.000"), std::string::npos);
}

TEST(TableTest, FormatDouble) {
  EXPECT_EQ(FormatDouble(7.8724, 3), "7.872");
  EXPECT_EQ(FormatDouble(-1.0, 1), "-1.0");
  EXPECT_EQ(FormatDouble(0.0, 0), "0");
}

TEST(CsvTest, EscapesSpecialCharacters) {
  EXPECT_EQ(CsvEscape("plain"), "plain");
  EXPECT_EQ(CsvEscape("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvEscape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(CsvEscape("line\nbreak"), "\"line\nbreak\"");
}

TEST(CsvTest, WritesFile) {
  const std::string path = ::testing::TempDir() + "/agsc_csv_test.csv";
  {
    CsvWriter csv(path, {"a", "b"});
    csv.WriteRow({"1", "x,y"});
    csv.WriteRow("row", {0.5}, 2);
    csv.Flush();
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a,b");
  std::getline(in, line);
  EXPECT_EQ(line, "1,\"x,y\"");
  std::getline(in, line);
  EXPECT_EQ(line, "row,0.50");
  std::remove(path.c_str());
}

TEST(EnvFlagsTest, FallbacksWhenUnset) {
  EXPECT_EQ(GetEnvOr("AGSC_DOES_NOT_EXIST", std::string("dflt")), "dflt");
  EXPECT_EQ(GetEnvOr("AGSC_DOES_NOT_EXIST", 42), 42);
  EXPECT_DOUBLE_EQ(GetEnvOr("AGSC_DOES_NOT_EXIST", 2.5), 2.5);
}

/// One target per FlagTable value kind, all starting inside their range.
struct FlagTargets {
  int count = 5;
  double ratio = 0.5;
  uint64_t seed = 1;
  std::string mode = "a";
  std::string path;
  bool on = false;
};

FlagTable MakeFlagTable(FlagTargets* t) {
  FlagTable flags("fuzz", "");
  flags.Int("--count", "N", -3, 7, &t->count);
  flags.Double("--ratio", "R", -1.0, 1.0, &t->ratio);
  flags.Uint64("--seed", "S", &t->seed);
  flags.OneOf("--mode", {"a", "b"}, &t->mode);
  flags.String("--path", "P", &t->path);
  flags.Switch("--on", &t->on);
  return flags;
}

FlagTable::Outcome ParseArgv(FlagTable& flags,
                             const std::vector<std::string>& args,
                             std::ostream& err) {
  std::vector<const char*> argv = {"fuzz"};
  for (const std::string& a : args) argv.push_back(a.c_str());
  return flags.Parse(static_cast<int>(argv.size()), argv.data(), err);
}

TEST(FlagTableTest, GivenHelpAndVersion) {
  FlagTargets t;
  FlagTable flags = MakeFlagTable(&t);
  std::ostringstream err;
  EXPECT_EQ(ParseArgv(flags, {"--count", "7", "--on", "--count", "-3"}, err),
            FlagTable::Outcome::kOk);
  EXPECT_EQ(t.count, -3);  // The last value wins.
  EXPECT_TRUE(t.on);
  EXPECT_TRUE(flags.Given("--count"));
  EXPECT_FALSE(flags.Given("--ratio"));
  EXPECT_EQ(ParseArgv(flags, {"-h", "--bogus"}, err),
            FlagTable::Outcome::kHelp);
  EXPECT_EQ(ParseArgv(flags, {"--build-info", "--bogus"}, err),
            FlagTable::Outcome::kVersion);
  EXPECT_FALSE(flags.Given("--count"));  // Reset by every Parse.
  EXPECT_EQ(err.str(), "");
  std::ostringstream usage;
  flags.PrintUsage(usage);
  EXPECT_EQ(usage.str(),
            "usage: fuzz [--count N] [--ratio R] [--seed S] [--mode a|b] "
            "[--path P]\n  [--on] [--help] [--version|--build-info]\n");
}

// CLI input is a trust boundary: 10^4 seeded random argv vectors of flag
// names and hostile tokens. Every parse must end in success or a usage
// error, no target may ever leave its range, and a rejected value must
// leave its target untouched. A reference model replays each argv with
// the util/parse primitives, which leave their output untouched on failure.
TEST(FlagTableTest, RandomArgvStaysInRangeAndRejectsWithoutSideEffects) {
  const std::vector<std::string> tokens = {
      "--count", "--ratio", "--seed", "--mode", "--path", "--on",
      "", "-0", "1e309", "-1e309", "inf", "-inf", "nan", "--", "-",
      "7", "8", "-3", "-4", "0.5", "1", "-1", "1.0000001", "a", "b", "A",
      "18446744073709551615", "18446744073709551616", " 1", "1 ", "0x1",
      std::string(10000, '9'), std::string(10000, 'x')};
  Rng rng(16);
  int accepted = 0;
  int rejected = 0;
  for (int iter = 0; iter < 10000; ++iter) {
    std::vector<std::string> args(rng.NextU64() % 9);
    for (std::string& a : args) a = tokens[rng.NextU64() % tokens.size()];
    FlagTargets got;
    FlagTable flags = MakeFlagTable(&got);
    std::ostringstream err;
    const FlagTable::Outcome outcome = ParseArgv(flags, args, err);

    FlagTargets want;
    bool want_error = false;
    for (size_t i = 0; i < args.size() && !want_error; ++i) {
      const std::string& flag = args[i];
      if (flag == "--on") {
        want.on = true;
        continue;
      }
      const bool known = flag == "--count" || flag == "--ratio" ||
                         flag == "--seed" || flag == "--mode" ||
                         flag == "--path";
      if (!known || i + 1 >= args.size()) {
        want_error = true;
        break;
      }
      const std::string& v = args[++i];
      if (flag == "--count") {
        want_error = !ParseIntInRange(v, -3, 7, &want.count);
      } else if (flag == "--ratio") {
        want_error = !ParseDoubleInRange(v, -1.0, 1.0, &want.ratio);
      } else if (flag == "--seed") {
        want_error = !ParseUint64(v, &want.seed);
      } else if (flag == "--mode") {
        want_error = v != "a" && v != "b";
        if (!want_error) want.mode = v;
      } else {
        want.path = v;
      }
    }

    SCOPED_TRACE("iteration " + std::to_string(iter));
    ASSERT_TRUE(outcome == FlagTable::Outcome::kOk ||
                outcome == FlagTable::Outcome::kError);
    ASSERT_EQ(outcome == FlagTable::Outcome::kError, want_error);
    ASSERT_EQ(err.str().empty(), !want_error) << err.str();
    (want_error ? rejected : accepted) += 1;
    ASSERT_GE(got.count, -3);
    ASSERT_LE(got.count, 7);
    ASSERT_GE(got.ratio, -1.0);  // Also false for NaN.
    ASSERT_LE(got.ratio, 1.0);
    ASSERT_TRUE(got.mode == "a" || got.mode == "b");
    ASSERT_EQ(got.count, want.count);
    ASSERT_EQ(got.ratio, want.ratio);
    ASSERT_EQ(got.seed, want.seed);
    ASSERT_EQ(got.mode, want.mode);
    ASSERT_EQ(got.path, want.path);
    ASSERT_EQ(got.on, want.on);
  }
  // Both outcomes are well exercised.
  EXPECT_GT(accepted, 1000);
  EXPECT_GT(rejected, 1000);
}

TEST(EnvFlagsTest, ParsesSetValues) {
  setenv("AGSC_TEST_FLAG_INT", "17", 1);
  setenv("AGSC_TEST_FLAG_BAD", "zzz", 1);
  EXPECT_EQ(GetEnvOr("AGSC_TEST_FLAG_INT", 0), 17);
  EXPECT_EQ(GetEnvOr("AGSC_TEST_FLAG_BAD", 5), 5);
  unsetenv("AGSC_TEST_FLAG_INT");
  unsetenv("AGSC_TEST_FLAG_BAD");
}

TEST(EnvFlagsTest, BenchScaleDefaultsToSmoke) {
  unsetenv("AGSC_BENCH_SCALE");
  EXPECT_EQ(GetBenchScale(), BenchScale::kSmoke);
  setenv("AGSC_BENCH_SCALE", "paper", 1);
  EXPECT_EQ(GetBenchScale(), BenchScale::kPaper);
  unsetenv("AGSC_BENCH_SCALE");
}

// ---------------------------------------------------------------------------
// FrameReader poll-deadline edge cases. The happy paths and the corruption
// matrix are exercised end-to-end by the proc-sampler and chaos suites;
// these pin down the boundary behaviors of the deadline logic itself.
// ---------------------------------------------------------------------------

/// A pipe pair closed on destruction (either end may be closed early).
struct Pipe {
  int fds[2] = {-1, -1};
  Pipe() { EXPECT_EQ(::pipe(fds), 0); }
  ~Pipe() {
    CloseRead();
    CloseWrite();
  }
  void CloseRead() {
    if (fds[0] >= 0) ::close(fds[0]);
    fds[0] = -1;
  }
  void CloseWrite() {
    if (fds[1] >= 0) ::close(fds[1]);
    fds[1] = -1;
  }
};

TEST(FrameReaderEdgeTest, BufferedFrameBeatsATightDeadline) {
  Pipe p;
  FrameWriter writer(p.fds[1]);
  ASSERT_EQ(writer.Write(/*type=*/7, /*seq=*/0, "hello"), util::IpcStatus::kOk);
  // The frame is already sitting in the pipe: a 1 ms deadline must not
  // matter — readiness is checked before the deadline can expire.
  FrameReader reader(p.fds[0]);
  Frame frame;
  EXPECT_EQ(reader.Read(frame, /*timeout_ms=*/1), IpcStatus::kOk);
  EXPECT_EQ(frame.type, 7u);
  EXPECT_EQ(frame.payload, "hello");
  // Nothing else buffered: now the same deadline expires as a timeout, not
  // an error or a phantom frame.
  EXPECT_EQ(reader.Read(frame, /*timeout_ms=*/1), IpcStatus::kTimeout);
}

TEST(FrameReaderEdgeTest, PartialFrameReportsTimeoutNotCorrupt) {
  Pipe p;
  // Only half a header arrives before the deadline: that is a straggling
  // writer, not a damaged stream — kTimeout, never kCorrupt.
  const uint32_t magic = kFrameMagic;
  ASSERT_EQ(::write(p.fds[1], &magic, sizeof(magic)),
            static_cast<ssize_t>(sizeof(magic)));
  FrameReader reader(p.fds[0]);
  Frame frame;
  EXPECT_EQ(reader.Read(frame, /*timeout_ms=*/30), IpcStatus::kTimeout);
}

TEST(FrameReaderEdgeTest, ZeroLengthPayloadRoundTrips) {
  Pipe p;
  FrameWriter writer(p.fds[1]);
  ASSERT_EQ(writer.Write(/*type=*/1, /*seq=*/0, ""), util::IpcStatus::kOk);
  ASSERT_EQ(writer.Write(/*type=*/2, /*seq=*/1, ""), util::IpcStatus::kOk);
  FrameReader reader(p.fds[0]);
  Frame frame;
  EXPECT_EQ(reader.Read(frame, /*timeout_ms=*/1000), IpcStatus::kOk);
  EXPECT_EQ(frame.type, 1u);
  EXPECT_TRUE(frame.payload.empty());
  EXPECT_EQ(reader.Read(frame, /*timeout_ms=*/1000), IpcStatus::kOk);
  EXPECT_EQ(frame.seq, 1u);
  EXPECT_EQ(reader.next_seq(), 2u);
}

TEST(FrameReaderEdgeTest, MaxSizePayloadAtTheCapRoundTrips) {
  Pipe p;
  // A payload exactly at kMaxFramePayload (64 MiB) is legal and must cross
  // the pipe intact. Far larger than the pipe buffer, so the writer streams
  // from its own thread while the reader drains.
  std::string payload(kMaxFramePayload, '\0');
  for (size_t i = 0; i < payload.size(); i += 4096) {
    payload[i] = static_cast<char>(i * 2654435761u >> 24);
  }
  std::thread writer_thread([&] {
    FrameWriter writer(p.fds[1]);
    EXPECT_EQ(writer.Write(/*type=*/9, /*seq=*/0, payload), util::IpcStatus::kOk);
    p.CloseWrite();
  });
  FrameReader reader(p.fds[0]);
  Frame frame;
  EXPECT_EQ(reader.Read(frame, /*timeout_ms=*/60000), IpcStatus::kOk);
  writer_thread.join();
  EXPECT_EQ(frame.type, 9u);
  EXPECT_EQ(frame.payload, payload);  // CRC already proved it; belt+braces.
  EXPECT_EQ(reader.Read(frame, /*timeout_ms=*/1000), IpcStatus::kEof);
}

/// Sends `payload` through a real frame, so it reaches the decoder exactly
/// as a peer's CRC-valid message would.
std::string ThroughFrame(const std::string& payload) {
  Pipe p;
  FrameWriter writer(p.fds[1]);
  EXPECT_EQ(writer.Write(/*type=*/1, /*seq=*/0, payload), IpcStatus::kOk);
  FrameReader reader(p.fds[0]);
  Frame frame;
  EXPECT_EQ(reader.Read(frame, /*timeout_ms=*/1000), IpcStatus::kOk);
  return frame.payload;
}

TEST(WorkerProtocolBoundsTest, CountsBeyondThePayloadAreRejectedUnsized) {
  // Each message claims 2^20 entries its bytes could never encode; the
  // decoder must reject it from the count alone, before sizing anything.
  // An init whose trailing hidden-layer count (0 when encoded) claims 2^20
  // layers, followed by 16 bytes.
  std::string init_bytes = core::EncodeWorkerInit(core::WorkerInit{});
  init_bytes.resize(init_bytes.size() - sizeof(uint32_t));
  const uint32_t layers = 1u << 20;
  init_bytes.append(reinterpret_cast<const char*>(&layers), sizeof(layers));
  init_bytes.append(16, '\0');
  core::WorkerInit init;
  EXPECT_FALSE(core::DecodeWorkerInit(ThroughFrame(init_bytes), init));
  EXPECT_EQ(init.actor_hidden.capacity(), 0u);

  WireWriter step;  // 2^20 agent rows claimed in a 24-byte payload.
  step.U32(/*done=*/0);
  step.U32(1u << 20);
  step.U64(0);
  step.U64(0);
  core::StepRecord record;
  EXPECT_FALSE(core::DecodeStepRecord(ThroughFrame(step.Take()), record));
  EXPECT_EQ(record.obs.capacity(), 0u);
  EXPECT_EQ(record.he_neighbors.capacity(), 0u);

  WireWriter end;  // 2^20 terminal rows claimed, one sent.
  end.U32(1u << 20);
  end.U64(0);
  core::EpisodeEnd episode_end;
  EXPECT_FALSE(core::DecodeEpisodeEnd(ThroughFrame(end.Take()), episode_end));
  EXPECT_EQ(episode_end.obs.capacity(), 0u);

  // A count the payload does cover still decodes, bit for bit.
  core::StepRecord ok_in;
  ok_in.obs = {{0.5f, -0.0f}, {1.0f, 2.0f}};
  ok_in.state = {3.0f};
  ok_in.actions = {{0.25f, -0.25f}, {1.5f, -1.5f}};
  ok_in.logps = {-1.0f, -2.0f};
  ok_in.rewards = {0.125f, 7.0f};
  ok_in.he_neighbors = {{1}, {}};
  ok_in.ho_neighbors = {{}, {0}};
  ok_in.done = true;
  core::StepRecord ok_out;
  ASSERT_TRUE(core::DecodeStepRecord(
      ThroughFrame(core::EncodeStepRecord(ok_in)), ok_out));
  EXPECT_EQ(ok_out.obs, ok_in.obs);
  EXPECT_EQ(ok_out.state, ok_in.state);
  EXPECT_EQ(ok_out.actions, ok_in.actions);
  EXPECT_EQ(ok_out.logps, ok_in.logps);
  EXPECT_EQ(ok_out.rewards, ok_in.rewards);
  EXPECT_EQ(ok_out.he_neighbors, ok_in.he_neighbors);
  EXPECT_EQ(ok_out.ho_neighbors, ok_in.ho_neighbors);
  EXPECT_TRUE(ok_out.done);
}

TEST(WorkerProtocolBoundsTest, PolicyFrameMustMatchTheInitArchitecture) {
  core::WorkerInit init;
  init.actor_hidden = {8, 4};
  std::vector<core::GaussianActor> sent =
      core::BuildWorkerActors(init, /*num_agents=*/2, /*obs_dim=*/5);
  std::vector<core::GaussianActor> held =
      core::BuildWorkerActors(init, /*num_agents=*/2, /*obs_dim=*/5);
  Rng rng(3);
  for (core::GaussianActor& actor : sent) {
    for (nn::Variable& p : actor.Parameters()) {
      for (int i = 0; i < p.value().size(); ++i) {
        p.mutable_value()[i] = static_cast<float>(rng.Gaussian());
      }
    }
  }
  std::vector<core::GaussianActor*> targets = {&held[0], &held[1]};
  const auto snapshot = [&] {
    std::vector<float> values;
    for (core::GaussianActor* actor : targets) {
      for (const nn::Variable& p : actor->Parameters()) {
        for (int i = 0; i < p.value().size(); ++i) {
          values.push_back(p.value()[i]);
        }
      }
    }
    return values;
  };
  const std::vector<float> before = snapshot();
  const std::string valid = core::EncodeWorkerPolicy({&sent[0], &sent[1]});

  // Claims 2^20 networks, then 2^20 tensors in the first one, at the
  // valid size and with 64 bytes more: rejected before anything is
  // written.
  for (size_t offset : {size_t{0}, sizeof(uint32_t)}) {
    std::string bytes = valid;
    const uint32_t huge = 1u << 20;
    std::memcpy(&bytes[offset], &huge, sizeof(huge));
    EXPECT_FALSE(core::DecodeWorkerPolicy(ThroughFrame(bytes), targets));
    bytes.append(64, '\0');
    EXPECT_FALSE(core::DecodeWorkerPolicy(ThroughFrame(bytes), targets));
  }
  // Right size, wrong shape (the first weight's rows and cols swapped).
  {
    std::string bytes = valid;
    int32_t rows = 0, cols = 0;
    std::memcpy(&rows, &bytes[8], sizeof(rows));
    std::memcpy(&cols, &bytes[12], sizeof(cols));
    std::memcpy(&bytes[8], &cols, sizeof(cols));
    std::memcpy(&bytes[12], &rows, sizeof(rows));
    EXPECT_FALSE(core::DecodeWorkerPolicy(ThroughFrame(bytes), targets));
  }
  // Truncated, and a policy for one network sent to a worker holding two.
  EXPECT_FALSE(core::DecodeWorkerPolicy(
      ThroughFrame(valid.substr(0, valid.size() - 4)), targets));
  EXPECT_FALSE(core::DecodeWorkerPolicy(
      ThroughFrame(core::EncodeWorkerPolicy({&sent[0]})), targets));
  EXPECT_EQ(snapshot(), before);  // Every rejection left the nets alone.

  ASSERT_TRUE(core::DecodeWorkerPolicy(ThroughFrame(valid), targets));
  for (size_t a = 0; a < sent.size(); ++a) {
    const std::vector<nn::Variable> want = sent[a].Parameters();
    const std::vector<nn::Variable> got = held[a].Parameters();
    for (size_t t = 0; t < want.size(); ++t) {
      for (int i = 0; i < want[t].value().size(); ++i) {
        EXPECT_EQ(got[t].value()[i], want[t].value()[i]);
      }
    }
  }
}

TEST(FrameReaderEdgeTest, LengthPastTheCapIsCorruptBeforeAllocating) {
  Pipe p;
  // A header declaring kMaxFramePayload + 1: rejected on the length check
  // alone — no attempt to allocate or read the impossible payload (the CRC
  // never enters into it).
  std::string header;
  const auto put_u32 = [&header](uint32_t v) {
    header.append(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  const auto put_u64 = [&header](uint64_t v) {
    header.append(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  put_u32(kFrameMagic);
  put_u32(/*type=*/1);
  put_u64(/*seq=*/0);
  put_u32(kMaxFramePayload + 1);
  put_u32(/*crc=*/0);
  ASSERT_EQ(header.size(), static_cast<size_t>(kFrameHeaderBytes));
  ASSERT_EQ(::write(p.fds[1], header.data(), header.size()),
            static_cast<ssize_t>(header.size()));
  FrameReader reader(p.fds[0]);
  Frame frame;
  EXPECT_EQ(reader.Read(frame, /*timeout_ms=*/1000), IpcStatus::kCorrupt);
}

}  // namespace
}  // namespace agsc::util
