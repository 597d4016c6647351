// Command-line contract of agsc_train, agsc_serve and agsc_worker, pinned
// from the outside by exec'ing the real binaries: every value flag's
// missing/garbage/out-of-range rejection (exit 2 and the exact stderr
// line), unknown flags, every cross-flag rule, --help/--version, and —
// through a checkpoint digest and a serve round trip — the mapping from the
// env/architecture flags to the configuration the trainer builds.
//
// Binary paths are injected at build time (see tests/CMakeLists.txt).

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/exit_codes.h"

#if !defined(AGSC_TRAIN_BINARY) || !defined(AGSC_SERVE_BINARY) || \
    !defined(AGSC_WORKER_BINARY)
#error "AGSC_{TRAIN,SERVE,WORKER}_BINARY must point at the built binaries"
#endif

namespace agsc {
namespace {

std::string TempPath(const std::string& name) {
  // pid-scoped: gtest's TempDir is shared across concurrently running test
  // processes (ctest -j), and fixed names collide.
  return ::testing::TempDir() + "/p" + std::to_string(::getpid()) + "_cli_" +
         name;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

struct RunResult {
  int exit_code = -1;
  std::string out;
  std::string err;
};

/// Forks and execs `binary` with `args`, stdin from /dev/null and stdout /
/// stderr captured separately; waits for it to exit.
RunResult Exec(const char* binary, const std::vector<std::string>& args) {
  const std::string out_path = TempPath("stdout");
  const std::string err_path = TempPath("stderr");
  const pid_t pid = ::fork();
  if (pid == 0) {
    const int in = ::open("/dev/null", O_RDONLY);
    const int out = ::open(out_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0600);
    const int err = ::open(err_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0600);
    if (in < 0 || out < 0 || err < 0) ::_exit(126);
    ::dup2(in, 0);
    ::dup2(out, 1);
    ::dup2(err, 2);
    std::vector<std::string> full = {binary};
    full.insert(full.end(), args.begin(), args.end());
    std::vector<char*> argv;
    for (std::string& a : full) argv.push_back(a.data());
    argv.push_back(nullptr);
    ::execv(binary, argv.data());
    ::_exit(127);
  }
  RunResult r;
  int status = 0;
  if (pid > 0 && ::waitpid(pid, &status, 0) == pid) {
    if (WIFEXITED(status)) r.exit_code = WEXITSTATUS(status);
    if (WIFSIGNALED(status)) r.exit_code = 128 + WTERMSIG(status);
  }
  r.out = ReadFile(out_path);
  r.err = ReadFile(err_path);
  std::remove(out_path.c_str());
  std::remove(err_path.c_str());
  return r;
}

std::string FirstLine(const std::string& text) {
  return text.substr(0, text.find('\n'));
}

std::string Join(const std::vector<std::string>& args) {
  std::string s;
  for (const std::string& a : args) s += (s.empty() ? "" : " ") + a;
  return s;
}

/// True if `name` occurs in `text` as a whole flag (not as the prefix of a
/// longer one, e.g. --listen inside --listen-sndbuf).
bool ContainsFlag(const std::string& text, const std::string& name) {
  for (size_t at = text.find(name); at != std::string::npos;
       at = text.find(name, at + 1)) {
    const size_t end = at + name.size();
    if (end == text.size()) return true;
    const char c = text[end];
    if (!(c >= 'a' && c <= 'z') && c != '-') return true;
  }
  return false;
}

/// One rejected command line and the stderr line it must produce (empty
/// for agsc_worker, whose rejections only promise exit 2 plus usage).
struct Rejection {
  std::vector<std::string> args;
  std::string line;
};

std::string Invalid(const std::string& flag, const std::string& value,
                    const std::string& expected) {
  return "invalid value for " + flag + ": '" + value + "' (expected " +
         expected + ")";
}

void AddMissing(std::vector<Rejection>* out, const std::string& flag) {
  out->push_back({{flag}, "missing value for " + flag});
}

void AddInt(std::vector<Rejection>* out, const std::string& flag, int64_t lo,
            int64_t hi) {
  const std::string range = "integer in [" + std::to_string(lo) + ", " +
                            std::to_string(hi) + "]";
  AddMissing(out, flag);
  for (const std::string& v :
       {std::string("abc"), std::to_string(lo - 1), std::to_string(hi + 1)}) {
    out->push_back({{flag, v}, Invalid(flag, v, range)});
  }
}

void AddDouble(std::vector<Rejection>* out, const std::string& flag,
               const std::string& below, const std::string& above,
               const std::string& range) {
  AddMissing(out, flag);
  for (const std::string& v : {std::string("abc"), below, above,
                               std::string("nan")}) {
    out->push_back({{flag, v}, Invalid(flag, v, "number in " + range)});
  }
}

void AddOneOf(std::vector<Rejection>* out, const std::string& flag,
              const std::string& choices) {
  AddMissing(out, flag);
  for (const std::string& v : {std::string("bogus"), std::string("")}) {
    out->push_back({{flag, v}, Invalid(flag, v, choices)});
  }
}

void AddSeed(std::vector<Rejection>* out) {
  AddMissing(out, "--seed");
  for (const std::string& v :
       {std::string("abc"), std::string("-1"),
        std::string("18446744073709551616")}) {
    out->push_back({{"--seed", v}, Invalid("--seed", v, "unsigned integer")});
  }
}

constexpr int64_t kMaxInt = 1000000000;

/// The env/architecture group agsc_train and agsc_serve both accept.
void AddEnvArch(std::vector<Rejection>* out) {
  AddOneOf(out, "--campus", "purdue|ncsu");
  AddInt(out, "--timeslots", 1, kMaxInt);
  AddInt(out, "--pois", 1, kMaxInt);
  AddInt(out, "--uavs", 0, kMaxInt);
  AddInt(out, "--ugvs", 0, kMaxInt);
  AddInt(out, "--subchannels", 1, kMaxInt);
  AddDouble(out, "--height", "-0.999999", "1000001", "[1e-06, 1e+06]");
  AddDouble(out, "--threshold", "-1000001", "1000001", "[-1e+06, 1e+06]");
  AddOneOf(out, "--medium", "noma|tdma|ofdma");
  AddSeed(out);
}

const std::vector<std::string> kEnvArchFlags = {
    "--campus",     "--timeslots",          "--pois",
    "--uavs",       "--ugvs",               "--subchannels",
    "--height",     "--threshold",          "--medium",
    "--seed",       "--env-channel-scalar", "--env-fast-math",
    "--no-eoi",     "--no-copo",            "--plain-copo",
    "--mappo"};

std::vector<std::string> WithEnvArch(std::vector<std::string> flags) {
  flags.insert(flags.end(), kEnvArchFlags.begin(), kEnvArchFlags.end());
  return flags;
}

std::vector<Rejection> TrainRejections() {
  std::vector<Rejection> r;
  AddEnvArch(&r);
  AddInt(&r, "--iterations", 0, kMaxInt);
  AddInt(&r, "--eval", 0, kMaxInt);
  AddInt(&r, "--num-workers", 1, 1024);
  AddInt(&r, "--proc-workers", 1, 1024);
  AddInt(&r, "--remote-workers", 1, 1024);
  AddInt(&r, "--nn-threads", 0, 1024);
  AddInt(&r, "--checkpoint-every", 1, kMaxInt);
  AddInt(&r, "--checkpoint-keep", 1, kMaxInt);
  AddInt(&r, "--watchdog-sec", 0, 86400);
  AddInt(&r, "--oracle-check-every", 0, kMaxInt);
  AddInt(&r, "--max-backoffs", 0, kMaxInt);
  for (const char* flag : {"--worker-binary", "--listen", "--port-file",
                           "--save", "--load", "--checkpoint-dir",
                           "--stats-csv"}) {
    AddMissing(&r, flag);
  }
  r.push_back({{"--no-such-flag"}, "unknown flag: --no-such-flag"});
  r.push_back({{"positional"}, "unknown flag: positional"});
  // Cross-flag rules.
  r.push_back({{"--resume"}, "--resume requires --checkpoint-dir"});
  r.push_back({{"--proc-workers", "2", "--num-workers", "2"},
               "--proc-workers and --num-workers are mutually exclusive"});
  r.push_back({{"--remote-workers", "2", "--num-workers", "2"},
               "--remote-workers is mutually exclusive with "
               "--num-workers/--proc-workers"});
  r.push_back({{"--remote-workers", "2", "--proc-workers", "2"},
               "--remote-workers is mutually exclusive with "
               "--num-workers/--proc-workers"});
  r.push_back({{"--remote-workers", "2"},
               "--remote-workers requires --listen HOST:PORT"});
  r.push_back({{"--listen", "127.0.0.1:0"},
               "--listen requires --remote-workers W"});
  r.push_back({{"--port-file", "port"}, "--port-file requires --listen"});
  return r;
}

const std::vector<std::string> kTrainFlags = WithEnvArch(
    {"--iterations", "--eval", "--num-workers", "--proc-workers",
     "--worker-binary", "--listen", "--remote-workers", "--port-file",
     "--nn-threads", "--nn-naive", "--env-naive", "--save", "--load",
     "--checkpoint-dir", "--checkpoint-every", "--checkpoint-keep",
     "--resume", "--stats-csv", "--watchdog-sec", "--oracle-check-every",
     "--max-backoffs", "--render", "--quiet", "--version"});

std::vector<Rejection> ServeRejections() {
  std::vector<Rejection> r;
  AddEnvArch(&r);
  AddInt(&r, "--watch-poll-ms", 1, 3600000);
  AddInt(&r, "--max-batch", 1, 65536);
  AddInt(&r, "--deadline-ms", 0, 3600000);
  AddInt(&r, "--max-queue", 0, kMaxInt);
  AddInt(&r, "--per-client-inflight", 0, kMaxInt);
  AddInt(&r, "--admission", 0, 1);
  AddInt(&r, "--write-budget-ms", 1, 3600000);
  AddInt(&r, "--listen-sndbuf", 0, kMaxInt);
  AddInt(&r, "--max-pipeline", 1, 65536);
  AddInt(&r, "--sessions", 1, 4096);
  AddInt(&r, "--clients", 1, 4096);
  AddInt(&r, "--requests", 0, kMaxInt);
  AddInt(&r, "--duration-sec", 0, 86400);
  for (const char* flag : {"--snapshot", "--snapshot-dir", "--stats-json",
                           "--listen", "--port-file"}) {
    AddMissing(&r, flag);
  }
  r.push_back({{"--no-such-flag"}, "unknown flag: --no-such-flag"});
  // The training-only flags are unknown here.
  r.push_back({{"--env-naive"}, "unknown flag: --env-naive"});
  r.push_back({{"--iterations", "1"}, "unknown flag: --iterations"});
  // Cross-flag rules.
  r.push_back({{}, "one of --snapshot or --snapshot-dir is required"});
  r.push_back({{"--snapshot", "f", "--watch"},
               "--watch requires --snapshot-dir"});
  r.push_back({{"--snapshot", "f", "--requests", "0"},
               "unbounded run: give --requests N or --duration-sec S"});
  r.push_back({{"--snapshot", "f", "--port-file", "port"},
               "--port-file requires --listen"});
  return r;
}

const std::vector<std::string> kServeFlags = WithEnvArch(
    {"--snapshot", "--snapshot-dir", "--watch", "--watch-poll-ms",
     "--max-batch", "--deadline-ms", "--max-queue", "--per-client-inflight",
     "--admission", "--sessions", "--clients", "--requests",
     "--duration-sec", "--stats-json", "--listen", "--port-file",
     "--write-budget-ms", "--listen-sndbuf", "--max-pipeline", "--quiet",
     "--version"});

std::vector<Rejection> WorkerRejections() {
  std::vector<Rejection> r;
  for (const auto& [flag, lo, hi] :
       std::vector<std::tuple<std::string, int64_t, int64_t>>{
           {"--worker-id", 0, 1 << 20},
           {"--incarnation", 0, 1 << 20},
           {"--connect-timeout-ms", 1, 1 << 30},
           {"--connect-retries", 1, 1 << 20}}) {
    for (std::vector<std::string> args :
         {std::vector<std::string>{flag}, {flag, "abc"},
          {flag, std::to_string(lo - 1)}, {flag, std::to_string(hi + 1)}}) {
      r.push_back({args, ""});
    }
  }
  r.push_back({{"--connect"}, ""});
  r.push_back({{"--no-such-flag"}, ""});
  return r;
}

const std::vector<std::string> kWorkerFlags = {
    "--worker-id", "--incarnation", "--connect", "--connect-timeout-ms",
    "--connect-retries", "--version", "--build-info"};

void ExpectRejections(const char* binary,
                      const std::vector<Rejection>& rejections) {
  for (const Rejection& rej : rejections) {
    const RunResult r = Exec(binary, rej.args);
    SCOPED_TRACE(std::string(binary) + " " + Join(rej.args));
    EXPECT_EQ(r.exit_code, util::kExitUsage);
    if (rej.line.empty()) {
      // agsc_worker: stdout is the protocol pipe and stays silent.
      EXPECT_EQ(r.out, "");
      EXPECT_NE(r.err.find("usage: agsc_worker"), std::string::npos) << r.err;
    } else {
      EXPECT_EQ(FirstLine(r.err), rej.line);
    }
  }
}

TEST(CliContractTest, TrainRejectsBadFlagsWithExactMessages) {
  ExpectRejections(AGSC_TRAIN_BINARY, TrainRejections());
}

TEST(CliContractTest, ServeRejectsBadFlagsWithExactMessages) {
  ExpectRejections(AGSC_SERVE_BINARY, ServeRejections());
}

TEST(CliContractTest, WorkerRejectsBadFlagsWithUsage) {
  ExpectRejections(AGSC_WORKER_BINARY, WorkerRejections());
}

/// --help/-h exit 0 with usage listing every flag on `stream` (stdout, or
/// stderr for agsc_worker); they stop the scan, so later garbage is ignored.
void ExpectHelp(const char* binary, const std::vector<std::string>& flags,
                bool on_stderr) {
  for (const std::vector<std::string>& args :
       {std::vector<std::string>{"--help"}, {"-h"},
        {"--help", "--no-such-flag"}}) {
    const RunResult r = Exec(binary, args);
    SCOPED_TRACE(std::string(binary) + " " + Join(args));
    EXPECT_EQ(r.exit_code, util::kExitOk);
    const std::string& usage = on_stderr ? r.err : r.out;
    EXPECT_EQ(on_stderr ? r.out : r.err, "");
    for (const std::string& flag : flags) {
      EXPECT_TRUE(ContainsFlag(usage, flag)) << flag << " missing in:\n"
                                             << usage;
    }
  }
}

/// --version/--build-info exit 0 with one provenance line on stdout; they
/// stop the scan, but a bad value before them is still a usage error.
void ExpectVersion(const char* binary, const std::string& prog) {
  for (const std::vector<std::string>& args :
       {std::vector<std::string>{"--version"}, {"--build-info"},
        {"--version", "--no-such-flag"}}) {
    const RunResult r = Exec(binary, args);
    SCOPED_TRACE(std::string(binary) + " " + Join(args));
    EXPECT_EQ(r.exit_code, util::kExitOk);
    EXPECT_EQ(r.out.rfind(prog + " compiler=", 0), 0u) << r.out;
    EXPECT_NE(r.out.find(" gemm-isa="), std::string::npos) << r.out;
    EXPECT_EQ(r.out.find('\n'), r.out.size() - 1) << r.out;
  }
  EXPECT_EQ(Exec(binary, {"--no-such-flag", "--version"}).exit_code,
            util::kExitUsage);
}

TEST(CliContractTest, HelpListsEveryFlag) {
  ExpectHelp(AGSC_TRAIN_BINARY, kTrainFlags, /*on_stderr=*/false);
  ExpectHelp(AGSC_SERVE_BINARY, kServeFlags, /*on_stderr=*/false);
  ExpectHelp(AGSC_WORKER_BINARY, kWorkerFlags, /*on_stderr=*/true);
}

TEST(CliContractTest, VersionPrintsBuildInfo) {
  ExpectVersion(AGSC_TRAIN_BINARY, "agsc_train");
  ExpectVersion(AGSC_SERVE_BINARY, "agsc_serve");
  ExpectVersion(AGSC_WORKER_BINARY, "agsc_worker");
}

/// FNV-1a 64 of a checkpoint without its 4-byte CRC-32 footer (a digest
/// over the footer too would still depend on every payload byte, but the
/// footer adds nothing; see learner_determinism_test).
uint64_t CheckpointDigest(const std::string& bytes) {
  uint64_t h = 1469598103934665603ULL;
  for (size_t i = 0; i + 4 < bytes.size(); ++i) {
    h ^= static_cast<unsigned char>(bytes[i]);
    h *= 1099511628211ULL;
  }
  return h;
}

const std::vector<std::string> kEnvArchArgs = {
    "--campus", "ncsu", "--timeslots", "6", "--pois", "12",
    "--uavs", "1", "--ugvs", "1", "--subchannels", "2",
    "--height", "80", "--threshold", "1.5", "--medium", "tdma",
    "--plain-copo", "--seed", "7"};

std::vector<std::string> Concat(std::vector<std::string> a,
                                const std::vector<std::string>& b) {
  a.insert(a.end(), b.begin(), b.end());
  return a;
}

// Pins the flag-to-config mapping of the env/architecture group: the
// checkpoint bytes depend on every env and architecture setting, and serve
// must accept the checkpoint under the same flags and reject it (exit 11,
// fingerprint mismatch) under different ones.
TEST(CliContractTest, EnvArchFlagsPinCheckpointAndServeFingerprint) {
  constexpr uint64_t kCheckpointDigest = 0x1a30ea84ec0f117fULL;
  const std::string ckpt = TempPath("contract.agsc");
  const std::vector<std::string> train_tail = {"--iterations", "1", "--eval",
                                               "0", "--quiet", "--save", ckpt};
  const RunResult trained =
      Exec(AGSC_TRAIN_BINARY, Concat(kEnvArchArgs, train_tail));
  ASSERT_EQ(trained.exit_code, util::kExitOk) << trained.err;
  const std::string bytes = ReadFile(ckpt);
  ASSERT_GT(bytes.size(), 4u);
  char hex[32];
  std::snprintf(hex, sizeof(hex), "0x%016llx",
                static_cast<unsigned long long>(CheckpointDigest(bytes)));
  EXPECT_EQ(CheckpointDigest(bytes), kCheckpointDigest) << "actual " << hex;

  // Repeated flags: the last value wins, so earlier different values of
  // the same flags change nothing.
  const std::string repeat = TempPath("repeat.agsc");
  const RunResult repeated = Exec(
      AGSC_TRAIN_BINARY,
      Concat(Concat({"--campus", "purdue", "--uavs", "3", "--seed", "1",
                     "--height", "10", "--iterations", "2", "--save", ckpt},
                    kEnvArchArgs),
             {"--iterations", "1", "--eval", "0", "--quiet", "--save",
              repeat}));
  ASSERT_EQ(repeated.exit_code, util::kExitOk) << repeated.err;
  EXPECT_EQ(ReadFile(repeat), bytes);
  std::remove(repeat.c_str());

  const std::vector<std::string> serve_tail = {"--snapshot", ckpt,
                                               "--requests", "4", "--quiet"};
  const RunResult served =
      Exec(AGSC_SERVE_BINARY, Concat(kEnvArchArgs, serve_tail));
  EXPECT_EQ(served.exit_code, util::kExitOk) << served.err;

  std::vector<std::string> more_uavs = kEnvArchArgs;
  more_uavs.insert(more_uavs.end(), {"--uavs", "2"});
  EXPECT_EQ(Exec(AGSC_SERVE_BINARY, Concat(more_uavs, serve_tail)).exit_code,
            util::kExitServeError);

  std::vector<std::string> hetero_copo;
  for (const std::string& a : kEnvArchArgs) {
    if (a != "--plain-copo") hetero_copo.push_back(a);
  }
  EXPECT_EQ(
      Exec(AGSC_SERVE_BINARY, Concat(hetero_copo, serve_tail)).exit_code,
      util::kExitServeError);
  std::remove(ckpt.c_str());
}

}  // namespace
}  // namespace agsc
