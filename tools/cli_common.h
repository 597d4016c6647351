#ifndef AGSC_TOOLS_CLI_COMMON_H_
#define AGSC_TOOLS_CLI_COMMON_H_

// Command-line pieces the agsc_train, agsc_serve and agsc_worker binaries
// share: the env/architecture flag group (written once, so a policy served
// with the flags it was trained with always gets the same configuration),
// the parse-then-check driver with the exit-code contract, the --version
// line and the atomic port-file publisher.

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "core/hi_madrl.h"
#include "env/config.h"
#include "map/trace.h"
#include "util/flags.h"

namespace agsc::tools {

/// Upper bound of the unbounded count flags (iterations, PoIs, ...).
inline constexpr int kMaxCount = 1000000000;

/// The environment (Table II) and architecture (i-EOI / h-CoPO / MAPPO)
/// settings a checkpoint's fingerprint depends on, plus the seed. Defaults
/// are the paper's.
struct EnvArchFlags {
  std::string campus = "purdue";
  int timeslots = 100;
  int pois = 100;
  int uavs = 2;
  int ugvs = 2;
  int subchannels = 3;
  double height = 60.0;
  double threshold_db = 0.0;
  std::string medium = "noma";
  bool env_channel_scalar = false;
  bool env_fast_math = false;
  bool no_eoi = false;
  bool no_copo = false;
  bool plain_copo = false;
  bool mappo = false;
  uint64_t seed = 1;

  void Register(util::FlagTable* flags);
  map::Dataset BuildDataset() const;
  /// The environment the flags describe, or nullopt after reporting on
  /// stderr why it is invalid.
  std::optional<env::EnvConfig> BuildEnvConfig() const;
  /// Sets the algorithm variant (use_eoi, use_copo, hetero_copo, base) and
  /// the seed of `train`.
  void ApplyArchitecture(core::TrainConfig* train) const;
};

/// A cross-flag rule: `message` is the usage error when `violated`.
struct Rule {
  bool violated;
  const char* message;
};

/// Parses argv with `flags`, then checks `rules` (evaluated after the
/// parse). Returns the exit code the binary should stop with, or nullopt
/// to go on: --help prints usage on `help_out` (0), --version prints the
/// version line on stdout (0), a usage error or the first violated rule is
/// reported on stderr followed by usage (2).
std::optional<int> ParseCommandLine(
    util::FlagTable& flags, int argc, char** argv, std::ostream& help_out,
    const std::function<std::vector<Rule>()>& rules = nullptr);

/// "<program> <build info> gemm-isa=<isa>": the --version line, also the
/// provenance stamp of the stats CSV.
std::string VersionLine(const std::string& program);

/// Writes `port` to `path` through a tmp file and a rename, so pollers
/// never read partial content; reports a failure on stderr. Deliberately
/// not util::AtomicWriteFile: the fault-injection write counters of the
/// chaos and soak suites must not see this write.
bool PublishPortFile(const std::string& path, int port);

}  // namespace agsc::tools

#endif  // AGSC_TOOLS_CLI_COMMON_H_
