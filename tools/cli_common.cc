#include "tools/cli_common.h"

#include <filesystem>
#include <fstream>
#include <iostream>

#include "nn/tensor.h"
#include "util/build_info.h"
#include "util/exit_codes.h"

namespace agsc::tools {

void EnvArchFlags::Register(util::FlagTable* flags) {
  flags->OneOf("--campus", {"purdue", "ncsu"}, &campus);
  flags->Int("--timeslots", "T", 1, kMaxCount, &timeslots);
  flags->Int("--pois", "I", 1, kMaxCount, &pois);
  flags->Int("--uavs", "U", 0, kMaxCount, &uavs);
  flags->Int("--ugvs", "G", 0, kMaxCount, &ugvs);
  flags->Int("--subchannels", "Z", 1, kMaxCount, &subchannels);
  flags->Double("--height", "M", 1e-6, 1e6, &height);
  flags->Double("--threshold", "DB", -1e6, 1e6, &threshold_db);
  flags->OneOf("--medium", {"noma", "tdma", "ofdma"}, &medium);
  flags->Switch("--env-channel-scalar", &env_channel_scalar);
  flags->Switch("--env-fast-math", &env_fast_math);
  flags->Switch("--no-eoi", &no_eoi);
  flags->Switch("--no-copo", &no_copo);
  flags->Switch("--plain-copo", &plain_copo);
  flags->Switch("--mappo", &mappo);
  flags->Uint64("--seed", "S", &seed);
}

map::Dataset EnvArchFlags::BuildDataset() const {
  return map::BuildDataset(
      campus == "ncsu" ? map::CampusId::kNcsu : map::CampusId::kPurdue, pois);
}

std::optional<env::EnvConfig> EnvArchFlags::BuildEnvConfig() const {
  env::EnvConfig config;
  config.num_timeslots = timeslots;
  config.num_pois = pois;
  config.num_uavs = uavs;
  config.num_ugvs = ugvs;
  config.num_subchannels = subchannels;
  config.uav_height = height;
  config.sinr_threshold_db = threshold_db;
  if (medium == "tdma") {
    config.medium_access = env::MediumAccess::kTdma;
  } else if (medium == "ofdma") {
    config.medium_access = env::MediumAccess::kOfdma;
  }
  // Serving steps the env on the request path too, so the channel tiers
  // apply to both binaries: --env-channel-scalar pins the bit-identical
  // scalar oracle, --env-fast-math trades libm bit patterns for vectorized
  // transcendentals (deterministic, bounded error).
  config.use_channel_batch = !env_channel_scalar;
  config.env_fast_math = env_fast_math;
  const std::string error = config.Validate();
  if (!error.empty()) {
    std::cerr << "invalid configuration: " << error << "\n";
    return std::nullopt;
  }
  return config;
}

void EnvArchFlags::ApplyArchitecture(core::TrainConfig* train) const {
  train->use_eoi = !no_eoi;
  train->use_copo = !no_copo;
  train->hetero_copo = !plain_copo;
  if (mappo) train->base = core::BaseAlgo::kMappo;
  train->seed = seed;
}

std::optional<int> ParseCommandLine(
    util::FlagTable& flags, int argc, char** argv, std::ostream& help_out,
    const std::function<std::vector<Rule>()>& rules) {
  switch (flags.Parse(argc, argv, std::cerr)) {
    case util::FlagTable::Outcome::kHelp:
      flags.PrintUsage(help_out);
      return util::kExitOk;
    case util::FlagTable::Outcome::kVersion:
      std::cout << VersionLine(flags.program()) << "\n";
      return util::kExitOk;
    case util::FlagTable::Outcome::kError:
      flags.PrintUsage(std::cerr);
      return util::kExitUsage;
    case util::FlagTable::Outcome::kOk:
      break;
  }
  if (rules) {
    for (const Rule& rule : rules()) {
      if (rule.violated) {
        std::cerr << rule.message << "\n";
        flags.PrintUsage(std::cerr);
        return util::kExitUsage;
      }
    }
  }
  return std::nullopt;
}

std::string VersionLine(const std::string& program) {
  return program + " " +
         util::BuildInfoString(std::string("gemm-isa=") +
                               nn::ActiveGemmIsaName());
}

bool PublishPortFile(const std::string& path, int port) {
  const std::string tmp = path + ".tmp";
  std::ofstream out(tmp, std::ios::trunc);
  out << port << "\n";
  out.close();
  std::error_code ec;
  if (!out || (std::filesystem::rename(tmp, path, ec), ec)) {
    std::cerr << "failed to write --port-file " << path << "\n";
    return false;
  }
  return true;
}

}  // namespace agsc::tools
