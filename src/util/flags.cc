#include "util/flags.h"

#include <algorithm>
#include <ostream>
#include <sstream>

#include "util/parse.h"

namespace agsc::util {

FlagTable::FlagTable(std::string program, std::string legend)
    : program_(std::move(program)), legend_(std::move(legend)) {}

FlagTable::Flag& FlagTable::Add(std::string name, std::string metavar,
                                Target target) {
  Flag& flag = flags_.emplace_back();
  flag.name = std::move(name);
  flag.metavar = std::move(metavar);
  flag.target = target;
  return flag;
}

void FlagTable::Int(std::string name, std::string metavar, int lo, int hi,
                    int* target) {
  Flag& flag = Add(std::move(name), std::move(metavar), target);
  flag.lo = lo;
  flag.hi = hi;
}

void FlagTable::Double(std::string name, std::string metavar, double lo,
                       double hi, double* target) {
  Flag& flag = Add(std::move(name), std::move(metavar), target);
  flag.lo = lo;
  flag.hi = hi;
}

void FlagTable::Uint64(std::string name, std::string metavar,
                       uint64_t* target) {
  Add(std::move(name), std::move(metavar), target);
}

void FlagTable::OneOf(std::string name, std::vector<std::string> choices,
                      std::string* target) {
  std::string metavar = choices.front();
  for (size_t i = 1; i < choices.size(); ++i) metavar.append("|") += choices[i];
  Add(std::move(name), std::move(metavar), target).choices = std::move(choices);
}

void FlagTable::String(std::string name, std::string metavar,
                       std::string* target) {
  Add(std::move(name), std::move(metavar), target);
}

void FlagTable::Switch(std::string name, bool* target) {
  Add(std::move(name), "", target);
}

bool FlagTable::Store(const Flag& flag, const std::string& value,
                      std::ostream& err) {
  bool ok = false;
  std::ostringstream expected;
  if (int* const* out = std::get_if<int*>(&flag.target)) {
    const int lo = static_cast<int>(flag.lo);
    const int hi = static_cast<int>(flag.hi);
    ok = ParseIntInRange(value, lo, hi, *out);
    expected << "integer in [" << lo << ", " << hi << "]";
  } else if (double* const* out = std::get_if<double*>(&flag.target)) {
    ok = ParseDoubleInRange(value, flag.lo, flag.hi, *out);
    expected << "number in [" << flag.lo << ", " << flag.hi << "]";
  } else if (uint64_t* const* out = std::get_if<uint64_t*>(&flag.target)) {
    ok = ParseUint64(value, *out);
    expected << "unsigned integer";
  } else if (std::string* const* out =
                 std::get_if<std::string*>(&flag.target)) {
    ok = flag.choices.empty() ||
         std::find(flag.choices.begin(), flag.choices.end(), value) !=
             flag.choices.end();
    if (ok) **out = value;
    expected << flag.metavar;
  }
  if (!ok) {
    err << "invalid value for " << flag.name << ": '" << value
        << "' (expected " << expected.str() << ")\n";
  }
  return ok;
}

FlagTable::Outcome FlagTable::Parse(int argc, const char* const* argv,
                                    std::ostream& err) {
  for (Flag& flag : flags_) flag.given = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") return Outcome::kHelp;
    if (arg == "--version" || arg == "--build-info") return Outcome::kVersion;
    const auto it = std::find_if(flags_.begin(), flags_.end(),
                                 [&](const Flag& f) { return f.name == arg; });
    if (it == flags_.end()) {
      err << "unknown flag: " << arg << "\n";
      return Outcome::kError;
    }
    if (bool* const* on = std::get_if<bool*>(&it->target)) {
      **on = true;
    } else if (i + 1 >= argc) {
      err << "missing value for " << arg << "\n";
      return Outcome::kError;
    } else if (!Store(*it, argv[++i], err)) {
      return Outcome::kError;
    }
    it->given = true;
  }
  return Outcome::kOk;
}

bool FlagTable::Given(const std::string& name) const {
  return std::any_of(flags_.begin(), flags_.end(), [&](const Flag& f) {
    return f.name == name && f.given;
  });
}

void FlagTable::PrintUsage(std::ostream& out) const {
  out << "usage: " << program_;
  size_t column = 7 + program_.size();
  const auto emit = [&](const std::string& item) {
    if (column + 1 + item.size() > 76) {
      out << "\n ";
      column = 1;
    }
    out << ' ' << item;
    column += 1 + item.size();
  };
  for (const Flag& flag : flags_) {
    std::string item = "[" + flag.name;
    if (!flag.metavar.empty()) item.append(" ") += flag.metavar;
    emit(item + "]");
  }
  emit("[--help]");
  emit("[--version|--build-info]");
  out << "\n" << legend_;
}

}  // namespace agsc::util
