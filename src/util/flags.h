#ifndef AGSC_UTIL_FLAGS_H_
#define AGSC_UTIL_FLAGS_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <variant>
#include <vector>

namespace agsc::util {

/// A declarative command-line flag table: each entry is {name, metavar,
/// kind, target}, and one loop parses argv against it. Every value flag
/// takes the next argument as its value ("--pois 12"); a flag given twice
/// keeps its last value. A value is parsed strictly (util/parse) and
/// range-checked before it is stored, so a rejected value leaves its target
/// untouched. The usage text is generated from the same table.
///
/// Errors go to the caller's stream with a fixed wording the exit-2
/// contract of the binaries pins:
///   missing value for --pois
///   invalid value for --pois: 'abc' (expected integer in [1, 1000000000])
///   invalid value for --campus: 'x' (expected purdue|ncsu)
///   invalid value for --seed: '-1' (expected unsigned integer)
///   unknown flag: --bogus
class FlagTable {
 public:
  enum class Outcome {
    kOk,       ///< Every argument parsed.
    kHelp,     ///< --help or -h; the scan stopped there.
    kVersion,  ///< --version or --build-info; the scan stopped there.
    kError,    ///< A usage error, already reported on the error stream.
  };

  /// `program` opens the usage line; `legend` (e.g. the exit codes)
  /// follows the generated flag list verbatim.
  FlagTable(std::string program, std::string legend);

  /// Integer in [lo, hi].
  void Int(std::string name, std::string metavar, int lo, int hi, int* target);
  /// Number in [lo, hi]; NaN is always rejected.
  void Double(std::string name, std::string metavar, double lo, double hi,
              double* target);
  /// Unsigned 64-bit integer (no sign, no wrap-around).
  void Uint64(std::string name, std::string metavar, uint64_t* target);
  /// One of `choices`, stored verbatim.
  void OneOf(std::string name, std::vector<std::string> choices,
             std::string* target);
  /// Any string, stored verbatim.
  void String(std::string name, std::string metavar, std::string* target);
  /// No value: sets `*target` to true when given.
  void Switch(std::string name, bool* target);

  /// Parses argv[1..argc) into the targets. Stops at the first error, at
  /// --help/-h and at --version/--build-info.
  Outcome Parse(int argc, const char* const* argv, std::ostream& err);

  /// True if the last Parse stored a value for `name`.
  bool Given(const std::string& name) const;

  const std::string& program() const { return program_; }
  void PrintUsage(std::ostream& out) const;

 private:
  using Target = std::variant<int*, double*, uint64_t*, std::string*, bool*>;
  struct Flag {
    std::string name;
    std::string metavar;  ///< Empty for a switch; "a|b" for one-of.
    Target target;
    double lo = 0.0, hi = 0.0;  ///< Int/Double range (ints are exact).
    std::vector<std::string> choices;  ///< Non-empty only for one-of.
    bool given = false;
  };

  Flag& Add(std::string name, std::string metavar, Target target);
  /// Parses and stores `value`; false (target untouched, error reported)
  /// if it is rejected.
  static bool Store(const Flag& flag, const std::string& value,
                    std::ostream& err);

  std::string program_;
  std::string legend_;
  std::vector<Flag> flags_;
};

}  // namespace agsc::util

#endif  // AGSC_UTIL_FLAGS_H_
