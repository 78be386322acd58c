#ifndef OMNIMATCH_COMMON_FLAGS_H_
#define OMNIMATCH_COMMON_FLAGS_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/status.h"

namespace omnimatch {

/// Minimal command-line flag parser for the benchmark and example binaries.
///
/// Accepts `--name=value` and `--name value`; bare `--name` is treated as
/// boolean true. Anything not starting with `--` is a positional argument.
/// Every Has/Get* call marks its flag as read; RejectUnreadFlags() then
/// turns a misspelled or unsupported flag into an exit instead of a run
/// that silently ignored it.
class FlagParser {
 public:
  /// Parses argv. Returns InvalidArgument on malformed input.
  Status Parse(int argc, char** argv);

  bool Has(const std::string& name) const;

  std::string GetString(const std::string& name,
                        const std::string& default_value) const;
  /// Numeric getters parse strictly (ParseInt32/ParseDouble: the whole
  /// value must be a valid in-range number). A malformed value prints an
  /// error naming the flag and exits with status 2 — never the silent 0
  /// that atoi used to produce for "--threads=abc".
  int GetInt(const std::string& name, int default_value) const;
  double GetDouble(const std::string& name, double default_value) const;
  bool GetBool(const std::string& name, bool default_value) const;

  /// Call after the binary's last Has/Get*: prints every given flag that
  /// none of them read and exits with status 2 if there is one.
  void RejectUnreadFlags() const;

  const std::vector<std::string>& positional() const { return positional_; }

 private:
  /// Looks `name` up and marks it read.
  const std::string* Find(const std::string& name) const;

  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
  mutable std::set<std::string> read_;
};

/// Reads the shared `--threads` flag (0 = all hardware threads) and sizes
/// the global compute thread pool accordingly. Returns the resolved thread
/// count. Every benchmark / example binary calls this right after Parse()
/// so the whole fleet agrees on one spelling.
int ApplyThreadsFlag(const FlagParser& flags);

/// Arms the global fault injector from the shared `--faults` flag (same
/// `point@step[:key=value,...]` grammar as the OMNIMATCH_FAULTS environment
/// variable; see common/fault.h). No-op when the flag is absent. Returns
/// InvalidArgument for malformed specs.
Status ApplyFaultsFlag(const FlagParser& flags);

}  // namespace omnimatch

#endif  // OMNIMATCH_COMMON_FLAGS_H_
