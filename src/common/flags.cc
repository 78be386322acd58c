#include "common/flags.h"

#include <cstdio>
#include <cstdlib>

#include "common/fault.h"
#include "common/string_util.h"
#include "common/threadpool.h"

namespace omnimatch {

namespace {

/// Malformed numeric flags are fatal: every binary taking flags is a
/// command-line tool, and silently running with atoi's 0 (the old
/// behaviour) is how "--threads=abc" trains on a zero-sized pool. Exit
/// rather than abort: this is an input error, not a programmer error.
[[noreturn]] void FatalFlagError(const std::string& name,
                                 const std::string& value,
                                 const char* expected) {
  std::fprintf(stderr,
               "omnimatch: invalid value \"%s\" for flag --%s: expected %s\n",
               value.c_str(), name.c_str(), expected);
  std::exit(2);
}

}  // namespace

Status FlagParser::Parse(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (!StartsWith(arg, "--")) {
      positional_.push_back(arg);
      continue;
    }
    std::string body = arg.substr(2);
    if (body.empty()) {
      return Status::InvalidArgument("bare '--' is not a valid flag");
    }
    size_t eq = body.find('=');
    if (eq != std::string::npos) {
      values_[body.substr(0, eq)] = body.substr(eq + 1);
    } else if (i + 1 < argc && !StartsWith(argv[i + 1], "--")) {
      values_[body] = argv[++i];
    } else {
      values_[body] = "true";
    }
  }
  return Status::OK();
}

const std::string* FlagParser::Find(const std::string& name) const {
  read_.insert(name);
  auto it = values_.find(name);
  return it == values_.end() ? nullptr : &it->second;
}

bool FlagParser::Has(const std::string& name) const {
  return Find(name) != nullptr;
}

std::string FlagParser::GetString(const std::string& name,
                                  const std::string& default_value) const {
  const std::string* value = Find(name);
  return value == nullptr ? default_value : *value;
}

int FlagParser::GetInt(const std::string& name, int default_value) const {
  const std::string* text = Find(name);
  if (text == nullptr) return default_value;
  int value = 0;
  if (!ParseInt32(*text, &value)) {
    FatalFlagError(name, *text, "an in-range decimal integer");
  }
  return value;
}

double FlagParser::GetDouble(const std::string& name,
                             double default_value) const {
  const std::string* text = Find(name);
  if (text == nullptr) return default_value;
  double value = 0.0;
  if (!ParseDouble(*text, &value)) {
    FatalFlagError(name, *text, "a decimal number");
  }
  return value;
}

bool FlagParser::GetBool(const std::string& name, bool default_value) const {
  const std::string* value = Find(name);
  if (value == nullptr) return default_value;
  return *value == "true" || *value == "1" || *value == "yes";
}

void FlagParser::RejectUnreadFlags() const {
  bool unread = false;
  for (const auto& [name, value] : values_) {
    if (read_.count(name) != 0) continue;
    std::fprintf(stderr, "omnimatch: unknown flag --%s\n", name.c_str());
    unread = true;
  }
  if (unread) std::exit(2);
}

int ApplyThreadsFlag(const FlagParser& flags) {
  SetNumThreads(flags.GetInt("threads", 0));
  return GetNumThreads();
}

Status ApplyFaultsFlag(const FlagParser& flags) {
  if (!flags.Has("faults")) return Status::OK();
  return FaultInjector::Global().ArmFromString(
      flags.GetString("faults", ""));
}

}  // namespace omnimatch
