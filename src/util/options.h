// Tiny `--key=value` command-line option parser for bench and example
// binaries. No external dependency, no registration: callers query by name
// with a default, so every binary runs with zero arguments (required for the
// bench sweep driver) and can be scaled up explicitly.
#ifndef XSTREAM_UTIL_OPTIONS_H_
#define XSTREAM_UTIL_OPTIONS_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

namespace xstream {

class Options {
 public:
  Options() = default;
  // Parses argv of the form --key=value or --flag (implicit value "1").
  // Aborts on malformed arguments so typos fail loudly.
  Options(int argc, char** argv);

  std::string GetString(const std::string& key, const std::string& def) const;
  // The numeric getters abort, naming the flag, when a given value is empty
  // or not entirely a number ("64MB", "abc"); GetUint also rejects a sign,
  // so "-1" cannot wrap around.
  int64_t GetInt(const std::string& key, int64_t def) const;
  uint64_t GetUint(const std::string& key, uint64_t def) const;
  double GetDouble(const std::string& key, double def) const;
  bool GetBool(const std::string& key, bool def) const;

  bool Has(const std::string& key) const;

  // Exits with status 2 and "unknown flag --X" on stderr for every given
  // flag that `usage` does not mention as a `--name` token, so a binary's
  // help text is its list of accepted flags.
  void ExitOnUnknownFlags(std::string_view usage) const;

  // For tests.
  void Set(const std::string& key, const std::string& value);

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace xstream

#endif  // XSTREAM_UTIL_OPTIONS_H_
