#include "util/options.h"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <set>

#include "util/logging.h"

namespace xstream {

namespace {

// Parses a flag's whole value with `parse` (a strto* call), aborting with
// the flag's name when the value is empty, has trailing text or overflows.
template <typename T, typename Parse>
T ParseNumber(const std::string& key, const std::string& value, Parse parse) {
  char* end = nullptr;
  errno = 0;
  T number = parse(value.c_str(), &end);
  XS_CHECK(!value.empty() && *end == '\0' && errno == 0)
      << "flag --" << key << ": '" << value << "' is not a number";
  return number;
}

}  // namespace

Options::Options(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    XS_CHECK(arg.rfind("--", 0) == 0) << "malformed option (expected --key=value): " << arg;
    arg = arg.substr(2);
    auto eq = arg.find('=');
    if (eq == std::string::npos) {
      values_[arg] = "1";
    } else {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    }
  }
}

std::string Options::GetString(const std::string& key, const std::string& def) const {
  auto it = values_.find(key);
  return it == values_.end() ? def : it->second;
}

int64_t Options::GetInt(const std::string& key, int64_t def) const {
  auto it = values_.find(key);
  return it == values_.end() ? def : ParseNumber<int64_t>(key, it->second, [](auto s, auto e) {
    return std::strtoll(s, e, 10);
  });
}

uint64_t Options::GetUint(const std::string& key, uint64_t def) const {
  auto it = values_.find(key);
  if (it == values_.end()) {
    return def;
  }
  XS_CHECK(std::isdigit(static_cast<unsigned char>(it->second[0])))
      << "flag --" << key << ": '" << it->second << "' is not an unsigned number";
  return ParseNumber<uint64_t>(key, it->second,
                               [](auto s, auto e) { return std::strtoull(s, e, 10); });
}

double Options::GetDouble(const std::string& key, double def) const {
  auto it = values_.find(key);
  return it == values_.end() ? def : ParseNumber<double>(key, it->second, [](auto s, auto e) {
    return std::strtod(s, e);
  });
}

bool Options::GetBool(const std::string& key, bool def) const {
  auto it = values_.find(key);
  if (it == values_.end()) {
    return def;
  }
  return it->second == "1" || it->second == "true" || it->second == "yes";
}

bool Options::Has(const std::string& key) const { return values_.count(key) > 0; }

void Options::ExitOnUnknownFlags(std::string_view usage) const {
  std::set<std::string_view> known;
  for (size_t pos = usage.find("--"); pos != std::string_view::npos;
       pos = usage.find("--", pos + 2)) {
    size_t end = pos + 2;
    while (end < usage.size() &&
           (std::isalnum(static_cast<unsigned char>(usage[end])) || usage[end] == '-')) {
      ++end;
    }
    known.insert(usage.substr(pos + 2, end - pos - 2));
  }
  bool unknown = false;
  for (const auto& [key, value] : values_) {
    if (known.count(key) == 0) {
      std::fprintf(stderr, "unknown flag --%s\n", key.c_str());
      unknown = true;
    }
  }
  if (unknown) {
    std::exit(2);
  }
}

void Options::Set(const std::string& key, const std::string& value) { values_[key] = value; }

}  // namespace xstream
