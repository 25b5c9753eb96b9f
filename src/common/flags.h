#ifndef TPART_COMMON_FLAGS_H_
#define TPART_COMMON_FLAGS_H_

// Command-line flag parsing shared by the bench binaries and the example
// drivers: `--name=value` and bare `--name` arguments, looked up by name.
// A numeric value must parse in full; anything else (`--txns=2k`,
// `--sample-every=-1`) exits with status 2 naming the flag and value.

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <string>
#include <string_view>
#include <system_error>

namespace tpart {

/// --name=value strings.
inline std::string StringFlag(int argc, char** argv, const char* name,
                              const std::string& def) {
  const std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return argv[i] + prefix.size();
    }
  }
  return def;
}

/// Parses all of `s` as a T; false on an empty, partial or out-of-range
/// parse.
template <typename T>
bool ParseWhole(std::string_view s, T* out) {
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

[[noreturn]] inline void BadFlagValue(const char* name,
                                      const std::string& value) {
  std::fprintf(stderr, "bad value for --%s: %s\n", name, value.c_str());
  std::exit(2);
}

/// --name=value non-negative integers (counts, sizes, cadences).
inline std::uint64_t IntFlag(int argc, char** argv, const char* name,
                             std::uint64_t def) {
  const std::string s = StringFlag(argc, argv, name, "");
  if (s.empty()) return def;
  std::uint64_t v = 0;
  if (!ParseWhole(s, &v)) BadFlagValue(name, s);
  return v;
}

/// --name=N or --name=1/N: a sampling stride, every Nth item.
inline std::uint64_t StrideFlag(int argc, char** argv, const char* name,
                                std::uint64_t def) {
  const std::string s = StringFlag(argc, argv, name, "");
  if (s.empty()) return def;
  std::string_view n = s;
  if (n.substr(0, 2) == "1/") n.remove_prefix(2);
  std::uint64_t v = 0;
  if (!ParseWhole(n, &v)) BadFlagValue(name, s);
  return v;
}

/// --name=value doubles (probabilities, ratios).
inline double DoubleFlag(int argc, char** argv, const char* name,
                         double def) {
  const std::string s = StringFlag(argc, argv, name, "");
  if (s.empty()) return def;
  double v = 0.0;
  if (!ParseWhole(s, &v)) BadFlagValue(name, s);
  return v;
}

/// Bare --name presence.
inline bool BoolFlag(int argc, char** argv, const char* name) {
  const std::string flag = std::string("--") + name;
  for (int i = 1; i < argc; ++i) {
    if (flag == argv[i]) return true;
  }
  return false;
}

/// The first argument that is not `--name` or `--name=value` for one of
/// the `known` names, or nullptr when every argument is recognised.
inline const char* FirstUnknownFlag(
    int argc, char** argv, std::initializer_list<std::string_view> known) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg.substr(0, 2) != "--") return argv[i];
    arg.remove_prefix(2);
    const std::string_view name = arg.substr(0, arg.find('='));
    if (std::find(known.begin(), known.end(), name) == known.end()) {
      return argv[i];
    }
  }
  return nullptr;
}

}  // namespace tpart

#endif  // TPART_COMMON_FLAGS_H_
