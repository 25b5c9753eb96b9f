#ifndef TPART_COMMON_FLAGS_H_
#define TPART_COMMON_FLAGS_H_

// Command-line flag parsing shared by the bench binaries and the example
// drivers: `--name=value` and bare `--name` arguments, looked up by name.

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <string>
#include <string_view>

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

/// --name=value integers.
inline std::int64_t IntFlag(int argc, char** argv, const char* name,
                            std::int64_t def) {
  const std::string s = StringFlag(argc, argv, name, "");
  return s.empty() ? def : std::atoll(s.c_str());
}

/// --name=value doubles (probabilities, ratios).
inline double DoubleFlag(int argc, char** argv, const char* name,
                         double def) {
  const std::string s = StringFlag(argc, argv, name, "");
  return s.empty() ? def : std::atof(s.c_str());
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
