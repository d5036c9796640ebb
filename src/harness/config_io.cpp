#include "harness/config_io.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <type_traits>

#include "harness/scenario.hpp"

namespace aquamac {

std::string_view to_string(DeploymentKind kind) {
  switch (kind) {
    case DeploymentKind::kUniformBox: return "uniform-box";
    case DeploymentKind::kLayeredColumn: return "layered-column";
    case DeploymentKind::kGrid: return "grid";
  }
  return "?";
}

std::string_view to_string(PropagationKind kind) {
  switch (kind) {
    case PropagationKind::kStraightLine: return "straight";
    case PropagationKind::kBellhopLite: return "bellhop";
  }
  return "?";
}

std::string_view to_string(ReceptionKind kind) {
  switch (kind) {
    case ReceptionKind::kDeterministic: return "deterministic";
    case ReceptionKind::kSinrPer: return "sinr";
  }
  return "?";
}

std::string_view to_string(Spreading spreading) {
  switch (spreading) {
    case Spreading::kCylindrical: return "cylindrical";
    case Spreading::kPractical: return "practical";
    case Spreading::kSpherical: return "spherical";
  }
  return "?";
}

std::string_view to_string(TrafficMode mode) {
  switch (mode) {
    case TrafficMode::kPoisson: return "poisson";
    case TrafficMode::kBatch: return "batch";
  }
  return "?";
}

std::uint64_t parse_scenario_uint(const std::string& what, const std::string& text,
                                  std::uint64_t max) {
  std::string_view digits{text};
  if (digits.starts_with('+')) digits.remove_prefix(1);
  std::uint64_t value = 0;
  const auto [end, error] = std::from_chars(digits.data(), digits.data() + digits.size(), value);
  if (digits.empty() || error != std::errc{} || end != digits.data() + digits.size() ||
      value > max) {
    throw std::invalid_argument(what + ": expected an integer in [0, " + std::to_string(max) +
                                "], got '" + text + "'");
  }
  return value;
}

namespace {

std::string trim(const std::string& s) {
  const auto begin = s.find_first_not_of(" \t\r");
  if (begin == std::string::npos) return {};
  return s.substr(begin, s.find_last_not_of(" \t\r") - begin + 1);
}

/// Rejects a string the file cannot hold: '#' starts a comment, a line
/// break ends the value, and load trims leading and trailing blanks.
void check_storable(const std::string& what, const std::string& text) {
  if (text.find_first_of("#\n\r") == std::string::npos && trim(text) == text) return;
  throw std::invalid_argument(what + ": '" + text +
                              "' cannot round-trip through a scenario file (no '#', line "
                              "break, or leading or trailing blank)");
}

/// Durations travel as decimal seconds, which reload to the same
/// nanosecond count only within this magnitude (about 26 days).
constexpr std::int64_t kMaxDurationNs = std::int64_t{1} << 51;

/// Index of `text` in `names`; throws listing the accepted spellings.
std::size_t parse_choice(const std::string& what, const std::string& text,
                         const std::vector<std::string_view>& names) {
  const auto it = std::find(names.begin(), names.end(), text);
  if (it != names.end()) return static_cast<std::size_t>(it - names.begin());
  std::string accepted;
  for (const std::string_view name : names) {
    accepted += accepted.empty() ? "" : ", ";
    accepted += name;
  }
  throw std::invalid_argument(what + ": expected one of " + accepted + ", got '" + text + "'");
}

/// The one parser of scenario values; `what` names the key or flag.
template <typename T>
void parse_value(const std::string& what, const std::string& text, T& out) {
  if constexpr (std::is_same_v<T, bool>) {
    // The spellings alternate false, true.
    out = parse_choice(what, text, {"false", "true", "0", "1", "no", "yes", "off", "on"}) % 2 == 1;
  } else if constexpr (std::is_enum_v<T>) {
    std::vector<std::string_view> names;
    for (int i = 0; to_string(static_cast<T>(i)) != "?"; ++i) {
      names.push_back(to_string(static_cast<T>(i)));
    }
    out = static_cast<T>(parse_choice(what, text, names));
  } else if constexpr (std::is_integral_v<T>) {
    out = static_cast<T>(parse_scenario_uint(what, text, std::numeric_limits<T>::max()));
  } else if constexpr (std::is_same_v<T, double>) {
    // strtod, unlike std::stod, keeps a subnormal result instead of
    // reporting it out of range, so every finite double saved loads.
    char* end = nullptr;
    out = std::strtod(text.c_str(), &end);
    if (text.empty() || end != text.c_str() + text.size() || !std::isfinite(out)) {
      throw std::invalid_argument(what + ": expected a finite number, got '" + text + "'");
    }
  } else if constexpr (std::is_same_v<T, Duration>) {
    double seconds = 0.0;
    parse_value(what, text, seconds);
    if (!(std::abs(seconds * 1e9) <= static_cast<double>(kMaxDurationNs))) {
      throw std::invalid_argument(what + ": " + text +
                                  " s is beyond 2^51 ns, where durations stop round-tripping");
    }
    out = Duration::from_seconds(seconds);
  } else {
    static_assert(std::is_same_v<T, std::string>);
    check_storable(what, text);
    out = text;
  }
}

/// The one formatter of scenario values; parse_value reads it back.
template <typename T>
std::string format_value(const std::string& what, const T& value) {
  if constexpr (std::is_same_v<T, bool>) {
    return value ? "true" : "false";
  } else if constexpr (std::is_enum_v<T>) {
    return std::string{to_string(value)};
  } else if constexpr (std::is_integral_v<T>) {
    return std::to_string(static_cast<std::uint64_t>(value));
  } else if constexpr (std::is_same_v<T, double>) {
    // max_digits10 makes every double exactly round-trippable; the
    // default 6 significant digits silently perturbed sim-time-s,
    // freq-khz and the fault rates on save -> load.
    std::ostringstream os;
    os.precision(std::numeric_limits<double>::max_digits10);
    os << value;
    return os.str();
  } else if constexpr (std::is_same_v<T, Duration>) {
    if (value.count_ns() > kMaxDurationNs || value.count_ns() < -kMaxDurationNs) {
      throw std::invalid_argument(what + ": " + std::to_string(value.count_ns()) +
                                  " ns is beyond 2^51 ns and would not reload exactly");
    }
    return format_value(what, value.to_seconds());
  } else {
    check_storable(what, value);
    return value;
  }
}

/// Parses `text` into `member` under `option`'s rules.
template <typename T>
void set_option(const ScenarioOption& option, const std::string& what, const std::string& text,
                T& member) {
  parse_value(what, text, member);
  if constexpr (std::is_integral_v<T>) member = std::max(member, static_cast<T>(option.at_least));
}

}  // namespace

void save_scenario(const ScenarioConfig& config, std::ostream& os) {
  std::ostringstream text;
  text << "# aquamac scenario\n";
  std::string_view group;
  for_each_scenario_option(
      [&](const ScenarioOption& option, const auto& value) {
        if (option.group != group) text << "\n# " << option.group << "\n";
        group = option.group;
        const std::string key{option.key};
        text << key << " = " << format_value("scenario key '" + key + "'", value) << "\n";
      },
      config);
  // Built whole first, so a value that cannot be saved leaves `os` untouched.
  os << text.str();
}

void save_scenario_file(const ScenarioConfig& config, const std::string& path) {
  std::ofstream os{path};
  if (!os) throw std::invalid_argument("cannot open " + path + " for writing");
  save_scenario(config, os);
}

ScenarioConfig load_scenario(std::istream& is, ScenarioConfig base) {
  std::map<std::string, int> line_of;  // key -> the line that set it
  std::string line;
  int line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    line = trim(line.substr(0, line.find('#')));
    if (line.empty()) continue;
    const std::string where = "scenario line " + std::to_string(line_no);
    const auto eq = line.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument(where + ": expected 'key = value', got '" + line + "'");
    }
    const std::string key = trim(line.substr(0, eq));
    const std::string value = trim(line.substr(eq + 1));
    if (const auto [first, fresh] = line_of.emplace(key, line_no); !fresh) {
      throw std::invalid_argument(where + ": scenario key '" + key +
                                  "' given twice (first on line " +
                                  std::to_string(first->second) + ")");
    }
    bool known = false;
    for_each_scenario_option(
        [&](const ScenarioOption& option, auto& member) {
          if (option.key != key) return;
          set_option(option, where + ": scenario key '" + key + "'", value, member);
          known = true;
        },
        base);
    if (!known) throw std::invalid_argument(where + ": unknown key '" + key + "'");
  }
  return base;
}

ScenarioConfig load_scenario_file(const std::string& path, ScenarioConfig base) {
  std::ifstream is{path};
  if (!is) throw std::invalid_argument("cannot open scenario file " + path);
  return load_scenario(is, std::move(base));
}

std::vector<CliParser::FlagSpec> scenario_flag_specs(ScenarioTool tool) {
  std::vector<CliParser::FlagSpec> specs;
  const ScenarioConfig defaults = paper_default_scenario();
  for_each_scenario_option(
      [&](const ScenarioOption& option, const auto& value) {
        if ((option.tools & tool) == 0) return;
        const std::string flag{option.flag()};
        specs.push_back({flag, format_value("--" + flag, value),
                         std::string{option.help} + " [key: " + std::string{option.key} + "]"});
      },
      defaults);
  return specs;
}

void apply_scenario_flags(const CliParser& cli, ScenarioTool tool, ScenarioConfig& config) {
  for_each_scenario_option(
      [&](const ScenarioOption& option, auto& member) {
        const std::string flag{option.flag()};
        if ((option.tools & tool) == 0 || !cli.given(flag)) return;
        set_option(option, "--" + flag, cli.get(flag), member);
      },
      config);
}

}  // namespace aquamac
