#pragma once
// Minimal declarative command-line flag parser for the tools and
// examples: --name=value / --name value / --flag, with typed accessors,
// automatic --help text, and unknown-flag errors.

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

namespace aquamac {

class CliParser {
 public:
  /// `spec` entries register flags: name, default (empty = required off
  /// switch), help line.
  struct FlagSpec {
    std::string name;
    std::string default_value;
    std::string help;
  };

  CliParser(std::string program, std::vector<FlagSpec> spec);

  /// Parses argv. Returns false if --help was requested (help text is in
  /// help_text()). Throws std::invalid_argument on unknown flags or
  /// malformed values.
  bool parse(int argc, const char* const* argv);

  [[nodiscard]] std::string help_text() const;

  [[nodiscard]] bool has(const std::string& name) const;
  /// True only when the flag appeared on argv (a default does not count).
  [[nodiscard]] bool given(const std::string& name) const;
  [[nodiscard]] std::string get(const std::string& name) const;
  [[nodiscard]] double get_double(const std::string& name) const;
  [[nodiscard]] std::int64_t get_int(const std::string& name) const;
  [[nodiscard]] bool get_bool(const std::string& name) const;

  /// Non-flag positional arguments, in order.
  [[nodiscard]] const std::vector<std::string>& positional() const { return positional_; }

 private:
  const FlagSpec& find_spec(const std::string& name) const;

  std::string program_;
  std::vector<FlagSpec> spec_;
  std::map<std::string, std::string> values_;
  std::set<std::string> given_;
  std::vector<std::string> positional_;
};

}  // namespace aquamac
