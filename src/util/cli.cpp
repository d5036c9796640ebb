#include "util/cli.hpp"

#include <sstream>

namespace aquamac {

CliParser::CliParser(std::string program, std::vector<FlagSpec> spec)
    : program_{std::move(program)}, spec_{std::move(spec)} {
  for (const FlagSpec& flag : spec_) values_[flag.name] = flag.default_value;
}

const CliParser::FlagSpec& CliParser::find_spec(const std::string& name) const {
  for (const FlagSpec& flag : spec_) {
    if (flag.name == name) return flag;
  }
  throw std::invalid_argument(program_ + ": unknown flag --" + name);
}

bool CliParser::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") return false;
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg = arg.substr(2);
    std::string value;
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
      (void)find_spec(arg);
    } else {
      (void)find_spec(arg);
      // Boolean switch unless the next token is a value.
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        value = argv[++i];
      } else {
        value = "true";
      }
    }
    given_.insert(arg);
    values_[arg] = std::move(value);
  }
  return true;
}

std::string CliParser::help_text() const {
  std::ostringstream os;
  os << "usage: " << program_ << " [flags]\n\nflags:\n";
  for (const FlagSpec& flag : spec_) {
    os << "  --" << flag.name;
    if (!flag.default_value.empty()) os << " (default: " << flag.default_value << ")";
    os << "\n      " << flag.help << "\n";
  }
  return os.str();
}

bool CliParser::has(const std::string& name) const {
  (void)find_spec(name);
  const auto it = values_.find(name);
  return it != values_.end() && !it->second.empty();
}

bool CliParser::given(const std::string& name) const {
  (void)find_spec(name);
  return given_.contains(name);
}

std::string CliParser::get(const std::string& name) const {
  (void)find_spec(name);
  return values_.at(name);
}

double CliParser::get_double(const std::string& name) const {
  const std::string raw = get(name);
  try {
    std::size_t pos = 0;
    const double v = std::stod(raw, &pos);
    if (pos != raw.size()) throw std::invalid_argument("trailing");
    return v;
  } catch (const std::exception&) {
    throw std::invalid_argument(program_ + ": --" + name + " expects a number, got '" + raw +
                                "'");
  }
}

std::int64_t CliParser::get_int(const std::string& name) const {
  const std::string raw = get(name);
  try {
    std::size_t pos = 0;
    const std::int64_t v = std::stoll(raw, &pos);
    if (pos != raw.size()) throw std::invalid_argument("trailing");
    return v;
  } catch (const std::exception&) {
    throw std::invalid_argument(program_ + ": --" + name + " expects an integer, got '" + raw +
                                "'");
  }
}

bool CliParser::get_bool(const std::string& name) const {
  const std::string raw = get(name);
  if (raw == "true" || raw == "1" || raw == "yes" || raw == "on") return true;
  if (raw == "false" || raw == "0" || raw == "no" || raw == "off" || raw.empty()) return false;
  throw std::invalid_argument(program_ + ": --" + name + " expects a boolean, got '" + raw +
                              "'");
}

}  // namespace aquamac
